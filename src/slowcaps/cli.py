"""Command-line entry point.

Subcommands cover the whole workflow: ``synth`` writes a synthetic
dataset, ``fit-features`` fits the feature chain, ``train`` fits the
network, ``evaluate`` scores a checkpoint, ``tune`` runs the
filter/LSTM sensitivity search and ``ablate`` compares architecture
variants.  Artifacts are deterministic for a fixed seed and config;
wall-clock timing goes to a separate ``timing.json`` so the other files
are byte-stable across reruns.  Errors print one JSON line on stderr;
exit code 2 flags configuration problems, 1 anything else.

Set ``SLOWCAPS_LOG=DEBUG|INFO|WARNING|ERROR`` to control log verbosity.
Each manifest records the numpy version, the BLAS build and the
``*_NUM_THREADS`` environment.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import checkpoint as ckpt
from . import config as C
from . import data as D
from . import evaluation as E
from . import features as F
from . import network
from . import pipeline as P
from . import training as T

__all__ = ["main", "build_parser"]

log = logging.getLogger("slowcaps.cli")


def _setup_logging() -> None:
    name = os.environ.get("SLOWCAPS_LOG", "WARNING").strip().upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.write_text("".join(map(D.csv_line, [header, *rows])), encoding="utf-8", newline="")


def _write_features_dump(path: Path, header: list[str],
                         units: list[tuple[str, int, np.ndarray]]) -> None:
    """The rows ``_write_csv`` would write for each (unit id, change
    point, values) unit: id, cycle, stage, then the row's values, floats
    from ``.tolist()`` written by ``repr`` as ``csv_cell`` writes them."""
    lines = [D.csv_line(header)]
    for unit_id, change_point, values in units:
        uid = D.csv_cell(unit_id)
        for k, vals in enumerate(values.tolist(), start=1):
            stage = "normal" if k <= change_point else "degradation"
            lines.append(",".join((uid, str(k), stage, *map(repr, vals))) + "\r\n")
    path.write_text("".join(lines), encoding="utf-8", newline="")


def _write_manifest(out: Path, command: str, cfg: dict, seed: int | None,
                    artifacts: list[str], **extra) -> None:
    doc = {
        "command": command,
        "dataset": cfg["dataset"],
        "seed": seed,
        "config_digest": C.config_digest(cfg),
        "version": __version__,
        "artifacts": sorted(artifacts),
        "runtime": _runtime(),
    }
    doc.update(extra)
    _write_json(out / "manifest.json", doc)


def _runtime() -> dict:
    """numpy version, BLAS build and thread settings: fixed on one host,
    so manifests stay byte-stable across reruns."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    }


def _setup(args) -> tuple[dict, Path]:
    cfg = C.load_config(args.config)
    if args.set:
        C.apply_overrides(cfg, args.set)
    C.validate_config(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _units(cfg: dict, data_dir: Path, split: str) -> list[D.RunToFailureSeries]:
    """The ``"train"`` or ``"test"`` units of the configured dataset:
    run-to-failure units, or milling cuts split by case as
    ``data.load_milling`` splits them."""
    ds = cfg["dataset"]
    if ds == "milling":
        path = data_dir / "milling.csv"
        if not path.exists():
            raise FileNotFoundError(f"missing milling data {path}")
        return D.load_milling(path)[split]
    n_sensors = int(cfg["synthetic"]["channels"]) if ds == "synthetic" else D.CMAPSS_SENSORS
    if split == "train":
        path = data_dir / f"train_{ds}.txt"
        if not path.exists():
            raise FileNotFoundError(f"missing training data {path}")
        return D.load_cmapss(path, rul_max=float(cfg["rul_max"]),
                             n_sensors=n_sensors)["train"]
    path = data_dir / f"test_{ds}.txt"
    if not path.exists():
        raise FileNotFoundError(f"missing test data {path}")
    rul_path = data_dir / f"RUL_{ds}.txt"
    if not rul_path.exists():
        raise FileNotFoundError(f"missing residual-life data {rul_path}")
    return D.load_cmapss(None, path, rul_path,
                         rul_max=float(cfg["rul_max"]), n_sensors=n_sensors)["test"]


def _model_config(cfg: dict, pipe: F.FeaturePipeline, variant: str) -> network.ModelConfig:
    """The architecture ``variant`` gets on frames of ``pipe`` (the
    variant's pipe: without slow columns for the no-sfa variants).

    A model whose float64 values, gradients and two Adam moments would
    not fit in the host's physical memory is refused with a
    ``MemoryError`` before anything is allocated: on a host that
    overcommits memory the allocation could succeed and the
    initialization's draw be killed."""
    _, use_lstm = P.variant_flags(variant)
    model_cfg = C.resolve_model_config(
        cfg,
        frame_channels=pipe.frame_channels,
        num_slow=pipe.sfa.num_slow,
        plain_channels=pipe.sfa.n_channels,
        window=pipe.window,
        use_lstm=use_lstm,
    )
    need = 4 * 8 * sum(math.prod(s) for s in network.parameter_shapes(model_cfg).values())
    _check_host_memory(need, "the model's parameters, gradients and Adam moments")
    return model_cfg


def _check_host_memory(need: int, what: str, where: Path | None = None) -> None:
    """Raise a ``MemoryError`` if ``need`` bytes for ``what`` exceed the
    host's physical memory; ``where`` names the file that asked for them."""
    host = _host_memory_bytes()
    if host is not None and need > host:
        prefix = "" if where is None else f"{where}: "
        raise MemoryError(f"{prefix}Unable to allocate {need / 2**30:.1f} GiB for {what}: "
                          f"the host has {host / 2**30:.1f} GiB of memory")


def _host_memory_bytes() -> int | None:
    """The host's physical memory, or None where ``os.sysconf`` cannot
    tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _features_path(raw: str) -> Path:
    p = Path(raw)
    return p / "features.json" if p.is_dir() else p


def _load_features(raw: str) -> F.FeaturePipeline:
    path = _features_path(raw)
    arrays = ckpt.load_arrays(path)
    try:
        return F.pipeline_from_arrays(arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _training_frames(cfg: dict, units: list[D.RunToFailureSeries], pipe: F.FeaturePipeline,
                     features: str | None) -> F.FrameBatch:
    """Labelled frames of the training ``units``: every row of a milling
    cut, the degradation stage of a run-to-failure unit.  A unit that does
    not fit ``pipe`` (a window longer than every stage, say) is an error
    of the ``features`` file, where the pipe came from one."""
    try:
        if cfg["dataset"] == "milling":
            return P.build_frames_milling(units, pipe)
        return P.build_frames(units, pipe, float(cfg["rul_max"]))
    except ValueError as exc:
        if features is None:
            raise
        raise ValueError(f"{_features_path(features)}: {exc}") from None


def _train_variant(cfg: dict, pipe: F.FeaturePipeline, variant: str,
                   units: list[D.RunToFailureSeries], train_cfg: T.TrainConfig,
                   features: str | None = None):
    """Train ``variant`` on the frames of the training ``units``, cut by
    ``pipe`` without its slow columns for the no-sfa variants.  Returns
    the variant's pipe, its ``_model_config``, the trained parameters and
    the train report."""
    include_slow, _ = P.variant_flags(variant)
    pipe_v = pipe if include_slow else pipe.without_slow()
    batch = _training_frames(cfg, units, pipe_v, features)
    model_cfg = _model_config(cfg, pipe_v, variant)
    params, report = T.train(model_cfg, batch, train_cfg)
    return pipe_v, model_cfg, params, report


def _score(cfg: dict, params, model_cfg: network.ModelConfig, pipe_v: F.FeaturePipeline,
           series: list[D.RunToFailureSeries], label_scale: float, *, variant: str,
           seed: int | None, clip: bool = True, where: Path | None = None) -> E.EvaluationReport:
    """The report of one prediction per unit of ``series`` at its last
    cycle, clipped into [0, rul_max] unless ``clip`` is off; ``where``
    names the file of the model for a memory refusal."""
    steps = model_cfg.sequence_length
    _check_host_memory(8 * len(series) * steps * model_cfg.window_length * model_cfg.in_channels,
                       f"the last-point sequences of {len(series)} units, {steps} frames each",
                       where)
    ids, preds = E.last_point_predictions(params, model_cfg, pipe_v, series, label_scale)
    return E.build_report(ids, [s.true_rul for s in series], preds, variant=variant, seed=seed,
                          clip=clip, rul_max=float(cfg["rul_max"]) if clip else None)


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    cfg, out = _setup(args)
    spec, n_train = C.synthetic_spec_from(cfg)
    generated = D.generate_synthetic(spec, args.seed)
    series = generated["series"]
    train, test = series[:n_train], series[n_train:]
    paths = D.export_cmapss_format(train, out, tag="synthetic")
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0x7E57]))
    paths.update(D.export_cmapss_format(
        test, out, tag="synthetic", truncate_for_test=True,
        rng=rng, rul_max=spec.rul_max,
    ))
    truth = generated["truth"]
    _write_json(out / "truth.json", {
        "mixing": np.asarray(truth["mixing"]).tolist(),
        "units": [{"unit_id": u["unit_id"], "change_point": int(u["change_point"]),
                   "length": int(np.asarray(u["latents"]).shape[0])}
                  for u in truth["units"]],
    })
    artifacts = [p.name for p in paths.values()] + ["truth.json"]
    _write_manifest(out, "synth", cfg, args.seed, artifacts,
                    train_units=len(train), test_units=len(test),
                    channels=spec.channels)
    return 0


def cmd_fit_features(args) -> int:
    cfg, out = _setup(args)
    settings = C.feature_settings_from(cfg)
    if cfg["dataset"] == "milling" and settings.per_condition:
        raise C.ConfigError(
            ["features.per_condition is not available for the milling dataset"]
        )
    series = _units(cfg, Path(args.data_dir), "train")
    pipe, diag, _ = P.fit_features(series, settings)
    ckpt.save_arrays(out / "features.json", F.pipeline_to_arrays(pipe))

    retained = np.flatnonzero(pipe.channel_mask).tolist()
    lambdas = pipe.sfa.lambdas.tolist()
    _write_json(out / "features_meta.json", {
        "num_slow": pipe.num_slow,
        "window": pipe.window,
        "ridge": pipe.sfa.ridge,
        "lambdas": lambdas,
        "retained_channels": retained,
        "acf_band": diag.acf_band,
        "per_condition": pipe.condition is not None,
    })
    _write_csv(out / "slowness.csv", ["index", "lambda"],
               [[i + 1, x] for i, x in enumerate(lambdas)])
    artifacts = ["features.json", "features_meta.json", "slowness.csv"]
    if diag.acf is not None:
        _write_csv(out / "acf.csv", ["lag", "acf"],
                   [[lag, float(v)] for lag, v in enumerate(diag.acf)])
        artifacts.append("acf.csv")

    header = (["unit", "cycle", "stage"]
              + [f"z{c:02d}" for c in retained]
              + [f"slow{i + 1}" for i in range(pipe.num_slow)])
    _write_features_dump(out / "features_dump.csv", header,
                         [(s.unit_id, s.change_point, pipe.transform(s.sensors, s.settings))
                          for s in series])
    artifacts.append("features_dump.csv")

    _write_manifest(out, "fit-features", cfg, args.seed, artifacts,
                    num_slow=pipe.num_slow, window=pipe.window)
    return 0


def cmd_train(args) -> int:
    cfg, out = _setup(args)
    pipe = _load_features(args.features)
    train_cfg = C.train_config_from(cfg, args.seed, args.epochs)
    _, model_cfg, params, report = _train_variant(
        cfg, pipe, args.variant, _units(cfg, Path(args.data_dir), "train"), train_cfg,
        args.features)

    ckpt.save_arrays(out / "checkpoint.json", ckpt.tensors_to_arrays(params))
    _write_json(out / "model_config.json", {
        "architecture": asdict(model_cfg),
        "variant": args.variant,
        "label_scale": train_cfg.label_scale,
        "seed": args.seed,
        "dataset": cfg["dataset"],
    })
    _write_json(out / "train_report.json", asdict(report))
    _write_csv(out / "history.csv", ["epoch", "train_loss", "val_loss"],
               [[i, tr, va] for i, (tr, va) in
                enumerate(zip(report.train_loss, report.val_loss), start=1)])
    _write_manifest(
        out, "train", cfg, args.seed,
        ["checkpoint.json", "model_config.json", "train_report.json", "history.csv"],
        variant=args.variant, parameters=report.parameter_count,
        best_epoch=report.best_epoch,
    )
    return 0


def cmd_evaluate(args) -> int:
    cfg, out = _setup(args)
    model_dir = Path(args.model)
    path = model_dir / "model_config.json"
    try:
        model_doc = json.loads(path.read_text(encoding="utf-8"))
        model_cfg = network.ModelConfig(**model_doc["architecture"])
        label_scale = float(model_doc["label_scale"])
        if not (math.isfinite(label_scale) and label_scale > 0):
            raise ValueError(f"label_scale must be a positive number, got {label_scale!r}")
        variant = model_doc.get("variant", "full")
        include_slow, _ = P.variant_flags(variant)
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"{path}: malformed model config: {exc}") from None
    ckpt_path = model_dir / "checkpoint.json"
    arrays = ckpt.load_arrays(ckpt_path)
    want = network.parameter_shapes(model_cfg)
    problems = ([f"missing {k}" for k in sorted(want.keys() - arrays.keys())]
                + [f"unexpected {k}" for k in sorted(arrays.keys() - want.keys())]
                + [f"{k} has shape {arrays[k].shape}, expected {want[k]}"
                   for k in sorted(want.keys() & arrays.keys()) if arrays[k].shape != want[k]])
    if problems:
        raise ValueError(f"{ckpt_path}: does not match model_config.json: " + "; ".join(problems))
    params = ckpt.arrays_to_tensors(arrays, requires_grad=False)
    pipe = _load_features(args.features)
    pipe_v = pipe if include_slow else pipe.without_slow()
    frame = (pipe_v.window, pipe_v.frame_channels)
    if frame != (model_cfg.window_length, model_cfg.in_channels):
        raise ValueError(
            f"{_features_path(args.features)}: {frame[0]}x{frame[1]} frames do not match "
            f"model_config.json ({model_cfg.window_length}x{model_cfg.in_channels})")

    series = _units(cfg, Path(args.data_dir), "test")
    report = _score(cfg, params, model_cfg, pipe_v, series, label_scale, variant=variant,
                    seed=model_doc.get("seed"), clip=not args.no_clip, where=path)
    E.emit_report(report, out, stem="report")
    _write_manifest(out, "evaluate", cfg, args.seed,
                    ["report.json", "report_predictions.csv"],
                    variant=variant, units=len(series),
                    rmse=report.rmse, score=report.score)
    return 0


def cmd_tune(args) -> int:
    cfg, out = _setup(args)
    pipe = _load_features(args.features)
    batch = _training_frames(cfg, _units(cfg, Path(args.data_dir), "train"), pipe,
                             args.features)

    def config_for(filters: int, lstm_units: int) -> network.ModelConfig:
        cell = copy.deepcopy(cfg)
        cell["model"].update(filters=filters, lstm_units=lstm_units)
        return _model_config(cell, pipe, "full")

    tune_cfg = C.train_config_from(cfg, args.seed, cfg["tune"]["epochs"])
    grid = T.sensitivity_grid(
        cfg["tune"]["filter_candidates"],
        cfg["tune"]["lstm_candidates"],
        batch, config_for, tune_cfg,
        explore=cfg["tune"]["explore"],
    )
    _write_csv(out / "grid.csv", [f.name for f in fields(T.GridCell)],
               [astuple(c) for c in grid.cells])
    best = grid.best
    _write_json(out / "best.json", asdict(best))
    _write_manifest(out, "tune", cfg, args.seed, ["grid.csv", "best.json"],
                    cells=len(grid.cells),
                    best_filters=best.conv_filters, best_lstm=best.lstm_units)
    return 0


def cmd_ablate(args) -> int:
    cfg, out = _setup(args)
    if cfg["dataset"] == "milling":
        raise C.ConfigError(
            ["ablate runs on run-to-failure series datasets, not milling"]
        )
    data_dir = Path(args.data_dir)
    train_units = _units(cfg, data_dir, "train")
    test_units = _units(cfg, data_dir, "test")
    variants = tuple(args.variant) if args.variant else P.ABLATION_VARIANTS
    train_cfg = C.train_config_from(cfg, args.seed, args.epochs)
    # one feature fit for every variant, and no file until all are scored
    pipe, _, _ = P.fit_features(train_units, C.feature_settings_from(cfg))
    runs = []
    for variant in variants:
        pipe_v, model_cfg, params, treport = _train_variant(cfg, pipe, variant, train_units,
                                                            train_cfg)
        report = _score(cfg, params, model_cfg, pipe_v, test_units, train_cfg.label_scale,
                        variant=variant, seed=args.seed)
        runs.append((variant, report, treport))
    artifacts = ["ablation_summary.csv"]
    for variant, report, treport in runs:
        vdir = out / variant
        vdir.mkdir(parents=True, exist_ok=True)
        E.emit_report(report, vdir, stem="report")
        _write_json(vdir / "train_report.json", asdict(treport))
        artifacts += [f"{variant}/report.json",
                      f"{variant}/report_predictions.csv",
                      f"{variant}/train_report.json"]
    _write_csv(out / "ablation_summary.csv",
               ["variant", "rmse", "score", "parameters", "best_epoch"],
               [[v, r.rmse, r.score, t.parameter_count, t.best_epoch] for v, r, t in runs])
    _write_manifest(out, "ablate", cfg, args.seed, artifacts,
                    variants=list(variants), eval_mode="last_point")
    return 0


# ---------------------------------------------------------------- parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowcaps",
        description="Slow-feature capsule pipeline for remaining-life estimation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted config override, repeatable")
        p.add_argument("--seed", type=int, default=0, help="base random seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--data-dir", default=".", help="dataset directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit-features", help="fit the feature chain")
    common(p)
    p.set_defaults(func=cmd_fit_features)

    p = sub.add_parser("train", help="train the network")
    common(p)
    p.add_argument("--features", required=True,
                   help="features.json from fit-features (file or directory)")
    p.add_argument("--variant", default="full", choices=P.ABLATION_VARIANTS)
    p.add_argument("--epochs", type=int, default=None,
                   help="override the config epoch count")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained model")
    common(p)
    p.add_argument("--model", required=True,
                   help="directory holding checkpoint.json and model_config.json")
    p.add_argument("--features", required=True,
                   help="features.json from fit-features (file or directory)")
    p.add_argument("--no-clip", action="store_true",
                   help="do not clip predictions into [0, rul_max]")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune", help="filter/LSTM sensitivity search")
    common(p)
    p.add_argument("--features", required=True,
                   help="features.json from fit-features (file or directory)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("ablate", help="compare architecture variants")
    common(p)
    p.add_argument("--variant", action="append", choices=P.ABLATION_VARIANTS,
                   help="variant to run, repeatable (default: all)")
    p.add_argument("--epochs", type=int, default=None,
                   help="override the config epoch count")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every stage checks its results and raises on a non-finite value;
        # numpy's warnings would only print lines beside the JSON error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t0 = time.perf_counter()
            code = args.func(args)
        if code == 0:
            _write_json(Path(args.out) / "timing.json",
                        {"command": args.command, "wall_seconds": time.perf_counter() - t0})
        return code
    except C.ConfigError as exc:
        print(json.dumps({"error": "config", "problems": exc.problems}),
              file=sys.stderr)
        return 2
    except (ValueError, OSError, FloatingPointError, KeyError, MemoryError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

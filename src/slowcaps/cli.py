"""Command-line entry point.

Subcommands cover the whole workflow: ``synth`` writes a synthetic
dataset, ``fit-features`` fits the feature chain, ``train`` fits the
network, ``evaluate`` scores a checkpoint, ``tune`` runs the
filter/LSTM sensitivity search and ``ablate`` compares architecture
variants.  Artifacts are deterministic for a fixed seed and config;
wall-clock timing goes to a separate ``timing.json`` so the other files
are byte-stable across reruns.  Errors print one JSON line on stderr;
exit code 2 flags configuration problems, 1 anything else.

Set ``SLOWCAPS_LOG=DEBUG|INFO|WARNING|ERROR`` to control log verbosity
(``SDTC_LOG`` is read when it is unset).  Each manifest records the
numpy version, the BLAS build and the ``*_NUM_THREADS`` environment.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from dataclasses import asdict
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
    name = os.environ.get("SLOWCAPS_LOG", os.environ.get("SDTC_LOG", "WARNING"))
    name = name.strip().upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


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


def _write_timing(out: Path, command: str, seconds: float) -> None:
    _write_json(out / "timing.json",
                {"command": command, "wall_seconds": float(seconds)})


def _setup(args) -> tuple[dict, Path]:
    cfg = C.load_config(args.config)
    if args.set:
        C.apply_overrides(cfg, args.set)
    C.validate_config(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _load_series_dataset(cfg: dict, data_dir: Path, need_test: bool) -> dict:
    ds = cfg["dataset"]
    if ds == "milling":
        raise ValueError("series loader called for the milling dataset")
    if ds == "synthetic":
        tag = "synthetic"
        n_sensors = int(cfg["synthetic"]["channels"])
    else:
        tag = ds
        n_sensors = D.CMAPSS_SENSORS
    train_path = data_dir / f"train_{tag}.txt"
    if not train_path.exists():
        raise FileNotFoundError(f"missing training data {train_path}")
    test_path = data_dir / f"test_{tag}.txt"
    rul_path = data_dir / f"RUL_{tag}.txt"
    if need_test and not test_path.exists():
        raise FileNotFoundError(f"missing test data {test_path}")
    return D.load_cmapss(
        train_path,
        test_path if test_path.exists() else None,
        rul_path if rul_path.exists() else None,
        rul_max=float(cfg["rul_max"]),
        n_sensors=n_sensors,
    )


def _load_milling(cfg: dict, data_dir: Path) -> tuple[list, list]:
    path = data_dir / "milling.csv"
    if not path.exists():
        raise FileNotFoundError(f"missing milling data {path}")
    runs = D.load_milling(path)["runs"]
    return D.milling_protocol_split(runs)


def _features_path(raw: str) -> Path:
    p = Path(raw)
    return p / "features.json" if p.is_dir() else p


def _load_features(raw: str) -> F.FeaturePipeline:
    return F.pipeline_from_arrays(ckpt.load_arrays(_features_path(raw)))


def _build_training_batch(cfg: dict, data_dir: Path, pipe) -> F.FrameBatch:
    if cfg["dataset"] == "milling":
        train_runs, _ = _load_milling(cfg, data_dir)
        return P.build_frames_milling(train_runs, pipe)
    data = _load_series_dataset(cfg, data_dir, need_test=False)
    return P.build_frames(data["train"], pipe, float(cfg["rul_max"]))


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    cfg, out = _setup(args)
    t0 = time.perf_counter()
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
    _write_timing(out, "synth", time.perf_counter() - t0)
    return 0


def cmd_fit_features(args) -> int:
    cfg, out = _setup(args)
    t0 = time.perf_counter()
    data_dir = Path(args.data_dir)
    settings = C.feature_settings_from(cfg)
    if cfg["dataset"] == "milling":
        if settings.per_condition:
            raise C.ConfigError(
                ["features.per_condition is not available for the milling dataset"]
            )
        train_runs, _ = _load_milling(cfg, data_dir)
        series = [P.milling_run_series(r) for r in train_runs]
    else:
        series = _load_series_dataset(cfg, data_dir, need_test=False)["train"]
    pipe, diag, _ = P.fit_features(series, settings)
    ckpt.save_arrays(out / "features.json", F.pipeline_to_arrays(pipe))

    _write_json(out / "features_meta.json", {
        "num_slow": diag.num_slow,
        "window": diag.window,
        "ridge": diag.ridge,
        "lambdas": [float(x) for x in diag.lambdas],
        "retained_channels": diag.retained_channels,
        "acf_band": diag.acf_band,
        "per_condition": pipe.condition is not None,
    })
    _write_csv(out / "slowness.csv", ["index", "lambda"],
               [[i + 1, float(x)] for i, x in enumerate(diag.lambdas)])
    artifacts = ["features.json", "features_meta.json", "slowness.csv"]
    if diag.acf is not None:
        _write_csv(out / "acf.csv", ["lag", "acf"],
                   [[lag, float(v)] for lag, v in enumerate(diag.acf)])
        artifacts.append("acf.csv")

    header = (["unit", "cycle", "stage"]
              + [f"z{c:02d}" for c in diag.retained_channels]
              + [f"slow{i + 1}" for i in range(diag.num_slow)])
    rows = []
    for s in series:
        z, slow = pipe.transform(s.sensors, s.settings)
        for k in range(z.shape[0]):
            stage = "normal" if k < s.change_point else "degradation"
            rows.append([s.unit_id, k + 1, stage] + list(z[k]) + list(slow[k]))
    _write_csv(out / "features_dump.csv", header, rows)
    artifacts.append("features_dump.csv")

    _write_manifest(out, "fit-features", cfg, args.seed, artifacts,
                    num_slow=diag.num_slow, window=diag.window)
    _write_timing(out, "fit-features", time.perf_counter() - t0)
    return 0


def cmd_train(args) -> int:
    cfg, out = _setup(args)
    t0 = time.perf_counter()
    pipe = _load_features(args.features)
    include_slow, use_lstm = P.variant_flags(args.variant)
    pipe_v = pipe if include_slow else pipe.without_slow()
    batch = _build_training_batch(cfg, Path(args.data_dir), pipe_v)
    model_cfg = C.resolve_model_config(
        cfg,
        frame_channels=pipe_v.frame_channels,
        num_slow=pipe.sfa.num_slow,
        plain_channels=pipe.sfa.n_channels,
        window=pipe.window,
        use_lstm=use_lstm,
    )
    train_cfg = C.train_config_from(cfg, args.seed, args.epochs)
    params, report = T.train(model_cfg, batch, train_cfg)

    ckpt.save_arrays(out / "checkpoint.json", ckpt.tensors_to_arrays(params))
    _write_json(out / "model_config.json", {
        "architecture": asdict(model_cfg),
        "variant": args.variant,
        "label_scale": train_cfg.label_scale,
        "seed": args.seed,
        "dataset": cfg["dataset"],
    })
    _write_json(out / "train_report.json", report.to_json_dict())
    rows = []
    for i, tr in enumerate(report.train_loss):
        va = report.val_loss[i] if i < len(report.val_loss) else ""
        rows.append([i + 1, tr, va])
    _write_csv(out / "history.csv", ["epoch", "train_loss", "val_loss"], rows)
    _write_manifest(
        out, "train", cfg, args.seed,
        ["checkpoint.json", "model_config.json", "train_report.json", "history.csv"],
        variant=args.variant, parameters=report.parameter_count,
        best_epoch=report.best_epoch,
    )
    _write_timing(out, "train", time.perf_counter() - t0)
    return 0


def cmd_evaluate(args) -> int:
    cfg, out = _setup(args)
    t0 = time.perf_counter()
    model_dir = Path(args.model)
    path = model_dir / "model_config.json"
    try:
        model_doc = json.loads(path.read_text(encoding="utf-8"))
        model_cfg = network.ModelConfig(**model_doc["architecture"])
        label_scale = float(model_doc["label_scale"])
        variant = model_doc.get("variant", "full")
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"{path}: malformed model config: {exc}") from None
    ckpt_path = model_dir / "checkpoint.json"
    arrays = ckpt.load_arrays(ckpt_path)
    want = {k: t.shape for k, t in network.init_parameters(
        model_cfg, np.random.default_rng(0)).items()}
    problems = ([f"missing {k}" for k in sorted(want.keys() - arrays.keys())]
                + [f"unexpected {k}" for k in sorted(arrays.keys() - want.keys())]
                + [f"{k} has shape {arrays[k].shape}, expected {want[k]}"
                   for k in sorted(want.keys() & arrays.keys()) if arrays[k].shape != want[k]])
    if problems:
        raise ValueError(f"{ckpt_path}: does not match model_config.json: " + "; ".join(problems))
    params = ckpt.arrays_to_tensors(arrays, requires_grad=False)
    pipe = _load_features(args.features)
    include_slow, _ = P.variant_flags(variant)
    pipe_v = pipe if include_slow else pipe.without_slow()

    if cfg["dataset"] == "milling":
        _, test_runs = _load_milling(cfg, Path(args.data_dir))
        series = [P.milling_run_series(r) for r in test_runs]
    else:
        data = _load_series_dataset(cfg, Path(args.data_dir), need_test=True)
        series = data["test"]
    truths = [s.true_rul for s in series]
    if any(t is None for t in truths):
        raise ValueError("evaluation units lack true residual life")
    ids, preds = E.last_point_predictions(params, model_cfg, pipe_v, series, label_scale)
    clip = bool(cfg["evaluation"]["clip"]) and not args.no_clip
    report = E.build_report(
        ids, truths, preds, variant=variant, seed=model_doc.get("seed"),
        clip=clip, rul_max=float(cfg["rul_max"]) if clip else None,
        hist_edges=cfg["evaluation"]["histogram_edges"],
    )
    E.emit_report(report, out, stem="report")
    _write_manifest(out, "evaluate", cfg, args.seed,
                    ["report.json", "report_predictions.csv"],
                    variant=variant, units=len(ids),
                    rmse=report.rmse, score=report.score)
    _write_timing(out, "evaluate", time.perf_counter() - t0)
    return 0


def cmd_tune(args) -> int:
    cfg, out = _setup(args)
    t0 = time.perf_counter()
    pipe = _load_features(args.features)
    batch = _build_training_batch(cfg, Path(args.data_dir), pipe)
    base_config = C.resolve_model_config(
        cfg,
        frame_channels=pipe.frame_channels,
        num_slow=pipe.sfa.num_slow,
        plain_channels=pipe.sfa.n_channels,
        window=pipe.window,
        use_lstm=True,
    )
    tune_cfg = C.train_config_from(cfg, args.seed, cfg["tune"]["epochs"])
    grid = T.sensitivity_grid(
        cfg["tune"]["filter_candidates"],
        cfg["tune"]["lstm_candidates"],
        batch, base_config, tune_cfg,
        explore=cfg["tune"]["explore"],
        jobs=args.jobs,
    )
    rows = [[c["conv_filters"], c["lstm_units"], c["rmse"], c["score"],
             c["seed"], c["best_epoch"]] for c in grid.to_rows()]
    _write_csv(out / "grid.csv",
               ["conv_filters", "lstm_units", "rmse", "score", "seed", "best_epoch"],
               rows)
    best = grid.best
    _write_json(out / "best.json", {
        "conv_filters": best.conv_filters, "lstm_units": best.lstm_units,
        "rmse": best.rmse, "score": best.score, "seed": best.seed,
        "best_epoch": best.best_epoch,
    })
    _write_manifest(out, "tune", cfg, args.seed, ["grid.csv", "best.json"],
                    cells=len(grid.cells),
                    best_filters=best.conv_filters, best_lstm=best.lstm_units)
    _write_timing(out, "tune", time.perf_counter() - t0)
    return 0


def cmd_ablate(args) -> int:
    cfg, out = _setup(args)
    t0 = time.perf_counter()
    if cfg["dataset"] == "milling":
        raise C.ConfigError(
            ["ablate runs on run-to-failure series datasets, not milling"]
        )
    data = _load_series_dataset(cfg, Path(args.data_dir), need_test=True)
    if not data["test"]:
        raise ValueError("ablation needs test units with residual life")
    settings = C.feature_settings_from(cfg)
    variants = tuple(args.variant) if args.variant else P.ABLATION_VARIANTS

    def make_config(pipe, variant):
        _, use_lstm = P.variant_flags(variant)
        return C.resolve_model_config(
            cfg,
            frame_channels=pipe.frame_channels,
            num_slow=pipe.sfa.num_slow,
            plain_channels=pipe.sfa.n_channels,
            window=pipe.window,
            use_lstm=use_lstm,
        )

    train_cfg = C.train_config_from(cfg, args.seed, args.epochs)
    result = P.ablation_run(
        data["train"], data["test"], settings, make_config, train_cfg,
        variants=variants,
    )
    artifacts = ["ablation_summary.csv"]
    for variant in variants:
        vdir = out / variant
        vdir.mkdir(parents=True, exist_ok=True)
        E.emit_report(result.reports[variant], vdir, stem="report")
        _write_json(vdir / "train_report.json",
                    result.train_reports[variant].to_json_dict())
        artifacts += [f"{variant}/report.json",
                      f"{variant}/report_predictions.csv",
                      f"{variant}/train_report.json"]
    _write_csv(
        out / "ablation_summary.csv",
        ["variant", "rmse", "score", "parameters", "best_epoch"],
        [[r["variant"], r["rmse"], r["score"], r["parameters"], r["best_epoch"]]
         for r in result.summary_rows],
    )
    _write_manifest(out, "ablate", cfg, args.seed, artifacts,
                    variants=list(variants), eval_mode="last_point")
    _write_timing(out, "ablate", time.perf_counter() - t0)
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
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads (full exploration only)")
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
        return args.func(args)
    except C.ConfigError as exc:
        print(json.dumps({"error": "config", "problems": exc.problems}),
              file=sys.stderr)
        return 2
    except (ValueError, OSError, FloatingPointError, KeyError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

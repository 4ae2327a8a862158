"""The benchmark's workloads.

Every workload is closed loop in one process: it generates a synthetic
fleet from the benchmark seed, then repeats one unit of user-visible work
back to back until the time budget is spent, checking each result.

``desk-chain`` and ``fd001-train`` run the README walkthrough
(``synth`` once as set-up, then ``fit-features -> train -> evaluate``)
through ``slowcaps.cli.main``.  ``fd001-infer`` scores held-out units
densely with ``evaluation.sequence_predictions`` under ``no_grad``.

The amount of work is the same for every seed: training units always
have a degradation stage of exactly ``rul_max`` cycles (their lengths
exceed it), so each unit yields the same number of frames and sequences
whatever the generated lengths; the desk window is pinned for the same
reason (the autocorrelation rule picks 29-34 depending on the seed).
"""

from __future__ import annotations

import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

# FD001 protocol geometry on a synthetic fleet: 14 sensor channels plus
# the 2 pinned slow features give 16 frame channels; lengths span FD001's
# 128-362 cycles and labels cap at its rul_max of 125.
FD001_FLEET = [
    "dataset=synthetic",
    "synthetic.channels=14",
    "synthetic.length_range=[128,362]",
    "synthetic.rul_max=125",
]
FD001_CONFIG = "configs/fd001.json"
INFER_CHUNK = 256
INFER_PARAM_SEED = 20220331
SINGLE_CHECKS = 4
REL_TOL = 1e-9


class Workload:
    """Common bookkeeping: operations attempted and failures seen."""

    setup_repeats = 5

    def __init__(self, sc, work: Path, seed: int, config: str, sets: list[str]):
        self.sc = sc
        self.work = work
        self.seed = seed
        self.config = config
        self.sets = sets
        C = sc["config"]
        self.cfg = C.load_config(config)
        C.apply_overrides(self.cfg, sets)
        C.validate_config(self.cfg)
        self.rul_max = float(self.cfg["rul_max"])
        self.attempted = 0
        self.failures: list[str] = []

    def cli_argv(self, stage: str, out: Path, *extra: str) -> list[str]:
        argv = [stage, "--config", self.config, "--seed", str(self.seed), "--out", str(out)]
        for s in self.sets:
            argv += ["--set", s]
        return argv + list(extra)


class Chain(Workload):
    """synth once, then fit-features -> train -> evaluate per repetition."""

    def __init__(self, sc, work, seed, config, sets, epochs):
        # patience above the epoch count: every run trains all planned epochs
        super().__init__(sc, work, seed, config, sets + [f"training.patience={epochs + 1}"])
        self.epochs = epochs
        self.data: Path | None = None

    def _stage(self, stage: str, out: Path, *extra: str) -> float | None:
        """Run one CLI stage; returns its wall time, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rc = self.sc["cli"].main(self.cli_argv(stage, out, *extra))
        except Exception as exc:  # a crash is a failed operation, not a harness error
            self.failures.append(f"{stage}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        if rc != 0:
            self.failures.append(f"{stage}: exit code {rc}")
            return None
        missing = _missing_artifacts(out)
        if missing:
            self.failures.append(f"{stage}: manifest lists missing artifacts {missing}")
            return None
        return wall

    def setup(self, k: int) -> float:
        t0 = time.perf_counter()
        data = self.work / f"data{k}"
        if self._stage("synth", data) is None:
            raise RuntimeError("synth failed: " + "; ".join(self.failures))
        self.data = data
        return time.perf_counter() - t0

    def run_once(self, k: int) -> dict | None:
        root = self.work / f"chain{k}"
        feat, model, ev = root / "feat", root / "model", root / "eval"
        stages = (
            ("fit-features", feat, ()),
            ("train", model, ("--features", str(feat), "--epochs", str(self.epochs))),
            ("evaluate", ev, ("--model", str(model), "--features", str(feat))),
        )
        walls = {}
        for stage, out, extra in stages:
            walls[stage] = self._stage(stage, out, "--data-dir", str(self.data), *extra)
            if walls[stage] is None:
                return None
        result = self._check(feat, model, ev, walls)
        shutil.rmtree(root)
        return result

    def _check(self, feat, model, ev, walls) -> dict | None:
        rep = _read_json(model / "train_report.json")
        losses = rep["train_loss"]
        if len(losses) != self.epochs or rep["stopped_early"]:
            self.failures.append(f"train ran {len(losses)} of {self.epochs} epochs "
                                 f"(stopped_early={rep['stopped_early']})")
            return None
        if not all(math.isfinite(x) for x in losses):
            self.failures.append("train: non-finite training loss")
            return None
        report = _read_json(ev / "report.json")
        preds = [row["predicted_rul"] for row in report["rows"]]
        bad = [p for p in preds if not (math.isfinite(p) and 0.0 <= p <= self.rul_max)]
        if not preds or bad:
            self.failures.append(f"evaluate: {len(bad)} of {len(preds)} predictions "
                                 f"outside [0, {self.rul_max}] or non-finite")
            return None
        arch = _read_json(model / "model_config.json")["architecture"]
        model_cfg = self.sc["network"].ModelConfig(
            **{k: tuple(v) if isinstance(v, list) else v for k, v in arch.items()})
        return {
            "chain_s": sum(walls.values()),
            "seq_per_s": rep["train_sequences"] * len(losses) / walls["train"],
            "test_rmse": report["rmse"],
            "final_loss": losses[-1],
            "stage_s": {stage: _read_json(d / "timing.json")["wall_seconds"]
                        for stage, d in (("fit-features", feat), ("train", model),
                                         ("evaluate", ev))},
            "shape": (model_cfg, int(self.cfg["training"]["batch_size"])),
        }


class Infer(Workload):
    """Dense forward-only scoring of held-out units at FD001 geometry."""

    setup_repeats = 3

    def __init__(self, sc, work, seed, tracer, fit_units, held_units):
        super().__init__(sc, work, seed, FD001_CONFIG, FD001_FLEET + [
            f"synthetic.units={fit_units + held_units}", "synthetic.test_units=1"])
        self.tracer = tracer
        self.fit_units = fit_units
        self.label_scale = sc["config"].train_config_from(self.cfg, seed).label_scale
        self.state = None

    def setup(self, k: int) -> float:
        sc, cfg = self.sc, self.cfg
        t0 = time.perf_counter()
        data = self.work / f"data{k}"
        self.attempted += 1
        if sc["cli"].main(self.cli_argv("synth", data)) != 0:
            raise RuntimeError("synth failed")
        units = sc["data"].load_cmapss(data / "train_synthetic.txt", rul_max=self.rul_max,
                                       n_sensors=int(cfg["synthetic"]["channels"]))["train"]
        fit, held = units[: self.fit_units], units[self.fit_units:]
        pipe, _, _ = sc["pipeline"].fit_features(fit, sc["config"].feature_settings_from(cfg))
        batch = sc["pipeline"].build_frames(held, pipe, self.rul_max)
        model_cfg = sc["config"].resolve_model_config(
            cfg, frame_channels=pipe.frame_channels, num_slow=pipe.sfa.num_slow,
            plain_channels=pipe.sfa.n_channels, window=pipe.window,
        )
        params = sc["network"].init_parameters(
            model_cfg, np.random.default_rng(INFER_PARAM_SEED))
        self.state = (model_cfg, params, batch)
        return time.perf_counter() - t0

    def run_once(self, k: int) -> dict | None:
        E = self.sc["evaluation"]
        model_cfg, params, batch = self.state
        self.attempted += 1
        t0 = time.perf_counter()
        preds, labels, uids = E.sequence_predictions(
            params, model_cfg, batch.frames, batch.labels, batch.unit_ids,
            model_cfg.sequence_length, self.label_scale, chunk=INFER_CHUNK,
        )
        report = E.build_report(uids, labels, preds, clip=True, rul_max=self.rul_max)
        wall = time.perf_counter() - t0
        with self.tracer.paused():
            ok = self._check(preds, report, k)
        if not ok:
            return None
        return {
            "chain_s": wall,
            "seq_per_s": preds.size / wall,
            "test_rmse": report.rmse,
            "shape": (model_cfg, INFER_CHUNK),
        }

    def _check(self, preds, report, k: int) -> bool:
        if not np.all(np.isfinite(preds)):
            self.failures.append("sequence_predictions: non-finite predictions")
            return False
        clipped = np.array([row["predicted_rul"] for row in report.rows])
        if np.any(clipped < 0.0) or np.any(clipped > self.rul_max):
            self.failures.append(f"report: predictions outside [0, {self.rul_max}]")
            return False
        # a seeded sample scored one sequence at a time must match the chunks
        model_cfg, params, batch = self.state
        x, _, _ = self.sc["training"].build_sequences(
            batch.frames, batch.labels, batch.unit_ids, model_cfg.sequence_length)
        rng = np.random.default_rng([self.seed, k])
        ok = True
        for i in rng.choice(x.shape[0], size=min(SINGLE_CHECKS, x.shape[0]), replace=False):
            self.attempted += 1
            one = self.sc["network"].predict(x[i : i + 1], params, model_cfg,
                                             self.label_scale)[0]
            if abs(one - preds[i]) > REL_TOL * max(abs(preds[i]), 1.0):
                self.failures.append(f"sequence {i}: alone {one!r} vs chunked {preds[i]!r}")
                ok = False
        return ok


NAMES = ("desk-chain", "fd001-train", "fd001-infer")


def make(name: str, sc, work: Path, seed: int, tracer, tiny: bool) -> Workload:
    if name == "desk-chain":
        # 12 units (2 held for validation) x 88 sequences of window 31
        units, test, epochs = (4, 2, 1) if tiny else (12, 6, 3)
        return Chain(sc, work, seed, "configs/synthetic_small.json",
                     ["model.window_length=31", f"synthetic.units={units}",
                      f"synthetic.test_units={test}"], epochs)
    if name == "fd001-train":
        # 4 units (1 held for validation) x 94 sequences at FD001 geometry
        units, test, epochs = (3, 2, 1) if tiny else (4, 10, 2)
        return Chain(sc, work, seed, FD001_CONFIG,
                     FD001_FLEET + [f"synthetic.units={units}",
                                    f"synthetic.test_units={test}"], epochs)
    if name == "fd001-infer":
        # 8 held-out units x 94 sequences: 752 per pass, 3 chunks
        fit, held = (3, 2) if tiny else (6, 8)
        return Infer(sc, work, seed, tracer, fit, held)
    raise ValueError(f"unknown workload {name!r}")


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _missing_artifacts(out: Path) -> list[str]:
    manifest = _read_json(out / "manifest.json")
    names = list(manifest["artifacts"]) + ["timing.json"]
    return [n for n in names if not (out / n).is_file()]

"""Metrics, prediction protocols and report files.

Two error measures over predicted-minus-true differences d:

* RMSE, symmetric;
* the asymmetric prognostics score, sum over units of exp(-d/13)-1 for
  early predictions (d < 0) and exp(d/10)-1 for late ones, so late
  predictions cost more at equal magnitude.

Turbofan-style evaluation predicts once per test unit at its last
available cycle; milling-style evaluation scores every run.  Predictions
are clipped into [0, rul_max] unless disabled, and the clip choice is
recorded in the report.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import network
from .data import csv_line
from .features import FeaturePipeline, sequence_index, sliding_frames
from .tensor import Tensor

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_HIST_EDGES",
    "rmse",
    "scoring_function",
    "error_distribution",
    "EvaluationReport",
    "build_report",
    "final_sequence",
    "last_point_predictions",
    "sequence_predictions",
    "emit_report",
]

log = logging.getLogger("slowcaps.evaluation")

SCHEMA_VERSION = 1
DEFAULT_HIST_EDGES = (-50.0, -40.0, -30.0, -20.0, -10.0, 0.0,
                      10.0, 20.0, 30.0, 40.0, 50.0)


def _errors(predicted, true) -> np.ndarray:
    p = np.asarray(predicted, dtype=np.float64).ravel()
    t = np.asarray(true, dtype=np.float64).ravel()
    if p.size != t.size:
        raise ValueError(f"length mismatch: {p.size} predictions vs {t.size} truths")
    if p.size == 0:
        raise ValueError("no predictions to score")
    return p - t


def rmse(predicted, true) -> float:
    """Root mean squared prediction error."""
    d = _errors(predicted, true)
    return float(np.sqrt(np.mean(d * d)))


def scoring_function(predicted, true) -> float:
    """Asymmetric exponential prognostics score (lower is better).

    Zero error contributes zero; a late prediction (d > 0) is penalized
    on a 10-cycle scale, an early one (d < 0) on a gentler 13-cycle
    scale.
    """
    d = _errors(predicted, true)
    return float(np.sum(np.where(d < 0.0, np.exp(-d / 13.0), np.exp(d / 10.0)) - 1.0))


def error_distribution(errors, edges=DEFAULT_HIST_EDGES) -> dict:
    """Histogram of errors over ``edges`` plus underflow/overflow bands.

    Interior bands follow the half-open convention [e_i, e_{i+1}) with
    the last interior band closed on both sides; underflow counts errors
    strictly below the first edge, overflow strictly above the last.
    """
    e = np.asarray(errors, dtype=np.float64).ravel()
    ed = np.asarray(edges, dtype=np.float64)
    if ed.ndim != 1 or ed.size < 2:
        raise ValueError("need at least two band edges")
    if np.any(np.diff(ed) <= 0):
        raise ValueError("band edges must be strictly increasing")
    counts, _ = np.histogram(e, bins=ed)
    return {
        "edges": ed.tolist(),
        "counts": counts.astype(int).tolist(),
        "underflow": int(np.sum(e < ed[0])),
        "overflow": int(np.sum(e > ed[-1])),
    }


@dataclass
class EvaluationReport:
    """Per-unit rows plus summary metrics; JSON/CSV serializable."""

    rows: list[dict]
    rmse: float
    score: float
    histogram: dict
    variant: str = "full"
    seed: int | None = None
    clipped: bool = True
    rul_max: float | None = None
    extra: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


def build_report(
    unit_ids,
    true_rul,
    predicted_rul,
    variant: str = "full",
    seed: int | None = None,
    clip: bool = True,
    rul_max: float | None = None,
) -> EvaluationReport:
    """Clip, score and bundle predictions into a report."""
    truths = np.asarray(true_rul, dtype=np.float64).ravel()
    preds = np.asarray(predicted_rul, dtype=np.float64).ravel()
    ids = list(unit_ids)
    if not (len(ids) == truths.size == preds.size):
        raise ValueError("unit ids, truths and predictions disagree in length")
    if clip:
        if rul_max is None:
            raise ValueError("clipping requires rul_max")
        preds = np.clip(preds, 0.0, float(rul_max))
    d = preds - truths
    rows = [
        {"unit": str(u), "true_rul": t, "predicted_rul": p, "error": p - t}
        for u, t, p in zip(ids, truths.tolist(), preds.tolist())
    ]
    metrics = {"rmse": rmse(preds, truths), "score": scoring_function(preds, truths)}
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"the {name} overflows: the largest error is "
                             f"{float(np.max(np.abs(d)))!r} cycles")
    return EvaluationReport(
        rows=rows,
        **metrics,
        histogram=error_distribution(d),
        variant=variant,
        seed=seed,
        clipped=bool(clip),
        rul_max=None if rul_max is None else float(rul_max),
    )


def final_sequence(raw_matrix, pipe: FeaturePipeline, seq_len: int,
                   settings=None) -> np.ndarray:
    """Build the last frame sequence of a series, shape (S, window, C).

    The sequence ends at the final available sample.  Series shorter
    than window + S - 1 rows are left-padded by repeating their earliest
    row, so one prediction is always possible.  ``settings`` are the
    operating settings a per-condition pipeline needs.
    """
    if seq_len < 1:
        raise ValueError("sequence length must be >= 1")
    hybrid = pipe.transform(raw_matrix, settings)
    need = pipe.window + seq_len - 1
    hybrid = np.pad(hybrid, ((max(need - hybrid.shape[0], 0), 0), (0, 0)), mode="edge")
    return sliding_frames(hybrid[-need:], pipe.window)


def last_point_predictions(
    params: dict[str, Tensor],
    config: network.ModelConfig,
    pipe: FeaturePipeline,
    series_list,
    label_scale: float = 1.0,
) -> tuple[list[str], np.ndarray]:
    """One prediction per unit at its last available cycle."""
    if not series_list:
        raise ValueError("no evaluation units")
    seqs = np.stack([
        final_sequence(s.sensors, pipe, config.sequence_length, s.settings)
        for s in series_list
    ])
    preds = network.predict(seqs, params, config, label_scale)
    return [s.unit_id for s in series_list], preds


def sequence_predictions(
    params: dict[str, Tensor],
    config: network.ModelConfig,
    frames: np.ndarray,
    labels: np.ndarray,
    unit_ids: np.ndarray,
    seq_len: int,
    label_scale: float = 1.0,
    chunk: int = 256,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense evaluation: one prediction per frame sequence of each unit.

    ``frames`` (n, window, C) must hold each unit's frames contiguously
    in time order.  Returns (predictions, labels, unit_ids) aligned to
    the sequence end frames.  Each frame is scored once, however many
    sequences share it; ``chunk`` caps the sequences per forward pass.
    """
    idx = sequence_index(unit_ids, seq_len)
    ends = idx[:, -1]
    preds = network.predict(frames, params, config, label_scale, chunk, index=idx)
    return preds, np.asarray(labels)[ends], np.asarray(unit_ids)[ends]


def emit_report(report: EvaluationReport, out_dir, stem: str = "report") -> dict[str, Path]:
    """Write <stem>.json and <stem>_predictions.csv; deterministic bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{stem}.json"
    csv_path = out / f"{stem}_predictions.csv"
    json_path.write_text(
        json.dumps(asdict(report), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
    rows = [["unit", "true_rul", "predicted_rul", "error"]]
    rows += [[r["unit"], r["true_rul"], r["predicted_rul"], r["error"]] for r in report.rows]
    csv_path.write_text("".join(csv_line(r, "\n") for r in rows), encoding="utf-8")
    return {"json": json_path, "csv": csv_path}


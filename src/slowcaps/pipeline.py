"""End-to-end orchestration shared by the CLI and the test harness.

Fitting order: optionally standardize per operating condition, drop
flat channels, fit z-score statistics on pooled normal segments, extract
slow directions from the normalized normal segments, pick the retained
count from the slowness spectrum, pick the window length from the
averaged degradation-stage autocorrelation of the first slow feature,
then slice hybrid frames labeled with the piece-wise RUL target.

Milling cuts go through the same fit once wrapped as series by
``milling_run_series``: the first cut of each case is the normal stage,
the other cuts are degradation.  For training every cut becomes a short
unit whose frames all carry the run-level label.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import features as F
from . import network
from .data import MillingRun, RunToFailureSeries
from .evaluation import EvaluationReport, build_report, last_point_predictions, \
    sequence_predictions
from .features import FeaturePipeline, FrameBatch
from .training import TrainConfig, TrainReport, train

__all__ = [
    "FeatureSettings",
    "FeatureDiagnostics",
    "fit_features",
    "build_frames",
    "build_frames_milling",
    "milling_run_series",
    "ABLATION_VARIANTS",
    "variant_flags",
    "ablation_run",
]

log = logging.getLogger("slowcaps.pipeline")

ABLATION_VARIANTS = ("full", "no-sfa", "no-lstm", "plain-capsnet")
# longest autocorrelation lag the window rule looks at
ACF_MAX_LAG = 200


@dataclass
class FeatureSettings:
    """Knobs for the feature fitting stage; None means rule-derived."""

    rul_max: float = 125.0
    num_slow: int | None = None
    window: int | None = None
    per_condition: bool = False


@dataclass
class FeatureDiagnostics:
    """What the window rule saw: the averaged autocorrelation of the
    first slow feature and its noise band, both None for a pinned
    window.  Every other fitted value lives on the pipeline."""

    acf: np.ndarray | None
    acf_band: float | None


def fit_features(
    train_series: Sequence[RunToFailureSeries],
    settings: FeatureSettings | None = None,
) -> tuple[FeaturePipeline, FeatureDiagnostics, F.ConditionNormalizer | None]:
    """Fit the whole feature chain on training units.

    The third item is the pipeline's per-condition normalizer, None
    unless ``settings.per_condition`` is set.
    """
    st = settings or FeatureSettings()
    if not train_series:
        raise ValueError("no training units")
    condition = F.fit_condition_normalizer(train_series) if st.per_condition else None
    matrices = [s.sensors if condition is None else condition.apply(s.sensors, s.settings)
                for s in train_series]
    mask = F.drop_constant_channels(matrices)
    normal_segs = []
    for s, m in zip(train_series, matrices):
        seg = m[: s.change_point][:, mask]
        if seg.shape[0] >= 2:
            normal_segs.append(seg)
    if not normal_segs:
        raise ValueError("no unit has a usable normal stage")
    stats = F.fit_normalizer(normal_segs)
    normalized_normals = [F.apply_normalizer(seg, stats) for seg in normal_segs]
    sfa = F.fit_sfa(normalized_normals)
    if st.num_slow is not None:
        p = int(st.num_slow)
        if not 1 <= p <= sfa.n_channels:
            raise ValueError(f"pinned num_slow {p} outside 1..{sfa.n_channels}")
    else:
        p = F.select_num_slow_features(sfa.lambdas)
    sfa.num_slow = p

    acf_mean = None
    band = None
    if st.window is not None:
        window = int(st.window)
        if window < 1:
            raise ValueError(f"pinned window {window} must be >= 1")
    else:
        acfs = []
        lengths = []
        for s, m in zip(train_series, matrices):
            z_deg = F.apply_normalizer(m[s.change_point :][:, mask], stats)
            if z_deg.shape[0] < 4:
                continue
            slow1 = sfa.project(z_deg, 1).ravel()
            max_lag = min(z_deg.shape[0] - 2, ACF_MAX_LAG)
            try:
                acfs.append(F.sample_acf(slow1, max_lag))
            except ValueError:
                continue
            lengths.append(z_deg.shape[0])
        if not acfs:
            raise ValueError(
                "no degradation stage long enough to select a window; pin one"
            )
        shortest = min(a.size for a in acfs)
        acf_mean = np.mean([a[:shortest] for a in acfs], axis=0)
        n_mean = int(round(float(np.mean(lengths))))
        band = 2.0 / np.sqrt(n_mean)
        window = F.select_window_from_acf(acf_mean, n_mean)
    pipe = FeaturePipeline(
        channel_mask=mask, stats=stats, sfa=sfa, window=window, include_slow=True,
        condition=condition,
    )
    return pipe, FeatureDiagnostics(acf=acf_mean, acf_band=band), pipe.condition


def build_frames(
    series_list: Sequence[RunToFailureSeries],
    pipe: FeaturePipeline,
    rul_max: float,
) -> FrameBatch:
    """Degradation-stage frames for every unit, labeled by remaining life;
    a window longer than every unit's stage raises ``ValueError``."""
    _check_window(pipe.window, [s.length - s.change_point for s in series_list],
                  "degradation stage")
    parts = []
    for s in series_list:
        cp = s.change_point
        labels = F.piecewise_rul_labels(s.length, cp, rul_max)
        part = F.fuse_and_slice(pipe.transform(s.sensors, s.settings)[cp:], pipe.window,
                                labels[cp:], unit_id=s.unit_id)
        if part is not None:
            parts.append(part)
    return F.concat_batches(parts)


def build_frames_milling(
    series_list: Sequence[RunToFailureSeries], pipe: FeaturePipeline
) -> FrameBatch:
    """Frames over every row of each cut wrapped by ``milling_run_series``,
    all labeled with the cut's residual life, under the same window rule."""
    _check_window(pipe.window, [s.length for s in series_list], "cut")
    parts = []
    for s in series_list:
        labels = np.full(s.length, s.true_rul)
        part = F.fuse_and_slice(pipe.transform(s.sensors, s.settings), pipe.window, labels,
                                unit_id=s.unit_id)
        if part is not None:
            parts.append(part)
    return F.concat_batches(parts)


def _check_window(window: int, rows: list[int], stage: str) -> None:
    longest = max(rows, default=0)
    if longest < window:
        raise ValueError(f"window {window} is longer than every unit's {stage} "
                         f"(at most {longest} rows)")


def milling_run_series(run: MillingRun) -> RunToFailureSeries:
    """Wrap a cut as a series for feature fitting and last-point scoring.

    A normal cut is all normal stage (change point at its end), every
    other cut all degradation (change point 0); the residual life is
    the cut's label.
    """
    return RunToFailureSeries(
        unit_id=run.unit_id,
        sensors=run.sensors,
        change_point=run.sensors.shape[0] if run.is_normal else 0,
        true_rul=run.rul,
    )


def variant_flags(variant: str) -> tuple[bool, bool]:
    """Map an ablation variant to (include_slow, use_lstm)."""
    table = {
        "full": (True, True),
        "no-sfa": (False, True),
        "no-lstm": (True, False),
        "plain-capsnet": (False, False),
    }
    if variant not in table:
        raise ValueError(f"unknown variant {variant!r}; pick from {ABLATION_VARIANTS}")
    return table[variant]


@dataclass
class AblationResult:
    reports: dict[str, EvaluationReport]
    train_reports: dict[str, TrainReport]
    summary_rows: list[dict] = field(default_factory=list)


def ablation_run(
    train_series: Sequence[RunToFailureSeries],
    test_series: Sequence[RunToFailureSeries],
    settings: FeatureSettings,
    make_config: Callable[[FeaturePipeline, str], network.ModelConfig],
    train_cfg: TrainConfig,
    variants: Sequence[str] = ABLATION_VARIANTS,
    eval_mode: str = "last_point",
) -> AblationResult:
    """Train and evaluate the architecture variants under shared seeds.

    The feature chain is fitted once; the no-sfa variants drop the slow
    feature columns from the frames but keep the window, normalization
    and data splits identical, so differences isolate the architecture
    change.  ``make_config(pipe, variant)`` supplies the model for each
    variant (the pipe exposes frame channels, slow count and window);
    ``eval_mode`` picks the per-unit last-point protocol or dense
    per-sequence scoring on the held-out units.
    """
    if eval_mode not in ("last_point", "dense"):
        raise ValueError(f"unknown eval mode {eval_mode!r}")
    pipe_full, _, _ = fit_features(train_series, settings)

    def run_variant(variant: str):
        include_slow, use_lstm = variant_flags(variant)
        pipe = pipe_full if include_slow else pipe_full.without_slow()
        batch = build_frames(train_series, pipe, settings.rul_max)
        config = make_config(pipe, variant)
        if config.use_lstm != use_lstm:
            raise ValueError(f"config factory disagrees with variant {variant}")
        params, treport = train(config, batch, train_cfg)
        label_scale = train_cfg.label_scale
        if eval_mode == "last_point":
            ids, preds = last_point_predictions(
                params, config, pipe, list(test_series), label_scale,
            )
            truths = [s.true_rul for s in test_series]
            if any(t is None for t in truths):
                raise ValueError("last-point evaluation needs true residual life")
        else:
            test_batch = build_frames(test_series, pipe, settings.rul_max)
            preds, truths, ids = sequence_predictions(
                params, config, test_batch.frames, test_batch.labels,
                test_batch.unit_ids, config.sequence_length, label_scale,
            )
        report = build_report(
            ids, truths, preds, variant=variant, seed=train_cfg.seed,
            clip=True, rul_max=settings.rul_max,
        )
        return report, treport

    reports: dict[str, EvaluationReport] = {}
    train_reports: dict[str, TrainReport] = {}
    rows = []
    for variant in variants:
        report, treport = run_variant(variant)
        reports[variant] = report
        train_reports[variant] = treport
        rows.append({
            "variant": variant, "rmse": report.rmse, "score": report.score,
            "parameters": treport.parameter_count,
            "best_epoch": treport.best_epoch,
        })
    return AblationResult(reports=reports, train_reports=train_reports,
                          summary_rows=rows)

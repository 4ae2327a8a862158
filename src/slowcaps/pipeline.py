"""The feature fit and the frame cutter shared by the CLI and the tests.

Fitting order: optionally standardize per operating condition, drop
flat channels, fit z-score statistics on pooled normal segments, extract
slow directions from the normalized normal segments, pick the retained
count from the slowness spectrum, pick the window length from the
averaged degradation-stage autocorrelation of the first slow feature,
then slice hybrid frames labeled with the piece-wise RUL target.

Milling cuts come from ``data.load_milling`` as series and go through
the same fit: the first cut of each case is the normal stage, the other
cuts are degradation.  For training every cut becomes a short unit whose
frames all carry the cut's label.  Both frame builders hand their units
to one cutter, which applies one window rule to both.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import features as F
from .data import RunToFailureSeries
from .features import FeaturePipeline, FrameBatch

__all__ = [
    "FeatureSettings",
    "FeatureDiagnostics",
    "fit_features",
    "build_frames",
    "build_frames_milling",
    "ABLATION_VARIANTS",
    "variant_flags",
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
    """Degradation-stage frames for every unit, labeled by remaining life
    under the :func:`_cut_frames` rule."""
    return _cut_frames(
        [(s, s.change_point, F.piecewise_rul_labels(s.length, s.change_point, rul_max))
         for s in series_list], pipe, "degradation stage")


def build_frames_milling(
    series_list: Sequence[RunToFailureSeries], pipe: FeaturePipeline
) -> FrameBatch:
    """Frames over every row of each cut from ``data.load_milling``, all
    labeled with the cut's residual life, under the :func:`_cut_frames`
    rule."""
    return _cut_frames([(s, 0, np.full(s.length, s.true_rul)) for s in series_list],
                       pipe, "cut")


def _cut_frames(parts, pipe: FeaturePipeline, stage: str) -> FrameBatch:
    """Frames of each (series, first row, labels) part, in part order.

    The frame-column rows of a series from its first row on are cut by
    ``features.sliding_frames`` (stride 1, as ``features.sequence_index``
    assumes), each frame labeled by the entry of ``labels`` at its last
    row.  A part shorter than the window is skipped with a warning; a
    window longer than every part raises ``ValueError`` before any unit
    is transformed.
    """
    w = pipe.window
    longest = max((s.length - first for s, first, _ in parts), default=0)
    if longest < w:
        raise ValueError(f"window {w} is longer than every unit's {stage} "
                         f"(at most {longest} rows)")
    frames, labels, unit_ids = [], [], []
    for s, first, y in parts:
        k = s.length - first
        if k < w:
            log.warning("unit %s: segment of %d samples is shorter than window %d; skipped",
                        s.unit_id, k, w)
            continue
        frames.append(F.sliding_frames(pipe.transform(s.sensors, s.settings)[first:], w))
        labels.append(y[first + w - 1 :])
        unit_ids.append(np.full(k - w + 1, s.unit_id, dtype=object))
    return FrameBatch(frames=np.concatenate(frames), labels=np.concatenate(labels),
                      unit_ids=np.concatenate(unit_ids))


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

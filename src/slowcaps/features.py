"""Degradation feature engineering.

The pipeline treats each run-to-failure series as a normal stage followed
by a degradation stage, split at a per-unit change point.  Steps:

1. z-score normalization fitted on pooled normal-stage data only, applied
   to every sample (optionally after a z-score per operating condition);
2. linear slow feature extraction: directions w minimizing the mean
   squared temporal difference of w'x subject to unit variance and mutual
   decorrelation on the normal data.  Solved by whitening the static
   covariance and diagonalizing the whitened difference covariance;
   slowness values come out ascending, so the slowest direction is first;
3. retained-direction count picked at the largest relative gap in the
   slowness spectrum; window length picked where the sample ACF of the
   first slow feature enters the two-sigma noise band;
4. piece-wise linear remaining-useful-life labels, constant at rul_max
   before the change point and decaying linearly after it;
5. hybrid frames: normalized channels followed by slow features, one
   frame-column matrix cut into sliding windows labeled at their last
   sample.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "NormalizationStats",
    "SlowFeatureModel",
    "FrameBatch",
    "ConditionNormalizer",
    "FeaturePipeline",
    "drop_constant_channels",
    "fit_normalizer",
    "apply_normalizer",
    "fit_condition_normalizer",
    "fit_sfa",
    "select_num_slow_features",
    "sample_acf",
    "select_window_from_acf",
    "piecewise_rul_labels",
    "sliding_frames",
    "fuse_and_slice",
    "concat_batches",
    "pipeline_to_arrays",
    "pipeline_from_arrays",
]

log = logging.getLogger("slowcaps.features")

# a standard deviation below this is a flat channel, not a scale
MIN_STD = 1e-12


def _as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D sample-by-channel matrix, got shape {a.shape}")
    return a


def _as_segments(x) -> list[np.ndarray]:
    # C order: pooled sums, and so every fitted statistic, must not
    # depend on how the caller's slices happen to be laid out
    if isinstance(x, np.ndarray):
        return [np.ascontiguousarray(_as_matrix(x))]
    segs = [np.ascontiguousarray(_as_matrix(s)) for s in x]
    if not segs:
        raise ValueError("no segments provided")
    widths = {s.shape[1] for s in segs}
    if len(widths) != 1:
        raise ValueError(f"segments disagree on channel count: {sorted(widths)}")
    return segs


def drop_constant_channels(matrices: Iterable[np.ndarray], tol: float = 1e-10) -> np.ndarray:
    """Boolean mask of channels whose pooled standard deviation exceeds tol.

    Flat channels carry no degradation information and would break the
    z-score; they are removed before any normalization.  Non-finite
    input is rejected: its standard deviation would compare as flat.
    """
    segs = _as_segments(matrices)
    pooled = np.vstack(segs)
    bad = np.flatnonzero(~np.isfinite(pooled).all(axis=0))
    if bad.size:
        raise ValueError(f"non-finite values in channel(s) {bad.tolist()}")
    std = pooled.std(axis=0)
    mask = std > tol
    if not mask.any():
        raise ValueError("all channels are constant at the given tolerance")
    dropped = int((~mask).sum())
    if dropped:
        log.info("dropping %d constant channel(s) of %d", dropped, mask.size)
    return mask


@dataclass
class NormalizationStats:
    """Per-channel z-score location and scale fitted on normal-stage data."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be matching 1-D arrays")


def fit_normalizer(segments) -> NormalizationStats:
    """Fit pooled z-score statistics over the given normal-stage segments."""
    pooled = np.vstack(_as_segments(segments))
    if pooled.shape[0] < 2:
        raise ValueError("need at least two samples to fit normalization")
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)
    bad = np.flatnonzero(std < MIN_STD)
    if bad.size:
        raise ValueError(f"zero-variance channel(s) at indices {bad.tolist()}; "
                         "drop constant channels first")
    return NormalizationStats(mean=mean, std=std)


def apply_normalizer(matrix, stats: NormalizationStats) -> np.ndarray:
    """Apply (x - mean) / std; used on normal and degradation data alike."""
    m = _as_matrix(matrix)
    if m.shape[1] != stats.mean.shape[0]:
        raise ValueError(
            f"channel count {m.shape[1]} does not match fitted stats "
            f"({stats.mean.shape[0]})"
        )
    return (m - stats.mean) / stats.std


@dataclass
class ConditionNormalizer:
    """Per-operating-condition z-score applied before the shared chain.

    Conditions are identified by their rounded setting vectors; each
    row is standardized with the statistics of its nearest condition
    center, fitted per condition on normal-stage training rows.
    """

    centers: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def apply(self, sensors: np.ndarray, settings: np.ndarray | None) -> np.ndarray:
        if settings is None:
            raise ValueError("per-condition normalization needs settings")
        d = settings[:, None, :] - self.centers[None, :, :]
        nearest = np.argmin((d * d).sum(axis=2), axis=1)
        return (sensors - self.means[nearest]) / self.stds[nearest]


def fit_condition_normalizer(series_list) -> ConditionNormalizer:
    """Fit per-condition statistics on the normal stage of each series; a
    channel flat within a condition keeps scale 1 there."""
    groups: dict[tuple, list] = {}
    for s in series_list:
        if s.settings is None:
            raise ValueError(f"unit {s.unit_id} has no settings columns")
        cp = s.change_point
        for x, c in zip(s.sensors[:cp], np.round(s.settings[:cp], 1)):
            groups.setdefault(tuple(c), []).append(x)
    centers, means, stds = [], [], []
    for key in sorted(groups):
        block = np.asarray(groups[key])
        if block.shape[0] < 2:
            raise ValueError(f"operating condition {key} has fewer than two normal samples")
        std = block.std(axis=0)
        centers.append(key)
        means.append(block.mean(axis=0))
        stds.append(np.where(std < MIN_STD, 1.0, std))
    return ConditionNormalizer(
        centers=np.asarray(centers, dtype=np.float64),
        means=np.asarray(means),
        stds=np.asarray(stds),
    )


@dataclass
class SlowFeatureModel:
    """Full slow-direction decomposition of normalized normal-stage data.

    ``weights`` holds one direction per column, ordered by ascending
    slowness; ``lambdas[i]`` equals the mean squared temporal difference
    of feature i on the fitting data.  ``num_slow`` (set after spectrum
    inspection) is how many leading columns the feature chain keeps as
    slow features.  ``cov_static`` is the ridged static covariance and
    ``cov_diff`` the covariance of within-segment first differences.
    """

    weights: np.ndarray
    lambdas: np.ndarray
    ridge: float
    cov_static: np.ndarray
    cov_diff: np.ndarray
    num_slow: int | None = None

    @property
    def n_channels(self) -> int:
        return self.weights.shape[0]

    def project(self, matrix, n: int) -> np.ndarray:
        """Project ``matrix`` onto the first ``n`` slow directions.

        No bias is subtracted: the input is expected to be normalized
        with the same statistics used during fitting.
        """
        m = _as_matrix(matrix)
        if m.shape[1] != self.n_channels:
            raise ValueError(
                f"channel count {m.shape[1]} does not match model ({self.n_channels})"
            )
        if not 1 <= n <= self.n_channels:
            raise ValueError(f"cannot project onto {n} of {self.n_channels} directions")
        return m @ self.weights[:, :n]


def fit_sfa(segments, ridge_scale: float = 1e-8) -> SlowFeatureModel:
    """Extract slow directions from normalized normal-stage segments.

    Temporal differences are taken within each segment only, never across
    segment boundaries.  The static covariance (sample covariance of the
    pooled data) receives a relative ridge of ``ridge_scale * trace/J``
    before whitening so near-collinear channels stay solvable.
    """
    segs = _as_segments(segments)
    pooled = np.vstack(segs)
    n, j = pooled.shape
    if j < 2:
        raise ValueError("need at least two channels for slow feature extraction")
    if n < j + 2:
        raise ValueError(f"need at least {j + 2} samples for {j} channels, got {n}")
    diffs = [np.diff(s, axis=0) for s in segs if s.shape[0] >= 2]
    if not diffs:
        raise ValueError("no segment has two or more samples; cannot form differences")
    d = np.vstack(diffs)
    cov_static = np.cov(pooled, rowvar=False, ddof=1)
    # second moment of the differences, not centered: slowness is the
    # mean squared step size
    cov_diff = d.T @ d / d.shape[0]
    ridge = float(ridge_scale) * float(np.trace(cov_static)) / j
    cov_static = cov_static + ridge * np.eye(j)
    evals, evecs = np.linalg.eigh(cov_static)
    if evals.min() <= 0.0:
        raise ValueError("static covariance is singular even after ridging")
    whiten = (evecs / np.sqrt(evals)) @ evecs.T
    lam, v = np.linalg.eigh(whiten @ cov_diff @ whiten)
    weights = whiten @ v
    # deterministic sign: largest-magnitude component of each direction
    # is positive
    idx = np.argmax(np.abs(weights), axis=0)
    signs = np.sign(weights[idx, np.arange(j)])
    signs[signs == 0] = 1.0
    weights = weights * signs
    return SlowFeatureModel(
        weights=weights,
        lambdas=lam,
        ridge=ridge,
        cov_static=cov_static,
        cov_diff=cov_diff,
    )


def select_num_slow_features(lambdas) -> int:
    """Count of retained slow directions: largest relative gap rule.

    Scans boundary positions P = 1 .. floor(J/2) (the slow half of the
    ascending spectrum) and returns the P maximizing lambda[P] /
    lambda[P-1]; ties break toward the smallest P.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("need at least two slowness values")
    if np.any(lam <= 0.0):
        raise ValueError("slowness values must all be positive")
    limit = max(1, lam.size // 2)
    ratios = lam[1 : limit + 1] / lam[:limit]
    return int(np.argmax(ratios)) + 1


def sample_acf(x, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation for lags 0..max_lag; acf[0] == 1."""
    v = np.asarray(x, dtype=np.float64).ravel()
    n = v.size
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if n <= max_lag:
        raise ValueError(f"series of length {n} cannot support lag {max_lag}")
    c = v - v.mean()
    denom = float(c @ c)
    if denom == 0.0:
        raise ValueError("series is constant; autocorrelation undefined")
    acf = np.empty(max_lag + 1)
    acf[0] = 1.0
    for lag in range(1, max_lag + 1):
        acf[lag] = float(c[:-lag] @ c[lag:]) / denom
    return acf


def select_window_from_acf(acf, n_samples: int) -> int:
    """Smallest lag whose |acf| drops inside the 2/sqrt(N) noise band.

    If no lag within the computed range crosses the band, the largest
    examined lag is returned with a warning.
    """
    a = np.asarray(acf, dtype=np.float64)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("acf must contain lag 0 and at least one further lag")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    band = 2.0 / np.sqrt(n_samples)
    below = np.flatnonzero(np.abs(a[1:]) < band)
    if below.size == 0:
        max_lag = a.size - 1
        log.warning(
            "no lag up to %d entered the +/-%.4f band; using %d",
            max_lag, band, max_lag,
        )
        return max_lag
    return int(below[0]) + 1


def piecewise_rul_labels(n_samples: int, change_point: int, rul_max: float) -> np.ndarray:
    """Remaining-useful-life target per sample index k = 1..n_samples.

    Constant at ``rul_max`` while k <= change_point, then decays by one
    per sample, floored at zero.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if not 0 <= change_point <= n_samples:
        raise ValueError(
            f"change point {change_point} outside series of length {n_samples}"
        )
    if rul_max <= 0:
        raise ValueError(f"rul_max must be positive, got {rul_max}")
    k = np.arange(1, n_samples + 1, dtype=np.float64)
    y = np.where(k <= change_point, float(rul_max), float(rul_max) - (k - change_point))
    return np.maximum(y, 0.0)


@dataclass
class FrameBatch:
    """Sliding-window frames with aligned labels and provenance.

    ``frames`` has shape (n, window, channels); frames of the same unit
    are stored contiguously in time order.
    """

    frames: np.ndarray
    labels: np.ndarray
    unit_ids: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.unit_ids = np.asarray(self.unit_ids)
        n = self.frames.shape[0]
        if self.frames.ndim != 3:
            raise ValueError(f"frames must be rank 3, got shape {self.frames.shape}")
        if not (self.labels.shape == (n,) == self.unit_ids.shape):
            raise ValueError("frames, labels and unit_ids disagree in length")

    def __len__(self) -> int:
        return self.frames.shape[0]

    def units(self) -> list:
        out, seen = [], set()
        for u in self.unit_ids:
            if u not in seen:
                seen.add(u)
                out.append(u)
        return out


def sliding_frames(matrix: np.ndarray, window: int) -> np.ndarray:
    """Each run of ``window`` consecutive rows (stride 1) of a (K, C)
    matrix as one frame: a C-contiguous (K - window + 1, window, C)
    array."""
    views = np.lib.stride_tricks.sliding_window_view(matrix, window, axis=0)
    return np.ascontiguousarray(views.transpose(0, 2, 1))


def fuse_and_slice(
    matrix,
    window: int,
    labels,
    unit_id="u0",
) -> FrameBatch | None:
    """Cut a frame-column matrix into labelled sliding windows.

    Each run of ``window`` consecutive rows of the (K, C) ``matrix``
    (stride 1, as ``training.sequence_index`` assumes) becomes one frame
    whose label is the entry of ``labels`` aligned with the frame's last
    row.  Returns None (with a warning) when the segment is shorter than
    the window.
    """
    m = _as_matrix(matrix)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if y.size != m.shape[0]:
        raise ValueError(f"labels length {y.size} does not match {m.shape[0]} samples")
    if window < 1:
        raise ValueError("window must be >= 1")
    k = m.shape[0]
    if k < window:
        log.warning(
            "unit %s: segment of %d samples is shorter than window %d; skipped",
            unit_id, k, window,
        )
        return None
    return FrameBatch(
        frames=sliding_frames(m, window),
        labels=y[window - 1 :].copy(),
        unit_ids=np.full(k - window + 1, unit_id, dtype=object),
    )


def concat_batches(batches: Sequence[FrameBatch]) -> FrameBatch:
    parts = [b for b in batches if b is not None and len(b)]
    if not parts:
        raise ValueError("no frames to concatenate")
    return FrameBatch(
        frames=np.concatenate([b.frames for b in parts]),
        labels=np.concatenate([b.labels for b in parts]),
        unit_ids=np.concatenate([b.unit_ids for b in parts]),
    )


@dataclass
class FeaturePipeline:
    """Fitted feature chain: condition z-score, channel mask, stats, slow basis.

    ``transform`` maps a raw series matrix to its frame columns: the
    retained normalized channels, followed by the slow features when
    ``include_slow`` is set.  With a ``condition`` normalizer it needs
    the series' operating settings.
    """

    channel_mask: np.ndarray
    stats: NormalizationStats
    sfa: SlowFeatureModel
    window: int
    include_slow: bool = True
    condition: ConditionNormalizer | None = None

    def __post_init__(self):
        self.channel_mask = np.asarray(self.channel_mask, dtype=bool)
        if self.channel_mask.sum() != self.stats.mean.shape[0]:
            raise ValueError("mask and normalization stats disagree on channel count")
        if self.sfa.num_slow is None:
            raise ValueError("slow feature model must have num_slow set")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @property
    def num_slow(self) -> int:
        return int(self.sfa.num_slow)

    @property
    def frame_channels(self) -> int:
        return int(self.channel_mask.sum()) + (self.num_slow if self.include_slow else 0)

    def transform(self, raw_matrix, settings=None) -> np.ndarray:
        m = _as_matrix(raw_matrix)
        if m.shape[1] != self.channel_mask.size:
            raise ValueError(
                f"raw channel count {m.shape[1]} does not match mask "
                f"({self.channel_mask.size})"
            )
        if self.condition is not None:
            m = self.condition.apply(m, settings)
        z = apply_normalizer(m[:, self.channel_mask], self.stats)
        if not self.include_slow:
            return z
        return np.hstack([z, self.sfa.project(z, self.num_slow)])

    def without_slow(self) -> "FeaturePipeline":
        return replace(self, include_slow=False)


def pipeline_to_arrays(pipe: FeaturePipeline) -> dict[str, np.ndarray]:
    """Flatten a fitted pipeline into named float arrays (checkpoint form)."""
    arrays = {
        "channel_mask": pipe.channel_mask.astype(np.float64),
        "norm_mean": pipe.stats.mean,
        "norm_std": pipe.stats.std,
        "sfa_weights": pipe.sfa.weights,
        "sfa_lambdas": pipe.sfa.lambdas,
        "sfa_cov_static": pipe.sfa.cov_static,
        "sfa_cov_diff": pipe.sfa.cov_diff,
        "sfa_ridge": np.asarray(pipe.sfa.ridge),
        "num_slow": np.asarray(float(pipe.num_slow)),
        "window": np.asarray(float(pipe.window)),
        "include_slow": np.asarray(1.0 if pipe.include_slow else 0.0),
    }
    if pipe.condition is not None:
        arrays["condition_centers"] = pipe.condition.centers
        arrays["condition_means"] = pipe.condition.means
        arrays["condition_stds"] = pipe.condition.stds
    return arrays


def _whole_number(arrays: dict[str, np.ndarray], name: str, lo: int, hi: float) -> int:
    """Scalar entry ``name`` as an int, if it is a whole number in [lo, hi]."""
    v = np.asarray(arrays[name], dtype=np.float64).ravel()
    if v.size != 1 or not (v[0].is_integer() and lo <= v[0] <= hi):
        raise ValueError(f"{name} must be a whole number in [{lo}, {hi}], got {v.tolist()}")
    return int(v[0])


def pipeline_from_arrays(arrays: dict[str, np.ndarray]) -> FeaturePipeline:
    """Rebuild a pipeline from :func:`pipeline_to_arrays` output; a missing
    array, an array whose shape does not fit the 1-D channel mask, a
    window below 1 or a slow-feature count outside 1 .. retained channels,
    or either not a whole number, raises ``ValueError``."""
    def shape(name: str) -> tuple:
        if name not in arrays:
            raise ValueError(f"missing array {name}")
        return np.shape(arrays[name])

    if len(shape("channel_mask")) != 1:
        raise ValueError(f"channel_mask must be 1-D, got shape {shape('channel_mask')}")
    j = int((arrays["channel_mask"] > 0.5).sum())
    want = {"norm_mean": (j,), "norm_std": (j,), "sfa_weights": (j, j), "sfa_lambdas": (j,),
            "sfa_cov_static": (j, j), "sfa_cov_diff": (j, j), "sfa_ridge": (),
            "num_slow": (), "window": (), "include_slow": ()}
    if any(name.startswith("condition_") for name in arrays):
        centers = shape("condition_centers")
        if len(centers) != 2:
            raise ValueError(f"condition_centers must be 2-D, got shape {centers}")
        want["condition_means"] = want["condition_stds"] = centers[:1] + shape("channel_mask")
    for name, expected in want.items():
        if shape(name) != expected:
            raise ValueError(f"{name} has shape {shape(name)}, expected {expected}")
    sfa = SlowFeatureModel(
        weights=arrays["sfa_weights"],
        lambdas=arrays["sfa_lambdas"],
        ridge=float(arrays["sfa_ridge"]),
        cov_static=arrays["sfa_cov_static"],
        cov_diff=arrays["sfa_cov_diff"],
        num_slow=_whole_number(arrays, "num_slow", 1, j),
    )
    condition = None
    if "condition_centers" in arrays:
        condition = ConditionNormalizer(
            centers=arrays["condition_centers"],
            means=arrays["condition_means"],
            stds=arrays["condition_stds"],
        )
    return FeaturePipeline(
        channel_mask=arrays["channel_mask"] > 0.5,
        stats=NormalizationStats(mean=arrays["norm_mean"], std=arrays["norm_std"]),
        sfa=sfa,
        window=_whole_number(arrays, "window", 1, np.inf),
        include_slow=bool(float(arrays["include_slow"]) > 0.5),
        condition=condition,
    )

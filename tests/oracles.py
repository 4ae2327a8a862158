"""Independent reference implementations used to validate the package.

Every function here recomputes a quantity along a different route than
the library: generalized eigensolves instead of whiten-then-diagonalize,
quadruple loops instead of im2col, scipy special functions instead of
hand-built primitives.  Expected values in the tests come from these
oracles or from frozen hand calculations, never from the code under
test.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.special

from slowcaps.tensor import Tensor, accumulate_grad, make_op


# ---------------------------------------------------------------- autodiff


def product(a, b) -> Tensor:
    """Elementwise a * b as one tape node, for probes and tape checks
    that need a product the library does not export.  Both operands have
    one shape, nothing broadcasts; a plain array or number is a
    constant."""
    a, b = (x if isinstance(x, Tensor) else Tensor(x) for x in (a, b))
    if a.shape != b.shape:
        raise ValueError(f"product: shape mismatch {a.shape} vs {b.shape}")

    def bw(g):
        if a.requires_grad:
            accumulate_grad(a, g * b.data)
        if b.requires_grad:
            accumulate_grad(b, g * a.data)

    return make_op(a.data * b.data, (a, b), bw)


# ---------------------------------------------------------------- features


def sfa_oracle(segments, ridge_scale: float = 1e-8):
    """Slow directions via a generalized symmetric eigensolve.

    Statistics match the library contract (pooled covariance with ddof 1
    plus a trace-scaled ridge; uncentered mean of squared within-segment
    differences) but the solver route is scipy's Cholesky-based
    generalized eigenproblem rather than whitening.  Columns are sign
    fixed so the largest-magnitude entry is positive.
    """
    pooled = np.vstack(segments)
    j = pooled.shape[1]
    cov_static = np.cov(pooled, rowvar=False, ddof=1)
    cov_static = np.atleast_2d(cov_static)
    ridge = ridge_scale * np.trace(cov_static) / j
    cov_static = cov_static + ridge * np.eye(j)
    diffs = np.vstack([np.diff(seg, axis=0) for seg in segments])
    cov_diff = diffs.T @ diffs / diffs.shape[0]
    lam, vecs = scipy.linalg.eigh(cov_diff, cov_static)
    order = np.argsort(lam)
    lam = lam[order]
    vecs = vecs[:, order]
    weights = vecs.T
    for i in range(weights.shape[0]):
        k = int(np.argmax(np.abs(weights[i])))
        if weights[i, k] < 0:
            weights[i] = -weights[i]
    return weights, lam


def ar1_series(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.normal()
    innov = rng.normal(size=n)
    for k in range(1, n):
        x[k] = phi * x[k - 1] + innov[k]
    return x


def ar1_window_crossing(phi: float, n: int) -> int:
    """Smallest lag where the population ACF phi**lag drops below 2/sqrt(n)."""
    band = 2.0 / math.sqrt(n)
    return math.ceil(math.log(band) / math.log(phi))


def biased_acf_oracle(x: np.ndarray, max_lag: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    xc = x - x.mean()
    denom = float(xc @ xc)
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        out[lag] = float(xc[lag:] @ xc[: x.size - lag]) / denom
    return out


def piecewise_labels_oracle(n: int, change_point: int, rul_max: float) -> np.ndarray:
    out = np.empty(n)
    for idx in range(n):
        k = idx + 1
        if k <= change_point:
            out[idx] = rul_max
        else:
            out[idx] = max(rul_max - (k - change_point), 0.0)
    return out


# ---------------------------------------------------------------- network


def conv2d_oracle(x: np.ndarray, kernel: np.ndarray, stride) -> np.ndarray:
    """Direct quadruple-loop valid convolution, NHWC x HWIO."""
    n, h, w, cin = x.shape
    kh, kw, cin2, cout = kernel.shape
    assert cin == cin2
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    out = np.zeros((n, ho, wo, cout))
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                patch = x[b, i * sh : i * sh + kh, j * sw : j * sw + kw, :]
                for c in range(cout):
                    out[b, i, j, c] = np.sum(patch * kernel[:, :, :, c])
    return out


def squash_oracle(s: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Vector-wise nonlinearity over the last axis, alternate composition."""
    norm = np.linalg.norm(s, axis=-1, keepdims=True)
    factor = norm**2 / (1.0 + norm**2)
    unit = s / np.sqrt(norm**2 + eps)
    return factor * unit


def routing_oracle(u_hat: np.ndarray, iterations: int):
    """Agreement routing with scipy softmax; returns (c, b, v)."""
    n, i, j, a = u_hat.shape
    b = np.zeros((n, i, j))
    c = None
    v = None
    for _ in range(iterations):
        c = scipy.special.softmax(b, axis=2)
        s = np.einsum("nij,nija->nja", c, u_hat)
        v = squash_oracle(s)
        b = b + np.einsum("nija,nja->nij", u_hat, v)
    return c, b, v


def capsule_count_oracle(window, channels, conv_kernel, conv_stride,
                         caps_kernel, caps_stride, caps_channels) -> int:
    """Walk the valid-position grids with explicit loops."""

    def positions(extent, k, s):
        count = 0
        start = 0
        while start + k <= extent:
            count += 1
            start += s
        return count

    h1 = positions(window, conv_kernel[0], conv_stride[0])
    w1 = positions(channels, conv_kernel[1], conv_stride[1])
    h2 = positions(h1, caps_kernel[0], caps_stride[0])
    w2 = positions(w1, caps_kernel[1], caps_stride[1])
    return h2 * w2 * caps_channels


def lstm_step_oracle(x, h, c, wx, wh, b):
    """One LSTM step from per-gate weight dicts, via scipy expit."""
    gates = {}
    for g in ("i", "f", "g", "o"):
        gates[g] = x @ wx[g] + h @ wh[g] + b[g]
    i = scipy.special.expit(gates["i"])
    f = scipy.special.expit(gates["f"])
    g = np.tanh(gates["g"])
    o = scipy.special.expit(gates["o"])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


# ---------------------------------------------------------------- training


def adam_trajectory_oracle(p0: float, grads, lr, beta1, beta2, eps) -> float:
    """Scalar Adam run with explicit bias correction, step by step."""
    p = float(p0)
    m = 0.0
    v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


# ---------------------------------------------------------------- metrics


def score_oracle(diffs) -> float:
    total = 0.0
    for d in np.asarray(diffs, dtype=np.float64).ravel():
        if d < 0:
            total += math.exp(-d / 13.0) - 1.0
        else:
            total += math.exp(d / 10.0) - 1.0
    return total


def rmse_oracle(diffs) -> float:
    d = np.asarray(diffs, dtype=np.float64).ravel()
    return math.sqrt(sum(x * x for x in d) / d.size)


def sequence_index_oracle(unit_ids, length: int):
    """Start frames of every run of ``length`` frames within a unit, by
    walking the frames one at a time, and the (unit, frame count) of
    each unit too short for one."""
    starts, short = [], []
    i, n = 0, len(unit_ids)
    while i < n:
        j = i
        while j < n and unit_ids[j] == unit_ids[i]:
            j += 1
        if j - i >= length:
            starts.extend(range(i, j - length + 1))
        else:
            short.append((unit_ids[i], j - i))
        i = j
    return starts, short

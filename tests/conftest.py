"""Shared test helpers: finite-difference gradients, the per-frame model
chain and small fixtures."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from slowcaps import network as N
from slowcaps import tensor as T

sys.path.insert(0, str(Path(__file__).resolve().parent))


def numeric_grad(loss_fn, arrays: dict[str, np.ndarray], eps: float = 1e-6):
    """Central finite differences of ``loss_fn()`` w.r.t. each array.

    The arrays are perturbed in place, so ``loss_fn`` must read from the
    same storage (e.g. Tensor.data views).  Returns name -> gradient.
    """
    grads = {}
    for name, a in arrays.items():
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn()
            flat[i] = orig - eps
            lo = loss_fn()
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads


def rel_max(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    """Largest elementwise relative difference with an absolute floor."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(floor, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom))


def sliding_frames(series: np.ndarray, window: int) -> np.ndarray:
    """Every stride-1 window of a (units, rows, channels) fleet, as
    (units * (rows - window + 1), window, channels) frames that share
    rows like the frames of one unit do."""
    views = sliding_window_view(series, window, axis=1).transpose(0, 1, 3, 2)
    return views.reshape(-1, window, series.shape[2])


def per_frame_forward(x, params, config, mode="eval", rng=None):
    """The model's forward pass stage by stage on whole (B, S, window,
    channels) frames, with no patch or frame sharing: conv, capsules and
    routing per frame, then the LSTM and the head."""
    b, s = x.shape[:2]
    flat = T.Tensor(np.reshape(x, (b * s,) + x.shape[2:] + (1,)))
    u = N.build_basic_capsules(N.conv_features(flat, params, config), params, config)
    v, coupling = N.dynamic_routing(u, params, config)
    h = N.lstm_forward(T.reshape(v, (b, s, config.advanced_flat_size)), params, config)
    return N.regression_head(h, params, config, mode, rng), coupling


def route_votes(uh: np.ndarray, iterations: int):
    """``routing_coefficients`` on an (N, I, J, A) vote array ``uh``:
    (coupling, logits), both in the oracle's (N, I, J) order.  Any vote
    array is some W u; routing runs on capsules u (N, I, D) and
    transforms W (I, J, A, D) with D = N, u[n, i] = e_n and
    W[i, j][:, n] = uh[n, i, j]."""
    n = uh.shape[0]
    u = np.zeros(uh.shape[:2] + (n,))
    u[np.arange(n), :, np.arange(n)] = 1.0
    w = np.ascontiguousarray(uh.transpose(1, 2, 3, 0))
    uf, wj = N.capsule_transform(T.Tensor(u), T.Tensor(w), np.arange(n)[:, None])
    c, b, _, _ = N.routing_coefficients(uf, wj, iterations)
    return c.transpose(1, 2, 0), b.transpose(1, 2, 0)


def materialized_forward(x, params, config, *args, **kwargs):
    """``model_forward`` on materialized (B, S, window, channels)
    sequences: the B * S frames in order, each sequence naming its own."""
    b, s = x.shape[:2]
    return N.model_forward(np.reshape(x, (b * s,) + x.shape[2:]), params, config, *args,
                           index=np.arange(b * s).reshape(b, s), **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

"""Capsule network with a temporal head for RUL regression.

Forward path per frame (window x channels, treated as a one-channel
image): valid convolution with tanh, a second convolution whose output
channels split into capsule vectors, squashing, then dynamic routing by
agreement onto a small set of advanced capsules.  A sequence of frames
feeds an LSTM whose final hidden state drives a small fully connected
regression stack ending in one linear output.

Routing coefficients are recomputed from zero logits on every forward
pass and are treated as constants by the backward pass: gradients flow
through the prediction vectors and the final weighted sum, not through
the softmax that produced the coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import tensor as T
from .tensor import Tensor, _accumulate_new, accumulate_grad, make_op

__all__ = [
    "ModelConfig",
    "init_parameters",
    "parameter_count",
    "squash",
    "capsule_transform",
    "capsule_weighted_sum",
    "routing_coefficients",
    "conv_features",
    "build_basic_capsules",
    "dynamic_routing",
    "lstm_forward",
    "regression_head",
    "model_forward",
    "predict",
]

SQUASH_EPS = 1e-12
# conv-map bytes one dense-inference block may hold: 8 MiB is 73 frames
# at FD001 geometry, and the whole validation set in one pass at desk
# geometry
BLOCK_BYTES = 8 << 20


def _pair(v, name: str) -> tuple[int, int]:
    try:
        a, b = int(v[0]), int(v[1])
    except (TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"{name} must be a pair of ints, got {v!r}") from exc
    return a, b


@dataclass
class ModelConfig:
    """Architecture description; derived extents are filled in validate().

    ``caps_channels`` defaults to conv_filters // caps_dim and
    ``caps_kernel`` defaults to a full-width kernel over the convolution
    output, so by default the capsule stage collapses the channel axis to
    a single spatial column.
    """

    window_length: int
    in_channels: int
    conv_filters: int = 64
    conv_kernel: tuple[int, int] = (1, 2)
    conv_stride: tuple[int, int] = (1, 2)
    caps_dim: int = 8
    caps_channels: int | None = None
    caps_kernel: tuple[int, int] | None = None
    caps_stride: tuple[int, int] = (1, 1)
    num_advanced: int = 2
    advanced_dim: int = 16
    routing_iterations: int = 3
    lstm_units: int = 16
    sequence_length: int = 5
    use_lstm: bool = True
    fnn_widths: tuple[int, ...] = (200, 100, 1)
    dropout: float = 0.2

    def __post_init__(self):
        self.conv_kernel = _pair(self.conv_kernel, "conv_kernel")
        self.conv_stride = _pair(self.conv_stride, "conv_stride")
        self.caps_stride = _pair(self.caps_stride, "caps_stride")
        if self.caps_channels is None:
            self.caps_channels = max(1, self.conv_filters // self.caps_dim)
        if self.caps_kernel is None:
            self.caps_kernel = (1, self.conv_out_hw[1])
        else:
            self.caps_kernel = _pair(self.caps_kernel, "caps_kernel")
        self.fnn_widths = tuple(int(w) for w in self.fnn_widths)
        problems = self.problems()
        if problems:
            raise ValueError("invalid model config: " + "; ".join(problems))

    def problems(self) -> list[str]:
        """All constraint violations, for exhaustive reporting."""
        out = []
        if self.window_length < 1:
            out.append(f"window_length must be >= 1, got {self.window_length}")
        if self.in_channels < 1:
            out.append(f"in_channels must be >= 1, got {self.in_channels}")
        if self.conv_filters < 1:
            out.append("conv_filters must be >= 1")
        if self.caps_dim < 1:
            out.append("caps_dim must be >= 1")
        elif self.conv_filters % self.caps_dim != 0:
            out.append(
                f"conv_filters ({self.conv_filters}) must be divisible by "
                f"caps_dim ({self.caps_dim})"
            )
        for name, pair_ in (("conv_kernel", self.conv_kernel),
                            ("conv_stride", self.conv_stride),
                            ("caps_kernel", self.caps_kernel),
                            ("caps_stride", self.caps_stride)):
            if min(pair_) < 1:
                out.append(f"{name} entries must be >= 1, got {pair_}")
        if self.routing_iterations < 1:
            out.append("routing_iterations must be >= 1")
        if self.num_advanced < 1:
            out.append("num_advanced must be >= 1")
        if self.advanced_dim < 1:
            out.append("advanced_dim must be >= 1")
        if self.sequence_length < 1:
            out.append("sequence_length must be >= 1")
        if not self.use_lstm and self.sequence_length != 1:
            out.append("sequence_length must be 1 when the LSTM head is disabled")
        if self.use_lstm and self.lstm_units < 1:
            out.append("lstm_units must be >= 1")
        if not self.fnn_widths or self.fnn_widths[-1] != 1:
            out.append(f"fnn_widths must end in 1, got {self.fnn_widths}")
        if any(w < 1 for w in self.fnn_widths):
            out.append("fnn_widths entries must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            out.append(f"dropout must be in [0, 1), got {self.dropout}")
        if not out:
            # geometric feasibility, only meaningful once basics hold
            h, w = self.conv_out_hw
            if h < 1 or w < 1:
                out.append(
                    f"conv kernel {self.conv_kernel} / stride {self.conv_stride} "
                    f"does not fit a {self.window_length}x{self.in_channels} frame"
                )
            else:
                ch, cw = self.caps_out_hw
                if ch < 1 or cw < 1:
                    out.append(
                        f"capsule kernel {self.caps_kernel} / stride "
                        f"{self.caps_stride} does not fit the {h}x{w} feature maps"
                    )
        return out

    @property
    def conv_out_hw(self) -> tuple[int, int]:
        kh, kw = self.conv_kernel
        sh, sw = self.conv_stride
        return ((self.window_length - kh) // sh + 1,
                (self.in_channels - kw) // sw + 1)

    @property
    def caps_out_hw(self) -> tuple[int, int]:
        h, w = self.conv_out_hw
        kh, kw = self.caps_kernel
        sh, sw = self.caps_stride
        return ((h - kh) // sh + 1, (w - kw) // sw + 1)

    @property
    def conv_map_bytes(self) -> int:
        """Bytes of one frame's float64 conv map, the largest per-frame
        array of the forward pass."""
        h, w = self.conv_out_hw
        return h * w * self.conv_filters * 8

    @property
    def num_basic_capsules(self) -> int:
        h, w = self.caps_out_hw
        return h * w * self.caps_channels

    @property
    def advanced_flat_size(self) -> int:
        return self.num_advanced * self.advanced_dim

    @property
    def head_input_size(self) -> int:
        return self.lstm_units if self.use_lstm else self.advanced_flat_size


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_parameters(config: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Seeded initialization; draw order is fixed by construction order.

    Convolution and fully connected weights use the symmetric uniform
    fan-based scheme, routing transforms are normal with sigma 0.05, and
    the LSTM forget-gate bias starts at 1 so memory is initially kept.
    """
    kh, kw = config.conv_kernel
    m = config.conv_filters
    params: dict[str, Tensor] = {}

    def put(name, arr):
        params[name] = Tensor(arr, requires_grad=True)

    put("conv.kernel", _glorot(rng, (kh, kw, 1, m), kh * kw, kh * kw * m))
    put("conv.bias", np.zeros(m))
    ckh, ckw = config.caps_kernel
    cm = config.caps_channels * config.caps_dim
    put("caps.kernel", _glorot(rng, (ckh, ckw, m, cm), ckh * ckw * m, ckh * ckw * cm))
    put("caps.bias", np.zeros(cm))
    put(
        "route.transform",
        rng.normal(
            0.0,
            0.05,
            size=(config.num_basic_capsules, config.num_advanced,
                  config.advanced_dim, config.caps_dim),
        ),
    )
    if config.use_lstm:
        f = config.advanced_flat_size
        u = config.lstm_units
        for gate in ("i", "f", "g", "o"):
            put(f"lstm.w_x{gate}", _glorot(rng, (f, u), f, u))
            put(f"lstm.w_h{gate}", _glorot(rng, (u, u), u, u))
            put(f"lstm.b_{gate}", np.ones(u) if gate == "f" else np.zeros(u))
    prev = config.head_input_size
    for li, width in enumerate(config.fnn_widths):
        put(f"fnn.{li}.weight", _glorot(rng, (prev, width), prev, width))
        put(f"fnn.{li}.bias", np.zeros(width))
        prev = width
    return params


def parameter_count(params: Mapping[str, Tensor]) -> int:
    return int(sum(t.data.size for t in params.values()))


def squash(s: Tensor, eps: float = SQUASH_EPS) -> Tensor:
    """Nonlinear length normalization of capsule vectors (last axis).

    v = (|s|^2 / (1 + |s|^2)) * s / |s|; short vectors shrink toward
    zero, long vectors approach unit length, direction is preserved.
    The eps guard keeps the zero vector mapped exactly to zero.  One tape
    node: the forward is :func:`_squash_np`, the routing squash; with
    v = f(n2) s, n2 = |s|^2 and r = sqrt(n2 + eps), the backward is the
    closed form g f + s 2 f'(n2) (g . s), where
    f' = (n2 + 2 eps - n2^2) / (2 r^3 (1 + n2)^2).
    """
    x = s.data

    def bw(g):
        if s.requires_grad:
            n2 = (x * x).sum(axis=-1, keepdims=True)
            r = np.sqrt(n2 + eps)
            q = 1.0 + n2
            df2 = (n2 + 2.0 * eps - n2 * n2) / (r * r * r * q * q)
            gx = g * (n2 / (q * r))
            gx += x * (df2 * (g * x).sum(axis=-1, keepdims=True))
            _accumulate_new(s, gx)

    return make_op(_squash_np(x, eps), (s,), bw)


def _squash_np(s: np.ndarray, eps: float = SQUASH_EPS) -> np.ndarray:
    n2 = (s * s).sum(axis=-1, keepdims=True)
    return s * (n2 / ((1.0 + n2) * np.sqrt(n2 + eps)))


def _softmax_np(b: np.ndarray, axis: int) -> np.ndarray:
    z = b - b.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def capsule_transform(u: Tensor, w: Tensor) -> Tensor:
    """Per-pair linear votes: u (N,I,D) and w (I,J,A,D) give (N,I,J,A).

    Computed as one matmul batched over I; the result is a transposed
    view of the (I, N, J, A) product.
    """
    if u.ndim != 3 or w.ndim != 4:
        raise ValueError(f"bad ranks for capsule transform: {u.shape}, {w.shape}")
    if u.shape[1] != w.shape[0] or u.shape[2] != w.shape[3]:
        raise ValueError(f"capsule transform mismatch: u {u.shape} vs w {w.shape}")
    n, i, d = u.shape
    _, j, a, _ = w.shape
    ui = u.data.transpose(1, 0, 2)
    wi = w.data.reshape(i, j * a, d)
    out = np.matmul(ui, wi.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(n, i, j, a)

    def bw(g):
        gi = np.asarray(g).reshape(n, i, j * a).transpose(1, 0, 2)
        if w.requires_grad:
            accumulate_grad(w, np.matmul(gi.transpose(0, 2, 1), ui).reshape(i, j, a, d))
        if u.requires_grad:
            accumulate_grad(u, np.matmul(gi, wi).transpose(1, 0, 2))

    return make_op(out, (u, w), bw)


def capsule_weighted_sum(u_hat: Tensor, coupling: np.ndarray) -> Tensor:
    """Coupling-weighted vote aggregation; coupling is a constant here.

    u_hat (N,I,J,A) with coupling (N,I,J) gives (N,J,A).  Because the
    coupling enters as a plain array, no gradient flows into the routing
    softmax, implementing the stop-gradient convention.
    """
    c = np.asarray(coupling, dtype=np.float64)
    if c.shape != u_hat.shape[:3]:
        raise ValueError(f"coupling shape {c.shape} does not match votes {u_hat.shape}")
    n, i, j, a = u_hat.shape
    out = np.einsum("nij,nija->nja", c, u_hat.data, optimize=True)

    def bw(g):
        if u_hat.requires_grad:
            # laid out (I, N, J, A) like the votes, so capsule_transform's
            # backward batches over I on contiguous slabs
            gi = np.empty((i, n, j, a))
            np.multiply(c.transpose(1, 0, 2)[..., None], g, out=gi)
            _accumulate_new(u_hat, gi.transpose(1, 0, 2, 3))

    return make_op(out, (u_hat,), bw)


def routing_coefficients(u_hat_values: np.ndarray, iterations: int):
    """Run routing-by-agreement on plain vote arrays.

    Logits start at zero.  Each of the first ``iterations - 1`` rounds
    takes the softmax over the advanced-capsule axis, forms the weighted
    sums, squashes them, and adds each vote's agreement (dot product with
    the squashed output) to its logit; the last round only takes the
    softmax, because :func:`dynamic_routing` records its weighted sum and
    squash on the tape.  Returns (coupling, logits), both (N, I, J), where
    ``coupling`` is the softmax of ``logits`` over the advanced capsules.
    """
    uh = np.asarray(u_hat_values, dtype=np.float64)
    if iterations < 1:
        raise ValueError("routing needs at least one iteration")
    # work in (n, j, i) order: the softmax reduces over an outer axis and
    # both contractions over i and a are batched matmuls
    ut = uh.transpose(0, 2, 1, 3)
    b = np.zeros(ut.shape[:3])
    for _ in range(iterations - 1):
        c = _softmax_np(b, axis=1)
        s = np.matmul(c[:, :, None, :], ut)[:, :, 0]
        b = b + np.matmul(ut, _squash_np(s)[..., None])[..., 0]
    return _softmax_np(b, axis=1).transpose(0, 2, 1), b.transpose(0, 2, 1)


def conv_features(frames: Tensor, params: Mapping[str, Tensor], config: ModelConfig) -> Tensor:
    """First stage: valid convolution over (N, window, channels, 1) + tanh."""
    return T.conv2d_tanh(frames, params["conv.kernel"], params["conv.bias"],
                         config.conv_stride)


def build_basic_capsules(maps: Tensor, params: Mapping[str, Tensor], config: ModelConfig) -> Tensor:
    """Second convolution, regrouped into squashed capsule vectors.

    The output channel axis holds caps_channels blocks of caps_dim; each
    spatial position of each block is one basic capsule, flattened to
    (N, num_basic, caps_dim) with the capsule dimension kept intact.
    """
    z = T.conv2d(maps, params["caps.kernel"], params["caps.bias"], config.caps_stride)
    n = z.shape[0]
    caps = T.reshape(z, (n, config.num_basic_capsules, config.caps_dim))
    return squash(caps)


def dynamic_routing(
    u: Tensor,
    params: Mapping[str, Tensor],
    config: ModelConfig,
    coupling_override: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Route basic capsules to advanced capsules.

    The iterative agreement loop runs on detached vote values; only the
    final coupling-weighted sum and squash are recorded for gradients.
    Returns the advanced capsules and the coupling (N, I, J) they were
    built from.  ``coupling_override`` substitutes a fixed coupling array
    (used to hold the routing constant while probing the loss surface).
    """
    u_hat = capsule_transform(u, params["route.transform"])
    if coupling_override is not None:
        c = np.asarray(coupling_override, dtype=np.float64)
    else:
        c, _ = routing_coefficients(u_hat.data, config.routing_iterations)
    v = squash(capsule_weighted_sum(u_hat, c))
    return v, c


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # sign-split: exp only sees -|x|, so it never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def lstm_forward(v_seq: Tensor, params: Mapping[str, Tensor], config: ModelConfig) -> Tensor:
    """Many-to-one LSTM over (B, S, F); returns the final hidden state (B, U).

    One tape node.  Per step, z = x_t Wx + h Wh + b with the per-gate
    parameters concatenated in i, f, g, o order; c = f c + i g and
    h = o tanh(c).  The backward pass is closed-form BPTT (Greff et al.,
    "LSTM: A Search Space Odyssey", appendix) over the saved gates and
    cell states, with each weight gradient one GEMM over all S*B rows.
    """
    if v_seq.ndim != 3:
        raise ValueError(f"lstm input must be rank 3, got shape {v_seq.shape}")
    batch, steps, width = v_seq.shape
    if steps < 1:
        raise ValueError("empty sequence")
    if width != config.advanced_flat_size:
        raise ValueError(f"lstm input width {width} does not match "
                         f"advanced_flat_size {config.advanced_flat_size}")
    ps = [params[f"lstm.{kind}{gate}"] for kind in ("w_x", "w_h", "b_") for gate in "ifgo"]
    wx, wh, b = (np.concatenate([p.data for p in ps[k : k + 4]], axis=-1) for k in (0, 4, 8))
    u = config.lstm_units
    x = np.ascontiguousarray(v_seq.data.transpose(1, 0, 2))
    gates = np.empty((steps, batch, 4 * u))
    cs = np.zeros((steps + 1, batch, u))      # c_0 .. c_S
    hs = np.zeros((steps + 1, batch, u))      # h_0 .. h_S
    tcs = np.empty((steps, batch, u))         # tanh(c_1) .. tanh(c_S)
    for t in range(steps):
        z = x[t] @ wx + hs[t] @ wh + b
        a = gates[t]
        a[:] = _sigmoid_np(z)
        a[:, 2 * u : 3 * u] = np.tanh(z[:, 2 * u : 3 * u])
        i, f, g, o = np.split(a, 4, axis=1)
        cs[t + 1] = f * cs[t] + i * g
        np.tanh(cs[t + 1], out=tcs[t])
        hs[t + 1] = o * tcs[t]

    def bw(grad):
        dz = np.empty_like(gates)
        dh = np.asarray(grad)
        dc = np.zeros((batch, u))
        for t in reversed(range(steps)):
            i, f, g, o = np.split(gates[t], 4, axis=1)
            tc = tcs[t]
            dc = dc + dh * o * (1.0 - tc * tc)
            di, df, dg, do = np.split(dz[t], 4, axis=1)
            di[:] = dc * g * i * (1.0 - i)
            df[:] = dc * cs[t] * f * (1.0 - f)
            dg[:] = dc * i * (1.0 - g * g)
            do[:] = dh * tc * o * (1.0 - o)
            dc = dc * f
            dh = dz[t] @ wh.T
        rows = dz.reshape(steps * batch, 4 * u)
        sums = (x.reshape(steps * batch, width).T @ rows,
                hs[:-1].reshape(steps * batch, u).T @ rows, rows.sum(axis=0))
        for k, full in enumerate(sums):
            for p, part in zip(ps[4 * k : 4 * k + 4], np.split(full, 4, axis=-1)):
                if p.requires_grad:
                    accumulate_grad(p, part)
        if v_seq.requires_grad:
            _accumulate_new(v_seq, (rows @ wx.T).reshape(steps, batch, width).transpose(1, 0, 2))

    return make_op(hs[-1], (v_seq, *ps), bw)


def regression_head(
    h: Tensor,
    params: Mapping[str, Tensor],
    config: ModelConfig,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Fully connected stack ending in a single linear output per sample.

    Hidden layers use relu followed, in training mode, by inverted
    dropout; the final layer is affine with no activation.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and config.dropout > 0.0 and rng is None:
        raise ValueError("training mode with dropout needs an rng")
    z = h
    last = len(config.fnn_widths) - 1
    for li in range(len(config.fnn_widths)):
        z = T.add(T.matmul(z, params[f"fnn.{li}.weight"]), params[f"fnn.{li}.bias"])
        if li < last:
            z = T.relu(z)
            if mode == "train" and config.dropout > 0.0:
                z = T.dropout(z, config.dropout, rng)
    return T.reshape(z, (z.shape[0],))


def model_forward(
    frames,
    params: Mapping[str, Tensor],
    config: ModelConfig,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    coupling_override: np.ndarray | None = None,
    index: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Full forward pass on a batch of frame sequences.

    ``frames`` has shape (B, S, window, channels); a single sequence
    (S, window, channels) is promoted to a batch of one.  With ``index``,
    a (B, S) int array, ``frames`` is instead (F, window, channels)
    distinct frames and sequence b is frames ``index[b]``: the per-frame
    stages run once per frame and the sequences are gathered for the
    LSTM.  Returns the per-sample scalar outputs (B,) and the routing
    coupling of the flat frame batch (B*S frames, or the F frames).
    """
    x = frames if isinstance(frames, Tensor) else Tensor(frames)
    if index is None:
        if x.ndim == 3:
            x = T.reshape(x, (1,) + x.shape)
        if x.ndim != 4:
            raise ValueError(f"frames must be rank 3 or 4, got shape {x.shape}")
        batch, steps, window, channels = x.shape
    else:
        index = np.asarray(index)
        if index.ndim != 2 or x.ndim != 3:
            raise ValueError(f"indexed frames must be rank 3 with a rank-2 index, "
                             f"got shapes {x.shape} and {index.shape}")
        batch, steps = index.shape
        _, window, channels = x.shape
    if window != config.window_length or channels != config.in_channels:
        raise ValueError(
            f"frame geometry {window}x{channels} does not match config "
            f"{config.window_length}x{config.in_channels}"
        )
    if not config.use_lstm and steps != 1:
        raise ValueError("sequence length must be 1 when the LSTM head is disabled")
    rows = x.size // (window * channels)
    flat = T.reshape(x, (rows, window, channels, 1))
    maps = conv_features(flat, params, config)
    u = build_basic_capsules(maps, params, config)
    v, coupling = dynamic_routing(u, params, config, coupling_override)
    flat_v = T.reshape(v, (rows, config.advanced_flat_size))
    if index is not None:
        flat_v = T.take_rows(flat_v, index.reshape(-1))
    if config.use_lstm:
        seq = T.reshape(flat_v, (batch, steps, config.advanced_flat_size))
        head_in = lstm_forward(seq, params, config)
    else:
        head_in = flat_v
    y = regression_head(head_in, params, config, mode, rng)
    return y, coupling


def predict(
    frames,
    params: Mapping[str, Tensor],
    config: ModelConfig,
    label_scale: float = 1.0,
    chunk: int = 512,
    index: np.ndarray | None = None,
) -> np.ndarray:
    """Inference-mode RUL estimates, one forward pass per block.

    ``frames`` is (B, S, window, channels) or a single sequence
    (S, window, channels); with ``index`` (B, S) it is (F, window,
    channels) and sequence b is frames ``index[b]``.  A block is a run
    of at most ``chunk`` consecutive sequences whose distinct frames
    have conv maps within :data:`BLOCK_BYTES` (always room for one
    sequence); each of those frames is scored once.  Returns (B,)
    outputs times ``label_scale``.
    """
    x = np.asarray(frames)
    if index is None:
        if x.ndim == 3:
            x = x[None]
        index = np.arange(x.shape[0] * x.shape[1]).reshape(x.shape[:2])
        x = x.reshape((-1,) + x.shape[2:])
    index = np.asarray(index)
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if index.ndim != 2:
        raise ValueError(f"index must be (sequences, steps), got shape {index.shape}")
    budget = max(index.shape[1], BLOCK_BYTES // config.conv_map_bytes)
    out = np.empty(index.shape[0])
    with T.no_grad():
        for lo, hi in _blocks(index, chunk, budget):
            used, local = np.unique(index[lo:hi], return_inverse=True)
            y, _ = model_forward(x[used], params, config, mode="eval",
                                 index=local.reshape(hi - lo, -1))
            out[lo:hi] = y.data * float(label_scale)
    return out


def _blocks(index: np.ndarray, chunk: int, budget: int):
    """(lo, hi) runs of at most ``chunk`` consecutive sequences that name
    at most ``budget`` distinct frames, covering every sequence."""
    lo, seen = 0, set()
    for i, row in enumerate(index.tolist()):
        if i - lo == chunk or len(seen.union(row)) > budget:
            yield lo, i
            lo, seen = i, set()
        seen.update(row)
    if lo < len(index):
        yield lo, len(index)

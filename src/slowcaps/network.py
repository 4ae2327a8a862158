"""Capsule network with a temporal head for RUL regression.

Forward path per frame (window x channels, treated as a one-channel
image): valid convolution with tanh, a second convolution whose output
channels split into capsule vectors, squashing, then dynamic routing by
agreement onto a small set of advanced capsules.  A sequence of frames
feeds an LSTM whose final hidden state drives a small fully connected
regression stack ending in one linear output.  Both convolutions span
the full frame width, so each row of basic capsules depends on one short
run of frame rows; those runs are scored once per distinct content.

Routing coefficients are recomputed from zero logits on every forward
pass and are treated as constants by the backward pass: gradients flow
from the final weighted sum into the basic capsules and the routing
transforms, not through the softmax that produced the coupling.  Routing
never builds the (N, I, J, A) votes W u: :func:`routing_coefficients`
runs every round as GEMMs on logits relative to the last advanced
capsule, and the backward's weight gradient takes that capsule's terms
from the coupling summing to 1 too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import tensor as T
from .tensor import Tensor, _accumulate_new, _check_finite, accumulate_grad, make_op, row_product

__all__ = [
    "ModelConfig",
    "parameter_shapes",
    "init_parameters",
    "parameter_count",
    "squash",
    "capsule_row_patches",
    "routing_coefficients",
    "conv_features",
    "build_basic_capsules",
    "dynamic_routing",
    "lstm_forward",
    "regression_head",
    "mse_loss",
    "model_forward",
    "predict",
]

SQUASH_EPS = 1e-12


def _is_int(x) -> bool:
    """An integer numpy can size and index with: one that fits int64."""
    return (isinstance(x, (int, np.integer)) and not isinstance(x, (bool, np.bool_))
            and -2**63 <= x < 2**63)


def _pair(v, name: str) -> tuple[int, int]:
    if not (isinstance(v, (tuple, list)) and len(v) == 2 and all(map(_is_int, v))):
        raise ValueError(f"{name} must be a pair of ints, got {v!r}")
    return int(v[0]), int(v[1])


_INT_FIELDS = ("window_length", "in_channels", "conv_filters", "caps_dim", "caps_channels",
               "num_advanced", "advanced_dim", "routing_iterations", "lstm_units",
               "sequence_length")


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
        wrong = [f"{name} must be an integer, got {getattr(self, name)!r}"
                 for name in _INT_FIELDS if not _is_int(getattr(self, name))
                 and not (name == "caps_channels" and self.caps_channels is None)]
        if not all(map(_is_int, self.fnn_widths)):
            wrong.append(f"fnn_widths must be integers, got {self.fnn_widths!r}")
        if not isinstance(self.use_lstm, (bool, np.bool_)):
            wrong.append(f"use_lstm must be a boolean, got {self.use_lstm!r}")
        if wrong:
            raise ValueError("invalid model config: " + "; ".join(wrong))
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
    def num_basic_capsules(self) -> int:
        h, w = self.caps_out_hw
        return h * w * self.caps_channels

    @property
    def advanced_flat_size(self) -> int:
        return self.num_advanced * self.advanced_dim

    @property
    def head_input_size(self) -> int:
        return self.lstm_units if self.use_lstm else self.advanced_flat_size


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in initialization order; computed
    without allocating, so a checkpoint can be checked against a config
    of any size."""
    kh, kw = config.conv_kernel
    m = config.conv_filters
    ckh, ckw = config.caps_kernel
    cm = config.caps_channels * config.caps_dim
    shapes = {
        "conv.kernel": (kh, kw, 1, m),
        "conv.bias": (m,),
        "caps.kernel": (ckh, ckw, m, cm),
        "caps.bias": (cm,),
        "route.transform": (config.num_basic_capsules, config.num_advanced,
                            config.advanced_dim, config.caps_dim),
    }
    if config.use_lstm:
        f, u = config.advanced_flat_size, config.lstm_units
        for gate in "ifgo":
            shapes.update({f"lstm.w_x{gate}": (f, u), f"lstm.w_h{gate}": (u, u),
                           f"lstm.b_{gate}": (u,)})
    prev = config.head_input_size
    for li, width in enumerate(config.fnn_widths):
        shapes.update({f"fnn.{li}.weight": (prev, width), f"fnn.{li}.bias": (width,)})
        prev = width
    return shapes


def init_parameters(config: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Seeded initialization; draw order is the order of
    :func:`parameter_shapes`.

    Convolution and fully connected weights use the symmetric uniform
    fan-based scheme (a kernel's leading axes multiply both fans),
    routing transforms are normal with sigma 0.05, biases start at zero,
    and the LSTM forget-gate bias starts at 1 so memory is initially
    kept.
    """
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        if name == "route.transform":
            arr = rng.normal(0.0, 0.05, size=shape)
        elif len(shape) == 1:
            arr = np.ones(shape) if name == "lstm.b_f" else np.zeros(shape)
        else:
            field = int(np.prod(shape[:-2]))
            limit = np.sqrt(6.0 / (field * shape[-2] + field * shape[-1]))
            arr = rng.uniform(-limit, limit, size=shape)
        params[name] = Tensor(arr, requires_grad=True)
    return params


def parameter_count(params: Mapping[str, Tensor]) -> int:
    return int(sum(t.data.size for t in params.values()))


def squash(s: Tensor) -> Tensor:
    """Nonlinear length normalization of capsule vectors (last axis).

    v = (|s|^2 / (1 + |s|^2)) * s / |s|; short vectors shrink toward
    zero, long vectors approach unit length, direction is preserved.
    The eps = :data:`SQUASH_EPS` guard keeps the zero vector mapped
    exactly to zero.  One tape node: the forward is :func:`_squash_np`,
    the routing squash, and the backward :func:`_squash_grad`.
    """
    x = s.data

    def bw(g):
        if s.requires_grad:
            _accumulate_new(s, _squash_grad(x, g))

    return make_op(_squash_np(x), (s,), bw)


def _squash_np(s: np.ndarray) -> np.ndarray:
    n2 = (s * s).sum(axis=-1, keepdims=True)
    return s * (n2 / ((1.0 + n2) * np.sqrt(n2 + SQUASH_EPS)))


def _squash_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The squash's input gradient in closed form: with v = f(n2) s,
    n2 = |s|^2 and r = sqrt(n2 + eps), it is g f + s 2 f'(n2) (g . s),
    where f' = (n2 + 2 eps - n2^2) / (2 r^3 (1 + n2)^2)."""
    n2 = (s * s).sum(axis=-1, keepdims=True)
    r = np.sqrt(n2 + SQUASH_EPS)
    q = 1.0 + n2
    df2 = (n2 + 2.0 * SQUASH_EPS - n2 * n2) / (r * r * r * q * q)
    gs = g * (n2 / (q * r))
    gs += s * (df2 * (g * s).sum(axis=-1, keepdims=True))
    return gs


def _coupling_np(d: np.ndarray) -> np.ndarray:
    """Softmax (J, N, I) of logits with last row 0, from the others d:
    c_J-1 = 1 / (1 + sum_j e_j), c_j = e_j c_J-1, e = exp(min(d, 700)); the
    clamp keeps exp and its sum (J < 17,000) finite, c_j within 1e-304 of 1."""
    c = np.empty((d.shape[0] + 1, *d.shape[1:]))
    e = np.exp(np.minimum(d, 700.0, out=c[:-1]), out=c[:-1])
    np.divide(1.0, 1.0 + e.sum(axis=0), out=c[-1])
    e *= c[-1]
    return c


def capsule_transform(u: Tensor, w: Tensor, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Routing's two operands: each item's capsules uf (N, I, D) and the
    transforms w (I, J, A, D) laid out as wj (J, I*D, A).

    ``u`` holds patch rows (P, I/H, D) and ``index`` is an (N, H) int
    array: capsule h * I/H + c of item n is row ``index[n, h]``, capsule
    c, of ``u``.  Item n's vote sum for advanced capsule j under a
    coupling x_j (N, I*D) of its capsules is the GEMM x_j @ wj[j], so no
    (N, I, J, A) vote tensor is ever built.  wj is a view of one
    contiguous (I*D, J*A) matrix, so uf times every transform is one GEMM.
    """
    if u.ndim != 3 or w.ndim != 4:
        raise ValueError(f"bad ranks for capsule transform: {u.shape}, {w.shape}")
    index = np.asarray(index)
    if index.ndim != 2:
        raise ValueError(f"capsule transform index must be rank 2, got {index.shape}")
    uf = np.take(u.data, index, axis=0).reshape(index.shape[0], -1, u.shape[2])
    n, i, d = uf.shape
    if i != w.shape[0] or d != w.shape[3]:
        raise ValueError(f"capsule transform mismatch: u {u.shape} vs w {w.shape}")
    wt = np.ascontiguousarray(w.data.transpose(0, 3, 1, 2)).reshape(i * d, *w.shape[1:3])
    return uf, wt.transpose(1, 0, 2)


def routing_coefficients(uf: np.ndarray, wj: np.ndarray, iterations: int,
                         coupling: np.ndarray | None = None):
    """Routing by agreement on :func:`capsule_transform`'s operands.

    The coupling is the softmax of the logits over the advanced
    capsules, which ignores a shift shared by all of them, so the logits
    are kept relative to the last capsule: b_j - b_J-1, whose last row
    is 0 (the coupling is :func:`_coupling_np` of the others).  They
    start at zero.  A round forms x_j = c_j * uf only for the J - 1 free
    capsules; one GEMM of x_j on [wj[j] | wj[J-1]] gives s_j and
    x_j @ wj[J-1], and since the coupling sums to 1 the last capsule's
    sum is s_J-1 = uf @ wj[J-1] - sum_j x_j @ wj[J-1].  uf @ wj is one
    GEMM on the (I*D, J*A) layout; divided by J it is the sums of the
    uniform first round.  At one iteration only uf @ wj[J-1] is formed,
    given coupling or not, so a held coupling repeats the free sums' bits.
    Every round but the last squashes its sums to v and adds each free
    capsule's agreement relative to the last,
    <W_ij uf_i, v_j> - <W_i,J-1 uf_i, v_J-1>, to its logit: one GEMM
    [v_j, -v_J-1] @ [wj[j] | wj[J-1]]^T into x_j's buffer, contracted with
    uf over D.  The last round is the one :func:`dynamic_routing`
    records; a given ``coupling`` (J, N, I) is recorded with no
    agreement round.  Returns the coupling and the logits (J, N, I), the
    logits None for a given coupling, the free capsules' x_j
    (J - 1, N, I, D) and the recorded sums s (J, N, A).
    """
    if iterations < 1:
        raise ValueError("routing needs at least one iteration")
    n, i, d = uf.shape
    j, _, a = wj.shape
    x = np.empty((j - 1, n, i, d))
    xf = x.reshape(j - 1, n, i * d)
    uw = uf.reshape(n, i * d) @ (wj.transpose(1, 0, 2).reshape(i * d, j * a)
                                 if iterations > 1 else wj[-1])
    pair = np.concatenate((wj[:-1], np.broadcast_to(wj[-1:], wj[:-1].shape)), axis=2)

    def sums(c):
        np.einsum("jni,nid->jnid", c[:-1], uf, out=x)
        sp = np.matmul(xf, pair)
        return np.concatenate((sp[..., :a], (uw[:, -a:] - sp[..., a:].sum(axis=0))[None]))

    b = np.zeros((j, n, i)) if coupling is None else None
    vv = np.empty((j - 1, n, 2 * a))
    for r in range(iterations - 1 if b is not None else 0):
        s = sums(_coupling_np(b[:-1])) if r else uw.reshape(n, j, a).transpose(1, 0, 2) * (1.0 / j)
        v = _squash_np(s)
        _check_finite(v, "routed capsules")
        vv[..., :a] = v[:-1]
        np.negative(v[-1], out=vv[..., a:])
        np.matmul(vv, pair.transpose(0, 2, 1), out=xf)
        b[:-1] += np.einsum("jnid,nid->jni", x, uf)
    c = coupling if b is None else _coupling_np(b[:-1])
    return c, b, x, sums(c)


def capsule_row_patches(frames: np.ndarray, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Distinct capsule-row patches of (F, window, channels) frames, and
    the (F, H_c) index of each frame's patches into them.

    Every kernel spans the full frame width, so capsule row r depends
    only on frame rows r*s .. r*s + k - 1, with s = sh1 * sh2 and
    k = kh1 + (kh2 - 1) * sh1 for the conv and capsule kernel heights kh
    and strides sh; that run of rows is patch r.  Patches are told apart
    by content, bit for bit (0.0 and -0.0 differ), so rows that frames
    share (sliding windows) are scored once.  One int64 key per patch
    (:func:`_row_keys`) finds the distinct ones; if a check of each
    patch's bits against its representative's finds two distinct
    patches sharing a key, their raw bytes are compared instead.  Returns
    exactly the distinct patches, (P, k, channels).
    """
    x = np.asarray(frames, dtype=np.float64)
    f, _, channels = x.shape
    kh1, sh1 = config.conv_kernel[0], config.conv_stride[0]
    kh2, sh2 = config.caps_kernel[0], config.caps_stride[0]
    k, s, hc = kh1 + (kh2 - 1) * sh1, sh1 * sh2, config.caps_out_hw[0]
    runs = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)[:, : s * hc : s]
    rows = np.ascontiguousarray(runs.transpose(0, 1, 3, 2)).reshape(f * hc, k * channels)
    bits = rows.view(np.int64)
    first, inverse = _distinct(_row_keys(bits))
    if not np.array_equal(bits[first[inverse]], bits):
        first, inverse = _distinct(rows.view(np.dtype((np.void, 8 * k * channels))).ravel())
    return rows[first].reshape(-1, k, channels), inverse.reshape(f, hc)


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(keys, return_index=True, return_inverse=True)[1:] from an unstable argsort."""
    order = np.argsort(keys)
    new = np.ones(len(keys), bool)
    new[1:] = keys[order[1:]] != keys[order[:-1]]
    inverse = np.empty(len(keys), np.intp)
    inverse[order] = np.cumsum(new) - 1
    return np.minimum.reduceat(order, np.flatnonzero(new)), inverse


def _row_keys(bits: np.ndarray) -> np.ndarray:
    """One int64 key per row of an int64 bit view: each column times a
    fixed odd multiplier, summed with wrap-around."""
    step = np.arange(1, bits.shape[1] + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return bits @ (step | np.uint64(1)).view(np.int64)


def conv_features(frames: Tensor, params: Mapping[str, Tensor], config: ModelConfig) -> Tensor:
    """First stage: valid convolution over (N, rows, channels, 1) + tanh;
    the rows are a whole frame or one capsule-row patch."""
    return T.conv2d_tanh(frames, params["conv.kernel"], params["conv.bias"],
                         config.conv_stride)


def build_basic_capsules(maps: Tensor, params: Mapping[str, Tensor], config: ModelConfig) -> Tensor:
    """Second convolution, regrouped into squashed capsule vectors.

    The output channel axis holds caps_channels blocks of caps_dim; each
    spatial position of each block is one basic capsule, flattened to
    (N, capsules, caps_dim) with the capsule dimension kept intact: all
    num_basic_capsules of a frame, or the one capsule row of a patch.
    """
    z = T.conv2d(maps, params["caps.kernel"], params["caps.bias"], config.caps_stride)
    caps = T.reshape(z, (z.shape[0], -1, config.caps_dim))
    return squash(caps)


def dynamic_routing(
    u: Tensor,
    params: Mapping[str, Tensor],
    config: ModelConfig,
    coupling_override: np.ndarray | None = None,
    index: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Route basic capsules to advanced capsules: one tape node from the
    capsules ``u`` and ``route.transform`` W to the squashed v (N, J, A).

    With ``index`` (N, H_c), ``u`` holds patch rows and item n reads its
    capsules from them as :func:`capsule_transform` describes; without
    it, item n is row n.  :func:`routing_coefficients` finds the
    coupling c, a constant to the backward (no gradient flows into the
    routing softmax); ``coupling_override`` (N, I, J) substitutes a fixed
    one, used to hold the routing still while probing the loss surface.
    It must be finite and non-negative with rows summing to 1 within
    1e-12, as the last capsule's terms come from that sum.  The node
    records the last round's sums s and keeps x_j = c_j * uf of the
    J - 1 free capsules; the backward only reads them.  It is the
    squash's closed form, then dW_j = x_j^T ds_j and, in the same GEMMs
    of x_j on [ds_j | ds_J-1], dW_J-1 = uf^T ds_J-1 - sum_j x_j^T ds_J-1,
    and du = sum_j c_j * (ds_j W_j^T), summed into the patch rows by
    ``tensor.add_rows``.  Returns v and the coupling (N, I, J).
    """
    if index is None:
        index = np.arange(u.shape[0])[:, None]
    w = params["route.transform"]
    uf, wj = capsule_transform(u, w, index)
    n, i, d = uf.shape
    j, _, a = wj.shape
    c = coupling_override
    if c is not None:
        c = np.asarray(c, dtype=np.float64).transpose(2, 0, 1)
        if c.shape != (j, n, i):
            raise ValueError(f"coupling override shape {coupling_override.shape} "
                             f"does not match ({n}, {i}, {j})")
        if not ((c >= 0.0).all() and (abs(c.sum(axis=0) - 1.0) <= 1e-12).all()):
            raise ValueError("coupling override must be finite and non-negative "
                             "with rows summing to 1 within 1e-12")
    c, _, x, s = routing_coefficients(uf, wj, config.routing_iterations, c)
    xf = x.reshape(j - 1, n, i * d)

    def bw(g):
        ds = _squash_grad(s, np.asarray(g).transpose(1, 0, 2))
        if w.requires_grad:
            pair = np.concatenate((ds[:-1], np.broadcast_to(ds[-1:], ds[:-1].shape)), axis=2)
            gp = row_product(xf, pair)
            gw = np.concatenate((gp[..., :a], (row_product(uf.reshape(n, i * d), ds[-1])
                                               - gp[..., a:].sum(axis=0))[None]))
            accumulate_grad(w, gw.reshape(j, i, d, a).transpose(1, 0, 3, 2))
        if u.requires_grad:
            gx = np.matmul(ds, wj.transpose(0, 2, 1)).reshape(j, n, i, d)
            gu = np.einsum("jni,jnid->nid", c, gx)
            _accumulate_new(u, T.add_rows(gu.reshape(index.shape + u.shape[1:]),
                                          index, u.shape[0]))

    v = np.ascontiguousarray(_squash_np(s).transpose(1, 0, 2))
    return make_op(v, (u, w), bw), c.transpose(1, 2, 0)


def lstm_forward(v_seq: Tensor, params: Mapping[str, Tensor], config: ModelConfig) -> Tensor:
    """Many-to-one LSTM over (B, S, F); returns the final hidden state (B, U).

    One tape node.  Per step, z = x_t Wx + h Wh + b with the per-gate
    parameters concatenated in i, f, g, o order; the i, f and o gates
    1 / (1 + exp(-z)) are computed in place in the saved gates, g is
    tanh(z), c = f c + i g and h = o tanh(c).  The backward pass is
    closed-form BPTT (Greff et al., "LSTM: A Search Space Odyssey",
    appendix) over the saved gates and cell states, with each weight
    gradient one :func:`~slowcaps.tensor.row_product` over all S*B rows.
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
    hs = np.zeros((steps + 1, batch, u))      # h_0 .. h_S
    gates = np.empty((steps, batch, 4 * u))
    cs = np.zeros((steps + 1, batch, u))      # c_0 .. c_S
    tcs = np.empty((steps, batch, u))         # tanh(c_1) .. tanh(c_S)
    with np.errstate(over="ignore"):  # exp(-z) = inf gives the gate's exact 0
        for t in range(steps):
            z = x[t] @ wx + hs[t] @ wh + b
            a = gates[t]
            np.exp(np.negative(z, out=a), out=a)
            a += 1.0
            np.reciprocal(a, out=a)
            np.tanh(z[:, 2 * u : 3 * u], out=a[:, 2 * u : 3 * u])
            i, f, g, o = np.split(a, 4, axis=1)
            cs[t + 1] = f * cs[t] + i * g
            np.tanh(cs[t + 1], out=tcs[t])
            hs[t + 1] = o * tcs[t]

    def bw(grad):
        dz = np.empty((steps, batch, 4 * u))
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
        # the weight gradients reduce over the S*B rows of x and h_0 .. h_S-1
        rows = dz.reshape(-1, 4 * u)
        sums = (row_product(x.reshape(-1, width), rows),
                row_product(hs[:-1].reshape(-1, u), rows), rows.sum(axis=0))
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
    dropout: keep with probability 1 - p, drawn from ``rng`` one layer
    at a time, and rescale by 1 / (1 - p); the final layer is affine
    with no activation.  One tape node from ``h`` and the ``fnn.*``
    parameters.  Each product runs in blocks of
    :data:`~slowcaps.tensor.ROW_BLOCK` rows, and its backward is the
    closed form: the dropout mask and the relu gate, the bias gradient
    as the column sum, the weight gradient x^T g as one
    :func:`~slowcaps.tensor.row_product`, and the input gradient g W^T.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    drop = config.dropout if mode == "train" else 0.0
    if drop > 0.0 and rng is None:
        raise ValueError("training mode with dropout needs an rng")
    layers = range(len(config.fnn_widths))
    ws = [params[f"fnn.{li}.weight"] for li in layers]
    bs = [params[f"fnn.{li}.bias"] for li in layers]
    if h.ndim != 2 or h.shape[1] != ws[0].shape[0]:
        raise ValueError(f"head input must be (rows, {ws[0].shape[0]}), got shape {h.shape}")
    rows = h.shape[0]
    # each layer's input, and the dropout mask of each hidden layer
    xs, masks = [h.data], []
    for li in layers:
        z = np.empty((rows, ws[li].shape[1]))
        for lo in range(0, rows, T.ROW_BLOCK):
            np.matmul(xs[li][lo : lo + T.ROW_BLOCK], ws[li].data, out=z[lo : lo + T.ROW_BLOCK])
        z += bs[li].data
        _check_finite(z, f"regression head layer {li}")
        if li < layers[-1]:
            np.maximum(z, 0.0, out=z)
            if drop > 0.0:
                masks.append((rng.random(z.shape) >= drop) / (1.0 - drop))
                z = z * masks[-1]
            xs.append(z)

    def bw(grad):
        g = np.asarray(grad).reshape(rows, 1)
        for li in reversed(layers):
            w, b, x = ws[li], bs[li], xs[li]
            if b.requires_grad:
                accumulate_grad(b, g.sum(axis=0))
            if w.requires_grad:
                accumulate_grad(w, row_product(x, g))
            if li == 0:
                break
            g = g @ w.data.T
            if masks:
                g = g * masks[li - 1]
            # relu gate: the layer's input is positive exactly where the
            # relu's input was and dropout kept it
            g = g * (x > 0.0)
        if h.requires_grad:
            accumulate_grad(h, g @ ws[0].data.T)

    return make_op(z.reshape(rows), (h, *ws, *bs), bw)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error of ``pred`` against a ``target`` array of the
    same shape, one tape node from ``pred``.  The backward (g / n) d,
    doubled in place, has the bits of the chain rule through d, d · d
    and the mean."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ValueError(f"mse_loss: target shape {target.shape} is not the prediction's "
                         f"{pred.shape}")
    d = pred.data - target

    def bw(g):
        gd = (g / d.size) * d
        gd += gd
        _accumulate_new(pred, gd)

    return make_op(np.mean(d * d), (pred,), bw)


def model_forward(
    frames,
    params: Mapping[str, Tensor],
    config: ModelConfig,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    coupling_override: np.ndarray | None = None,
    *,
    index: np.ndarray,
) -> tuple[Tensor, np.ndarray]:
    """Full forward pass on the batch of sequences ``index`` names.

    ``frames`` is (F, window, channels) and ``index`` a (B, S) int array:
    sequence b is frames ``index[b]``.  Only the distinct frames the
    index names are read, each once: conv, capsule conv and squash run
    once per distinct :func:`capsule_row_patches` patch of them, votes
    and routing once per frame, and one ``take_rows`` gather yields the
    (B, S, features) LSTM input (column 0 of the index when the LSTM
    head is disabled).  Frames are constants: no gradient flows to them.
    Returns the per-sample scalar outputs (B,) and the routing coupling
    (frames, I, J) of the distinct frames, in ascending frame order;
    ``coupling_override`` takes the same shape.
    """
    if isinstance(frames, Tensor):
        if frames.requires_grad:
            raise ValueError("model_forward takes frames as constants, not tracked tensors")
        frames = frames.data
    x, index = np.asarray(frames), np.asarray(index)
    if index.ndim != 2 or x.ndim != 3:
        raise ValueError(f"frames must be rank 3 with a rank-2 index, "
                         f"got shapes {x.shape} and {index.shape}")
    _, window, channels = x.shape
    if window != config.window_length or channels != config.in_channels:
        raise ValueError(
            f"frame geometry {window}x{channels} does not match config "
            f"{config.window_length}x{config.in_channels}"
        )
    if not config.use_lstm and index.shape[1] != 1:
        raise ValueError("sequence length must be 1 when the LSTM head is disabled")
    used, local = np.unique(index, return_inverse=True)
    if used.size and (used[0] < 0 or used[-1] >= len(x)):
        raise ValueError(f"index names frames outside 0 .. {len(x) - 1}")
    local = local.reshape(index.shape)
    patches, patch_index = capsule_row_patches(x[used], config)
    maps = conv_features(Tensor(patches[..., None]), params, config)
    u = build_basic_capsules(maps, params, config)
    v, coupling = dynamic_routing(u, params, config, coupling_override, patch_index)
    head_in = T.take_rows(T.reshape(v, (used.size, config.advanced_flat_size)),
                          local if config.use_lstm else local[:, 0])
    if config.use_lstm:
        head_in = lstm_forward(head_in, params, config)
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

    ``frames`` is (F, window, channels) and sequence b is frames
    ``index[b]``; without ``index`` it is materialized sequences,
    (B, S, window, channels) or a single (S, window, channels), each
    frame its own.  A block is a run of at most ``chunk`` consecutive
    sequences, so it names at most ``chunk`` x S frames, and
    :func:`model_forward` scores each of them once: ``chunk`` is the one
    bound on a forward's memory.  Returns (B,) outputs times
    ``label_scale``.
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
    out = np.empty(index.shape[0])
    with T.no_grad():
        for lo in range(0, len(index), chunk):
            y, _ = model_forward(x, params, config, mode="eval", index=index[lo : lo + chunk])
            out[lo : lo + chunk] = y.data * float(label_scale)
    return out

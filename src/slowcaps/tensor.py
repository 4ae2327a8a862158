"""Dense float64 tensors with reverse-mode automatic differentiation.

A small tape-based engine sized for a capsule/LSTM regression graph on a
single CPU core: numpy storage, the operation graph recorded during each
forward pass, gradients obtained by replaying the graph in reverse
topological order.  Everything is double precision so analytic gradients
can be validated against central finite differences.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "make_op",
    "accumulate_grad",
    "backward",
    "zero_grads",
    "add",
    "sub",
    "mul",
    "matmul",
    "conv2d",
    "conv2d_tanh",
    "relu",
    "reduce_sum",
    "reduce_mean",
    "reshape",
    "take_rows",
    "dropout",
]

_grad_state = threading.local()


def _grad_on() -> bool:
    return getattr(_grad_state, "enabled", True)


class no_grad:
    """Context manager that disables graph recording (inference, oracles).

    The flag is thread-local so inference on worker threads never turns
    recording off for a training loop running elsewhere.
    """

    def __enter__(self):
        self._prev = _grad_on()
        _grad_state.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_state.enabled = self._prev
        return False


def _check_finite(arr: np.ndarray, what: str) -> None:
    # a finite sum proves every element finite; only an overflowing or
    # non-finite sum pays for the elementwise scan
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(arr.sum()):
            return
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {what}")


class Tensor:
    """Row-major float64 array, optionally tracked for gradients.

    Leaves created with ``requires_grad=True`` (the trainable parameters)
    carry an eagerly allocated gradient slot, so a parameter that never
    appears in a recorded graph reads back an all-zero gradient.
    Intermediate results allocate their slot lazily during ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor data")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = np.zeros_like(arr) if requires_grad else None
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def make_op(data, parents: Sequence[Tensor], backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Build an operation result node.

    ``backward_fn`` receives the output gradient and is responsible for
    accumulating into each parent via :func:`accumulate_grad`.  When
    recording is disabled, or no parent is tracked, a plain constant is
    returned and the closure is dropped.
    """
    arr = np.asarray(data, dtype=np.float64)
    _check_finite(arr, "operation result")
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    if _grad_on() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into the gradient slot of ``t`` (allocating on first use)."""
    if t.grad is None:
        # copy: g may be a view of another node's gradient buffer
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _accumulate_new(t: Tensor, g: np.ndarray) -> None:
    """:func:`accumulate_grad` for a ``g`` the caller just allocated and
    keeps no reference to: an empty slot takes it without a copy."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Populate gradients of every tracked tensor reachable from ``loss``.

    Gradients accumulate: each use of a tensor contributes exactly once,
    and repeated calls sum their contributions (call :func:`zero_grads`
    between optimization steps).
    """
    if loss.ndim != 0:
        raise ValueError("loss must be a scalar tensor")
    if not loss.requires_grad:
        return
    # iterative post-order walk so deep chains cannot hit the
    # recursion limit
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    accumulate_grad(loss, np.ones((), dtype=np.float64))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        if t.grad is not None:
            t.grad[...] = 0.0


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a: np.ndarray, b: np.ndarray, opname: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{opname}: shape mismatch {a.shape} vs {b.shape}") from None


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.data, b.data, "add")
    out_data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            accumulate_grad(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            accumulate_grad(b, _unbroadcast(g, b.data.shape))

    return make_op(out_data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.data, b.data, "sub")
    out_data = a.data - b.data

    def bw(g):
        if a.requires_grad:
            accumulate_grad(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            accumulate_grad(b, _unbroadcast(-g, b.data.shape))

    return make_op(out_data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.data, b.data, "mul")
    out_data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            accumulate_grad(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            accumulate_grad(b, _unbroadcast(g * a.data, b.data.shape))

    return make_op(out_data, (a, b), bw)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            accumulate_grad(a, g @ b.data.T)
        if b.requires_grad:
            accumulate_grad(b, a.data.T @ g)

    return make_op(out_data, (a, b), bw)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def bw(g):
        if a.requires_grad:
            accumulate_grad(a, g * (a.data > 0.0))

    return make_op(out_data, (a,), bw)


def _expand_reduced(g: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    if axis is None or keepdims:
        return g
    return np.expand_dims(g, axis)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if a.requires_grad:
            gg = _expand_reduced(np.asarray(g), axis, keepdims)
            accumulate_grad(a, np.broadcast_to(gg, a.data.shape))

    return make_op(out_data, (a,), bw)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    denom = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def bw(g):
        if a.requires_grad:
            gg = _expand_reduced(np.asarray(g), axis, keepdims)
            accumulate_grad(a, np.broadcast_to(gg, a.data.shape) / denom)

    return make_op(out_data, (a,), bw)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            accumulate_grad(a, np.asarray(g).reshape(a.data.shape))

    return make_op(out_data, (a,), bw)


def take_rows(a, index) -> Tensor:
    """Gather rows of ``a`` by an integer array: the result has shape
    ``index.shape + a.shape[1:]``.  Rows may repeat or go unused; the
    gradient of each row is the sum over the places it was taken."""
    a = _as_tensor(a)
    idx = np.asarray(index)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"take_rows needs an integer index, got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ValueError(f"take_rows index out of range for {a.shape[0]} rows")

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            _accumulate_new(a, full)

    return make_op(a.data[idx], (a,), bw)


def dropout(a, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: keep with probability 1-p and rescale by 1/(1-p)."""
    a = _as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    keep = 1.0 - p
    mask = (rng.random(a.data.shape) >= p) / keep

    def bw(g):
        if a.requires_grad:
            accumulate_grad(a, g * mask)

    return make_op(a.data * mask, (a,), bw)


def conv2d(a, kernels, bias, stride=(1, 1)) -> Tensor:
    """Valid 2-D correlation.

    ``a`` has shape (H, W, C) or (N, H, W, C); ``kernels`` has shape
    (kh, kw, C, M); ``bias`` has shape (M,).  Output spatial extents are
    floor((H-kh)/sh)+1 by floor((W-kw)/sw)+1.  No padding is applied.
    """
    return _conv(a, kernels, bias, stride, activate=False)


def conv2d_tanh(a, kernels, bias, stride=(1, 1)) -> Tensor:
    """``tanh(conv2d(a, kernels, bias, stride))`` as one tape node.

    The activation is applied in place on the convolution output, and
    the backward pass forms (1 - y^2) * g from the saved output, so no
    pre-activation map is kept.
    """
    return _conv(a, kernels, bias, stride, activate=True)


def _conv(a, kernels, bias, stride, activate: bool) -> Tensor:
    a, k, b = _as_tensor(a), _as_tensor(kernels), _as_tensor(bias)
    sh, sw = int(stride[0]), int(stride[1])
    if sh < 1 or sw < 1:
        raise ValueError(f"stride entries must be >= 1, got {stride}")
    squeeze = a.ndim == 3
    if a.ndim not in (3, 4):
        raise ValueError(f"conv2d input must be rank 3 or 4, got shape {a.shape}")
    if k.ndim != 4:
        raise ValueError(f"conv2d kernels must be rank 4, got shape {k.shape}")
    x4 = a.data[None] if squeeze else a.data
    n, h, w, cin = x4.shape
    kh, kw, kc, m = k.data.shape
    if kc != cin:
        raise ValueError(f"conv2d channel mismatch: input has {cin}, kernels expect {kc}")
    if kh > h or kw > w:
        raise ValueError(f"kernel ({kh},{kw}) larger than input ({h},{w})")
    if b.data.shape != (m,):
        raise ValueError(f"bias must have shape ({m},), got {b.data.shape}")
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    # im2col in kernel order (N, Ho, Wo, kh, kw, C): the kernel bank
    # reshapes to (kh*kw*C, M) without a copy, and one-row windows that
    # tile the input (kernel == stride, or a full-width kernel) make the
    # patch matrix a view of the input itself
    patches = np.lib.stride_tricks.sliding_window_view(x4, (kh, kw), axis=(1, 2))
    patches = patches[:, ::sh, ::sw].transpose(0, 1, 2, 4, 5, 3)
    pm = patches.reshape(n * ho * wo, kh * kw * cin)
    km = k.data.reshape(kh * kw * cin, m)
    out = pm @ km
    out += b.data
    if activate:
        np.tanh(out, out=out)
    out4 = out.reshape(n, ho, wo, m)
    tiles = ((kh, kw) == (sh if ho > 1 else kh, sw if wo > 1 else kw)
             and (ho * kh, wo * kw) == (h, w))

    def bw(g):
        gm = np.asarray(g).reshape(n * ho * wo, m)
        if activate:
            gz = np.multiply(out, out)
            np.subtract(1.0, gz, out=gz)
            gz *= gm
            gm = gz
        if b.requires_grad:
            accumulate_grad(b, gm.sum(axis=0))
        if k.requires_grad:
            accumulate_grad(k, (pm.T @ gm).reshape(kh, kw, cin, m))
        if a.requires_grad:
            g6 = (gm @ km.T).reshape(n, ho, wo, kh, kw, cin)
            if tiles:
                # col2im of disjoint windows that cover the input
                gx = g6.transpose(0, 1, 3, 2, 4, 5).reshape(x4.shape)
            else:
                # col2im: each kernel offset adds onto a strided slab
                gx = np.zeros_like(x4)
                for p in range(kh):
                    for q in range(kw):
                        gx[:, p : p + sh * (ho - 1) + 1 : sh,
                              q : q + sw * (wo - 1) + 1 : sw] += g6[:, :, :, p, q]
            _accumulate_new(a, gx[0] if squeeze else gx)

    return make_op(out4[0] if squeeze else out4, (a, k, b), bw)

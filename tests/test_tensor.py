"""Autodiff engine: forward values, gradients vs finite differences."""

import threading
import warnings

import numpy as np
import pytest
from conftest import numeric_grad, rel_max

from slowcaps import tensor as T
from slowcaps.tensor import Tensor, backward, no_grad, zero_grads

import oracles


def test_leaf_has_eager_zero_grad():
    p = Tensor([1.0, 2.0], requires_grad=True)
    assert p.grad is not None
    np.testing.assert_array_equal(p.grad, np.zeros(2))
    c = Tensor([1.0, 2.0])
    assert c.grad is None and not c.requires_grad


def test_non_finite_input_rejected():
    with pytest.raises(FloatingPointError):
        Tensor([1.0, np.inf])
    with pytest.raises(FloatingPointError):
        Tensor(np.nan)


def test_elementwise_backward_matches_fd(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)

    def forward():
        z = T.mul(a, b)
        z = T.sub(z, T.mul(a, a))
        z = T.add(z, T.relu(b))
        return T.reduce_sum(T.mul(z, z))

    loss = forward()
    backward(loss)
    num = numeric_grad(lambda: float(forward().data), {"a": a.data, "b": b.data})
    assert rel_max(a.grad, num["a"]) < 1e-7
    assert rel_max(b.grad, num["b"]) < 1e-7


def test_broadcast_bias_backward(rng):
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=(3,)), requires_grad=True)

    def forward():
        s = T.add(x, bias)
        return T.reduce_sum(T.mul(s, s))

    backward(forward())
    num = numeric_grad(lambda: float(forward().data),
                       {"x": x.data, "b": bias.data})
    assert bias.grad.shape == (3,)
    assert rel_max(x.grad, num["x"]) < 1e-7
    assert rel_max(bias.grad, num["b"]) < 1e-7


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        T.add(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))))
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))))
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_matmul_backward_matches_fd(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)

    def forward():
        return T.reduce_mean(T.relu(T.matmul(a, b)))

    backward(forward())
    num = numeric_grad(lambda: float(forward().data), {"a": a.data, "b": b.data})
    assert rel_max(a.grad, num["a"]) < 1e-6
    assert rel_max(b.grad, num["b"]) < 1e-6


def test_reduce_ops_axis_keepdims(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    assert T.reduce_sum(x, axis=1).shape == (2, 4)
    assert T.reduce_sum(x, axis=1, keepdims=True).shape == (2, 1, 4)
    assert T.reduce_mean(x).shape == ()

    def forward():
        return T.reduce_sum(T.mul(T.reduce_mean(x, axis=2), T.reduce_mean(x, axis=2)))

    backward(forward())
    num = numeric_grad(lambda: float(forward().data), {"x": x.data})
    assert rel_max(x.grad, num["x"]) < 1e-6


def test_reshape_backward(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

    def forward():
        r = T.reshape(x, (2, 12))
        return T.reduce_sum(T.mul(r, r))

    backward(forward())
    num = numeric_grad(lambda: float(forward().data), {"x": x.data})
    assert rel_max(x.grad, num["x"]) < 1e-6


def test_take_rows_forward_and_backward(rng):
    a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    idx = np.array([[4, 0], [4, 2], [0, 4]])  # rows 0 and 4 repeat, 1 and 3 unused
    w = rng.normal(size=(3, 2, 3))
    np.testing.assert_array_equal(T.take_rows(a, idx).data, a.data[idx])

    def forward():
        g = T.take_rows(a, idx)
        return T.reduce_sum(T.mul(T.mul(g, g), w))

    backward(forward())
    num = numeric_grad(lambda: float(forward().data), {"a": a.data})
    assert rel_max(a.grad, num["a"]) < 1e-6
    np.testing.assert_array_equal(a.grad[[1, 3]], 0.0)
    for bad in ([5], [-1]):
        with pytest.raises(ValueError, match="range"):
            T.take_rows(a, np.array(bad))
    with pytest.raises(ValueError, match="integer"):
        T.take_rows(a, np.array([0.0]))


def test_gradient_accumulates_per_use():
    x = Tensor(3.0, requires_grad=True)
    backward(T.add(x, x))
    np.testing.assert_allclose(x.grad, 2.0)
    # a second backward pass accumulates on top
    backward(T.mul(x, x))
    np.testing.assert_allclose(x.grad, 2.0 + 6.0)
    zero_grads([x])
    np.testing.assert_allclose(x.grad, 0.0)


def test_diamond_reuse_single_contribution(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)

    def forward():
        h = T.mul(x, x)
        return T.reduce_sum(T.add(T.mul(h, h), h))

    backward(forward())
    num = numeric_grad(lambda: float(forward().data), {"x": x.data})
    assert rel_max(x.grad, num["x"]) < 1e-7


def test_deep_chain_no_recursion_error():
    x = Tensor(0.001, requires_grad=True)
    y = x
    for _ in range(3000):
        y = T.add(y, x)
    backward(y)
    np.testing.assert_allclose(x.grad, 3001.0)


def test_off_path_parameter_reads_zero_grad():
    used = Tensor([1.0, 2.0], requires_grad=True)
    unused = Tensor([5.0], requires_grad=True)
    backward(T.reduce_sum(T.mul(used, used)))
    np.testing.assert_array_equal(unused.grad, np.zeros(1))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        backward(T.mul(x, x))


def test_no_grad_drops_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad
    assert y._parents == ()


def test_no_grad_is_thread_local():
    x = Tensor(np.ones(3), requires_grad=True)
    results = {}

    def worker():
        results["tracked"] = T.mul(x, x).requires_grad

    with no_grad():
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert results["tracked"] is True


def test_overflow_in_op_raises():
    x = Tensor(1e308, requires_grad=True)
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(FloatingPointError):
            T.mul(x, Tensor(1e308))


def test_finite_check_passes_an_overflowing_sum_silently():
    big = np.array([1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.mul(Tensor(big, requires_grad=True), Tensor(1.0))
    np.testing.assert_array_equal(out.data, big)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_check_finds_one_bad_value_anywhere(rng, bad):
    layouts = {
        "contiguous": lambda a: a,
        "transposed": lambda a: a.transpose(2, 0, 1),
        "strided": lambda a: a[:, ::2, 1:],
    }
    for layout in layouts.values():
        shape = layout(np.empty((4, 5, 6))).shape
        for flat in (0, int(np.prod(shape)) // 2, int(np.prod(shape)) - 1):
            arr = layout(rng.normal(size=(4, 5, 6)))
            arr[np.unravel_index(flat, shape)] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FloatingPointError):
                    T.make_op(arr, (), lambda g: None)
                with pytest.raises(FloatingPointError):
                    Tensor(arr)
    # a non-finite sum from opposite infinities, and an overflowing sum
    # that also hides a nan
    for arr in ([np.inf, -np.inf], [1e308, 1e308, np.nan]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                T.make_op(np.array(arr), (), lambda g: None)


def test_dropout_mask_and_scaling(rng):
    x = Tensor(np.ones((200, 10)), requires_grad=True)
    out = T.dropout(x, 0.4, np.random.default_rng(7))
    vals = np.unique(np.round(out.data, 12))
    np.testing.assert_allclose(vals, [0.0, 1.0 / 0.6], atol=1e-12)
    kept = float((out.data > 0).mean())
    assert 0.5 < kept < 0.7
    # identical seed gives the identical mask
    again = T.dropout(x, 0.4, np.random.default_rng(7))
    np.testing.assert_array_equal(out.data, again.data)
    # p = 0 is the identity
    assert T.dropout(x, 0.0, np.random.default_rng(7)) is x
    with pytest.raises(ValueError):
        T.dropout(x, 1.0, np.random.default_rng(7))


def test_dropout_backward_uses_same_mask(rng):
    x = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    out = T.dropout(x, 0.5, np.random.default_rng(3))
    mask = out.data / np.where(x.data != 0.0, x.data, 1.0)
    backward(T.reduce_sum(out))
    np.testing.assert_allclose(x.grad, mask, atol=1e-12)


# (input, kernel bank, stride) for both col2im branches of conv2d: in the
# first three the windows tile the input, so the input gradient is a
# reshape of the column gradient; the last two overlap or skip cells
CONV_GEOMETRIES = [
    ((2, 4, 5, 3), (1, 5, 3, 4), (1, 1)),   # full-width kernel (1, W)
    ((2, 5, 6, 2), (1, 2, 2, 3), (1, 2)),   # kernel == stride
    ((1, 4, 6, 2), (2, 2, 2, 3), (2, 2)),   # kernel == stride, kh > 1
    ((2, 4, 4, 3), (2, 2, 3, 2), (1, 1)),   # overlapping windows
    ((1, 7, 5, 2), (3, 2, 2, 2), (2, 2)),   # strided, kh > 1, last column unused
]


@pytest.mark.parametrize("shape,kshape,stride", [
    ((2, 5, 6, 2), (1, 2, 2, 3), (1, 2)),
    ((1, 6, 9, 1), (1, 3, 1, 4), (1, 3)),
    ((2, 4, 4, 3), (2, 2, 3, 2), (1, 1)),
    ((1, 7, 5, 2), (3, 2, 2, 2), (2, 2)),
    CONV_GEOMETRIES[0],
    CONV_GEOMETRIES[2],
])
def test_conv2d_forward_matches_loop_oracle(rng, shape, kshape, stride):
    x = rng.normal(size=shape)
    k = rng.normal(size=kshape)
    b = rng.normal(size=kshape[-1])
    out = T.conv2d(Tensor(x), Tensor(k), Tensor(b), stride)
    expected = oracles.conv2d_oracle(x, k, stride) + b
    np.testing.assert_allclose(out.data, expected, atol=1e-10)


def test_conv2d_rank3_squeeze(rng):
    x = rng.normal(size=(5, 6, 2))
    k = rng.normal(size=(1, 2, 2, 3))
    b = rng.normal(size=3)
    out = T.conv2d(Tensor(x), Tensor(k), Tensor(b), (1, 2))
    batched = T.conv2d(Tensor(x[None]), Tensor(k), Tensor(b), (1, 2))
    np.testing.assert_allclose(out.data, batched.data[0], atol=1e-12)


def test_conv2d_backward_matches_fd(rng):
    x = Tensor(rng.normal(size=(2, 4, 5, 2)), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 2, 2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)

    def forward():
        y = T.conv2d(x, k, b, (1, 2))
        return T.reduce_sum(T.mul(y, y))

    backward(forward())
    num = numeric_grad(lambda: float(forward().data),
                       {"x": x.data, "k": k.data, "b": b.data})
    assert rel_max(x.grad, num["x"]) < 1e-6
    assert rel_max(k.grad, num["k"]) < 1e-6
    assert rel_max(b.grad, num["b"]) < 1e-6


@pytest.mark.parametrize("shape,kshape,stride", CONV_GEOMETRIES)
def test_conv2d_gradients_match_fd_on_each_geometry(rng, shape, kshape, stride):
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    k = Tensor(rng.normal(size=kshape), requires_grad=True)
    b = Tensor(rng.normal(size=kshape[-1]), requires_grad=True)
    weights = Tensor(rng.normal(size=oracles.conv2d_oracle(x.data, k.data, stride).shape))

    def forward():
        return T.reduce_sum(T.mul(T.conv2d(x, k, b, stride), weights))

    # the loss is linear in each coordinate, so a wide step costs no
    # truncation error and keeps rounding noise far below the bound
    backward(forward())
    num = numeric_grad(lambda: float(forward().data),
                       {"x": x.data, "k": k.data, "b": b.data}, eps=1e-4)
    assert rel_max(x.grad, num["x"]) < 1e-6
    assert rel_max(k.grad, num["k"]) < 1e-6
    assert rel_max(b.grad, num["b"]) < 1e-6


@pytest.mark.parametrize("shape,kshape,stride", CONV_GEOMETRIES)
def test_conv2d_tanh_is_one_node_equal_to_tanh_of_conv2d(rng, shape, kshape, stride):
    arrays = (rng.normal(size=shape), rng.normal(size=kshape), rng.normal(size=kshape[-1]))
    fused_in = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    plain_in = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    fused = T.conv2d_tanh(*fused_in, stride)
    plain = T.conv2d(*plain_in, stride)
    y = np.tanh(plain.data)
    np.testing.assert_allclose(fused.data, y, rtol=1e-14, atol=0)
    # one tape node: its parents are the three leaves themselves
    assert fused._parents == tuple(fused_in)
    weights = rng.normal(size=fused.shape)
    backward(T.reduce_sum(T.mul(fused, Tensor(weights))))
    # the reference seeds conv2d's backward with the tanh chain rule
    backward(T.reduce_sum(T.mul(plain, Tensor(weights * (1.0 - y * y)))))
    for f, p in zip(fused_in, plain_in):
        np.testing.assert_allclose(f.grad, p.grad, rtol=1e-14, atol=1e-14 * np.abs(p.grad).max())


def test_conv2d_geometry_errors(rng):
    x = Tensor(rng.normal(size=(1, 3, 3, 2)))
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(rng.normal(size=(4, 2, 2, 1))), Tensor(np.zeros(1)))
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(rng.normal(size=(2, 2, 3, 1))), Tensor(np.zeros(1)))
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(rng.normal(size=(2, 2, 2, 1))), Tensor(np.zeros(2)))
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(rng.normal(size=(2, 2, 2, 1))), Tensor(np.zeros(1)),
                 (0, 1))

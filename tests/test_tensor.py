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
        # a^2 b^2 through a chain of products, a and b each used twice
        z = oracles.product(a, oracles.product(b, b))
        return T.reduce_sum(oracles.product(z, a))

    # the loss is quadratic in each coordinate, so central differences
    # cost no truncation error and a wide step keeps rounding noise far
    # below the bound
    loss = forward()
    backward(loss)
    num = numeric_grad(lambda: float(forward().data), {"a": a.data, "b": b.data}, eps=1e-3)
    assert rel_max(a.grad, num["a"]) < 1e-7
    assert rel_max(b.grad, num["b"]) < 1e-7


def test_reduce_ops_axis_keepdims(rng):
    # reduce_sum reduces every axis to a scalar
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    assert T.reduce_sum(x).shape == ()
    assert float(T.reduce_sum(x).data) == x.data.sum()

    def forward():
        return T.reduce_sum(oracles.product(x, x))

    backward(forward())
    num = numeric_grad(lambda: float(forward().data), {"x": x.data})
    assert rel_max(x.grad, num["x"]) < 1e-6


def test_reshape_backward(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

    def forward():
        r = T.reshape(x, (2, 12))
        return T.reduce_sum(oracles.product(r, r))

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
        return T.reduce_sum(oracles.product(oracles.product(g, g), w))

    backward(forward())
    num = numeric_grad(lambda: float(forward().data), {"a": a.data})
    assert rel_max(a.grad, num["a"]) < 1e-6
    np.testing.assert_array_equal(a.grad[[1, 3]], 0.0)
    for bad in ([5], [-1]):
        with pytest.raises(ValueError, match="range"):
            T.take_rows(a, np.array(bad))
    with pytest.raises(ValueError, match="integer"):
        T.take_rows(a, np.array([0.0]))


@pytest.mark.parametrize("shape, index", [
    ((6, 4), [5, 0, 5, 2, 5, 0, 2]),             # 1-D index; rows 1, 3 and 4 unused
    ((6, 2, 3), [[4, 0, 4], [0, 0, 4], [2, 4, 0]]),  # 2-D index; rows 1, 3 and 5 unused
    ((6,), [[3, 3], [1, 3]]),                    # rows of one value
])
def test_take_rows_backward_is_add_at_bit_for_bit(shape, index):
    """The scatter-add sums a repeated row's gradients in index order from
    0.0, as ``np.add.at`` does, so the bits agree even where the order of
    a sum changes its rounding; an unused row gets exact zeros."""
    rng = np.random.default_rng(11)
    idx = np.array(index)
    a = Tensor(rng.normal(size=shape), requires_grad=True)
    g = rng.normal(size=idx.shape + shape[1:]) * 10.0 ** rng.integers(-9, 9, idx.shape + shape[1:])
    g.flat[:2] = [-0.0, 5e-324]
    backward(T.reduce_sum(oracles.product(T.take_rows(a, idx), g)))
    want = np.zeros(shape)
    np.add.at(want, idx, g)
    assert a.grad.tobytes() == (np.zeros(shape) + want).tobytes()
    # the helper alone, on unsigned and empty indices
    got = T.add_rows(g, idx.astype(np.uint32), shape[0])
    assert got.tobytes() == want.tobytes()
    empty = T.add_rows(np.zeros((0,) + shape[1:]), np.zeros(0, dtype=np.int64), shape[0])
    assert empty.shape == shape and not empty.any()


def test_gradient_accumulates_per_use():
    x = Tensor(3.0, requires_grad=True)
    # both operands are x: each use contributes x
    backward(oracles.product(x, x))
    np.testing.assert_allclose(x.grad, 6.0)
    # a second backward pass accumulates on top
    backward(oracles.product(x, 5.0))
    np.testing.assert_allclose(x.grad, 6.0 + 5.0)
    zero_grads([x])
    np.testing.assert_allclose(x.grad, 0.0)


def test_repeated_backward_adds_the_same_gradient_again():
    x = Tensor(np.ones(3), requires_grad=True)
    h = oracles.product(np.full(3, 2.0), x)
    loss = T.reduce_sum(oracles.product(np.full(3, 3.0), h))
    backward(loss)
    np.testing.assert_array_equal(x.grad, np.full(3, 6.0))
    backward(loss)
    # the leaf sums both calls; the intermediate holds the last call's
    np.testing.assert_array_equal(x.grad, np.full(3, 12.0))
    np.testing.assert_array_equal(h.grad, np.full(3, 3.0))


def test_diamond_reuse_single_contribution(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)

    w = rng.normal(size=(3,))

    def forward():
        # h feeds two nodes: the product directly and through a reshape
        h = oracles.product(x, w)
        return T.reduce_sum(oracles.product(h, T.reshape(h, (3,))))

    # the loss is quadratic in each coordinate: a wide step costs no
    # truncation error and keeps rounding noise far below the bound
    backward(forward())
    num = numeric_grad(lambda: float(forward().data), {"x": x.data}, eps=1e-3)
    assert rel_max(x.grad, num["x"]) < 1e-7


def test_deep_chain_no_recursion_error():
    # y = x^3001 with x = 1: each of the 3001 uses of x adds exactly 1
    x = Tensor(1.0, requires_grad=True)
    y = x
    for _ in range(3000):
        y = oracles.product(y, x)
    backward(y)
    np.testing.assert_array_equal(x.grad, 3001.0)


def test_off_path_parameter_reads_zero_grad():
    used = Tensor([1.0, 2.0], requires_grad=True)
    unused = Tensor([5.0], requires_grad=True)
    backward(T.reduce_sum(oracles.product(used, used)))
    np.testing.assert_array_equal(unused.grad, np.zeros(1))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        backward(oracles.product(x, x))


def test_no_grad_drops_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = oracles.product(x, x)
    assert not y.requires_grad
    assert y._parents == ()


def test_no_grad_is_thread_local():
    x = Tensor(np.ones(3), requires_grad=True)
    results = {}

    def worker():
        results["tracked"] = oracles.product(x, x).requires_grad

    with no_grad():
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert results["tracked"] is True


def test_overflow_in_op_raises():
    x = Tensor(1e308, requires_grad=True)
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(FloatingPointError):
            oracles.product(x, Tensor(1e308))


def test_finite_check_passes_an_overflowing_sum_silently():
    big = np.array([1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = oracles.product(Tensor(big, requires_grad=True), np.ones(2))
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


def test_conv2d_backward_matches_fd(rng):
    x = Tensor(rng.normal(size=(2, 4, 5, 2)), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 2, 2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)

    def forward():
        y = T.conv2d(x, k, b, (1, 2))
        return T.reduce_sum(oracles.product(y, y))

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
        return T.reduce_sum(oracles.product(T.conv2d(x, k, b, stride), weights))

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
    backward(T.reduce_sum(oracles.product(fused, Tensor(weights))))
    # the reference seeds conv2d's backward with the tanh chain rule
    backward(T.reduce_sum(oracles.product(plain, Tensor(weights * (1.0 - y * y)))))
    for f, p in zip(fused_in, plain_in):
        np.testing.assert_allclose(f.grad, p.grad, rtol=1e-14, atol=1e-14 * np.abs(p.grad).max())


def test_conv2d_geometry_errors(rng):
    x = Tensor(rng.normal(size=(1, 3, 3, 2)))
    with pytest.raises(ValueError, match="rank 4"):
        T.conv2d(Tensor(x.data[0]), Tensor(rng.normal(size=(2, 2, 2, 1))), Tensor(np.zeros(1)))
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(rng.normal(size=(4, 2, 2, 1))), Tensor(np.zeros(1)))
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(rng.normal(size=(2, 2, 3, 1))), Tensor(np.zeros(1)))
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(rng.normal(size=(2, 2, 2, 1))), Tensor(np.zeros(2)))
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(rng.normal(size=(2, 2, 2, 1))), Tensor(np.zeros(1)),
                 (0, 1))


@pytest.mark.parametrize("rows", [0, 5, 32, 45, 96, 100, 417])
def test_row_product_is_x_transpose_g(rng, rows):
    """Bit-equal to x^T g over whole row blocks and for a one-column g,
    batched over a leading axis too; within 1e-15 of it, relative to
    sum |x| |g|, once a remainder block is added on."""
    for lead in ((), (3,)):
        x = rng.normal(size=lead + (rows, 7))
        for cols in (1, 4):
            g = rng.normal(size=lead + (rows, cols))
            ref = np.swapaxes(x, -1, -2) @ g
            got = T.row_product(x, g)
            assert got.shape == ref.shape
            if rows % T.ROW_BLOCK == 0 or cols == 1:
                np.testing.assert_array_equal(got, ref)
            else:
                scale = np.swapaxes(np.abs(x), -1, -2) @ np.abs(g)
                assert np.all(np.abs(got - ref) <= 1e-15 * scale)

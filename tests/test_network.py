"""Capsule network stage: geometry, squash, routing, LSTM, full forward."""

import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from conftest import (materialized_forward, numeric_grad, per_frame_forward, rel_max,
                      route_votes, sliding_frames)

from slowcaps import config as C
from slowcaps import evaluation as E
from slowcaps import network as N
from slowcaps import tensor as T
from slowcaps import training as TR
from slowcaps.features import FrameBatch
from slowcaps.tensor import Tensor, backward

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tiny_config(**kw):
    base = dict(
        window_length=12,
        in_channels=6,
        conv_filters=8,
        conv_kernel=(1, 2),
        conv_stride=(1, 2),
        caps_dim=4,
        num_advanced=2,
        advanced_dim=6,
        routing_iterations=2,
        lstm_units=5,
        sequence_length=3,
        fnn_widths=(7, 1),
        dropout=0.2,
    )
    base.update(kw)
    return N.ModelConfig(**base)


# ---------------------------------------------------------- configuration


def test_config_derived_defaults():
    cfg = tiny_config()
    assert cfg.caps_channels == 2          # conv_filters // caps_dim
    assert cfg.conv_out_hw == (12, 3)
    assert cfg.caps_kernel == (1, 3)       # full width of the feature maps
    assert cfg.caps_out_hw == (12, 1)
    assert cfg.num_basic_capsules == 24
    assert cfg.advanced_flat_size == 12
    assert cfg.head_input_size == 5        # lstm hidden size
    flat = tiny_config(use_lstm=False, sequence_length=1)
    assert flat.head_input_size == 12      # capsules feed the head directly


def test_config_collects_multiple_problems():
    with pytest.raises(ValueError, match=r"window_length.*in_channels"):
        tiny_config(window_length=0, in_channels=0)


def test_config_rejects_bad_geometry():
    with pytest.raises(ValueError, match="does not fit"):
        tiny_config(window_length=1, conv_kernel=(2, 2))
    with pytest.raises(ValueError, match="feature maps"):
        tiny_config(caps_kernel=(13, 1))


def test_config_rejects_indivisible_filters():
    with pytest.raises(ValueError, match="divisible"):
        tiny_config(conv_filters=10)


def test_config_lstm_off_needs_unit_sequence():
    with pytest.raises(ValueError, match="sequence_length"):
        tiny_config(use_lstm=False, sequence_length=3)
    assert tiny_config(use_lstm=False, sequence_length=1).sequence_length == 1


def test_config_kernels_must_be_pairs():
    with pytest.raises(ValueError, match="pair of ints"):
        tiny_config(conv_kernel=3)
    with pytest.raises(ValueError, match="pair of ints"):
        tiny_config(caps_stride=(1,))


# --------------------------------------------------------- initialization


def test_init_parameter_shapes_and_count(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    expected = {
        "conv.kernel": (1, 2, 1, 8),
        "conv.bias": (8,),
        "caps.kernel": (1, 3, 8, 8),
        "caps.bias": (8,),
        "route.transform": (24, 2, 6, 4),
        "lstm.w_xi": (12, 5), "lstm.w_hi": (5, 5), "lstm.b_i": (5,),
        "lstm.w_xf": (12, 5), "lstm.w_hf": (5, 5), "lstm.b_f": (5,),
        "lstm.w_xg": (12, 5), "lstm.w_hg": (5, 5), "lstm.b_g": (5,),
        "lstm.w_xo": (12, 5), "lstm.w_ho": (5, 5), "lstm.b_o": (5,),
        "fnn.0.weight": (5, 7), "fnn.0.bias": (7,),
        "fnn.1.weight": (7, 1), "fnn.1.bias": (1,),
    }
    assert set(params) == set(expected)
    for name, shape in expected.items():
        assert params[name].shape == shape, name
        assert params[name].requires_grad
    assert N.parameter_count(params) == sum(
        int(np.prod(s)) for s in expected.values()
    )
    # biases: forget gate starts open, everything else at zero
    np.testing.assert_array_equal(params["lstm.b_f"].data, np.ones(5))
    for name in ("conv.bias", "caps.bias", "lstm.b_i", "lstm.b_g",
                 "lstm.b_o", "fnn.0.bias", "fnn.1.bias"):
        np.testing.assert_array_equal(params[name].data, 0.0)
    # routing transform is a small-sigma normal draw
    assert 0.04 < params["route.transform"].data.std() < 0.06


def test_init_is_seed_deterministic():
    cfg = tiny_config()
    a = N.init_parameters(cfg, np.random.default_rng(7))
    b = N.init_parameters(cfg, np.random.default_rng(7))
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)


def test_init_without_lstm_has_no_lstm_params(rng):
    cfg = tiny_config(use_lstm=False, sequence_length=1)
    params = N.init_parameters(cfg, rng)
    assert not any(name.startswith("lstm.") for name in params)
    assert params["fnn.0.weight"].shape == (12, 7)


# ----------------------------------------------------------------- squash


def test_squash_matches_oracle(rng):
    s = rng.normal(size=(5, 7, 4)) * rng.uniform(0.01, 10.0, size=(5, 7, 1))
    out = N.squash(Tensor(s)).data
    np.testing.assert_allclose(out, oracles.squash_oracle(s), atol=1e-12)


def test_squash_properties(rng):
    s = rng.normal(size=(200, 3))
    v = N.squash(Tensor(s)).data
    norms = np.linalg.norm(v, axis=-1)
    assert np.all(norms < 1.0)
    # direction preserved
    cos = np.sum(v * s, axis=-1) / (
        np.linalg.norm(s, axis=-1) * np.maximum(norms, 1e-300)
    )
    np.testing.assert_allclose(cos, 1.0, atol=1e-9)
    # zero maps exactly to zero thanks to the eps guard
    np.testing.assert_array_equal(N.squash(Tensor(np.zeros((1, 4)))).data, 0.0)
    # long vectors saturate toward unit length
    long = N.squash(Tensor(np.array([[1e4, 0.0]]))).data
    assert np.linalg.norm(long) > 1.0 - 1e-7
    # output length grows monotonically with input length
    scales = np.linspace(0.1, 5.0, 20)[:, None] * np.array([[0.6, 0.8]])
    out_norms = np.linalg.norm(N.squash(Tensor(scales)).data, axis=-1)
    assert np.all(np.diff(out_norms) > 0)


def test_squash_backward_matches_fd(rng):
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    w = rng.normal(size=(3, 4, 5))

    def loss_fn():
        return float(T.reduce_sum(oracles.product(N.squash(x), Tensor(w))).data)

    loss = T.reduce_sum(oracles.product(N.squash(x), Tensor(w)))
    backward(loss)
    num = numeric_grad(loss_fn, {"x": x.data})
    assert rel_max(x.grad, num["x"]) < 1e-6


def _squash_grad_and_fd(s, w, step):
    """Tape gradient of sum(w * squash(s)) and its central differences.

    Squash acts on each vector alone, so coordinate k of every vector is
    stepped at once and only that vector's own loss term is differenced;
    the rounding of the other terms stays out of the quotient.
    """
    x = Tensor(s, requires_grad=True)
    backward(T.reduce_sum(oracles.product(N.squash(x), Tensor(w))))
    num = np.empty_like(s)
    for k in range(s.shape[-1]):
        e = np.zeros(s.shape[-1])
        e[k] = step
        hi = (N._squash_np(s + e) * w).sum(axis=-1)
        lo = (N._squash_np(s - e) * w).sum(axis=-1)
        num[..., k] = (hi - lo) / (2.0 * step)
    return x.grad, num


def _worst_of_max(grad, num):
    return np.max(np.abs(grad - num)) / np.max(np.abs(num))


def test_squash_is_one_tape_node_with_the_routing_forward(rng):
    s = rng.normal(size=(3, 5, 4)) * rng.uniform(0.01, 10.0, size=(3, 5, 1))
    x = Tensor(s, requires_grad=True)
    v = N.squash(x)
    assert v._parents == (x,) and v._backward is not None
    np.testing.assert_array_equal(v.data, N._squash_np(s))


def test_squash_backward_at_fd001_capsule_shape(rng):
    s = rng.normal(size=(2, 224, 8)) * 10.0 ** rng.uniform(-2.0, 1.0, size=(2, 224, 1))
    grad, num = _squash_grad_and_fd(s, rng.normal(size=s.shape), 1e-6)
    assert _worst_of_max(grad, num) < 1e-7


def test_squash_backward_edge_lengths(rng):
    w = rng.normal(size=(4, 8))
    # the exact zero vector has zero gradient
    x = Tensor(np.zeros((4, 8)), requires_grad=True)
    backward(T.reduce_sum(oracles.product(N.squash(x), Tensor(w))))
    np.testing.assert_array_equal(x.grad, 0.0)
    # |s| ~ 1e-8 sits inside the eps guard, |s| ~ 1e4 near saturation;
    # the steps are 1e-4 and 3e-6 of the entries' scale
    d = rng.normal(size=(4, 8))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    for scale, step in ((1e-8, 1e-12), (1e4, 1e-2)):
        grad, num = _squash_grad_and_fd(d * scale, w, step)
        assert _worst_of_max(grad, num) < 1e-7


# ------------------------------------------------------- the routing node


# (u shape, index) of routing's two uses: whole items, each its own
# row, as the benchmark's backward replay routes, and patch rows read
# through an (N, H) index, here 5 rows of 2 capsules of which row 2 is
# read four times and row 3 never
ROUTE_CASES = [((2, 5, 4), np.arange(2)[:, None]),
               ((5, 2, 4), np.array([[0, 2, 1], [2, 2, 4], [1, 0, 2]]))]


def routed_case(rng, shape, index):
    """u, w, a coupling (N, I, J) and the einsum-built votes of a small
    routing node."""
    u = Tensor(rng.normal(size=shape), requires_grad=True)
    frames = u.data[index].reshape(index.shape[0], -1, shape[2])
    w = Tensor(rng.normal(size=(frames.shape[1], 3, 6, 4)), requires_grad=True)
    c = rng.dirichlet(np.ones(3), size=frames.shape[:2])
    return u, w, c, frames, np.einsum("ijad,nid->nija", w.data, frames)


def test_capsule_transform_matches_einsum_and_fd(rng):
    """The gathered capsules and the transforms' layout give the einsum
    votes' weighted sums, and the routing node's u and w gradients match
    central differences with the coupling held still."""
    for shape, index in ROUTE_CASES:
        check_operands_and_their_fd(rng, shape, index)


def check_operands_and_their_fd(rng, shape, index):
    u, w, c, frames, votes = routed_case(rng, shape, index)
    uf, wj = N.capsule_transform(u, w, index)
    np.testing.assert_array_equal(uf, frames)
    assert wj.shape == (3, frames.shape[1] * 4, 6)
    # (c_j * uf) @ wj[j] is the coupling-weighted vote sum into j
    x = np.einsum("nij,nid->jnid", c, uf).reshape(3, len(uf), -1)
    np.testing.assert_allclose(np.matmul(x, wj).transpose(1, 0, 2),
                               np.einsum("nij,nija->nja", c, votes), rtol=0, atol=1e-12)
    params, g = {"route.transform": w}, rng.normal(size=(len(uf), 3, 6))

    def routed():
        return N.dynamic_routing(u, params, tiny_config(), c, index)[0]

    def loss_fn():
        return float(np.sum(routed().data * g))

    backward(T.reduce_sum(oracles.product(routed(), Tensor(g))))
    # the squash makes the loss nonlinear; a 1e-4 step keeps both the
    # truncation and the rounding error of the differences near 1e-8
    num = numeric_grad(loss_fn, {"u": u.data, "w": w.data}, eps=1e-4)
    assert rel_max(u.grad, num["u"]) < 1e-6
    assert rel_max(w.grad, num["w"]) < 1e-6
    assert not u.grad[np.setdiff1d(np.arange(shape[0]), index)].any()  # unread rows


def test_capsule_transform_validation(rng):
    w = Tensor(np.zeros((5, 3, 6, 4)))
    with pytest.raises(ValueError, match="ranks"):
        N.capsule_transform(Tensor(np.zeros((5, 4))), w, np.arange(5)[:, None])
    with pytest.raises(ValueError, match="mismatch"):
        N.capsule_transform(Tensor(np.zeros((2, 6, 4))), w, np.arange(2)[:, None])
    with pytest.raises(ValueError, match="index"):
        N.capsule_transform(Tensor(np.zeros((2, 5, 4))), w, np.arange(2))


def test_dynamic_routing_non_finite_raises(rng):
    """Capsules near 1e300 overflow the routed sums' squash; routing
    fails loudly, in the agreement rounds and with the coupling held."""
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    u = Tensor(rng.normal(size=(2, 24, 4)) * 1e300)
    for override in (None, np.full((2, 24, 2), 0.5)):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
            N.dynamic_routing(u, params, cfg, override)


def test_dynamic_routing_node_matches_einsum(rng):
    """One tape node from u and w to v = squash(sum_i c votes): v, du and
    dW against the einsum-built votes, the squash node and the chain rule
    through the votes."""
    for shape, index in ROUTE_CASES:
        check_routing_node(rng, shape, index)


def check_routing_node(rng, shape, index):
    u, w, c, frames, votes = routed_case(rng, shape, index)
    v, coupling = N.dynamic_routing(u, {"route.transform": w}, tiny_config(), c, index)
    assert v._parents == (u, w)  # no vote, sum or squash node
    np.testing.assert_array_equal(coupling, c)
    s = Tensor(np.einsum("nij,nija->nja", c, votes), requires_grad=True)
    ref = N.squash(s)
    np.testing.assert_allclose(v.data, ref.data, rtol=0, atol=1e-12)
    g = rng.normal(size=v.shape)
    backward(T.reduce_sum(oracles.product(v, Tensor(g))))
    backward(T.reduce_sum(oracles.product(ref, Tensor(g))))
    # the chain rule through the votes, whose gradient is c * ds
    gv = c[..., None] * s.grad[:, None]
    du = np.einsum("nija,ijad->nid", gv, w.data)
    du_rows = np.zeros_like(u.data)
    np.add.at(du_rows, index, du.reshape(index.shape + u.shape[1:]))
    dw = np.einsum("nija,nid->ijad", gv, frames)
    for got, want in ((u.grad, du_rows), (w.grad, dw)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))
    with pytest.raises(ValueError, match="coupling"):
        N.dynamic_routing(u, {"route.transform": w}, tiny_config(), c[:, :-1], index)


def test_dynamic_routing_backward_only_reads_the_forward(rng):
    """A second backward call adds exactly the first's gradients again,
    so the backward never writes into what the forward kept; the forward
    gives the same bits with and without a tape."""
    shape, index = ROUTE_CASES[1]
    u, w, _, _, _ = routed_case(rng, shape, index)
    params, cfg = {"route.transform": w}, tiny_config(routing_iterations=3)
    v, coupling = N.dynamic_routing(u, params, cfg, index=index)
    g = rng.normal(size=v.shape)
    v._backward(g)
    once = u.grad.copy(), w.grad.copy()
    v._backward(g)
    np.testing.assert_array_equal(u.grad, 2.0 * once[0])
    np.testing.assert_array_equal(w.grad, 2.0 * once[1])
    with T.no_grad():
        v2, coupling2 = N.dynamic_routing(u, params, cfg, index=index)
    np.testing.assert_array_equal(v2.data, v.data)
    np.testing.assert_array_equal(coupling2, coupling)


def test_coupling_override_must_be_a_coupling(rng):
    """The last capsule's sum and weight gradient are taken from the
    coupling summing to 1, so an override that is non-finite, negative
    or off that sum by more than 1e-12 is refused; a recorded coupling
    replays v."""
    cfg = tiny_config(routing_iterations=3)
    params = N.init_parameters(cfg, rng)
    u = Tensor(rng.normal(size=(2, 24, 4)))
    v, coupling = N.dynamic_routing(u, params, cfg)
    replay, _ = N.dynamic_routing(u, params, cfg, coupling)
    np.testing.assert_allclose(replay.data, v.data, rtol=0, atol=1e-14)
    near = coupling.copy()
    near[0, 3, 0] += 5e-13
    N.dynamic_routing(u, params, cfg, near)
    for row in ([0.5 + 1e-11, 0.5], [1.5, -0.5], [np.nan, 0.5], [np.inf, -np.inf]):
        bad = coupling.copy()
        bad[1, 7] = row
        with pytest.raises(ValueError, match="coupling override must be finite"):
            N.dynamic_routing(u, params, cfg, bad)


@pytest.mark.parametrize("caps, dim, advanced, adim, iterations", [
    (24, 4, 1, 6, 3),  # J = 1: no free capsule
    (448, 4, 3, 17, 3),  # FD003
    (56, 3, 5, 6, 3),  # milling
    (224, 8, 2, 16, 1),  # FD001 with one round: the recorded round is the uniform one
])
def test_routing_node_fd_at_edge_geometries(rng, caps, dim, advanced, adim, iterations):
    """Central differences on the routing node's u and W with the
    recorded coupling held still, where the last capsule's terms come
    from the coupling's sum: entries of a patch row the frames read
    three times, random entries elsewhere and of W; a row no frame reads gets
    exact zeros.  A second backward adds exactly the first's gradients
    again, and the forward gives the same bits without a tape."""
    cfg = tiny_config(num_advanced=advanced, advanced_dim=adim, routing_iterations=iterations)
    index = np.array([[0, 2, 1, 4], [2, 3, 0, 1], [4, 1, 3, 0]])  # row 5 never read
    u = Tensor(N._squash_np(rng.normal(size=(6, caps // 4, dim))), requires_grad=True)
    w = Tensor(rng.normal(0.0, 0.2, size=(caps, advanced, adim, dim)), requires_grad=True)
    params = {"route.transform": w}
    _, coupling = N.dynamic_routing(u, params, cfg, index=index)
    g = rng.normal(size=(3, advanced, adim))

    def loss():
        return float(np.sum(N.dynamic_routing(u, params, cfg, coupling, index)[0].data * g))

    v, _ = N.dynamic_routing(u, params, cfg, coupling, index)
    v._backward(g)
    once = u.grad.copy(), w.grad.copy()
    assert not once[0][5].any()
    worst = 0.0
    for t, grad, picks in ((u, once[0], rng.choice(np.arange(u.size // 6), 16, replace=False)),
                           (u, once[0], rng.choice(u.size, 16, replace=False)),
                           (w, once[1], rng.choice(w.size, 24, replace=False))):
        flat, grad = t.data.reshape(-1), grad.reshape(-1)
        for i in picks:
            keep = flat[i]
            flat[i] = keep + 1e-4
            lp = loss()
            flat[i] = keep - 1e-4
            lm = loss()
            flat[i] = keep
            num = (lp - lm) / 2e-4
            worst = max(worst, abs(grad[i] - num) / max(abs(grad[i]), abs(num), 1e-6))
    assert worst < 1e-6
    v._backward(g)
    np.testing.assert_array_equal(u.grad, 2.0 * once[0])
    np.testing.assert_array_equal(w.grad, 2.0 * once[1])
    with T.no_grad():
        for c in (None, coupling):
            np.testing.assert_array_equal(N.dynamic_routing(u, params, cfg, c, index)[0].data,
                                          v.data)


# ---------------------------------------------------------------- routing


def test_routing_hand_example():
    # one basic capsule voting for two advanced capsules in the plane
    uh = np.array([[[[2.0, 0.0], [0.0, 1.0]]]])  # (1, 1, 2, 2)
    c1, _ = route_votes(uh, 1)
    np.testing.assert_allclose(c1[0, 0], [0.5, 0.5], atol=1e-12)
    # uniform coupling: s1=(1,0) squashes to (0.5,0), s2=(0,0.5) to (0,0.2),
    # so the agreements are (2*0.5, 1*0.2) = (1.0, 0.2), and the logits,
    # relative to the last capsule, (0.8, 0.0)
    c2, b1 = route_votes(uh, 2)
    np.testing.assert_allclose(b1[0, 0], [0.8, 0.0], atol=1e-9)
    np.testing.assert_allclose(c2[0, 0], [0.6900, 0.3100], atol=5e-5)
    e = np.exp([1.0, 0.2])
    np.testing.assert_allclose(c2[0, 0], e / e.sum(), atol=1e-9)


def test_routing_matches_oracle(rng):
    uh = rng.normal(size=(2, 6, 3, 4))
    for r in range(1, 5):
        c, b = route_votes(uh, r)
        oc, _, _ = oracles.routing_oracle(uh, r)
        # the logits the returned coupling is the softmax of: r - 1
        # agreement updates (zeros at r = 1), relative to the last capsule
        _, ob, _ = oracles.routing_oracle(uh, r - 1)
        np.testing.assert_allclose(c, oc, atol=1e-10)
        np.testing.assert_allclose(b, ob - ob[..., -1:], atol=1e-10)
        np.testing.assert_allclose(c.sum(axis=2), 1.0, atol=1e-12)


@pytest.mark.parametrize("frames, caps, dim, advanced, adim", [
    (3, 224, 8, 2, 16),  # FD001
    (2, 448, 4, 3, 17),  # FD003
    (4, 56, 3, 5, 6),  # milling
])
def test_routing_matches_oracle_at_config_geometry(rng, frames, caps, dim, advanced, adim):
    u = rng.normal(size=(frames, caps, dim))
    w = rng.normal(0.0, 0.2, size=(caps, advanced, adim, dim))
    uh = np.einsum("ijad,nid->nija", w, u)  # the votes W_ij u_i, built explicitly
    index = np.arange(frames)[:, None]
    uf, wj = N.capsule_transform(Tensor(u), Tensor(w), index)
    uf1, wj1 = N.capsule_transform(Tensor(u), Tensor(w[:, :1]), index)
    for r in range(1, 5):
        c, b, _, _ = N.routing_coefficients(uf, wj, r)
        oc, _, _ = oracles.routing_oracle(uh, r)
        _, ob, _ = oracles.routing_oracle(uh, r - 1)
        np.testing.assert_allclose(c.transpose(1, 2, 0), oc, rtol=0, atol=1e-12)
        # logits relative to the last capsule, whose own row is exactly 0
        np.testing.assert_allclose(b.transpose(1, 2, 0), ob - ob[..., -1:], rtol=0, atol=1e-10)
        np.testing.assert_array_equal(b[-1], 0.0)
        np.testing.assert_array_equal(c, N._softmax_np(b, axis=0))
        # one advanced capsule takes the whole coupling
        c1 = N.routing_coefficients(uf1, wj1, r)[0]
        np.testing.assert_array_equal(c1, 1.0)


def test_routing_validation(rng):
    uf, wj = N.capsule_transform(Tensor(rng.normal(size=(1, 4, 3))),
                                 Tensor(rng.normal(size=(4, 2, 5, 3))), np.zeros((1, 1), int))
    with pytest.raises(ValueError):
        N.routing_coefficients(uf, wj, 0)


def test_dynamic_routing_forward_and_override(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    u = Tensor(rng.normal(size=(2, 24, 4)))
    v, coupling = N.dynamic_routing(u, params, cfg)
    assert v.shape == (2, 2, 6)
    assert coupling.shape == (2, 24, 2)
    np.testing.assert_allclose(coupling.sum(axis=2), 1.0, atol=1e-12)
    # replaying with the recorded coupling reproduces the outputs exactly
    v2, coupling2 = N.dynamic_routing(u, params, cfg, coupling_override=coupling)
    np.testing.assert_allclose(v2.data, v.data, atol=1e-14)
    np.testing.assert_array_equal(coupling2, coupling)
    # and matches the oracle's final squashed outputs
    uh = np.einsum("ijad,nid->nija", params["route.transform"].data, u.data)
    _, _, ov = oracles.routing_oracle(uh, cfg.routing_iterations)
    np.testing.assert_allclose(v.data, ov, atol=1e-10)


def test_dynamic_routing_gradients_with_frozen_coupling(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    u = Tensor(rng.normal(size=(1, 24, 4)), requires_grad=True)
    _, c_star = N.dynamic_routing(u, params, cfg)
    g = rng.normal(size=(1, 2, 6))

    def loss_fn():
        v, _ = N.dynamic_routing(u, params, cfg, coupling_override=c_star)
        return float(np.sum(v.data * g))

    v, _ = N.dynamic_routing(u, params, cfg, coupling_override=c_star)
    backward(T.reduce_sum(oracles.product(v, Tensor(g))))
    num = numeric_grad(
        loss_fn, {"u": u.data, "w": params["route.transform"].data}
    )
    assert rel_max(u.grad, num["u"]) < 1e-6
    assert rel_max(params["route.transform"].grad, num["w"]) < 1e-6


# ------------------------------------------------- convolutional capsules


def test_conv_and_capsule_stage_shapes(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    frames = Tensor(rng.normal(size=(3, 12, 6, 1)))
    maps = N.conv_features(frames, params, cfg)
    assert maps.shape == (3, 12, 3, 8)
    assert np.all(np.abs(maps.data) < 1.0)  # tanh range
    caps = N.build_basic_capsules(maps, params, cfg)
    assert caps.shape == (3, 24, 4)
    assert np.all(np.linalg.norm(caps.data, axis=-1) < 1.0)  # squashed


def test_capsule_count_matches_walking_oracle():
    for cfg in (
        tiny_config(),
        tiny_config(conv_kernel=(3, 2), conv_stride=(2, 1),
                    caps_kernel=(2, 2), caps_stride=(2, 1)),
        tiny_config(window_length=20, in_channels=9, conv_kernel=(2, 3),
                    conv_stride=(1, 2), caps_kernel=(4, 1), caps_stride=(3, 1)),
    ):
        assert cfg.num_basic_capsules == oracles.capsule_count_oracle(
            cfg.window_length, cfg.in_channels, cfg.conv_kernel,
            cfg.conv_stride, cfg.caps_kernel, cfg.caps_stride,
            cfg.caps_channels,
        )


def test_capsule_count_worked_example():
    # 28x28 frame, 64 filters halving the width, capsule groups of 4:
    # 28 * 14 positions * 16 groups = 6272 basic capsules
    cfg = N.ModelConfig(
        window_length=28, in_channels=28, conv_filters=64,
        conv_kernel=(1, 2), conv_stride=(1, 2), caps_dim=4,
        caps_kernel=(1, 1), caps_stride=(1, 1),
    )
    assert cfg.caps_channels == 16
    assert cfg.num_basic_capsules == 6272
    assert oracles.capsule_count_oracle(
        28, 28, (1, 2), (1, 2), (1, 1), (1, 1), 16
    ) == 6272


def test_single_capsule_degenerate_case():
    cfg = N.ModelConfig(
        window_length=2, in_channels=2, conv_filters=8,
        conv_kernel=(2, 2), conv_stride=(1, 1), caps_dim=8,
        caps_kernel=(1, 1), caps_stride=(1, 1),
    )
    assert cfg.caps_channels == 1
    assert cfg.num_basic_capsules == 1


# ------------------------------------------------------------------- lstm


def test_lstm_matches_step_oracle(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    seq = rng.normal(size=(3, 4, 12))
    h = N.lstm_forward(Tensor(seq), params, cfg)
    assert h.shape == (3, 5)
    wx = {g: params[f"lstm.w_x{g}"].data for g in "ifgo"}
    wh = {g: params[f"lstm.w_h{g}"].data for g in "ifgo"}
    b = {g: params[f"lstm.b_{g}"].data for g in "ifgo"}
    ho = np.zeros((3, 5))
    co = np.zeros((3, 5))
    for t in range(4):
        ho, co = oracles.lstm_step_oracle(seq[:, t], ho, co, wx, wh, b)
    np.testing.assert_allclose(h.data, ho, atol=1e-12)


def lstm_params(cfg, rng, requires_grad=True):
    """LSTM parameters moved off their initial values to a generic point."""
    params = N.init_parameters(cfg, rng)
    return {k: Tensor(p.data + rng.normal(0.0, 0.3, size=p.shape), requires_grad)
            for k, p in params.items() if k.startswith("lstm.")}


@pytest.mark.parametrize("steps", [1, 4])
def test_lstm_is_one_node_with_fd_gradients(rng, steps):
    cfg = tiny_config()
    params = lstm_params(cfg, rng)
    x = Tensor(rng.normal(size=(3, steps, 12)), requires_grad=True)
    weights = Tensor(rng.normal(size=(3, 5)))

    def forward():
        return T.reduce_sum(oracles.product(N.lstm_forward(x, params, cfg), weights))

    h = N.lstm_forward(x, params, cfg)
    assert h._parents[0] is x and len(h._parents) == 13
    assert {id(p) for p in h._parents[1:]} == {id(p) for p in params.values()}
    backward(forward())
    arrays = {"x": x.data, **{k: p.data for k, p in params.items()}}
    num = numeric_grad(lambda: float(forward().data), arrays)
    assert rel_max(x.grad, num["x"]) < 1e-6
    for name, p in params.items():
        assert rel_max(p.grad, num[name]) < 1e-6, name


def test_lstm_input_gradient_with_frozen_parameters(rng):
    cfg = tiny_config()
    params = lstm_params(cfg, rng, requires_grad=False)
    seq = rng.normal(size=(3, 4, 12))
    weights = Tensor(rng.normal(size=(3, 5)))
    x = Tensor(seq.copy(), requires_grad=True)
    backward(T.reduce_sum(oracles.product(N.lstm_forward(x, params, cfg), weights)))
    assert all(p.grad is None for p in params.values())
    tracked = {k: Tensor(p.data, requires_grad=True) for k, p in params.items()}
    x_all = Tensor(seq.copy(), requires_grad=True)
    backward(T.reduce_sum(oracles.product(N.lstm_forward(x_all, tracked, cfg), weights)))
    np.testing.assert_array_equal(x.grad, x_all.grad)


def test_lstm_saturated_gates_match_oracle_without_warnings(rng):
    cfg = tiny_config()
    params = lstm_params(cfg, rng)
    seq = 1e3 * rng.choice([-1.0, 1.0], size=(3, 4, 12)) * rng.uniform(0.5, 1.5, (3, 4, 12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = N.lstm_forward(Tensor(seq, requires_grad=True), params, cfg)
        backward(T.reduce_sum(h))
    wx = {g: params[f"lstm.w_x{g}"].data for g in "ifgo"}
    wh = {g: params[f"lstm.w_h{g}"].data for g in "ifgo"}
    b = {g: params[f"lstm.b_{g}"].data for g in "ifgo"}
    ho = np.zeros((3, 5))
    co = np.zeros((3, 5))
    for t in range(4):
        ho, co = oracles.lstm_step_oracle(seq[:, t], ho, co, wx, wh, b)
    np.testing.assert_allclose(h.data, ho, atol=1e-12)
    assert all(np.isfinite(p.grad).all() for p in params.values())


def output_gate(z: np.ndarray) -> np.ndarray:
    """The LSTM's output gate at the pre-activations ``z``, read off h.

    Every weight is zero but input 0's into the output gate, which is 1,
    and the i, f and g biases of 800 hold those gates at exactly 1, so
    after 20 steps c = 20 exactly, tanh(c) = 1 and h = o.  The last
    step's input 0 is ``z``, one batch row per value."""
    cfg = tiny_config()
    params = {k: Tensor(np.zeros(shape)) for k, shape in N.parameter_shapes(cfg).items()
              if k.startswith("lstm.")}
    params["lstm.w_xo"].data[0] = 1.0
    for gate in "ifg":
        params[f"lstm.b_{gate}"].data[:] = 800.0
    x = np.zeros((len(z), 20, cfg.advanced_flat_size))
    x[:, -1, 0] = z
    h = N.lstm_forward(Tensor(x), params, cfg).data
    assert (h == h[:, :1]).all()
    return h[:, 0]


def test_lstm_gates_saturate_exactly_without_warnings():
    # an overflowing exp(-z) gives the exact 0; pytest turns any
    # floating-point warning into an error
    np.testing.assert_array_equal(output_gate(np.array([-800.0, 0.0, 800.0])), [0.0, 0.5, 1.0])


def test_lstm_gates_match_the_sign_split_logistic():
    """1 / (1 + exp(-z)) against the sign-split form, whose exp only sees
    -|z|: the same bits for z >= 0, and within 1 ulp of 1.0 below 0,
    where both forms round differently but stay within 2 ulp of the
    exact logistic (scipy's ``expit``)."""
    z = np.linspace(-40.0, 40.0, 8001)
    got = output_gate(z)
    e = np.exp(-np.abs(z))
    split = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    np.testing.assert_array_equal(got[z >= 0.0], split[z >= 0.0])
    assert np.max(np.abs(got - split)) <= np.spacing(1.0)
    exact = scipy.special.expit(z)
    assert np.max(np.abs(got - exact) / np.spacing(exact)) <= 2.0


def test_lstm_validation(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    with pytest.raises(ValueError, match="rank 3"):
        N.lstm_forward(Tensor(np.zeros((3, 12))), params, cfg)
    with pytest.raises(ValueError, match="empty"):
        N.lstm_forward(Tensor(np.zeros((3, 0, 12))), params, cfg)
    with pytest.raises(ValueError, match="advanced_flat_size"):
        N.lstm_forward(Tensor(np.zeros((3, 4, 11))), params, cfg)


# -------------------------------------------------------- regression head


def test_regression_head_modes(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    h = Tensor(rng.normal(size=(4, 5)))
    out = N.regression_head(h, params, cfg)
    assert out.shape == (4,)
    np.testing.assert_array_equal(out.data, N.regression_head(h, params, cfg).data)
    with pytest.raises(ValueError, match="rng"):
        N.regression_head(h, params, cfg, mode="train")
    with pytest.raises(ValueError, match="mode"):
        N.regression_head(h, params, cfg, mode="test")
    a = N.regression_head(h, params, cfg, "train", np.random.default_rng(3))
    b = N.regression_head(h, params, cfg, "train", np.random.default_rng(3))
    np.testing.assert_array_equal(a.data, b.data)
    c = N.regression_head(h, params, cfg, "train", np.random.default_rng(4))
    assert not np.array_equal(a.data, c.data)


def test_regression_head_no_dropout_train_needs_no_rng(rng):
    cfg = tiny_config(dropout=0.0)
    params = N.init_parameters(cfg, rng)
    h = Tensor(rng.normal(size=(2, 5)))
    out = N.regression_head(h, params, cfg, mode="train")
    np.testing.assert_array_equal(out.data, N.regression_head(h, params, cfg).data)


def numpy_head(x, params, cfg, rng=None):
    """The head in plain numpy: affine, relu and, given ``rng``, inverted
    dropout per hidden layer, drawn in layer order."""
    last = len(cfg.fnn_widths) - 1
    for li in range(last + 1):
        x = x @ params[f"fnn.{li}.weight"].data + params[f"fnn.{li}.bias"].data
        if li < last:
            x = np.maximum(x, 0.0)
            if rng is not None:
                x = x * ((rng.random(x.shape) >= cfg.dropout) / (1.0 - cfg.dropout))
    return x[:, 0]


@pytest.mark.parametrize("use_lstm", [True, False], ids=["lstm", "no-lstm"])
def test_regression_head_forward_matches_numpy(rng, use_lstm):
    """One tape node whose parents are the input and the fnn.* parameters;
    train mode drops each hidden unit with probability 0.4 and rescales
    the kept ones by 1 / 0.6, eval mode keeps every unit."""
    cfg = tiny_config(fnn_widths=(9, 6, 1), dropout=0.4, use_lstm=use_lstm,
                      sequence_length=3 if use_lstm else 1)
    params = N.init_parameters(cfg, rng)
    # 70 rows: two full 32-row blocks of the products and a partial one
    h = Tensor(rng.normal(size=(70, cfg.head_input_size)), requires_grad=True)
    out = N.regression_head(h, params, cfg, "train", np.random.default_rng(7))
    fnn = [params[f"fnn.{li}.{kind}"] for kind in ("weight", "bias") for li in range(3)]
    assert out.shape == (70,) and out._parents == (h, *fnn)
    ref = numpy_head(h.data, params, cfg, np.random.default_rng(7))
    np.testing.assert_allclose(out.data, ref, rtol=1e-13, atol=1e-13)
    dropped = numpy_head(h.data, params, cfg, np.random.default_rng(8))
    assert not np.allclose(out.data, dropped)
    evaluated = N.regression_head(h, params, cfg)
    np.testing.assert_allclose(evaluated.data, numpy_head(h.data, params, cfg),
                               rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError, match="head input"):
        N.regression_head(Tensor(np.zeros((4, cfg.head_input_size + 1))), params, cfg)
    with pytest.raises(ValueError, match="head input"):
        N.regression_head(Tensor(np.zeros(cfg.head_input_size)), params, cfg)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_regression_head_gradients_match_fd(rng, mode):
    """Every input and fnn.* gradient against central differences, on the
    LSTM's and on the no-lstm head input width; in train mode the
    backward reuses the forward's dropout masks.  37 rows: the weight
    gradients of the wide layers reduce over a whole row block and a
    zero-padded remainder."""
    for use_lstm in (True, False):
        cfg = tiny_config(fnn_widths=(9, 6, 1), dropout=0.3, use_lstm=use_lstm,
                          sequence_length=3 if use_lstm else 1)
        params = N.init_parameters(cfg, rng)
        for p in params.values():
            p.data += rng.normal(0.0, 0.1, size=p.shape)
        h = Tensor(rng.normal(size=(37, cfg.head_input_size)), requires_grad=True)
        weights = Tensor(rng.normal(size=37))

        def forward():
            out = N.regression_head(h, params, cfg, mode, np.random.default_rng(5))
            return T.reduce_sum(oracles.product(out, weights))

        # the loss is piecewise linear in each coordinate: a step that
        # crosses no relu kink costs no truncation error, and a wide one
        # keeps rounding noise far below the bound
        backward(forward())
        fnn = {k: p for k, p in params.items() if k.startswith("fnn.")}
        num = numeric_grad(lambda: float(forward().data),
                           {k: p.data for k, p in fnn.items()}, eps=1e-4)
        for k, p in fnn.items():
            assert rel_max(p.grad, num[k]) < 1e-6, k
        # row n of the output reads row n of the input only: step column k
        # of every row at once and difference each row's own loss term
        num_h = np.empty_like(h.data)
        for k in range(h.shape[1]):
            step = np.zeros(h.shape[1])
            step[k] = 1e-4
            terms = [N.regression_head(Tensor(h.data + sign * step), params, cfg, mode,
                                       np.random.default_rng(5)).data * weights.data
                     for sign in (1.0, -1.0)]
            num_h[:, k] = (terms[0] - terms[1]) / 2e-4
        assert rel_max(h.grad, num_h) < 1e-6


# ------------------------------------------------------------------ loss


@pytest.mark.parametrize("n", [1, 26, 64])
def test_mse_loss_is_one_node_with_the_numpy_bits(rng, n):
    """Value and gradient bytes of the numpy formula, on one sample, an
    FD001 epoch's 26-sequence tail and a full batch, with magnitudes
    from 1e-8 to 1e8; the gradient is (1 / n) d doubled, the bits of
    the chain rule through d, d * d and the mean."""
    for _ in range(20):
        p = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n)
        t = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n)
        leaf = Tensor(p, requires_grad=True)
        pred = T.reshape(leaf, (n,))
        loss = N.mse_loss(pred, t)
        assert loss._parents == (pred,)
        d = p - t
        assert loss.data.tobytes() == np.mean(d * d).tobytes()
        backward(loss)
        want = (1.0 / n) * d
        assert pred.grad.tobytes() == (want + want).tobytes()


def test_mse_loss_needs_the_prediction_shape():
    pred = Tensor(np.zeros(4), requires_grad=True)
    for target in (np.zeros((4, 1)), np.zeros(3), np.zeros(())):
        with pytest.raises(ValueError, match="shape"):
            N.mse_loss(pred, target)


def test_mse_loss_gradient_matches_fd(rng):
    p = Tensor(rng.normal(size=(7,)), requires_grad=True)
    t = rng.normal(size=7)
    backward(N.mse_loss(p, t))
    num = numeric_grad(lambda: float(N.mse_loss(p, t).data), {"p": p.data})
    assert rel_max(p.grad, num["p"]) < 1e-7


# ----------------------------------------------------------- full forward


def test_model_forward_shapes_and_batch_invariance(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    frames = rng.normal(size=(6, 12, 6))
    idx = np.arange(6).reshape(2, 3)
    y, coupling = N.model_forward(frames, params, cfg, index=idx)
    assert y.shape == (2,)
    assert coupling.shape == (6, 24, 2)  # one per frame
    for i in range(2):
        yi, ci = N.model_forward(frames, params, cfg, index=idx[i : i + 1])
        np.testing.assert_allclose(yi.data, y.data[i : i + 1], atol=1e-10)
        # only the 3 frames sequence i names are scored
        np.testing.assert_allclose(ci, coupling[idx[i]], atol=1e-12)


def test_model_forward_validation(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    idx = np.arange(6).reshape(2, 3)
    with pytest.raises(ValueError, match="geometry"):
        N.model_forward(np.zeros((6, 11, 6)), params, cfg, index=idx)
    with pytest.raises(ValueError, match="rank"):
        N.model_forward(np.zeros((2, 3, 12, 6)), params, cfg, index=idx)
    with pytest.raises(ValueError, match="rank"):
        N.model_forward(np.zeros((6, 12, 6)), params, cfg, index=idx.ravel())
    with pytest.raises(TypeError, match="index"):
        N.model_forward(np.zeros((6, 12, 6)), params, cfg)
    for bad in (idx - 1, idx + 1):
        with pytest.raises(ValueError, match="outside"):
            N.model_forward(np.zeros((6, 12, 6)), params, cfg, index=bad)
    flat_cfg = tiny_config(use_lstm=False, sequence_length=1)
    flat_params = N.init_parameters(flat_cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match="sequence"):
        N.model_forward(np.zeros((6, 12, 6)), flat_params, flat_cfg, index=idx)
    yf, _ = N.model_forward(np.zeros((2, 12, 6)), flat_params, flat_cfg,
                            index=np.arange(2)[:, None])
    assert yf.shape == (2,)
    with pytest.raises(ValueError, match="constants"):
        N.model_forward(Tensor(np.zeros((6, 12, 6)), requires_grad=True), params, cfg,
                        index=idx)


def test_model_forward_train_mode_is_seed_deterministic(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    frames = rng.normal(size=(2, 3, 12, 6))
    ya, _ = materialized_forward(frames, params, cfg, "train", np.random.default_rng(9))
    yb, _ = materialized_forward(frames, params, cfg, "train", np.random.default_rng(9))
    np.testing.assert_array_equal(ya.data, yb.data)


def test_predict_scales_and_leaves_grads_untouched(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    frames = rng.normal(size=(2, 3, 12, 6))
    y, _ = materialized_forward(frames, params, cfg)
    np.testing.assert_allclose(
        N.predict(frames, params, cfg, label_scale=125.0), y.data * 125.0,
        atol=1e-12,
    )
    for p in params.values():
        np.testing.assert_array_equal(p.grad, 0.0)


def test_predict_chunks_match_direct_forward_bit_for_bit(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    frames = rng.normal(size=(7, 3, 12, 6))
    expected = np.concatenate([
        materialized_forward(frames[lo : lo + 3], params, cfg)[0].data * 40.0
        for lo in (0, 3, 6)
    ])
    got = N.predict(frames, params, cfg, label_scale=40.0, chunk=3)
    assert got.shape == (7,)
    np.testing.assert_array_equal(got, expected)
    with pytest.raises(ValueError, match="chunk"):
        N.predict(frames, params, cfg, chunk=0)


def test_predict_accepts_single_sequence(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    seq = rng.normal(size=(3, 12, 6))
    got = N.predict(seq, params, cfg, label_scale=2.0)
    assert got.shape == (1,)
    np.testing.assert_array_equal(got, N.predict(seq[None], params, cfg, 2.0))


def test_sequence_predictions_forward_calls_per_chunk(rng, monkeypatch):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    frames = rng.normal(size=(12, 12, 6))
    labels = np.linspace(1.0, 0.0, 12)
    uids = np.array(["a"] * 7 + ["b"] * 5)
    n = (7 - 2) + (5 - 2)  # sequences of length 3 per unit
    calls = []
    forward = N.model_forward

    def counting_forward(x, *args, **kwargs):
        calls.append(kwargs["index"].shape[0])  # sequences in this forward
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(N, "model_forward", counting_forward)
    for k in (1, 3, 8, 100):
        calls.clear()
        preds, _, _ = E.sequence_predictions(params, cfg, frames, labels, uids, 3,
                                             chunk=k)
        assert preds.shape == (n,)
        assert len(calls) == -(-n // k)
        assert sum(calls) == n


def materialized_chunks(x, params, cfg, label_scale, chunk):
    """Dense scoring as it was before frames were scored once: one
    forward per ``chunk`` materialized sequences."""
    return np.concatenate([
        materialized_forward(x[lo : lo + chunk], params, cfg)[0].data * label_scale
        for lo in range(0, x.shape[0], chunk)
    ])


def assert_rel_close(got, ref, rtol=1e-12):
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * scale)


def test_frame_once_predict_matches_materialized(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    frames = rng.normal(size=(3 * 9, 12, 6))
    uids = np.repeat(np.array(["a", "b", "c"]), 9)
    idx = TR.sequence_index(uids, cfg.sequence_length)
    x = frames[idx]
    got = N.predict(frames, params, cfg, 125.0, index=idx)
    assert got.shape == (idx.shape[0],)
    assert_rel_close(got, N.predict(x, params, cfg, 125.0))
    assert_rel_close(got, materialized_chunks(x, params, cfg, 125.0, 256))
    # the sequences may come in any order and share frames across blocks
    perm = rng.permutation(idx.shape[0])
    assert_rel_close(N.predict(frames, params, cfg, 125.0, chunk=4, index=idx[perm]),
                     got[perm])


def test_model_forward_with_index(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    frames = rng.normal(size=(5, 12, 6))
    idx = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 0, 4]])
    y, coupling = N.model_forward(frames, params, cfg, index=idx)
    assert coupling.shape == (5, 24, 2)  # per distinct frame
    ref, _ = materialized_forward(frames[idx], params, cfg)
    assert_rel_close(y.data, ref.data)
    # frames no sequence names are never read; the coupling is that of
    # the named frames, in ascending frame order
    padded = np.concatenate([np.full((2, 12, 6), np.nan), frames])
    y2, coupling2 = N.model_forward(padded, params, cfg, index=idx[[3, 0]] + 2)
    assert_rel_close(y2.data, y.data[[3, 0]])
    np.testing.assert_allclose(coupling2, coupling[[0, 1, 2, 4]], atol=1e-12)
    with pytest.raises(ValueError, match="rank"):
        N.model_forward(frames[idx], params, cfg, index=idx)
    with pytest.raises(ValueError, match="index"):
        N.predict(frames, params, cfg, index=idx[0])


# the two time-mixing geometries of test_capsule_count_matches_walking_oracle:
# a capsule row reads k = 5 frame rows, and starts s = 4 or 3 rows after
# the previous one
TIME_MIXING = [
    dict(conv_kernel=(3, 2), conv_stride=(2, 1), caps_kernel=(2, 2), caps_stride=(2, 1)),
    dict(window_length=20, in_channels=9, conv_kernel=(2, 3), conv_stride=(1, 2),
         caps_kernel=(4, 1), caps_stride=(3, 1)),
]


@pytest.mark.parametrize("geometry", TIME_MIXING)
def test_capsule_row_patches_are_distinct_frame_row_runs(geometry):
    cfg = tiny_config(**geometry)
    k, s = 5, (4 if cfg.window_length == 12 else 3)
    hc = cfg.caps_out_hw[0]
    frames = sliding_frames(np.random.default_rng(30).normal(
        size=(2, cfg.window_length + 9, cfg.in_channels)), cfg.window_length)
    patches, index = N.capsule_row_patches(frames, cfg)
    assert index.shape == (20, hc)
    for f in range(20):
        for r in range(hc):
            np.testing.assert_array_equal(patches[index[f, r]],
                                          frames[f, r * s : r * s + k])
    # each distinct run once
    n = np.unique(index).size
    runs = {frames[f, r * s : r * s + k].tobytes() for f in range(20) for r in range(hc)}
    assert n == len(runs) < index.size and index.max() == n - 1
    assert patches.shape[0] == n


def byte_path_patches(frames):
    """Distinct patches of stride-1 one-row capsule rows by raw bytes:
    the (patches, index) of capsule_row_patches."""
    rows = np.ascontiguousarray(frames).reshape(-1, frames.shape[2])
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first][:, None], inverse.reshape(frames.shape[:2])


def test_capsule_row_patches_key_collision_falls_back_to_bytes(monkeypatch):
    cfg = tiny_config()
    frames = sliding_frames(np.random.default_rng(33).normal(size=(2, 21, 6)), 12)
    ref_patches, ref_index = byte_path_patches(frames)
    assert ref_patches.shape[0] == 42
    patches, index = N.capsule_row_patches(frames, cfg)
    np.testing.assert_array_equal(patches[index], frames[..., None, :])
    # every key equal: the bit check sees the collision
    monkeypatch.setattr(N, "_row_keys", lambda bits: np.zeros(len(bits), np.int64))
    patches, index = N.capsule_row_patches(frames, cfg)
    np.testing.assert_array_equal(index, ref_index)
    np.testing.assert_array_equal(patches[:42], ref_patches)
    assert patches.shape[0] == 42


def test_capsule_row_patches_tell_negative_zero_apart():
    cfg = tiny_config()
    frames = np.zeros((3, 12, 6))
    frames[1, 4, 2] = -0.0
    frames[2, :, :] = -0.0
    patches, index = N.capsule_row_patches(frames, cfg)
    # rows of +0.0, rows of -0.0, and +0.0 rows but for one -0.0
    assert np.unique(index).size == 3
    assert len({index[0, 0], index[2, 0], index[1, 4]}) == 3
    bits = patches[index].view(np.uint64)
    np.testing.assert_array_equal(bits, frames[..., None, :].view(np.uint64))


@pytest.mark.parametrize("geometry", TIME_MIXING)
def test_patch_path_matches_per_frame_chain_at_time_mixing_geometries(geometry):
    """model_forward on sliding-window frames with a (B, S) index gives
    the outputs and every parameter gradient of the stage-by-stage chain
    on whole materialized frames."""
    cfg = tiny_config(**geometry)
    rng = np.random.default_rng(31)
    params = N.init_parameters(cfg, rng)
    for p in params.values():
        p.data = p.data + rng.normal(0.0, 0.1, size=p.data.shape)
    frames = sliding_frames(rng.normal(size=(2, cfg.window_length + 9, cfg.in_channels)),
                            cfg.window_length)
    index = TR.sequence_index(np.repeat(np.arange(2), 10), cfg.sequence_length)
    weights = Tensor(rng.normal(size=index.shape[0]))
    outs, grads = [], []
    for indexed in (True, False):
        for p in params.values():
            p.grad[...] = 0.0
        drop = np.random.default_rng(32)
        if indexed:
            y, _ = N.model_forward(frames, params, cfg, "train", drop, index=index)
        else:
            y, _ = per_frame_forward(frames[index], params, cfg, "train", drop)
        backward(T.reduce_sum(oracles.product(y, weights)))
        outs.append(y.data)
        grads.append({k: p.grad.copy() for k, p in params.items()})
    for name, got, ref in [("y", *outs)] + [(k, grads[0][k], g) for k, g in grads[1].items()]:
        scale = np.max(np.abs(ref))
        assert scale > 0.0, name
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * scale, err_msg=name)


def test_desk_validation_set_is_one_forward(monkeypatch):
    # configs/synthetic_small.json: 6 sensors + 2 slow features, window 31
    # (what the desk benchmark pins), units up to 200 cycles long, 2 of
    # the 12 training units held out for validation
    cfg = C.load_config(str(CONFIGS / "synthetic_small.json"))
    model_cfg = C.resolve_model_config(cfg, frame_channels=8, num_slow=2,
                                       plain_channels=6, window=31)
    per_unit = 200 - 31 + 1
    n_val = round(cfg["training"]["validation_fraction"] * cfg["synthetic"]["units"])
    assert n_val * per_unit <= 512  # predict's default chunk
    rng = np.random.default_rng(8)
    n = 20 + n_val * per_unit
    uids = np.array(["t"] * 20 + [f"v{i // per_unit}" for i in range(n - 20)])
    batch = FrameBatch(rng.normal(size=(n, 31, 8)), rng.uniform(size=n), uids)
    calls = []
    forward = N.model_forward

    def counting_forward(x, *args, **kwargs):
        calls.append(kwargs.get("mode", "eval"))
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(N, "model_forward", counting_forward)
    tc = TR.TrainConfig(epochs=1, batch_size=32, seed=2)
    TR.train(model_cfg, batch, tc, val_units=[f"v{i}" for i in range(n_val)])
    assert calls.count("eval") == 1


def test_train_val_loss_is_predict_mse(rng):
    cfg = tiny_config(dropout=0.0)
    frames = rng.normal(size=(24, 12, 6))
    labels = np.tile(np.linspace(20.0, 0.0, 8), 3)
    uids = np.repeat(np.array(["a", "b", "c"]), 8)
    batch = FrameBatch(frames, labels, uids)
    tc = TR.TrainConfig(epochs=1, batch_size=4, label_scale=20.0, seed=3)
    params, report = TR.train(cfg, batch, tc, val_units=["b"])
    idx = TR.sequence_index(uids, cfg.sequence_length)
    va = idx[uids[idx[:, -1]] == "b"]
    d = N.predict(frames, params, cfg, index=va) - labels[va[:, -1]] / tc.label_scale
    assert report.val_loss[-1] == float(d @ d) / d.size
    # the materialized validation sequences give the same predictions
    x, _, seq_uids = TR.build_sequences(frames, labels, uids, cfg.sequence_length)
    np.testing.assert_allclose(N.predict(x[seq_uids == "b"], params, cfg),
                               N.predict(frames, params, cfg, index=va), rtol=1e-12)

"""Capsule network stage: geometry, squash, routing, LSTM, full forward."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import numeric_grad, rel_max

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
        return float(T.reduce_sum(T.mul(N.squash(x), Tensor(w))).data)

    loss = T.reduce_sum(T.mul(N.squash(x), Tensor(w)))
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
    backward(T.reduce_sum(T.mul(N.squash(x), Tensor(w))))
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
    backward(T.reduce_sum(T.mul(N.squash(x), Tensor(w))))
    np.testing.assert_array_equal(x.grad, 0.0)
    # |s| ~ 1e-8 sits inside the eps guard, |s| ~ 1e4 near saturation;
    # the steps are 1e-4 and 3e-6 of the entries' scale
    d = rng.normal(size=(4, 8))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    for scale, step in ((1e-8, 1e-12), (1e4, 1e-2)):
        grad, num = _squash_grad_and_fd(d * scale, w, step)
        assert _worst_of_max(grad, num) < 1e-7


# ----------------------------------------------------- votes and coupling


def test_capsule_transform_matches_einsum_and_fd(rng):
    u = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 3, 6, 4)), requires_grad=True)
    out = N.capsule_transform(u, w)
    assert out.shape == (2, 5, 3, 6)
    np.testing.assert_allclose(
        out.data, np.einsum("ijad,nid->nija", w.data, u.data), atol=1e-12
    )
    g = rng.normal(size=out.shape)

    def loss_fn():
        return float(np.sum(N.capsule_transform(u, w).data * g))

    loss = T.reduce_sum(T.mul(N.capsule_transform(u, w), Tensor(g)))
    backward(loss)
    num = numeric_grad(loss_fn, {"u": u.data, "w": w.data})
    assert rel_max(u.grad, num["u"]) < 1e-6
    assert rel_max(w.grad, num["w"]) < 1e-6


def test_capsule_transform_validation(rng):
    with pytest.raises(ValueError, match="ranks"):
        N.capsule_transform(Tensor(np.zeros((5, 4))), Tensor(np.zeros((5, 3, 6, 4))))
    with pytest.raises(ValueError, match="mismatch"):
        N.capsule_transform(
            Tensor(np.zeros((2, 6, 4))), Tensor(np.zeros((5, 3, 6, 4)))
        )


def test_capsule_transform_non_finite_vote_raises(rng):
    # the votes are a transposed view of the batched product; one
    # overflowing vote in it must still fail the finite check
    u = rng.normal(size=(2, 5, 4))
    u[1, 3] = 10.0
    w = rng.normal(size=(5, 3, 6, 4))
    w[3, 1, 2] = 1e308
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        N.capsule_transform(Tensor(u), Tensor(w))


def test_capsule_weighted_sum_matches_einsum_and_fd(rng):
    uh = Tensor(rng.normal(size=(2, 5, 3, 6)), requires_grad=True)
    c = rng.dirichlet(np.ones(3), size=(2, 5))
    out = N.capsule_weighted_sum(uh, c)
    assert out.shape == (2, 3, 6)
    np.testing.assert_allclose(
        out.data, np.einsum("nij,nija->nja", c, uh.data), atol=1e-12
    )
    g = rng.normal(size=out.shape)

    def loss_fn():
        return float(np.sum(N.capsule_weighted_sum(uh, c).data * g))

    loss = T.reduce_sum(T.mul(N.capsule_weighted_sum(uh, c), Tensor(g)))
    backward(loss)
    # the loss is linear in the votes, so the gradient has a closed form
    # and a wide finite-difference step adds no truncation error while
    # keeping rounding noise far below the bound
    np.testing.assert_allclose(uh.grad, c[..., None] * g[:, None], rtol=0, atol=1e-15)
    num = numeric_grad(loss_fn, {"uh": uh.data}, eps=1e-2)
    assert rel_max(uh.grad, num["uh"]) < 1e-6
    with pytest.raises(ValueError, match="coupling"):
        N.capsule_weighted_sum(uh, c[:, :4])


# ---------------------------------------------------------------- routing


def test_routing_hand_example():
    # one basic capsule voting for two advanced capsules in the plane
    uh = np.array([[[[2.0, 0.0], [0.0, 1.0]]]])  # (1, 1, 2, 2)
    c1, _ = N.routing_coefficients(uh, 1)
    np.testing.assert_allclose(c1[0, 0], [0.5, 0.5], atol=1e-12)
    # uniform coupling: s1=(1,0) squashes to (0.5,0), s2=(0,0.5) to (0,0.2),
    # so the agreement update gives logits (2*0.5, 1*0.2) = (1.0, 0.2)
    c2, b1 = N.routing_coefficients(uh, 2)
    np.testing.assert_allclose(b1[0, 0], [1.0, 0.2], atol=1e-9)
    np.testing.assert_allclose(c2[0, 0], [0.6900, 0.3100], atol=5e-5)
    e = np.exp([1.0, 0.2])
    np.testing.assert_allclose(c2[0, 0], e / e.sum(), atol=1e-9)


def test_routing_matches_oracle(rng):
    uh = rng.normal(size=(2, 6, 3, 4))
    for r in range(1, 5):
        c, b = N.routing_coefficients(uh, r)
        oc, _, _ = oracles.routing_oracle(uh, r)
        # the logits the returned coupling is the softmax of: r - 1
        # agreement updates (zeros at r = 1)
        _, ob, _ = oracles.routing_oracle(uh, r - 1)
        np.testing.assert_allclose(c, oc, atol=1e-10)
        np.testing.assert_allclose(b, ob, atol=1e-10)
        np.testing.assert_allclose(c.sum(axis=2), 1.0, atol=1e-12)


def test_routing_validation(rng):
    uh = rng.normal(size=(1, 4, 2, 3))
    with pytest.raises(ValueError):
        N.routing_coefficients(uh, 0)


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
    uh = N.capsule_transform(u, params["route.transform"]).data
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
    backward(T.reduce_sum(T.mul(v, Tensor(g))))
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
        return T.reduce_sum(T.mul(N.lstm_forward(x, params, cfg), weights))

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
    backward(T.reduce_sum(T.mul(N.lstm_forward(x, params, cfg), weights)))
    assert all(p.grad is None for p in params.values())
    tracked = {k: Tensor(p.data, requires_grad=True) for k, p in params.items()}
    x_all = Tensor(seq.copy(), requires_grad=True)
    backward(T.reduce_sum(T.mul(N.lstm_forward(x_all, tracked, cfg), weights)))
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


# ----------------------------------------------------------- full forward


def test_model_forward_shapes_and_batch_invariance(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    frames = rng.normal(size=(2, 3, 12, 6))
    y, coupling = N.model_forward(frames, params, cfg)
    assert y.shape == (2,)
    assert coupling.shape == (6, 24, 2)  # flat B*S frame batch
    for i in range(2):
        yi, _ = N.model_forward(frames[i], params, cfg)  # rank-3 promotion
        np.testing.assert_allclose(yi.data, y.data[i : i + 1], atol=1e-10)


def test_model_forward_validation(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    with pytest.raises(ValueError, match="geometry"):
        N.model_forward(np.zeros((2, 3, 11, 6)), params, cfg)
    with pytest.raises(ValueError, match="rank"):
        N.model_forward(np.zeros((2, 3, 12, 6, 1)), params, cfg)
    flat_cfg = tiny_config(use_lstm=False, sequence_length=1)
    flat_params = N.init_parameters(flat_cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match="sequence"):
        N.model_forward(np.zeros((2, 3, 12, 6)), flat_params, flat_cfg)
    yf, _ = N.model_forward(np.zeros((2, 1, 12, 6)), flat_params, flat_cfg)
    assert yf.shape == (2,)


def test_model_forward_train_mode_is_seed_deterministic(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    frames = rng.normal(size=(2, 3, 12, 6))
    ya, _ = N.model_forward(frames, params, cfg, "train", np.random.default_rng(9))
    yb, _ = N.model_forward(frames, params, cfg, "train", np.random.default_rng(9))
    np.testing.assert_array_equal(ya.data, yb.data)


def test_predict_scales_and_leaves_grads_untouched(rng):
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    frames = rng.normal(size=(2, 3, 12, 6))
    y, _ = N.model_forward(frames, params, cfg)
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
        N.model_forward(frames[lo : lo + 3], params, cfg)[0].data * 40.0
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
        N.model_forward(x[lo : lo + chunk], params, cfg)[0].data * label_scale
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
    ref, _ = N.model_forward(frames[idx], params, cfg)
    assert_rel_close(y.data, ref.data)
    with pytest.raises(ValueError, match="rank"):
        N.model_forward(frames[idx], params, cfg, index=idx)
    with pytest.raises(ValueError, match="index"):
        N.predict(frames, params, cfg, index=idx[0])


def test_desk_validation_set_is_one_forward(monkeypatch):
    # configs/synthetic_small.json: 6 sensors + 2 slow features, window 31
    # (what the desk benchmark pins), units up to 200 cycles long, 2 of
    # the 12 training units held out for validation
    cfg = C.load_config(str(CONFIGS / "synthetic_small.json"))
    model_cfg = C.resolve_model_config(cfg, frame_channels=8, num_slow=2,
                                       plain_channels=6, window=31)
    per_unit = 200 - 31 + 1
    n_val = round(cfg["training"]["validation_fraction"] * cfg["synthetic"]["units"])
    assert n_val * per_unit <= N.BLOCK_BYTES // model_cfg.conv_map_bytes
    rng = np.random.default_rng(8)
    n = 20 + n_val * per_unit
    uids = np.array(["t"] * 20 + [f"v{i // per_unit}" for i in range(n - 20)])
    batch = FrameBatch(rng.normal(size=(n, 31, 8)), rng.uniform(size=n), uids,
                       np.zeros(n, dtype=int))
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
    batch = FrameBatch(frames, labels, uids, np.tile(np.arange(8), 3))
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

"""Checks at the FD001 protocol geometry the hot kernels are tuned for.

Window 28, 16 frame channels (14 sensors + 2 slow features), 64 filters
of (1, 2)/(1, 2), a full-width (1, 8) capsule kernel giving 224 basic
capsules of dimension 8, two advanced capsules of dimension 16, an LSTM
of 16 units and the (200, 100, 1) head.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import slowcaps
from slowcaps import evaluation as E
from slowcaps import network as N
from slowcaps import tensor as T
from slowcaps import training as TR
from slowcaps.tensor import Tensor, backward


def fd001_config(**kw) -> N.ModelConfig:
    base = dict(window_length=28, in_channels=16, conv_filters=64,
                conv_kernel=(1, 2), conv_stride=(1, 2), caps_dim=8,
                caps_channels=8, caps_kernel=(1, 8), num_advanced=2,
                advanced_dim=16, routing_iterations=3, lstm_units=16,
                sequence_length=5, fnn_widths=(200, 100, 1), dropout=0.2)
    base.update(kw)
    return N.ModelConfig(**base)


def test_fd001_geometry_gradient_spot_check():
    """Central differences on three random coordinates of every parameter."""
    start = time.monotonic()
    config = fd001_config(dropout=0.0)
    assert config.num_basic_capsules == 224
    rng = np.random.default_rng(11)
    params = N.init_parameters(config, rng)
    # move off the symmetric initialization to a generic point
    for p in params.values():
        p.data = p.data + rng.normal(0.0, 0.3, size=p.data.shape)
    frames = rng.normal(0.0, 0.8, size=(2, 5, 28, 16))
    targets = rng.normal(0.0, 1.0, size=2)

    # freeze the routing coupling so the measured loss is the same
    # function the backward pass differentiates
    _, coupling = N.model_forward(frames, params, config)
    coupling = coupling.copy()

    def loss_tensor():
        y, _ = N.model_forward(frames, params, config, coupling_override=coupling)
        d = T.sub(y, Tensor(targets))
        return T.reduce_mean(T.mul(d, d))

    def relu_pattern():
        """Signs of every hidden-layer input of the head."""
        with T.no_grad():
            flat = T.reshape(Tensor(frames), (10, 28, 16, 1))
            u = N.build_basic_capsules(N.conv_features(flat, params, config),
                                       params, config)
            v, _ = N.dynamic_routing(u, params, config, coupling_override=coupling)
            z = N.lstm_forward(T.reshape(v, (2, 5, config.advanced_flat_size)),
                               params, config).data
        signs = []
        for li in range(len(config.fnn_widths) - 1):
            z = z @ params[f"fnn.{li}.weight"].data + params[f"fnn.{li}.bias"].data
            signs.append(z > 0.0)
            z = np.maximum(z, 0.0)
        return np.concatenate([s.ravel() for s in signs])

    backward(loss_tensor())
    pattern = relu_pattern()
    eps = 1e-5
    pick = np.random.default_rng(12)
    checked = 0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in pick.choice(flat.size, size=min(3, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + eps
            with T.no_grad():
                lp = float(loss_tensor().data)
            # fixture health: the step may not move any hidden-layer
            # input across its relu kink
            assert np.array_equal(relu_pattern(), pattern), f"{name}[{i}] + eps"
            flat[i] = keep - eps
            with T.no_grad():
                lm = float(loss_tensor().data)
            assert np.array_equal(relu_pattern(), pattern), f"{name}[{i}] - eps"
            flat[i] = keep
            num = (lp - lm) / (2.0 * eps)
            rel = abs(grad[i] - num) / max(abs(grad[i]), abs(num), 1e-6)
            assert rel < 1e-4, f"{name}[{i}]: grad {grad[i]} vs fd {num}"
            checked += 1
    assert checked == sum(min(3, p.data.size) for p in params.values())
    assert time.monotonic() - start < 10.0


FRONT_END_STEPS = """
import hashlib
import numpy as np
from slowcaps import network as N
from slowcaps import tensor as T
from slowcaps.optim import Adam
from test_fd001_geometry import fd001_config

config = fd001_config()
rng = np.random.default_rng(21)
params = N.init_parameters(config, rng)
front = {k: p for k, p in params.items() if not k.startswith("fnn.")}
adam = Adam(front)
digest = hashlib.sha256()
for _ in range(3):
    frames = T.Tensor(rng.normal(size=(320, 28, 16, 1)))
    weights = T.Tensor(rng.normal(size=(64, 16)))
    u = N.build_basic_capsules(N.conv_features(frames, params, config), params, config)
    v, _ = N.dynamic_routing(u, params, config)
    h = N.lstm_forward(T.reshape(v, (64, 5, 32)), params, config)
    with T.no_grad():
        votes = N.capsule_transform(u, params["route.transform"]).data
    digest.update(v.data.tobytes())
    digest.update(h.data.tobytes())
    digest.update(np.ascontiguousarray(
        N.routing_coefficients(votes, config.routing_iterations)[1]).tobytes())
    adam.zero_grad()
    T.backward(T.reduce_sum(T.mul(h, weights)))
    for name in sorted(front):
        digest.update(front[name].grad.tobytes())
    adam.step()
for name in sorted(front):
    digest.update(front[name].data.tobytes())
print(digest.hexdigest())
"""


def test_fd001_capsule_stages_ignore_blas_thread_count():
    """Conv, capsule, routing and LSTM stages give byte-identical
    outputs, gradients and parameters over three Adam steps on a
    64 x 5 batch on 1 and 2 BLAS threads.

    Only the head is not covered: OpenBLAS computes its
    (64 x 200) @ (200 x 100) product of a 64-sequence batch with
    different rounding on 1 and 2 threads (see README).
    """
    src = str(Path(slowcaps.__file__).resolve().parent.parent)
    here = str(Path(__file__).resolve().parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, here]))
        run = subprocess.run([sys.executable, "-c", FRONT_END_STEPS], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert len(digests[0]) == len(hashlib.sha256().hexdigest())
    assert digests[0] == digests[1]


def test_fd001_training_step_tape_nodes():
    """23 parameters, 10 nodes from the frames to the LSTM's one node,
    11 in the head and 3 in the loss."""
    config = fd001_config()
    rng = np.random.default_rng(14)
    params = N.init_parameters(config, rng)
    frames = rng.normal(0.0, 0.8, size=(4, 5, 28, 16))
    loss, _ = TR._forward_loss(frames, rng.normal(size=4), params, config, "train", rng)
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    assert len(seen) <= 47


def fd001_units(rng, units=3, per_unit=30):
    frames = rng.normal(0.0, 0.8, size=(units * per_unit, 28, 16))
    labels = np.tile(np.linspace(125.0, 0.0, per_unit), units)
    uids = np.repeat(np.arange(units), per_unit)
    return frames, labels, uids


def test_fd001_frame_once_predict_matches_materialized():
    config = fd001_config()
    rng = np.random.default_rng(12)
    params = N.init_parameters(config, rng)
    frames, _, uids = fd001_units(rng)
    idx = TR.sequence_index(uids, 5)
    x = frames[idx]
    got = N.predict(frames, params, config, 125.0, index=idx)
    # materialized sequences through the same blocks, and one forward per
    # 256 materialized sequences as dense scoring did before
    refs = [N.predict(x, params, config, 125.0),
            np.concatenate([N.model_forward(x[lo : lo + 256], params, config)[0].data
                            for lo in range(0, x.shape[0], 256)]) * 125.0]
    for ref in refs:
        tol = 1e-12 * np.max(np.abs(ref))
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=tol)


def test_fd001_dense_forwards_stay_within_the_block_budget(monkeypatch):
    config = fd001_config()
    budget = N.BLOCK_BYTES // config.conv_map_bytes
    assert budget == 73  # 8 MiB over 28 x 8 x 64 doubles per frame
    rng = np.random.default_rng(13)
    params = N.init_parameters(config, rng)
    frames, labels, uids = fd001_units(rng)
    sizes = []
    forward = N.model_forward

    def counting_forward(x, *args, **kwargs):
        sizes.append(x.shape[0])
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(N, "model_forward", counting_forward)
    preds, _, _ = E.sequence_predictions(params, config, frames, labels, uids, 5,
                                         125.0, chunk=256)
    assert preds.shape == (3 * 26,)
    assert max(sizes) <= budget
    # 90 distinct frames: two blocks, sharing at most S - 1 = 4 frames
    assert len(sizes) == 2 and sum(sizes) <= 90 + 4

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
from conftest import materialized_forward, per_frame_forward, sliding_frames

import slowcaps
from slowcaps import network as N
from slowcaps import tensor as T
from slowcaps import training as TR
from slowcaps.tensor import Tensor, backward

import oracles


def fd001_config(**kw) -> N.ModelConfig:
    base = dict(window_length=28, in_channels=16, conv_filters=64,
                conv_kernel=(1, 2), conv_stride=(1, 2), caps_dim=8,
                caps_channels=8, caps_kernel=(1, 8), num_advanced=2,
                advanced_dim=16, routing_iterations=3, lstm_units=16,
                sequence_length=5, fnn_widths=(200, 100, 1), dropout=0.2)
    base.update(kw)
    return N.ModelConfig(**base)


def spot_check_inputs(rng, kind: str):
    """Model inputs ``(frames, index)`` of a small FD001-geometry batch;
    the index names each of the 10 frames.

    ``"materialized"``: two sequences of random frames, each naming its
    own 5.  ``"indexed"``: four sequences of one 10-frame unit, one
    repeated and all sharing frames, as in a training step; the 280 rows
    of its random frames are 280 distinct patches.
    ``"sliding"``: the same sequences over the 10 sliding windows of one
    37-row series, whose frames share rows: 37 distinct patches.
    """
    if kind == "sliding":
        pool = sliding_frames(rng.normal(0.0, 0.8, size=(1, 37, 16)), 28)
    else:
        pool = rng.normal(0.0, 0.8, size=(10, 28, 16))
    if kind == "materialized":
        return pool, np.arange(10).reshape(2, 5)
    index = TR.sequence_index(np.zeros(10), 5)[[0, 2, 5, 0]]
    assert np.unique(index).size == 10
    patches, _ = N.capsule_row_patches(pool, fd001_config())
    assert patches.shape[0] == (37 if kind == "sliding" else 280)
    return pool, index


def test_fd001_geometry_gradient_spot_check():
    """Central differences on three random coordinates of every parameter."""
    spot_check("materialized")


def test_fd001_geometry_gradient_spot_check_indexed():
    """The same check through the distinct-frames-plus-index path of a
    training step, with repeated frames."""
    spot_check("indexed")


def test_fd001_geometry_gradient_spot_check_sliding():
    """The same check on sliding-window frames, whose shared rows each
    feed one patch that several frames' votes read."""
    spot_check("sliding")


def spot_check(kind: str):
    start = time.monotonic()
    config = fd001_config(dropout=0.0)
    assert config.num_basic_capsules == 224
    rng = np.random.default_rng(11)
    params = N.init_parameters(config, rng)
    # move off the symmetric initialization to a generic point
    for p in params.values():
        p.data = p.data + rng.normal(0.0, 0.3, size=p.data.shape)
    frames, index = spot_check_inputs(rng, kind)
    targets = rng.normal(0.0, 1.0, size=index.shape[0])

    # freeze the routing coupling so the measured loss is the same
    # function the backward pass differentiates
    _, coupling = N.model_forward(frames, params, config, index=index)
    coupling = coupling.copy()

    def loss_tensor():
        y, _ = N.model_forward(frames, params, config, coupling_override=coupling,
                               index=index)
        return N.mse_loss(y, targets)

    def relu_pattern():
        """Signs of every hidden-layer input of the head."""
        with T.no_grad():
            flat = Tensor(frames[..., None])
            u = N.build_basic_capsules(N.conv_features(flat, params, config),
                                       params, config)
            v, _ = N.dynamic_routing(u, params, config, coupling_override=coupling)
            v = T.reshape(v, (len(frames), config.advanced_flat_size))
            z = N.lstm_forward(T.take_rows(v, index), params, config).data
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


def test_fd001_sliding_window_training_step_matches_per_frame_chain():
    """A 64-sequence batch of the sliding windows over a 3 x 57-row fleet
    names each row in up to 28 frames; scoring each distinct patch once
    and gathering gives all 23 gradients of the stage-by-stage chain on
    whole materialized frames."""
    config = fd001_config()
    rng = np.random.default_rng(17)
    params = N.init_parameters(config, rng)
    for p in params.values():
        p.data = p.data + rng.normal(0.0, 0.1, size=p.data.shape)
    frames = sliding_frames(rng.normal(0.0, 0.8, size=(3, 57, 16)), 28)
    index = TR.sequence_index(np.repeat(np.arange(3), 30), 5)[rng.permutation(78)[:64]]
    y = np.linspace(1.0, 0.0, 90)[index[:, -1]]
    used = np.unique(index)
    patches, _ = N.capsule_row_patches(frames[used], config)
    assert patches.shape[0] < used.size * 28 / 5

    grads = []
    for indexed in (True, False):
        for p in params.values():
            p.grad[...] = 0.0
        drop = np.random.default_rng(18)
        if indexed:
            loss = TR._forward_loss(frames, index, y, params, config, "train", drop)
        else:
            pred, _ = per_frame_forward(frames[index], params, config, "train", drop)
            loss = N.mse_loss(pred, y)
        backward(loss)
        grads.append({k: p.grad.copy() for k, p in params.items()})
    got, ref = grads
    assert len(ref) == 23
    for name, r in ref.items():
        scale = np.max(np.abs(r))
        assert scale > 0.0, name
        np.testing.assert_allclose(got[name], r, rtol=0.0, atol=1e-12 * scale,
                                   err_msg=name)


def test_fd001_indexed_training_step_matches_materialized():
    """A 64-sequence batch of a 3 x 30-frame fleet names each of its
    frames several times; scoring the distinct frames once and gathering
    gives all 23 gradients of the materialized step."""
    config = fd001_config()
    rng = np.random.default_rng(15)
    params = N.init_parameters(config, rng)
    for p in params.values():
        p.data = p.data + rng.normal(0.0, 0.1, size=p.data.shape)
    frames, labels, uids = fd001_units(rng)
    index = TR.sequence_index(uids, 5)[rng.permutation(78)[:64]]
    assert np.unique(index).size < index.size / 3
    y = labels[index[:, -1]] / 125.0

    grads = []
    for indexed in (True, False):
        for p in params.values():
            p.grad[...] = 0.0
        drop = np.random.default_rng(16)
        if indexed:
            loss = TR._forward_loss(frames, index, y, params, config, "train", drop)
        else:
            pred, _ = materialized_forward(frames[index], params, config, mode="train",
                                           rng=drop)
            loss = N.mse_loss(pred, y)
        backward(loss)
        grads.append({k: p.grad.copy() for k, p in params.items()})
    got, ref = grads
    assert len(ref) == 23
    for name, r in ref.items():
        scale = np.max(np.abs(r))
        assert scale > 0.0, name
        np.testing.assert_allclose(got[name], r, rtol=0.0, atol=1e-12 * scale,
                                   err_msg=name)


FRONT_END_STEPS = """
import hashlib
import numpy as np
from slowcaps import network as N
from slowcaps import tensor as T
from slowcaps import training as TR
from slowcaps.optim import Adam
from conftest import sliding_frames
from test_fd001_geometry import fd001_config
import oracles

config = fd001_config()
rng = np.random.default_rng(21)
params = N.init_parameters(config, rng)
front = {k: p for k, p in params.items() if not k.startswith("fnn.")}
adam = Adam(front)
digest = hashlib.sha256()
# three materialized 64 x 5 batches scored as whole frames; then through
# model_forward's patches and index, from the sliding windows over a
# 3 x 125-row fleet, a deduplicated 64 x 5 batch and the 26-sequence
# tail of an epoch, a 26 x 5 batch of 130 random frames, and a 64 x 5
# batch of 320 distinct sliding-window frames (the most a shipped batch
# names: the routed sum's weight gradient reduces over them)
batches = [(rng.normal(size=(320, 28, 16)), None) for _ in range(3)]
pool = sliding_frames(rng.normal(size=(3, 125, 16)), 28)
index = TR.sequence_index(np.repeat(np.arange(3), 98), 5)[rng.permutation(282)]
for sel in (index[:64], index[256:]):
    used, local = np.unique(sel, return_inverse=True)
    batches.append((pool[used], local.reshape(sel.shape)))
batches.append((rng.normal(size=(130, 28, 16)), np.arange(130).reshape(26, 5)))
batches.append((sliding_frames(rng.normal(size=(1, 347, 16)), 28),
                np.arange(320).reshape(64, 5)))
distinct = []
for frames, local in batches:
    # whole frames: each frame is one patch of all its capsules
    images, patch_index = frames, np.arange(len(frames))[:, None]
    if local is not None:
        images, patch_index = N.capsule_row_patches(frames, config)
        distinct.append(np.unique(patch_index).size)
        assert images.shape[0] == distinct[-1]
    u = N.build_basic_capsules(N.conv_features(T.Tensor(images[..., None]), params, config),
                               params, config)
    v, _ = N.dynamic_routing(u, params, config, index=patch_index)
    v = T.reshape(v, (frames.shape[0], 32))
    seq = T.reshape(v, (64, 5, 32)) if local is None else T.take_rows(v, local)
    h = N.lstm_forward(seq, params, config)
    weights = T.Tensor(rng.normal(size=h.shape))
    uf, wj = N.capsule_transform(u, params["route.transform"], patch_index)
    logits = N.routing_coefficients(uf, wj, config.routing_iterations)[1]
    digest.update(v.data.tobytes())
    digest.update(h.data.tobytes())
    digest.update(logits.tobytes())
    adam.zero_grad()
    T.backward(T.reduce_sum(oracles.product(h, weights)))
    # the routed sum's gradient into the capsules, then every front-end
    # parameter's, route.transform among them
    digest.update(u.grad.tobytes())
    for name in sorted(front):
        digest.update(front[name].grad.tobytes())
    adam.step()
for name in sorted(front):
    digest.update(front[name].data.tobytes())
# shared rows are scored once; the random frames share none, and their
# patch count is above 384 and no multiple of 32
assert distinct[0] < 28 * 64 and distinct[1] < 28 * 26 and distinct[2] == 3640
assert distinct[3] == 347
print(digest.hexdigest())
"""


def test_fd001_capsule_stages_ignore_blas_thread_count():
    """Conv, capsule, routing and LSTM stages give byte-identical
    outputs, gradients (the capsules' included) and parameters on 1 and
    2 BLAS threads over seven Adam steps: three on materialized 64 x 5
    batches of whole frames, then through the distinct patches of
    model_forward, one on a deduplicated 64 x 5 training batch of
    sliding-window frames, one on a 26-sequence tail batch, one on 130
    random frames and one on 320 distinct frames.  The head is covered
    by the full training steps below.
    """
    assert_same_output_on_1_and_2_threads(FRONT_END_STEPS)


def assert_same_output_on_1_and_2_threads(script: str) -> None:
    """Run ``script`` with 1 and with 2 BLAS threads; it prints one
    sha256 digest, and the two must be equal."""
    src = str(Path(slowcaps.__file__).resolve().parent.parent)
    here = str(Path(__file__).resolve().parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, here]))
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert len(digests[0]) == len(hashlib.sha256().hexdigest())
    assert digests[0] == digests[1]


FULL_STEPS = """
import hashlib
import numpy as np
from slowcaps import network as N
from slowcaps import training as TR
from slowcaps.optim import Adam
from slowcaps.tensor import backward
from conftest import sliding_frames
from test_fd001_geometry import fd001_config

config = fd001_config()
digest = hashlib.sha256()
for seed in (5, 21, 99):
    rng = np.random.default_rng(seed)
    params = N.init_parameters(config, rng)
    adam = Adam(params)
    frames = sliding_frames(rng.normal(size=(3, 125, 16)), 28)
    index = TR.sequence_index(np.repeat(np.arange(3), 98), 5)[rng.permutation(282)]
    y = rng.uniform(size=len(frames))
    for lo in range(0, 256, 64):
        batch = index[lo : lo + 64]
        loss = TR._forward_loss(frames, batch, y[batch[:, -1]], params, config,
                                "train", rng)
        adam.zero_grad()
        backward(loss)
        adam.step()
    for name in sorted(params):
        digest.update(params[name].data.tobytes())
print(digest.hexdigest())
"""


def test_fd001_training_steps_ignore_blas_thread_count():
    """Four full training steps (dropout, head and Adam included) on
    64 x 5 batches of sliding-window frames give byte-identical
    parameters on 1 and 2 BLAS threads, for seeds 5, 21 and 99."""
    assert_same_output_on_1_and_2_threads(FULL_STEPS)


WIDE_STEPS = """
import hashlib
import numpy as np
from slowcaps import network as N
from slowcaps import training as TR
from slowcaps.optim import Adam
from slowcaps.tensor import backward
from conftest import sliding_frames
from test_fd001_geometry import fd001_config

config = fd001_config()
rng = np.random.default_rng(13)
params = N.init_parameters(config, rng)
adam = Adam(params)
# 6 units x 160 rows: 798 sliding-window frames and 774 sequences, 440
# of them in three batches of 128 and a tail of 56
frames = sliding_frames(rng.normal(size=(6, 160, 16)), 28)
index = TR.sequence_index(np.repeat(np.arange(6), 133), 5)[rng.permutation(774)[:440]]
y = rng.uniform(size=len(frames))
distinct = []
for lo in range(0, 440, 128):
    batch = index[lo : lo + 128]
    distinct.append(np.unique(batch).size)
    loss = TR._forward_loss(frames, batch, y[batch[:, -1]], params, config, "train", rng)
    adam.zero_grad()
    backward(loss)
    adam.step()
assert min(distinct[:3]) > 384, distinct
digest = hashlib.sha256()
for name in sorted(params):
    digest.update(params[name].data.tobytes())
print(digest.hexdigest())
"""


def test_fd001_wide_training_steps_ignore_blas_thread_count():
    """Four training steps at batch size 128, three naming more than 384
    distinct frames and a 56-sequence tail, give byte-identical
    parameters on 1 and 2 BLAS threads: every weight gradient's
    reduction over patches, frames, sequence steps or rows is a
    ``T.row_product``."""
    assert_same_output_on_1_and_2_threads(WIDE_STEPS)


REDUCTIONS = """
import hashlib
import numpy as np
from slowcaps import network as N
from slowcaps import tensor as T
from test_fd001_geometry import fd001_config

config = fd001_config()
rng = np.random.default_rng(17)
params = N.init_parameters(config, rng)
digest = hashlib.sha256()

def leaf(*shape):
    return T.Tensor(rng.normal(size=shape), requires_grad=True)

for rows in (100, 385, 419, 700, 1281):
    # routed sum over `rows` frames, the head over `rows` sequences, the
    # LSTM over `rows` // 2 sequences of 5 steps
    params["route.transform"].grad[...] = 0.0
    v, _ = N.dynamic_routing(leaf(rows, 224, 8), params, config)
    T.backward(T.reduce_sum(v))
    digest.update(params["route.transform"].grad.tobytes())
    for p in params.values():
        p.grad[...] = 0.0
    T.backward(T.reduce_sum(N.regression_head(leaf(rows, 16), params, config, "train", rng)))
    for name in sorted(params):
        if name.startswith("fnn."):
            digest.update(params[name].grad.tobytes())
    for p in params.values():
        p.grad[...] = 0.0
    T.backward(T.reduce_sum(N.lstm_forward(leaf(rows // 2, 5, 32), params, config)))
    for name in sorted(params):
        digest.update(params[name].grad.tobytes())
for rows in (423, 455, 487, 1000):
    # the capsule conv's kernel gradient over `rows` (1, 8, 64) maps
    params["caps.kernel"].grad[...] = 0.0
    z = T.conv2d(T.Tensor(rng.normal(size=(rows, 1, 8, 64))), params["caps.kernel"],
                 params["caps.bias"])
    T.backward(T.reduce_sum(z))
    digest.update(params["caps.kernel"].grad.tobytes())
print(digest.hexdigest())
"""


def test_fd001_weight_gradients_ignore_blas_thread_count_at_any_batch_size():
    """The routed sum's, the head's, the LSTM's and the capsule conv's
    weight gradients are byte-identical on 1 and 2 BLAS threads at batch
    sizes where the unpadded products round differently: 385 to 1,281
    frames or rows, 50 to 640 sequences of 5 steps, and 423 to 1,000
    capsule-conv maps."""
    assert_same_output_on_1_and_2_threads(REDUCTIONS)


PREDICT_BLOCK = """
import hashlib
import numpy as np
from slowcaps import network as N
from slowcaps import training as TR
from conftest import sliding_frames
from test_fd001_geometry import fd001_config

config = fd001_config()
rng = np.random.default_rng(41)
params = N.init_parameters(config, rng)
for p in params.values():
    p.data = p.data + rng.normal(0.0, 0.1, size=p.data.shape)
# one unit of 69 sliding-window frames: 65 sequences in one block, so
# the head's products have 65 rows
frames = sliding_frames(rng.normal(size=(1, 96, 16)), 28)
index = TR.sequence_index(np.zeros(69), 5)
print(hashlib.sha256(N.predict(frames, params, config, index=index).tobytes()).hexdigest())
"""


def test_fd001_predict_block_ignores_blas_thread_count():
    """A dense-scoring block of 65 sequences, inside the 51-100 rows at
    which OpenBLAS rounds the unblocked head product differently on 1
    and 2 threads, predicts byte-identically on both."""
    assert_same_output_on_1_and_2_threads(PREDICT_BLOCK)


INFER_PASSES = """
import hashlib
import numpy as np
from slowcaps import evaluation as E
from slowcaps import network as N
from conftest import sliding_frames
from test_fd001_geometry import fd001_config

config = fd001_config()
rng = np.random.default_rng(43)
params = N.init_parameters(config, rng)
for p in params.values():
    p.data = p.data + rng.normal(0.0, 0.1, size=p.data.shape)
digest = hashlib.sha256()
# the fd001-infer pass: 8 units of 98 sliding-window frames, 752
# sequences in 3 blocks of at most 256, about 270 distinct frames each
frames = sliding_frames(rng.normal(size=(8, 125, 16)), 28)
uids = np.repeat(np.arange(8), 98)
preds, _, _ = E.sequence_predictions(params, config, frames, np.zeros(len(frames)),
                                     uids, 5, 125.0, chunk=256)
assert preds.shape == (752,)
digest.update(preds.tobytes())
# a last-point pass: each of 24 units' final materialized sequence, all
# 120 frames in one block
x = sliding_frames(rng.normal(size=(24, 32, 16)), 28).reshape(24, 5, 28, 16)
digest.update(N.predict(x, params, config, 125.0).tobytes())
print(digest.hexdigest())
"""


def test_fd001_inference_passes_ignore_blas_thread_count():
    """A dense pass of ``fd001-infer``'s size, 256 sequences per block,
    and a 24-unit last-point pass in one block predict byte-identically
    on 1 and 2 BLAS threads."""
    assert_same_output_on_1_and_2_threads(INFER_PASSES)


CLI_CHAIN = """
import hashlib
import tempfile
from pathlib import Path
from slowcaps.cli import main

# the benchmark's FD001 fleet: 14 sensors plus 2 slow features, FD001's
# lengths and rul_max; 3 training units, 2 test units
sets = ["dataset=synthetic", "synthetic.channels=14", "synthetic.length_range=[128,362]",
        "synthetic.rul_max=125", "synthetic.units=3", "synthetic.test_units=2"]
with tempfile.TemporaryDirectory() as tmp:
    ws = Path(tmp)
    common = ["--config", FD001_JSON, "--seed", "4", "--data-dir", str(ws / "data")]
    for s in sets:
        common += ["--set", s]
    features = ["--features", str(ws / "feat")]
    for argv in (["synth", "--out", str(ws / "data")],
                 ["fit-features", "--out", str(ws / "feat")],
                 ["train", "--out", str(ws / "model"), "--epochs", "1", *features],
                 ["evaluate", "--out", str(ws / "eval"), "--model", str(ws / "model"),
                  *features]):
        assert main(argv + common) == 0, argv[0]
    digest = hashlib.sha256()
    for name in ("model/checkpoint.json", "eval/report.json"):
        digest.update((ws / name).read_bytes())
print(digest.hexdigest())
"""


def test_fd001_cli_chain_ignores_blas_thread_count():
    """synth, fit-features, one epoch of train and evaluate through the
    CLI at FD001 geometry write byte-identical ``checkpoint.json`` and
    ``report.json`` on 1 and 2 BLAS threads."""
    fd001_json = Path(__file__).resolve().parent.parent / "configs" / "fd001.json"
    assert_same_output_on_1_and_2_threads(CLI_CHAIN.replace("FD001_JSON", repr(str(fd001_json))))


def test_fd001_training_step_tape_nodes():
    """33 nodes: 23 parameters, 8 nodes from the patches to the LSTM's
    one node (routing is one), the head's one node and the loss's one,
    counted by the walk perfbench's tape count makes."""
    config = fd001_config()
    rng = np.random.default_rng(14)
    params = N.init_parameters(config, rng)
    # the training path: four overlapping sequences of 12-frame units,
    # scored once per distinct patch and frame, gathered for the LSTM
    frames, _, uids = fd001_units(rng, per_unit=12)
    index = TR.sequence_index(uids, 5)[[0, 1, 2, 9]]
    loss = TR._forward_loss(frames, index, rng.normal(size=4), params, config, "train", rng)
    seen = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen[id(node)] = node
        stack.extend(node._parents)
    assert len(seen) == 33
    ops = [n._backward.__qualname__ for n in seen.values() if n._backward is not None]
    assert ops.count("mse_loss.<locals>.bw") == 1


def test_fd001_routing_node_gradients_match_fd():
    """Central differences on the routing node's u and W at FD001
    geometry, with the coupling held still: every entry of a patch row
    the frames read four times, and random entries elsewhere; a row no
    frame reads gets exact zeros.  The loss is nonlinear through the
    squash; a 1e-4 step keeps the differences' rounding noise well
    below the bound."""
    config = fd001_config()
    rng = np.random.default_rng(31)
    params = N.init_parameters(config, rng)
    w = params["route.transform"]
    w.data = w.data + rng.normal(0.0, 0.05, size=w.shape)
    # 5 frames of 28 capsule rows read from 40 patch rows: row 3 four
    # times, row 7 never
    others = np.setdiff1d(np.arange(40), [3, 7])
    index = rng.choice(others, size=5 * 28).reshape(5, 28)
    index.ravel()[rng.choice(index.size, size=4, replace=False)] = 3
    assert (index == 3).sum() == 4 and not (index == 7).any()
    u = Tensor(N._squash_np(rng.normal(size=(40, 8, 8))), requires_grad=True)
    _, coupling = N.dynamic_routing(u, params, config, index=index)
    g = rng.normal(size=(5, 2, 16))

    def loss():
        v, _ = N.dynamic_routing(u, params, config, coupling, index)
        return float(np.sum(v.data * g))

    v, _ = N.dynamic_routing(u, params, config, coupling, index)
    backward(T.reduce_sum(oracles.product(v, Tensor(g))))
    assert not u.grad[7].any()
    worst = 0.0
    for t, flat_picks in ((u, np.arange(3 * 64, 4 * 64)),
                          (u, rng.choice(np.arange(8 * 64, u.size), 24, replace=False)),
                          (w, rng.choice(w.size, 40, replace=False))):
        flat, grad = t.data.reshape(-1), t.grad.reshape(-1)
        for i in flat_picks:
            keep = flat[i]
            flat[i] = keep + 1e-4
            lp = loss()
            flat[i] = keep - 1e-4
            lm = loss()
            flat[i] = keep
            num = (lp - lm) / 2e-4
            worst = max(worst, abs(grad[i] - num) / max(abs(grad[i]), abs(num), 1e-6))
    assert worst < 1e-6


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
            np.concatenate([materialized_forward(x[lo : lo + 256], params, config)[0].data
                            for lo in range(0, x.shape[0], 256)]) * 125.0]
    for ref in refs:
        tol = 1e-12 * np.max(np.abs(ref))
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=tol)

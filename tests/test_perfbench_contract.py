"""The benchmark's tracer (``perfbench/spans.py``) against the live modules.

The traced benchmark wraps slowcaps functions at their module attributes
and reads its per-layer metrics from the spans they leave.  A refactor
that calls around one of those names makes a metric read zero without
failing anything, so this test runs a tiny training and a dense scoring
under the tracer and checks that the spans the metrics need are there.
The benchmark also calls slowcaps outside the tracer; those calls run
here at the same tiny config, so a change that breaks them fails a test
and not only the benchmark.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np

from slowcaps import evaluation as E
from slowcaps import network as N
from slowcaps import training as TR
from slowcaps.features import FrameBatch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "config", "data", "pipeline", "network", "tensor", "training",
           "optim", "evaluation", "checkpoint")


def tiny_config():
    return N.ModelConfig(
        window_length=12, in_channels=6, conv_filters=8, caps_dim=4,
        num_advanced=2, advanced_dim=6, routing_iterations=2, lstm_units=5,
        sequence_length=3, fnn_widths=(7, 1), dropout=0.2,
    )


def test_tracer_sees_training_and_dense_scoring(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    sc = {name: importlib.import_module(f"slowcaps.{name}") for name in MODULES}
    rng = np.random.default_rng(5)
    cfg = tiny_config()
    frames = rng.normal(size=(24, 12, 6))
    labels = np.tile(np.linspace(1.0, 0.0, 8), 3)
    uids = np.repeat(np.array(["a", "b", "c"]), 8)
    batch = FrameBatch(frames, labels, uids)

    tracer = spans.Tracer()
    tracer.install_slowcaps(sc)
    tracer.active = True
    try:
        params, _ = TR.train(cfg, batch, TR.TrainConfig(epochs=1, batch_size=8, seed=1),
                             val_units=["c"])
        preds, _, _ = E.sequence_predictions(params, cfg, frames, labels, uids,
                                             cfg.sequence_length, chunk=7)
    finally:
        tracer.uninstall()
    assert tracer.installed == 0

    forwards = tracer.named("network.model_forward")
    assert forwards
    for fwd in forwards:
        seen = []
        stack = list(fwd.children)
        while stack:
            span = stack.pop()
            seen.append(span.name)
            stack.extend(span.children)
        for stage in spans.STAGES.values():
            assert seen.count("stage." + stage) == 1, (stage, seen)

    assert tracer.named("tensor.backward")
    assert tracer.tape_nodes > 0
    (train_span,) = tracer.named("training.train")
    assert any(c.name == "network.model_forward" and c.tag == "eval"
               for c in train_span.children)

    (dense,) = tracer.named("evaluation.sequence_predictions")
    nested = [f for f in forwards if f.within("evaluation.sequence_predictions")]
    assert len(nested) == -(-preds.size // 7)
    assert all(f.parent is dense and f.tag == "eval" for f in nested)


def test_untraced_benchmark_calls_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    sc = {name: importlib.import_module(f"slowcaps.{name}") for name in MODULES}
    rng = np.random.default_rng(6)
    cfg = tiny_config()
    params = N.init_parameters(cfg, rng)
    frames = rng.normal(size=(16, 12, 6))
    labels = np.linspace(1.0, 0.0, 16)
    uids = np.repeat(np.array(["a", "b"]), 8)

    # fd001-infer's check: each materialized sequence scored alone
    # matches the dense scoring
    preds, ends, _ = E.sequence_predictions(params, cfg, frames, labels, uids,
                                            cfg.sequence_length, chunk=5)
    x, y, _ = TR.build_sequences(frames, labels, uids, cfg.sequence_length)
    assert x.shape == (12, 3, 12, 6)
    np.testing.assert_array_equal(y, ends)
    for i in range(x.shape[0]):
        one = N.predict(x[i : i + 1], params, cfg)[0]
        assert abs(one - preds[i]) <= workloads.REL_TOL * max(abs(preds[i]), 1.0), i

    # the traced run's backward replay, which routes whole frames
    # through dynamic_routing without an index
    replay = layers.backward_replay(sc, spans.Tracer(), cfg, 4)
    assert sorted(replay) == sorted(layers.REPLAY_STAGES)
    assert all(ms > 0.0 for ms in replay.values())

    # spans._forward_mode tags a forward by kwargs["mode"] or args[3]
    assert list(inspect.signature(N.model_forward).parameters)[3] == "mode"
    index = TR.sequence_index(uids, cfg.sequence_length)[:4]
    tracer = spans.Tracer()
    tracer.install_slowcaps(sc)
    tracer.active = True
    try:
        N.model_forward(frames, params, cfg, "train", rng, index=index)
        N.model_forward(frames, params, cfg, index=index)
    finally:
        tracer.uninstall()
    assert [f.tag for f in tracer.named("network.model_forward")] == ["train", "eval"]

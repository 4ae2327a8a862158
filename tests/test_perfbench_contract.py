"""The benchmark's tracer (``perfbench/spans.py``) against the live modules.

The traced benchmark wraps slowcaps functions at their module attributes
and reads its per-layer metrics from the spans they leave.  A refactor
that calls around one of those names makes a metric read zero without
failing anything, so this test runs a tiny training and a dense scoring
under the tracer and checks that the spans the metrics need are there.
"""

import importlib
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
    batch = FrameBatch(frames, labels, uids, np.tile(np.arange(8), 3))

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

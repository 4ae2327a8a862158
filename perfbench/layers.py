"""Per-layer metrics of the traced run, named after slowcaps' modules.

Forward and backward times are per batch (``ms``), the other layers per
call or per chain (``s``).  Layers a workload does not reach read 0:
``fd001-infer`` never calls ``backward`` or ``Adam.step``, and runs no
CLI stage.
"""

from __future__ import annotations

import time

import numpy as np

from stats import median, tail
from spans import STAGES

REPLAY_STAGES = ("conv", "caps", "route", "lstm", "head")
REPLAY_REPEATS = 3


def layer_metrics(sc, tracer, results: list[dict], training: bool) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def per_call(name):
        return median([s.seconds for s in tracer.named(name)])

    model_cfg, batch = results[0]["shape"]
    n_chains = len(results)

    bw = tracer.named("tensor.backward")
    put("tensor.tape_nodes_per_step", tracer.tape_nodes, "count")
    put("tensor.backward_ms", 1e3 * per_call("tensor.backward"), "ms")
    put("tensor.backward_calls", len(bw), "count")
    replay = backward_replay(sc, tracer, model_cfg, batch) if training else {}
    for stage in REPLAY_STAGES:
        put(f"tensor.bw_ms.{stage}", replay.get(stage, 0.0), "ms")

    for stage, values in forward_stages(tracer, training).items():
        put(f"network.fwd_ms.{stage}", 1e3 * median(values), "ms")
    h, w = model_cfg.conv_out_hw
    frames = batch * model_cfg.sequence_length
    put("network.conv_map_bytes", frames * h * w * model_cfg.conv_filters * 8, "bytes")

    adam = tracer.named("optim.Adam.step")
    put("optim.adam_ms", 1e3 * per_call("optim.Adam.step"), "ms")
    put("optim.adam_calls", len(adam), "count")

    steps = step_seconds(tracer)
    pct, tail_s = tail(steps)
    put("training.step_ms.p50", 1e3 * median(steps), "ms")
    put("training.step_ms.tail", 1e3 * tail_s, "ms")
    put("training.step_ms.tail_pct", pct if steps else 0.0, "%")
    trains = tracer.named("training.train")
    put("training.steps", median([sum(c.name == "optim.Adam.step" for c in t.children)
                                  for t in trains]), "count")
    put("training.val_eval_s", median([
        sum(c.seconds for c in t.children
            if c.name == "network.model_forward" and c.tag == "eval")
        for t in trains]), "s")
    put("training.final_loss",
        median([r["final_loss"] for r in results]) if training else 0.0, "scaled_mse")
    put("quality.test_rmse", median([r["test_rmse"] for r in results]), "cycles")

    put("data.load_cmapss_s", per_call("data.load_cmapss"), "s")
    put("pipeline.fit_features_s", per_call("pipeline.fit_features"), "s")
    put("pipeline.build_frames_s", per_call("pipeline.build_frames"), "s")
    # checkpoint figures are totals per chain: features.json and
    # checkpoint.json both go through save_arrays/load_arrays
    put("checkpoint.save_s",
        sum(s.seconds for s in tracer.named("checkpoint.save_arrays")) / n_chains, "s")
    put("checkpoint.load_s",
        sum(s.seconds for s in tracer.named("checkpoint.load_arrays")) / n_chains, "s")
    put("checkpoint.bytes", tracer.saved_bytes / n_chains, "bytes")
    put("evaluation.last_point_s", per_call("evaluation.last_point_predictions"), "s")
    put("evaluation.sequence_predictions_s",
        per_call("evaluation.sequence_predictions"), "s")
    for stage in ("fit-features", "train", "evaluate"):
        put(f"cli.stage_s.{stage}",
            median([r["stage_s"][stage] for r in results]) if training else 0.0, "s")
    # host-adjusted like the untraced seq_per_s, so the two compare
    put("traced.seq_per_s", median([r["seq_per_s"] / r["scale"] for r in results]), "seq/s")
    return out


def forward_stages(tracer, training: bool) -> dict[str, list[float]]:
    """Seconds per forward stage, one entry per batch.

    Training workloads count the training batches (``mode="train"``);
    the inference workload counts the chunks scored by
    ``sequence_predictions``.
    """
    mode = "train" if training else "eval"
    per_stage = {stage: [] for stage in STAGES.values()}
    for fwd in tracer.named("network.model_forward"):
        if fwd.tag != mode or not (training or fwd.within("evaluation.sequence_predictions")):
            continue
        acc = dict.fromkeys(per_stage, 0.0)
        stack = list(fwd.children)
        while stack:
            span = stack.pop()
            stage = span.name.removeprefix("stage.")
            if stage in acc:
                acc[stage] += span.self_seconds if stage == "route_sum" else span.seconds
            stack.extend(span.children)
        for stage, seconds in acc.items():
            per_stage[stage].append(seconds)
    return per_stage


def step_seconds(tracer) -> list[float]:
    """Training steps: start of a train-mode forward to the end of Adam.step."""
    steps = []
    start = None
    for span in sorted(tracer.spans, key=lambda s: s.start):
        if span.name == "network.model_forward" and span.tag == "train":
            start = span.start
        elif span.name == "optim.Adam.step" and start is not None:
            steps.append(span.end - start)
            start = None
    return steps


def backward_replay(sc, tracer, cfg, batch: int) -> dict[str, float]:
    """Backward ms of each stage alone, at the workload's batch shapes.

    Each stage runs forward on a fresh input (a tracked leaf, except the
    frames) and ``backward`` is timed from the sum of its output, so a
    figure covers that stage's tape ops plus one copy of the seed
    gradient.  Median of ``REPLAY_REPEATS``.
    """
    T, net = sc["tensor"], sc["network"]
    rng = np.random.default_rng(0)
    params = net.init_parameters(cfg, rng)
    n = batch * cfg.sequence_length
    h, w = cfg.conv_out_hw

    def leaf(*shape):
        return T.Tensor(np.tanh(rng.standard_normal(shape)), requires_grad=True)

    forwards = {
        "conv": lambda: net.conv_features(
            T.Tensor(rng.standard_normal((n, cfg.window_length, cfg.in_channels, 1))),
            params, cfg),
        "caps": lambda: net.build_basic_capsules(
            leaf(n, h, w, cfg.conv_filters), params, cfg),
        "route": lambda: net.dynamic_routing(
            leaf(n, cfg.num_basic_capsules, cfg.caps_dim), params, cfg)[0],
        "lstm": lambda: net.lstm_forward(
            leaf(batch, cfg.sequence_length, cfg.advanced_flat_size), params, cfg),
        "head": lambda: net.regression_head(
            leaf(batch, cfg.head_input_size), params, cfg, mode="train", rng=rng),
    }
    out = {}
    with tracer.paused():
        for stage, forward in forwards.items():
            times = []
            for _ in range(REPLAY_REPEATS):
                loss = T.reduce_sum(forward())
                t0 = time.perf_counter()
                T.backward(loss)
                times.append(time.perf_counter() - t0)
            out[stage] = 1e3 * median(times)
    return out

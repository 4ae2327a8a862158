"""Spans around calls into slowcaps' public functions, for the traced run.

The tracer replaces a function at its module (or class) attribute with a
wrapper that records one span per call: name, start, end, the enclosing
span, and an optional tag read from the arguments.  Callers inside
slowcaps look these names up at call time (``network.model_forward``,
``ckpt.save_arrays``, globals such as ``conv_features`` inside
``slowcaps.network``), so every such call goes through the wrapper.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

Spans stay in memory and are summarized once the workload ends.  While
``active`` is false the wrappers pass calls straight through, so the
harness's own checks and replays leave no spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time


class Span:
    __slots__ = ("name", "tag", "parent", "start", "end", "children")

    def __init__(self, name, tag, parent):
        self.name = name
        self.tag = tag
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.children = []

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the time covered by child spans."""
        return self.seconds - sum(c.seconds for c in self.children)

    def within(self, name: str) -> bool:
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.tape_nodes = 0
        self.saved_bytes = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> int:
        return len(self._patches)

    def wrap(self, owner, attr: str, name: str, tag=None, after=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``tag(args, kwargs)`` runs before the span starts; ``after(args)``
        runs after it ends.  Neither is inside the timed interval.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = Span(name, tag(args, kwargs) if tag else None,
                        tracer._stack[-1] if tracer._stack else None)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if span.parent is not None:
                    span.parent.children.append(span)
                tracer.spans.append(span)
                if after:
                    after(args)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block leave no spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    # ------------------------------------------------------------ slowcaps

    def install_slowcaps(self, sc) -> None:
        """Wrap the public functions of every slowcaps layer.

        ``sc`` maps module names to the imported slowcaps modules.
        """
        net = sc["network"]
        self.wrap(sc["data"], "load_cmapss", "data.load_cmapss")
        self.wrap(sc["pipeline"], "fit_features", "pipeline.fit_features")
        self.wrap(sc["pipeline"], "build_frames", "pipeline.build_frames")
        self.wrap(sc["checkpoint"], "save_arrays", "checkpoint.save_arrays",
                  after=self._count_saved)
        self.wrap(sc["checkpoint"], "load_arrays", "checkpoint.load_arrays")
        self.wrap(sc["evaluation"], "last_point_predictions",
                  "evaluation.last_point_predictions")
        self.wrap(sc["evaluation"], "sequence_predictions",
                  "evaluation.sequence_predictions")
        self.wrap(sc["training"], "train", "training.train")
        self.wrap(sc["training"], "backward", "tensor.backward",
                  tag=self._walk_tape)
        self.wrap(sc["optim"].Adam, "step", "optim.Adam.step")
        self.wrap(net, "model_forward", "network.model_forward", tag=_forward_mode)
        for attr, stage in STAGES.items():
            self.wrap(net, attr, "stage." + stage)

    def _count_saved(self, args) -> None:
        self.saved_bytes += os.path.getsize(args[0])

    def _walk_tape(self, args, kwargs):
        """Count the tape nodes reachable from the loss, once per run.

        The walk follows ``Tensor._parents``, the tape's own links, so
        the count is exact; it runs before the backward span starts.
        """
        if self.tape_nodes:
            return None
        seen = set()
        stack = [args[0]]
        while stack:
            node = stack.pop()
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.extend(node._parents)
        self.tape_nodes = len(seen)
        return None


def _forward_mode(args, kwargs):
    return kwargs.get("mode", args[3] if len(args) > 3 else "eval")


# slowcaps.network function -> forward stage name.  ``dynamic_routing``
# calls ``capsule_transform`` (votes) and ``routing_coefficients``
# (routing); its self time is the coupling-weighted sum and final squash.
STAGES = {
    "conv_features": "conv",
    "build_basic_capsules": "caps",
    "capsule_transform": "votes",
    "routing_coefficients": "routing",
    "dynamic_routing": "route_sum",
    "lstm_forward": "lstm",
    "regression_head": "head",
}

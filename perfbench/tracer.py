"""Spans recorded from outside the program, around calls into each layer.

Nothing here edits ``src/``.  Three kinds of hook feed one
:class:`SpanRecorder`:

* proxies handed to constructors that take the object (the DDM, both
  quality impact models, the factor layout, and the engine the controller
  drives) -- :class:`TimedProxy`;
* module-attribute wrappers for the stages the engine calls by name --
  :func:`install_patches` / :func:`remove_patches`;
* a ``gc.callbacks`` hook timing every cyclic-GC pass -- :class:`GcWatch`.

A span is ``(name, start, end, parent, tick)``.  Spans stay in memory and
are written out once, when the run ends.  A layer's self time is its
spans' duration minus the time its child spans cover.  Hooks are inert
unless ``recorder.active`` is set, so a traced run can alternate traced
and untraced blocks to measure the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict

from repro.core.ragged import RaggedBatch
from repro.serving import cluster as cluster_module
from repro.serving import engine as engine_module
from repro.serving.registry import StreamRegistry


class SpanRecorder:
    """Nested spans of the benchmark's main thread, kept in memory."""

    def __init__(self) -> None:
        self.active = False
        self.tick = -1
        self.spans: list = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (plain call if inactive)."""
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.tick)

    def totals(self) -> tuple[dict, dict]:
        """Total and self seconds per span name."""
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child.get(index, 0.0)
        return dict(total), dict(own)

    def dump(self, path, **header) -> None:
        fields = ("name", "start", "end", "parent", "tick")
        with open(path, "w") as handle:
            json.dump({**header, "fields": fields, "spans": self.spans}, handle)


class TimedProxy:
    """Forwards every attribute to ``target``; the methods named in
    ``spans`` run inside a span.  Attribute writes go to the target too,
    so a controller can still attach its tracer to a proxied engine."""

    def __init__(self, target, recorder: SpanRecorder, spans: dict) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_recorder", recorder)
        object.__setattr__(self, "_spans", spans)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        span = self._spans.get(name)
        if span is None:
            return value
        recorder = self._recorder
        return lambda *args, **kwargs: recorder.call(span, value, *args, **kwargs)

    def __setattr__(self, name, value) -> None:
        setattr(self._target, name, value)


#: Stages the engine and the cluster parent call through a module or class
#: attribute: (owner, attribute, span name).
PATCH_POINTS = (
    (engine_module, "validate_tick_frames", "engine.validate"),
    (engine_module, "fuse_segments", "fusion.fuse"),
    (engine_module, "judge_many", "core.monitor"),
    (cluster_module, "validate_tick_frames", "cluster.validate"),
    (StreamRegistry, "get_or_create_many", "registry.acquire"),
    (StreamRegistry, "evict_idle", "registry.evict"),
)


def _timed(recorder: SpanRecorder, name: str, fn):
    def timed(*args, **kwargs):
        return recorder.call(name, fn, *args, **kwargs)

    return timed


def install_patches(recorder: SpanRecorder) -> list:
    """Wrap every patch point; returns what :func:`remove_patches` needs."""
    saved = []
    for owner, attribute, span in PATCH_POINTS:
        original = owner.__dict__[attribute]
        saved.append((owner, attribute, original))
        setattr(owner, attribute, _timed(recorder, span, original))
    gather = RaggedBatch.__dict__["from_buffers"]
    saved.append((RaggedBatch, "from_buffers", gather))
    RaggedBatch.from_buffers = classmethod(
        _timed(recorder, "core.gather", gather.__func__)
    )
    return saved


def remove_patches(saved: list) -> None:
    for owner, attribute, original in reversed(saved):
        setattr(owner, attribute, original)


def model_proxies(study, recorder: SpanRecorder) -> dict:
    """Engine constructor arguments with the paper's math stages timed."""
    return {
        "ddm": TimedProxy(study.ddm, recorder, {"predict": "models.ddm"}),
        "stateless_qim": TimedProxy(
            study.stateless_qim, recorder, {"estimate_uncertainty": "core.sqim"}
        ),
        "timeseries_qim": TimedProxy(
            study.ta_qim, recorder, {"estimate_uncertainty": "core.taqim"}
        ),
        "layout": TimedProxy(study.layout, recorder, {"assemble_batch": "core.taqf"}),
    }


#: Engine methods the controller calls, as seen from the controller.
ENGINE_SPANS = {
    "step_batch": "engine.step",
    "submit_batch": "cluster.submit",
    "collect_batch": "cluster.collect",
    "snapshot": "controller.snapshot_capture",
    "snapshot_delta": "controller.snapshot_capture",
    "snapshot_shards": "controller.checkpoint",
}


class GcWatch:
    """Times cyclic-GC passes while ``recorder.active`` is set."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.gen2 = 0
        self.pause_total = 0.0
        self.pause_max = 0.0
        self._start = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter() if self.recorder.active else None
            return
        if self._start is None:
            return
        pause = time.perf_counter() - self._start
        self._start = None
        self.pause_total += pause
        self.pause_max = max(self.pause_max, pause)
        if info.get("generation") == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)

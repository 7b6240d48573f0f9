"""Span tracing from outside the program: wrap each layer's public calls.

Nothing inside ``src/`` is instrumented.  :func:`traced` replaces the
public callables listed in :data:`TRACE_POINTS` with timing wrappers for
the duration of a ``with`` block and puts every original back when the
block exits, so a measured (untraced) run always executes unpatched
code.  Module-level functions are wrapped at the binding their caller
resolves: the pipeline stages import ``tidy``, ``segment_page``,
``extract_objects`` and friends *by name*, so the patch goes on
``repro.core.stages.preprocess.tidy`` and so on, not on the defining
module.

Worker processes of the process backend inherit the patches through
``fork``.  Each worker records its own spans and ships them home inside
the shard result it returns; unpickling that result in the parent
(:func:`_receive_shard`) files the spans under the worker's pid and
hands ``run_sources`` the program's own result object.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: (layer, owner, attribute): every public call the traced run times.
#: Owners are dotted module paths, optionally followed by ``:Class``.
TRACE_POINTS: tuple[tuple[str, str, str], ...] = (
    ("htmlkit", "repro.core.cache:PreprocessCache", "clean_pages"),
    ("htmlkit", "repro.core.cache", "tidy"),
    ("htmlkit", "repro.core.cache", "clean_tree"),
    ("htmlkit", "repro.core.stages.preprocess", "tidy"),
    ("htmlkit", "repro.core.stages.preprocess", "clean_tree"),
    ("vision", "repro.core.stages.preprocess", "segment_page"),
    ("vision", "repro.core.stages.preprocess", "main_content_block"),
    ("annotation", "repro.core.stages.annotate", "select_sample"),
    ("annotation", "repro.annotation.annotator:PageAnnotator", "annotate"),
    ("annotation", "repro.recognizers.gazetteer:GazetteerRecognizer", "find"),
    ("wrapper", "repro.core.stages.wrap", "generate_wrapper"),
    ("wrapper", "repro.core.stages.wrap", "tokenize_element"),
    ("extraction", "repro.core.stages.extract", "extract_objects"),
    ("registry", "repro.registry.store:WrapperRegistry", "lookup"),
    ("registry", "repro.registry.store:WrapperRegistry", "put"),
    ("registry", "repro.registry.store:WrapperRegistry", "put_discard"),
    ("registry", "repro.registry.store:StagedWrites", "apply_to"),
    ("registry", "repro.core.stages.registry", "pages_fingerprint"),
    ("recognizers", "repro.recognizers.build:DictionaryBuilder", "build"),
    ("core", "repro.core.pipeline:Pipeline", "run"),
    ("core", "repro.core.objectrunner:ObjectRunner", "run_sources"),
    ("core", "repro.core.objectrunner", "_run_process_shard"),
    ("service", "repro.service.server:ExtractionService", "handle"),
)

#: The layers, named after ``src/repro`` modules, in report order.
LAYERS: tuple[str, ...] = (
    "htmlkit", "vision", "annotation", "wrapper", "extraction",
    "registry", "recognizers", "core", "service",
)

#: The name the worker-side shard span carries.
SHARD_SPAN = "_run_process_shard"


@dataclass
class Span:
    """One timed call: its layer, callable name, interval and parent."""

    layer: str
    name: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in the same process, or -1.
    parent: int = -1
    #: Facts read off the call's result (hit counts, sample sizes, ...).
    facts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps the spans of one process in memory, in start order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        #: Spans shipped home by worker processes, by worker pid.
        self.worker_spans: dict[int, list[Span]] = {}

    def open(self, layer: str, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(
            Span(layer, name, time.perf_counter(), parent=parent)
        )
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def reset(self) -> None:
        """Forget everything (a forked worker starts from a clean slate)."""
        self.spans = []
        self._open = []
        self.worker_spans = {}


#: The tracer the installed wrappers record into; ``None`` when idle.
_ACTIVE: Tracer | None = None
#: The unpatched shard entry point while tracing is active.
_ORIGINAL_SHARD: Callable | None = None


def _facts(name: str, args: tuple, result: Any) -> dict[str, float]:
    """Counts read where the work happens, for the per-layer ratios."""
    if name == "clean_pages":
        return {
            "pages": len(result.pages),
            "hits": result.hits,
            "misses": result.misses,
        }
    if name == "select_sample":
        return {"sample": len(result.sample), "annotated": len(result.all_pages)}
    if name == "generate_wrapper":
        return {"matched": 1.0 if result.match.matched else 0.0}
    if name == "extract_objects":
        return {"objects": len(result), "pages": len(args[1])}
    if name == "lookup":
        return {"hit": 0.0 if result is None else 1.0}
    return {}


_FACT_NAMES = frozenset(
    {"clean_pages", "select_sample", "generate_wrapper", "extract_objects", "lookup"}
)


def _wrap(layer: str, name: str, original: Callable) -> Callable:
    wants_facts = name in _FACT_NAMES

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None:
            return original(*args, **kwargs)
        index = tracer.open(layer, name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if wants_facts:
            tracer.spans[index].facts = _facts(name, args, result)
        return result

    return wrapper


def _resolve(owner: str) -> Any:
    module_name, __, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class _ShippedShard:
    """A worker's shard result plus its spans, on the way home.

    Pickles as a call to :func:`_receive_shard`, so the parent gets the
    program's own result object back and the spans land in its tracer.
    """

    def __init__(self, result: Any, pid: int, spans: list[Span]):
        self.result = result
        self.pid = pid
        self.spans = spans

    def __reduce__(self):
        return (_receive_shard, (self.result, self.pid, self.spans))


def _receive_shard(result: Any, pid: int, spans: list[Span]) -> Any:
    if _ACTIVE is not None:
        _ACTIVE.worker_spans.setdefault(pid, []).extend(spans)
    return result


def _traced_shard(task: Any) -> Any:
    """Worker entry point while tracing: run the shard, ship spans home."""
    tracer = _ACTIVE
    if tracer is None:
        # A worker started by ``spawn`` inherits no patches and no tracer.
        from repro.core.objectrunner import _run_process_shard

        return _run_process_shard(task)
    tracer.reset()
    index = tracer.open("core", SHARD_SPAN)
    try:
        result = _ORIGINAL_SHARD(task)
    finally:
        tracer.close(index)
    return _ShippedShard(result, os.getpid(), tracer.spans)


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every trace point for the block; restore the originals after."""
    global _ACTIVE, _ORIGINAL_SHARD
    if _ACTIVE is not None:
        raise RuntimeError("tracing is already active")
    restore: list[tuple[Any, str, Any]] = []
    try:
        for layer, owner_path, attribute in TRACE_POINTS:
            owner = _resolve(owner_path)
            original = vars(owner)[attribute]
            restore.append((owner, attribute, original))
            if attribute == SHARD_SPAN:
                _ORIGINAL_SHARD = original
                replacement = _traced_shard
            else:
                replacement = _wrap(layer, attribute, original)
            setattr(owner, attribute, replacement)
        _ACTIVE = tracer
        yield tracer
    finally:
        _ACTIVE = None
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)
        _ORIGINAL_SHARD = None


def originals() -> dict[str, Any]:
    """The callables currently bound at every trace point (for tests)."""
    return {
        f"{owner}.{attribute}": vars(_resolve(owner))[attribute]
        for __, owner, attribute in TRACE_POINTS
    }


# -- analysis ---------------------------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - union_length(children.get(index, []))
        for index, span in enumerate(spans)
    ]


@dataclass
class Lane:
    """One process's spans inside the measured window, with its wall."""

    spans: list[Span]
    wall: float

    @property
    def self_times(self) -> list[float]:
        return self_times(self.spans)

    @property
    def unattributed(self) -> float:
        """Lane wall not covered by any top-level span."""
        tops = [(s.start, s.end) for s in self.spans if s.parent < 0]
        return self.wall - union_length(tops)


def window(spans: list[Span], start: float, end: float) -> list[Span]:
    """The spans that started inside ``[start, end]``, parents re-indexed."""
    kept: dict[int, int] = {}
    out: list[Span] = []
    for index, span in enumerate(spans):
        if start <= span.start and span.end <= end:
            kept[index] = len(out)
            out.append(
                Span(
                    span.layer, span.name, span.start, span.end,
                    parent=kept.get(span.parent, -1), facts=span.facts,
                )
            )
    return out


def lanes(tracer: Tracer, start: float, end: float) -> list[Lane]:
    """The parent lane over ``[start, end]`` plus one lane per worker.

    A worker lane's wall is the duration of its shard spans: the worker
    is idle (waiting for its next task) outside them.
    """
    out = [Lane(window(tracer.spans, start, end), end - start)]
    for pid in sorted(tracer.worker_spans):
        spans = window(tracer.worker_spans[pid], start, end)
        wall = sum(s.duration for s in spans if s.parent < 0)
        out.append(Lane(spans, wall))
    return out

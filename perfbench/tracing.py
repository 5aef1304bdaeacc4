"""Spans recorded around the public entry points of each layer.

The traced pass installs wrappers (and removes them afterwards) around
the calls that cross a layer boundary, as the modules that make those
calls resolve them.  Each span records its name, start, end, parent
span and the id of the read it belongs to; spans stay in memory and are
written out when the run ends.

A layer's self time is its span's duration minus the time its child
spans cover.  Process-pool workers inherit the wrappers when forked;
their spans never reach the parent, so the ``engine.query`` wrapper
folds the spans of each worker-side query into per-layer self times and
ships them home in ``result.info``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, class or None, attribute, span name)
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.core.engine", "EngineBase", "prepare", "engine.prepare"),
    ("repro.core.engine", "EngineBase", "execute", "engine.execute"),
    ("repro.core.engine", "EngineBase", "query", "engine.query"),
    ("repro.regex.interner", "InternedStepTable", "project", "tables.project"),
    ("repro.core.arrival", None, "build_graph_view", "fastpath.build_graph_view"),
    ("repro.core.shm", None, "build_graph_view", "fastpath.build_graph_view"),
    ("repro.core.arrival", None, "check_path", "verify.check_path"),
    (
        "repro.core.arrival",
        None,
        "estimate_walk_length_cached",
        "parameters.estimate_walk_length",
    ),
    ("repro.core.executor", "BatchExecutor", "run", "executor.run"),
    ("repro.core.shm", "GraphPlane", "export", "shm.export"),
)

#: result.info key carrying a worker query's per-layer self seconds
LAYERS_KEY = "perfbench.layers"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "child_s")

    def __init__(self, sid: int, name: str, start: float, parent: int, op: int) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        #: seconds covered by direct children (they never overlap:
        #: spans nest on one thread)
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
        }


def self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Total self seconds per span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.self_s
    return dict(totals)


class SpanRecorder:
    """In-memory span store with a nesting stack (single thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        #: id of the read being served (-1 outside reads)
        self.op = -1
        #: fresh step tables seen by ``tables.project`` (first projection)
        self.table_builds = 0
        self.pid = os.getpid()
        #: span count at the last fork: a worker ships home only what
        #: it recorded itself
        self.mark = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.mark = len(self.spans)
        self.stack = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, self.clock(), parent.sid if parent else -1, self.op)
        self.spans.append(span)
        self.stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self.stack.pop()
            if parent is not None:
                parent.child_s += span.duration

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")

    # -- wrappers ------------------------------------------------------
    def _wrap(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        recorder = self

        if name == "engine.prepare":
            def prepare(engine: Any, *args: Any, **kwargs: Any) -> Any:
                label = "engine.plan" if args or kwargs else "engine.setup"
                with recorder.span(label):
                    return func(engine, *args, **kwargs)
            return prepare

        if name == "tables.project":
            def project(table: Any) -> Any:
                if not table.sym_ids:
                    recorder.table_builds += 1
                with recorder.span(name):
                    return func(table)
            return project

        if name == "engine.query":
            def query(engine: Any, *args: Any, **kwargs: Any) -> Any:
                worker = os.getpid() != recorder.pid
                # a worker's first query also carries the spans of its
                # engine set-up, recorded since the fork
                first = recorder.mark if worker else len(recorder.spans)
                builds = recorder.table_builds
                with recorder.span(name) as span:
                    result = func(engine, *args, **kwargs)
                layers = self_seconds(recorder.spans[first:])
                layers["engine.query.wall"] = span.duration
                layers["tables.builds"] = recorder.table_builds - builds
                result.info[LAYERS_KEY] = layers
                if worker:
                    # nothing reads a worker's span store
                    del recorder.spans[first:]
                return result
            return query

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(name):
                return func(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Install every wrapper in :data:`TARGETS`; restore on exit."""
        undo: List[Tuple[Any, str, Any]] = []
        try:
            for module_name, class_name, attr, name in TARGETS:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                raw = owner.__dict__[attr] if class_name else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    patched: Any = classmethod(self._wrap(raw.__func__, name))
                else:
                    patched = self._wrap(raw, name)
                undo.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

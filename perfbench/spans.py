"""Nested spans around the engine's public entry points, with Spark job counts.

A :class:`Tracer` wraps, for the duration of a traced run, the public methods
listed in :data:`TARGETS` — one or more per streaming ``repro.core`` module;
``memory`` is read as gauges and the batch engines are not traced — so that
every call records a span: name, start, end, parent, and the tags of the
benchmark operation (round or install) it belongs to.  Each span runs under
its own Spark job group (restoring the parent's group on exit), so
``statusTracker().getJobIdsForGroup`` yields the Spark jobs the span
triggered itself, not those of its children.

The engine is lazy: a join or reduce call only builds a plan, and the plan
executes in whichever span runs the Spark action (``Trace.seal``'s
checkpoint, the snapshot roll inside ``Arrangement.ingest``, ``Sink.pull``'s
``toPandas``, or the bootstrap in ``store.input_reader``).  A layer's cost is
therefore its spans' *self* time and *self* jobs.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from pyspark.sql import SparkSession

_SKIP = object()


def _memo_hit(node, round_, *_, **__):
    """Stream.delta is memoized per round; a hit builds no plan: no span."""
    return _SKIP if round_ in node._memo else None  # noqa: SLF001


def _sink_before(sink, *_, **__):
    return len(sink.frames)


def _sink_after(span, sink, before, _result):
    span.counts["rows"] = sum(len(f) for f in sink.frames[before:])


def _seal_before(trace, *_, **__):
    return trace.merge_count


def _seal_after(span, trace, before, _result):
    span.counts["merges"] = trace.merge_count - before


#: (module, class, method, span name, before-hook, after-hook)
TARGETS = [
    ("repro.core.dataflow", "Dataflow", "step", "dataflow.step", None, None),
    ("repro.core.dataflow", "Dataflow", "install", "dataflow.install", None, None),
    ("repro.core.dataflow", "Dataflow", "retire", "dataflow.retire", None, None),
    ("repro.core.dataflow", "Sink", "pull", "dataflow.sink_pull", _sink_before, _sink_after),
    ("pyspark.sql", "SparkSession", "createDataFrame", "dataflow.input_convert", None, None),
    ("repro.core.store", "ArrangementStore", "input_reader", "store.input_reader", None, None),
    ("repro.core.store", "ArrangementStore", "private_node", "store.private_node", None, None),
    ("repro.core.store", "ArrangementStore", "advance_all", "store.advance_all", None, None),
    ("repro.core.store", "ArrangementStore", "retire_query", "store.retire_query", None, None),
    ("repro.core.arrange", "Arrangement", "ingest", "arrange.ingest", None, None),
    ("repro.core.trace", "Trace", "seal", "trace.seal", _seal_before, _seal_after),
    ("repro.core.join", "JoinNode", "delta", "join.delta", _memo_hit, None),
    ("repro.core.reduce", "ReduceNode", "delta", "reduce.delta", _memo_hit, None),
    ("repro.core.collection", "InputStream", "history", "collection.history", None, None),
]


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "jobs", "tags", "counts")

    def __init__(self, sid: int, name: str, parent: Optional["Span"], tags: dict) -> None:
        self.sid, self.name, self.parent = sid, name, parent
        self.tags = {**(parent.tags if parent else {}), **tags}
        self.start = self.end = 0.0
        self.jobs = 0
        self.counts: Dict[str, int] = {}

    @property
    def secs(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent.sid if self.parent else None,
            "start": self.start,
            "end": self.end,
            "jobs": self.jobs,
            **self.tags,
            **self.counts,
        }


class Tracer:
    """Wraps :data:`TARGETS` and records spans in memory; ``dump`` writes
    them out at the end."""

    def __init__(self, spark: SparkSession) -> None:
        self.sc = spark.sparkContext
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._pending: List[Span] = []
        self._ids = itertools.count()
        # The wrappers stay for the life of the process: one run, one tracer.
        for module, cls_name, method, name, before, after in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, method, self._wrap(getattr(cls, method), name, before, after))

    def _wrap(self, fn: Callable, name: str, before, after) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            state = before(obj, *args, **kwargs) if before else None
            if state is _SKIP or not tracer._stack:
                return fn(obj, *args, **kwargs)
            with tracer.span(name) as span:
                result = fn(obj, *args, **kwargs)
                if after:
                    after(span, obj, state, result)
                return result

        return wrapper

    @contextmanager
    def span(self, name: str, **tags):
        """A span; a span with no parent is a benchmark operation (a root).

        Job counts are read once the root ends, so the status-tracker calls
        fall outside every span.  Spans outside any root are not recorded.
        """
        parent = self._stack[-1] if self._stack else None
        s = Span(next(self._ids), name, parent, tags)
        self.sc.setJobGroup(f"perfbench-{s.sid}", name)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self._pending.append(s)
            if parent is not None:
                self.sc.setJobGroup(f"perfbench-{parent.sid}", parent.name)
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                status = self.sc.statusTracker()
                for p in self._pending:
                    p.jobs = len(status.getJobIdsForGroup(f"perfbench-{p.sid}"))
                self.spans.extend(self._pending)
                self._pending.clear()

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        out = {s.sid: s.secs for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent.sid] -= s.secs
        return out

    def inclusive_jobs(self) -> Dict[int, int]:
        """Span id -> jobs of the span and all its descendants."""
        out = {s.sid: s.jobs for s in self.spans}
        for s in self.spans:  # a child is recorded before its parent
            if s.parent is not None:
                out[s.parent.sid] += out[s.sid]
        return out

    def layers(self, **match) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, seconds, self seconds, self and inclusive
        jobs and summed counts, over spans whose root carries every ``match``
        tag."""
        selfs, incl = self.self_times(), self.inclusive_jobs()
        agg: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self._matching(match):
            a = agg[s.name]
            a["calls"] += 1
            a["self_s"] += selfs[s.sid]
            a["jobs"] += s.jobs
            a["jobs_incl"] += incl[s.sid]
            a["secs"] += s.secs
            for k, v in s.counts.items():
                a[k] += v
        return agg

    def op_jobs(self, **match) -> List[int]:
        """Spark jobs of each benchmark operation whose root matches."""
        totals: Dict[int, int] = defaultdict(int)
        for s in self._matching(match):
            totals[s.tags["op"]] += s.jobs
        return list(totals.values())

    def _matching(self, match: dict) -> List[Span]:
        return [s for s in self.spans if all(s.tags.get(k) == v for k, v in match.items())]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([s.as_dict() for s in self.spans], f)

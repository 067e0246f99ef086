"""The arrange operator: maintained, shareable, multiversioned indexed state.

An :class:`Arrangement` owns a collection :class:`~repro.core.trace.Trace`
and nothing else: its arranged state is stored once, as the trace's
immutable, key-sharded batches (§4.1–4.2).  Readers probe those batches in
place — a view of the collection at round ``r`` is the union of the batches
with each update's ``__diff`` read as a multiplicity — so a record's
multiplicity may be split across several rows (one per batch it was updated
in), and every consumer sums them.  No consolidated snapshot is rebuilt per
round: maintenance is the batch seal plus the trace's amortized merges.

Readers access an arrangement through :class:`TraceHandle` (§4.3): each
handle carries a frontier, the arrangement only compacts distinctions no
handle still needs, and dropping the last handle lets the owner release the
state entirely (the unshared baseline does exactly that at query retirement).
"""
from __future__ import annotations

import itertools
import time as _time
from typing import Dict, List, Optional, Sequence

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.trace import DIFF_COL, MULT_COL, Trace

_arr_ids = itertools.count()


class TraceHandle:
    """A reader's cursor into an arrangement (§4.3).

    Holds a frontier: the arrangement guarantees correct accumulated views
    for times beyond it.  Advancing the frontier (or dropping the handle)
    gives the arrange operator license to compact.
    """

    def __init__(self, arrangement: "Arrangement") -> None:
        self.arrangement = arrangement
        self.frontier: int = arrangement.trace.compaction_frontier
        self.dropped = False

    def advance(self, frontier: int) -> None:
        """Declare that this reader no longer distinguishes times < frontier."""
        if frontier < self.frontier:
            raise ValueError("trace handle frontiers may only advance")
        self.frontier = frontier
        self.arrangement._update_compaction()

    def drop(self) -> None:
        """Release the handle; the arrangement may compact or be destroyed."""
        if not self.dropped:
            self.dropped = True
            self.arrangement._drop_handle(self)


class Arrangement:
    """Single-writer, multiple-reader maintained index over a collection.

    The owner (an arrangement node in a dataflow) calls :meth:`ingest` once
    per logical round with that round's update triples; readers acquire
    :class:`TraceHandle`\\ s and read :meth:`snapshot` / per-round deltas.
    """

    def __init__(
        self,
        spark: SparkSession,
        name: str,
        data_cols: Sequence[str],
        key_cols: Sequence[str],
        merge_effort: str = "default",
    ) -> None:
        self.spark = spark
        self.name = name
        self.arr_id = next(_arr_ids)
        self.data_cols = list(data_cols)
        self.key_cols = list(key_cols)
        self.trace = Trace(data_cols, key_cols, merge_effort=merge_effort)
        self.handles: List[TraceHandle] = []
        #: the last round ingested
        self.current_time: int = -1
        self._deltas: Dict[int, Optional[DataFrame]] = {}
        #: wall-clock seconds spent maintaining this index (batch seal +
        #: merges); the redundant-maintenance cost the paper's Fig. 1b
        #: attributes to unshared configurations.
        self.maintenance_secs: float = 0.0
        self.destroyed = False

    # -- writer API ---------------------------------------------------------

    def ingest(self, round_: int, updates: Optional[DataFrame]) -> Optional[DataFrame]:
        """Seal ``updates`` (times == round_) as the batch for this round.

        Returns the sealed (cached, materialized) batch DataFrame, or None if
        the round was empty.  Sealing materializes the delta *before* any
        upstream cached state it lazily references is unpersisted, cutting
        the cross-round lineage chain.
        """
        if round_ <= self.current_time:
            raise ValueError(f"arrangement {self.name} already ingested round {round_}")
        t0 = _time.perf_counter()
        self._update_compaction()
        batch = self.trace.seal(updates, upper=round_ + 1)
        self.current_time = round_
        sealed = batch.df if batch is not None else None
        self._deltas[round_] = sealed
        for r in [r for r in self._deltas if r < round_ - 1]:
            del self._deltas[r]
        self.maintenance_secs += _time.perf_counter() - t0
        return sealed

    # -- reader API ---------------------------------------------------------

    def new_handle(self) -> TraceHandle:
        h = TraceHandle(self)
        self.handles.append(h)
        return h

    def snapshot(self, round_: int) -> Optional[DataFrame]:
        """The collection accumulated to ``round_`` (data_cols + __mult).

        The union of the trace's batches, read in place: a record's
        multiplicity may be split across rows, which consumers sum.  Times are
        filtered only when ``round_`` is behind the last ingested round.
        """
        ups = self.trace.updates(upto=round_ if round_ < self.current_time else None)
        return None if ups is None else ups.select(
            *self.data_cols, F.col(DIFF_COL).alias(MULT_COL)
        )

    def delta(self, round_: int) -> Optional[DataFrame]:
        """The updates ingested at exactly ``round_`` (None if empty).

        Only the last two rounds are retained; older rounds raise, since
        compaction may have rewritten their times in the trace.
        """
        if round_ not in self._deltas:
            raise ValueError(
                f"arrangement {self.name} no longer retains the delta of round {round_}"
            )
        return self._deltas[round_]

    # -- lifecycle ----------------------------------------------------------

    def _update_compaction(self) -> None:
        """Advance the compaction frontier to the meet of the live handles,
        or, with none live, to the last ingested round: an import reads only
        the current round, so no reader needs older distinctions."""
        live = [h.frontier for h in self.handles if not h.dropped]
        self.trace.advance_compaction_frontier(min(live) if live else self.current_time)

    def _drop_handle(self, handle: TraceHandle) -> None:
        self.handles = [h for h in self.handles if h is not handle]
        self._update_compaction()

    def reader_count(self) -> int:
        return len([h for h in self.handles if not h.dropped])

    def estimated_bytes(self) -> int:
        return self.trace.estimated_bytes()

    def destroy(self) -> None:
        """Unpersist every cached structure (private arrangements at retire)."""
        if self.destroyed:
            return
        self.destroyed = True
        self.trace.unpersist()

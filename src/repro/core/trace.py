"""Collection traces: append-only lists of immutable, indexed update batches.

A *collection trace* (§4.1) is the multiversioned index behind an
arrangement: the set of update triples ``(data, time, diff)`` that define the
collection at any time ``t`` as the accumulation of the ``(data, diff)`` with
``time <= t``.

Here a trace is a list of :class:`Batch` objects.  Each batch wraps an
immutable, cached Spark DataFrame whose rows are update triples with times
beyond the batch's ``lower`` frontier and not beyond its ``upper`` frontier;
consecutive batches tile logical time.  The Spark engine's fast path uses
totally ordered integer rounds (1-d lattice times); the general
partial-order math lives in :mod:`repro.core.lattice` and is exercised by the
pure-Python reference trace in :mod:`repro.core.pytrace`.

Maintenance follows §4.2:

* **Amortized merging** — batches are merged size-tiered (a merge fires when
  the newest batch in a tier has grown to a constant fraction of its
  neighbour), so the trace holds logarithmically many batches and no single
  insert triggers work more than proportional to a merge step.  The
  ``merge_effort`` knob reproduces the eager/default/lazy study of Fig. 7e.
* **Consolidation** — when the trace's compaction frontier advances (because
  every reader advanced its handle), merges map each update time ``t`` to
  its Appendix-A representative ``rep_F(t)``; updates at indistinguishable
  times coalesce and cancelled updates vanish.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from pyspark.sql import DataFrame, Observation, functions as F

#: reserved metadata column names on update DataFrames
T_COL = "__t"
DIFF_COL = "__diff"
MULT_COL = "__mult"

#: number of hash shards each arrangement is partitioned into (the analogue
#: of the paper's per-worker shards; local[*] executes them in parallel).
N_SHARDS = 8

#: rough per-cell byte estimate used by the fallback memory meter.
_EST_BYTES_PER_CELL = 16

_batch_ids = itertools.count()


def materialize(df: DataFrame) -> Tuple[DataFrame, int]:
    """Materialize a DataFrame into executor memory, truncate its plan, count it.

    ``localCheckpoint(eager=True)`` both caches the rows and replaces the
    logical plan with a scan of the checkpointed blocks.  Plain
    ``persist()+count()`` is not enough for an incremental engine: every round
    embeds the previous rounds' plans by value, so Catalyst analysis time
    grows without bound even though execution hits the cache.  Blocks are
    reclaimed by the ContextCleaner once the DataFrame is unreachable.

    The row count is observed inside the checkpoint job itself, so it costs
    no second Spark action.  Returns the checkpointed frame and its rows.
    """
    obs = Observation()
    out = df.observe(obs, F.count(F.lit(1)).alias("rows")).localCheckpoint(eager=True)
    return out, obs.get["rows"]


@dataclass
class Batch:
    """One immutable, indexed batch of update triples.

    ``df`` is hash-partitioned by the trace's key columns and cached; it is
    never mutated after construction (merges build *new* batches).
    """

    df: DataFrame
    lower: int
    upper: int
    rows: int
    batch_id: int = field(default_factory=lambda: next(_batch_ids))

    def estimated_bytes(self) -> int:
        """Fallback size estimate: rows x columns x constant."""
        return self.rows * len(self.df.columns) * _EST_BYTES_PER_CELL

    def unpersist(self) -> None:
        self.df.unpersist(blocking=False)


class Trace:
    """A shard-partitioned, multiversioned index over update triples.

    One ``Trace`` per arrangement; batches are appended by the arrange
    operator as the input frontier advances and merged/compacted in the
    background of each insert.
    """

    def __init__(
        self,
        data_cols: Sequence[str],
        key_cols: Sequence[str],
        merge_effort: str = "default",
    ) -> None:
        if not set(key_cols) <= set(data_cols):
            raise ValueError(f"key {key_cols} not a subset of data {data_cols}")
        self.data_cols = list(data_cols)
        self.key_cols = list(key_cols)
        if merge_effort not in ("eager", "default", "lazy"):
            raise ValueError(f"unknown merge_effort {merge_effort!r}")
        self.merge_effort = merge_effort
        self.batches: List[Batch] = []
        #: batches merged away this round; unpersisted at the *next* seal so
        #: same-round readers holding their shared references stay cheap
        #: (the paper's reference-counted batch sharing, §4.2).
        self._retired: List[Batch] = []
        #: compaction frontier: the meet of all reader-handle frontiers.
        #: Times before it are indistinguishable to every reader and may be
        #: coalesced to ``rep_F(t) = max(t, frontier)`` (1-d lattice).
        self.compaction_frontier: int = 0
        #: upper frontier of the trace: all updates at times < upper sealed.
        self.upper: int = 0
        self.merge_count: int = 0

    # -- writing -----------------------------------------------------------

    def seal(self, updates: Optional[DataFrame], upper: int) -> Optional[Batch]:
        """Seal all updates for times in ``[self.upper, upper)`` as a batch.

        ``updates`` must already carry ``T_COL``/``DIFF_COL``; ``None`` means
        the interval is empty (the trace still advances its upper frontier,
        exactly like an empty batch in the paper).  Returns the new batch.
        """
        if upper <= self.upper:
            raise ValueError(f"trace upper {self.upper} cannot regress to {upper}")
        for b in self._retired:
            b.unpersist()
        self._retired.clear()
        lower, self.upper = self.upper, upper
        if updates is None:
            return None
        cols = self.data_cols + [T_COL, DIFF_COL]
        df, rows = self._consolidate(updates.select(*cols))
        if rows == 0:
            df.unpersist(blocking=False)
            return None
        batch = Batch(df=df, lower=lower, upper=upper, rows=rows)
        self.batches.append(batch)
        self._maintain()
        return batch

    def _maintain(self) -> None:
        """Size-tiered amortized merging (Fig. 7e's eager/default/lazy knob).

        * ``eager``  — collapse everything into one batch after each insert
          (least total batches, spiky latency).
        * ``default``— merge the two newest batches while the newer has at
          least half the rows of the older; keeps O(log n) batches with
          bounded per-insert work, like the paper's default.
        * ``lazy``   — only merge when the trace exceeds 32 batches (fast
          inserts, slower reads / fatter tails under contention).
        """
        if self.merge_effort == "eager":
            while len(self.batches) > 1:
                self._merge_last_two()
        elif self.merge_effort == "default":
            while (
                len(self.batches) > 1
                and self.batches[-1].rows * 2 >= self.batches[-2].rows
            ):
                self._merge_last_two()
        else:  # lazy
            while len(self.batches) > 32:
                self._merge_last_two()

    def _merge_last_two(self) -> None:
        a = self.batches.pop()
        b = self.batches.pop()
        lower, upper = min(a.lower, b.lower), max(a.upper, b.upper)
        merged, rows = self._consolidate(a.df.unionByName(b.df))
        self._retired.extend((a, b))
        self.merge_count += 1
        if rows:
            self.batches.append(Batch(df=merged, lower=lower, upper=upper, rows=rows))
        else:
            merged.unpersist(blocking=False)
            # Record the (now empty) interval by widening the neighbour's
            # bookkeeping: an empty batch need not be stored at all.
            if self.batches:
                self.batches[-1].upper = max(self.batches[-1].upper, upper)

    def _consolidate(self, df: DataFrame) -> Tuple[DataFrame, int]:
        """Coalesce updates at times indistinguishable as of the frontier.

        For the 1-d integer lattice and single-element frontier ``{f}``,
        Appendix A's ``rep_F(t) = glb_f lub(t, f)`` is simply ``max(t, f)``;
        mapping times through it and re-summing diffs is exactly the paper's
        consolidation step, and cancelled updates (net diff 0) are dropped.

        Sharding by key *before* grouping lets one exchange serve both: hash
        partitioning on the key already clusters the grouping columns, which
        contain it.  A keyless trace shards by all its data columns instead.
        Returns the materialized batch frame and its row count.
        """
        f = self.compaction_frontier
        adj = df.withColumn(T_COL, F.greatest(F.col(T_COL), F.lit(f)))
        shard_cols = self.key_cols or self.data_cols
        return materialize(
            adj.repartition(N_SHARDS, *[F.col(c) for c in shard_cols])
            .groupBy(*self.data_cols, T_COL)
            .agg(F.sum(DIFF_COL).alias(DIFF_COL))
            .filter(F.col(DIFF_COL) != 0)
        )

    def advance_compaction_frontier(self, frontier: int) -> None:
        """Called by the arrangement when *every* reader is beyond ``frontier``.

        Takes effect during subsequent merges; it never rewrites batches in
        place (they are immutable and possibly shared with readers).
        """
        self.compaction_frontier = max(self.compaction_frontier, frontier)

    # -- reading -----------------------------------------------------------

    def updates(self, upto: Optional[int] = None) -> Optional[DataFrame]:
        """Union of all batches (the full update history, maybe compacted).

        With ``upto``, only the updates at times ``<= upto``: correct only
        for ``upto`` beyond the compaction frontier — the same contract a
        trace handle provides in §4.3.
        """
        if upto is not None and upto < self.compaction_frontier:
            raise ValueError(
                f"read at {upto} below compaction frontier {self.compaction_frontier}"
            )
        if not self.batches:
            return None
        dfs = [b.df for b in self.batches]
        out = dfs[0]
        for d in dfs[1:]:
            out = out.unionByName(d)
        return out if upto is None else out.filter(F.col(T_COL) <= upto)

    def read_at(self, t: int) -> Optional[DataFrame]:
        """The collection accumulated to time ``t``: ``data_cols + __mult``."""
        ups = self.updates(upto=t)
        if ups is None:
            return None
        return (
            ups.groupBy(*self.data_cols)
            .agg(F.sum(DIFF_COL).alias(MULT_COL))
            .filter(F.col(MULT_COL) != 0)
        )

    def updates_in(self, lower: int, upper: int) -> Optional[DataFrame]:
        """Updates with ``lower <= t < upper`` (post-compaction times)."""
        ups = self.updates()
        if ups is None:
            return None
        return ups.filter((F.col(T_COL) >= lower) & (F.col(T_COL) < upper))

    # -- accounting --------------------------------------------------------

    def estimated_bytes(self) -> int:
        return sum(b.estimated_bytes() for b in self.batches)

    def total_rows(self) -> int:
        return sum(b.rows for b in self.batches)

    def unpersist(self) -> None:
        for b in self.batches + self._retired:
            b.unpersist()
        self.batches.clear()
        self._retired.clear()

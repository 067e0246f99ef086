"""Arrangement-aware join (§5.3.1).

The join operator is bilinear; with both inputs arranged, the output delta at
round ``r`` takes two terms:

    d(A ⋈ B) = dA ⋈ B(r)  +  A(r-1) ⋈ dB

``B(r)`` is the right input's view including this round and ``A(r-1)`` the
left input's view before it (empty on the round a reader imports its history,
whose delta already carries everything), so a fresh query's first result is a
single scan of the arranged side.  Both views are the arrangements' batches
read in place: multiplicities split across batches multiply term by term and
consolidate downstream.  Deltas are explicitly broadcast: this is the Spark
rendition of the paper's "move the (small) update batch to the pre-sharded
arranged state" — the arranged side is never re-shuffled or re-indexed, which
is what makes installing a new query against existing arrangements cheap
(Fig. 1a) and per-update work track the delta rather than the state (Fig. 7f).
Unlike the paper's alternating-seek cursors, probing a cached Spark partition
is a scan, not a log-time seek; see DESIGN.md §2.3.

A cross join (``on=([], [])``) gives the scalar-comparison idiom used by
TPC-H Q11/Q15/Q22: when the scalar side changes, bilinearity retracts and
re-asserts every dependent pair — reproducing the paper's observation that
inequality-join queries respond slowly to updates regardless of sharing.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from pyspark.sql import DataFrame, functions as F

from repro.core.collection import Reader, Stream
from repro.core.trace import DIFF_COL, MULT_COL, T_COL

_DL, _DR, _ML, _MR = "__dl", "__dr", "__ml", "__mr"


class JoinNode(Stream):
    """Binary equi-join (or cross join) of two arranged collections."""

    def __init__(
        self,
        left: Reader,
        right: Reader,
        on: Tuple[Sequence[str], Sequence[str]],
        select: Optional[Sequence[str]] = None,
    ) -> None:
        self.left, self.right = left, right
        self.left_on, self.right_on = list(on[0]), list(on[1])
        if len(self.left_on) != len(self.right_on):
            raise ValueError("join key lists must have equal length")
        overlap = set(left.data_cols) & set(right.data_cols)
        if overlap:
            raise ValueError(
                f"join sides share column names {sorted(overlap)}; rename one side "
                "(e.g. reader.map_data) before joining"
            )
        out_cols = list(select) if select is not None else left.data_cols + right.data_cols
        unknown = set(out_cols) - set(left.data_cols) - set(right.data_cols)
        if unknown:
            raise ValueError(f"select refers to unknown columns {sorted(unknown)}")
        super().__init__(out_cols)

    def _cond(self):
        if not self.left_on:
            return None  # cross join
        return [F.col(a) == F.col(b) for a, b in zip(self.left_on, self.right_on)]

    def _join(self, l: DataFrame, r: DataFrame) -> DataFrame:
        cond = self._cond()
        return l.crossJoin(r) if cond is None else l.join(r, cond, "inner")

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        dl = self.left.delta(round_)
        dr = self.right.delta(round_)
        if dl is None and dr is None:
            return None
        terms: List[DataFrame] = []
        out = self.data_cols
        if dl is not None:
            sr = self.right.snap(round_)
            if sr is not None:
                t = self._join(
                    F.broadcast(dl.withColumnRenamed(DIFF_COL, _DL).drop(T_COL)),
                    sr.withColumnRenamed(MULT_COL, _MR),
                )
                terms.append(t.select(*out, (F.col(_DL) * F.col(_MR)).alias(DIFF_COL)))
        if dr is not None:
            sl = self.left.snap_before(round_)
            if sl is not None:
                t = self._join(
                    sl.withColumnRenamed(MULT_COL, _ML),
                    F.broadcast(dr.withColumnRenamed(DIFF_COL, _DR).drop(T_COL)),
                )
                terms.append(t.select(*out, (F.col(_ML) * F.col(_DR)).alias(DIFF_COL)))
        if not terms:
            return None
        delta = terms[0]
        for t in terms[1:]:
            delta = delta.unionByName(t)
        return delta.withColumn(T_COL, F.lit(round_))

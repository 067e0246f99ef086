"""The group/reduce operator with a shared output arrangement (§5.3.2).

Per round, the operator identifies the keys touched by its input delta,
re-forms the input for exactly those keys from the input arrangement's
batches (summing each record's multiplicity, which the batches may split
across rows), applies the reduction, and subtracts the previously produced
output (read from its own **output arrangement**) to emit corrective updates —
retraction/assertion pairs as negative/positive diffs.

The output arrangement serves double duty, as in the paper: it lets the
operator diff against its prior output without re-invoking user logic over
history, and it makes the reduce's result itself an arranged collection
(:class:`ReduceNode` implements :class:`~repro.core.collection.Reader`), so a
downstream join can consume the reduction's index directly — the
group-then-join idiom §5.3.2 calls out.

Aggregate helpers weight by multiplicity, and floating-point aggregates are
rounded (4 dp) *inside the operator* so that a later retraction reproduces
bit-identical values and cancels exactly; the DuckDB oracle queries apply the
same rounding.
"""
from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession, functions as F

from repro.core.arrange import Arrangement
from repro.core.collection import Reader, Stream
from repro.core.trace import DIFF_COL, MULT_COL, T_COL

_GROUP = "__g"

#: decimal places all floating-point aggregates are rounded to, engine-wide.
AGG_ROUND = 4


def w_sum(col) -> Column:
    """Multiplicity-weighted SUM, rounded for deterministic retraction."""
    return F.round(F.sum(_c(col) * F.col(MULT_COL)), AGG_ROUND)


def w_count() -> Column:
    """Multiplicity-weighted COUNT(*) (i.e. the multiset cardinality)."""
    return F.sum(F.col(MULT_COL))


def w_avg(col) -> Column:
    """Multiplicity-weighted AVG, rounded like :func:`w_sum`."""
    return F.round(F.sum(_c(col) * F.col(MULT_COL)) / F.sum(F.col(MULT_COL)), AGG_ROUND)


def w_min(col) -> Column:
    """MIN over present records (requires non-negative multiplicities)."""
    return F.min(_c(col))


def w_max(col) -> Column:
    """MAX over present records (requires non-negative multiplicities)."""
    return F.max(_c(col))


def _c(col) -> Column:
    return F.col(col) if isinstance(col, str) else col


class SqlAgg:
    """Whole-stage-SQL reduction: a list of pre-aliased aggregate Columns."""

    def __init__(self, exprs: Sequence[Column], out_cols: Sequence[str]) -> None:
        self.exprs = list(exprs)
        self.out_cols = list(out_cols)

    def apply(self, cur: DataFrame, key_cols: Sequence[str]) -> DataFrame:
        keys = list(key_cols) or [_GROUP]
        if not key_cols:
            cur = cur.withColumn(_GROUP, F.lit(1))
        out = cur.groupBy(*keys).agg(*self.exprs)
        return out.drop(_GROUP) if not key_cols else out


class DistinctAgg(SqlAgg):
    """``distinct``: reduce every present key group to multiplicity one.

    This is the indicator collection behind semi-joins (``A ⋉ B`` =
    ``A ⋈ distinct(π_key B)``) and, with negation, anti-joins.
    """

    def __init__(self) -> None:
        super().__init__([], [])

    def apply(self, cur: DataFrame, key_cols: Sequence[str]) -> DataFrame:
        return cur.filter(F.col(MULT_COL) > 0).select(*key_cols).distinct()


class PandasAgg:
    """Arbitrary per-group reduction via ``applyInPandas`` (the paper's
    user-supplied reduction function from key + values to output values).

    ``fn`` receives the group's rows (data columns + ``__mult``) and returns a
    DataFrame of output columns (no key columns); ``out_schema`` is the Spark
    schema snippet for those output columns, e.g. ``"revenue double"``.
    """

    def __init__(self, fn: Callable[[pd.DataFrame], pd.DataFrame], out_schema: str, out_cols: Sequence[str]) -> None:
        self.fn = fn
        self.out_schema = out_schema
        self.out_cols = list(out_cols)

    def apply(self, cur: DataFrame, key_cols: Sequence[str]) -> DataFrame:
        keys = list(key_cols) or [_GROUP]
        if not key_cols:
            cur = cur.withColumn(_GROUP, F.lit(1))
        key_schema = ", ".join(
            f"{f.name} {f.dataType.simpleString()}" for f in cur.schema if f.name in keys
        )
        schema = f"{key_schema}, {self.out_schema}"
        fn, out_cols = self.fn, self.out_cols

        def wrapped(key, pdf: pd.DataFrame) -> pd.DataFrame:
            out = fn(pdf).copy()
            for i, k in enumerate(keys):
                out[k] = key[i]
            return out[keys + out_cols]

        out = cur.groupBy(*keys).applyInPandas(wrapped, schema=schema)
        return out.drop(_GROUP) if not key_cols else out


class ReduceNode(Stream, Reader):
    """Stateful group/reduce over an arranged input; output is arranged."""

    def __init__(
        self,
        spark: SparkSession,
        in_reader: Reader,
        key_cols: Sequence[str],
        agg,
        name: str,
        merge_effort: str = "default",
    ) -> None:
        out_cols = list(key_cols) + list(agg.out_cols)
        Stream.__init__(self, out_cols)
        self.in_reader = in_reader
        self.reduce_keys = list(key_cols)
        self.agg = agg
        self.key_cols = list(key_cols)  # Reader protocol: output index key
        self.out_arr = Arrangement(
            spark, name, out_cols, list(key_cols), merge_effort=merge_effort
        )

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        din = self.in_reader.delta(round_)
        if din is None:
            if self.out_arr.current_time < round_:
                self.out_arr.ingest(round_, None)
            return None
        snap_in = self.in_reader.snap(round_)
        keys = self.reduce_keys
        changed = F.broadcast(din.select(*keys).distinct()) if keys else None
        cur = snap_in
        if cur is not None and changed is not None:
            cur = cur.join(changed, keys, "left_semi")
        if cur is not None:
            # Net multiplicities: min/max, distinct and pandas reducers must
            # not see a record whose rows cancel across batches.
            cur = (
                cur.groupBy(*self.in_reader.data_cols)
                .agg(F.sum(MULT_COL).alias(MULT_COL))
                .filter(F.col(MULT_COL) != 0)
            )
        new_out = self.agg.apply(cur, keys) if cur is not None else None
        old = self.out_arr.snapshot(round_ - 1)
        if old is not None and changed is not None:
            old = old.join(changed, keys, "left_semi")
        terms: List[DataFrame] = []
        if new_out is not None:
            terms.append(new_out.withColumn(DIFF_COL, F.lit(1)))
        if old is not None:
            terms.append(
                old.withColumn(DIFF_COL, -F.col(MULT_COL)).drop(MULT_COL)
            )
        if not terms:
            if self.out_arr.current_time < round_:
                self.out_arr.ingest(round_, None)
            return None
        delta = terms[0]
        for t in terms[1:]:
            delta = delta.unionByName(t)
        delta = (
            delta.groupBy(*self.data_cols)
            .agg(F.sum(DIFF_COL).alias(DIFF_COL))
            .filter(F.col(DIFF_COL) != 0)
            .withColumn(T_COL, F.lit(round_))
        )
        # ingest materializes the delta (and cuts its lineage) *before* the
        # output batches it reads are merged away.
        return self.out_arr.ingest(round_, delta)

    # -- Reader protocol: downstream joins may consume the output index ------
    # ReduceNode is both a Stream and a Reader; the *Reader* wrappers must
    # win for filter/rename/map_data so `reduce(...).filter(...)` keeps
    # index access (§5.1 filter-as-wrapper) instead of degrading to a stream.
    filter = Reader.filter
    rename = Reader.rename
    map_data = Reader.map_data

    def snap(self, round_: int) -> Optional[DataFrame]:
        self.delta(round_)
        return self.out_arr.snapshot(round_)

    def snap_before(self, round_: int) -> Optional[DataFrame]:
        self.delta(round_)
        return self.out_arr.snapshot(round_ - 1)

    def retire(self) -> None:
        self.in_reader.retire()
        self.out_arr.destroy()

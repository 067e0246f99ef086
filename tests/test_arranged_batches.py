"""Arranged state read in place from the trace's batches.

An arrangement keeps no consolidated snapshot: readers see the union of its
batches, so one record's multiplicity may be split across rows (even rows that
cancel).  These tests pin the consequences: every operator still sees net
multiplicities at every round, zero-reader arrangements compact, evicted
deltas are refused, and the per-batch Spark job cost stays bounded.
"""
import itertools
from collections import Counter

import pandas as pd
import pytest

from repro.core.arrange import Arrangement
from repro.core.dataflow import Dataflow
from repro.core.reduce import PandasAgg, SqlAgg, w_max, w_min
from repro.core.trace import DIFF_COL, MULT_COL, T_COL, Trace

_groups = itertools.count()


def spark_jobs(spark, fn):
    """Run ``fn`` and return the number of Spark jobs it started."""
    sc = spark.sparkContext
    group = f"job-budget-{next(_groups)}"
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return len(sc.statusTracker().getJobIdsForGroup(group))


def records(pdf, cols):
    return sorted(map(tuple, pdf[cols].astype("int64").to_numpy().tolist()))


def expand(counter, cols):
    """A multiset (record -> multiplicity) as a frame of repeated rows."""
    rows = [rec for rec, m in counter.items() for _ in range(m)]
    return pd.DataFrame(rows, columns=cols, dtype="int64")


def top(pdf):
    return pd.DataFrame({"top": [int(pdf["v"].max())], "n": [int(pdf[MULT_COL].sum())]})


# (a inserts, a retractions, b inserts, b retractions) per round.  Records
# are inserted in one round and retracted in a later one, and a lazy trace
# keeps those rounds in separate batches.
SCRIPT = [
    ([(1, 10), (1, 20), (2, 5), (3, 7)], [], [(1, 100), (2, 200), (2, 200)], []),
    ([(2, 3)], [(1, 10)], [(3, 300)], []),
    ([], [(2, 5), (2, 3)], [], [(2, 200)]),
    ([(1, 10), (4, 1), (4, 1)], [(3, 7)], [(4, 400)], [(1, 100)]),
    ([(3, 8)], [(4, 1)], [(1, 100)], [(3, 300)]),
]
LATE_ROUND = 2
LATE = ("join", "semi", "anti")


def _expected(a, b):
    A, B = expand(a, ["k", "v"]), expand(b, ["k", "w"])
    in_b = A.k.isin(set(B.k))
    by_k = A.groupby("k")
    return {
        "minmax": by_k.v.agg(lo="min", hi="max").reset_index(),
        "distinct": B.drop_duplicates(),
        "semi": A[in_b],
        "anti": A[~in_b],
        "topk": by_k.agg(top=("v", "max"), n=("v", "size")).reset_index(),
        "join": A.merge(B, on="k")[["k", "v", "w"]],
    }


COLS = {
    "minmax": ["k", "lo", "hi"],
    "distinct": ["k", "w"],
    "semi": ["k", "v"],
    "anti": ["k", "v"],
    "topk": ["k", "top", "n"],
    "join": ["k", "v", "w"],
}


def _join(ctx):
    a = ctx.arranged("a", ["k"])
    b = ctx.arranged("b", ["k"]).rename({"k": "k2"})
    return ctx.join(a, b, (["k"], ["k2"]), select=["k", "v", "w"])


BUILDERS = {
    "minmax": lambda ctx: ctx.reduce(
        ctx.arranged("a", ["k"]), ["k"],
        SqlAgg([w_min("v").alias("lo"), w_max("v").alias("hi")], ["lo", "hi"]),
    ),
    "distinct": lambda ctx: ctx.distinct(ctx.arranged("b", ["k", "w"]), ["k", "w"]),
    "semi": lambda ctx: ctx.semi_join(
        ctx.arranged("a", ["k"]), ctx.arranged("b", ["k"]), (["k"], ["k"])
    ),
    "anti": lambda ctx: ctx.anti_join(
        ctx.arranged("a", ["k"]), ctx.arranged("b", ["k"]), (["k"], ["k"])
    ),
    "topk": lambda ctx: ctx.reduce(
        ctx.arranged("a", ["k"]), ["k"], PandasAgg(top, "top long, n long", ["top", "n"])
    ),
    "join": _join,
}


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
def test_reads_across_unmerged_batches(spark, shared):
    """Every operator matches pandas at every round over split multiplicities,
    including queries installed mid-stream and the rounds after."""
    flow = Dataflow(spark, shared=shared, merge_effort="lazy")
    flow.input("a", ["k", "v"])
    flow.input("b", ["k", "w"])
    queries = {name: flow.install(name, build) for name, build in BUILDERS.items()}
    a, b = Counter(), Counter()
    for rnd, (a_ins, a_ret, b_ins, b_ret) in enumerate(SCRIPT, start=1):
        for name, rows, cols, diff in (
            ("a", a_ins, ["k", "v"], 1),
            ("a", a_ret, ["k", "v"], -1),
            ("b", b_ins, ["k", "w"], 1),
            ("b", b_ret, ["k", "w"], -1),
        ):
            if rows:
                flow.feed(name, pd.DataFrame(rows, columns=cols), diff=diff)
        a.update(a_ins), a.subtract(a_ret)
        b.update(b_ins), b.subtract(b_ret)
        a, b = +a, +b
        flow.step()
        if rnd == LATE_ROUND:
            # The join's two readers import in the same round; semi- and
            # anti-joins also arrange a derived stream privately at install.
            for name in LATE:
                queries[f"late_{name}"] = flow.install(f"late_{name}", BUILDERS[name])
        want = _expected(a, b)
        for name, q in queries.items():
            base = name.removeprefix("late_")
            cols = COLS[base]
            assert records(q.result(), cols) == records(want[base], cols), (
                f"{name} differs at round {rnd}"
            )
    if shared:
        arr = flow.store._by_key[("a", ("k",))].arrangement  # noqa: SLF001
        assert len(arr.trace.batches) == len(SCRIPT)  # no batch was merged


def test_zero_reader_arrangement_compacts(spark):
    """A shared arrangement whose last reader retired stays bounded."""
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])
    live = list(range(1000))
    flow.feed("a", pd.DataFrame({"k": live, "v": live}))
    flow.step()
    flow.install("q", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
    flow.retire("q")
    arr = flow.store.nodes[0].arrangement
    assert arr.reader_count() == 0
    for _ in range(12):
        gone, new = live[:500], list(range(live[-1] + 1, live[-1] + 501))
        flow.feed("a", pd.DataFrame({"k": gone, "v": gone}), diff=-1)
        flow.feed("a", pd.DataFrame({"k": new, "v": new}))
        live = live[500:] + new
        flow.step()
        assert arr.trace.total_rows() <= 3 * len(live)
    late = flow.install("late", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
    assert records(late.result(), ["k", "v"]) == [(k, k) for k in live]


def _updates(spark, keys, t):
    return spark.createDataFrame(
        pd.DataFrame({"k": keys, T_COL: t, DIFF_COL: 1}, dtype="int64")
    )


def test_delta_of_evicted_round_raises(spark):
    arr = Arrangement(spark, "evict", ["k"], ["k"])
    for r in range(4):
        arr.ingest(r, _updates(spark, [r], r))
    assert arr.delta(3).collect()[0]["k"] == 3
    assert arr.delta(2).collect()[0]["k"] == 2
    with pytest.raises(ValueError, match="no longer retains"):
        arr.delta(1)


class TestJobBudget:
    """Spark jobs per batch and per round: a stray action fails these."""

    def test_seal_runs_at_most_two_jobs(self, spark):
        trace = Trace(["k"], ["k"])
        delta = _updates(spark, list(range(100)), 1)
        delta.count()
        batch = None

        def seal():
            nonlocal batch
            batch = trace.seal(delta, upper=2)

        assert spark_jobs(spark, seal) <= 2
        assert batch.rows == 100

    #: the costliest round below, measured: two input seals, one merge of the
    #: big arrangement, and the join pulled by the sink (7 jobs without the
    #: merge).  A per-round snapshot roll with separately counted batches
    #: made the same rounds cost 23 and 33 jobs.
    STEP_BUDGET = 11

    def test_lookup_join_round_budget(self, spark):
        flow = Dataflow(spark, shared=True)
        flow.input("big", ["k", "v"])
        flow.input("args", ["a"])
        flow.feed("big", pd.DataFrame({"k": range(10_000), "v": range(10_000)}))
        flow.step()
        q = flow.install("lookup", lambda ctx: ctx.join(
            ctx.arranged("args", ["a"]), ctx.arranged("big", ["k"]), (["a"], ["k"])
        ))
        jobs = []
        for r in range(4):
            keys = list(range(10_000 + 100 * r, 10_100 + 100 * r))
            flow.feed("big", pd.DataFrame({"k": keys, "v": keys}))
            flow.feed("args", pd.DataFrame({"a": [keys[0]]}))
            jobs.append(spark_jobs(spark, flow.step))
        assert len(q.result()) == 4
        assert max(jobs) <= self.STEP_BUDGET, jobs

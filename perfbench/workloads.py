"""The benchmark workloads: inputs from a seed, a timed closed loop, checks.

A workload drives a :class:`Dataflow` in shared mode and, in traced runs,
then a second one in unshared mode over the same inputs (regenerated from the
seed).  The loop is closed: one round or install in flight at a time.

Every timing wraps a single call into the engine's public API
(``Dataflow.step``, ``Dataflow.install``) from this file.  Output checks run
outside the timed calls and outside every span; an operation that raises or
fails its check counts as failed.  Warm-up (the load round and a few
unmeasured iterations) is excluded from the samples and counted in
``setup_s``.
"""
from __future__ import annotations

import gc
import math
import statistics
import sys
import time
import traceback
from collections import deque
from contextlib import nullcontext
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession, functions as F

from repro.core.dataflow import Dataflow
from repro.core.memory import cached_rdd_count, spark_cached_bytes
from repro.core.reduce import SqlAgg, w_count, w_sum
from repro.core.trace import DIFF_COL as DIFF

MODES = ("shared", "unshared")
#: Spark's per-job cost keeps falling for the first rounds of a session (JIT,
#: codegen caches), so the first phase warms up for about this many seconds
#: of unmeasured iterations.
WARMUP_S = 8.0


def _frames_equal(got: pd.DataFrame, want: pd.DataFrame, cols: List[str]) -> bool:
    """Multiset equality of two integer-valued frames over ``cols``."""
    if len(got) != len(want):
        return False
    a = got[cols].astype("int64").sort_values(cols).to_numpy()
    b = want[cols].astype("int64").sort_values(cols).to_numpy()
    return bool((a == b).all())


def settle_cached(spark: SparkSession, max_passes: int = 20) -> tuple:
    """Block-manager bytes once Python and JVM GC reach a fixed point.

    Unreachable checkpointed batches are only unpersisted after both
    collectors and Spark's ContextCleaner have run, so a reading taken
    straight after a run counts dead state.  Passes repeat until the cached
    RDD count is unchanged twice in a row.
    """
    last, stable = -1, 0
    for _ in range(max_passes):
        gc.collect()
        spark._jvm.System.gc()  # noqa: SLF001 — no public JVM GC hook
        time.sleep(0.25)
        n = cached_rdd_count(spark)
        stable = stable + 1 if n == last else 0
        last = n
        if stable >= 2:
            break
    return spark_cached_bytes(spark), last


class Workload:
    """Shared scaffolding: phases per mode, timing, samples, checks, results.

    A run is one phase per mode.  Each phase regenerates the inputs from the
    seed, so every mode sees identical inputs; it sets up and warms a fresh
    :class:`Dataflow`, measures about ``seconds`` worth of iterations,
    records the mode's cached bytes and releases the dataflow before the next
    phase starts.
    """

    name = ""
    #: seconds one measured iteration took per mode, on 4 cores, at the
    #: commit that added the benchmark
    NOMINAL_ITERATION_S: Dict[str, float]

    def __init__(self, spark: SparkSession, seed: int, tracer=None) -> None:
        self.spark, self.seed, self.tracer = spark, seed, tracer
        self.flow: Optional[Dataflow] = None
        self.samples = {m: {"round": [], "install": []} for m in MODES}
        self.setup_secs = {m: 0.0 for m in MODES}
        self.rows_fed = {m: 0 for m in MODES}
        self.memory = {m: {} for m in MODES}
        self.attempted = self.failed = 0
        self.gauges: Dict[str, float] = {}
        self._ops = 0

    # -- hooks each workload implements -----------------------------------

    def generate(self) -> None:
        """Build the initial data from ``self.rng`` (timed as set-up)."""
        raise NotImplementedError

    def load(self, mode: str) -> Dataflow:
        """Create the mode's dataflow, load it and install standing queries."""
        raise NotImplementedError

    def next_inputs(self) -> dict:
        """The next iteration's inputs; advances the reference model."""
        raise NotImplementedError

    def apply(self, mode: str, inp: dict, measured: bool) -> None:
        """Run one iteration's operations on ``self.flow``."""
        raise NotImplementedError

    # -- operations -----------------------------------------------------------

    def _op(self, kind: str, mode: str, measured: bool):
        """One benchmark operation: a root span when traced; counted when
        measured."""
        self._ops += 1
        if measured:
            self.attempted += 1
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(f"bench.{kind}", kind=kind, mode=mode,
                                measured=measured, op=self._ops)

    def timed(self, kind: str, mode: str, measured: bool, call, rows: int = 0):
        """Time one engine call; measured calls add a sample and an attempt.

        ``rows`` is the number of input rows the call consumes (rounds)."""
        with self._op(kind, mode, measured):
            t0 = time.perf_counter()
            out = call()
            dt = time.perf_counter() - t0
        if measured:
            self.samples[mode][kind].append(dt)
            self.rows_fed[mode] += rows
        return out

    def untimed(self, kind: str, mode: str, measured: bool, call):
        """An engine call that is part of the loop but not a sample."""
        with self._op(kind, mode, measured):
            return call()

    def check(self, measured: bool, op: str, **oks: bool) -> None:
        """The output checks of one operation; any failure fails it once."""
        bad = [name for name, ok in oks.items() if not ok]
        if bad:
            print(f"perfbench: {op}: output differs from the reference: {bad}",
                  file=sys.stderr)
            if measured:
                self.failed += 1

    # -- the run -------------------------------------------------------------

    def iterations(self, mode: str, seconds: float) -> int:
        """Measured iterations of a phase: ``seconds`` at the nominal pace.

        A fixed count, not a deadline, so every run of every commit measures
        the same operations (the merge pattern, and so the Spark job count,
        differs from round to round).
        """
        return max(1, round(seconds / self.NOMINAL_ITERATION_S[mode]))

    def execute(self, seconds: float) -> None:
        """Untraced runs measure shared mode; traced runs also the unshared
        baseline, whose numbers are reported beside the per-layer ones."""
        for mode in MODES if self.tracer is not None else MODES[:1]:
            self._phase(mode, seconds)

    def _phase(self, mode: str, seconds: float) -> None:
        t0 = time.perf_counter()
        self.rng = np.random.default_rng(self.seed)
        self.generate()
        self.flow = self.load(mode)
        # The unshared phase runs in a JVM the shared phase already warmed.
        warm = math.ceil(WARMUP_S / self.NOMINAL_ITERATION_S[mode]) if mode == MODES[0] else 1
        for _ in range(warm):
            self.apply(mode, self.next_inputs(), measured=False)
        self.setup_secs[mode] = time.perf_counter() - t0
        for _ in range(self.iterations(mode, seconds)):
            try:
                self.apply(mode, self.next_inputs(), measured=True)
            except Exception:  # noqa: BLE001 — report the failure, end the phase
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                break
        if mode == "shared":
            self.gauges = self._gauges()
        self.memory[mode]["estimate"] = self.flow.memory_bytes()
        self.memory[mode]["bytes"], self.memory[mode]["rdds"] = settle_cached(self.spark)
        self._release()

    def _gauges(self) -> Dict[str, float]:
        """Structure of the shared dataflow's state at the end of its phase."""
        flow = self.flow
        arrs = [n.arrangement for n in flow.store.nodes]
        for q in flow.queries.values():
            arrs += [r.out_arr for r in q.context.reduce_nodes]
        live_rows = sum(getattr(a, "snapshot_rows", 0) for a in arrs)
        return {
            "store.arrangements": len(flow.store.nodes),
            "arrange.zero_reader_arrangements": sum(
                1 for n in flow.store.nodes if n.arrangement.reader_count() == 0),
            "trace.batches_max": max(len(a.trace.batches) for a in arrs),
            "trace.rows_per_live_row": sum(a.trace.total_rows() for a in arrs)
            / max(live_rows, 1),
            "collection.history_frames": sum(
                len(s._history) for s in flow.inputs.values()),  # noqa: SLF001
        }

    def _release(self) -> None:
        """Destroy every arrangement of the phase's dataflow."""
        for name in list(self.flow.queries):
            self.flow.retire(name)
        for node in self.flow.store.nodes:
            node.destroy()
        self.flow = None

    # -- results ---------------------------------------------------------------

    def result(self, session_s: float) -> dict:
        for mode in MODES:
            for kind, xs in self.samples[mode].items():
                if xs:
                    print(f"perfbench: {mode} {kind} samples (s): "
                          + " ".join(f"{x:.3f}" for x in xs), file=sys.stderr)
        metrics = self._per_layer() if self.tracer is not None else self._end_to_end(session_s)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def _latencies(self, mode: str, prefix: str = "") -> dict:
        """Update throughput and install latency of one mode's phase.

        Rounds are summarised by throughput (rows fed / summed ``step()``
        time) rather than a median: merges make round cost periodic (every
        other round on install-churn), and a median of a two-level sample
        jumps between the levels from run to run.
        """
        s = self.samples[mode]
        return {
            f"{prefix}update_rows_per_s": (self.rows_fed[mode] / sum(s["round"]), "rows/s"),
            f"{prefix}install_p50_s": (statistics.median(s["install"]), "s"),
        }

    def _end_to_end(self, session_s: float) -> dict:
        return {
            "setup_s": (session_s + self.setup_secs["shared"], "s"),
            **self._latencies("shared"),
            "arranged_bytes": (self.memory["shared"]["bytes"], "bytes"),
        }

    def _per_layer(self) -> dict:
        tr = self.tracer
        lay = tr.layers(mode="shared", measured=True)
        ulay = tr.layers(mode="unshared", measured=True)
        n = len(self.samples["shared"]["round"])
        un = len(self.samples["unshared"]["round"])

        def per(name: str, key: str, layer=lay, iters=n) -> float:
            return layer.get(name, {}).get(key, 0.0) / iters

        def op_jobs(kind: str, mode: str = "shared") -> float:
            return statistics.median(tr.op_jobs(kind=kind, mode=mode, measured=True))

        root_s = sum(v["secs"] for k, v in lay.items() if k.startswith("bench."))
        inner_self = sum(v["self_s"] for k, v in lay.items() if not k.startswith("bench."))
        shared_mem = self.memory["shared"]
        out = {
            "dataflow.round_jobs": (op_jobs("round"), "count"),
            "dataflow.install_jobs": (op_jobs("install"), "count"),
            "dataflow.input_convert_s": (per("dataflow.input_convert", "self_s"), "s"),
            "dataflow.sink_pull_self_s": (per("dataflow.sink_pull", "self_s"), "s"),
            "dataflow.sink_pull_jobs": (per("dataflow.sink_pull", "jobs"), "count"),
            "dataflow.sink_rows": (per("dataflow.sink_pull", "rows"), "rows"),
            "store.input_reader_s": (per("store.input_reader", "secs"), "s"),
            "store.input_reader_jobs": (per("store.input_reader", "jobs_incl"), "count"),
            "store.advance_all_self_s": (per("store.advance_all", "self_s"), "s"),
            "arrange.ingest_self_s": (per("arrange.ingest", "self_s"), "s"),
            "arrange.ingest_jobs": (per("arrange.ingest", "jobs"), "count"),
            "arrange.ingests": (per("arrange.ingest", "calls"), "count"),
            "trace.seal_s": (per("trace.seal", "self_s"), "s"),
            "trace.seal_jobs": (per("trace.seal", "jobs"), "count"),
            "trace.merges": (per("trace.seal", "merges"), "count"),
            "join.calls": (per("join.delta", "calls"), "count"),
            "join.plan_s": (per("join.delta", "self_s"), "s"),
            "reduce.calls": (per("reduce.delta", "calls"), "count"),
            "reduce.self_s": (per("reduce.delta", "self_s"), "s"),
            "memory.cached_rdds": (shared_mem["rdds"], "count"),
            "memory.estimate_ratio": (shared_mem["estimate"] / max(shared_mem["bytes"], 1),
                                      "ratio"),
            "spans.self_coverage": (inner_self / root_s, "ratio"),
            **self._latencies("shared", "traced."),
            "traced.round_p50_s": (statistics.median(self.samples["shared"]["round"]), "s"),
            **self._latencies("unshared", "unshared."),
            "unshared.round_p50_s": (
                statistics.median(self.samples["unshared"]["round"]), "s"),
            "unshared.arranged_bytes": (self.memory["unshared"]["bytes"], "bytes"),
            "unshared.dataflow.round_jobs": (op_jobs("round", "unshared"), "count"),
            "unshared.store.input_reader_s": (
                per("store.input_reader", "secs", ulay, un), "s"),
            "unshared.store.input_reader_jobs": (
                per("store.input_reader", "jobs_incl", ulay, un), "count"),
        }
        units = {"store.arrangements": "count", "arrange.zero_reader_arrangements": "count",
                 "trace.batches_max": "count", "trace.rows_per_live_row": "ratio",
                 "collection.history_frames": "count"}
        out.update({k: (v, units[k]) for k, v in self.gauges.items()})
        return out


# ---------------------------------------------------------------------------
# lookup-steady: standing queries over a churning 100k-row arrangement
# ---------------------------------------------------------------------------


class LookupSteady(Workload):
    """A 100k-row collection read by a lookup join and a grouped count/sum.

    Each round feeds 50 retractions and 50 insertions plus one new lookup
    argument, then checks both standing queries against a pandas recompute.
    After the round, two one-shot lookups (the new argument and a repeat of an
    earlier one) are each installed, checked and retired: installs against a
    trace that is being updated.

    Retractions only hit rows of the initial load, and 100 updates touch all
    ten groups, so every arrangement receives the same number of rows each
    round: the merge pattern, and with it each round's Spark job count, is the
    same for every seed.
    """

    name = "lookup-steady"
    NOMINAL_ITERATION_S = {"shared": 4.9, "unshared": 12.5}
    ROWS, GROUPS, CHURN = 100_000, 10, 50

    def generate(self) -> None:
        n, g = self.ROWS, self.rng
        self.big0 = pd.DataFrame({
            "k": np.arange(n), "g": g.integers(0, self.GROUPS, n), "v": g.integers(0, 1000, n),
        })
        self.live = self.big0.copy()
        self.next_key = n
        self.args: List[int] = []
        self.round_no = 0

    def load(self, mode: str) -> Dataflow:
        flow = Dataflow(self.spark, shared=(mode == "shared"))
        flow.input("big", ["k", "g", "v"])
        flow.input("args", ["a"])
        flow.feed("big", self.big0)
        flow.step()
        flow.install("lookup", lambda ctx: ctx.join(
            ctx.arranged("args", ["a"]), ctx.arranged("big", ["k"]),
            (["a"], ["k"]), select=["a", "g", "v"]))
        flow.install("groups", lambda ctx: ctx.reduce(
            ctx.arranged("big", ["k"]), ["g"],
            SqlAgg([w_count().alias("n"), w_sum("v").alias("s")], ["n", "s"])))
        return flow

    def next_inputs(self) -> dict:
        g, c = self.rng, self.CHURN
        initial = np.flatnonzero(self.live.k.to_numpy() < self.ROWS)
        gone = self.live.iloc[g.choice(initial, c, replace=False)]
        new = pd.DataFrame({
            "k": np.arange(self.next_key, self.next_key + c),
            "g": g.integers(0, self.GROUPS, c), "v": g.integers(0, 1000, c),
        })
        self.next_key += c
        self.live = pd.concat([self.live.drop(gone.index), new], ignore_index=True)
        updates = pd.concat([gone.assign(**{DIFF: -1}), new.assign(**{DIFF: 1})], ignore_index=True)
        arg = int(g.integers(0, self.next_key))
        self.args.append(arg)
        self.round_no += 1
        args = pd.DataFrame({"a": self.args})

        def lookup(a: pd.DataFrame) -> pd.DataFrame:
            return a.merge(self.live, left_on="a", right_on="k")[["a", "g", "v"]]

        # One-shot lookups: the new argument and a repeat of an earlier one.
        spots = [arg, int(g.choice(self.args))]
        return {
            "updates": updates,
            "arg": arg,
            "round": self.round_no,
            "lookup": lookup(args),
            "spots": [(a, lookup(args[args.a == a])) for a in spots],
            "groups": self.live.groupby("g").agg(n=("k", "size"), s=("v", "sum")).reset_index(),
        }

    def apply(self, mode: str, inp: dict, measured: bool) -> None:
        flow = self.flow
        flow.feed("big", inp["updates"])
        flow.feed("args", pd.DataFrame({"a": [inp["arg"]]}))
        self.timed("round", mode, measured, flow.step, rows=len(inp["updates"]) + 1)
        tag = f"{mode} round {inp['round']}"
        self.check(
            measured, tag,
            lookup=_frames_equal(flow.queries["lookup"].result(), inp["lookup"], ["a", "g", "v"]),
            groups=_frames_equal(flow.queries["groups"].result(), inp["groups"], ["g", "n", "s"]),
        )

        for i, (a, want) in enumerate(inp["spots"]):
            def spot(ctx, a=a):
                return ctx.join(
                    ctx.arranged("args", ["a"]).filter(F.col("a") == a),
                    ctx.arranged("big", ["k"]), (["a"], ["k"]), select=["a", "g", "v"])

            name = f"spot{inp['round']}.{i}"
            q = self.timed("install", mode, measured, lambda: flow.install(name, spot))
            self.check(measured, f"{tag} install {name}",
                       lookup=_frames_equal(q.result(), want, ["a", "g", "v"]))
            self.untimed("retire", mode, measured, lambda: flow.retire(name))


# ---------------------------------------------------------------------------
# install-churn: new probe ⋈ big queries against an unchanging arrangement
# ---------------------------------------------------------------------------


class InstallChurn(Workload):
    """Installs of probe ⋈ big queries over a pre-loaded 100k-row arrangement.

    Each iteration feeds 100 probe keys for a new query id (and retracts the
    probes of the query retired last), steps, installs the query, checks its
    initial result against a pandas merge, and retires the oldest query so
    that four stay live.  A retired query's output is checked once more.
    """

    name = "install-churn"
    NOMINAL_ITERATION_S = {"shared": 2.2, "unshared": 4.5}
    ROWS, PROBES, LIVE = 100_000, 100, 4

    def generate(self) -> None:
        n = self.ROWS
        self.big = pd.DataFrame({"k": np.arange(n), "v": self.rng.integers(0, 1000, n)})
        self.qid = 0
        self.live_q: deque = deque()
        self.probes: Dict[int, pd.DataFrame] = {}
        self.expected: Dict[int, pd.DataFrame] = {}
        self.retract: Optional[pd.DataFrame] = None

    def load(self, mode: str) -> Dataflow:
        flow = Dataflow(self.spark, shared=(mode == "shared"))
        flow.input("big", ["k", "v"])
        flow.input("probe", ["qid", "pk"])
        flow.feed("big", self.big)
        flow.step()
        return flow

    def next_inputs(self) -> dict:
        i = self.qid = self.qid + 1
        # Distinct keys, ~9% of which miss the arrangement.
        keys = self.rng.choice(self.ROWS * 11 // 10, self.PROBES, replace=False)
        probe = pd.DataFrame({"qid": i, "pk": keys})
        self.probes[i] = probe
        self.expected[i] = probe.merge(self.big, left_on="pk", right_on="k")[["qid", "pk", "v"]]
        inp = {"qid": i, "probe": probe, "retract": self.retract, "retire": None}
        self.live_q.append(i)
        self.retract = None
        if len(self.live_q) > self.LIVE:
            old = self.live_q.popleft()
            inp["retire"] = old
            self.retract = self.probes.pop(old)
        return inp

    def apply(self, mode: str, inp: dict, measured: bool) -> None:
        flow, i = self.flow, inp["qid"]
        flow.feed("probe", inp["probe"])
        rows = len(inp["probe"])
        if inp["retract"] is not None:
            flow.feed("probe", inp["retract"], diff=-1)
            rows += len(inp["retract"])
        self.timed("round", mode, measured, flow.step, rows=rows)

        def build(ctx):
            probe = ctx.arranged("probe", ["pk"]).filter(F.col("qid") == i)
            return ctx.join(probe, ctx.arranged("big", ["k"]), (["pk"], ["k"]),
                            select=["qid", "pk", "v"])

        q = self.timed("install", mode, measured, lambda: flow.install(f"q{i}", build))
        cols = ["qid", "pk", "v"]
        self.check(measured, f"{mode} install q{i}",
                   initial=_frames_equal(q.result(), self.expected[i], cols))
        old = inp["retire"]
        if old is not None:
            gone = self.untimed("retire", mode, measured, lambda: flow.retire(f"q{old}"))
            self.check(measured, f"{mode} retire q{old}",
                       final=_frames_equal(gone.result(), self.expected[old], cols))
            del self.expected[old]


WORKLOADS = {w.name: w for w in (LookupSteady, InstallChurn)}

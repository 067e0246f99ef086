"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload lookup-steady --seed 1 --seconds 25 --trace 0

Run from the root of a checkout of this repository.  The engine is imported
from ``src/`` of that checkout; Spark runs ``local[*]`` with the settings of
``repro.session.get_session``.  Every temporary file Spark or Python writes
goes under ``.bench_build/perfbench/`` in the checkout.

``--trace 0`` reports the end-to-end metrics with no instrumentation;
``--trace 1`` records nested spans around the engine's public entry points
(see ``spans.py``), writes them to ``.bench_build/perfbench/`` and reports
the per-layer metrics instead.  The last line of standard output is the JSON
result; a readable table of the same numbers precedes it.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER_MEMORY = "2g"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _confine_to_checkout() -> None:
    """Point every temp/scratch location of Python, the JVM and Spark at WORK."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    # Spark's Python workers unpickle repro.* by reference.
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    # Every JVM, the spark-submit launcher's too, keeps its files in tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[*] --driver-memory {DRIVER_MEMORY} "
        # A fixed-size heap keeps GC behaviour alike from run to run.
        f"--driver-java-options -Xms{DRIVER_MEMORY} "
        f"--conf spark.local.dir={tmp} "
        f"--conf spark.sql.warehouse.dir={os.path.join(WORK, 'warehouse')} "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell"
    )
    # Pin the knobs get_session reads, so the environment cannot move them.
    os.environ["SPARK_MASTER"] = "local[*]"
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = "64"
    sys.path.insert(0, SRC)


def _stop_spark(spark) -> None:
    """Stop Spark and wait for the gateway JVM (and its workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway  # noqa: SLF001 — owner of the JVM process
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def _table(result: dict) -> str:
    lines = [f"{'metric':<36} {'value':>16}  unit"]
    for name, m in result["metrics"].items():
        lines.append(f"{name:<36} {m['value']:>16.6g}  {m['unit']}")
    rate = result["failed"] / result["attempted"]
    lines.append(f"{'error_rate':<36} {rate:>16.6g}  fraction "
                 f"({result['failed']} of {result['attempted']} operations)")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse_args(argv)
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "dataflow.py")):
        print(f"perfbench: no engine sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    _confine_to_checkout()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads  # noqa: E402 — needs the sys.path set up above

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    from repro.session import get_session

    spark = get_session("perfbench")
    try:
        spark.sparkContext.setLogLevel("ERROR")
        spark.range(1).count()  # the session is usable only after a first job
        session_s = time.perf_counter() - t_start
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer(spark)
        run = workloads.WORKLOADS[args.workload](spark, args.seed, tracer)
        run.execute(args.seconds)
        result = run.result(session_s)
        if tracer is not None:
            path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
            tracer.dump(path)
            print(f"perfbench: spans written to {path}", file=sys.stderr)
    finally:
        _stop_spark(spark)
    print(_table(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

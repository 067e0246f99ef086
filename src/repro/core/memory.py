"""Memory accounting for arrangement state (Fig. 1c / 5c).

Two meters, cross-checked in tests:

* :func:`spark_cached_bytes` — ground truth from the JVM block manager via
  ``sc.getRDDStorageInfo()``: bytes of every cached block (all of our cached
  DataFrames are arrangement batches).
* ``Dataflow.memory_bytes()`` — an O(1) row-count-based estimate maintained by
  the arrangements themselves, used inside tight measurement loops where a
  JVM round-trip would perturb latency numbers.

The paper reports process RSS; a JVM's RSS is dominated by heap-retention
policy, so cached-state bytes is the comparable, policy-free quantity (see
DESIGN.md §2.6).  Shared and unshared configurations are measured
identically, so the ratios Fig. 1c/5c exhibit are preserved.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def spark_cached_bytes(spark: SparkSession) -> int:
    """Total bytes of cached RDD blocks currently held by the block manager."""
    jsc = spark.sparkContext._jsc.sc()  # noqa: SLF001 — no public storage API
    return int(sum(i.memSize() + i.diskSize() for i in jsc.getRDDStorageInfo()))


def cached_rdd_count(spark: SparkSession) -> int:
    """Number of cached RDDs (arrangement batches) alive."""
    jsc = spark.sparkContext._jsc.sc()  # noqa: SLF001
    return len(jsc.getRDDStorageInfo())

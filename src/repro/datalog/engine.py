"""A positive Datalog engine over binary relations, built on Spark.

Rules are restricted to the shape the paper's workloads need (tc, sg, and
Graspan's CFL-reachability grammars): heads are binary, bodies are one or two
binary atoms chained on shared variables, atoms may be *inverted* (read
``rel(Y, X)``), and an optional ``X != Y`` constraint is supported.

Evaluation is semi-naive over :class:`~repro.core.iterate.StaticIndex`
arrangements of the EDB relations: each iteration joins only the per-relation
*deltas* against the full arranged relations, unions candidates, and
de-duplicates against totals — the arrangement-aware join pattern of §5.3.1
in batch form.  All recursive relations reach a joint fixpoint (mutual
recursion is supported; Graspan's points-to needs it).
"""
from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.trace import N_SHARDS, materialize


@dataclass(frozen=True)
class Atom:
    """One body atom: relation name, and whether its columns are swapped.

    An atom binds (left_var, right_var); ``inverted=True`` reads the stored
    relation with src/dst swapped (e.g. ``VF(Z, X)`` probed by ``X``).
    """

    rel: str
    inverted: bool = False


@dataclass(frozen=True)
class Rule:
    """``head(X, Z) :- body[0](X, Y), body[1](Y, Z) [, X != Z]``.

    With a single body atom the rule is a (possibly inverted) copy:
    ``head(X, Y) :- body[0](X, Y)``.
    """

    head: str
    body: Tuple[Atom, ...]
    neq: bool = False  # require head's two variables to differ

    def __post_init__(self):
        if not 1 <= len(self.body) <= 2:
            raise ValueError("rules must have one or two body atoms")


@dataclass
class Program:
    """A set of rules over EDB (base) and IDB (derived) binary relations."""

    rules: List[Rule]

    def idb_relations(self) -> List[str]:
        return sorted({r.head for r in self.rules})

    def edb_relations(self) -> List[str]:
        heads = set(self.idb_relations())
        return sorted(
            {a.rel for r in self.rules for a in r.body if a.rel not in heads}
        )


def _orient(df: DataFrame, atom: Atom) -> DataFrame:
    """Read an atom's relation as columns (a, b) honouring inversion."""
    if atom.inverted:
        return df.select(F.col("dst").alias("a"), F.col("src").alias("b"))
    return df.select(F.col("src").alias("a"), F.col("dst").alias("b"))


class Evaluator:
    """Semi-naive bottom-up evaluation of a :class:`Program`.

    ``edb`` maps base relation names to (src, dst) DataFrames; they are
    arranged once (cached + key-partitioned) and shared by all rules — pass
    ``indexes`` to reuse arrangements across evaluator instances (the shared
    arrangements of Fig. 8's incremental column).  Building them fresh per
    query is the "full evaluation (no SA)" baseline.
    """

    def __init__(
        self,
        spark: SparkSession,
        program: Program,
        edb: Dict[str, DataFrame],
        indexes: Optional[Dict[str, DataFrame]] = None,
    ) -> None:
        self.spark = spark
        self.program = program
        missing = set(program.edb_relations()) - set(edb)
        if missing:
            raise ValueError(f"missing EDB relations: {sorted(missing)}")
        if indexes is not None:
            self.edb = indexes
            self.index_build_secs = 0.0
        else:
            t0 = _time.perf_counter()
            self.edb = {
                name: materialize(
                    df.select("src", "dst").repartition(N_SHARDS, F.col("src"))
                )[0]
                for name, df in edb.items()
            }
            self.index_build_secs = _time.perf_counter() - t0
        self.iterations = 0

    def _rel(self, name: str, totals: Dict[str, DataFrame]) -> Optional[DataFrame]:
        if name in self.edb:
            return self.edb[name]
        return totals.get(name)

    def _fire(
        self,
        rule: Rule,
        totals: Dict[str, DataFrame],
        deltas: Dict[str, Optional[DataFrame]],
        initial: bool,
    ) -> List[DataFrame]:
        """All semi-naive instantiations of one rule for this iteration.

        On the initial round EDB-only rules fire from full relations; later
        rounds require at least one *delta* atom per instantiation.
        """
        out: List[DataFrame] = []
        idb = set(self.program.idb_relations())

        def reading(atom: Atom, use_delta: bool) -> Optional[DataFrame]:
            df = deltas.get(atom.rel) if use_delta else self._rel(atom.rel, totals)
            return None if df is None else _orient(df, atom)

        if len(rule.body) == 1:
            atom = rule.body[0]
            src = reading(atom, atom.rel in idb) if not initial else reading(atom, False)
            if src is not None:
                out.append(src.select(F.col("a").alias("src"), F.col("b").alias("dst")))
        else:
            a1, a2 = rule.body
            variants = []
            if initial:
                variants.append((False, False))
            else:
                # Semi-naive: every instantiation with >= 1 delta atom.  The
                # delta x delta term is required for correctness when both
                # atoms are recursive; de-duplication absorbs the overlap
                # with the delta x full terms.
                if a1.rel in idb:
                    variants.append((True, False))
                if a2.rel in idb:
                    variants.append((False, True))
                if a1.rel in idb and a2.rel in idb:
                    variants.append((True, True))
                if not variants:
                    return out  # EDB-only rule: nothing new after round one
            for d1, d2 in variants:
                l = reading(a1, d1)
                r = reading(a2, d2)
                if l is None or r is None:
                    continue
                j = l.join(
                    r.select(F.col("a").alias("b"), F.col("b").alias("c")), "b", "inner"
                ).select(F.col("a").alias("src"), F.col("c").alias("dst"))
                out.append(j)
        if rule.neq:
            out = [df.filter(F.col("src") != F.col("dst")) for df in out]
        return out

    def run(self, seeds: Optional[Dict[str, DataFrame]] = None, max_iters: int = 100_000) -> Dict[str, DataFrame]:
        """Evaluate to fixpoint; returns cached totals per IDB relation.

        ``seeds`` optionally pre-populates IDB relations (the magic-set seeded
        entry point used by top-down queries and by incremental re-derivation).
        """
        totals: Dict[str, DataFrame] = {}
        deltas: Dict[str, Optional[DataFrame]] = {}
        if seeds:
            for name, df in seeds.items():
                totals[name] = materialize(df.select("src", "dst").distinct())[0]
                deltas[name] = totals[name]
        initial = True
        for it in range(max_iters):
            self.iterations = it
            new_deltas: Dict[str, Optional[DataFrame]] = {}
            for rel in self.program.idb_relations():
                cands = []
                for rule in self.program.rules:
                    if rule.head == rel:
                        cands.extend(self._fire(rule, totals, deltas, initial))
                if not cands:
                    new_deltas[rel] = None
                    continue
                cand = cands[0]
                for c in cands[1:]:
                    cand = cand.unionByName(c)
                cand = cand.distinct()
                if rel in totals:
                    cand = cand.join(totals[rel], ["src", "dst"], "left_anti")
                new, rows = materialize(cand)
                if rows == 0:
                    new.unpersist(blocking=False)
                    new_deltas[rel] = None
                    continue
                new_deltas[rel] = new
                if rel in totals:
                    nxt = materialize(totals[rel].unionByName(new))[0]
                    totals[rel].unpersist(blocking=False)
                    totals[rel] = nxt
                else:
                    totals[rel] = new
            initial = False
            deltas = new_deltas
            if all(d is None for d in deltas.values()):
                for rel in self.program.idb_relations():
                    if rel not in totals:
                        totals[rel] = materialize(
                            self.spark.createDataFrame([], "src long, dst long")
                        )[0]
                return totals
        raise RuntimeError(f"datalog evaluation did not converge in {max_iters} iterations")

    def unpersist_edb(self) -> None:
        for df in self.edb.values():
            df.unpersist(blocking=False)

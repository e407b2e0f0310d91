"""Incremental partitioned theta-join for general DCs (paper §4.2, Alg. 2).

The cartesian product of the table with itself is mapped to a matrix
(Okcan & Riedewald [22]): both axes are range-bucketed on the attribute of
the DC's first atom into ``g = √p`` quantile buckets, so the matrix has
``p = g²`` partitions.

One rule decides, per atom ``t1.a op t2.a``, which pairs of a partition
(t1 ∈ bucket r, t2 ∈ bucket c) can satisfy it: a t1 can iff
``t1.a op c_extreme`` and a t2 can iff ``r_extreme op t2.a``, where the
extreme is ``hi_c``/``lo_r`` for ``<``/``<=`` and ``lo_c``/``hi_r`` for
``>``/``>=``.  Violation detection over a region applies it to

- prune whole partitions: (r, c) is feasible iff ``r_extreme op c_extreme``
  for every atom,
- prune intra-partition tuples before the pairwise check (Fig 2's
  example), with exact comparisons on both sides, and
- the Alg. 2 estimate, over the partner buckets' extremes.

Incrementality: a cleaner instance remembers the set of checked bucket
pairs; a query only pays for the unchecked pairs its result touches
(§4.2: "the matrix subset involves the query result and the unseen part
of the dataset").  It also holds its DC's fix state, the range counts of
every pair scanned so far (:func:`repro.core.repair_dc.dc_fixes`).
``estimate`` is Algorithm 2's boundary-overlap estimator, computed once at
construction; ``accuracy`` adds the support metric over diagonal
partitions.
"""
from __future__ import annotations

import bisect
import math
from functools import reduce

from pyspark.sql import DataFrame, GroupedData
from pyspark.sql import functions as F

from repro.core.constraints import DC, OPS, Atom
from repro.core.planner import Filter
from repro.core.prob import TID
from repro.core.sqltext import ident, num


class ThetaJoinCleaner:
    """Matrix-partitioned, incremental violation detector for a 2-atom DC.

    Supports DCs of the shape ``¬(t1.x <op1> t2.x ∧ t1.y <op2> t2.y)`` with
    inequality ops — the paper's running example
    ``¬(t1.salary < t2.salary ∧ t1.tax > t2.tax)``.
    """

    def __init__(self, dataset: DataFrame, dc: DC, *, partitions: int = 64):
        if len(dc.atoms) != 2:
            raise ValueError("ThetaJoinCleaner handles two-atom DCs")
        if any(a.op not in ("<", "<=", ">", ">=") for a in dc.atoms):
            raise ValueError("atoms must be inequalities")
        self.dc = dc
        self.x = dc.atoms[0].attr
        self.y = dc.atoms[1].attr
        g = max(1, int(math.sqrt(partitions)))
        qs = [i / g for i in range(g + 1)]
        # de-duplicate cut points (heavy hitters collapse quantiles)
        self.splits = sorted(set(dataset.approxQuantile(self.x, qs, 0.001)))
        self.nb = max(1, len(self.splits) - 1)
        self.data = dataset.selectExpr(
            TID, ident(self.x), ident(self.y), f"{self._bucket_expr()} AS __bx"
        ).localCheckpoint(eager=True)
        # per bucket, each attribute's (lo, hi); an empty bucket has no entry
        one_task = self.data.coalesce(1).groupBy("__bx")
        attrs = (self.x, self.y)
        rows = one_task.agg(
            *(F.expr(f"{fn}({ident(a)}) AS {end}{i}")
              for i, a in enumerate(attrs) for fn, end in (("min", "lo"), ("max", "hi")))
        ).collect()
        self.bounds: dict[int, dict[str, tuple[float, float]]] = {
            r["__bx"]: {a: (r[f"lo{i}"], r[f"hi{i}"]) for i, a in enumerate(attrs)}
            for r in rows
        }
        self.estimate = self._estimate(one_task)
        self.checked: set[tuple[int, int]] = set()
        self.pairs_scanned = 0
        #: the checkpointed fix state of the scanned pairs (``dc_fixes``'s
        #: output); None until a pair is scanned
        self.state: DataFrame | None = None

    # -- bucket helpers ----------------------------------------------------
    def _bucket_expr(self) -> str:
        """CASE-WHEN ladder (SQL text) giving each x value its quantile bucket.

        Values below no inner cut point, and nulls, fall in the last bucket.
        """
        x = ident(self.x)
        whens = "".join(
            f" WHEN {x} < {num(s)} THEN {i}" for i, s in enumerate(self.splits[1:self.nb])
        )
        return f"CASE{whens} ELSE {self.nb - 1} END" if whens else "0"

    def bucket_of(self, v: float) -> int:
        """The bucket ``_bucket_expr`` assigns to ``v``: inner cut points ≤ v."""
        return bisect.bisect_right(self.splits, float(v), 1, self.nb) - 1

    def buckets_for(self, filters: list[Filter]) -> set[int]:
        """The buckets the rows passing every filter of ``filters`` fall in.

        Each filter on the bucketing attribute (``=``, ``in``, ``between``,
        ``<``, ``<=``, ``>``, ``>=``) narrows the buckets to the ones its
        values can fall in; the filters are a conjunction, so the result is
        the intersection.  Filters on other attributes, and ``!=``, leave
        every bucket in: the rows' bucketing values are then unknown
        without a scan.
        """
        buckets = set(range(self.nb))
        for f in filters:
            if f.attr != self.x:
                continue
            if f.op in ("=", "in"):
                buckets &= {self.bucket_of(v) for v in ([f.value] if f.op == "=" else f.value)}
            elif f.op == "between":
                buckets &= set(range(self.bucket_of(f.value), self.bucket_of(f.value2) + 1))
            elif f.op in ("<", "<="):
                buckets &= set(range(self.bucket_of(f.value) + 1))
            elif f.op in (">", ">="):
                buckets &= set(range(self.bucket_of(f.value), self.nb))
        return buckets

    # -- the matrix rule ---------------------------------------------------
    def _extreme(self, atom: Atom, b: int, t2: bool) -> float:
        """The bound of bucket ``b`` that decides ``atom`` for its t1s (or t2s).

        A t1 of bucket r can satisfy ``t1.a op t2.a`` against some t2 of
        bucket c iff ``t1.a op extreme(c, t2)``, and a t2 iff
        ``extreme(r, t1) op t2.a``: for ``<``/``<=`` that is ``hi_c`` and
        ``lo_r``, for ``>``/``>=`` ``lo_c`` and ``hi_r``.
        """
        lo, hi = self.bounds[b][atom.attr]
        return hi if (atom.op in ("<", "<=")) == t2 else lo

    def feasible(self, r: int, c: int) -> bool:
        """Can any (t1 ∈ bucket r, t2 ∈ bucket c) pair violate the DC?"""
        if r not in self.bounds or c not in self.bounds:
            return False
        return all(
            OPS[a.op](self._extreme(a, r, False), self._extreme(a, c, True))
            for a in self.dc.atoms
        )

    def _pair_violations(self, r: int, c: int) -> DataFrame:
        """Violating (t1, t2) pairs with t1 in bucket r, t2 in bucket c.

        Each side is one filter, its bucket and the intra-partition pruning
        (Fig 2) against the partner bucket's extremes, and one projection;
        the pair check is one filter on the cross product.  All are SQL
        text with the bounds rendered exactly (:func:`repro.core.sqltext.num`),
        so a boundary tie is kept as the Python comparison keeps it.
        """
        atoms = self.dc.atoms
        left = [f"__bx = {r}"] + [
            f"{ident(a.attr)} {a.op} {num(self._extreme(a, c, True))}" for a in atoms
        ]
        right = [f"__bx = {c}"] + [
            f"{num(self._extreme(a, r, False))} {a.op} {ident(a.attr)}" for a in atoms
        ]
        cols = {"tid": TID, "x": self.x, "y": self.y}
        l = self.data.where(" AND ".join(left)).selectExpr(
            *(f"{ident(a)} AS {k}1" for k, a in cols.items())
        )
        rr = self.data.where(" AND ".join(right)).selectExpr(
            *(f"{ident(a)} AS {k}2" for k, a in cols.items())
        )
        ax, ay = atoms
        pair = [f"x1 {ax.op} x2", f"y1 {ay.op} y2"] + (["tid1 != tid2"] if r == c else [])
        return l.crossJoin(rr).where(" AND ".join(pair))

    def detect(self, bucket_rows: set[int] | None = None) -> DataFrame:
        """Violations for all unchecked feasible pairs touching ``bucket_rows``.

        ``None`` means the full matrix (offline mode).  The ordered pairs
        (r, c) and (c, r) are separate partitions (t1 in the first bucket,
        t2 in the second); each ordered pair with a bucket in scope is
        enumerated once, and checked from then on.
        """
        scope = set(range(self.nb)) if bucket_rows is None else set(bucket_rows)
        new = [
            (r, c) for r in range(self.nb) for c in range(self.nb)
            if (r in scope or c in scope) and (r, c) not in self.checked
        ]
        self.checked.update(new)
        todo = [pair for pair in new if self.feasible(*pair)]
        self.pairs_scanned += len(todo)
        if not todo:
            return self.data.sparkSession.createDataFrame(
                [], "tid1 long, x1 double, y1 double, tid2 long, x2 double, y2 double"
            )
        out = reduce(DataFrame.unionByName, (self._pair_violations(*pair) for pair in todo))
        return out.localCheckpoint(eager=True)

    # -- Algorithm 2 -------------------------------------------------------
    def _estimate(self, one_task: GroupedData) -> dict[int, float]:
        """Per-row-bucket estimated violating-*tuple* counts (Alg. 2 line 6).

        For each ordered bucket pair (r ≠ c) that is feasible, the
        y-boundary overlap identifies the candidate violators: the tuples of
        bucket r strictly past c's y extreme (above its minimum y for a
        ``>``/``>=`` y-atom, below its maximum for ``<``/``<=``).  Counting
        exactly makes the estimate zero on DC-satisfying monotone data while
        outlier dirty values surface immediately — which is what lets the
        0.2%/2% versions of Fig 10 stay on partial cleaning and pushes the
        20% version to a full clean.  One single-task aggregate counts, per
        row bucket, the tuples past each partner's extreme.
        """
        ay = self.dc.atoms[1]
        strictly_past = ay.op[0]  # "<=" counts as "<", ">=" as ">"
        y = ident(self.y)
        rows = one_task.agg(*(
            F.expr(f"count_if({y} {strictly_past} {num(self._extreme(ay, c, True))}) AS c{c}")
            for c in self.bounds
        )).collect()
        est = {i: 0.0 for i in range(self.nb)}
        for row in rows:
            r = row["__bx"]
            past = sum(row[f"c{c}"] for c in self.bounds if c != r and self.feasible(r, c))
            # a tuple violating against many buckets is one erroneous tuple
            est[r] = past / max(1, self.nb - 1)
        return est

    def errors_outside(self, result_buckets: set[int]) -> float:
        """Alg. 2's estimated violating tuples outside ``result_buckets``."""
        return sum(v for b, v in self.estimate.items() if b not in result_buckets)

    def accuracy(self, result_buckets: set[int], result_size: int) -> tuple[float, float]:
        """(estimated accuracy, support) for a query answer (Alg. 2 lines 4-7).

        Accuracy is ``|qa| / (|qa| + est_errors_outside)`` — the Fig 10
        narrative's reading ("predicts 23% accuracy → cleans the whole
        dataset"); support is the fraction of checked diagonal partitions.
        """
        errors = self.errors_outside(result_buckets)
        acc = result_size / (result_size + errors) if (result_size + errors) > 0 else 1.0
        diag_total = self.nb
        diag_checked = sum(1 for i in range(self.nb) if (i, i) in self.checked)
        support = diag_checked / max(1, diag_total)
        return acc, support

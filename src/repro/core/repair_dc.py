"""Holistic range-candidate repair for inequality DCs (paper §4.2, Ex. 5).

A violating pair must invert at least one atom to satisfy the DC
(``¬(a1 ∧ a2 ∧ …)`` ⇔ some ``aᵢ`` becomes false).  For the two-atom DCs we
support, enumerating the atom subsets (the paper's SAT formulation; trivial
for ≤3 atoms) gives, per tuple of the pair, one candidate *range* per atom:
keep the value or move it past the partner's value with the atom's inverse
comparison, exactly as in Example 5 (``t2`` takes salary < 2000 *or* tax
> 0.3, 50% each).

Candidates are fix rows ``(tid, attr, lo, hi, p)`` (±inf for open sides);
they are not merged into the table: the session keeps them in
``DaisySession.dc_repairs`` and the offline cleaner in
``OfflineResult.dc_repairs``.  A cell with multiple violating partners
accumulates ranges, and the frequency-based probabilities are normalized
over the number of fixes collected for the tuple, so the fixes are a
function of the set of violation pairs: the session rebuilds them from
every pair found so far.

The violation pairs are checkpointed, so :func:`dc_fixes` and
:func:`count_dirty_tids` run in one task over ``coalesce(1)`` of them: the
group-by and windows need no exchange and each action is one Spark job.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.constraints import DC

INF = float("inf")

#: columns of ``DaisySession.dc_repairs`` / ``OfflineResult.dc_repairs``
FIX_COLS = ("tid", "attr", "lo", "hi", "p")

#: ``a op b`` ⇔ ``b _MIRROR[op] a``
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _range_for(op_inverse: str, bound_col: str):
    """Range of values satisfying ``value <op_inverse> bound``."""
    if op_inverse in (">", ">="):
        return F.col(bound_col).cast("double"), F.lit(INF)
    return F.lit(-INF), F.col(bound_col).cast("double")


def dc_fixes(violations: DataFrame, dc: DC) -> DataFrame:
    """Candidate range fixes per (tid, attr) from a violation-pair frame.

    ``violations`` has columns ``tid1, x1, y1, tid2, x2, y2`` (the
    :class:`repro.core.thetajoin.ThetaJoinCleaner` output).  Returns
    ``(tid, attr, lo, hi, p)`` — per dirty cell, the keep-option and the
    inverted-atom ranges with frequency probabilities.
    """
    # For tuple t1: invert atom-x (x1 gets the range ¬opx w.r.t. x2) or
    # invert atom-y.  t2 sees each atom with its operands swapped, so its
    # fix is the mirrored inverse: e.g. t1.sal < t2.sal inverts to
    # t1.sal ≥ t2.sal, which t2 reads as t2.sal ≤ t1.sal (Example 5: salary
    # < 2000).  Rows: side, attr, own value col, partner value col, fix op.
    ax, ay = dc.atoms
    per_side = [
        ("tid1", ax.attr, "x1", "x2", ax.inverse_op),
        ("tid1", ay.attr, "y1", "y2", ay.inverse_op),
        ("tid2", ax.attr, "x2", "x1", _MIRROR[ax.inverse_op]),
        ("tid2", ay.attr, "y2", "y1", _MIRROR[ay.inverse_op]),
    ]
    out = None
    for tid_col, attr, own, partner, inv in per_side:
        lo, hi = _range_for(inv, partner)
        piece = violations.select(
            F.col(tid_col).alias("tid"),
            F.lit(attr).alias("attr"),
            F.col(own).cast("double").alias("own"),
            lo.alias("lo"),
            hi.alias("hi"),
        )
        out = piece if out is None else out.unionByName(piece)
    # frequency-based probabilities over the *tuple's* possible fixes
    # (Example 5: two possible fixes → 50% each); the cell's keep-option
    # carries the complement of its range-fix mass.  Both come from integer
    # counts, so the same pairs give the same probabilities in any order.
    counts = out.coalesce(1).groupBy("tid", "attr", "own", "lo", "hi").count()
    cell = Window.partitionBy("tid", "attr")
    rows = counts.withColumns({
        "__t": F.sum("count").over(Window.partitionBy("tid")),
        "__s": F.sum("count").over(cell),
        "__first": F.row_number().over(cell.orderBy("lo", "hi")) == 1,
    })
    rng = F.struct("lo", "hi", (F.col("count") / F.col("__t")).alias("p"))
    keep = F.struct(
        F.col("own").alias("lo"),
        F.col("own").alias("hi"),
        ((F.col("__t") - F.col("__s")) / F.col("__t")).alias("p"),
    )
    opts = F.when(
        F.col("__first") & (F.col("__t") > F.col("__s")), F.array(rng, keep)
    ).otherwise(F.array(rng))
    return rows.select("tid", "attr", F.explode(opts).alias("__o")).select(
        "tid", "attr", "__o.lo", "__o.hi", "__o.p"
    )


def count_dirty_tids(violations: DataFrame) -> int:
    """Distinct tids of a violation-pair frame, counted in one task."""
    tids = violations.select(F.col("tid1").alias("tid")).unionByName(
        violations.select(F.col("tid2").alias("tid"))
    )
    return tids.coalesce(1).agg(F.count_distinct("tid")).first()[0]

"""Holistic range-candidate repair for inequality DCs (paper §4.2, Ex. 5).

A violating pair must invert at least one atom to satisfy the DC
(``¬(a1 ∧ a2 ∧ …)`` ⇔ some ``aᵢ`` becomes false).  For the two-atom DCs we
support, enumerating the atom subsets (the paper's SAT formulation; trivial
for ≤3 atoms) gives, per tuple of the pair, one candidate *range* per atom:
keep the value or move it past the partner's value with the atom's inverse
comparison, exactly as in Example 5 (``t2`` takes salary < 2000 *or* tax
> 0.3, 50% each).

Candidates are ranges ``struct<lo, hi, p, w>`` (±inf for open sides) stored
in ``<attr>__rcands``; a cell with multiple violating partners accumulates
entries and the frequency-based probabilities are renormalized over the
total number of fixes collected for that cell.
"""
from __future__ import annotations


from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.constraints import DC

INF = float("inf")


def rcands_col(attr: str) -> str:
    return f"{attr}__rcands"


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
    ax, ay = dc.atoms[0], dc.atoms[1]
    rows = []
    # For tuple t1: invert atom-x (x1 gets the range ¬opx w.r.t. x2) or
    # invert atom-y; symmetrically for t2 with the ops' mirror side.
    per_side = []
    # side, attr, own value col, partner value col, inverse op seen from this side
    per_side.append(("tid1", ax.attr, "x1", "x2", ax.inverse_op))
    per_side.append(("tid1", ay.attr, "y1", "y2", ay.inverse_op))
    # from t2's perspective the comparison flips orientation first, then the
    # fix inverts it: e.g. t1.sal < t2.sal seen from t2 is t2.sal > t1.sal,
    # whose inversion gives t2.sal ≤ t1.sal (Example 5: salary < 2000)
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    inverse = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}
    per_side.append(("tid2", ax.attr, "x2", "x1", inverse[flip[ax.op]]))
    per_side.append(("tid2", ay.attr, "y2", "y1", inverse[flip[ay.op]]))

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
    # carries the complement of its range-fix mass
    counts = out.groupBy("tid", "attr", "own", "lo", "hi").agg(F.count("*").alias("__c"))
    totals = counts.groupBy("tid").agg(F.sum("__c").alias("__t"))
    ranges = counts.join(totals, "tid").select(
        "tid", "attr", "own", "lo", "hi", (F.col("__c") / F.col("__t")).alias("p")
    )
    keep_mass = ranges.groupBy("tid", "attr", "own").agg(
        (1.0 - F.sum("p")).alias("p")
    )
    keeps = keep_mass.select(
        "tid", "attr", F.col("own"), F.col("own").alias("lo"), F.col("own").alias("hi"), "p"
    ).where(F.col("p") > 1e-12)
    return ranges.unionByName(keeps).drop("own")


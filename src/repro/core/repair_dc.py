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
over the number of fixes collected for the tuple.

The state behind the fix rows is integer *range counts*: per
``(tid, attr, own, lo, hi)``, the number of violation pairs that give the
tuple that range.  Counts add up, so :func:`dc_fixes` folds a query's new
pairs into the previous state (a union of two inputs and one group-by)
and renormalizes; the fixes of a set of pairs do not depend on the order
the pairs were found in.  Its output is the next state: the counts and
the fix rows in one frame, whose ``FIX_COLS`` projection is the fix rows.

:func:`dc_fixes` runs in one task over ``coalesce(1)`` of the pairs and the
state: the group-by and windows need no exchange, so checkpointing it is
one Spark job, and an optional ``Observation`` counts the distinct tuples
the new pairs touch in that same job.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Observation, Window
from pyspark.sql import functions as F

from repro.core.constraints import DC

INF = float("inf")

#: columns of ``DaisySession.dc_repairs`` / ``OfflineResult.dc_repairs``
FIX_COLS = ("tid", "attr", "lo", "hi", "p")
#: columns of a fix state (:func:`dc_fixes`): a range's pair count, and the
#: fix row; a keep-option row has ``lo = hi = own`` and count 0
STATE_COLS = ("tid", "attr", "own", "lo", "hi", "count", "p")
#: metric of the ``Observation`` :func:`dc_fixes` fills: the distinct tids
#: of the new violation pairs
REPAIRED = "repaired"

#: ``a op b`` ⇔ ``b _MIRROR[op] a``
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_KEY = ("tid", "attr", "own", "lo", "hi")


def _range_for(op_inverse: str, bound_col: str):
    """Range of values satisfying ``value <op_inverse> bound``."""
    if op_inverse in (">", ">="):
        return F.col(bound_col).cast("double"), F.lit(INF)
    return F.lit(-INF), F.col(bound_col).cast("double")


def _ranges(violations: DataFrame, dc: DC) -> DataFrame:
    """One ``(tid, attr, own, lo, hi)`` row per pair, side and atom."""
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
    structs = []
    for tid_col, attr, own, partner, inv in per_side:
        lo, hi = _range_for(inv, partner)
        structs.append(F.struct(
            F.col(tid_col).alias("tid"),
            F.lit(attr).alias("attr"),
            F.col(own).cast("double").alias("own"),
            lo.alias("lo"),
            hi.alias("hi"),
        ))
    return violations.select(F.inline(F.array(*structs)))


def dc_fixes(
    violations: DataFrame,
    dc: DC,
    state: DataFrame | None = None,
    observation: Observation | None = None,
) -> DataFrame:
    """The fix state of ``state`` plus the pairs of ``violations``.

    ``violations`` has columns ``tid1, x1, y1, tid2, x2, y2`` (the
    :class:`repro.core.thetajoin.ThetaJoinCleaner` output); ``state`` is an
    earlier result of this function for the same DC, whose pairs
    ``violations`` does not repeat.  Returns ``STATE_COLS``: per dirty cell,
    the inverted-atom ranges with their pair counts and the keep-option,
    with frequency probabilities.  ``observation``, when given, gets
    ``REPAIRED``: the distinct tids of ``violations``.
    """
    rows = _ranges(violations, dc).withColumns(
        {"count": F.lit(1).cast("long"), "__new": F.lit(True)}
    )
    if state is not None:
        old = state.where(F.col("count") > 0).select(*_KEY, "count", F.lit(False).alias("__new"))
        rows = rows.unionByName(old)
    counts = rows.coalesce(1).groupBy(*_KEY).agg(
        F.sum("count").alias("count"), F.max("__new").alias("__new")
    )
    # frequency-based probabilities over the *tuple's* possible fixes
    # (Example 5: two possible fixes → 50% each); the cell's keep-option
    # carries the complement of its range-fix mass.  Both come from integer
    # counts, so the same pairs give the same probabilities in any order.
    tup = Window.partitionBy("tid")
    cell = Window.partitionBy("tid", "attr")
    counts = counts.withColumns({
        "__t": F.sum("count").over(tup),
        "__s": F.sum("count").over(cell),
        "__first": F.row_number().over(cell.orderBy("lo", "hi")) == 1,
        "__new": F.max("__new").over(tup),
        "__tfirst": F.col("attr") == F.min("attr").over(tup),
    })
    if observation is not None:
        # one row per new tid: its first cell's first range
        first_of_new = F.col("__new") & F.col("__tfirst") & F.col("__first")
        counts = counts.observe(observation, F.count_if(first_of_new).alias(REPAIRED))
    rng = F.struct("lo", "hi", "count", (F.col("count") / F.col("__t")).alias("p"))
    keep = F.struct(
        F.col("own").alias("lo"),
        F.col("own").alias("hi"),
        F.lit(0).cast("long").alias("count"),
        ((F.col("__t") - F.col("__s")) / F.col("__t")).alias("p"),
    )
    opts = F.when(
        F.col("__first") & (F.col("__t") > F.col("__s")), F.array(rng, keep)
    ).otherwise(F.array(rng))
    return counts.select("tid", "attr", "own", F.inline(opts)).select(*STATE_COLS)

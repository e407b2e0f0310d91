"""Holistic range-candidate repair for inequality DCs (paper §4.2, Ex. 5).

A violating pair must invert at least one atom to satisfy the DC
(``¬(a1 ∧ a2 ∧ …)`` ⇔ some ``aᵢ`` becomes false).  For the two-atom DCs we
support, enumerating the atom subsets (the paper's SAT formulation; trivial
for ≤3 atoms) gives, per tuple of the pair, one candidate *range* per atom:
keep the value or move it past the partner's value with the atom's inverse
comparison, exactly as in Example 5 (``t2`` takes salary < 2000 *or* tax
> 0.3, 50% each).

Candidates are fix rows ``(tid, attr, lo, hi, p)`` (±inf for open sides);
they are not merged into the table: :func:`fix_rows` projects them from
the fix states for ``DaisySession.dc_repairs`` and
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

from collections.abc import Iterable
from functools import reduce

from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F

from repro.core.constraints import DC
from repro.core.sqltext import name_lit, num

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


def _range_for(op_inverse: str, bound: str) -> tuple[str, str]:
    """``(lo, hi)`` text of the values satisfying ``value <op_inverse> bound``."""
    if op_inverse in (">", ">="):
        return f"CAST({bound} AS DOUBLE)", num(INF)
    return num(-INF), f"CAST({bound} AS DOUBLE)"


def _ranges(violations: DataFrame, dc: DC) -> DataFrame:
    """One ``(tid, attr, own, lo, hi)`` row per pair, side and atom.

    Each row is one pair's range, so it has ``count`` 1 and is ``__new``.
    The rows are one ``inline`` of four structs, written as SQL text.
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
    structs = []
    for tid_col, attr, own, partner, inv in per_side:
        lo, hi = _range_for(inv, partner)
        structs.append(
            f"named_struct('tid', {tid_col}, 'attr', {name_lit(attr)}, "
            f"'own', CAST({own} AS DOUBLE), 'lo', {lo}, 'hi', {hi}, "
            "'count', 1L, '__new', true)"
        )
    return violations.selectExpr(f"inline(array({', '.join(structs)}))")


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

    Every expression is SQL text over fixed column names: the plan is built
    in a few dozen Python-to-JVM calls (DESIGN §3, on round trips).
    """
    rows = _ranges(violations, dc)
    if state is not None:
        old = state.where("`count` > 0").selectExpr(*_KEY, "`count`", "false AS __new")
        rows = rows.unionByName(old)
    counts = rows.coalesce(1).groupBy(*_KEY).agg(
        F.expr("sum(`count`) AS `count`"), F.expr("max(__new) AS __new")
    )
    # frequency-based probabilities over the *tuple's* possible fixes
    # (Example 5: two possible fixes → 50% each); the cell's keep-option
    # carries the complement of its range-fix mass.  Both come from integer
    # counts, so the same pairs give the same probabilities in any order.
    tup, cell = "PARTITION BY tid", "PARTITION BY tid, attr"
    counts = counts.selectExpr(
        *_KEY, "`count`",
        f"sum(`count`) OVER ({tup}) AS __t",
        f"sum(`count`) OVER ({cell}) AS __s",
        f"row_number() OVER ({cell} ORDER BY lo, hi) = 1 AS __first",
        f"max(__new) OVER ({tup}) AS __new",
        f"attr = min(attr) OVER ({tup}) AS __tfirst",
    )
    if observation is not None:
        # one row per new tid: its first cell's first range
        first_of_new = "__new AND __tfirst AND __first"
        counts = counts.observe(observation, F.expr(f"count_if({first_of_new}) AS {REPAIRED}"))
    rng = "named_struct('lo', lo, 'hi', hi, 'count', `count`, 'p', `count` / __t)"
    keep = "named_struct('lo', own, 'hi', own, 'count', 0L, 'p', (__t - __s) / __t)"
    opts = f"CASE WHEN __first AND __t > __s THEN array({rng}, {keep}) ELSE array({rng}) END"
    return counts.selectExpr("tid", "attr", "own", f"inline({opts})")


def fix_rows(states: Iterable[DataFrame | None]) -> DataFrame | None:
    """The ``FIX_COLS`` rows of the fix states given, in one union.

    ``states`` are :func:`dc_fixes` outputs, one per DC; a ``None`` (a DC
    with no pair scanned yet) adds nothing.  Returns None when every state
    is None.  A projection and unions: building it runs no job.
    """
    rows = [s.selectExpr(*FIX_COLS) for s in states if s is not None]
    return reduce(DataFrame.unionByName, rows) if rows else None

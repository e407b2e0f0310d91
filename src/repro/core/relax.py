"""Query-result relaxation (paper §4.1, Algorithm 1).

Given a query answer ``A`` over dataset ``d`` and an FD ``lhs → rhs``,
relaxation augments ``A`` with *correlated tuples*: tuples of ``d - A``
sharing an lhs value (line 6) or an rhs value (line 8) with the current
result, iterating.

Iteration budget: Lemma 1 — one iteration gives accurate candidate fixes for
rhs-side filters; Lemma 2 — lhs-side filters need one extra iteration; the
fixpoint ("closure") pulls whole correlated clusters as in Examples 2-3 /
Tables 2b-3.  :class:`repro.core.daisy.DaisySession` uses the lemma budgets
(that is what the §5.2 cost model prices); tests use closure to reproduce
the paper's worked examples exactly.

Matching is probabilistic-aware: a tuple matches a value set through *any*
of its candidate values (§4 qualification semantics).

The rounds grow a region instead of draining an unvisited pool.  Round
``k`` is every tuple of ``d`` with a possible lhs or rhs value in the value
sets of region ``k-1`` (region 0 is ``A``).  The value sets only grow, so
the regions are nested and region ``k`` minus ``A`` is exactly the extras of
Algorithm 1's first ``k`` iterations; each answer tuple with a value lies in
region 1, so the regions' value sets are those of ``A`` ∪ region.  A round
is two broadcast semi-joins (one per value set) and one checkpoint; the
answer is subtracted once, at the end.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.constraints import FD
from repro.core.prob import TID, possible_values

#: iteration budgets per filtered side (Lemmas 1 and 2)
LEMMA_ITERS = {"rhs": 1, "lhs": 2, None: 2}


def _value_rows(df: DataFrame, attrs: tuple[str, ...]) -> tuple[DataFrame, list[str]]:
    """``(TID, value)`` rows of ``df`` and the value key columns.

    A single attribute gives one row per non-null possible (candidate)
    value; a composite lhs matches on its base (provenance) values.  Rows
    are not de-duplicated: a semi-join needs no distinct build side.
    """
    if len(attrs) == 1:
        rows = df.select(TID, F.explode(possible_values(df, attrs[0])).alias("v"))
        return rows.where(F.col("v").isNotNull()), ["v"]
    return df.select(TID, *attrs), list(attrs)


def _grow(dataset: DataFrame, region: DataFrame, fd: FD) -> DataFrame:
    """Tuples of ``dataset`` with a possible lhs or rhs value in ``region``'s.

    The value sets are broadcast: they are bounded by the region's cells,
    and so is the matched-tid frame, which holds one row per matching
    value of each tuple of the next region.
    """
    hits = None
    for attrs in (fd.lhs, (fd.rhs,)):
        rows, keys = _value_rows(dataset, attrs)
        vals, _ = _value_rows(region, attrs)
        t = rows.join(F.broadcast(vals.drop(TID)), keys, "leftsemi").select(TID)
        hits = t if hits is None else hits.unionByName(t)
    return dataset.join(F.broadcast(hits), TID, "leftsemi")


def relax_fd(
    dataset: DataFrame,
    answer: DataFrame,
    fd: FD,
    *,
    max_iter: int | None = None,
    filter_side: str | None = None,
) -> tuple[DataFrame, int]:
    """Run Algorithm 1; returns ``(total_extra, iterations_used)``.

    ``max_iter=None`` selects the Lemma budget for ``filter_side`` ('lhs',
    'rhs' or None); ``max_iter=0`` means run to fixpoint (closure).
    ``total_extra`` holds the relaxed region's tuples outside ``answer``,
    each once.
    """
    if max_iter is None:
        max_iter = LEMMA_ITERS.get(filter_side, 2)
    closure = max_iter == 0
    region, iters, n_extra = answer, 0, 0
    while closure or iters < max_iter:
        # one checkpoint per round: a round's plan otherwise nests every
        # earlier round and re-runs them per downstream action
        grown = _grow(dataset, region, fd).localCheckpoint(eager=True)
        if closure:
            n = _minus(grown, answer).count()
            if n == n_extra:
                break  # the empty round is termination detection, not work
            n_extra = n
        region = grown
        iters += 1
    return _minus(region, answer), iters


def _minus(region: DataFrame, answer: DataFrame) -> DataFrame:
    """``region`` without the answer's tuples (the answer is broadcast)."""
    return region.join(F.broadcast(answer.select(TID)), TID, "left_anti")

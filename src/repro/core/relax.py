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

Algorithm 1 is defined on value sets, and so are the rounds here.  Round
``k`` is every tuple of ``d`` with a possible lhs or rhs value in the value
sets of region ``k-1`` (region 0 is ``A``).  The value sets only grow, so
the regions are nested and region ``k`` minus ``A`` is exactly the extras of
Algorithm 1's first ``k`` iterations; each answer tuple with a value lies in
region 1, so the regions' value sets are those of ``A`` ∪ region.

A round is one single-task aggregate that collects region ``k-1``'s
distinct possible lhs and rhs values to the driver; region ``k`` is then a
filter over ``d`` with those sets inlined as array literals.  The sets are bounded by the
region's distinct values, which is what a broadcast build side of the same
match would hold (and a broadcast build side is collected on the driver
too).  No round is checkpointed: every region is one flat filter.  A
composite lhs collects base-value tuples: it is matched on provenance
values, and a tuple with a null lhs component matches nothing, as in an
equi-join.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.constraints import FD
from repro.core.prob import cands_col, values_sql
from repro.core.sqltext import ident

#: iteration budgets per filtered side (Lemmas 1 and 2)
LEMMA_ITERS = {"rhs": 1, "lhs": 2, None: 2}


def _keys(df: DataFrame, attrs: tuple[str, ...]) -> str:
    """SQL text: the array of non-null values a row of ``df`` matches on for ``attrs``.

    A single attribute gives its possible (candidate) values; a composite
    lhs gives its base-value tuple, or nothing when a component is null.
    """
    if len(attrs) == 1:
        values = values_sql(attrs[0], cands_col(attrs[0]) in df.columns)
        return f"filter({values}, __k -> __k IS NOT NULL)"
    fields = ", ".join(map(ident, attrs))
    present = " AND ".join(f"__k.{ident(a)} IS NOT NULL" for a in attrs)
    return f"filter(array(struct({fields})), __k -> {present})"


def _collect(region: DataFrame, keyed: list[tuple[str, ...]]) -> tuple[int, list[str]]:
    """One single-task aggregate: ``region``'s rows with a value, and its value sets.

    The value sets are the distinct keys of :func:`_keys` of each attribute
    tuple of ``keyed``, in that order, each as the JSON text of an array:
    one string per set crosses to the driver and back, and Spark's JSON
    reads back exactly the number and string values rules match on here.
    """
    keys = [_keys(region, attrs) for attrs in keyed]
    row = region.coalesce(1).selectExpr(
        f"count_if({' + '.join(f'size({k})' for k in keys)} > 0) AS n",
        *[f"to_json(array_distinct(flatten(collect_set({k})))) AS s{i}"
          for i, k in enumerate(keys)],
    ).first()
    return row["n"], [row[f"s{i}"] for i in range(len(keys))]


def _match(dataset: DataFrame, attrs: tuple[str, ...], text: str) -> Column:
    """Rows of ``dataset`` with a possible key of ``attrs`` in the set ``text``.

    The set is one array literal, folded once from its JSON text (a value
    set of :func:`_collect`); ``arrays_overlap`` hashes a row's few keys
    and scans the set.
    """
    fields = [dataset.schema[a] for a in attrs]
    elem = fields[0].dataType if len(fields) == 1 else T.StructType(fields)
    values = F.from_json(F.lit(text), T.ArrayType(elem))
    return F.arrays_overlap(F.expr(_keys(dataset, attrs)), values)


def relax_fd(
    dataset: DataFrame,
    answer: DataFrame,
    fd: FD,
    *,
    max_iter: int | None = None,
    filter_side: str | None = None,
) -> tuple[Column, int, Column]:
    """Run Algorithm 1; returns ``(region, iterations_used, whole)``.

    ``max_iter=None`` selects the Lemma budget for ``filter_side`` ('lhs',
    'rhs' or None); ``max_iter=0`` means run to fixpoint (closure).
    ``region`` is a predicate over ``dataset``'s rows: the relaxed region,
    which holds every answer tuple with a value; the region's tuples
    outside ``answer`` are Algorithm 1's extras.  ``whole`` is the lhs
    half of the last round's match: the rows with a possible lhs value in
    the last lhs set (in closure, the fixpoint's).  A row's provenance
    value is one of its possible values, so every group keyed in that set
    is whole in the region.

    A Lemma budget of ``m`` rounds collects the value sets of regions
    ``0 .. m-1``.  Closure also counts each region's rows: region ``k``
    holds the ``n`` answer tuples with a value and its extras, so the
    first round whose count does not grow is the empty round that ends the
    fixpoint, and it is not counted.
    """
    if max_iter is None:
        max_iter = LEMMA_ITERS.get(filter_side, 2)
    closure = max_iter == 0
    keyed = [fd.lhs, (fd.rhs,)]
    n, sets = _collect(answer, keyed)
    iters = 0
    while True:
        whole = _match(dataset, fd.lhs, sets[0])
        region = whole | _match(dataset, (fd.rhs,), sets[1])
        if not closure and iters + 1 == max_iter:
            return region, max_iter, whole
        m, sets = _collect(dataset.where(region), keyed)
        if closure and m == n:
            return region, iters, whole  # the empty round is termination detection, not work
        n, iters = m, iters + 1


def whole_groups(dataset: DataFrame, region: Column, fds: list[FD]) -> tuple[Column, list[Column]]:
    """``region`` grown by every lhs group of its rows under each of ``fds``.

    Returns ``(region, whole)``, ``whole`` one predicate per rule of
    ``fds``: the rows with a possible lhs value in the region's lhs set of
    that rule.  Every group keyed in that set is whole in the grown region.

    Each rule's rounds complete that rule's groups only, but a region row
    can join the answer through one rule's candidates; without its groups
    under the other rules it would be repaired under one rule where offline
    repairs it under all.  One single-task aggregate collects the region's
    lhs keys.  A row this adds cannot qualify: a row whose candidates can
    meet the filters is matched by the first round of the rule giving them.
    """
    keyed = [fd.lhs for fd in fds]
    _n, sets = _collect(dataset.where(region), keyed)
    whole = [_match(dataset, attrs, text) for attrs, text in zip(keyed, sets)]
    return reduce(Column.__or__, whole, region), whole

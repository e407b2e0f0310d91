"""Cleaning operators ``clean_σ`` and ``clean_⋈`` (paper Definitions 1-3).

Both are update operators: they take a query result (plus the session state
holding the dataset, rules and statistics), relax it, detect and fix errors,
and update the dataset in place.  They are implemented as DataFrame→DataFrame
transformations composed of Catalyst operators (joins, group-bys,
higher-order functions) — the paper implements them at Spark's RDD level;
DESIGN.md explains why the DataFrame level is the faithful layering here.

``run_query`` is the shared probabilistic query executor (filters qualify a
tuple iff ≥1 candidate qualifies; equi-joins match on candidate-set overlap;
group-bys aggregate after cleaning on provenance grouping values).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core import detect, relax, repair, update
from repro.core.constraints import FD
from repro.core.planner import Aggregate, Filter, Query, filter_side
from repro.core.prob import CAND_SUFFIX, TID, cands_col, checked_col, prob_equijoin, qualifies
from repro.core.sqltext import ident


@dataclass
class CleanStats:
    """Row counts a cleaning-operator invocation feeds the cost model.

    ``violating`` maps each rule to the rows of its violating groups
    repaired now, which the session totals per rule
    (:meth:`repro.core.daisy.DaisySession._count_repaired`).  It breaks
    ``repaired`` down by rule, so it takes no part in comparisons.
    """

    answer: int = 0
    extras: int = 0
    repaired: int = 0
    relax_iters: int = 0
    violating: dict[str, int] = field(default_factory=dict, compare=False)


def filter_predicate(df: DataFrame, filters: list[Filter]) -> Column:
    """Probabilistic selection: conjunction of qualification predicates.

    Never null: a row whose predicate is null does not qualify.
    """
    preds = [qualifies(df, f.attr, f.op, f.value, f.value2) for f in filters]
    return F.coalesce(reduce(Column.__and__, preds), F.lit(False)) if preds else F.lit(True)


def apply_filters(df: DataFrame, filters: list[Filter]) -> DataFrame:
    """The rows of ``df`` that :func:`filter_predicate` selects."""
    return df.where(filter_predicate(df, filters))


#: flag columns of the detected region (:func:`clean_sigma`)
IN_ANSWER, DIRTY, CHANGED = "__in_answer", "__dirty", "__changed"


def dirty_col(rule_name: str) -> str:
    """Flag column of :func:`_detect`: the row's group under the rule is repaired now."""
    return f"{DIRTY}__{rule_name}"


def clean_sigma(
    dataset: DataFrame,
    filters: list[Filter],
    fds: list[FD],
    tables: repair.RuleTables,
    *,
    relax_mode: str = "lemma",
) -> tuple[DataFrame, CleanStats]:
    """Definition 2: relax the select result, fix errors, update in place.

    Returns ``(updated_dataset, stats)``.  The select result is ``filters``
    over ``dataset``; ``fds`` (non-empty) are the rules cleaned after the
    filter; ``tables`` holds every rule of the table
    (:class:`repro.core.repair.RuleTables`), because repairing a tuple under
    one rule re-merges the worlds of every rule it is dirty under (§4.3 /
    Lemma 4).

    The filters' predicate is built once: the answer it selects seeds each
    rule's relaxation (:func:`relax.relax_fd`), and it marks the region's
    answer rows.  The region is one filter over ``dataset``: the filters'
    predicate or any rule's relaxation predicate; with several rules the
    region takes in its rows' groups under all of them
    (:func:`relax.whole_groups`).  With no filter the answer is the whole
    dataset, so it is the region and no relaxation round runs.  One
    aggregate counts the region's rows, its answer rows and its rows
    unchecked under any of ``fds``.  With no unchecked row the dataset is
    returned as it is, before detection, and this exit is exact: a row is
    ``CHANGED`` only if it is unchecked, and a group is repaired
    (``VIOLATING``) only if all of its ``group_size ≥ 1`` rows are
    unchecked, so detection would change nothing and repair nothing.  The
    exit reads the region, not the answer: a checked answer can relax into
    unchecked groups.

    Otherwise each phase is one pass: detection puts each rule's group
    facts on the region rows as flags (one checkpoint, which also counts
    them, per rule too: ``CleanStats.violating``), repair looks up the
    dirty rows' cells, and the update is one broadcast join.  With no
    repair and no newly checked group the dataset is returned as it is.
    """
    st = CleanStats()
    in_answer = filter_predicate(dataset, filters)
    relaxed = in_answer
    if filters:
        answer = dataset.where(in_answer)
        max_iter = 0 if relax_mode == "closure" else None
        for fd in fds:
            side = filter_side(fd, filters)
            pred, iters = relax.relax_fd(dataset, answer, fd, max_iter=max_iter, filter_side=side)
            st.relax_iters = max(st.relax_iters, iters)
            relaxed = relaxed | pred
        if len(fds) > 1:
            relaxed = relax.whole_groups(dataset, relaxed, fds)
    region = dataset.where(relaxed).withColumn(IN_ANSWER, in_answer)

    unchecked = " OR ".join(f"NOT {ident(checked_col(fd.name))}" for fd in fds)
    # one task over a filter of the checkpointed dataset: no shuffle stage
    row = region.coalesce(1).selectExpr(
        "count(*) AS region", f"count_if({IN_ANSWER}) AS {IN_ANSWER}",
        f"count_if({unchecked}) AS unchecked",
    ).first()
    st.answer, st.extras = row[IN_ANSWER], row["region"] - row[IN_ANSWER]
    if row["unchecked"] == 0:
        return dataset, st

    flags = [DIRTY, CHANGED, *[dirty_col(fd.name) for fd in fds]]
    flagged, row = update.checkpoint(
        _detect(region, fds, tables.stats), *[F.expr(f"count_if({ident(c)}) AS {ident(c)}") for c in flags]
    )
    st.repaired = row[DIRTY]
    st.violating = {fd.name: row[dirty_col(fd.name)] for fd in fds}
    if row[CHANGED] == 0:
        return dataset, st

    keep = [TID, *[ident(checked_col(fd.name)) for fd in fds]]
    delta = flagged.where(f"{CHANGED} AND NOT {DIRTY}").selectExpr(*keep)
    if st.repaired:
        # the dirty rows are changed rows too; they also carry their cells
        fixed = repair.compute_repairs(flagged.where(DIRTY), tables)
        cells = [ident(c) for c in fixed.columns if c.endswith(CAND_SUFFIX)]
        delta = fixed.selectExpr(*keep, *cells).unionByName(delta, allowMissingColumns=True)
    return update.apply_repairs(dataset, delta), st


def _detect(region: DataFrame, fds: list[FD], stats_by_rule: dict[str, DataFrame]) -> DataFrame:
    """``region`` with the flags of :func:`detect.complete_groups` on its rows.

    Per rule, a row of a complete group gets its checked flag set, and a row
    of a group to repair now is ``DIRTY`` (and :func:`dirty_col` of the
    rule); ``CHANGED`` marks the rows whose flags the update must write.
    The group frames are broadcast (at most one row per distinct lhs value
    of the region).
    """
    groups = [detect.complete_groups(region, fd, stats_by_rule[fd.name]) for fd in fds]
    out = region.withColumns({DIRTY: F.lit(False), CHANGED: F.lit(False)})
    cols = out.columns
    for fd, g in zip(fds, groups):
        cc = ident(checked_col(fd.name))
        violating = f"coalesce({detect.VIOLATING}, false)"
        flags = {
            DIRTY: f"{DIRTY} OR {violating}",
            dirty_col(fd.name): violating,
            CHANGED: f"{CHANGED} OR (__hit IS NOT NULL AND NOT {cc})",
            checked_col(fd.name): f"{cc} OR __hit IS NOT NULL",
        }
        joined = out.join(F.broadcast(g.selectExpr("*", "true AS __hit")), list(fd.lhs), "left")
        # the join puts the lhs first; one projection sets the flags in
        # their columns' places, appends the new rule's flag, and drops the
        # group's columns
        cols = [*fd.lhs, *[c for c in cols if c not in fd.lhs]]
        if dirty_col(fd.name) not in cols:
            cols.append(dirty_col(fd.name))
        out = joined.selectExpr(
            *[f"{flags[c]} AS {ident(c)}" if c in flags else ident(c) for c in cols]
        )
    return out


def clean_join(
    left_dataset: DataFrame,
    right_dataset: DataFrame,
    q: Query,
    left_rules: list[FD],
    right_rules: list[FD],
    left_tables: repair.RuleTables,
    right_tables: repair.RuleTables,
    *,
    relax_mode: str = "lemma",
) -> tuple[DataFrame, DataFrame, DataFrame, CleanStats, CleanStats]:
    """Definition 3: clean both qualifying parts, re-evaluate the join.

    (a) extracts the qualifying part of each input, (b) cleans each part
    that has rules and updates each relation separately (:func:`clean_sigma`),
    (c) recomputes the (incremental, probabilistic) join — extra tuples
    produced by relaxation can only match already-qualifying partners
    (Lemma 5), so the recomputation needs no further violation checks.  A
    self-join's right input is cleaned on the left input's output.  The
    session runs (b) one input at a time and (c) as its answer; this is
    Definition 3 as one call, which the Table 4 tests exercise.

    Returns ``(left_updated, right_updated, join_result, lstats, rstats)``.
    """
    assert q.join is not None
    self_join = q.join.right_table == q.table
    left_updated, lst = left_dataset, CleanStats()
    if left_rules:
        left_updated, lst = clean_sigma(
            left_dataset, q.filters, left_rules, left_tables, relax_mode=relax_mode
        )
    right_updated, rst = left_updated if self_join else right_dataset, CleanStats()
    if right_rules:
        right_updated, rst = clean_sigma(
            right_updated, q.join.right_filters, right_rules, right_tables,
            relax_mode=relax_mode,
        )
    if self_join:
        left_updated = right_updated
    # re-extract the (possibly grown) qualifying parts from the updated
    # relations and evaluate the probabilistic join
    lq = apply_filters(left_updated, q.filters)
    rq = apply_filters(right_updated, q.join.right_filters)
    joined = prob_equijoin(lq, rq, q.join.left_on, q.join.right_on)
    return left_updated, right_updated, joined, lst, rst


def aggregate(df: DataFrame, q: Query, *, prefix: str = "") -> DataFrame:
    """Group-by/aggregate over a (cleaned) result on provenance values."""
    if not q.group_by and not q.aggs:
        return df
    aggs = [_agg_col(a, prefix) for a in (q.aggs or [Aggregate("count", "*", "cnt")])]
    if q.group_by:
        return df.groupBy(*[f"{prefix}{g}" for g in q.group_by]).agg(*aggs)
    return df.agg(*aggs)


def _agg_col(a: Aggregate, prefix: str):
    col = F.lit(1) if a.col == "*" else F.col(f"{prefix}{a.col}")
    fn = {"avg": F.avg, "sum": F.sum, "min": F.min, "max": F.max, "count": F.count}[a.func]
    return fn(col).alias(a.alias)


def run_query(tables: dict[str, DataFrame], q: Query) -> DataFrame:
    """Execute ``q`` with probabilistic semantics, no cleaning (baselines)."""
    df = apply_filters(tables[q.table], q.filters)
    prefix = ""
    if q.join:
        right = apply_filters(tables[q.join.right_table], q.join.right_filters)
        df = prob_equijoin(df, right, q.join.left_on, q.join.right_on)
        prefix = "l_"
    if q.group_by or q.aggs:
        return aggregate(df, q, prefix=prefix)
    if q.project:
        # a join answer keeps its lineage pair (§4); a projected attribute
        # keeps its candidate set when it has one
        cols = [f"l_{TID}", f"r_{TID}"] if q.join else []
        for c in q.project:
            c = _resolve(df, c, ["l_", "r_"] if q.join else [])
            cols += [c, cands_col(c)] if cands_col(c) in df.columns else [c]
        return df.select(*cols)
    return df


def _resolve(df: DataFrame, attr: str, prefixes: list[str]) -> str:
    """The column of ``df`` a projected attribute names.

    An unprefixed attribute of a join answer is the left input's, else the
    right input's; a name already carrying its prefix is taken as it is.
    """
    for name in [p + attr for p in prefixes] + [attr]:
        if name in df.columns:
            return name
    raise ValueError(f"unknown projected attribute {attr!r}")

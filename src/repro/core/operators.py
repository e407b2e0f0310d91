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

from repro.core import relax, repair, update
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
    """Flag column of :func:`_detect`: the row is repaired now under the rule."""
    return f"{DIRTY}__{rule_name}"


def whole_col(rule_name: str) -> str:
    """Flag column of the region: the row's group under the rule is whole in it."""
    return f"__whole__{rule_name}"


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
    dataset, so it is the region, every group is whole in it and no
    relaxation round runs.  Relaxation also gives, per rule, the rows whose
    groups are whole in the region by construction (``whole``, the lhs
    half of its last match): they are the rows the query checks under the
    rule, and no count decides it.  One aggregate counts the region's rows,
    its answer rows and its changed rows, whole and unchecked under some of
    ``fds``.  With no changed row the dataset is returned as it is, before
    detection, and this exit is exact: only a changed row is repaired.  The
    exit reads the region, not the answer: a checked answer can relax into
    unchecked groups.

    Otherwise each phase is one pass: detection puts each rule's flags on
    the region rows (one checkpoint, which also counts the rows repaired
    now, per rule too: ``CleanStats.violating``), repair looks up the
    dirty rows' cells, and the update is one broadcast join.
    """
    st = CleanStats()
    in_answer = filter_predicate(dataset, filters)
    relaxed, whole = in_answer, [F.lit(True)] * len(fds)
    if filters:
        answer = dataset.where(in_answer)
        max_iter = 0 if relax_mode == "closure" else None
        for i, fd in enumerate(fds):
            pred, iters, whole[i] = relax.relax_fd(
                dataset, answer, fd, max_iter=max_iter, filter_side=filter_side(fd, filters)
            )
            st.relax_iters = max(st.relax_iters, iters)
            relaxed = relaxed | pred
        if len(fds) > 1:
            relaxed, whole = relax.whole_groups(dataset, relaxed, fds)
    region = dataset.where(relaxed).withColumns(
        {IN_ANSWER: in_answer, **{whole_col(fd.name): w for fd, w in zip(fds, whole)}}
    )

    # one task over a filter of the checkpointed dataset: no shuffle stage
    row = region.coalesce(1).selectExpr(
        "count(*) AS region", f"count_if({IN_ANSWER}) AS {IN_ANSWER}",
        f"count_if({_changed(fds)}) AS {CHANGED}",
    ).first()
    st.answer, st.extras = row[IN_ANSWER], row["region"] - row[IN_ANSWER]
    if row[CHANGED] == 0:
        return dataset, st

    flags = [DIRTY, *[dirty_col(fd.name) for fd in fds]]
    flagged, row = update.checkpoint(
        _detect(region, fds, tables.stats), *[F.expr(f"count_if({ident(c)}) AS {ident(c)}") for c in flags]
    )
    st.repaired = row[DIRTY]
    st.violating = {fd.name: row[dirty_col(fd.name)] for fd in fds}

    keep = [TID, *[ident(checked_col(fd.name)) for fd in fds]]
    delta = flagged.where(f"{CHANGED} AND NOT {DIRTY}").selectExpr(*keep)
    if st.repaired:
        # the dirty rows are changed rows too; they also carry their cells
        fixed = repair.compute_repairs(flagged.where(DIRTY), tables)
        cells = [ident(c) for c in fixed.columns if c.endswith(CAND_SUFFIX)]
        delta = fixed.selectExpr(*keep, *cells).unionByName(delta, allowMissingColumns=True)
    return update.apply_repairs(dataset, delta), st


def _changed(fds: list[FD]) -> str:
    """SQL text: the row's group is whole in the region and unchecked under one of ``fds``."""
    return " OR ".join(
        f"({ident(whole_col(fd.name))} AND NOT {ident(checked_col(fd.name))})" for fd in fds
    )


def _detect(region: DataFrame, fds: list[FD], stats_by_rule: dict[str, DataFrame]) -> DataFrame:
    """``region`` with each rule's checked flag set on its whole groups, and the repair flags.

    Groups are checked all at once, so a row's own checked flag is its
    group's.  Per rule, a changed row (whole and unchecked) of a violating
    group (``n_rhs > 1``) is :func:`dirty_col` of the rule, and ``DIRTY``
    if it is so under some rule; ``CHANGED`` marks the rows whose flags the
    update must write.  A rule's violating groups are a broadcast lookup
    on its statistics (one row per group); a null lhs matches none.
    """
    out, dirty = region, {}
    for i, fd in enumerate(fds):
        violating = stats_by_rule[fd.name].where("n_rhs > 1")
        out = out.join(F.broadcast(violating.selectExpr(*map(ident, fd.lhs), f"true AS __v{i}")),
                       list(fd.lhs), "left")
        dirty[dirty_col(fd.name)] = f"{_changed([fd])} AND __v{i} IS NOT NULL"
    flags = {
        **{checked_col(fd.name): f"{ident(checked_col(fd.name))} OR {ident(whole_col(fd.name))}"
           for fd in fds},
        DIRTY: " OR ".join(f"({d})" for d in dirty.values()),
        CHANGED: _changed(fds),
        **dirty,
    }
    # the joins put the lhs first; one projection restores the region's
    # column order, sets the flags and drops the lookups' columns
    cols = [*region.columns, DIRTY, CHANGED, *dirty]
    return out.selectExpr(*[f"{flags[c]} AS {ident(c)}" if c in flags else ident(c) for c in cols])


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

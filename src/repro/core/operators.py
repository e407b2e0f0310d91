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

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import detect, relax, repair, update
from repro.core.constraints import FD
from repro.core.planner import Aggregate, Filter, Query, filter_side
from repro.core.prob import TID, cands_col, prob_equijoin, qualifies


@dataclass
class CleanStats:
    """Row counts a cleaning-operator invocation feeds the cost model."""

    answer: int = 0
    extras: int = 0
    repaired: int = 0
    relax_iters: int = 0


def apply_filters(df: DataFrame, filters: list[Filter]) -> DataFrame:
    """Probabilistic selection: conjunction of qualification predicates."""
    out = df
    for f in filters:
        out = out.where(qualifies(out, f.attr, f.op, f.value, f.value2))
    return out


def clean_sigma(
    dataset: DataFrame,
    answer: DataFrame,
    fds: list[FD],
    all_rules: list[tuple[FD, int]],
    stats_by_rule: dict[str, DataFrame],
    filters: list[Filter],
    *,
    relax_mode: str = "lemma",
) -> tuple[DataFrame, CleanStats]:
    """Definition 2: relax the select result, fix errors, update in place.

    Returns ``(updated_dataset, stats)``.  ``fds`` (non-empty) are the rules
    relevant to this query; ``all_rules`` every (rule, world) pair the
    session knows — needed because repairing a tuple under a new rule
    re-merges the worlds of every rule it is dirty under (§4.3 / Lemma 4).
    """
    st = CleanStats(answer=answer.count())
    region = answer
    for fd in fds:
        side = filter_side(fd, filters)
        max_iter = 0 if relax_mode == "closure" else None
        extra, iters = relax.relax_fd(dataset, answer, fd, max_iter=max_iter, filter_side=side)
        st.relax_iters = max(st.relax_iters, iters)
        region = region.unionByName(extra)
    region = region.dropDuplicates([TID]).localCheckpoint(eager=True)
    st.extras = region.count() - st.answer

    dirty = None
    checked: dict[str, DataFrame] = {}
    for fd in fds:
        stats = stats_by_rule[fd.name]
        vg = detect.violating_complete_groups(region, fd, stats)
        members = detect.members_of(region, fd, vg).select(TID)
        dirty = members if dirty is None else dirty.unionByName(members)
        cg = detect.complete_groups(region, fd, stats)
        checked[fd.name] = detect.members_of(region, fd, cg).select(TID)
    dirty = dirty.distinct().localCheckpoint(eager=True)
    st.repaired = dirty.count()
    if st.repaired == 0:
        # nothing to repair — only mark the examined groups as checked
        return update.apply_repairs(dataset, None, checked), st

    rules = [fd for fd, _w in all_rules]
    full_map = detect.repair_map(dataset, dirty, rules, stats_by_rule, checked=checked)
    fixes = repair.compute_repairs(dataset, all_rules, full_map)
    return update.apply_repairs(dataset, fixes, checked), st


def clean_side(
    dataset: DataFrame,
    filters: list[Filter],
    fds: list[FD],
    all_rules: list[tuple[FD, int]],
    stats_by_rule: dict[str, DataFrame],
    *,
    relax_mode: str = "lemma",
) -> tuple[DataFrame, CleanStats]:
    """One query input: filter it, then clean_σ the answer under ``fds``.

    ``fds`` are the input's FD rules the plan cleans ``after`` the filter;
    with none, the answer is only counted.  Returns ``(updated, stats)``.
    """
    answer = apply_filters(dataset, filters).localCheckpoint(eager=True)
    if not fds:
        return dataset, CleanStats(answer=answer.count())
    return clean_sigma(
        dataset, answer, fds, all_rules, stats_by_rule, filters, relax_mode=relax_mode
    )


def clean_join(
    left_dataset: DataFrame,
    right_dataset: DataFrame,
    q: Query,
    left_rules: list[FD],
    right_rules: list[FD],
    left_all: list[tuple[FD, int]],
    right_all: list[tuple[FD, int]],
    left_stats: dict[str, DataFrame],
    right_stats: dict[str, DataFrame],
    *,
    relax_mode: str = "lemma",
) -> tuple[DataFrame, DataFrame, DataFrame, CleanStats, CleanStats]:
    """Definition 3: clean both qualifying parts, re-evaluate the join.

    (a) extracts the qualifying part of each input, (b) cleans each part and
    updates each relation separately (:func:`clean_side`), (c) recomputes
    the (incremental, probabilistic) join — extra tuples produced by
    relaxation can only match already-qualifying partners (Lemma 5), so the
    recomputation needs no further violation checks.

    Returns ``(left_updated, right_updated, join_result, lstats, rstats)``.
    """
    assert q.join is not None
    left_updated, lst = clean_side(
        left_dataset, q.filters, left_rules, left_all, left_stats, relax_mode=relax_mode
    )
    right_updated, rst = clean_side(
        right_dataset, q.join.right_filters, right_rules, right_all, right_stats,
        relax_mode=relax_mode,
    )
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
            c = f"{prefix}{c}" if f"{prefix}{c}" in df.columns else c
            cols += [c, cands_col(c)] if cands_col(c) in df.columns else [c]
        return df.select(*cols)
    return df

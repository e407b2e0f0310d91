"""FD violation detection and dirty-group statistics (paper §5.2, §6).

Detection follows the BigDansing optimization the paper's offline baseline
uses — a group-by on the lhs instead of a self-join — and always runs over
*provenance* (original) values: §4.3 prescribes executing rules "over the
original data" and merging, which also makes incremental cleaning reach the
same fixed point as offline cleaning.

``group_stats`` is the statistics precomputation of §6 ("Daisy collects
statistics by pre-computing the size of the erroneous groups"): per lhs
group its size and distinct-rhs count.  It powers (a) pruning — skip
detection for values outside the dirty list (Fig 9 discussion), (b) the
ε and p estimates of the §5.2.3 cost inequality, and (c) the group-
completeness check that scope-limited relaxation needs.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.constraints import FD
from repro.core.prob import TID, checked_col


def group_stats(dataset: DataFrame, fd: FD) -> DataFrame:
    """Per-lhs-group statistics over provenance values.

    Columns: ``<lhs cols>..., group_size, n_rhs`` where ``n_rhs`` is the
    number of distinct rhs values (``n_rhs > 1`` ⇔ the group violates).
    """
    return dataset.groupBy(*fd.lhs).agg(
        F.count("*").alias("group_size"),
        F.countDistinct(fd.rhs).alias("n_rhs"),
    )


def rhs_domain_stat(dataset: DataFrame, fd: FD) -> float:
    """Avg distinct lhs values per rhs value (§5.2.3's p via the rhs group-by).

    This is the size of the *lhs-side* candidate domain an erroneous cell
    acquires (world 2): when the rhs has low selectivity, each rhs value
    co-occurs with many lhs values and p explodes (Figs 6-7 discussion).
    """
    row = (
        dataset.groupBy(fd.rhs)
        .agg(F.countDistinct(*fd.lhs).alias("__d"))
        .agg(F.avg("__d"))
        .first()
    )
    return float(row[0] or 0.0)


def dirty_group_summary(stats: DataFrame) -> tuple[int, int, float]:
    """(#violating groups ε, #tuples in violating groups, avg candidates p)."""
    row = (
        stats.where(F.col("n_rhs") > 1)
        .agg(
            F.count("*").alias("g"),
            F.coalesce(F.sum("group_size"), F.lit(0)).alias("t"),
            F.coalesce(F.avg("n_rhs"), F.lit(0.0)).alias("p"),
        )
        .first()
    )
    return int(row["g"]), int(row["t"]), float(row["p"])


def violating_complete_groups(region: DataFrame, fd: FD, stats: DataFrame) -> DataFrame:
    """Violating lhs groups of ``region`` that are *fully contained* in it.

    Under Lemma-budget relaxation, extras pulled via an rhs match may carry
    partially-present lhs groups; those are deferred to the query that
    touches them (their rows stay unchecked).  Completeness is verified
    against the precomputed global ``group_size``.

    Returns the lhs-key frame of groups to repair now.
    """
    r = region
    if checked_col(fd.name) in region.columns:
        r = region.where(~F.col(checked_col(fd.name)))
    present = r.groupBy(*fd.lhs).agg(F.count("*").alias("__present"))
    joined = present.join(stats, list(fd.lhs))
    return joined.where(
        (F.col("__present") == F.col("group_size")) & (F.col("n_rhs") > 1)
    ).select(*fd.lhs)


def complete_groups(region: DataFrame, fd: FD, stats: DataFrame) -> DataFrame:
    """All lhs groups fully contained in ``region`` (clean or violating).

    These are the groups whose examination is finished by this query —
    their rows get the per-rule checked marker (§4.3: "Daisy maintains
    information about the already checked tuples by each rule").
    """
    present = region.groupBy(*fd.lhs).agg(F.count("*").alias("__present"))
    return (
        present.join(stats, list(fd.lhs))
        .where(F.col("__present") == F.col("group_size"))
        .select(*fd.lhs)
    )


def members_of(region: DataFrame, fd: FD, groups: DataFrame) -> DataFrame:
    """Rows of ``region`` belonging to the given lhs groups."""
    return region.join(groups, list(fd.lhs), "leftsemi")


def violating_groups(stats: DataFrame, fd: FD) -> DataFrame:
    """The lhs keys of the violating groups of ``fd`` (``n_rhs > 1``)."""
    return stats.where(F.col("n_rhs") > 1).select(*fd.lhs)


def repair_map(
    dataset: DataFrame,
    tids: DataFrame | None,
    fds: list[FD],
    stats_by_rule: dict[str, DataFrame],
    *,
    checked: dict[str, DataFrame] | None = None,
) -> DataFrame:
    """The ``(TID, rule_name)`` pairs repair merges the worlds of (§4.3).

    Each tid to repair (``tids``; ``None`` takes every tuple of ``dataset``)
    is listed under every rule whose violating group contains it, so a
    tuple repaired now re-merges the worlds of the rules it is already
    known-dirty under.  With ``checked`` (rule name → tids whose group this
    query examined), a tid is listed under a rule only if it was checked
    under that rule, earlier (its flag in ``dataset``) or in this query.
    """
    todo = dataset if tids is None else dataset.join(tids, TID, "leftsemi")
    out = None
    for fd in fds:
        pairs = todo.join(violating_groups(stats_by_rule[fd.name], fd), list(fd.lhs), "leftsemi")
        if checked is not None:
            eligible = dataset.where(F.col(checked_col(fd.name))).select(TID)
            if fd.name in checked:
                eligible = eligible.unionByName(checked[fd.name])
            pairs = pairs.join(eligible, TID, "leftsemi")
        pairs = pairs.select(TID).withColumn("rule_name", F.lit(fd.name))
        out = pairs if out is None else out.unionByName(pairs)
    return out

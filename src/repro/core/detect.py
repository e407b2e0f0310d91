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


#: flag column of :func:`complete_groups`: the group is repaired now
VIOLATING = "__violating"


def complete_groups(region: DataFrame, fd: FD, stats: DataFrame) -> DataFrame:
    """All lhs groups fully contained in ``region``, flagged if repaired now.

    These are the groups whose examination is finished by this query —
    their rows get the per-rule checked marker (§4.3: "Daisy maintains
    information about the already checked tuples by each rule").
    Completeness is verified against the precomputed global ``group_size``.

    The ``VIOLATING`` column marks the groups to repair now: they violate
    (``n_rhs > 1``) and none of their rows is checked yet.  Under
    Lemma-budget relaxation, extras pulled via an rhs match may carry
    partially-present lhs groups; those are deferred to the query that
    touches them (their rows stay unchecked).

    One group-by over ``region``, joined to ``stats``; ``stats`` is
    broadcast (one row per distinct lhs value).
    """
    cc = checked_col(fd.name)
    unchecked = ~F.col(cc) if cc in region.columns else F.lit(True)
    present = region.groupBy(*fd.lhs).agg(
        F.count("*").alias("__present"), F.count_if(unchecked).alias("__unchecked")
    )
    return (
        present.join(F.broadcast(stats), list(fd.lhs))
        .where(F.col("__present") == F.col("group_size"))
        .select(
            *fd.lhs,
            ((F.col("__unchecked") == F.col("group_size")) & (F.col("n_rhs") > 1))
            .alias(VIOLATING),
        )
    )


def violating_complete_groups(region: DataFrame, fd: FD, stats: DataFrame) -> DataFrame:
    """The lhs keys of the groups :func:`complete_groups` flags to repair now."""
    return complete_groups(region, fd, stats).where(F.col(VIOLATING)).select(*fd.lhs)


def members_of(region: DataFrame, fd: FD, groups: DataFrame) -> DataFrame:
    """Rows of ``region`` belonging to the given lhs groups."""
    return region.join(groups, list(fd.lhs), "leftsemi")


def violating_groups(stats: DataFrame, fd: FD) -> DataFrame:
    """The lhs keys of the violating groups of ``fd`` (``n_rhs > 1``)."""
    return stats.where(F.col("n_rhs") > 1).select(*fd.lhs)


def repair_map(rows: DataFrame, fds: list[FD], stats_by_rule: dict[str, DataFrame]) -> DataFrame:
    """The ``(TID, rule_name)`` pairs repair merges the worlds of (§4.3).

    Each tuple of ``rows`` (the tuples to repair) is listed under every rule
    whose group it was checked in (its ``__checked__<rule>`` flag, set
    earlier or by the caller) and whose violating group contains it, so a
    tuple repaired now re-merges the worlds of the rules it is already
    known-dirty under.  A full clean sets every flag first.  The
    violating-group keys are broadcast (one row per distinct lhs value).
    """
    out = None
    for fd in fds:
        vg = F.broadcast(violating_groups(stats_by_rule[fd.name], fd))
        pairs = rows.where(F.col(checked_col(fd.name))).join(vg, list(fd.lhs), "leftsemi")
        pairs = pairs.select(TID).withColumn("rule_name", F.lit(fd.name))
        out = pairs if out is None else out.unionByName(pairs)
    return out

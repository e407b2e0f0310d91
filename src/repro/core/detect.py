"""FD violation detection and dirty-group statistics (paper §5.2, §6).

Detection follows the BigDansing optimization the paper's offline baseline
uses — a group-by on the lhs instead of a self-join — and always runs over
*provenance* (original) values: §4.3 prescribes executing rules "over the
original data" and merging, which also makes incremental cleaning reach the
same fixed point as offline cleaning.

``group_stats`` is the statistics precomputation of §6 ("Daisy collects
statistics by pre-computing the size of the erroneous groups"): per lhs
group its size, distinct-rhs count and rhs value counts.  It powers (a)
pruning — skip detection for values outside the dirty list (Fig 9
discussion), (b) the violating-group lookup of ``clean_σ``'s detection
(groups are whole in a relaxed region by construction,
:func:`repro.core.relax.relax_fd`; :func:`complete_groups` checks it by
count, for tests), and (c) the candidate tables of
:mod:`repro.core.repair`, whose checkpoints also observe the ε and p of
the §5.2.3 cost inequality (:class:`repro.core.repair.Summary`).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.constraints import FD
from repro.core.prob import checked_col
from repro.core.sqltext import ident


#: column of :func:`group_stats`: the group's rhs value counts,
#: ``array<struct<v: rhs value, c: rows>>`` (world 1 of :mod:`repro.core.repair`)
RHS_COUNTS = "rhs_counts"


def group_stats(dataset: DataFrame, fd: FD) -> DataFrame:
    """Per-lhs-group statistics over provenance values.

    Columns: ``<lhs cols>..., group_size, n_rhs, rhs_counts`` where
    ``n_rhs`` is the number of distinct rhs values (``n_rhs > 1`` ⇔ the
    group violates) and ``rhs_counts`` the rows per rhs value, from which
    repair reads ``P(rhs | lhs)``.  One pass over the data: a group-by on
    the (lhs, rhs) value pairs, then one on the lhs.
    """
    rhs = ident(fd.rhs)
    pairs = dataset.groupBy(*fd.lhs, fd.rhs).agg(F.expr("count(*) AS __c"))
    return pairs.groupBy(*fd.lhs).agg(
        F.expr("sum(__c) AS group_size"),
        F.expr(f"count({rhs}) AS n_rhs"),
        F.expr(f"collect_list(named_struct('v', {rhs}, 'c', __c)) AS {RHS_COUNTS}"),
    )


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
    unchecked = f"NOT {ident(cc)}" if cc in region.columns else "true"
    present = region.groupBy(*fd.lhs).agg(
        F.expr("count(*) AS __present"), F.expr(f"count_if({unchecked}) AS __unchecked")
    )
    return (
        present.join(F.broadcast(stats), list(fd.lhs))
        .where("__present = group_size")
        .selectExpr(
            *map(ident, fd.lhs),
            f"__unchecked = group_size AND n_rhs > 1 AS {VIOLATING}",
        )
    )


def violating_complete_groups(region: DataFrame, fd: FD, stats: DataFrame) -> DataFrame:
    """The lhs keys of the groups :func:`complete_groups` flags to repair now."""
    return complete_groups(region, fd, stats).where(VIOLATING).selectExpr(*map(ident, fd.lhs))


def members_of(region: DataFrame, fd: FD, groups: DataFrame) -> DataFrame:
    """Rows of ``region`` belonging to the given lhs groups."""
    return region.join(groups, list(fd.lhs), "leftsemi")


def violating_groups(stats: DataFrame, fd: FD) -> DataFrame:
    """The lhs keys of the violating groups of ``fd`` (``n_rhs > 1``)."""
    return stats.where("n_rhs > 1").selectExpr(*map(ident, fd.lhs))

"""In-place dataset update (paper §4, §5.2.2 "update cost").

The paper updates the original dataset after each query with a
left-outer-join between the dataset and the fixed tuples.  We do the same at
the DataFrame level, keyed on ``__tid``: repaired candidate cells replace the
old candidate cells (repairs are full recomputations — see
:mod:`repro.core.repair`), provenance base columns are never touched, and
per-rule checked markers are OR-merged.

Every update is followed by ``localCheckpoint(eager=True)``: a 50-90 query
session otherwise accretes an unbounded Catalyst plan (the classic iterative-
algorithm pitfall), and checkpointing also materializes the "gradually
cleaned" dataset the paper describes.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.prob import TID, CAND_SUFFIX, checked_col


def apply_repairs(
    dataset: DataFrame,
    fixes: DataFrame | None,
    checked: dict[str, DataFrame] | None = None,
) -> DataFrame:
    """Merge ``fixes`` (tid + ``*__cands``) and checked-tid sets into ``dataset``.

    ``checked`` maps rule name → DataFrame of tids whose group examination
    finished this round.  Returns the updated (checkpointed) dataset.
    """
    out = dataset
    if fixes is not None:
        fix_cols = [c for c in fixes.columns if c.endswith(CAND_SUFFIX)]
        if fix_cols:
            renamed = fixes.select(
                TID, *[F.col(c).alias(f"__new_{c}") for c in fix_cols]
            )
            # the fixes side is the dirty subset — broadcast it so the
            # update is one pass over the dataset (conftest disables
            # auto-broadcast globally; this is an explicit small-side hint)
            out = out.join(F.broadcast(renamed), TID, "left")
            for c in fix_cols:
                out = out.withColumn(
                    c, F.coalesce(F.col(f"__new_{c}"), F.col(c))
                ).drop(f"__new_{c}")
    for rule_name, tids in (checked or {}).items():
        cc = checked_col(rule_name)
        flag = tids.select(TID).distinct().withColumn("__hit", F.lit(True))
        out = (
            out.join(F.broadcast(flag), TID, "left")
            .withColumn(cc, F.col(cc) | F.coalesce(F.col("__hit"), F.lit(False)))
            .drop("__hit")
        )
    return out.localCheckpoint(eager=True)

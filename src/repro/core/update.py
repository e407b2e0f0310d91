"""In-place dataset update (paper §4, §5.2.2 "update cost").

The paper updates the original dataset after each query with a
left-outer-join between the dataset and the fixed tuples.  We do the same at
the DataFrame level, keyed on ``__tid``, as one broadcast left join with a
single delta frame: one row per changed tuple, carrying its repaired
candidate cells and its per-rule checked flags.  Repaired candidate cells
replace the old candidate cells (repairs are full recomputations — see
:mod:`repro.core.repair`), provenance base columns are never touched, and
per-rule checked markers are OR-merged.

Every update is followed by ``localCheckpoint(eager=True)``: a 50-90 query
session otherwise accretes an unbounded Catalyst plan (the classic iterative-
algorithm pitfall), and checkpointing also materializes the "gradually
cleaned" dataset the paper describes.  A count over the rows a checkpoint
materializes rides on that checkpoint's job (:func:`checkpoint`).
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame, Observation
from pyspark.sql import functions as F

from repro.core.prob import CAND_SUFFIX, CHECKED_PREFIX, TID
from repro.core.sqltext import ident


def apply_repairs(dataset: DataFrame, delta: DataFrame) -> DataFrame:
    """Merge ``delta`` into ``dataset``; returns the updated (checkpointed) dataset.

    ``delta`` has one row per changed tid: ``TID``, any ``<attr>__cands``
    columns (a null cell keeps the old candidates) and any
    ``__checked__<rule>`` flags (true marks the tuple's group as examined).
    It is broadcast: it is bounded by a query's relaxed region, or by the
    dirty part of the table in a full clean (conftest disables
    auto-broadcast globally; this is an explicit small-side hint).
    """
    cols = [c for c in delta.columns if c.endswith(CAND_SUFFIX) or c.startswith(CHECKED_PREFIX)]
    new = delta.selectExpr(TID, *[f"{ident(c)} AS {ident('__new_' + c)}" for c in cols])
    merged = {}
    for c in cols:
        old, fix = ident(c), ident(f"__new_{c}")
        if c.startswith(CHECKED_PREFIX):
            merged[c] = f"{old} OR coalesce({fix}, false) AS {old}"
        else:
            merged[c] = f"coalesce({fix}, {old}) AS {old}"
    # the join puts TID first; one projection merges the cells and drops
    # the delta's columns
    out = dataset.join(F.broadcast(new), TID, "left")
    kept = [TID] + [merged.get(c, ident(c)) for c in dataset.columns if c != TID]
    return out.selectExpr(*kept).localCheckpoint(eager=True)


def checkpoint(df: DataFrame, *metrics: Column) -> tuple[DataFrame, dict]:
    """``df`` checkpointed, and ``metrics`` aggregated over its rows.

    The metrics are an ``Observation`` on the checkpoint's own job, so they
    cost no extra Spark job; observed metrics take no distinct aggregates.
    """
    obs = Observation()
    out = df.observe(obs, *metrics).localCheckpoint(eager=True)
    return out, obs.get

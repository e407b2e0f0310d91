"""Probabilistic dataset representation (paper §4).

Attribute-level uncertainty: a cleaned table keeps, for every attribute
``a`` that appears in a rule,

- column ``a``        — the *original* (provenance) value, never overwritten;
- column ``a__cands`` — ``array<struct<v, p, w>>`` of candidate values with
  frequency-based probability ``p`` and possible-world id ``w``
  (null ⇒ the cell has not been repaired).

World ids: ``w = 1`` is the rhs-varies world (lhs kept, merged across rules
per §4.3); ``w = 2 + rule_index`` are the lhs-varies worlds, one per rule.

Query semantics (§4): an operator outputs a tuple iff at least one candidate
value qualifies; (self-)joins on probabilistic keys match iff the candidate
value sets overlap.  Implemented with Catalyst higher-order functions
(``exists`` / ``transform``) — no Python UDFs on the hot path.
"""
from __future__ import annotations

from typing import Callable, Iterable

import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.constraints import OPS

TID = "__tid"
CAND_SUFFIX = "__cands"
CHECKED_PREFIX = "__checked__"


def cands_col(attr: str) -> str:
    """Name of the candidate-array column for ``attr``."""
    return f"{attr}{CAND_SUFFIX}"


def checked_col(rule_name: str) -> str:
    """Name of the per-rule processed-group marker column."""
    return f"{CHECKED_PREFIX}{rule_name}"


def base_attrs(df: DataFrame) -> list[str]:
    """The data attributes of ``df`` (excludes __tid / cands / checked)."""
    return [
        c
        for c in df.columns
        if c != TID and not c.endswith(CAND_SUFFIX) and not c.startswith(CHECKED_PREFIX)
    ]


def spark_with_tid(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Materialize a pandas frame with a positional ``__tid`` column.

    ``__tid`` equals the positional index, matching the ``rid`` column of the
    datagen truth frames, so ground-truth joins are exact.
    """
    pdf = pdf.reset_index(drop=True).copy()
    pdf.insert(0, TID, pdf.index.to_numpy())
    return spark.createDataFrame(pdf)


def cand_type(df: DataFrame, attr: str) -> T.ArrayType:
    """array<struct<v: <attr type>, p: double, w: int>> for ``attr``."""
    vtype = df.schema[attr].dataType
    return T.ArrayType(
        T.StructType(
            [
                T.StructField("v", vtype),
                T.StructField("p", T.DoubleType()),
                T.StructField("w", T.IntegerType()),
            ]
        )
    )


def ensure_cands(df: DataFrame, attrs: Iterable[str]) -> DataFrame:
    """Add null candidate columns for ``attrs`` if missing."""
    for a in attrs:
        c = cands_col(a)
        if c not in df.columns:
            df = df.withColumn(c, F.lit(None).cast(cand_type(df, a)))
    return df


def ensure_checked(df: DataFrame, rule_names: Iterable[str]) -> DataFrame:
    """Add per-rule ``false`` checked markers if missing."""
    for r in rule_names:
        c = checked_col(r)
        if c not in df.columns:
            df = df.withColumn(c, F.lit(False))
    return df


def pred_column(value_col: Column, op: str, value, value2=None) -> Column:
    """Build a boolean predicate over a (possibly candidate) value column."""
    if op in OPS:
        return OPS[op](value_col, F.lit(value))
    if op == "between":  # inclusive, like SQL BETWEEN
        return (value_col >= F.lit(value)) & (value_col <= F.lit(value2))
    if op == "in":
        return value_col.isin(list(value))
    raise ValueError(f"unsupported op {op!r}")


def qualifies(df: DataFrame, attr: str, op: str, value, value2=None) -> Column:
    """§4 tuple-qualification: clean value passes, or ∃ candidate that passes."""
    pred: Callable[[Column], Column] = lambda c: pred_column(c, op, value, value2)
    cc = cands_col(attr)
    if cc not in df.columns:
        return pred(F.col(attr))
    return F.when(F.col(cc).isNull(), pred(F.col(attr))).otherwise(
        F.exists(F.col(cc), lambda x: pred(x["v"]))
    )


def possible_values(df: DataFrame, attr: str) -> Column:
    """Array of all candidate values of the cell (or the single clean value)."""
    cc = cands_col(attr)
    if cc not in df.columns:
        return F.array(F.col(attr))
    return F.when(F.col(cc).isNull(), F.array(F.col(attr))).otherwise(
        F.array_distinct(F.transform(F.col(cc), lambda x: x["v"]))
    )


def prob_equijoin(
    left: DataFrame,
    right: DataFrame,
    left_on: str,
    right_on: str,
    *,
    lprefix: str = "l",
    rprefix: str = "r",
) -> DataFrame:
    """Probabilistic equi-join: pairs qualify iff candidate sets overlap.

    Output columns are prefixed (``<lprefix>_<col>`` / ``<rprefix>_<col>``);
    lineage tids (§4: the originating tuple IDs) are
    ``<lprefix>_{TID}`` / ``<rprefix>_{TID}``.

    One join of the renamed sides, each exploded to one row per possible
    join value; a pair whose candidate sets share several values joins once
    per shared value, so the pairs are de-duplicated on their lineage tids.
    """
    sides = []
    for df, on, prefix in ((left, left_on, lprefix), (right, right_on, rprefix)):
        cols = [F.col(c).alias(f"{prefix}_{c}") for c in df.columns]
        sides.append(df.select(*cols, F.explode(possible_values(df, on)).alias("__jv")))
    return (
        sides[0].join(sides[1], "__jv")
        .dropDuplicates([f"{lprefix}_{TID}", f"{rprefix}_{TID}"])
        .drop("__jv")
    )


def cands_canonical(df: DataFrame, attr: str) -> pd.DataFrame:
    """Flatten one attribute's candidates for comparisons in tests.

    Returns a pandas frame ``(tid, v, p, w)`` sorted, probabilities rounded —
    the canonical form used by the Daisy ≡ offline equivalence tests.
    """
    cc = cands_col(attr)
    out = (
        df.where(F.col(cc).isNotNull())
        .select(F.col(TID).alias("tid"), F.explode(cc).alias("c"))
        .select("tid", F.col("c.v").alias("v"), F.round("c.p", 6).alias("p"), F.col("c.w").alias("w"))
        .toPandas()
    )
    return out.sort_values(["tid", "w", "v"]).reset_index(drop=True)

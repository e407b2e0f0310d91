"""Probabilistic dataset representation (paper §4).

Attribute-level uncertainty: a cleaned table keeps, for every attribute
``a`` that appears in a rule,

- column ``a``        — the *original* (provenance) value, never overwritten;
- column ``a__cands`` — ``array<struct<v, p, w>>`` of candidate values with
  frequency-based probability ``p`` and possible-world id ``w``
  (null ⇒ the cell has not been repaired).

World ids: ``w = 1`` is the rhs-varies world (lhs kept, merged across rules
per §4.3); ``w = 2 + i`` is the lhs-varies world of the rule at position
``i`` of its table's rules (:func:`repro.core.repair.lhs_world`).

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
from repro.core.sqltext import ident

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
    """§4 tuple-qualification: clean value passes, or ∃ candidate that passes.

    An attribute with candidate cells is one ``exists`` of the predicate
    over the cell's values: the clean value, or the candidates' values.
    The array is SQL text; the predicate is built once, and the filter's
    values stay literals (DESIGN §3, on round trips to the JVM).
    """
    pred: Callable[[Column], Column] = lambda c: pred_column(c, op, value, value2)
    if cands_col(attr) not in df.columns:
        return pred(F.col(attr))
    return F.exists(F.expr(values_sql(attr, True, distinct=False)), pred)


def values_sql(attr: str, has_cands: bool, *, distinct: bool = True) -> str:
    """SQL text of the array of ``attr``'s possible values in a row.

    ``has_cands``: whether the frame has ``attr``'s candidate column.  The
    array is the clean value when the cell has no candidates, else the
    candidates' values (``distinct``: each once).
    """
    clean = f"array({ident(attr)})"
    if not has_cands:
        return clean
    cc = ident(cands_col(attr))
    values = f"transform({cc}, __c -> __c.v)"
    if distinct:
        values = f"array_distinct({values})"
    return f"CASE WHEN {cc} IS NULL THEN {clean} ELSE {values} END"


def prob_equijoin(left: DataFrame, right: DataFrame, left_on: str, right_on: str) -> DataFrame:
    """Probabilistic equi-join: pairs qualify iff candidate sets overlap.

    Output columns are prefixed (``l_<col>`` / ``r_<col>``); lineage tids
    (§4: the originating tuple IDs) are ``l_{TID}`` / ``r_{TID}``.

    One join of the renamed sides, each exploded to one row per possible
    join value (one ``selectExpr`` per side renames and explodes).  A pair
    whose candidate sets share several values joins once per shared value
    and keeps the row of the smallest one; both candidate sets are rebuilt
    from the output's own columns.  That is a row filter, so the pairs need
    no de-duplicating shuffle.  A null value matches nothing.
    """
    sides, values = [], []
    for df, on, prefix in ((left, left_on, "l"), (right, right_on, "r")):
        has_cands = cands_col(on) in df.columns
        renamed = [f"{ident(c)} AS {ident(f'{prefix}_{c}')}" for c in df.columns]
        sides.append(df.selectExpr(*renamed, f"explode({values_sql(on, has_cands)}) AS __jv"))
        values.append(values_sql(f"{prefix}_{on}", has_cands))
    joined = sides[0].join(sides[1], "__jv")
    # numeric sides of different widths meet in the wider type, as in the join
    return joined.where(f"__jv = array_min(array_intersect({', '.join(values)}))").drop("__jv")


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

"""Probabilistic representation tests (paper §4 semantics)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import prob
from repro.core.prob import TID


@pytest.fixture()
def simple(spark):
    d = prob.spark_with_tid(spark, pd.DataFrame({"k": [1, 2, 3], "v": ["a", "b", "c"]}))
    return prob.ensure_cands(d, ["k", "v"])


def _with_cands(df, tid, attr, entries):
    """Set one cell's candidate array: entries = [(v, p, w), ...]."""
    arr = F.array(
        *[
            F.struct(F.lit(v).alias("v"), F.lit(p).alias("p"), F.lit(w).alias("w"))
            for v, p, w in entries
        ]
    )
    c = prob.cands_col(attr)
    return df.withColumn(c, F.when(F.col(TID) == tid, arr).otherwise(F.col(c)))


class TestBasics:
    def test_spark_with_tid_positional(self, spark):
        d = prob.spark_with_tid(spark, pd.DataFrame({"x": [10, 20, 30]}))
        got = {r[TID]: r["x"] for r in d.collect()}
        assert got == {0: 10, 1: 20, 2: 30}

    def test_ensure_cands_adds_null_typed_columns(self, simple):
        assert prob.cands_col("k") in simple.columns
        row = simple.where(F.col(TID) == 0).first()
        assert row[prob.cands_col("k")] is None

    def test_ensure_cands_idempotent(self, simple):
        again = prob.ensure_cands(simple, ["k"])
        assert again.columns == simple.columns

    def test_ensure_checked(self, simple):
        d = prob.ensure_checked(simple, ["r1"])
        assert not d.select(prob.checked_col("r1")).first()[0]

    def test_base_attrs(self, simple):
        d = prob.ensure_checked(simple, ["r1"])
        assert prob.base_attrs(d) == ["k", "v"]

    def test_cand_type_matches_attr_type(self, simple):
        t = prob.cand_type(simple, "k")
        assert t.elementType["v"].dataType.typeName() == "long"


class TestQualification:
    @pytest.mark.parametrize(
        "op,value,value2,expected",
        [
            ("=", 2, None, {1}),
            ("!=", 2, None, {0, 2}),
            ("<", 3, None, {0, 1}),
            ("<=", 2, None, {0, 1}),
            (">", 1, None, {1, 2}),
            (">=", 3, None, {2}),
            ("between", 2, 3, {1, 2}),
            ("in", [1, 3], None, {0, 2}),
        ],
    )
    def test_clean_cells(self, simple, op, value, value2, expected):
        got = {
            r[TID]
            for r in simple.where(prob.qualifies(simple, "k", op, value, value2)).collect()
        }
        assert got == expected

    def test_candidate_qualifies(self, simple):
        # tuple 0 has k candidates {1, 5}: it must qualify k=5 (§4: a tuple
        # qualifies iff at least one candidate value qualifies)
        d = _with_cands(simple, 0, "k", [(1, 0.5, 1), (5, 0.5, 2)])
        got = {r[TID] for r in d.where(prob.qualifies(d, "k", "=", 5)).collect()}
        assert got == {0}

    def test_candidate_overrides_base(self, simple):
        # once probabilistic, the base value no longer qualifies by itself
        d = _with_cands(simple, 0, "k", [(5, 1.0, 1)])
        got = {r[TID] for r in d.where(prob.qualifies(d, "k", "=", 1)).collect()}
        assert got == set()

    def test_range_over_candidates(self, simple):
        d = _with_cands(simple, 2, "k", [(3, 0.5, 1), (9, 0.5, 2)])
        got = {r[TID] for r in d.where(prob.qualifies(d, "k", ">", 5)).collect()}
        assert got == {2}


class TestValueSets:
    def test_possible_values_clean(self, simple):
        row = simple.select(F.expr(prob.values_sql("k", True)).alias("pv")).collect()
        assert sorted(r["pv"] for r in row) == [[1], [2], [3]]

    def test_possible_values_cands(self, simple):
        d = _with_cands(simple, 0, "k", [(1, 0.5, 1), (7, 0.5, 2)])
        pv = d.where(F.col(TID) == 0).select(F.expr(prob.values_sql("k", True)).alias("pv"))
        pv = pv.first()["pv"]
        assert sorted(pv) == [1, 7]


class TestProbEquijoin:
    def test_clean_join_matches(self, spark):
        l = prob.spark_with_tid(spark, pd.DataFrame({"k": [1, 2], "a": ["x", "y"]}))
        r = prob.spark_with_tid(spark, pd.DataFrame({"k": [2, 3], "b": ["u", "w"]}))
        out = prob.prob_equijoin(l, r, "k", "k").collect()
        assert len(out) == 1 and out[0]["l_a"] == "y" and out[0]["r_b"] == "u"

    def test_candidate_overlap_joins(self, spark):
        # §4: (self-)joins on probabilistic keys output a pair iff the
        # candidate values of the join keys overlap
        l = prob.spark_with_tid(spark, pd.DataFrame({"k": [1], "a": ["x"]}))
        l = prob.ensure_cands(l, ["k"])
        l = _with_cands(l, 0, "k", [(1, 0.5, 1), (3, 0.5, 2)])
        r = prob.spark_with_tid(spark, pd.DataFrame({"k": [3], "b": ["w"]}))
        out = prob.prob_equijoin(l, r, "k", "k").collect()
        assert len(out) == 1

    def test_lineage_tids_present(self, spark):
        l = prob.spark_with_tid(spark, pd.DataFrame({"k": [1]}))
        r = prob.spark_with_tid(spark, pd.DataFrame({"k": [1]}))
        out = prob.prob_equijoin(l, r, "k", "k")
        assert f"l_{TID}" in out.columns and f"r_{TID}" in out.columns

    def test_no_duplicate_pairs_from_multiple_overlaps(self, spark):
        l = prob.spark_with_tid(spark, pd.DataFrame({"k": [1]}))
        l = prob.ensure_cands(l, ["k"])
        l = _with_cands(l, 0, "k", [(1, 0.5, 1), (2, 0.5, 2)])
        r = prob.spark_with_tid(spark, pd.DataFrame({"k": [1]}))
        r = prob.ensure_cands(r, ["k"])
        r = _with_cands(r, 0, "k", [(1, 0.5, 1), (2, 0.5, 2)])
        assert prob.prob_equijoin(l, r, "k", "k").count() == 1


    def test_two_shared_values_join_once(self, spark):
        l = prob.ensure_cands(prob.spark_with_tid(spark, pd.DataFrame({"k": [1]})), ["k"])
        l = _with_cands(l, 0, "k", [(1, 0.4, 1), (5, 0.3, 2), (2, 0.3, 2)])
        r = prob.ensure_cands(prob.spark_with_tid(spark, pd.DataFrame({"k": [5]})), ["k"])
        r = _with_cands(r, 0, "k", [(5, 0.5, 1), (2, 0.25, 2), (7, 0.25, 2)])
        out = prob.prob_equijoin(l, r, "k", "k").collect()
        assert [(o[f"l_{TID}"], o[f"r_{TID}"]) for o in out] == [(0, 0)]
        assert "__jv" not in out[0].asDict()

    def test_keys_of_different_widths_join(self, spark):
        l = prob.spark_with_tid(spark, pd.DataFrame({"k": [1, 2]}))
        l = prob.ensure_cands(l.withColumn("k", F.col("k").cast("int")), ["k"])
        l = _with_cands(l, 0, "k", [(1, 0.5, 1), (3, 0.5, 2)])
        r = prob.ensure_cands(prob.spark_with_tid(spark, pd.DataFrame({"k": [3, 2**40]})), ["k"])
        r = _with_cands(r, 0, "k", [(3, 0.5, 1), (1, 0.5, 2)])
        out = prob.prob_equijoin(l, r, "k", "k")
        assert sorted((o[f"l_{TID}"], o[f"r_{TID}"]) for o in out.collect()) == [(0, 0)]

    def test_null_join_value_matches_nothing(self, spark):
        l = prob.spark_with_tid(spark, pd.DataFrame({"k": [None, 1.0]}))
        r = prob.spark_with_tid(spark, pd.DataFrame({"k": [None, 2.0]}))
        assert prob.prob_equijoin(l, r, "k", "k").count() == 0
        r = prob.ensure_cands(r, ["k"])
        r = _with_cands(r, 1, "k", [(2.0, 0.5, 1), (1.0, 0.5, 2)])
        out = prob.prob_equijoin(l, r, "k", "k").collect()
        assert [(o[f"l_{TID}"], o[f"r_{TID}"]) for o in out] == [(1, 1)]


class TestCanonical:
    def test_cands_canonical_sorted(self, simple):
        d = _with_cands(simple, 1, "k", [(9, 0.25, 2), (2, 0.75, 1)])
        out = prob.cands_canonical(d, "k")
        assert list(out.columns) == ["tid", "v", "p", "w"]
        assert out.iloc[0]["w"] == 1 and out.iloc[1]["v"] == 9

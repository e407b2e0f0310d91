"""FD violation detection and statistics tests (BigDansing-style group-by)."""
import duckdb
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import detect, prob, repair
from repro.core.constraints import FD
from repro.core.prob import TID, checked_col


class TestGroupStats:
    def test_matches_duckdb(self, spark, ssb_small):
        _, dirty, _ = ssb_small
        d = prob.spark_with_tid(spark, dirty)
        fd = FD(("orderkey",), "suppkey")
        got = detect.group_stats(d, fd).toPandas().sort_values("orderkey").reset_index(drop=True)
        con = duckdb.connect()
        con.register("d", dirty)
        exp = con.execute(
            "SELECT orderkey, count(*) AS group_size, count(DISTINCT suppkey) AS n_rhs "
            "FROM d GROUP BY orderkey ORDER BY orderkey"
        ).fetchdf()
        con.close()
        pd.testing.assert_frame_equal(
            got[["orderkey", "group_size", "n_rhs"]],
            exp,
            check_dtype=False,
        )

    def test_composite_lhs(self, spark):
        pdf = pd.DataFrame({"a": [1, 1, 1], "b": [2, 2, 3], "c": ["x", "y", "x"]})
        d = prob.spark_with_tid(spark, pdf)
        st = detect.group_stats(d, FD(("a", "b"), "c")).toPandas()
        assert len(st) == 2
        row = st[(st["a"] == 1) & (st["b"] == 2)].iloc[0]
        assert row["group_size"] == 2 and row["n_rhs"] == 2

    # the dirty-group summary is observed on the checkpoints of the rule's
    # tables when it is registered (repair.build_tables)
    def test_dirty_group_summary(self, spark, cities, phi1):
        s = repair.build_tables(cities, [phi1]).summary[phi1.name]
        assert (s.groups, s.rows, s.n_rhs) == (2, 5, 2.0)  # both zip groups violate
        # LA and NY occur with one zip each, San Francisco with two
        assert s.lhs_per_rhs == pytest.approx(4 / 3)

    def test_dirty_group_summary_clean(self, spark):
        d = prob.spark_with_tid(spark, pd.DataFrame({"a": [1, 1], "b": ["x", "x"]}))
        fd = FD(("a",), "b", name="ab")
        tables = repair.build_tables(d, [fd])
        s = tables.summary[fd.name]
        assert (s.groups, s.rows, s.n_rhs, s.lhs_per_rhs) == (0, 0, 0.0, 1.0)
        assert tables.unrepaired == {fd.name: 0}
        assert tables.world2[fd.name].count() == 0  # no rhs value of a violating group

    def test_dirty_group_summary_skips_null_lhs(self, spark):
        # the null-lhs group violates too, but no equi-join on the lhs meets it
        pdf = pd.DataFrame({"a": ["1", "1", None, None, "2"], "b": [1, 2, 3, 4, 5]})
        d = prob.spark_with_tid(spark, pdf)
        fd = FD(("a",), "b", name="ab")
        tables = repair.build_tables(d, [fd])
        s = tables.summary[fd.name]
        assert (s.groups, s.rows, s.n_rhs) == (1, 2, 2.0)
        assert tables.unrepaired == {fd.name: 2}
        # the mean is over every rhs value; world 2 keeps those of violating groups
        assert s.lhs_per_rhs == pytest.approx(3 / 5)
        assert sorted(r["b"] for r in tables.world2[fd.name].collect()) == [1, 2, 3, 4]


class TestViolatingGroups:
    def test_complete_violating_groups(self, cities, phi1):
        st = detect.group_stats(cities, phi1)
        vg = detect.violating_complete_groups(cities, phi1, st)
        assert sorted(r["zip"] for r in vg.collect()) == ["10001", "9001"]

    def test_partial_group_excluded(self, cities, phi1):
        st = detect.group_stats(cities, phi1)
        region = cities.where(F.col(TID) != 0)  # group 9001 incomplete
        vg = detect.violating_complete_groups(region, phi1, st)
        assert sorted(r["zip"] for r in vg.collect()) == ["10001"]

    def test_checked_groups_skipped(self, cities, phi1):
        marked = cities.withColumn(
            checked_col(phi1.name), F.col(TID).isin([0, 1, 2])
        )
        st = detect.group_stats(marked, phi1)
        vg = detect.violating_complete_groups(marked, phi1, st)
        # group 9001's rows are checked -> the *unchecked subset* of the
        # group is no longer complete, so only 10001 is repaired
        assert sorted(r["zip"] for r in vg.collect()) == ["10001"]

    def test_members_of(self, cities, phi1):
        st = detect.group_stats(cities, phi1)
        vg = detect.violating_complete_groups(cities, phi1, st).where(F.col("zip") == "9001")
        m = detect.members_of(cities, phi1, vg)
        assert sorted(r[TID] for r in m.collect()) == [0, 1, 2]

    def test_violating_tids_offline_scope(self, cities, phi1):
        rows = cities.withColumn(checked_col(phi1.name), F.lit(True))
        tids = repair.compute_repairs(rows, repair.build_tables(cities, [phi1]))
        assert sorted(r[TID] for r in tids.collect()) == [0, 1, 2, 3, 4]

    def test_clean_group_not_violating(self, spark):
        pdf = pd.DataFrame({"zip": ["1", "1", "2", "2"], "city": ["a", "a", "b", "c"]})
        d = prob.spark_with_tid(spark, pdf)
        fd = FD(("zip",), "city")
        st = detect.group_stats(d, fd)
        vg = detect.violating_complete_groups(d, fd, st)
        assert [r["zip"] for r in vg.collect()] == ["2"]


class TestDetectionOnProvenance:
    def test_detection_uses_original_values(self, cities, phi1):
        # even after a cell becomes probabilistic, detection still groups by
        # the provenance value (§4.3: rules execute over the original data)
        arr = F.array(
            F.struct(F.lit("X").alias("v"), F.lit(1.0).alias("p"), F.lit(1).alias("w"))
        )
        d = cities.withColumn(
            prob.cands_col("city"),
            F.when(F.col(TID) == 1, arr).otherwise(F.col(prob.cands_col("city"))),
        )
        st = detect.group_stats(d, phi1)
        vg = detect.violating_complete_groups(d, phi1, st)
        assert sorted(r["zip"] for r in vg.collect()) == ["10001", "9001"]

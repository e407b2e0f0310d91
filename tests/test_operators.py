"""Cleaning-operator tests: clean_σ / clean_⋈ and the probabilistic executor."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import detect, operators, prob, relax, repair
from repro.core.constraints import FD
from repro.core.planner import Aggregate, Filter, JoinSpec, Query, filter_side
from repro.core.prob import TID, checked_col
from repro.oracle import assert_equivalent


class TestApplyFilters:
    def test_conjunction(self, cities):
        out = operators.apply_filters(
            cities, [Filter("zip", "=", "9001"), Filter("city", "=", "Los Angeles")]
        )
        assert sorted(r[TID] for r in out.collect()) == [0, 2]

    def test_empty_filter_list_passthrough(self, cities):
        assert operators.apply_filters(cities, []).count() == 5


class TestCleanSigma:
    @pytest.fixture()
    def cleaned(self, cities, phi1):
        tables = repair.build_tables(cities, [phi1])
        updated, st = operators.clean_sigma(
            cities, [Filter("city", "=", "Los Angeles")], [phi1], tables, relax_mode="closure"
        )
        return updated, st

    def test_stats_counts(self, cleaned):
        _, st = cleaned
        assert st.answer == 2 and st.extras == 3 and st.repaired == 5

    def test_whole_cluster_repaired(self, cleaned):
        updated, _ = cleaned
        c = prob.cands_canonical(updated, "city")
        assert set(c["tid"]) == {0, 1, 2, 3, 4}

    def test_all_checked(self, cleaned, phi1):
        updated, _ = cleaned
        assert updated.where(F.col(checked_col(phi1.name))).count() == 5

    def test_second_pass_no_new_repairs(self, cleaned, phi1):
        updated, _ = cleaned
        tables = repair.build_tables(updated, [phi1])
        updated2, st2 = operators.clean_sigma(
            updated, [Filter("city", "=", "New York")], [phi1], tables, relax_mode="closure"
        )
        assert st2.repaired == 0
        pd.testing.assert_frame_equal(
            prob.cands_canonical(updated, "city"), prob.cands_canonical(updated2, "city")
        )


def _tid_set(df):
    return {r[TID] for r in df.select(TID).collect()}


class TestCleanSigmaTwoRules:
    """clean_σ's counts and checked flags equal what detect computes directly."""

    FA = FD(("zip",), "state", name="fa")
    FB = FD(("city",), "state", name="fb")

    @pytest.fixture()
    def two_fd(self, spark):
        # fa: z1, z2, z3 violate; fb: LA and NY violate
        pdf = pd.DataFrame(
            {
                "zip": ["z1", "z1", "z2", "z2", "z1", "z3", "z3", "z4"],
                "city": ["LA", "LA", "SF", "LA", "LA", "NY", "NY", "SD"],
                "state": ["CA", "CA", "CA", "WA", "NV", "NY", "NJ", "CA"],
            }
        )
        d = prob.ensure_cands(prob.spark_with_tid(spark, pdf), ["zip", "city", "state"])
        d = prob.ensure_checked(d, [self.FA.name, self.FB.name]).localCheckpoint(eager=True)
        return d, repair.build_tables(d, [self.FA, self.FB])

    @pytest.mark.parametrize(
        "filters",
        [[Filter("zip", "=", "z2")], [Filter("state", "=", "NJ")], [Filter("city", "=", "SD")]],
    )
    def test_stats_and_flags_match_detect(self, two_fd, filters):
        d, tables = two_fd
        stats = tables.stats
        fds = [self.FA, self.FB]
        answer = operators.apply_filters(d, filters)
        updated, st = operators.clean_sigma(d, filters, fds, tables)

        region, iters = answer, 0
        for fd in fds:
            pred, it, _whole = relax.relax_fd(d, answer, fd, filter_side=filter_side(fd, filters))
            region, iters = region.unionByName(d.where(pred)), max(iters, it)
        region = region.dropDuplicates([TID]).localCheckpoint(eager=True)
        dirty = set()
        for fd in fds:
            vg = detect.violating_complete_groups(region, fd, stats[fd.name])
            dirty |= _tid_set(detect.members_of(region, fd, vg))
        n_answer = answer.count()
        assert st == operators.CleanStats(
            answer=n_answer, extras=region.count() - n_answer, repaired=len(dirty),
            relax_iters=iters,
        )
        for fd in fds:
            cg = detect.complete_groups(region, fd, stats[fd.name])
            checked = _tid_set(detect.members_of(region, fd, cg))
            assert _tid_set(updated.where(F.col(checked_col(fd.name)))) == checked
        assert set(prob.cands_canonical(updated, "state")["tid"]) == dirty

    @pytest.mark.parametrize("relax_mode", ["lemma", "closure"])
    def test_empty_answer(self, two_fd, relax_mode):
        d, tables = two_fd
        filters = [Filter("zip", "=", "nowhere")]
        updated, st = operators.clean_sigma(
            d, filters, [self.FA, self.FB], tables, relax_mode=relax_mode
        )
        assert (st.answer, st.extras, st.repaired) == (0, 0, 0)
        if relax_mode == "closure":  # the Lemma budget still counts its rounds
            assert st == operators.CleanStats()
        assert sorted(updated.collect(), key=lambda r: r[TID]) == sorted(
            d.collect(), key=lambda r: r[TID]
        )


class TestCleanJoin:
    """Example 6: join over tables with violations on the join key."""

    @pytest.fixture()
    def example6(self, spark):
        cities = pd.DataFrame(
            {"zip": ["9001", "9001", "10001"],
             "city": ["Los Angeles", "San Francisco", "San Francisco"]}
        )
        emp = pd.DataFrame(
            {"name": ["Peter", "Mary", "Jon"],
             "zip": ["9001", "10001", "10002"],
             "phone": ["23456", "12345", "12345"]}
        )
        c = prob.spark_with_tid(spark, cities)
        e = prob.spark_with_tid(spark, emp)
        phi1 = FD(("zip",), "city", name="phi1")
        phi2 = FD(("phone",), "zip", name="phi2")
        c = prob.ensure_cands(c, ["zip", "city"])
        c = prob.ensure_checked(c, [phi1.name]).localCheckpoint(eager=True)
        e = prob.ensure_cands(e, ["phone", "zip"])
        e = prob.ensure_checked(e, [phi2.name]).localCheckpoint(eager=True)
        q = Query(
            "cities",
            [Filter("city", "=", "Los Angeles")],
            join=JoinSpec("emp", "zip", "zip"),
        )
        return operators.clean_join(
            c, e, q, [phi1], [phi2],
            repair.build_tables(c, [phi1]), repair.build_tables(e, [phi2]),
            relax_mode="closure",
        )

    def test_both_tables_cleaned(self, example6):
        cu, eu, joined, lst, rst = example6
        assert prob.cands_canonical(cu, "zip")["tid"].nunique() == 2  # zip 9001 group
        # phi2: phones 12345 share zip {10001, 10002} — both rows repaired
        assert prob.cands_canonical(eu, "zip")["tid"].nunique() == 2

    def test_join_result_includes_probabilistic_matches(self, example6):
        # Table 4e: t2 of Cities (zip cands {9001,10001}) matches Mary
        # (zip cands {10001,10002} world included) and Peter (9001)
        _, _, joined, _, _ = example6
        names = {(r["l_" + TID], r["r_name"]) for r in joined.collect()}
        assert (0, "Peter") in names  # clean LA row joins Peter
        assert (1, "Peter") in names  # SF row candidate 9001
        assert (1, "Mary") in names  # SF row candidate 10001 × Mary's 10001

    def test_lemma5_rejoin_stable(self, example6):
        # re-evaluating the join over the updated tables adds nothing new
        cu, eu, joined, _, _ = example6
        q = Query("cities", [Filter("city", "=", "Los Angeles")],
                  join=JoinSpec("emp", "zip", "zip"))
        lq = operators.apply_filters(cu, q.filters)
        rq = operators.apply_filters(eu, [])
        again = prob.prob_equijoin(lq, rq, "zip", "zip")
        a = {(r["l_" + TID], r["r_" + TID]) for r in joined.collect()}
        b = {(r["l_" + TID], r["r_" + TID]) for r in again.collect()}
        assert a == b


class TestAggregateAndRunQuery:
    def test_run_query_matches_duckdb_on_clean_data(self, spark):
        li = pd.DataFrame({"k": [1, 1, 2, 2, 3], "v": [10.0, 20.0, 30.0, 40.0, 50.0]})
        d = prob.spark_with_tid(spark, li)
        q = Query("t", [Filter("k", "<", 3)], group_by=["k"],
                  aggs=[Aggregate("sum", "v", "sv")])
        out = operators.run_query({"t": d}, q)
        assert_equivalent(out, "SELECT k, sum(v) AS sv FROM t WHERE k < 3 GROUP BY k", t=li)

    def test_run_query_join_matches_duckdb(self, spark):
        l = pd.DataFrame({"k": [1, 2, 2], "a": [1.0, 2.0, 3.0]})
        r = pd.DataFrame({"k": [2, 3], "b": [9.0, 8.0]})
        ld = prob.spark_with_tid(spark, l)
        rd = prob.spark_with_tid(spark, r)
        q = Query("l", join=JoinSpec("r", "k", "k"),
                  aggs=[Aggregate("count", "*", "c")])
        out = operators.run_query({"l": ld, "r": rd}, q)
        assert_equivalent(out, "SELECT count(*) AS c FROM l JOIN r USING (k)", l=l, r=r)

    def test_global_aggregate(self, spark):
        d = prob.spark_with_tid(spark, pd.DataFrame({"v": [1.0, 2.0, 3.0]}))
        q = Query("t", aggs=[Aggregate("avg", "v", "av")])
        got = operators.run_query({"t": d}, q).first()["av"]
        assert got == pytest.approx(2.0)

    def test_projection(self, spark):
        d = prob.spark_with_tid(spark, pd.DataFrame({"a": [1], "b": [2]}))
        q = Query("t", project=["b"])
        assert operators.run_query({"t": d}, q).columns == ["b"]

    def test_projection_keeps_cands(self, spark):
        d = prob.spark_with_tid(spark, pd.DataFrame({"a": [1], "b": [2]}))
        d = prob.ensure_cands(d, ["b"])
        q = Query("t", project=["a", "b"])
        assert operators.run_query({"t": d}, q).columns == ["a", "b", prob.cands_col("b")]

    def test_join_projection_keeps_lineage_and_cands(self, spark):
        l = prob.ensure_cands(prob.spark_with_tid(spark, pd.DataFrame({"k": [1, 2]})), ["k"])
        r = prob.spark_with_tid(spark, pd.DataFrame({"k": [2], "b": [9.0]}))
        q = Query("l", project=["k"], join=JoinSpec("r", "k", "k"))
        out = operators.run_query({"l": l, "r": r}, q)
        assert out.columns == [f"l_{TID}", f"r_{TID}", "l_k", "l_k__cands"]
        assert [tuple(x) for x in out.select(f"l_{TID}", f"r_{TID}").collect()] == [(1, 0)]

    def test_join_projection_resolves_right_attribute(self, spark):
        l = prob.spark_with_tid(spark, pd.DataFrame({"k": [1, 2]}))
        r = prob.ensure_cands(prob.spark_with_tid(spark, pd.DataFrame({"k": [2], "b": [9.0]})), ["b"])
        q = Query("l", project=["b"], join=JoinSpec("r", "k", "k"))
        out = operators.run_query({"l": l, "r": r}, q)
        assert out.columns == [f"l_{TID}", f"r_{TID}", "r_b", "r_b__cands"]
        assert out.first()["r_b"] == 9.0

    def test_projection_of_unknown_attribute_raises(self, spark):
        l = prob.spark_with_tid(spark, pd.DataFrame({"k": [1, 2]}))
        r = prob.spark_with_tid(spark, pd.DataFrame({"k": [2], "b": [9.0]}))
        for q in (Query("l", project=["nope"], join=JoinSpec("r", "k", "k")),
                  Query("l", project=["nope"])):
            with pytest.raises(ValueError, match="'nope'"):
                operators.run_query({"l": l, "r": r}, q)

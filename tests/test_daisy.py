"""DaisySession integration tests: gradual cleaning, strategy switching,
incremental rule arrival, joins and aggregates (paper §6)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import prob
from repro.core.constraints import DC, FD, Atom
from repro.core.daisy import DaisySession
from repro.core.offline import offline_clean
from repro.core.planner import Aggregate, Filter, JoinSpec, Query
from repro.core.prob import TID, checked_col
from repro.datagen import ssb
from repro.datagen.errors import inject_fd_errors

PHI = FD(("orderkey",), "suppkey", name="phi")


@pytest.fixture(scope="module")
def small_session_inputs(spark, ssb_small):
    _, dirty, _ = ssb_small
    return prob.spark_with_tid(spark, dirty)


def _fresh(spark, d, **kw):
    return DaisySession(spark, {"lineorder": d}, {"lineorder": [PHI]}, **kw)


class TestSPFlow:
    @pytest.fixture(scope="class")
    def run(self, spark, small_session_inputs):
        sess = _fresh(spark, small_session_inputs, use_cost_model=False)
        results = []
        for lo, hi in [(1, 7), (8, 14), (15, 20)]:
            r = sess.execute(Query("lineorder", [Filter("suppkey", "between", lo, hi)]))
            results.append(r.count())
        return sess, results

    def test_gradual_cleaning_monotone(self, run):
        sess, _ = run
        checked = sess.table("lineorder").where(F.col(checked_col(PHI.name))).count()
        assert checked == sess.table("lineorder").count()  # workload covered all

    def test_records_kept(self, run):
        sess, _ = run
        assert len(sess.records) == 3
        assert all(r.answer > 0 for r in sess.records)

    def test_lemma_iteration_budget(self, run):
        sess, _ = run
        assert all(r.relax_iters <= 1 for r in sess.records)  # rhs filters

    def test_no_rerepair_on_repeat(self, spark, run):
        sess, _ = run
        r = sess.execute(Query("lineorder", [Filter("suppkey", "between", 1, 7)]))
        r.count()
        assert sess.records[-1].repaired == 0

    def test_results_probabilistic(self, run):
        sess, _ = run
        c = prob.cands_canonical(sess.table("lineorder"), "suppkey")
        assert len(c) > 0

    def test_plan_reports_incremental_then_full(self, spark, small_session_inputs):
        # a fresh session: the flow above repairs every violating group, so
        # its table is fully cleaned already
        sess = _fresh(spark, small_session_inputs, use_cost_model=False)
        q = Query("lineorder", [Filter("suppkey", "=", 1)])
        assert any(o.op == "clean_sigma" and o.placement == "after" for o in sess.plan(q))
        sess.fully_cleaned.add("lineorder")
        assert any(o.op == "clean_sigma" and o.placement == "before" for o in sess.plan(q))
        sess.fully_cleaned.discard("lineorder")


class TestIrrelevantQueries:
    def test_rule_free_attr_skips_cleaning(self, spark, small_session_inputs):
        # §4.1: the rule matters iff (X ∪ Y) ∩ (P ∪ W) ≠ ∅ — a query that
        # filters and projects only rule-free attributes skips cleaning
        sess = _fresh(spark, small_session_inputs, use_cost_model=False)
        r = sess.execute(
            Query("lineorder", [Filter("quantity", "=", 5)], project=["quantity"])
        )
        r.count()
        assert sess.records[0].repaired == 0
        assert sess.records[0].strategy == "no-rule"


class TestPlanDrivesExecution:
    """``execute`` runs the plan ``plan`` shows, on SP and join queries."""

    @staticmethod
    def _dc_table(spark, n=300, seed=3):
        import numpy as np

        from repro.datagen.errors import inject_dc_errors, monotone_discount

        g = np.random.default_rng(seed)
        pdf = pd.DataFrame({"extendedprice": (g.random(n) * 5000).round(0)})
        pdf["discount"] = monotone_discount(pdf["extendedprice"].to_numpy(), levels=15)
        dirty, _ = inject_dc_errors(pdf, "extendedprice", "discount", frac_rows=0.03, seed=4)
        dirty["k"] = np.arange(n) % 10
        dirty["v"] = dirty["k"] % 3
        return prob.spark_with_tid(spark, dirty)

    DCR = DC((Atom("extendedprice", "<"), Atom("discount", ">")), name="dcr")

    def test_select_star_plan_cleans_rule_free_filter(self, spark, small_session_inputs):
        # SELECT * accesses every attribute, so φ is cleaned even though the
        # query filters only quantity — and the plan says so
        sess = _fresh(spark, small_session_inputs, use_cost_model=False)
        q = Query("lineorder", [Filter("quantity", "=", 5)])
        assert any(o.op == "clean_sigma" and o.rule == PHI.name for o in sess.plan(q))
        sess.execute(q).count()
        assert sess.records[-1].strategy == "incremental"

    def test_join_runs_left_dc(self, spark):
        t = self._dc_table(spark)
        s = prob.spark_with_tid(spark, pd.DataFrame({"k": list(range(10)), "name": list("abcdefghij")}))
        sess = DaisySession(
            spark, {"t": t, "s": s}, {"t": [self.DCR]}, use_cost_model=False, dc_partitions=16
        )
        q = Query("t", [Filter("extendedprice", "between", 1000, 2000)],
                  join=JoinSpec("s", "k", "k"))
        assert any(o.op == "clean_dc" and o.table == "t" for o in sess.plan(q))
        sess.execute(q).count()
        assert sess.records[-1].dc_mode in ("partial", "full")
        assert "t" in sess.dc_repairs

    def test_projected_join_answer_is_run_query(self, spark):
        from repro.core import operators

        lo = ssb.lineorder_pdf(n_rows=300, n_orderkeys=30, n_suppkeys=8)
        lo_d, _ = inject_fd_errors(lo, ("orderkey",), "suppkey", frac_rows=0.15, seed=9)
        sup = ssb.supplier_pdf(n_suppkeys=8, rows_per_supp=2)
        sess = DaisySession(
            spark,
            {"lineorder": prob.spark_with_tid(spark, lo_d),
             "supplier": prob.spark_with_tid(spark, sup)},
            {"lineorder": [PHI]},
            use_cost_model=False,
        )
        q = Query("lineorder", [Filter("suppkey", "between", 1, 4)],
                  project=["suppkey", "quantity"],
                  join=JoinSpec("supplier", "suppkey", "suppkey"))
        got = sess.execute(q)
        exp = operators.run_query(sess.tables, q)
        assert got.columns == exp.columns
        pairs = [f"l_{TID}", f"r_{TID}"]
        assert {tuple(r) for r in got.select(*pairs).collect()} == {
            tuple(r) for r in exp.select(*pairs).collect()
        }

    def test_dc_cleaned_after_full_clean(self, spark):
        t = self._dc_table(spark)
        fd = FD(("k",), "v", name="kv")
        sess = DaisySession(
            spark, {"t": t}, {"t": [fd, self.DCR]}, use_cost_model=False, dc_partitions=16
        )
        sess.full_clean("t")
        q = Query("t", [Filter("extendedprice", "between", 1000, 2000)])
        plan = sess.plan(q)
        assert ("clean_dc", "after") in [(o.op, o.placement) for o in plan]
        assert ("clean_sigma", "before") in [(o.op, o.placement) for o in plan]
        sess.execute(q).count()
        assert sess.records[-1].dc_mode in ("partial", "full")
        assert sess.records[-1].strategy == "clean"


class TestProjectionAndAggregates:
    def test_projection_carries_cands(self, spark, small_session_inputs):
        sess = _fresh(spark, small_session_inputs, use_cost_model=False)
        r = sess.execute(Query("lineorder", [Filter("suppkey", "=", 3)], project=["suppkey"]))
        assert prob.cands_col("suppkey") in r.columns

    def test_group_by_aggregate_after_cleaning(self, spark, small_session_inputs):
        sess = _fresh(spark, small_session_inputs, use_cost_model=False)
        q = Query(
            "lineorder",
            [Filter("suppkey", "between", 1, 4)],
            group_by=["suppkey"],
            aggs=[Aggregate("count", "*", "c")],
        )
        out = sess.execute(q).toPandas()
        assert set(out.columns) == {"suppkey", "c"}
        assert (out["c"] > 0).all()


class TestCostModelSwitch:
    def test_switch_fires_and_finishes_cleaning(self, spark, ssb_small):
        _, dirty, _ = ssb_small
        d = prob.spark_with_tid(spark, dirty)
        sess = _fresh(spark, d, use_cost_model=True, cost_safety=1e-6)
        sess.execute(Query("lineorder", [Filter("suppkey", "=", 1)])).count()
        assert sess.switched_at == 1
        assert "lineorder" in sess.fully_cleaned
        # after the switch the whole table is checked and equals offline
        t = sess.table("lineorder")
        assert t.where(~F.col(checked_col(PHI.name))).count() == 0
        off = offline_clean(d, [PHI], mode="vectorized")
        pd.testing.assert_frame_equal(
            prob.cands_canonical(t, "suppkey"), prob.cands_canonical(off.table, "suppkey")
        )

    def test_p_is_the_larger_candidate_domain(self, spark, ssb_small):
        # §5.2.3's p: avg distinct rhs per violating lhs group, or avg
        # distinct lhs per rhs value (the world-2 table), whichever is larger
        _, dirty, _ = ssb_small
        sess = _fresh(spark, prob.spark_with_tid(spark, dirty), use_cost_model=True)
        n_rhs = dirty.groupby("orderkey")["suppkey"].nunique()
        n_lhs = dirty.groupby("suppkey")["orderkey"].nunique()
        assert n_lhs.mean() > n_rhs[n_rhs > 1].mean()
        assert sess.cost["lineorder"].p == pytest.approx(n_lhs.mean(), rel=1e-12)

    def test_no_switch_with_huge_safety(self, spark, small_session_inputs):
        sess = _fresh(spark, small_session_inputs, use_cost_model=True, cost_safety=1e9)
        sess.execute(Query("lineorder", [Filter("suppkey", "=", 1)])).count()
        assert sess.switched_at is None

    def test_post_switch_queries_do_no_cleaning(self, spark, ssb_small):
        _, dirty, _ = ssb_small
        d = prob.spark_with_tid(spark, dirty)
        sess = _fresh(spark, d, use_cost_model=True, cost_safety=1e-6)
        sess.execute(Query("lineorder", [Filter("suppkey", "=", 1)])).count()
        sess.execute(Query("lineorder", [Filter("suppkey", "=", 2)])).count()
        assert sess.records[1].repaired == 0 and sess.records[1].strategy == "clean"


class TestCostModelCountsItsTable:
    """The cost model of a query's table records only that table's inputs."""

    def test_join_records_the_left_input_only(self, spark, ssb_small):
        _, dirty, _ = ssb_small
        sup, _ = inject_fd_errors(
            ssb.supplier_pdf(n_suppkeys=20, rows_per_supp=3), ("address",), "suppkey",
            frac_rows=0.3, seed=19,
        )
        psi = FD(("address",), "suppkey", name="psi")
        f = Filter("orderkey", "between", 1, 20)

        def session(tables):
            return DaisySession(
                spark, {t: prob.spark_with_tid(spark, pdf) for t, pdf in tables.items()},
                {"lineorder": [PHI], "supplier": [psi]}, use_cost_model=True, cost_safety=1e9,
            )

        # the join's lineorder input is this select, cleaned on the same table
        alone = session({"lineorder": dirty})
        alone.execute(Query("lineorder", [f])).count()
        sess = session({"lineorder": dirty, "supplier": sup})
        sess.execute(
            Query("lineorder", [f], join=JoinSpec("supplier", "suppkey", "suppkey"))
        ).count()
        got = sess.cost["lineorder"].history[-1]
        assert got.eps_i == alone.records[-1].repaired > 0
        assert sess.records[-1].repaired > got.eps_i  # the supplier's repairs too


class TestCostModelEpsOverlappingRules:
    """ε counts rows per rule, like the unrepaired counts, with rules sharing rows."""

    PHI_O = FD(("orderkey",), "suppkey", name="phi_o")
    PHI_C = FD(("custkey",), "suppkey", name="phi_c")
    # phi_o: groups 1 and 2 violate; phi_c: groups 10 and 13 violate
    PDF = pd.DataFrame({
        "orderkey": [1, 1, 2, 2, 3, 4], "custkey": [10, 10, 11, 12, 13, 13],
        "suppkey": ["a", "b", "c", "d", "e", "f"],
    })
    FILTERS = [Filter("orderkey", "=", 1), Filter("orderkey", "=", 2), Filter("custkey", "=", 13)]

    def _session(self, spark, fds):
        return DaisySession(
            spark, {"t": prob.spark_with_tid(spark, self.PDF)}, {"t": fds},
            use_cost_model=True, cost_safety=1e9,
        )

    @staticmethod
    def _eps_matches(sess):
        assert sess.cost["t"].eps_remaining == sum(sess.unrepaired["t"].values())

    def test_eps_remaining_is_the_unrepaired_rows(self, spark):
        sess = self._session(spark, [self.PHI_O, self.PHI_C])
        self._eps_matches(sess)
        for f in self.FILTERS:
            sess.execute(Query("t", [f])).count()
            self._eps_matches(sess)
        assert "t" in sess.fully_cleaned and sess.switched_at is None

    def test_rule_added_later_does_not_recount_repaired_rows(self, spark):
        sess = self._session(spark, [self.PHI_O])
        sess.execute(Query("t", [self.FILTERS[0]])).count()
        sess.add_rules("t", [self.PHI_C])
        assert sess.unrepaired["t"] == {"phi_o": 2, "phi_c": 4}
        self._eps_matches(sess)
        for f in self.FILTERS[1:]:
            sess.execute(Query("t", [f])).count()
            self._eps_matches(sess)


class TestAddRules:
    def test_incremental_rule_arrival_matches_joint_offline(self, spark):
        pdf = pd.DataFrame(
            {
                "zip": ["z1", "z1", "z2", "z2", "z1"],
                "city": ["LA", "LA", "SF", "LA", "LA"],
                "state": ["CA", "CA", "CA", "WA", "NV"],
            }
        )
        fa = FD(("zip",), "state", name="phi_a")
        fb = FD(("city",), "state", name="phi_b")
        d = prob.spark_with_tid(spark, pdf)
        sess = DaisySession(spark, {"t": d}, {"t": [fa]}, use_cost_model=False)
        sess.execute(Query("t", [])).count()  # cleans under phi_a
        sess.add_rules("t", [fb])
        sess.execute(Query("t", [])).count()  # re-merges under phi_a + phi_b
        off = offline_clean(prob.spark_with_tid(spark, pdf), [fa, fb], mode="vectorized")
        got = prob.cands_canonical(sess.table("t"), "state")
        exp = prob.cands_canonical(off.table, "state")
        pd.testing.assert_frame_equal(
            got[got.w == 1].reset_index(drop=True), exp[exp.w == 1].reset_index(drop=True)
        )


class TestCheckedAnswerRelaxesIntoUncheckedGroups:
    """clean_σ's no-change exit reads the relaxed region, not the answer."""

    def test_answers_match_offline(self, spark):
        from repro.core import operators

        # φ groups G1 = (1,a), (1,b) and G2 = (2,b), (2,c)
        pdf = pd.DataFrame({"orderkey": [1, 1, 2, 2], "suppkey": ["a", "b", "b", "c"]})
        sess = _fresh(spark, prob.spark_with_tid(spark, pdf), use_cost_model=False)
        off = offline_clean(prob.spark_with_tid(spark, pdf), [PHI], mode="vectorized").table
        # the second answer, (1,a) and (1,b), is checked by the first query;
        # it relaxes into G2, whose repair gives (2,b) the orderkey candidate 1
        for f in (Filter("suppkey", "=", "a"), Filter("orderkey", "=", 1)):
            q = Query("lineorder", [f])
            got = sess.execute(q)
            exp = operators.run_query({"lineorder": off}, q)
            tids = sorted(r[TID] for r in got.select(TID).collect())
            assert tids == sorted(r[TID] for r in exp.select(TID).collect())
            for attr in ("orderkey", "suppkey"):
                pd.testing.assert_frame_equal(
                    prob.cands_canonical(got, attr), prob.cands_canonical(exp, attr)
                )
        assert tids == [0, 1, 2]
        assert [r.repaired for r in sess.records] == [2, 2]


class TestNullLhsGroup:
    """A violating group with a null lhs is never repaired, so it is not counted."""

    def test_unfiltered_query_cleans_the_table(self, spark):
        from repro.core import operators

        pdf = pd.DataFrame({"orderkey": ["1", "1", None, None, "2"], "suppkey": [1, 2, 3, 4, 5]})
        sess = _fresh(spark, prob.spark_with_tid(spark, pdf), use_cost_model=False)
        assert sess.unrepaired["lineorder"] == {PHI.name: 2}
        off = offline_clean(prob.spark_with_tid(spark, pdf), [PHI], mode="vectorized").table
        q = Query("lineorder")
        got = sess.execute(q)
        assert "lineorder" in sess.fully_cleaned
        exp = operators.run_query({"lineorder": off}, q)
        assert sorted(r[TID] for r in got.select(TID).collect()) == list(range(5))
        assert sorted(r[TID] for r in exp.select(TID).collect()) == list(range(5))
        for attr in ("orderkey", "suppkey"):
            pd.testing.assert_frame_equal(
                prob.cands_canonical(got, attr), prob.cands_canonical(exp, attr)
            )
        assert sess.records[0].repaired == 2


class TestJoinQueries:
    def test_join_cleans_both_sides(self, spark):
        lo = ssb.lineorder_pdf(n_rows=600, n_orderkeys=60, n_suppkeys=12)
        lo_d, _ = inject_fd_errors(lo, ("orderkey",), "suppkey", frac_rows=0.15, seed=9)
        sup = ssb.supplier_pdf(n_suppkeys=12, rows_per_supp=3)
        sup_d, _ = inject_fd_errors(sup, ("address",), "suppkey", frac_rows=0.4, seed=10)
        psi = FD(("address",), "suppkey", name="psi")
        l = prob.spark_with_tid(spark, lo_d)
        s = prob.spark_with_tid(spark, sup_d)
        sess = DaisySession(
            spark,
            {"lineorder": l, "supplier": s},
            {"lineorder": [PHI], "supplier": [psi]},
            use_cost_model=False,
        )
        q = Query(
            "lineorder",
            [Filter("suppkey", "between", 1, 6)],
            join=JoinSpec("supplier", "suppkey", "suppkey"),
        )
        out = sess.execute(q)
        assert out.count() > 0
        assert prob.cands_canonical(sess.table("lineorder"), "suppkey")["tid"].nunique() > 0
        assert prob.cands_canonical(sess.table("supplier"), "suppkey")["tid"].nunique() > 0

    def test_dc_rule_sp_query(self, spark):
        import numpy as np

        from repro.datagen.errors import inject_dc_errors, monotone_discount

        g = np.random.default_rng(3)
        pdf = pd.DataFrame({"extendedprice": (g.random(300) * 5000).round(0)})
        pdf["discount"] = monotone_discount(pdf["extendedprice"].to_numpy(), levels=15)
        dirty, _ = inject_dc_errors(pdf, "extendedprice", "discount", frac_rows=0.03, seed=4)
        dc = DC((Atom("extendedprice", "<"), Atom("discount", ">")), name="dcr")
        d = prob.spark_with_tid(spark, dirty)
        sess = DaisySession(
            spark, {"t": d}, {"t": [dc]}, use_cost_model=False, dc_partitions=16
        )
        r = sess.execute(Query("t", [Filter("extendedprice", "between", 1000, 2000)]))
        r.count()
        assert sess.records[0].dc_mode in ("partial", "full")
        assert "t" in sess.dc_repairs


PRICE = "extendedprice"


class TestDCFilterBuckets:
    """Inequality filters on the DC's bucketing attribute narrow the matrix."""

    @pytest.fixture(scope="class")
    def table(self, spark):
        import numpy as np

        from repro.datagen.errors import inject_dc_errors, monotone_discount

        g = np.random.default_rng(3)
        pdf = pd.DataFrame({"extendedprice": (g.random(300) * 5000).round(0)})
        pdf["discount"] = monotone_discount(pdf["extendedprice"].to_numpy(), levels=15)
        dirty, _ = inject_dc_errors(pdf, "extendedprice", "discount", frac_rows=0.03, seed=4)
        return prob.spark_with_tid(spark, dirty)

    def _run(self, spark, table, f):
        dc = DC((Atom("extendedprice", "<"), Atom("discount", ">")), name="dcr")
        sess = DaisySession(
            spark, {"t": table}, {"t": [dc]}, use_cost_model=False, dc_partitions=16,
            accuracy_threshold=0.0,
        )
        sess.execute(Query("t", [f])).count()
        rows = sess.dc_repairs["t"].toPandas().sort_values(["tid", "attr", "lo", "hi"])
        return sess.theta[("t", "dcr")].pairs_scanned, rows.reset_index(drop=True)

    @pytest.mark.parametrize(
        "f, same",
        [
            (Filter(PRICE, "<=", 2000.0), Filter(PRICE, "between", 0.0, 2000.0)),
            (Filter(PRICE, ">", 3000.0), Filter(PRICE, "between", 3000.0, 5000.0)),
        ],
    )
    def test_inequality_scans_like_between(self, spark, table, f, same):
        pairs, rows = self._run(spark, table, f)
        pairs_b, rows_b = self._run(spark, table, same)
        all_pairs, _ = self._run(spark, table, Filter("discount", ">=", 0.0))
        assert pairs == pairs_b < all_pairs
        pd.testing.assert_frame_equal(rows, rows_b)

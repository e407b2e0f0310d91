"""Probabilistic repair tests: Table 2b/3 exactness, oracle-checked
conditional probabilities, the Lemma 4 multi-rule merge, and the
value-keyed candidate tables against a tuple-set oracle."""
import warnings

import duckdb
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import prob, repair, update
from repro.core.constraints import FD
from repro.core.daisy import DaisySession
from repro.core.planner import Filter, Query
from repro.core.prob import TID, checked_col


def _fixes(df, fds):
    """The repairs of every member of a violating group (test helper)."""
    return repair.repair_all(df, repair.build_tables(df, fds))


@pytest.fixture()
def repaired_cities(cities, phi1):
    fixes = _fixes(cities, [phi1])
    return update.apply_repairs(cities.withColumn(checked_col(phi1.name), F.lit(True)), fixes)


class TestTable2b:
    """Exact reproduction of the paper's Tables 2b / 3."""

    def test_city_world1_probabilities(self, repaired_cities):
        c = prob.cands_canonical(repaired_cities, "city")
        t1w1 = c[(c.tid == 1) & (c.w == 1)].set_index("v")["p"]
        assert t1w1["Los Angeles"] == pytest.approx(2 / 3)
        assert t1w1["San Francisco"] == pytest.approx(1 / 3)

    def test_zip_world2_candidates(self, repaired_cities):
        z = prob.cands_canonical(repaired_cities, "zip")
        t1w2 = z[(z.tid == 1) & (z.w == 2)].set_index("v")["p"]
        assert t1w2["9001"] == pytest.approx(0.5)
        assert t1w2["10001"] == pytest.approx(0.5)

    def test_keep_entries(self, repaired_cities):
        z = prob.cands_canonical(repaired_cities, "zip")
        keep = z[(z.tid == 1) & (z.w == 1)]
        assert keep["v"].tolist() == ["9001"] and keep["p"].iloc[0] == 1.0
        c = prob.cands_canonical(repaired_cities, "city")
        keep_c = c[(c.tid == 1) & (c.w == 2)]
        assert keep_c["v"].tolist() == ["San Francisco"]

    def test_group_10001(self, repaired_cities):
        c = prob.cands_canonical(repaired_cities, "city")
        t3w1 = c[(c.tid == 3) & (c.w == 1)].set_index("v")["p"]
        assert t3w1["San Francisco"] == pytest.approx(0.5)
        assert t3w1["New York"] == pytest.approx(0.5)

    def test_example3_qualification(self, repaired_cities):
        # Table 3: zip = 9001 qualifies four tuples (tid 3 through world 2)
        q = repaired_cities.where(prob.qualifies(repaired_cities, "zip", "=", "9001"))
        assert sorted(r[TID] for r in q.select(TID).collect()) == [0, 1, 2, 3]

    def test_all_group_members_probabilistic(self, repaired_cities):
        # every member of a violating group becomes probabilistic (Table 2b)
        c = prob.cands_canonical(repaired_cities, "city")
        assert set(c["tid"]) == {0, 1, 2, 3, 4}


class TestOracleProbabilities:
    def test_world1_equals_conditional_frequency(self, spark, ssb_small):
        _, dirty, _ = ssb_small
        d = prob.spark_with_tid(spark, dirty)
        d = prob.ensure_cands(d, ["orderkey", "suppkey"])
        fd = FD(("orderkey",), "suppkey", name="phi")
        fixes = _fixes(d, [fd])
        out = update.apply_repairs(d, fixes)
        got = prob.cands_canonical(out, "suppkey")
        got = got[got.w == 1].merge(
            prob.spark_with_tid(spark, dirty).select(TID, "orderkey").toPandas(),
            left_on="tid",
            right_on=TID,
        )
        con = duckdb.connect()
        con.register("d", dirty)
        exp = con.execute(
            """
            SELECT orderkey, suppkey AS v,
                   count(*)::DOUBLE / sum(count(*)) OVER (PARTITION BY orderkey) AS p
            FROM d GROUP BY orderkey, suppkey
            """
        ).fetchdf()
        con.close()
        m = got.merge(exp, on=["orderkey", "v"], suffixes=("", "_exp"))
        assert len(m) == len(got)
        # cands_canonical rounds p to 6 decimals
        assert (m["p"] - m["p_exp"]).abs().max() < 1e-5

    def test_world2_equals_lhs_given_rhs(self, repaired_cities, cities_pdf):
        z = prob.cands_canonical(repaired_cities, "zip")
        # tuple 4 (10001, New York): P(zip | city=NY) = {10001: 1.0}
        t4 = z[(z.tid == 4) & (z.w == 2)]
        assert t4["v"].tolist() == ["10001"] and t4["p"].iloc[0] == 1.0


class TestMultiRuleMerge:
    """§4.3: P(X | Y ∪ Z) and Lemma 4 commutativity."""

    @pytest.fixture()
    def two_rule_df(self, spark):
        # state determined by zip (phi_a) and by city (phi_b); one row dirty
        pdf = pd.DataFrame(
            {
                "zip": ["z1", "z1", "z2", "z2", "z1"],
                "city": ["LA", "LA", "SF", "LA", "LA"],
                "state": ["CA", "CA", "CA", "WA", "NV"],
            }
        )
        d = prob.spark_with_tid(spark, pdf)
        return prob.ensure_cands(d, ["zip", "city", "state"])

    def _repairs(self, df, fds):
        # every dirty tuple repaired under every rule it is dirty under
        fixes = _fixes(df, fds)
        return update.apply_repairs(df, fixes)

    def test_union_probabilities(self, two_rule_df):
        fa = FD(("zip",), "state", name="phi_a")
        fb = FD(("city",), "state", name="phi_b")
        out = self._repairs(two_rule_df, [fa, fb])
        s = prob.cands_canonical(out, "state")
        # tuple 4 (z1, LA, NV): supporters = rows with zip=z1 ∪ city=LA
        # = tids {0,1,4} ∪ {0,1,3,4} = {0,1,3,4}: states CA,CA,WA,NV
        t4 = s[(s.tid == 4) & (s.w == 1)].set_index("v")["p"]
        assert t4["CA"] == pytest.approx(2 / 4)
        assert t4["WA"] == pytest.approx(1 / 4)
        assert t4["NV"] == pytest.approx(1 / 4)

    def test_lemma4_commutativity(self, two_rule_df):
        fa = FD(("zip",), "state", name="phi_a")
        fb = FD(("city",), "state", name="phi_b")
        out_ab = self._repairs(two_rule_df, [fa, fb])
        out_ba = self._repairs(two_rule_df, [fb, fa])
        a = prob.cands_canonical(out_ab, "state")
        b = prob.cands_canonical(out_ba, "state")
        # world ids of the lhs sides differ by registration order; compare the
        # merged world-1 distributions, which Lemma 4 says are order-free
        pd.testing.assert_frame_equal(
            a[a.w == 1].reset_index(drop=True), b[b.w == 1].reset_index(drop=True)
        )

    def test_single_rule_tuple_not_merged(self, two_rule_df):
        # tuple 3 (z2, LA, WA) is dirty under both rules; tuple 2 (z2, SF, CA)
        # is dirty only under phi_a (city SF group is clean: single row)
        fa = FD(("zip",), "state", name="phi_a")
        fb = FD(("city",), "state", name="phi_b")
        out = self._repairs(two_rule_df, [fa, fb])
        s = prob.cands_canonical(out, "state")
        t2 = s[(s.tid == 2) & (s.w == 1)].set_index("v")["p"]
        # supporters of tuple 2 = zip z2 rows only: {CA, WA}
        assert t2["CA"] == pytest.approx(0.5) and t2["WA"] == pytest.approx(0.5)


class TestUpdate:
    def test_provenance_untouched(self, repaired_cities, cities_pdf):
        base = repaired_cities.select("zip", "city").toPandas()
        pd.testing.assert_frame_equal(
            base.sort_values(["zip", "city"]).reset_index(drop=True),
            cities_pdf.sort_values(["zip", "city"]).reset_index(drop=True),
        )

    def test_checked_marker_set(self, repaired_cities, phi1):
        from repro.core.prob import checked_col

        n = repaired_cities.where(F.col(checked_col(phi1.name))).count()
        assert n == 5

    def test_second_update_preserves_other_cells(self, cities, phi1):
        fixes = _fixes(cities, [phi1])
        once = update.apply_repairs(cities, fixes)
        # a later empty update must not clobber existing candidates
        twice = update.apply_repairs(
            once, once.select(TID, F.lit(True).alias(checked_col(phi1.name))).limit(1)
        )
        pd.testing.assert_frame_equal(
            prob.cands_canonical(once, "city"), prob.cands_canonical(twice, "city")
        )


class TestValueKeyedTables:
    """The looked-up cells equal a literal evaluation over tuple sets.

    Three rules share the rhs ``x`` — one with a composite lhs ``(a, b)``,
    one on ``a``, one on ``c`` — and ``a → y`` shares its lhs attribute
    with ``a → x``, so one lhs cell merges two lhs worlds.
    """

    #: lhs worlds 2-5, in this order
    RULES = [
        FD(("a", "b"), "x", name="r_ab"),
        FD(("a",), "x", name="r_a"),
        FD(("c",), "x", name="r_c"),
        FD(("a",), "y", name="r_ay"),
    ]
    ATTRS = ["a", "c", "x", "y"]

    @staticmethod
    def _pdf(seed):
        g = np.random.default_rng(seed)
        n = 160
        return pd.DataFrame({
            "a": g.integers(0, 14, n), "b": g.integers(0, 3, n), "c": g.integers(0, 18, n),
            "x": g.integers(0, 4, n), "y": g.integers(0, 5, n),
        })

    def _expected(self, pdf):
        """Every cell of every member of a violating group, in DuckDB."""
        con = duckdb.connect()
        con.register("d", pdf.assign(tid=range(len(pdf))))
        flags = []
        for i, fd in enumerate(self.RULES):
            lhs = ", ".join(fd.lhs)
            con.execute(
                f"CREATE TABLE v{i} AS SELECT {lhs} FROM d GROUP BY {lhs} "
                f"HAVING count(DISTINCT {fd.rhs}) > 1"
            )
            on = " AND ".join(f"v{i}.{a} = d.{a}" for a in fd.lhs)
            flags.append(f"EXISTS (SELECT 1 FROM v{i} WHERE {on}) AS d{i}")
        con.execute(f"CREATE TABLE t AS SELECT d.*, {', '.join(flags)} FROM d")

        def dist(attr, world, cond, on):
            return (
                f"SELECT t.tid, '{attr}' AS attr, s.{attr} AS v, count(*)::DOUBLE / "
                f"sum(count(*)) OVER (PARTITION BY t.tid) AS p, {world} AS w "
                f"FROM t JOIN d s ON {on} WHERE {cond} GROUP BY t.tid, s.{attr}"
            )

        def keep(attr, world, cond):
            return (
                f"SELECT tid, '{attr}' AS attr, {attr} AS v, 1.0 AS p, {world} AS w "
                f"FROM t WHERE {cond}"
            )

        # world 1 of x: the union of the supporter groups of the dirty rules
        union = " OR ".join(
            f"(t.d{i} AND " + " AND ".join(f"s.{a} = t.{a}" for a in fd.lhs) + ")"
            for i, fd in enumerate(self.RULES[:3])
        )
        parts = [
            dist("x", 1, "t.d0 OR t.d1 OR t.d2", union),
            keep("x", 2, "d0"), keep("x", 3, "d1"), keep("x", 4, "d2"),
            dist("y", 1, "t.d3", "s.a = t.a"), keep("y", 5, "d3"),
            keep("a", 1, "d1 OR d3"), dist("a", 3, "t.d1", "s.x = t.x"),
            dist("a", 5, "t.d3", "s.y = t.y"),
            keep("c", 1, "d2"), dist("c", 4, "t.d2", "s.x = t.x"),
        ]
        exp = con.execute(" UNION ALL ".join(parts)).fetchdf()
        con.close()
        exp["p"] = exp["p"].round(6)
        return {
            a: exp[exp.attr == a][["tid", "v", "p", "w"]]
            .sort_values(["tid", "w", "v"]).reset_index(drop=True)
            for a in self.ATTRS
        }

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cells_equal_tuple_set_oracle(self, spark, seed):
        pdf = self._pdf(seed)
        d = prob.spark_with_tid(spark, pdf)
        out = update.apply_repairs(prob.ensure_cands(d, self.ATTRS), _fixes(d, self.RULES))
        exp = self._expected(pdf)
        for a in self.ATTRS:
            got = prob.cands_canonical(out, a)
            pd.testing.assert_frame_equal(got, exp[a], check_dtype=False, obj=a)

    def test_rules_added_later_give_the_same_cells(self, spark):
        pdf = self._pdf(4)
        fds = self.RULES
        up_front = DaisySession(
            spark, {"t": prob.spark_with_tid(spark, pdf)}, {"t": fds}, use_cost_model=False
        )
        up_front.full_clean("t")
        later = DaisySession(
            spark, {"t": prob.spark_with_tid(spark, pdf)}, {"t": fds[:2]}, use_cost_model=False
        )
        later.execute(Query("t", [Filter("a", "between", 0, 6)]))
        later.add_rules("t", fds[2:])  # Table 7: the rules arrive later
        later.execute(Query("t", [Filter("a", "between", 7, 13)]))
        later.full_clean("t")
        for a in self.ATTRS:
            pd.testing.assert_frame_equal(
                prob.cands_canonical(later.table("t"), a),
                prob.cands_canonical(up_front.table("t"), a),
                obj=a,
            )


class TestCompositeLhsWarns:
    """A composite-lhs FD gets only world 1, and registering it says so once."""

    AQ = FD(("county_code", "state_code"), "county_name", name="aq")

    def test_warns_once_naming_the_rule(self, spark):
        pdf = pd.DataFrame({
            "county_code": [1, 1, 1, 2],
            "state_code": [6, 6, 6, 6],
            "county_name": ["Alameda", "Alameda", "Alamda", "Alpine"],
        })
        df = prob.spark_with_tid(spark, pdf)
        with pytest.warns(UserWarning, match="FD aq has a composite lhs"):
            tables = repair.build_tables(df, [self.AQ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repair.build_tables(df, [self.AQ], tables)  # already registered
        assert [fd.name for fd in tables.fds] == ["aq"]

"""Algorithm 1 (query-result relaxation) tests, oracle-checked with DuckDB."""
import duckdb
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import prob, relax
from repro.core.constraints import FD
from repro.core.prob import TID


def _tids(df):
    return sorted(r[TID] for r in df.select(TID).collect())


def _relax(d, A, fd, **kw):
    """``relax_fd`` with its region as the extras: the region's tuples outside ``A``."""
    region, iters, _whole = relax.relax_fd(d, A, fd, **kw)
    return d.where(region).join(A.select(TID), TID, "left_anti"), iters


class TestCitiesExample:
    """Examples 2-3 over Table 2a."""

    def test_closure_pulls_whole_cluster_rhs_filter(self, cities, phi1):
        A = cities.where(prob.qualifies(cities, "city", "=", "Los Angeles"))
        extra, iters = _relax(cities, A, phi1, max_iter=0)
        # Example 2 chain: +(9001,SF) by lhs, +(10001,SF) by rhs, +(10001,NY) by lhs
        assert _tids(extra) == [1, 3, 4]
        assert iters == 3

    def test_one_iteration_covers_qualifying_groups(self, cities, phi1):
        # Lemma 1: one iteration suffices for accurate fixes of the
        # qualifying tuples under an rhs filter — it adds the same-lhs tuples
        A = cities.where(prob.qualifies(cities, "city", "=", "Los Angeles"))
        extra, iters = _relax(cities, A, phi1, filter_side="rhs")
        assert iters == 1
        assert _tids(extra) == [1]  # (9001, San Francisco)

    def test_lhs_filter_two_iterations(self, cities, phi1):
        # Example 3: zip = 9001; iteration 1 adds (10001,SF) via rhs match,
        # iteration 2 adds (10001,NY) via the now-present lhs 10001
        A = cities.where(prob.qualifies(cities, "zip", "=", "9001"))
        extra, iters = _relax(cities, A, phi1, filter_side="lhs")
        assert iters == 2
        assert _tids(extra) == [3, 4]

    def test_no_extras_when_answer_is_whole_dataset(self, cities, phi1):
        extra, _ = _relax(cities, cities, phi1, max_iter=0)
        assert extra.count() == 0


class TestOracle:
    """One-iteration relaxation equals the correlated-tuple SQL on DuckDB."""

    @pytest.mark.parametrize("lo,hi", [(1, 5), (6, 10), (1, 20)])
    def test_rhs_filter_matches_sql(self, spark, ssb_small, lo, hi):
        _, dirty, _ = ssb_small
        d = prob.spark_with_tid(spark, dirty)
        fd = FD(("orderkey",), "suppkey", name="phi")
        A = d.where(prob.qualifies(d, "suppkey", "between", lo, hi)).localCheckpoint(eager=True)
        extra, _ = _relax(d, A, fd, filter_side="rhs")
        con = duckdb.connect()
        con.register("d", dirty.reset_index(drop=True).reset_index(names="tid"))
        # iteration 1 of Algorithm 1: lhs matches first, then rhs matches
        # against the answer's value snapshots, both from the unvisited pool
        expected = con.execute(
            f"""
            WITH a AS (SELECT * FROM d WHERE suppkey BETWEEN {lo} AND {hi}),
            unv AS (SELECT * FROM d WHERE tid NOT IN (SELECT tid FROM a)),
            e1 AS (SELECT * FROM unv WHERE orderkey IN (SELECT orderkey FROM a)),
            e2 AS (SELECT * FROM unv WHERE tid NOT IN (SELECT tid FROM e1)
                   AND suppkey IN (SELECT suppkey FROM a))
            SELECT tid FROM e1 UNION SELECT tid FROM e2 ORDER BY tid
            """
        ).fetchdf()
        con.close()
        assert _tids(extra) == expected["tid"].tolist()

    def test_closure_is_connected_component(self, spark, cities_pdf, phi1):
        # the closure of any seed inside a connected cluster is the cluster
        d = prob.spark_with_tid(spark, cities_pdf)
        d = prob.ensure_cands(d, ["zip", "city"])
        A = d.where(F.col(TID) == 3)  # (10001, San Francisco)
        extra, _ = _relax(d, A, phi1, max_iter=0)
        assert _tids(extra) == [0, 1, 2, 4]


class TestCompositeLhs:
    def test_composite_lhs_match(self, spark):
        pdf = pd.DataFrame(
            {
                "s": [1, 1, 2, 2],
                "c": [7, 7, 7, 8],
                "name": ["a", "b", "a", "z"],
            }
        )
        d = prob.spark_with_tid(spark, pdf)
        d = prob.ensure_cands(d, ["name"])
        fd = FD(("s", "c"), "name")
        A = d.where(F.col(TID) == 0)  # group (1,7) — row 1 shares it
        extra, _ = _relax(d, A, fd, filter_side="lhs")
        # iteration 1: +row1 (same composite lhs) and +row2 (same rhs 'a');
        # iteration 2: +row3? no — (2,8) shares neither lhs (2,7)≠(2,8) nor rhs
        assert 1 in _tids(extra) and 2 in _tids(extra) and 3 not in _tids(extra)


class TestProbAwareMatching:
    def test_candidate_values_match(self, spark, phi1, cities_pdf):
        # a tuple whose *candidate* zip matches the answer's zip is pulled in
        d = prob.spark_with_tid(spark, cities_pdf)
        d = prob.ensure_cands(d, ["zip", "city"])
        arr = F.array(
            F.struct(F.lit("9001").alias("v"), F.lit(0.5).alias("p"), F.lit(2).alias("w")),
            F.struct(F.lit("10001").alias("v"), F.lit(0.5).alias("p"), F.lit(2).alias("w")),
        )
        d = d.withColumn(
            prob.cands_col("zip"),
            F.when(F.col(TID) == 3, arr).otherwise(F.col(prob.cands_col("zip"))),
        )
        A = d.where(F.col(TID).isin([0, 2]))  # zip 9001 rows
        extra, _ = _relax(d, A, phi1, max_iter=1)
        assert 3 in _tids(extra) and 1 in _tids(extra)


def _algorithm1_sql(pdf, where, lhs, rhs, max_iter):
    """Algorithm 1 run literally on DuckDB; returns ``(extra tids, rounds)``.

    An unvisited pool; each round takes the lhs matches, then the rhs
    matches of the rest, against the current result's value snapshots.
    ``max_iter=0`` runs to the first empty round, which is not counted.
    """
    con = duckdb.connect()
    con.register("d", pdf.reset_index(drop=True).reset_index(names="tid"))
    con.execute(f"CREATE TEMP TABLE cur AS SELECT * FROM d WHERE {where}")
    con.execute("CREATE TEMP TABLE unv AS SELECT * FROM d WHERE tid NOT IN (SELECT tid FROM cur)")
    extras: list[int] = []
    rounds = 0
    while max_iter == 0 or rounds < max_iter:
        con.execute(
            f"CREATE OR REPLACE TEMP TABLE e AS SELECT * FROM unv "
            f"WHERE {lhs} IN (SELECT {lhs} FROM cur)"
        )
        con.execute(
            f"INSERT INTO e SELECT * FROM unv WHERE tid NOT IN (SELECT tid FROM e) "
            f"AND {rhs} IN (SELECT {rhs} FROM cur)"
        )
        found = [r[0] for r in con.execute("SELECT tid FROM e").fetchall()]
        if max_iter == 0 and not found:
            break
        rounds += 1
        extras += found
        con.execute("INSERT INTO cur SELECT * FROM e")
        con.execute("DELETE FROM unv WHERE tid IN (SELECT tid FROM e)")
    con.close()
    return sorted(extras), rounds


class TestOracleRounds:
    """Lemma 2's two rounds and the closure's round count equal Algorithm 1 on DuckDB."""

    FD_SSB = FD(("orderkey",), "suppkey", name="phi")

    @pytest.mark.parametrize("lo,hi", [(1, 2), (1, 10), (150, 200)])
    def test_lhs_filter_two_rounds_match_sql(self, spark, ssb_small, lo, hi):
        _, dirty, _ = ssb_small
        d = prob.spark_with_tid(spark, dirty)
        A = d.where(prob.qualifies(d, "orderkey", "between", lo, hi))
        extra, iters = _relax(d, A, self.FD_SSB, filter_side="lhs")
        expected, rounds = _algorithm1_sql(
            dirty, f"orderkey BETWEEN {lo} AND {hi}", "orderkey", "suppkey", 2
        )
        assert iters == rounds == 2
        assert _tids(extra) == expected

    @pytest.mark.parametrize("where", ["orderkey = 1", "suppkey = 3", "orderkey > 190"])
    def test_closure_rounds_match_sql(self, spark, ssb_small, where):
        _, dirty, _ = ssb_small
        d = prob.spark_with_tid(spark, dirty)
        extra, iters = _relax(d, d.where(where), self.FD_SSB, max_iter=0)
        expected, rounds = _algorithm1_sql(dirty, where, "orderkey", "suppkey", 0)
        assert iters == rounds
        assert _tids(extra) == expected

    def test_closure_rounds_on_a_chain(self, spark):
        # each round reaches one more link: (0,0) -lhs- (0,1) -rhs- (1,1) -lhs- (1,2) ...
        pdf = pd.DataFrame({"k": [0, 0, 1, 1, 2, 2, 3], "s": [0, 1, 1, 2, 2, 3, 3]})
        d = prob.spark_with_tid(spark, pdf)
        extra, iters = _relax(d, d.where(F.col(TID) == 0), FD(("k",), "s"), max_iter=0)
        assert (_tids(extra), iters) == _algorithm1_sql(pdf, "tid = 0", "k", "s", 0)
        assert iters == 6


def _last_lhs_set(pdf, cur, fd, rounds):
    """The lhs values Algorithm 1's last round matches, in pandas.

    Region 0 is the answer ``cur`` (a row mask); region ``k`` is every row
    sharing an lhs or rhs value with region ``k-1``.  A budget of
    ``rounds`` matches region ``rounds - 1``'s set; ``rounds=None`` the
    fixpoint region's.
    """
    lhs, rhs = fd.lhs[0], fd.rhs
    k = 1
    while True:
        if k == rounds:
            return set(pdf.loc[cur, lhs])
        nxt = pdf[lhs].isin(pdf.loc[cur, lhs]) | pdf[rhs].isin(pdf.loc[cur, rhs])
        if rounds is None and nxt.equals(cur):
            return set(pdf.loc[cur, lhs])
        cur, k = nxt, k + 1


class TestWholeGroups:
    """``whole`` matches exactly the last lhs set, and every group it keys lies in the region.

    On fresh data an lhs or rhs filter's last round adds no row outside
    ``whole``; a filter on neither side does (``partkey == 1814``: 564
    region rows, 371 of them whole).
    """

    PHI = FD(("orderkey",), "suppkey", name="phi")
    CHI = FD(("custkey",), "suppkey", name="chi")

    @staticmethod
    def _check(pdf, d, region, whole, fd, last_set):
        lhs = fd.lhs[0]
        whole_tids = set(_tids(d.where(whole)))
        assert whole_tids == set(pdf.index[pdf[lhs].isin(last_set)])
        groups = pdf.index[pdf[lhs].isin(pdf.loc[sorted(whole_tids), lhs])]
        assert set(groups) <= set(_tids(d.where(region)))

    @pytest.mark.parametrize(
        "where,kw,rounds",
        [
            ("orderkey <= 10", {"filter_side": "lhs"}, 2),
            ("suppkey == 3", {"filter_side": "rhs"}, 1),
            ("partkey == 1814", {"filter_side": None}, 2),
            ("orderkey == 1", {"max_iter": 0}, None),
        ],
    )
    def test_relax_fd(self, spark, ssb_small, where, kw, rounds):
        _, dirty, _ = ssb_small
        pdf = dirty.reset_index(drop=True)
        d = prob.spark_with_tid(spark, pdf)
        region, _iters, whole = relax.relax_fd(d, d.where(where), self.PHI, **kw)
        last = _last_lhs_set(pdf, pdf.eval(where), self.PHI, rounds)
        self._check(pdf, d, region, whole, self.PHI, last)

    def test_whole_groups(self, spark, ssb_small):
        _, dirty, _ = ssb_small
        pdf = dirty.reset_index(drop=True)
        d = prob.spark_with_tid(spark, pdf)
        where = "orderkey <= 10"
        relaxed = F.expr(where)
        for fd, side in ((self.PHI, "lhs"), (self.CHI, None)):
            pred, _iters, _whole = relax.relax_fd(d, d.where(where), fd, filter_side=side)
            relaxed = relaxed | pred
        region, whole = relax.whole_groups(d, relaxed, [self.PHI, self.CHI])
        seen = pdf.loc[_tids(d.where(relaxed))]
        for fd, w in zip((self.PHI, self.CHI), whole):
            self._check(pdf, d, region, w, fd, set(seen[fd.lhs[0]]))

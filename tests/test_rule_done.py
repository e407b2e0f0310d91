"""The rule-done exit: a table whose violating groups are all repaired is clean.

A violating group is repaired once, by the query whose region first holds
all of its rows unchecked, so the session's count of unrepaired rows per
FD (``DaisySession.unrepaired``, a view of ``repair.RuleTables``) is
exact.  When every FD of a table is at 0 the table is fully cleaned: the
plan places its FD ops ``before`` and its queries are answer-only.  The
answers must stay those of ``offline_clean`` + ``run_query``.
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import prob
from repro.core.constraints import DC, FD, Atom
from repro.core.daisy import DaisySession
from repro.core.offline import offline_clean
from repro.core.operators import run_query
from repro.core.planner import Filter, Query
from repro.core.prob import TID, checked_col

PHI = FD(("orderkey",), "suppkey", name="phi")
CHI = FD(("custkey",), "suppkey", name="chi")
LO = "lineorder"


def _tids(df):
    return sorted(r[0] for r in df.select(TID).collect())


def _rows_in_violating_groups(pdf, fd):
    """Rows of ``pdf`` in a group of ``fd`` with two or more rhs values (null lhs left out)."""
    n_rhs = pdf.groupby(list(fd.lhs))[fd.rhs].transform("nunique")
    return int((n_rhs > 1).sum())


class TestOneRule:
    QUERIES = [
        Query(LO, [Filter("suppkey", "between", 1, 7)]),
        Query(LO, [Filter("suppkey", "between", 8, 14)]),
        Query(LO, [Filter("suppkey", "between", 15, 20)]),
        Query(LO, [Filter("suppkey", "=", 3)]),
        Query(LO, [Filter("orderkey", "between", 1, 40)]),
    ]

    @pytest.fixture(scope="class")
    def run(self, spark, ssb_small):
        _, dirty, _ = ssb_small
        sess = DaisySession(
            spark, {LO: prob.spark_with_tid(spark, dirty)}, {LO: [PHI]}, use_cost_model=False
        )
        off = offline_clean(prob.spark_with_tid(spark, dirty), [PHI], mode="vectorized").table
        steps = []
        for q in self.QUERIES:
            got = sess.execute(q)
            want = run_query({LO: off}, q)
            steps.append((
                LO in sess.fully_cleaned, dict(sess.unrepaired[LO]), _tids(got), _tids(want),
                {a: (prob.cands_canonical(got, a), prob.cands_canonical(want, a))
                 for a in PHI.attrs},
            ))
        return sess, steps

    def test_marked_when_the_repaired_total_reaches_the_dirty_rows(self, run, ssb_small):
        sess, steps = run
        total = _rows_in_violating_groups(ssb_small[1], PHI)
        repaired = 0
        for rec, (marked, unrepaired, *_rest) in zip(sess.records, steps):
            repaired += rec.repaired
            assert unrepaired == {PHI.name: total - repaired}
            assert marked == (repaired == total)
        marks = [marked for marked, *_rest in steps]
        # not on the first query, and before the last one
        assert not marks[0] and marks[-2]

    def test_later_queries_are_answer_only(self, run):
        sess, steps = run
        first = [marked for marked, *_rest in steps].index(True)
        assert sess.records[first].strategy == "incremental"
        for rec in sess.records[first + 1:]:
            assert rec.strategy == "clean" and rec.repaired == 0 and rec.answer == 0

    def test_every_answer_matches_offline(self, run):
        _, steps = run
        for i, (_m, _u, got, want, cells) in enumerate(steps):
            assert got and got == want, f"q{i}"
            for a, (g, w) in cells.items():
                pd.testing.assert_frame_equal(g, w, obj=f"q{i} {a}")

    def test_checked_flags_set_as_a_full_clean_leaves_them(self, run):
        sess, _ = run
        t = sess.table(LO)
        assert t.where(~F.col(checked_col(PHI.name))).count() == 0


class TestTwoRules:
    """φ and ``custkey → suppkey``: the table is marked once both are at 0."""

    def test_marked_only_when_both_counts_reach_zero(self, spark):
        # φ group orderkey 1 violates (a, b); χ group custkey 20 violates (c, d)
        pdf = pd.DataFrame({
            "orderkey": [1, 1, 2, 3],
            "custkey": [10, 11, 20, 20],
            "suppkey": ["a", "b", "c", "d"],
        })
        sess = DaisySession(
            spark, {LO: prob.spark_with_tid(spark, pdf)}, {LO: [PHI, CHI]},
            use_cost_model=False,
        )
        assert sess.unrepaired[LO] == {PHI.name: 2, CHI.name: 2}
        off = offline_clean(prob.spark_with_tid(spark, pdf), [PHI, CHI], mode="vectorized")
        seen = []
        for f in (Filter("orderkey", "=", 1), Filter("custkey", "=", 20)):
            q = Query(LO, [f])
            assert _tids(sess.execute(q)) == _tids(run_query({LO: off.table}, q))
            seen.append((dict(sess.unrepaired[LO]), LO in sess.fully_cleaned))
        assert seen == [
            ({PHI.name: 0, CHI.name: 2}, False),
            ({PHI.name: 0, CHI.name: 0}, True),
        ]


class TestAddRulesAfterTheExit:
    def test_new_rule_clears_the_mark(self, spark, ssb_small):
        _, dirty, _ = ssb_small
        sess = DaisySession(
            spark, {LO: prob.spark_with_tid(spark, dirty)}, {LO: [PHI]}, use_cost_model=False
        )
        sess.execute(Query(LO)).count()  # the whole table is the region
        assert LO in sess.fully_cleaned
        sess.add_rules(LO, [CHI])
        assert LO not in sess.fully_cleaned
        assert sess.unrepaired[LO] == {
            PHI.name: 0, CHI.name: _rows_in_violating_groups(dirty, CHI)
        }
        assert sess.unrepaired[LO][CHI.name] > 0
        q = Query(LO, [Filter("suppkey", "=", 9)])
        sess.execute(q).count()
        assert sess.records[-1].strategy == "incremental"

    @pytest.mark.parametrize("rules", [
        [DC((Atom("extendedprice", "<"), Atom("discount", ">")), name="price")],
        [PHI],  # already registered
        [FD(("revenue",), "quantity", name="revenue")],  # no violating group
    ], ids=["dc", "registered-fd", "clean-fd"])
    def test_rule_with_nothing_to_repair_keeps_the_mark(self, spark, ssb_small, rules):
        _, dirty, _ = ssb_small
        sess = DaisySession(
            spark, {LO: prob.spark_with_tid(spark, dirty)}, {LO: [PHI]}, use_cost_model=False
        )
        sess.full_clean(LO)
        sess.add_rules(LO, rules)
        assert LO in sess.fully_cleaned
        assert set(sess.unrepaired[LO].values()) == {0}
        t = sess.table(LO)
        for fd in sess.fd_rules[LO]:
            assert t.where(~F.col(checked_col(fd.name))).count() == 0
        sess.execute(Query(LO)).count()
        assert sess.records[-1].strategy == "clean"

"""Per-query oracle for the query path: each Daisy answer is the offline answer.

Lemmas 1-2 (select) and Definition 3 with Lemma 5 (join) claim that a query
answered by Daisy returns what the same query returns over the fully
cleaned table.  After every query of each workload below, Daisy's answer
tids (lineage pairs for a join) and the candidate cells of the answer rows
must equal those of ``offline_clean(mode="vectorized")`` followed by
``run_query``.  Each workload starts from a fresh session over the dirty
``ssb_small`` lineorder (and, for the join, a supplier table under ψ); the
lineorder rules are φ alone, then φ with a second rule on the same rhs.
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import prob
from repro.core.constraints import FD
from repro.core.daisy import DaisySession
from repro.core.offline import offline_clean
from repro.core.operators import run_query
from repro.core.planner import Filter, JoinSpec, Query
from repro.core.prob import TID
from repro.datagen import ssb
from repro.datagen.errors import inject_fd_errors

PHI = FD(("orderkey",), "suppkey", name="phi")
CHI = FD(("custkey",), "suppkey", name="chi")
PSI = FD(("address",), "suppkey", name="psi")

RULES = {"phi": [PHI], "phi+chi": [PHI, CHI]}

LO = "lineorder"
WORKLOADS = {
    "select": [
        Query(LO, [Filter("suppkey", "=", 9)]),
        Query(LO, [Filter("orderkey", "between", 1, 40)]),
        Query(LO, [Filter("suppkey", "between", 4, 7)]),
        Query(LO, [Filter("suppkey", "in", [2, 13, 17])]),
    ],
    "unfiltered": [
        Query(LO, [Filter("orderkey", "between", 90, 120)]),
        Query(LO),
    ],
    "ruled-right-join": [
        Query(LO, [Filter("suppkey", "between", 1, 5)],
              join=JoinSpec("supplier", "suppkey", "suppkey")),
    ],
    "self-join": [
        Query(LO, [Filter("orderkey", "between", 1, 5)],
              join=JoinSpec(LO, "suppkey", "suppkey", [Filter("suppkey", "=", 5)])),
    ],
}


@pytest.fixture(scope="module")
def data(ssb_small):
    _, dirty, _ = ssb_small
    sup, _ = inject_fd_errors(
        ssb.supplier_pdf(n_suppkeys=20, rows_per_supp=3), ("address",), "suppkey",
        frac_rows=0.3, seed=19,
    )
    return {LO: dirty, "supplier": sup}


@pytest.fixture(scope="module")
def offline(spark, data):
    """Per rule set: the offline-cleaned tables and their candidate cells."""
    out = {}
    for name, rules in RULES.items():
        tables = {
            t: offline_clean(prob.spark_with_tid(spark, pdf), rs, mode="vectorized").table
            for t, pdf, rs in ((LO, data[LO], rules), ("supplier", data["supplier"], [PSI]))
        }
        cells = {t: {a: prob.cands_canonical(df, a) for a in _attrs(t, rules)}
                 for t, df in tables.items()}
        out[name] = tables, cells
    return out


def _attrs(table, rules):
    """The attributes with candidate cells: every attribute of a rule."""
    return sorted({a for fd in (rules if table == LO else [PSI]) for a in fd.attrs})


def _answer(result, q):
    """Answer tids per input: ``[(table, tids)]``, and the answer's ids."""
    if q.join is None:
        ids = {r[0] for r in result.select(TID).collect()}
        return ids, [(q.table, ids)]
    ids = {tuple(r) for r in result.select(f"l_{TID}", f"r_{TID}").collect()}
    return ids, [(q.table, {p[0] for p in ids}), (q.join.right_table, {p[1] for p in ids})]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("rules", list(RULES))
def test_each_answer_matches_offline(spark, data, offline, rules, workload):
    off_tables, off_cells = offline[rules]
    queries = WORKLOADS[workload]
    tables = {LO} | {q.join.right_table for q in queries if q.join is not None}
    sess = DaisySession(
        spark,
        {t: prob.spark_with_tid(spark, data[t]) for t in tables},
        {LO: RULES[rules], "supplier": [PSI]},
        use_cost_model=False,
    )
    for i, q in enumerate(queries):
        got, inputs = _answer(sess.execute(q), q)
        want, _ = _answer(run_query(off_tables, q), q)
        assert got, f"q{i}: empty answer"
        assert got == want, f"q{i}: {len(got)} answer ids, offline {len(want)}"
        for t, tids in inputs:
            rows = sess.tables[t].where(F.col(TID).isin(sorted(tids)))
            for a, want_cells in off_cells[t].items():
                want_rows = want_cells[want_cells["tid"].isin(tids)].reset_index(drop=True)
                pd.testing.assert_frame_equal(
                    prob.cands_canonical(rows, a), want_rows, obj=f"q{i} {t}.{a}"
                )

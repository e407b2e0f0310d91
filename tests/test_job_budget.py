"""Spark job budget of a query: a guard against new per-query actions.

Each Spark action a query adds (a ``count()``, a checkpoint, a broadcast of
a lazily computed side) is fixed cost the §5.2 cost model does not price.
The jobs of one ``DaisySession.execute`` (and of one offline clean, which
runs the same repair) are counted exactly from a job group with the status
tracker.

Building a query's plan is fixed cost too: every Column operator is a
Python-to-JVM round trip (DESIGN §3, on round trips to the JVM).  The same
counter counts the py4j commands a call sends, and a few queries have a
budget of them.
"""
import threading

import numpy as np
import pandas as pd
import pytest
from py4j.clientserver import ClientServerConnection
from pyspark.sql import DataFrame

from repro.core import prob
from repro.core.constraints import DC, FD, Atom
from repro.core.daisy import DaisySession
from repro.core.offline import offline_clean
from repro.core.planner import Filter, JoinSpec, Query
from repro.core.thetajoin import ThetaJoinCleaner
from repro.datagen import ssb
from repro.datagen.errors import inject_dc_errors, inject_fd_errors, monotone_discount

PHI = FD(("orderkey",), "suppkey", name="phi")
PSI = FD(("address",), "suppkey", name="psi")
PRICE_DC = DC((Atom("extendedprice", "<"), Atom("discount", ">")), name="dc")

#: jobs of the queries below: a two-round lhs query that repairs (its
#: detection checkpoint also counts the dirty and changed rows), then the
#: same query again.  The first region holds every violating group, so the
#: table is fully cleaned and the repeat runs no job (3 while it still ran
#: two relaxation rounds and the region count)
JOBS = {"repairs": 11, "repeat": 0}
#: jobs of a lineorder ⋈ supplier join over the whole suppkey domain after the
#: repairing query, answer included: lineorder is fully cleaned and the
#: rule-free supplier is not counted, so only the answer runs (8 while the
#: join relaxed, counted its region and the supplier answer, and the answer
#: de-duplicated its pairs in a shuffle)
JOIN_JOBS = 4
#: jobs of a fresh session's unfiltered query on that table: its answer is
#: the whole table, so it is the region and no relaxation round runs (11
#: while an unfiltered input still ran its two Lemma rounds)
UNFILTERED_JOBS = 9
#: jobs of a full clean after the repairing query, which leaves nothing to
#: clean: the update's checkpoint of an empty delta (4 while the repairing
#: query left the table marked not cleaned)
FULL_CLEAN_JOBS = 1
#: jobs of the switch's full clean after an rhs query that leaves violating
#: groups unrepaired: the shared full-clean pass (two lookup broadcasts) and
#: the update (5 while it also broadcast each rule's violating groups to
#: pick its rows)
FULL_CLEAN_PASS_JOBS = 4
#: jobs of a fresh session's join of that orderkey range with the whole
#: supplier table under ψ, answer included: the supplier input is
#: unfiltered, so its region is the whole table (27 while it ran two Lemma
#: rounds, 25 while the answer de-duplicated its pairs in a shuffle)
RULED_RIGHT_JOIN_JOBS = 24
#: jobs of an SP query on a fully cleaned table, answer count included:
#: the answer's count only (4 while the input still ran a relaxation round
#: and the region count)
ANSWER_ONLY_JOBS = 2
#: jobs of a vectorized offline clean of the same table under φ; the fixes'
#: checkpoint counts its rows
OFFLINE_JOBS = 11
#: jobs of building a session over that table under φ: its checkpoint
#: counts the rows, then the statistics and candidate tables
INIT_JOBS = 10
#: jobs of a DC range query (answer count, detection, and the fix state's
#: checkpoint, which also counts the repaired tids), then of the same query
#: again, which scans no new matrix pair and only counts its answer
DC_JOBS = {"dc": 3, "dc-repeat": 1}
#: jobs of a DC query after a query over the whole matrix: no pair is left
#: to scan and no bucket is outside its answer, so the Alg. 2 gate needs no
#: count (1 while every DC input counted its answer)
DC_DONE_JOBS = 0
#: jobs of building the theta-join cleaner of that DC table: quantiles,
#: bucketed checkpoint, bucket bounds and the Alg. 2 estimate
THETA_JOBS = 5
#: allowance for a plan shape that varies with the Spark version
SLACK = 2

#: py4j commands of the repairing lhs query's ``execute`` above (its
#: relaxation, detection, repair and update plans are SQL text, and clean_σ
#: builds the filter predicate once; 635 while the predicate was built for
#: the answer and again for the answer flag, read as 812 while the count
#: took in the finalizer thread's deletes, 4986 while the plans were chains
#: of Column operators)
COMMANDS = {"repairs": 561}
#: py4j commands of the lineorder ⋈ supplier join above, answer count
#: included (1251 while its renames, value arrays and filters were Column
#: operators)
JOIN_COMMANDS = 231
#: py4j commands of the DC range query's ``execute`` below (5250 while the
#: pair scans and the fix state were built from Column operators)
DC_COMMANDS = 497
#: allowance, as a share, for commands that vary with the PySpark version
COMMAND_SLACK = 0.1


def _execute_counts(spark, sess, q, group):
    return _counts(spark, group, lambda: sess.execute(q))


def _counts(spark, group, run):
    """``(spark_jobs, py4j_commands)`` of ``run()``.

    The jobs are those of a job group, from the status tracker; the
    commands are counted by wrapping the py4j connection's ``send_command``
    while ``run`` runs, on the calling thread only: py4j's finalizer thread
    sends the deletes of Java references Python freed, whenever it gets to
    them, so counting them made a budget hinge on what earlier tests left.
    """
    sc = spark.sparkContext
    sent = [0]
    send = ClientServerConnection.send_command
    caller = threading.get_ident()

    def counting(self, command):
        if threading.get_ident() == caller:
            sent[0] += 1
        return send(self, command)

    sc.setJobGroup(group, group)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ClientServerConnection, "send_command", counting)
            run()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # job-start events reach the status tracker through the listener bus
    sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)
    return len(sc.statusTracker().getJobIdsForGroup(group)), sent[0]


def _within(got: int, budget: int) -> bool:
    return got <= budget * (1 + COMMAND_SLACK)


def test_execute_job_budget(spark, ssb_small):
    _, dirty, _ = ssb_small
    sess = DaisySession(
        spark, {"lineorder": prob.spark_with_tid(spark, dirty)}, {"lineorder": [PHI]},
        use_cost_model=False,
    )
    q = Query("lineorder", [Filter("orderkey", "between", 1, 20)])
    counted = {
        "repairs": _execute_counts(spark, sess, q, "job-budget-repairs"),
        "repeat": _execute_counts(spark, sess, q, "job-budget-repeat"),
    }
    got = {k: jobs for k, (jobs, _cmds) in counted.items()}
    assert sess.records[0].repaired > 0 and sess.records[1].repaired == 0
    assert all(got[k] <= JOBS[k] + SLACK for k in JOBS), got
    cmds = {k: counted[k][1] for k in COMMANDS}
    assert all(_within(cmds[k], COMMANDS[k]) for k in COMMANDS), cmds


def test_session_init_job_budget(spark, ssb_small, monkeypatch):
    _, dirty, _ = ssb_small
    df = prob.spark_with_tid(spark, dirty)

    def no_count(self):
        raise AssertionError("the row count rides on the table's checkpoint")

    monkeypatch.setattr(DataFrame, "count", no_count)
    made = []
    got, _cmds = _counts(spark, "job-budget-init", lambda: made.append(DaisySession(
        spark, {"lineorder": df}, {"lineorder": [PHI]}, use_cost_model=False,
    )))
    assert made[0].cost["lineorder"].n == len(dirty)
    assert got <= INIT_JOBS + SLACK, got


def test_join_job_budget(spark, ssb_small):
    _, dirty, _ = ssb_small
    sup = ssb.supplier_pdf(n_suppkeys=20, rows_per_supp=3)
    sess = DaisySession(
        spark,
        {"lineorder": prob.spark_with_tid(spark, dirty),
         "supplier": prob.spark_with_tid(spark, sup)},
        {"lineorder": [PHI]},
        use_cost_model=False,
    )
    sess.execute(Query("lineorder", [Filter("orderkey", "between", 1, 20)])).count()
    q = Query("lineorder", [Filter("suppkey", "between", 1, 20)],
              join=JoinSpec("supplier", "suppkey", "suppkey"))
    got, cmds = _counts(spark, "job-budget-join", lambda: sess.execute(q).count())
    assert sess.records[1].repaired == 0
    assert got <= JOIN_JOBS + SLACK, got
    assert _within(cmds, JOIN_COMMANDS), cmds


def test_unfiltered_job_budget(spark, ssb_small):
    _, dirty, _ = ssb_small
    sess = DaisySession(
        spark, {"lineorder": prob.spark_with_tid(spark, dirty)}, {"lineorder": [PHI]},
        use_cost_model=False,
    )
    got, _cmds = _execute_counts(spark, sess, Query("lineorder"), "job-budget-unfiltered")
    assert sess.records[0].repaired > 0 and sess.records[0].relax_iters == 0
    assert got <= UNFILTERED_JOBS + SLACK, got


def test_full_clean_job_budget(spark, ssb_small):
    _, dirty, _ = ssb_small
    sess = DaisySession(
        spark, {"lineorder": prob.spark_with_tid(spark, dirty)}, {"lineorder": [PHI]},
        use_cost_model=False,
    )
    sess.execute(Query("lineorder", [Filter("orderkey", "between", 1, 20)])).count()
    got, _cmds = _counts(spark, "job-budget-full-clean", lambda: sess.full_clean("lineorder"))
    assert "lineorder" in sess.fully_cleaned
    assert got <= FULL_CLEAN_JOBS + SLACK, got


def test_full_clean_pass_job_budget(spark, ssb_small):
    _, dirty, _ = ssb_small
    sess = DaisySession(
        spark, {"lineorder": prob.spark_with_tid(spark, dirty)}, {"lineorder": [PHI]},
        use_cost_model=False,
    )
    sess.execute(Query("lineorder", [Filter("suppkey", "=", 1)])).count()
    assert "lineorder" not in sess.fully_cleaned
    got, _cmds = _counts(
        spark, "job-budget-full-clean-pass", lambda: sess.full_clean("lineorder")
    )
    assert "lineorder" in sess.fully_cleaned
    assert got <= FULL_CLEAN_PASS_JOBS + SLACK, got


def test_answer_only_after_rule_done(spark, ssb_small):
    _, dirty, _ = ssb_small
    sess = DaisySession(
        spark, {"lineorder": prob.spark_with_tid(spark, dirty)}, {"lineorder": [PHI]},
        use_cost_model=False,
    )
    sess.execute(Query("lineorder")).count()
    assert "lineorder" in sess.fully_cleaned
    q = Query("lineorder", [Filter("suppkey", "between", 3, 9)])
    assert _execute_counts(spark, sess, q, "job-budget-rule-done-execute")[0] == 0
    got, _cmds = _counts(spark, "job-budget-rule-done", lambda: sess.execute(q).count())
    assert sess.records[-1].strategy == "clean"
    assert got <= ANSWER_ONLY_JOBS + SLACK, got


def test_ruled_right_join_job_budget(spark, ssb_small):
    _, dirty, _ = ssb_small
    sup, _ = inject_fd_errors(
        ssb.supplier_pdf(n_suppkeys=20, rows_per_supp=3), ("address",), "suppkey",
        frac_rows=0.3, seed=19,
    )
    sess = DaisySession(
        spark,
        {"lineorder": prob.spark_with_tid(spark, dirty),
         "supplier": prob.spark_with_tid(spark, sup)},
        {"lineorder": [PHI], "supplier": [PSI]},
        use_cost_model=False,
    )
    q = Query("lineorder", [Filter("orderkey", "between", 1, 20)],
              join=JoinSpec("supplier", "suppkey", "suppkey"))
    got, _cmds = _counts(spark, "job-budget-ruled-right", lambda: sess.execute(q).count())
    assert sess.records[0].repaired > 0
    assert got <= RULED_RIGHT_JOIN_JOBS + SLACK, got


def _dc_table(spark):
    g = np.random.default_rng(3)
    pdf = pd.DataFrame({"extendedprice": (g.random(300) * 5000).round(0)})
    pdf["discount"] = monotone_discount(pdf["extendedprice"].to_numpy(), levels=15)
    dirty, _ = inject_dc_errors(pdf, "extendedprice", "discount", frac_rows=0.03, seed=4)
    return prob.spark_with_tid(spark, dirty)


def test_execute_dc_job_budget(spark):
    sess = DaisySession(
        spark, {"t": _dc_table(spark)}, {"t": [PRICE_DC]},
        use_cost_model=False, dc_partitions=16,
    )
    q = Query("t", [Filter("extendedprice", "between", 0.0, 2500.0)])
    counted = {
        "dc": _execute_counts(spark, sess, q, "job-budget-dc"),
        "dc-repeat": _execute_counts(spark, sess, q, "job-budget-dc-repeat"),
    }
    got = {k: jobs for k, (jobs, _cmds) in counted.items()}
    assert sess.records[0].repaired > 0 and sess.records[1].repaired == 0
    assert all(got[k] <= DC_JOBS[k] + SLACK for k in DC_JOBS), got
    assert _within(counted["dc"][1], DC_COMMANDS), counted["dc"]


def test_dc_done_job_budget(spark):
    sess = DaisySession(
        spark, {"t": _dc_table(spark)}, {"t": [PRICE_DC]},
        use_cost_model=False, dc_partitions=16,
    )
    # a filter off the bucketing attribute keeps every bucket in scope
    q = Query("t", [Filter("discount", ">=", 0.0)])
    sess.execute(q).count()
    assert sess.records[0].repaired > 0
    got, _cmds = _execute_counts(spark, sess, q, "job-budget-dc-done")
    assert sess.records[1].repaired == 0
    assert got <= DC_DONE_JOBS + SLACK, got


def test_dc_buckets_recorded(spark):
    sess = DaisySession(
        spark, {"t": _dc_table(spark)}, {"t": [PRICE_DC]},
        use_cost_model=False, dc_partitions=16,
    )
    nb = sess.theta[("t", PRICE_DC.name)].nb
    # a filter off the bucketing attribute falls back to every bucket
    sess.execute(Query("t", [Filter("discount", ">=", 0.0)]))
    sess.execute(Query("t", [Filter("extendedprice", "between", 0.0, 2500.0)]))
    assert nb > 1
    assert sess.records[0].dc_buckets == nb
    assert 0 < sess.records[1].dc_buckets < nb


def test_theta_join_build_job_budget(spark):
    df = _dc_table(spark).localCheckpoint(eager=True)
    got, _cmds = _counts(
        spark, "job-budget-theta", lambda: ThetaJoinCleaner(df, PRICE_DC, partitions=16)
    )
    assert got <= THETA_JOBS + SLACK, got


def test_offline_clean_job_budget(spark, ssb_small):
    _, dirty, _ = ssb_small
    df = prob.spark_with_tid(spark, dirty)
    got, _cmds = _counts(
        spark, "job-budget-offline", lambda: offline_clean(df, [PHI], mode="vectorized")
    )
    assert got <= OFFLINE_JOBS + SLACK, got

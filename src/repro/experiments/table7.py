"""Table 7 — incremental rule arrival via provenance (paper §7.3).

Paper's numbers:

                          φ1        φ1+φ2    φ1+φ2+φ3   Total
  Daisy (3 executions)    51 sec    49 sec   118 sec     218 sec
  Daisy (1 execution)     51 sec    41 sec    40 sec     132 sec
  Holoclean             1020 sec  1108 sec  1188 sec    3316 sec

Shape: the single session that keeps provenance and merges the new rule's
probabilistic fixes beats re-running from scratch per rule set (its
incremental steps get *cheaper*), and Holoclean is far slower.  The user
queries the whole dataset each time (the cost is the offline-equivalent
case, as the paper states).
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.core import prob
from repro.core.daisy import DaisySession
from repro.core.planner import Query
from repro.datagen.hospital import hospital_pdf
from repro.experiments.table5 import CONTEXT_ATTRS, PHI1, PHI2, PHI3, RULE_SETS
from repro.holoclean.sim import HolocleanSim

PAPER = {
    "three_exec": {"phi1": 51, "phi1+phi2": 49, "phi1+phi2+phi3": 118, "total": 218},
    "one_exec": {"phi1": 51, "phi1+phi2": 41, "phi1+phi2+phi3": 40, "total": 132},
    "holoclean": {"phi1": 1020, "phi1+phi2": 1108, "phi1+phi2+phi3": 1188, "total": 3316},
}


def run_table7(spark: SparkSession, *, n_hospitals: int = 400, seed: int = 42) -> dict:
    dirty, _clean, _truth = hospital_pdf(n_hospitals=n_hospitals, seed=seed)
    whole = Query("h", [])  # the user queries the whole dataset
    out: dict = {"paper": PAPER, "measured": {}, "rows": len(dirty)}

    # --- three executions: a fresh session per rule set -------------------
    three = {}
    for name, rules in RULE_SETS.items():
        d = prob.spark_with_tid(spark, dirty)
        t0 = time.time()
        sess = DaisySession(spark, {"h": d}, {"h": rules}, use_cost_model=False)
        sess.execute(whole).count()
        three[name] = round(time.time() - t0, 1)
    three["total"] = round(sum(v for k, v in three.items() if k != "total"), 1)
    out["measured"]["three_exec"] = three

    # --- one execution: provenance + incremental merge --------------------
    one = {}
    d = prob.spark_with_tid(spark, dirty)
    t0 = time.time()
    sess = DaisySession(spark, {"h": d}, {"h": [PHI1]}, use_cost_model=False)
    sess.execute(whole).count()
    one["phi1"] = round(time.time() - t0, 1)
    t0 = time.time()
    sess.add_rules("h", [PHI2])
    sess.execute(whole).count()
    one["phi1+phi2"] = round(time.time() - t0, 1)
    t0 = time.time()
    sess.add_rules("h", [PHI3])
    sess.execute(whole).count()
    one["phi1+phi2+phi3"] = round(time.time() - t0, 1)
    one["total"] = round(sum(v for k, v in one.items() if k != "total"), 1)
    out["measured"]["one_exec"] = one

    # --- Holoclean: one full run per rule set -----------------------------
    holo = {}
    for name, rules in RULE_SETS.items():
        res = HolocleanSim(dirty, rules, context_attrs=CONTEXT_ATTRS).ground_and_train()
        holo[name] = round(res.seconds, 1)
    holo["total"] = round(sum(v for k, v in holo.items() if k != "total"), 1)
    out["measured"]["holoclean"] = holo
    return out


def check_table7(out: dict) -> None:
    m = out["measured"]
    # the single provenance-keeping execution beats three from-scratch runs
    assert m["one_exec"]["total"] < m["three_exec"]["total"]
    # and its incremental steps get cheaper than the matching fresh runs
    assert m["one_exec"]["phi1+phi2+phi3"] < m["three_exec"]["phi1+phi2+phi3"]

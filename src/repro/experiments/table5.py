"""Table 5 — repair accuracy of Holoclean vs DaisyH vs DaisyP (paper §7.3).

Hospital-like data with ground truth; rule sets φ1 / φ1+φ2 / φ1+φ2+φ3 where

    φ1: zip → city,   φ2: name → zip,   φ3: phone → zip.

Daisy executes 4 SP queries that together access the whole dataset and
cleans at query time; the resulting candidate sets feed

- DaisyP: most-probable-world selection (repro.holoclean.sim.daisy_p_choose),
- DaisyH: HoloClean-style context inference over Daisy's domains,
- Holoclean: the HolocleanSim substrate end-to-end (own domains).

Paper's numbers (precision / recall / F1):

              φ1              φ1+φ2           φ1+φ2+φ3
  Holoclean   1 / .55 / .71   .98/.95/.96     .98/.92/.95
  DaisyH      .97/.52/.68     1 / .98/.99     1 / .98/.99
  DaisyP      .41/.51/.45     1 / .97/.98     1 / .98/.99
"""
from __future__ import annotations

import time

import numpy as np

from pyspark.sql import SparkSession

from repro.core import prob
from repro.core.constraints import FD
from repro.core.daisy import DaisySession
from repro.core.planner import Filter, Query
from repro.datagen.hospital import hospital_pdf
from repro.holoclean.metrics import score_repairs
from repro.holoclean.sim import (
    HolocleanSim,
    daisy_domains_for_holoclean,
    daisy_p_choose,
)

PHI1 = FD(("zip",), "city", name="phi1")
PHI2 = FD(("name",), "zip", name="phi2")
PHI3 = FD(("phone",), "zip", name="phi3")

RULE_SETS = {
    "phi1": [PHI1],
    "phi1+phi2": [PHI1, PHI2],
    "phi1+phi2+phi3": [PHI1, PHI2, PHI3],
}

PAPER = {
    "phi1": {"holoclean": (1.0, 0.55, 0.71), "daisyH": (0.97, 0.52, 0.68), "daisyP": (0.41, 0.51, 0.45)},
    "phi1+phi2": {"holoclean": (0.98, 0.95, 0.96), "daisyH": (1.0, 0.98, 0.99), "daisyP": (1.0, 0.97, 0.98)},
    "phi1+phi2+phi3": {"holoclean": (0.98, 0.92, 0.95), "daisyH": (1.0, 0.98, 0.99), "daisyP": (1.0, 0.98, 0.99)},
}

CONTEXT_ATTRS = ["county", "state", "owner"]


def _coverage_queries(dirty, n_queries: int = 4) -> list[Query]:
    cities = sorted(dirty["city"].unique())
    chunks = np.array_split(np.array(cities, dtype=object), n_queries)
    return [Query("h", [Filter("city", "in", list(c))]) for c in chunks if len(c)]


def run_table5(spark: SparkSession, *, n_hospitals: int = 168, seed: int = 42) -> dict:
    """Returns {rule_set: {system: [precision, recall, f1]}} plus timings."""
    dirty, clean, truth = hospital_pdf(n_hospitals=n_hospitals, seed=seed)
    out: dict = {"paper": PAPER, "measured": {}, "seconds": {}}
    for name, rules in RULE_SETS.items():
        attrs = sorted({a for r in rules for a in r.attrs})
        t0 = time.time()
        d = prob.spark_with_tid(spark, dirty)
        sess = DaisySession(spark, {"h": d}, {"h": rules}, use_cost_model=False)
        for q in _coverage_queries(dirty):
            sess.execute(q).count()
        cands = {a: prob.cands_canonical(sess.table("h"), a) for a in attrs}
        daisy_seconds = time.time() - t0

        chosen_p = daisy_p_choose(cands, dirty, sess.fd_rules["h"])
        acc_p = score_repairs(chosen_p, dirty, clean, truth, attrs)

        # margin 0.15: the conservative update threshold that gives the
        # inference-based systems their precision-over-recall profile at φ1
        sim = HolocleanSim(dirty, rules, context_attrs=CONTEXT_ATTRS, margin=0.15)
        res_h = sim.infer(daisy_domains_for_holoclean(cands))
        acc_h = score_repairs(res_h.chosen, dirty, clean, truth, attrs)

        sim2 = HolocleanSim(dirty, rules, context_attrs=CONTEXT_ATTRS, margin=0.15)
        res_hc = sim2.run()
        acc_hc = score_repairs(res_hc.chosen, dirty, clean, truth, attrs)

        out["measured"][name] = {
            "holoclean": list(acc_hc.row()),
            "daisyH": list(acc_h.row()),
            "daisyP": list(acc_p.row()),
        }
        out["seconds"][name] = {
            "daisy_clean": round(daisy_seconds, 1),
            "holoclean_sim": round(res_hc.seconds, 1),
        }
    return out


def check_table5(out: dict) -> None:
    # shape assertions from the paper: DaisyP is clearly worst with φ1 alone,
    # everything is strong once φ2 (and φ3) are known
    m = out["measured"]
    assert m["phi1"]["daisyP"][2] < 0.7  # F1 well below the multi-rule regime
    for rs in ("phi1+phi2", "phi1+phi2+phi3"):
        for system in ("holoclean", "daisyH", "daisyP"):
            assert m[rs][system][2] >= 0.9

"""Table 8 — realistic exploratory-analysis scenarios (paper §7.3).

Paper's numbers:

  Dataset            Daisy      Offline
  Nestle (20MB)      2.9 min    3.97 min
  Nestle (200MB)     26.8 min   8.5 hours
  Air quality 30%    10.5 min   —   (offline did not finish in one day)
  Air quality 97%    49 min     —

Shape: Daisy ≈ offline on the small Nestle, offline blows up on the large
one (low Category selectivity → one pass per erroneous group), and offline
exceeds its time budget on air quality while Daisy completes.  Scales are
reduced (DESIGN.md §4): Nestle 8K/24K rows, air quality 24K rows, offline
per-group batch 10 (Nestle) and 1 (air, the faithful per-group cost), with
a wall-clock budget standing in for the paper's one-day timeout.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core import prob
from repro.core.constraints import FD
from repro.core.daisy import DaisySession
from repro.datagen.airquality import airquality_pdf
from repro.datagen.nestle import nestle_pdf
from repro.experiments.common import run_daisy_workload, run_offline_workload
from repro.workloads import airquality_queries, nestle_queries

PAPER = {
    "nestle_small": {"daisy": "2.9 min", "offline": "3.97 min"},
    "nestle_large": {"daisy": "26.8 min", "offline": "8.5 h"},
    "air_30": {"daisy": "10.5 min", "offline": "timeout(1d)"},
    "air_97": {"daisy": "49 min", "offline": "timeout(1d)"},
}

NESTLE_FD = FD(("material",), "category", name="mat_cat")
AIR_FD = FD(("state_code", "county_code"), "county_name", name="county")


def _nestle_row(spark, n_rows: int, n_queries: int, offline_budget: float) -> dict:
    dirty, _c, _t = nestle_pdf(n_rows=n_rows, n_materials=max(100, n_rows // 25))
    cats = sorted(dirty["category"].unique())
    # the analyst requests coffee products: queries touch ~40% of the data
    queries = nestle_queries(cats[: max(1, int(len(cats) * 0.4))], table="nestle")[:n_queries]
    sess = DaisySession(
        spark,
        {"nestle": prob.spark_with_tid(spark, dirty)},
        {"nestle": [NESTLE_FD]},
        use_cost_model=False,
    )
    daisy = run_daisy_workload(sess, queries)
    off = run_offline_workload(
        spark,
        prob.spark_with_tid(spark, dirty),
        [NESTLE_FD],
        queries,
        table="nestle",
        batch_size=10,
        time_budget=offline_budget,
    )
    return {
        "rows": n_rows,
        "queries": len(queries),
        "daisy": round(daisy["seconds"], 1),
        "offline": "timeout" if off["timed_out"] else round(off["seconds"], 1),
        "offline_passes": off.get("passes"),
    }


def _air_row(spark, n_rows: int, frac: float, n_queries: int, offline_budget: float) -> dict:
    dirty, _c, _t = airquality_pdf(n_rows=n_rows, target_violating_frac=frac)
    counties = sorted(dirty["county_name"].unique())
    step = max(1, len(counties) // n_queries)
    queries = airquality_queries(counties[::step][:n_queries], table="air")
    sess = DaisySession(
        spark,
        {"air": prob.spark_with_tid(spark, dirty)},
        {"air": [AIR_FD]},
        use_cost_model=False,
    )
    daisy = run_daisy_workload(sess, queries)
    off = run_offline_workload(
        spark,
        prob.spark_with_tid(spark, dirty),
        [AIR_FD],
        queries,
        table="air",
        batch_size=1,  # the faithful one-pass-per-erroneous-group cost
        time_budget=offline_budget,
    )
    return {
        "rows": n_rows,
        "queries": len(queries),
        "daisy": round(daisy["seconds"], 1),
        "offline": "timeout" if off["timed_out"] else round(off["seconds"], 1),
        "offline_passes": off.get("passes"),
    }


def run_table8(
    spark: SparkSession,
    *,
    nestle_small: int = 6_000,
    nestle_large: int = 18_000,
    air_rows: int = 18_000,
    nestle_queries_n: int = 12,
    air_queries_n: int = 10,
    offline_budget: float = 420.0,
    air_offline_budget: float = 120.0,
) -> dict:
    out: dict = {"paper": PAPER, "measured": {}}
    out["measured"]["nestle_small"] = _nestle_row(
        spark, nestle_small, nestle_queries_n, offline_budget
    )
    out["measured"]["nestle_large"] = _nestle_row(
        spark, nestle_large, nestle_queries_n, offline_budget
    )
    out["measured"]["air_30"] = _air_row(
        spark, air_rows, 0.30, air_queries_n, air_offline_budget
    )
    out["measured"]["air_97"] = _air_row(
        spark, air_rows, 0.97, air_queries_n, air_offline_budget
    )
    return out


def check_table8(out: dict) -> None:
    m = out["measured"]
    # offline blows up (or times out) on the large Nestle; Daisy completes
    if m["nestle_large"]["offline"] != "timeout":
        assert m["nestle_large"]["offline"] > m["nestle_large"]["daisy"]
    # air quality: offline exceeds its budget at the faithful per-group cost
    assert m["air_30"]["offline"] == "timeout" or m["air_30"]["offline"] > m["air_30"]["daisy"]
    # Daisy's cost grows with the violation rate (30% → 97%)
    assert m["air_97"]["daisy"] >= m["air_30"]["daisy"] * 0.8

"""Shared helpers for the experiment harnesses."""
from __future__ import annotations

import json
import pathlib
import time
from typing import Any

from pyspark.sql import DataFrame, SparkSession

from repro.core import prob
from repro.core.constraints import DC, FD, Atom
from repro.core.daisy import DaisySession
from repro.core.offline import OfflineResult, offline_clean
from repro.core.operators import run_query
from repro.core.planner import Filter, Query
from repro.datagen import ssb
from repro.datagen.errors import inject_dc_errors, inject_fd_errors, monotone_discount

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def save_results(name: str, payload: dict[str, Any]) -> pathlib.Path:
    """Persist a harness result as JSON for EXPERIMENTS.md assembly."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=str))
    return path


def warm_up(spark: SparkSession) -> None:
    """One small untimed Daisy query and offline clean, FD and DC paths both.

    Spark's first queries in a JVM pay class loading, code generation and
    JIT compilation; without a warm-up that cost lands on whichever run an
    experiment times first (Table 7's first from-scratch execution, Fig 10's
    first regime).  ``jobs/run.py`` and the benchmark suite call it once per
    JVM, before the first experiment.
    """
    clean = ssb.lineorder_pdf(n_rows=200, n_orderkeys=20, n_suppkeys=10, seed=1)
    clean["discount"] = monotone_discount(clean["extendedprice"].to_numpy())
    dirty, _ = inject_fd_errors(clean, ("orderkey",), "suppkey", frac_rows=0.1, seed=2)
    dirty, _ = inject_dc_errors(dirty, "extendedprice", "discount", seed=3)
    rules = [
        FD(("orderkey",), "suppkey", name="warm_fd"),
        DC((Atom("extendedprice", "<"), Atom("discount", ">")), name="warm_dc"),
    ]
    sess = DaisySession(
        spark, {"lineorder": prob.spark_with_tid(spark, dirty)}, {"lineorder": rules},
        use_cost_model=False, dc_partitions=4,
    )
    sess.execute(Query("lineorder", [Filter("orderkey", "between", 1, 10)])).count()
    offline_clean(prob.spark_with_tid(spark, dirty), rules, dc_partitions=4)


def run_daisy_workload(
    sess: DaisySession, queries: list[Query]
) -> dict[str, Any]:
    """Execute a workload, materializing each result; returns telemetry."""
    t0 = time.time()
    sizes = []
    for q in queries:
        sizes.append(sess.execute(q).count())
    return {
        "seconds": time.time() - t0,
        "result_sizes": sizes,
        "per_query_seconds": [round(r.seconds, 3) for r in sess.records],
        "repaired": [r.repaired for r in sess.records],
        "switched_at": sess.switched_at,
    }


def run_offline_workload(
    spark: SparkSession,
    df: DataFrame,
    rules,
    queries: list[Query],
    *,
    table: str,
    mode: str = "per_group",
    batch_size: int = 25,
    time_budget: float | None = None,
    join_tables: dict[str, DataFrame] | None = None,
) -> dict[str, Any]:
    """Offline baseline total: full cleaning + the workload over the
    probabilistic dataset (the §5.2.3 right-hand side includes q·n)."""
    t0 = time.time()
    off: OfflineResult = offline_clean(
        df, rules, mode=mode, batch_size=batch_size, time_budget=time_budget
    )
    clean_seconds = off.seconds
    if off.timed_out:
        return {
            "seconds": time.time() - t0,
            "clean_seconds": clean_seconds,
            "timed_out": True,
            "passes": off.passes,
        }
    tables = {table: off.table}
    if join_tables:
        tables.update(join_tables)
    sizes = [run_query(tables, q).count() for q in queries]
    return {
        "seconds": time.time() - t0,
        "clean_seconds": clean_seconds,
        "query_seconds": time.time() - t0 - clean_seconds,
        "result_sizes": sizes,
        "passes": off.passes,
        "repaired": off.repaired,
        "timed_out": False,
    }

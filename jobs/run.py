"""Run one of the paper's experiments by name, spark-submit style.

    python jobs/run.py fig10        # or table5, table6, ..., fig12

The result is saved under ``benchmarks/results/<name>.json`` (the file
``jobs/render_experiments.py`` reads) and printed as JSON.
"""
from __future__ import annotations

import argparse
import json
import sys

from pyspark.sql import SparkSession

from repro.experiments import save_results
from repro.experiments.figs import run_fig5, run_fig7, run_fig9, run_fig10, run_fig11, run_fig12
from repro.experiments.table5 import run_table5
from repro.experiments.table6 import run_table6
from repro.experiments.table7 import run_table7
from repro.experiments.table8 import run_table8

EXPERIMENTS = {
    "table5": run_table5,
    "table6": run_table6,
    "table7": run_table7,
    "table8": run_table8,
    "fig5": run_fig5,
    "fig7": run_fig7,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
}


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("experiment", choices=sorted(EXPERIMENTS))
    name = ap.parse_args(argv).experiment
    payload = EXPERIMENTS[name](get_spark(f"daisy-{name}"))
    save_results(name, payload)
    json.dump(payload, sys.stdout, indent=2, default=str)
    print()


if __name__ == "__main__":
    main()

"""Run one of the paper's experiments by name, spark-submit style.

    python jobs/run.py fig10        # or table5, table6, ..., fig12

The result is saved under ``benchmarks/results/<name>.json`` (the file
``jobs/render_experiments.py`` reads) and printed as JSON; then the paper's
claim is checked, and a claim that does not hold exits non-zero.
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from repro.experiments import EXPERIMENTS, run


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
    run(name, get_spark(f"daisy-{name}"))


if __name__ == "__main__":
    main()

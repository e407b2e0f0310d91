"""The paper's evaluation (§7), one unit per table or figure.

Each experiment module pairs ``run_<name>(spark)``, which returns the
paper-vs-measured payload, with ``check_<name>(out)``, which asserts the
paper's claim on it.  ``EXPERIMENTS`` registers every pair, and ``run`` is
the one runner: ``jobs/run.py`` calls it from the command line and
``benchmarks/test_experiments.py`` under pytest-benchmark.
"""
import json

from pyspark.sql import SparkSession

from repro.experiments import figs, table5, table6, table7, table8
from repro.experiments.common import save_results

EXPERIMENTS = {
    "table5": (table5.run_table5, table5.check_table5),
    "table6": (table6.run_table6, table6.check_table6),
    "table7": (table7.run_table7, table7.check_table7),
    "table8": (table8.run_table8, table8.check_table8),
    "fig5": (figs.run_fig5, figs.check_fig5),
    "fig7": (figs.run_fig7, figs.check_fig7),
    "fig9": (figs.run_fig9, figs.check_fig9),
    "fig10": (figs.run_fig10, figs.check_fig10),
    "fig11": (figs.run_fig11, figs.check_fig11),
    "fig12": (figs.run_fig12, figs.check_fig12),
}


def run(name: str, spark: SparkSession) -> None:
    """Run experiment ``name``, save and print its payload, then check its claim.

    The payload goes to ``benchmarks/results/<name>.json`` (the file
    ``jobs/render_experiments.py`` reads) before the check, so a claim that
    fails still leaves its numbers on disk; the check's ``AssertionError``
    propagates.
    """
    experiment, check = EXPERIMENTS[name]
    out = experiment(spark)
    save_results(name, out)
    print(json.dumps(out, indent=2, default=str))
    check(out)

"""The paper's experiments under pytest-benchmark, one case per registry name.

Each case runs the experiment once, saves its payload under
``benchmarks/results/`` and asserts the paper's claim
(``repro.experiments.run``).
"""
import pytest

from repro.experiments import EXPERIMENTS, run


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment(spark, benchmark, name):
    benchmark.pedantic(run, args=(name, spark), rounds=1, iterations=1)

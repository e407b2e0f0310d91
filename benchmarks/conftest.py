"""Benchmark session config: small shuffle partitioning for local frames,
and one untimed warm-up of the JVM before the first experiment."""
import os

import pytest

os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")


@pytest.fixture(scope="session", autouse=True)
def warmed_up(spark):
    from repro.experiments.common import warm_up

    warm_up(spark)

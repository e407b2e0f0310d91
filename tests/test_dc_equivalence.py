"""Daisy ≡ offline for an inequality DC: the same range fixes, row for row.

The errors are outlier discounts whose conflicts cross theta-join matrix
buckets, so a tuple's violation pairs are found by several queries; the
session must end with the fixes of the whole set of pairs, which is what
the offline cleaner computes in one pass.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import prob
from repro.core.constraints import DC, Atom
from repro.core.daisy import DaisySession
from repro.core.offline import offline_clean
from repro.core.planner import Filter, Query
from repro.core.repair_dc import FIX_COLS
from repro.datagen import ssb
from repro.datagen.errors import inject_dc_errors, monotone_discount

PRICE_DC = DC((Atom("extendedprice", "<"), Atom("discount", ">")), name="dc")
PARTITIONS = 16


def _rows(df) -> pd.DataFrame:
    out = df.select(*FIX_COLS).toPandas()
    return out.sort_values(list(FIX_COLS)).reset_index(drop=True)


def _queries(dirty: pd.DataFrame, n: int) -> list[Query]:
    edges = np.quantile(dirty["extendedprice"], np.linspace(0, 1, n + 1))
    return [
        Query("t", [Filter("extendedprice", "between", float(lo), float(hi))])
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


@pytest.fixture(scope="module")
def dirty():
    base = ssb.lineorder_pdf(n_rows=2000, n_orderkeys=200, n_suppkeys=50, seed=5)
    base["discount"] = monotone_discount(base["extendedprice"].to_numpy(), levels=2000)
    out, _ = inject_dc_errors(
        base, "extendedprice", "discount", frac_rows=0.02, shift=0.1, seed=5
    )
    return out


@pytest.fixture(scope="module")
def session(spark, dirty):
    sess = DaisySession(
        spark, {"t": prob.spark_with_tid(spark, dirty)}, {"t": [PRICE_DC]},
        use_cost_model=False, dc_partitions=PARTITIONS,
    )
    for q in _queries(dirty, 4):
        sess.execute(q).count()
    return sess


@pytest.fixture(scope="module")
def offline(spark, dirty):
    return offline_clean(
        prob.spark_with_tid(spark, dirty), [PRICE_DC], dc_partitions=PARTITIONS
    )


class TestDaisyEqualsOffline:
    def test_fix_rows_identical(self, session, offline):
        got, want = _rows(session.dc_repairs["t"]), _rows(offline.dc_repairs)
        assert len(want) > 0
        pd.testing.assert_frame_equal(got, want)

    def test_probabilities_sum_to_one_per_cell(self, session):
        sums = _rows(session.dc_repairs["t"]).groupby(["tid", "attr"])["p"].sum()
        assert (sums - 1.0).abs().max() < 1e-9

    def test_columns(self, session, offline):
        assert tuple(session.dc_repairs["t"].columns) == FIX_COLS
        assert tuple(offline.dc_repairs.columns) == FIX_COLS


class TestNoNewPair:
    """A DC query that scans no new matrix pair fixes and counts nothing."""

    def test_repeat_and_after_full_pass(self, spark, dirty):
        sess = DaisySession(
            spark, {"t": prob.spark_with_tid(spark, dirty)}, {"t": [PRICE_DC]},
            use_cost_model=False, dc_partitions=PARTITIONS, accuracy_threshold=1.01,
        )
        q1, q2 = _queries(dirty, 2)
        sess.execute(q1).count()
        before = _rows(sess.dc_repairs["t"])
        sess.execute(q1).count()
        sess.execute(q2).count()
        first, *rest = sess.records
        assert first.dc_mode == "full" and first.repaired > 0
        for rec in rest:
            assert rec.dc_mode == "full" and rec.dc_accuracy is not None
            assert rec.repaired == 0
        pd.testing.assert_frame_equal(_rows(sess.dc_repairs["t"]), before)
        assert sess.theta[("t", PRICE_DC.name)].detect(None).count() == 0

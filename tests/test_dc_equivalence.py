"""Daisy ≡ offline for an inequality DC: the same range fixes, row for row.

The errors are outlier discounts whose conflicts cross theta-join matrix
buckets, so a tuple's violation pairs are found by several queries; the
session must end with the fixes of the whole set of pairs, which is what
the offline cleaner computes in one pass.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import daisy, prob, repair_dc
from repro.core.constraints import DC, OPS, Atom
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
            assert rec.dc_mode is None and rec.dc_accuracy is None
            assert rec.repaired == 0
        pd.testing.assert_frame_equal(_rows(sess.dc_repairs["t"]), before)
        assert sess.theta[("t", PRICE_DC.name)].detect(None).count() == 0


class TestRepeatBuildsNoFixPlan:
    """A query that scans no new pair does not even build a fix plan."""

    def test_repeat_query_calls_no_dc_fixes(self, spark, dirty, monkeypatch):
        sess = DaisySession(
            spark, {"t": prob.spark_with_tid(spark, dirty)}, {"t": [PRICE_DC]},
            use_cost_model=False, dc_partitions=PARTITIONS,
        )
        q = _queries(dirty, 4)[0]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return repair_dc.dc_fixes(*args, **kwargs)

        monkeypatch.setattr(daisy, "dc_fixes", counting)
        sess.execute(q).count()
        assert len(calls) == 1
        sess.execute(q).count()
        assert len(calls) == 1 and sess.records[-1].repaired == 0


def _violating_pairs(pdf: pd.DataFrame, dc: DC) -> tuple[np.ndarray, np.ndarray]:
    """All (t1, t2) row positions violating ``dc``, by brute force."""
    ax, ay = dc.atoms
    x, y = pdf[ax.attr].to_numpy(), pdf[ay.attr].to_numpy()
    hit = OPS[ax.op](x[:, None], x[None, :]) & OPS[ay.op](y[:, None], y[None, :])
    np.fill_diagonal(hit, False)
    return np.nonzero(hit)


class TestTwoDCs:
    """Two inequality DCs on one table: one count state each, one fix frame."""

    TAX_DC = DC((Atom("extendedprice", "<"), Atom("tax", ">")), name="dc_tax")

    @pytest.fixture(scope="class")
    def two(self, dirty):
        out = dirty.copy()
        out["tax"] = monotone_discount(out["extendedprice"].to_numpy(), levels=500)
        out, _ = inject_dc_errors(out, "extendedprice", "tax", frac_rows=0.01, shift=0.2, seed=6)
        return out

    def test_fix_rows_identical_to_offline(self, spark, two):
        rules = [PRICE_DC, self.TAX_DC]
        sess = DaisySession(
            spark, {"t": prob.spark_with_tid(spark, two)}, {"t": rules},
            use_cost_model=False, dc_partitions=PARTITIONS, accuracy_threshold=0.0,
        )
        for q in _queries(two, 4):
            sess.execute(q).count()
        # the last query finds both matrices fully checked: no gate, no mode
        assert [r.dc_mode for r in sess.records] == ["partial"] * 3 + [None]
        off = offline_clean(prob.spark_with_tid(spark, two), rules, dc_partitions=PARTITIONS)
        got, want = _rows(sess.dc_repairs["t"]), _rows(off.dc_repairs)
        assert want["attr"].nunique() == 3  # both DCs found pairs
        pd.testing.assert_frame_equal(got, want)


class TestRepairedIsNewPairTids:
    """Each query's ``repaired`` is the distinct tids of the pairs it found."""

    def test_against_brute_force(self, spark, dirty):
        sess = DaisySession(
            spark, {"t": prob.spark_with_tid(spark, dirty)}, {"t": [PRICE_DC]},
            use_cost_model=False, dc_partitions=PARTITIONS, accuracy_threshold=0.0,
        )
        theta = sess.theta[("t", PRICE_DC.name)]
        t1, t2 = _violating_pairs(dirty, PRICE_DC)
        bucket = np.array([theta.bucket_of(v) for v in dirty["extendedprice"]])
        b1, b2 = bucket[t1], bucket[t2]
        seen: set[int] = set()
        for q in _queries(dirty, 4):
            sess.execute(q).count()
            scope = theta.buckets_for(q.filters)
            # a bucket pair is scanned by the first query whose scope touches it
            new = (np.isin(b1, list(scope)) | np.isin(b2, list(scope))) & ~(
                np.isin(b1, list(seen)) | np.isin(b2, list(seen))
            )
            want = len(set(t1[new]) | set(t2[new]))
            assert sess.records[-1].repaired == want
            seen |= scope
        assert sess.records[0].repaired > 0


class TestCountsAddAcrossQueries:
    """Pairs found by different queries that give a tid one range add up."""

    def test_shared_key_sums_to_offline_p(self, spark):
        # t0 has the lowest price and an outlier discount: it violates against
        # every other row, and all of them share one discount, so each of its
        # pairs gives t0 the same discount range (-inf, 0.1]
        pdf = pd.DataFrame({
            "extendedprice": [100.0 * (i + 1) for i in range(12)],
            "discount": [0.9] + [0.1] * 11,
        })
        sess = DaisySession(
            spark, {"t": prob.spark_with_tid(spark, pdf)}, {"t": [PRICE_DC]},
            use_cost_model=False, dc_partitions=9, accuracy_threshold=0.0,
        )
        theta = sess.theta[("t", PRICE_DC.name)]
        prices = sorted(pdf["extendedprice"], reverse=True)
        # one query per bucket, t0's bucket last
        by_bucket: dict[int, list[float]] = {}
        for v in prices:
            by_bucket.setdefault(theta.bucket_of(v), []).append(v)
        assert len(by_bucket) >= 3
        for vs in by_bucket.values():
            sess.execute(Query("t", [Filter("extendedprice", "in", vs)])).count()
            # each query pairs t0 with every row of its bucket
            assert sess.records[-1].repaired == len(vs) + (100.0 not in vs)
        cell = sess.dc_repairs["t"].toPandas().query("tid == 0 and attr == 'discount'")
        rng = cell[cell["lo"] == -np.inf]
        assert len(rng) == 1 and rng["hi"].iloc[0] == 0.1
        assert rng["p"].iloc[0] == pytest.approx(11 / 22)
        off = offline_clean(prob.spark_with_tid(spark, pdf), [PRICE_DC], dc_partitions=9)
        pd.testing.assert_frame_equal(_rows(sess.dc_repairs["t"]), _rows(off.dc_repairs))

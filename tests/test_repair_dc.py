"""Holistic DC repair tests — Example 5 exactness."""
import pandas as pd
import pytest

from repro.core import prob
from repro.core.constraints import DC, Atom
from repro.core.repair_dc import INF, dc_fixes
from repro.core.thetajoin import ThetaJoinCleaner

DC_RULE = DC((Atom("salary", "<"), Atom("tax", ">")), name="dc")


@pytest.fixture(scope="module")
def example5(spark):
    """Example 5: t2, t3 violate the DC (t3.salary < t2.salary, t3.tax > t2.tax)."""
    pdf = pd.DataFrame(
        {
            "salary": [1000.0, 3000.0, 2000.0],
            "tax": [0.1, 0.2, 0.3],
            "age": [31, 32, 43],
        }
    )
    d = prob.spark_with_tid(spark, pdf)
    theta = ThetaJoinCleaner(d, DC_RULE, partitions=4)
    viol = theta.detect(None)
    return viol, dc_fixes(viol, DC_RULE).toPandas()


class TestExample5:
    def test_single_violating_pair(self, example5):
        viol, _ = example5
        rows = viol.collect()
        assert len(rows) == 1
        assert (rows[0]["tid1"], rows[0]["tid2"]) == (2, 1)  # (t3, t2)

    def test_t2_candidate_ranges(self, example5):
        # paper: t2's candidates are {(<2000 50%, 3000 50%), 0.2, 32} and
        # {3000, (0.2 50%, >0.3 50%), 32} — salary range (-inf, 2000] at 50%
        # with keep 3000 at 50%, tax range [0.3, inf) at 50% with keep 0.2
        _, fixes = example5
        t2 = fixes[fixes.tid == 1]
        sal_rng = t2[(t2.attr == "salary") & (t2.lo == -INF)].iloc[0]
        assert sal_rng["hi"] == 2000.0 and sal_rng["p"] == pytest.approx(0.5)
        sal_keep = t2[(t2.attr == "salary") & (t2.lo == t2.hi)].iloc[0]
        assert sal_keep["lo"] == 3000.0 and sal_keep["p"] == pytest.approx(0.5)
        tax_rng = t2[(t2.attr == "tax") & (t2.hi == INF)].iloc[0]
        assert tax_rng["lo"] == 0.3 and tax_rng["p"] == pytest.approx(0.5)

    def test_t3_candidate_ranges(self, example5):
        # symmetric fixes for t3: salary >= 3000 or tax <= 0.2
        _, fixes = example5
        t3 = fixes[fixes.tid == 2]
        assert ((t3.attr == "salary") & (t3.lo == 3000.0) & (t3.hi == INF)).any()
        assert ((t3.attr == "tax") & (t3.lo == -INF) & (t3.hi == 0.2)).any()

    def test_probabilities_sum_to_one_per_cell(self, example5):
        _, fixes = example5
        sums = fixes.groupby(["tid", "attr"])["p"].sum()
        assert (sums - 1.0).abs().max() < 1e-9


class TestMultiplePartners:
    def test_probabilities_renormalized(self, spark):
        # one tuple violating against two partners accumulates more ranges
        pdf = pd.DataFrame({"salary": [1000.0, 2000.0, 3000.0], "tax": [0.9, 0.1, 0.2]})
        d = prob.spark_with_tid(spark, pdf)
        theta = ThetaJoinCleaner(d, DC_RULE, partitions=4)
        fixes = dc_fixes(theta.detect(None), DC_RULE).toPandas()
        # t0 (salary 1000, tax .9) violates with both others: each of its
        # cells' candidates (ranges + keep) must still sum to one
        t0 = fixes[fixes.tid == 0]
        per_cell = t0.groupby("attr")["p"].sum()
        assert (per_cell - 1.0).abs().max() < 1e-9
        assert len(t0[t0.attr == "tax"]) >= 2  # two partners → two tax ranges

"""Incremental theta-join DC detection tests (paper §4.2, Algorithm 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import prob
from repro.core.constraints import DC, Atom
from repro.core.thetajoin import ThetaJoinCleaner
from repro.datagen.errors import inject_dc_errors, monotone_discount

DC_RULE = DC((Atom("salary", "<"), Atom("tax", ">")), name="dc_sal_tax")

#: 16 rows with ties in both attributes: salary 1..16 with 8 and 12 repeated,
#: tax 1..16 with 9 and 14 repeated; with ``partitions=4`` the two rows of
#: salary 8 are the lowest of the upper bucket
TIES = pd.DataFrame({
    "salary": [1, 2, 3, 4, 5, 6, 7, 8, 8, 10, 11, 12, 12, 14, 15, 16],
    "tax": [1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 11, 12, 13, 14, 14, 16],
}).astype(float)

#: 6 rows whose salary has a single distinct value: one bucket, one cut point
SINGLE = pd.DataFrame({"salary": [5.0] * 6, "tax": [1, 2, 3, 4, 5, 6]}).astype(float)


def _brute_force(pdf: pd.DataFrame, dc: DC) -> set[tuple[int, int]]:
    rows = pdf[["salary", "tax"]].to_dict("records")
    return {
        (i, j)
        for i, t1 in enumerate(rows)
        for j, t2 in enumerate(rows)
        if i != j and dc.violates(t1, t2)
    }


def _reference_estimate(theta: ThetaJoinCleaner) -> tuple[dict, set]:
    """Alg. 2's estimate and the feasible pairs, from sorted per-bucket ys.

    The driver-side formula the cleaner used before it computed the
    estimate in Spark: per row bucket r and feasible partner c ≠ r, the
    tuples of r with y strictly above c's minimum y (``>``/``>=`` y-atom)
    or strictly below its maximum (``<``/``<=``), over ``nb - 1``.
    """
    pdf = theta.data.toPandas()
    groups = pdf.groupby("__bx")
    xlo, xhi = groups[theta.x].min(), groups[theta.x].max()
    ylo, yhi = groups[theta.y].min(), groups[theta.y].max()
    ys = {int(b): np.sort(g[theta.y].to_numpy()) for b, g in groups}
    opx, opy = (a.op for a in theta.dc.atoms)

    def rng_ok(lo1, hi1, op, lo2, hi2):
        if op in ("<", "<="):
            return lo1 < hi2 or (op == "<=" and lo1 <= hi2)
        return hi1 > lo2 or (op == ">=" and hi1 >= lo2)

    feasible = {
        (r, c) for r in ys for c in ys
        if rng_ok(xlo[r], xhi[r], opx, xlo[c], xhi[c])
        and rng_ok(ylo[r], yhi[r], opy, ylo[c], yhi[c])
    }
    est = {i: 0.0 for i in range(theta.nb)}
    for r, c in feasible:
        if r == c:
            continue
        if opy in (">", ">="):
            est[r] += float(len(ys[r]) - np.searchsorted(ys[r], ylo[c], side="right"))
        else:
            est[r] += float(np.searchsorted(ys[r], yhi[c], side="left"))
    return {r: v / max(1, theta.nb - 1) for r, v in est.items()}, feasible


@pytest.fixture(scope="module")
def dc_data(spark):
    g = np.random.default_rng(7)
    pdf = pd.DataFrame({"salary": (g.random(300) * 5000).round(0)})
    pdf["tax"] = monotone_discount(pdf["salary"].to_numpy(), levels=20)
    dirty, truth = inject_dc_errors(pdf, "salary", "tax", frac_rows=0.05, shift=0.5, seed=8)
    d = prob.spark_with_tid(spark, dirty)
    return dirty, truth, d


class TestDetection:
    # at |x| ≥ 16384 a bound ± 1e-12 is the bound itself in float64, so an
    # epsilon-widened pruning filter drops ties on a bucket edge
    @pytest.mark.parametrize("offset", [0, 100000])
    @pytest.mark.parametrize(
        "opx,opy", [("<", ">"), ("<=", ">"), ("<=", ">="), (">=", "<"), (">", "<=")]
    )
    def test_full_matrix_matches_brute_force(self, spark, dc_data, opx, opy, offset):
        dc = DC((Atom("salary", opx), Atom("tax", opy)))
        for pdf, partitions in ((dc_data[0], 16), (TIES, 4), (SINGLE, 4)):
            pdf = pdf.assign(salary=pdf["salary"] + offset)
            theta = ThetaJoinCleaner(prob.spark_with_tid(spark, pdf), dc, partitions=partitions)
            viol = theta.detect(None).toPandas()
            got = set(zip(viol["tid1"], viol["tid2"]))
            assert got == _brute_force(pdf, dc)

    def test_incremental_union_equals_full(self, dc_data):
        dirty, _, d = dc_data
        full = ThetaJoinCleaner(d, DC_RULE, partitions=16)
        all_pairs = set(
            zip(*full.detect(None).toPandas()[["tid1", "tid2"]].T.values.tolist())
        )
        inc = ThetaJoinCleaner(d, DC_RULE, partitions=16)
        got = set()
        for b in range(inc.nb):
            v = inc.detect({b}).toPandas()
            got |= set(zip(v["tid1"], v["tid2"]))
        assert got == all_pairs

    def test_no_rescan_of_checked_pairs(self, dc_data):
        _, _, d = dc_data
        theta = ThetaJoinCleaner(d, DC_RULE, partitions=16)
        theta.detect(None)
        n1 = theta.pairs_scanned
        theta.detect(None)
        assert theta.pairs_scanned == n1  # everything already checked

    def test_partition_pruning_happens(self, dc_data):
        _, _, d = dc_data
        theta = ThetaJoinCleaner(d, DC_RULE, partitions=16)
        theta.detect(None)
        total_ordered_pairs = theta.nb * theta.nb
        assert theta.pairs_scanned < total_ordered_pairs  # some pairs pruned

    def test_clean_monotone_data_has_no_violations(self, spark):
        g = np.random.default_rng(9)
        pdf = pd.DataFrame({"salary": (g.random(200) * 1000).round(0)})
        pdf["tax"] = monotone_discount(pdf["salary"].to_numpy())
        d = prob.spark_with_tid(spark, pdf)
        theta = ThetaJoinCleaner(d, DC_RULE, partitions=16)
        assert theta.detect(None).count() == 0


class TestAccuracyEstimation:
    def test_support_grows_with_checked_diagonal(self, dc_data):
        _, _, d = dc_data
        theta = ThetaJoinCleaner(d, DC_RULE, partitions=16)
        _, s0 = theta.accuracy(set(), 10)
        theta.detect({0})
        _, s1 = theta.accuracy(set(), 10)
        assert s1 >= s0

    def test_accuracy_bounded(self, dc_data):
        _, _, d = dc_data
        theta = ThetaJoinCleaner(d, DC_RULE, partitions=16)
        acc, sup = theta.accuracy({0}, 50)
        assert 0.0 <= acc <= 1.0 and 0.0 <= sup <= 1.0

    def test_dirtier_data_lower_estimated_accuracy(self, spark):
        g = np.random.default_rng(10)
        base = pd.DataFrame({"salary": (g.random(300) * 5000).round(0)})
        base["tax"] = monotone_discount(base["salary"].to_numpy(), levels=20)
        accs = []
        for frac in (0.01, 0.2):
            dirty, _ = inject_dc_errors(base, "salary", "tax", frac_rows=frac, shift=0.5, seed=11)
            d = prob.spark_with_tid(spark, dirty)
            theta = ThetaJoinCleaner(d, DC_RULE, partitions=16)
            acc, _ = theta.accuracy({0}, 30)
            accs.append(acc)
        assert accs[1] < accs[0]

    @pytest.mark.parametrize("partitions", [16, 36])
    @pytest.mark.parametrize("opx,opy", [("<", ">"), ("<=", "<"), (">", ">="), (">=", "<=")])
    def test_estimate_matches_reference(self, dc_data, opx, opy, partitions):
        _, _, d = dc_data
        dc = DC((Atom("salary", opx), Atom("tax", opy)))
        theta = ThetaJoinCleaner(d, dc, partitions=partitions)
        est, feasible = _reference_estimate(theta)
        assert theta.estimate == est
        pairs = {(r, c) for r in range(theta.nb) for c in range(theta.nb)}
        assert {p for p in pairs if theta.feasible(*p)} == feasible

    def test_bucket_of(self, dc_data):
        _, _, d = dc_data
        theta = ThetaJoinCleaner(d, DC_RULE, partitions=16)
        assert theta.bucket_of(float(theta.splits[0])) == 0
        assert theta.bucket_of(float(theta.splits[-1]) + 1) == theta.nb - 1

    @pytest.mark.parametrize("partitions", [4, 16, 36])
    def test_bucket_of_matches_spark_buckets(self, dc_data, partitions):
        _, _, d = dc_data
        theta = ThetaJoinCleaner(d, DC_RULE, partitions=partitions)
        pdf = theta.data.toPandas()
        assert set(theta.splits) <= set(pdf["salary"])  # rows on every split point
        assert [theta.bucket_of(v) for v in pdf["salary"]] == pdf["__bx"].tolist()


class TestConstruction:
    def test_two_atoms_required(self, dc_data):
        _, _, d = dc_data
        with pytest.raises(ValueError):
            ThetaJoinCleaner(d, DC((Atom("salary", "<"),)), partitions=4)

    def test_equality_atoms_rejected(self, dc_data):
        _, _, d = dc_data
        with pytest.raises(ValueError):
            ThetaJoinCleaner(d, DC((Atom("salary", "="), Atom("tax", "!="))), partitions=4)

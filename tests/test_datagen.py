"""Data-generator substrate tests (DESIGN.md §4 substitutions)."""
import numpy as np
import pandas as pd
import pytest

from repro.datagen import airquality, errors, hospital, nestle, ssb


class TestSSB:
    def test_fd_holds_in_clean_lineorder(self):
        lo = ssb.lineorder_pdf(n_rows=3000, n_orderkeys=300, n_suppkeys=30)
        assert lo.groupby("orderkey")["suppkey"].nunique().max() == 1

    @pytest.mark.parametrize("n_ok,n_sk", [(100, 10), (500, 50), (1000, 20)])
    def test_cardinality_knobs(self, n_ok, n_sk):
        lo = ssb.lineorder_pdf(n_rows=4000, n_orderkeys=n_ok, n_suppkeys=n_sk)
        assert lo["orderkey"].nunique() <= n_ok
        assert lo["suppkey"].nunique() <= n_sk

    def test_deterministic(self):
        a = ssb.lineorder_pdf(n_rows=500, seed=1)
        b = ssb.lineorder_pdf(n_rows=500, seed=1)
        pd.testing.assert_frame_equal(a, b)

    def test_supplier_fd_holds(self):
        s = ssb.supplier_pdf(n_suppkeys=50)
        assert s.groupby("address")["suppkey"].nunique().max() == 1


class TestFDErrors:
    def test_every_edit_creates_violation(self):
        lo = ssb.lineorder_pdf(n_rows=2000, n_orderkeys=200, n_suppkeys=20)
        dirty, truth = errors.inject_fd_errors(
            lo, ("orderkey",), "suppkey", frac_groups=1.0, frac_rows=0.1, seed=2
        )
        nun = dirty.groupby("orderkey")["suppkey"].nunique()
        edited_groups = dirty.loc[truth["rid"], "orderkey"].unique()
        assert (nun.loc[edited_groups] > 1).all()

    def test_truth_records_clean_values(self):
        lo = ssb.lineorder_pdf(n_rows=1000, n_orderkeys=100, n_suppkeys=10)
        dirty, truth = errors.inject_fd_errors(lo, ("orderkey",), "suppkey", seed=3)
        for rid, _a, cv, dv in truth.itertuples(index=False):
            assert lo.at[rid, "suppkey"] == cv
            assert dirty.at[rid, "suppkey"] == dv
            assert cv != dv

    def test_frac_groups_partial(self):
        lo = ssb.lineorder_pdf(n_rows=4000, n_orderkeys=400, n_suppkeys=40)
        dirty, _ = errors.inject_fd_errors(
            lo, ("orderkey",), "suppkey", frac_groups=0.2, frac_rows=0.1, seed=4
        )
        nun = dirty.groupby("orderkey")["suppkey"].nunique()
        frac = (nun > 1).mean()
        assert 0.1 < frac < 0.35

    def test_group_keeps_a_clean_majority(self):
        lo = ssb.lineorder_pdf(n_rows=2000, n_orderkeys=100, n_suppkeys=10)
        dirty, _ = errors.inject_fd_errors(
            lo, ("orderkey",), "suppkey", frac_groups=1.0, frac_rows=0.1, seed=5
        )
        # 10% edits per group: the modal suppkey per group stays the true one
        mode = dirty.groupby("orderkey")["suppkey"].agg(lambda s: s.mode().iat[0])
        true = lo.groupby("orderkey")["suppkey"].first()
        assert (mode == true).mean() > 0.95

    def test_single_value_domain_rejected(self):
        df = pd.DataFrame({"k": [1, 1], "v": ["x", "x"]})
        with pytest.raises(ValueError):
            errors.inject_fd_errors(df, ("k",), "v")


class TestLhsErrors:
    def test_replacement_from_domain(self):
        hd = pd.DataFrame({"zip": ["a", "b", "c", "d"] * 10, "x": range(40)})
        dirty, truth = errors.inject_lhs_errors(hd, "zip", frac_rows=0.2, seed=6)
        assert len(truth) == 8
        assert dirty["zip"].isin(["a", "b", "c", "d"]).all()
        for rid, _a, cv, dv in truth.itertuples(index=False):
            assert cv != dv and dirty.at[rid, "zip"] == dv


class TestDCErrors:
    def test_monotone_clean_satisfies_dc(self):
        g = np.random.default_rng(0)
        price = g.random(500) * 1000
        disc = errors.monotone_discount(price)
        s = pd.DataFrame({"p": price, "d": disc}).sort_values("p")
        assert (s["d"].diff().dropna() >= -1e-12).all()

    @pytest.mark.parametrize("frac", [0.01, 0.05])
    def test_injection_creates_violations(self, frac):
        g = np.random.default_rng(1)
        pdf = pd.DataFrame({"price": g.random(400) * 1000})
        pdf["disc"] = errors.monotone_discount(pdf["price"].to_numpy())
        dirty, truth = errors.inject_dc_errors(pdf, "price", "disc", frac_rows=frac, seed=2)
        assert len(truth) == max(1, round(frac * 400))
        # at least one edited row now participates in a violating pair
        s = dirty.sort_values("price").reset_index(drop=True)
        viol = (s["disc"].diff().dropna() < -1e-12).any()
        assert viol


class TestHospital:
    def test_shape_and_attrs(self):
        dirty, clean, truth = hospital.hospital_pdf(n_hospitals=40)
        assert list(dirty.columns) == hospital.ATTRS_19 and len(dirty.columns) == 19
        assert len(dirty) == len(clean) == 40 * 6

    def test_clean_version_satisfies_all_rules(self):
        _, clean, _ = hospital.hospital_pdf(n_hospitals=40)
        assert clean.groupby("zip")["city"].nunique().max() == 1
        assert clean.groupby("name")["zip"].nunique().max() == 1
        assert clean.groupby("phone")["zip"].nunique().max() == 1

    def test_errors_recorded(self):
        dirty, clean, truth = hospital.hospital_pdf(n_hospitals=60)
        assert len(truth) > 0
        for rid, attr, cv, dv in truth[["rid", "attr", "clean_value", "dirty_value"]].itertuples(index=False):
            assert dirty.at[rid, attr] == dv

    def test_zip_errors_violate_name_rule(self):
        dirty, _, truth = hospital.hospital_pdf(n_hospitals=60)
        zips = truth[truth["attr"] == "zip"]
        nun = dirty.groupby("name")["zip"].nunique()
        names = dirty.loc[zips["rid"], "name"]
        assert (nun.loc[names.unique()] > 1).all()


class TestNestle:
    def test_conflict_rate(self):
        dirty, clean, _ = nestle.nestle_pdf(n_rows=6000, n_materials=300)
        nun = dirty.groupby("material")["category"].nunique()
        assert (nun > 1).mean() > 0.85
        assert clean.groupby("material")["category"].nunique().max() == 1

    def test_low_category_selectivity(self):
        dirty, _, _ = nestle.nestle_pdf(n_rows=4000, n_materials=200, n_categories=20)
        assert dirty["category"].nunique() <= 20


class TestAirQuality:
    @pytest.mark.parametrize("target,lo,hi", [(0.3, 0.2, 0.45), (0.97, 0.9, 1.0)])
    def test_violating_row_fraction(self, target, lo, hi):
        dirty, _, _ = airquality.airquality_pdf(n_rows=15000, target_violating_frac=target)
        key = dirty["state_code"].astype(str) + "_" + dirty["county_code"].astype(str)
        nun = dirty.groupby(key)["county_name"].nunique()
        frac = key.isin(nun[nun > 1].index).mean()
        assert lo <= frac <= hi

    def test_composite_lhs_needed(self):
        # county_code alone collides across states (the lhs is genuinely composite)
        _, clean, _ = airquality.airquality_pdf(n_rows=15000)
        assert clean.groupby("county_code")["county_name"].nunique().max() > 1
        key = clean["state_code"].astype(str) + "_" + clean["county_code"].astype(str)
        assert clean.groupby(key)["county_name"].nunique().max() == 1

    def test_errors_on_nonfrequent_groups(self):
        dirty, _, truth = airquality.airquality_pdf(n_rows=15000, target_violating_frac=0.3)
        key = dirty["state_code"].astype(str) + "_" + dirty["county_code"].astype(str)
        sizes = key.value_counts()
        err_keys = key.loc[truth["rid"]]
        # edited groups are drawn from the small-group end
        assert sizes.loc[err_keys.unique()].median() <= sizes.median()

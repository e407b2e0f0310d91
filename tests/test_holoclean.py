"""HolocleanSim substrate, DaisyP world-MAP selection, and accuracy metrics."""
import pandas as pd
import pytest

from repro.core.constraints import FD
from repro.holoclean.metrics import Accuracy, score_repairs
from repro.holoclean.sim import (
    HolocleanSim,
    daisy_domains_for_holoclean,
    daisy_p_choose,
)

PHI1 = FD(("zip",), "city", name="phi1")


@pytest.fixture()
def small_hospital():
    # two cities, two zips each; hospital rows with one zip error injected
    rows = []
    for h, (z, c) in enumerate(
        [("z1", "LA"), ("z2", "LA"), ("z3", "SF"), ("z4", "SF")] * 2
    ):
        for m in range(3):
            rows.append(
                {"name": f"h{h}", "zip": z, "city": c, "county": f"cty{h % 4}",
                 "measure": f"m{m}"}
            )
    clean = pd.DataFrame(rows)
    dirty = clean.copy()
    # row 0 (h0, z1, LA) gets zip z3 (an SF zip): violates zip→city at z3
    dirty.at[0, "zip"] = "z3"
    truth = pd.DataFrame(
        [(0, "zip", "z1", "z3")], columns=["rid", "attr", "clean_value", "dirty_value"]
    )
    return dirty, clean, truth


class TestMetrics:
    def test_f1(self):
        a = Accuracy(1.0, 0.5)
        assert a.f1 == pytest.approx(2 / 3)

    def test_f1_zero(self):
        assert Accuracy(0.0, 0.0).f1 == 0.0

    def test_score_counts_updates(self, small_hospital):
        dirty, clean, truth = small_hospital
        chosen = pd.DataFrame(
            [(0, "zip", "z1"), (1, "zip", "z1")], columns=["rid", "attr", "value"]
        )
        acc = score_repairs(chosen, dirty, clean, truth, ["zip"])
        # one correct update (rid 0 back to z1); rid 1 unchanged (z1 == observed)
        assert acc.precision == 1.0 and acc.recall == 1.0

    def test_wrong_update_hurts_precision(self, small_hospital):
        dirty, clean, truth = small_hospital
        chosen = pd.DataFrame(
            [(0, "zip", "z1"), (3, "zip", "z9")], columns=["rid", "attr", "value"]
        )
        acc = score_repairs(chosen, dirty, clean, truth, ["zip"])
        assert acc.precision == 0.5 and acc.recall == 1.0

    def test_attr_scoping(self, small_hospital):
        dirty, clean, truth = small_hospital
        chosen = pd.DataFrame([(0, "city", "SF")], columns=["rid", "attr", "value"])
        acc = score_repairs(chosen, dirty, clean, truth, ["zip"])
        assert acc.recall == 0.0  # city updates don't count toward zip errors


class TestHolocleanSim:
    def test_detects_dirty_cells(self, small_hospital):
        dirty, _, _ = small_hospital
        sim = HolocleanSim(dirty, [PHI1])
        cells = sim.dirty_cells()
        # the violating zip group z3 contains rid 0 plus h2's rows
        assert (0, "zip") in cells and (0, "city") in cells

    def test_domains_contain_truth(self, small_hospital):
        dirty, clean, _ = small_hospital
        sim = HolocleanSim(dirty, [PHI1], domain_threshold=0.01)
        dom = sim.domains()
        assert "z1" in dom[(0, "zip")]  # the true value is recoverable

    def test_threshold_prunes(self, small_hospital):
        dirty, _, _ = small_hospital
        tight = HolocleanSim(dirty, [PHI1], domain_threshold=0.9)
        loose = HolocleanSim(dirty, [PHI1], domain_threshold=0.0)
        dtight = tight.domains()
        dloose = loose.domains()
        assert all(len(dtight[k]) <= len(dloose[k]) for k in dtight)

    def test_inference_uses_context(self, small_hospital):
        dirty, clean, truth = small_hospital
        sim = HolocleanSim(
            dirty, [PHI1], context_attrs=["name", "county"], domain_threshold=0.01, margin=0.0
        )
        res = sim.run()
        acc = score_repairs(res.chosen, dirty, clean, truth, ["zip", "city"])
        # name/county co-occurrence points rid 0's zip back to z1
        assert acc.recall > 0.9

    def test_margin_makes_it_conservative(self, small_hospital):
        dirty, clean, truth = small_hospital
        sim = HolocleanSim(dirty, [PHI1], margin=10.0)  # impossible margin
        res = sim.run()
        acc = score_repairs(res.chosen, dirty, clean, truth, ["zip", "city"])
        assert acc.precision == 1.0 and acc.recall == 0.0  # never updates


class TestDaisyP:
    def test_single_rule_keep_lhs_world_majority(self):
        # tuple 0 (z1, SF): world-1 city candidates strongly favor 'LA' and
        # the observed (z1, SF) combo is poorly supported — MAP with the
        # change prior picks the single-cell city fix and keeps the zip
        cands = {
            "city": pd.DataFrame(
                [(0, "LA", 0.95, 1), (0, "SF", 0.05, 1), (0, "SF", 1.0, 2)],
                columns=["tid", "v", "p", "w"],
            ),
            "zip": pd.DataFrame(
                [(0, "z1", 1.0, 1), (0, "z1", 0.1, 2), (0, "z9", 0.9, 2)],
                columns=["tid", "v", "p", "w"],
            ),
        }
        dirty = pd.DataFrame({"zip": ["z1"], "city": ["SF"]})
        chosen = daisy_p_choose(cands, dirty, [PHI1])
        got = dict(zip(chosen["attr"], chosen["value"]))
        assert got["city"] == "LA" and got["zip"] == "z1"

    def test_two_rules_resolve_consistently(self):
        # phi2 (name→zip) evidence pins zip to z1; phi1's keep-rhs world then
        # agrees city stays observed — the multi-rule Table 5 mechanism
        phi2 = FD(("name",), "zip", name="phi2")
        cands = {
            "city": pd.DataFrame(
                [(0, "Y", 0.9, 1), (0, "X", 0.1, 1), (0, "X", 1.0, 2)],
                columns=["tid", "v", "p", "w"],
            ),
            "zip": pd.DataFrame(
                [
                    (0, "zB", 1.0, 1),   # phi1 keep-lhs (observed, wrong)
                    (0, "z1", 0.55, 2),  # phi1 lhs world: zips of city X
                    (0, "zB", 0.05, 2),
                    (0, "z1", 0.85, 1),  # phi2 merged rhs world (name evidence)
                    (0, "zB", 0.15, 1),
                    (0, "zB", 1.0, 3),   # phi2 keep-rhs
                ],
                columns=["tid", "v", "p", "w"],
            ),
            "name": pd.DataFrame(
                # P(name | zip=zB): the err row is the only h0 row in group
                # zB, so zB's majority name is some other hospital's
                [(0, "hX", 0.9, 3), (0, "h0", 0.1, 3), (0, "h0", 1.0, 1)],
                columns=["tid", "v", "p", "w"],
            ),
        }
        dirty = pd.DataFrame({"zip": ["zB"], "city": ["X"], "name": ["h0"]})
        chosen = daisy_p_choose(cands, dirty, [PHI1, phi2])
        got = dict(zip(chosen["attr"], chosen["value"]))
        assert got["zip"] == "z1"  # error fixed through name evidence
        assert got["city"] == "X"  # correct city kept (no wrong update)

    def test_change_prior_prefers_fewer_edits(self):
        cands = {
            "city": pd.DataFrame(
                [(0, "Y", 0.6, 1), (0, "X", 0.4, 1), (0, "X", 1.0, 2)],
                columns=["tid", "v", "p", "w"],
            ),
            "zip": pd.DataFrame(
                [(0, "zB", 1.0, 1), (0, "zB", 0.7, 2), (0, "z1", 0.3, 2)],
                columns=["tid", "v", "p", "w"],
            ),
        }
        dirty = pd.DataFrame({"zip": ["zB"], "city": ["X"]})
        # keep-rhs world keeps everything observed at 0.7 ≥ 0.6·λ — no edit
        chosen = daisy_p_choose(cands, dirty, [PHI1], change_prior=0.5)
        got = dict(zip(chosen["attr"], chosen["value"]))
        assert got["city"] == "X" and got["zip"] == "zB"

    def test_daisy_domains_conversion(self):
        cands = {
            "zip": pd.DataFrame(
                [(0, "z1", 0.5, 1), (0, "z2", 0.5, 1), (1, "z3", 1.0, 2)],
                columns=["tid", "v", "p", "w"],
            )
        }
        dom = daisy_domains_for_holoclean(cands)
        assert dom[(0, "zip")] == ["z1", "z2"] and dom[(1, "zip")] == ["z3"]

"""Cost-model tests (paper §5.2; calibration documented in cost.py)."""
import pytest

from repro.core.cost import CostModel, QueryCost


class TestRecord:
    def test_visited_accumulates(self):
        cm = CostModel(n=1000, eps_total=100, p=2.0)
        cm.record(QueryCost(q_i=100, e_i=50, eps_i=10))
        cm.record(QueryCost(q_i=200, e_i=0, eps_i=20))
        assert cm.visited == 300 and cm.cleaned_eps == 30

    def test_visited_capped_at_n(self):
        cm = CostModel(n=100, eps_total=10, p=1.0)
        cm.record(QueryCost(q_i=80, e_i=0, eps_i=5))
        cm.record(QueryCost(q_i=80, e_i=0, eps_i=5))
        assert cm.visited == 100

    def test_unvisited_term_shrinks(self):
        cm = CostModel(n=1000, eps_total=100, p=2.0)
        cm.record(QueryCost(q_i=500, e_i=0, eps_i=0))
        spent1 = cm.incremental_spent
        cm.record(QueryCost(q_i=500, e_i=0, eps_i=0))
        # second query's u_i term is n-500, cheaper than the first's n
        assert cm.incremental_spent - spent1 < spent1

    def test_update_term_grows_with_p(self):
        # Fig 7's driver: previously repaired cells are p candidates wide and
        # are rewritten on every update
        lo = CostModel(n=1000, eps_total=500, p=2.0)
        hi = CostModel(n=1000, eps_total=500, p=200.0)
        for cm in (lo, hi):
            cm.record(QueryCost(q_i=100, e_i=0, eps_i=100))
            cm.record(QueryCost(q_i=100, e_i=0, eps_i=100))
        assert hi.incremental_spent > lo.incremental_spent

    def test_eps_remaining(self):
        cm = CostModel(n=100, eps_total=50, p=1.0)
        cm.record(QueryCost(q_i=10, e_i=0, eps_i=20))
        assert cm.eps_remaining == 30


class TestSwitchDecision:
    def test_no_switch_when_clean(self):
        cm = CostModel(n=1000, eps_total=0, p=1.0)
        cm.record(QueryCost(q_i=10, e_i=0, eps_i=0))
        assert not cm.should_switch()

    def test_no_switch_when_everything_repaired(self):
        cm = CostModel(n=1000, eps_total=100, p=1.0)
        cm.record(QueryCost(q_i=100, e_i=100, eps_i=100))
        assert not cm.should_switch()

    def test_no_switch_high_yield_low_p(self):
        # Fig 5/9 regime: each query repairs a solid slice at small p
        cm = CostModel(n=10_000, eps_total=1_000, p=2.0, avg_group_size=10)
        for _ in range(3):
            cm.record(QueryCost(q_i=500, e_i=100, eps_i=300))
        assert not cm.should_switch()

    def test_switch_low_yield_high_p(self):
        # Fig 7 regime: low per-query repair yield and a huge candidate
        # domain p → projection exceeds full cleaning
        cm = CostModel(n=10_000, eps_total=9_000, p=50.0, avg_group_size=10)
        for _ in range(5):
            cm.record(QueryCost(q_i=100, e_i=5_000, eps_i=10))
        assert cm.should_switch()

    def test_safety_scales_threshold(self):
        cm = CostModel(n=10_000, eps_total=9_000, p=50.0, avg_group_size=10, safety=1000.0)
        for _ in range(5):
            cm.record(QueryCost(q_i=100, e_i=5_000, eps_i=10))
        assert not cm.should_switch()

    def test_offline_reference_scales_with_groups(self):
        few = CostModel(n=10_000, eps_total=1_000, p=2.0, avg_group_size=100)
        many = CostModel(n=10_000, eps_total=1_000, p=2.0, avg_group_size=2)
        # more erroneous groups → more per-group passes → pricier offline
        assert many.full_remaining_cost() > few.full_remaining_cost()


class TestOfflineTotal:
    def test_projection_zero_without_history(self):
        cm = CostModel(n=100, eps_total=10, p=1.0)
        assert cm.projected_incremental_cost() == 0.0

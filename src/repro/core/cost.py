"""Cost model for incremental vs. full cleaning (paper §5.2).

§5.2.2 prices the i-th incremental query as unvisited scan + error
detection + repair over the enhanced result + dataset update, and §5.2.3
compares the workload total against the offline cost ``q·n + df + ε·n + n +
ε·p``.  Online, the total query count is unknown, so the session applies the
inequality the way Figs 7/12 describe: after each query it projects the
remaining incremental cost from measured per-query averages and switches to
cleaning the rest of the dataset when the projection exceeds the
full-cleaning estimate.

Calibration to this reproduction (documented in DESIGN.md): the incremental
update term uses the paper's ``(n − Σε) + Σε·p + ε_i·p`` form — rewriting
previously-repaired *probabilistic* (p candidate values wide) cells every
query is exactly what makes high-p workloads favor offline (Fig 7's
narrative); the offline reference prices repair as batched per-group passes
(``G_rem/B`` dataset scans), matching the per-group baseline of
:mod:`repro.core.offline`, and detection/repair over the enhanced result as
one pass (our repair is vectorized, not per-error).
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class QueryCost:
    """Measured per-query quantities (row counts, the paper's cost unit)."""

    q_i: int  # result size
    e_i: int  # extra (correlated) tuples
    eps_i: int  # erroneous tuples repaired this query


@dataclass
class CostModel:
    """Tracks workload cost and decides when to switch strategy (§5.2.3)."""

    n: int  # dataset size
    eps_total: int  # tuples in violating groups (precomputed stat)
    p: float  # avg candidate values per erroneous cell (precomputed stat)
    avg_group_size: float = 10.0  # tuples per violating group (stat)
    batch: int = 25  # offline per-group batch size B
    safety: float = 1.0  # multiplier on the full-cleaning estimate
    history: list[QueryCost] = field(default_factory=list)
    cleaned_eps: int = 0
    visited: int = 0
    incremental_spent: float = 0.0

    def record(self, c: QueryCost) -> None:
        u_i = max(0, self.n - self.visited)  # unvisited scan term
        detect_i = c.q_i + c.e_i
        repair_i = c.q_i + c.e_i  # one vectorized pass over the enhanced result
        # paper's update term: (n − Σε) + Σε·p + ε_i·p — previously repaired
        # cells are p candidates wide and are rewritten on every update
        update_i = (
            max(0, self.n - self.cleaned_eps)
            + self.cleaned_eps * self.p
            + c.eps_i * self.p
        )
        self.incremental_spent += u_i + detect_i + repair_i + update_i
        self.visited = min(self.n, self.visited + c.q_i)
        self.cleaned_eps += c.eps_i
        self.history.append(c)

    @property
    def eps_remaining(self) -> int:
        return max(0, self.eps_total - self.cleaned_eps)

    @property
    def groups_remaining(self) -> float:
        return self.eps_remaining / max(1.0, self.avg_group_size)

    def full_remaining_cost(self) -> float:
        """Cost of cleaning the remaining dirty part offline right now.

        detect over the rest + batched per-group repair passes (the paper's
        offline shape, cost ∝ #erroneous groups) + one update pass + writing
        the probabilistic values.
        """
        rest = max(0, self.n - self.visited)
        repair_passes = self.groups_remaining / max(1, self.batch)
        return rest + repair_passes * self.n + self.n + self.eps_remaining * self.p

    def projected_incremental_cost(self) -> float:
        """Remaining incremental cost, extrapolated from measured averages."""
        done = [h for h in self.history if h.eps_i > 0]
        if not done or self.eps_remaining == 0:
            return 0.0
        avg_cost = self.incremental_spent / len(self.history)
        avg_yield = max(1.0, sum(h.eps_i for h in done) / len(done))
        est_queries_left = self.eps_remaining / avg_yield
        return avg_cost * est_queries_left

    def should_switch(self) -> bool:
        """True ⇔ projected incremental cost exceeds full-cleaning cost."""
        if self.eps_remaining == 0:
            return False
        return self.projected_incremental_cost() > self.safety * self.full_remaining_cost()


"""The three Daisy query sessions the benchmark replays.

Every generator seed is derived from the one workload seed given on the
command line, so the same seed always yields the same tables and queries.
``SIZES`` holds the measured sizes and ``SMOKE_SIZES`` tiny ones that run the
same path on a fraction of the data (see README.md for why each workload
exists).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.constraints import DC, FD, Atom
from repro.core.planner import Filter, Query
from repro.datagen import ssb
from repro.datagen.errors import inject_dc_errors, inject_fd_errors, monotone_discount
from repro.workloads import join_queries, sp_range_queries

PHI = FD(("orderkey",), "suppkey", name="phi")
PRICE_DC = DC((Atom("extendedprice", "<"), Atom("discount", ">")), name="dc")

NAMES = ("sp_rhs", "mixed_spj", "dc_range")

SIZES = {
    "sp_rhs": dict(n_rows=4_000, n_orderkeys=60, n_suppkeys=120, n_queries=4),
    "mixed_spj": dict(n_rows=2_000, n_orderkeys=600, n_suppkeys=24, n_join=1),
    "dc_range": dict(n_rows=10_000, n_queries=5, dc_partitions=36),
}
SMOKE_SIZES = {
    "sp_rhs": dict(n_rows=600, n_orderkeys=30, n_suppkeys=24, n_queries=2),
    "mixed_spj": dict(n_rows=400, n_orderkeys=120, n_suppkeys=12, n_join=1),
    "dc_range": dict(n_rows=600, n_queries=2, dc_partitions=9),
}


@dataclass
class Workload:
    """Generated inputs of one session: pandas tables, rules, queries."""

    name: str
    seed: int
    tables: dict[str, pd.DataFrame]
    rules: dict[str, list]
    queries: list[Query]
    session_kwargs: dict = field(default_factory=dict)
    offline_kwargs: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)

    @property
    def cleaned_table(self) -> str:
        """The table the rules are on (the others are rule-free)."""
        return next(t for t, rs in self.rules.items() if rs)

    @property
    def fd_attrs(self) -> list[str]:
        """Attributes whose candidate sets the equivalence check compares."""
        fds = [r for r in self.rules[self.cleaned_table] if isinstance(r, FD)]
        return sorted({a for fd in fds for a in fd.attrs})

    @property
    def has_dc(self) -> bool:
        return any(isinstance(r, DC) for r in self.rules[self.cleaned_table])


def _seeds(seed: int, n: int) -> list[int]:
    """``n`` independent generator seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n) % (2**31)]


def build(name: str, seed: int, *, smoke: bool = False) -> Workload:
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    sizes = (SMOKE_SIZES if smoke else SIZES)[name]
    if name == "sp_rhs":
        return _sp_rhs(seed, **sizes)
    if name == "mixed_spj":
        return _mixed_spj(seed, **sizes)
    return _dc_range(seed, **sizes)


def _dirty_lineorder(n_rows, n_orderkeys, n_suppkeys, lo_seed, err_seed) -> pd.DataFrame:
    lo = ssb.lineorder_pdf(
        n_rows=n_rows, n_orderkeys=n_orderkeys, n_suppkeys=n_suppkeys, seed=lo_seed
    )
    dirty, _ = inject_fd_errors(lo, ("orderkey",), "suppkey", frac_rows=0.1, seed=err_seed)
    return dirty


def _sp_rhs(seed, *, n_rows, n_orderkeys, n_suppkeys, n_queries) -> Workload:
    """Fig 5/9 shape: rhs (suppkey) ranges covering the domain under φ."""
    lo_seed, err_seed = _seeds(seed, 2)
    dirty = _dirty_lineorder(n_rows, n_orderkeys, n_suppkeys, lo_seed, err_seed)
    return Workload(
        name="sp_rhs",
        seed=seed,
        tables={"lineorder": dirty},
        rules={"lineorder": [PHI]},
        queries=sp_range_queries("suppkey", 1, n_suppkeys, n_queries),
        session_kwargs=dict(use_cost_model=False),
        sizes=dict(n_rows=n_rows, n_orderkeys=n_orderkeys, n_suppkeys=n_suppkeys,
                   n_queries=n_queries),
    )


def _mixed_spj(seed, *, n_rows, n_orderkeys, n_suppkeys, n_join) -> Workload:
    """Fig 12 shape: an orderkey SP query, then lineorder ⋈ supplier joins.

    q1 is the first of ``n_join + 1`` equal orderkey ranges: an lhs filter,
    the same on every seed, so the first answer takes the two-round
    relaxation and does the same work across seeds.  The joins cover the
    suppkey domain, so the session cleans the whole table.
    """
    lo_seed, err_seed, sup_seed = _seeds(seed, 3)
    dirty = _dirty_lineorder(n_rows, n_orderkeys, n_suppkeys, lo_seed, err_seed)
    sup = ssb.supplier_pdf(n_suppkeys=n_suppkeys, rows_per_supp=3, seed=sup_seed)
    first = sp_range_queries("orderkey", 1, n_orderkeys, n_join + 1)[0]
    queries = [first, *join_queries("suppkey", 1, n_suppkeys, n_join)]
    return Workload(
        name="mixed_spj",
        seed=seed,
        tables={"lineorder": dirty, "supplier": sup},
        rules={"lineorder": [PHI], "supplier": []},
        queries=queries,
        session_kwargs=dict(use_cost_model=False),
        sizes=dict(n_rows=n_rows, n_orderkeys=n_orderkeys, n_suppkeys=n_suppkeys,
                   n_queries=len(queries), n_join=n_join),
    )


def _dc_range(seed, *, n_rows, n_queries, dc_partitions) -> Workload:
    """Fig 10 2% regime: extendedprice ranges under the price DC.

    Errors are injected into each bucket of the theta-join matrix on its own
    (``√dc_partitions`` quantile buckets of extendedprice): the same share of
    rows in each, donors inside the bucket and a band of conflicting tuples
    1% of the table wide.  The buckets' value ranges stay those of the clean
    table, so the matrix cells a query scans and the violations it finds do
    not depend on the seed.
    """
    lo_seed, err_seed = _seeds(seed, 2)
    base = ssb.lineorder_pdf(
        n_rows=n_rows, n_orderkeys=max(1, n_rows // 10), n_suppkeys=50, seed=lo_seed
    ).drop(columns=["discount"])
    # strictly increasing discount keeps the clean table DC-consistent
    base["discount"] = monotone_discount(base["extendedprice"].to_numpy(), levels=n_rows)
    price = base["extendedprice"].to_numpy()
    g = math.isqrt(dc_partitions)
    cuts = np.quantile(price, np.linspace(0, 1, g + 1))
    dirty = base.copy()
    for i, bucket_seed in enumerate(_seeds(err_seed, g)):
        upper = price <= cuts[i + 1] if i == g - 1 else price < cuts[i + 1]
        part = base[(price >= cuts[i]) & upper]
        edited, _ = inject_dc_errors(part, "extendedprice", "discount", frac_rows=0.002,
                                     shift=0.01 * n_rows / len(part), seed=bucket_seed)
        dirty.loc[part.index, "discount"] = edited["discount"].to_numpy()
    # equal-count ranges: with 5 queries and 6 buckets every edge lies a fifth
    # of a bucket or more from a bucket boundary, so each query touches the
    # same buckets on every seed
    edges = np.quantile(price, np.linspace(0, 1, n_queries + 1))
    queries = [
        Query("t", [Filter("extendedprice", "between", float(edges[i]), float(edges[i + 1]))])
        for i in range(n_queries)
    ]
    return Workload(
        name="dc_range",
        seed=seed,
        tables={"t": dirty},
        rules={"t": [PRICE_DC]},
        queries=queries,
        session_kwargs=dict(use_cost_model=False, dc_partitions=dc_partitions),
        offline_kwargs=dict(dc_partitions=dc_partitions),
        sizes=dict(n_rows=n_rows, n_queries=n_queries, dc_partitions=dc_partitions),
    )

"""Star Schema Benchmark (SSB) lite generators with cardinality knobs.

The paper (§7) evaluates on SSB's ``lineorder`` fact table, constructed so
that the FD ``orderkey → suppkey`` holds in the clean version (each order is
served by exactly one supplier), then perturbed by BART-like error injection
(:mod:`repro.datagen.errors`).  The number of *distinct* orderkeys and
suppkeys is a knob (paper: 5K–100K orderkeys, 100–10K suppkeys) because it
controls group sizes and therefore relaxation / repair cost.

All generators are deterministic in ``seed`` and return pandas DataFrames
(row counts here are ≤ a few hundred thousand).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

# Scaled-down row counts: the paper's lineorder is 60 MB (~600K rows); we
# default to 60K rows (documented substitution in DESIGN.md §4-5).
DEFAULT_ROWS = 60_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineorder_pdf(
    *,
    n_rows: int = DEFAULT_ROWS,
    n_orderkeys: int = 5_000,
    n_suppkeys: int = 100,
    n_partkeys: int = 2_000,
    n_custkeys: int = 3_000,
    n_dates: int = 2_000,
    seed: int = 7,
) -> pd.DataFrame:
    """Clean lineorder: ``orderkey → suppkey`` holds by construction.

    Each orderkey is assigned one suppkey; rows reference orderkeys
    uniformly, so group sizes are ~``n_rows / n_orderkeys``.
    """
    g = _rng(seed)
    order_to_supp = g.integers(1, n_suppkeys + 1, n_orderkeys)
    orderkey = g.integers(1, n_orderkeys + 1, n_rows)
    pdf = pd.DataFrame(
        {
            "orderkey": orderkey,
            "suppkey": order_to_supp[orderkey - 1],
            "partkey": g.integers(1, n_partkeys + 1, n_rows),
            "custkey": g.integers(1, n_custkeys + 1, n_rows),
            "datekey": g.integers(1, n_dates + 1, n_rows),
            "quantity": g.integers(1, 51, n_rows).astype("int64"),
            "extendedprice": (g.random(n_rows) * 90_000 + 900).round(2),
            "discount": (g.integers(0, 11, n_rows) / 100.0),
            "revenue": (g.random(n_rows) * 100_000).round(2),
        }
    )
    return pdf


def supplier_pdf(*, n_suppkeys: int = 100, rows_per_supp: int = 4, seed: int = 8) -> pd.DataFrame:
    """Clean supplier with ``address → suppkey`` true by construction.

    Suppliers are denormalized into several rows each (as after the paper's
    lineorder⋈supplier join experiments) so the FD has non-trivial groups.
    Each address belongs to exactly one suppkey.
    """
    g = _rng(seed)
    n = n_suppkeys * rows_per_supp
    suppkey = np.repeat(np.arange(1, n_suppkeys + 1), rows_per_supp)
    pdf = pd.DataFrame(
        {
            "s_rowid": np.arange(n),
            "suppkey": suppkey,
            "address": np.array([f"addr_{k}" for k in suppkey]),
            "s_city": np.array([f"city_{k % 250}" for k in suppkey]),
            "s_nation": np.array([f"nation_{k % 25}" for k in suppkey]),
            "s_region": np.array([f"region_{k % 5}" for k in suppkey]),
        }
    )
    return pdf.sample(frac=1.0, random_state=seed).reset_index(drop=True)

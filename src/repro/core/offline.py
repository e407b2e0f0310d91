"""Offline cleaning baseline (paper §7 "our own offline implementation").

The paper compares Daisy against an optimized offline Spark cleaner that
combines state-of-the-art error detection with probabilistic repairing:

- FD error detection uses BigDansing's group-by optimization (no self-join);
- DC error detection uses the partitioned theta-join (full matrix);
- repair computes, for every erroneous cell, frequency-based probabilistic
  candidates using value co-occurrences (the Holoclean-style pruning the
  paper describes), i.e. exactly the domains Daisy produces — which is what
  makes "Daisy outputs the same results with the offline approach" testable.

Two repair modes:

- ``vectorized`` — everything in a handful of Catalyst joins; used by the
  correctness/equivalence tests;
- ``per_group`` — iterates over erroneous groups in batches of
  ``batch_size`` lhs values, one pass over the dataset per batch.  This is
  the paper's offline cost shape ("the offline approach traverses the
  dataset for each erroneous value"; Fig 9: "the number of iterations over
  the dataset is proportional to the number of detected erroneous
  groups").  Batching (documented in DESIGN.md §4) keeps local-mode job
  overhead sane while preserving cost ∝ ε.

After cleaning, queries run over the probabilistic dataset with the shared
:func:`repro.core.operators.run_query` executor — the offline totals in the
benchmarks include those query costs, as in §5.2.3's right-hand side.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F

from repro.core import detect, repair, update
from repro.core.constraints import DC, FD, Rule, as_rules
from repro.core.prob import TID, checked_col, ensure_cands, ensure_checked
from repro.core.repair_dc import FIX_COLS, REPAIRED, dc_fixes
from repro.core.thetajoin import ThetaJoinCleaner


@dataclass
class OfflineResult:
    table: DataFrame
    seconds: float
    repaired: int
    passes: int = 1
    dc_repairs: DataFrame | None = None
    timed_out: bool = False


def offline_clean(
    df: DataFrame,
    rules: list[Rule],
    *,
    mode: str = "vectorized",
    batch_size: int = 25,
    dc_partitions: int = 64,
    time_budget: float | None = None,
) -> OfflineResult:
    """Fully clean ``df`` under ``rules``; returns the probabilistic table.

    ``time_budget`` (seconds) emulates the paper's one-day timeout for the
    air-quality scenario: per_group mode stops and reports ``timed_out``.
    """
    t0 = time.time()
    rules = as_rules(rules)
    fds = [r for r in rules if isinstance(r, FD)]
    dcs = [r for r in rules if isinstance(r, DC)]
    out = ensure_cands(df, sorted({a for fd in fds for a in fd.cand_attrs}))
    out = ensure_checked(out, [fd.name for fd in fds]).localCheckpoint(eager=True)

    tables = repair.build_tables(out, fds)
    passes = 0
    repaired = 0
    timed_out = False
    if fds:
        # a full clean examines every group of every rule (repair.repair_all)
        out = out.withColumns({checked_col(fd.name): F.lit(True) for fd in fds})
        n_rows = F.count("*").alias("n")
        if mode == "vectorized":
            fixes, row = update.checkpoint(repair.repair_all(out, tables), n_rows)
            repaired = row["n"]
            out = update.apply_repairs(out, fixes)
            passes = 1
        elif mode == "per_group":
            # one pass per batch of erroneous groups, per rule — the
            # offline cost shape of Figs 5-9
            fix_frames = []
            for fd in fds:
                dirty_keys = [
                    tuple(r[a] for a in fd.lhs)
                    for r in detect.violating_groups(tables.stats[fd.name], fd).collect()
                ]
                for i in range(0, len(dirty_keys), batch_size):
                    if time_budget is not None and time.time() - t0 > time_budget:
                        timed_out = True
                        break
                    batch = dirty_keys[i : i + batch_size]
                    cond = None
                    for key in batch:
                        kc = None
                        for a, v in zip(fd.lhs, key):
                            c = F.col(a) == F.lit(v)
                            kc = c if kc is None else (kc & c)
                        cond = kc if cond is None else (cond | kc)
                    # the lookup merges the worlds of every rule a row is
                    # dirty under, not only this batch's
                    fix_frames.append(
                        repair.repair_all(out.where(cond), tables)
                        .localCheckpoint(eager=True)
                    )
                    passes += 1
                if timed_out:
                    break
            if fix_frames:
                fixes = fix_frames[0]
                for f in fix_frames[1:]:
                    fixes = fixes.unionByName(f)
                # a tuple may be repaired in several batches (one per rule);
                # repairs are full recomputations, keep one row per tid
                fixes, row = update.checkpoint(fixes.dropDuplicates([TID]), n_rows)
                repaired = row["n"]
                out = update.apply_repairs(out, fixes)
        else:
            raise ValueError(f"unknown mode {mode!r}")

    dc_rep = None
    for dc in dcs:
        theta = ThetaJoinCleaner(out, dc, partitions=dc_partitions)
        obs = Observation()
        fx = dc_fixes(theta.detect(None), dc, observation=obs).localCheckpoint(eager=True)
        fx = fx.select(*FIX_COLS)
        dc_rep = fx if dc_rep is None else dc_rep.unionByName(fx)
        repaired += obs.get[REPAIRED]
    return OfflineResult(
        table=out,
        seconds=time.time() - t0,
        repaired=repaired,
        passes=max(1, passes),
        dc_repairs=dc_rep,
        timed_out=timed_out,
    )

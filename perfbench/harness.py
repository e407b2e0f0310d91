"""Closed-loop replay of a Daisy session, the offline baseline, and the checks.

One client submits each query only after the previous answer has been
materialised with ``.count()``.  Each replay builds a fresh ``DaisySession``
over the same dirty tables, so every replay does the same work.  Answer tids
are collected after a query's timed interval and compared with the offline
reference: ``offline.offline_clean(mode="vectorized")`` followed by
``operators.run_query`` for each query.
"""
from __future__ import annotations

import dataclasses
import sys
import time
import traceback
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import detect, offline, operators, prob, relax, repair, update
from repro.core import daisy as daisy_mod
from repro.core.cost import CostModel, QueryCost
from repro.core.daisy import DaisySession
from repro.core.planner import Query
from repro.core.prob import CAND_SUFFIX, TID
from repro.core.thetajoin import ThetaJoinCleaner

from tracer import JobGroups, Span, Tracer
from workloads import Workload


@dataclass
class Checks:
    """Correctness checks attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass
class Reference:
    """What the offline baseline produced, and how long it took."""

    clean_s: float
    query_s: float
    jobs: int
    answers: list[set]
    cands: dict[str, pd.DataFrame]
    dc_tids: set | None


@dataclass
class Replay:
    traced: bool
    init_s: float
    init_jobs: int
    latencies: list[float]
    job_ids: list[list[int]]
    answers: list[set | None]
    cands: dict[str, pd.DataFrame]
    dc_tids: set | None
    would_switch_at: int
    cost_s: float
    cand_width: float
    repaired: list[int]
    dc_modes: list[str | None]
    pairs_scanned: int
    tracer: Tracer | None = None

    @property
    def ok(self) -> bool:
        """Every query answered; only such replays enter the timed medians."""
        return all(a is not None for a in self.answers)

    @property
    def workload_s(self) -> float:
        return sum(self.latencies)

    @property
    def spark_jobs(self) -> int:
        return sum(len(ids) for ids in self.job_ids)


def answer_ids(result: DataFrame, q: Query) -> set:
    """Answer tids; a join answer is its ``(l___tid, r___tid)`` pairs."""
    cols = [f"l_{TID}", f"r_{TID}"] if q.join is not None else [TID]
    return {tuple(r) for r in result.select(*cols).collect()}


def base_tables(spark: SparkSession, wl: Workload) -> dict[str, DataFrame]:
    return {name: prob.spark_with_tid(spark, pdf) for name, pdf in wl.tables.items()}


# ---------------------------------------------------------------------- #
def run_offline(spark: SparkSession, groups: JobGroups, wl: Workload, tag: str) -> Reference:
    """Clean-first baseline: full vectorized clean, then every query."""
    table = wl.cleaned_table
    tables = base_tables(spark, wl)
    groups.set(f"{tag}:offline-clean")
    t0 = time.perf_counter()
    off = offline.offline_clean(
        tables[table], wl.rules[table], mode="vectorized", **wl.offline_kwargs
    )
    tables[table] = off.table
    t1 = time.perf_counter()
    groups.set(f"{tag}:offline-query")
    for q in wl.queries:
        operators.run_query(tables, q).count()
    t2 = time.perf_counter()
    jobs = len(groups.jobs(f"{tag}:offline-clean")) + len(groups.jobs(f"{tag}:offline-query"))
    groups.set(f"{tag}:offline-check")
    answers = [answer_ids(operators.run_query(tables, q), q) for q in wl.queries]
    cands = {a: prob.cands_canonical(off.table, a) for a in wl.fd_attrs}
    dc_tids = None
    if wl.has_dc:
        dc_tids = _distinct_tids(off.dc_repairs)
    return Reference(t1 - t0, t2 - t1, jobs, answers, cands, dc_tids)


def _distinct_tids(df: DataFrame | None) -> set:
    if df is None:
        return set()
    return {r[0] for r in df.select("tid").distinct().collect()}


# ---------------------------------------------------------------------- #
def new_session(spark: SparkSession, groups: JobGroups, wl: Workload, tag: str):
    """Build a fresh session; returns ``(session, seconds, jobs)``."""
    groups.set(f"{tag}:init")
    t = time.perf_counter()
    sess = DaisySession(spark, base_tables(spark, wl), wl.rules, **wl.session_kwargs)
    return sess, time.perf_counter() - t, len(groups.jobs(f"{tag}:init"))


def replay(
    spark: SparkSession,
    groups: JobGroups,
    wl: Workload,
    tag: str,
    *,
    tracer: Tracer | None = None,
) -> Replay:
    """Run the session once, closed loop; collect answers for the checks."""
    sess, init_s, init_jobs = new_session(spark, groups, wl, tag)
    latencies: list[float] = []
    job_ids: list[list[int]] = []
    answers: list[set | None] = []
    if tracer is not None:
        _install(tracer)
    try:
        for i, q in enumerate(wl.queries):
            qgroup = f"{tag}:q{i}"
            groups.set(qgroup)
            t = time.perf_counter()
            try:
                if tracer is None:
                    result = sess.execute(q)
                    result.count()
                else:
                    tracer.query = i
                    with tracer.span("query", group=qgroup):
                        result = sess.execute(q)
                        with tracer.span("result.count"):
                            result.count()
            except Exception:  # a failing query is a failed check, not a crash
                traceback.print_exc(file=sys.stderr)
                latencies.append(float("nan"))
                job_ids.append(groups.jobs(qgroup))
                answers.append(None)
                continue
            latencies.append(time.perf_counter() - t)
            job_ids.append(groups.jobs(qgroup))
            groups.set(f"{tag}:check")
            answers.append(answer_ids(result, q))
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.query = None

    groups.set(f"{tag}:check")
    final = sess.tables[wl.cleaned_table]
    t = time.perf_counter()
    switch_at = would_switch_at(sess, wl.queries)
    cost_s = time.perf_counter() - t
    return Replay(
        traced=tracer is not None,
        init_s=init_s,
        init_jobs=init_jobs,
        latencies=latencies,
        job_ids=job_ids,
        answers=answers,
        cands={a: prob.cands_canonical(final, a) for a in wl.fd_attrs},
        dc_tids=_distinct_tids(sess.dc_repairs.get(wl.cleaned_table)) if wl.has_dc else None,
        would_switch_at=switch_at,
        cost_s=cost_s,
        cand_width=cand_width(final),
        repaired=[r.repaired for r in sess.records],
        dc_modes=[r.dc_mode for r in sess.records],
        pairs_scanned=sum(t.pairs_scanned for t in sess.theta.values()),
        tracer=tracer,
    )


def check(rp: Replay, ref: Reference, wl: Workload, checks: Checks) -> None:
    """Compare one replay with the offline reference."""
    for i, got in enumerate(rp.answers):
        if got is None:
            checks.add(False, f"{wl.name} q{i} raised")
        else:
            checks.add(got == ref.answers[i], f"{wl.name} q{i} answer differs from offline")
    for a in wl.fd_attrs:
        checks.add(rp.cands[a].equals(ref.cands[a]),
                   f"{wl.name} {a} candidates differ from offline")
    if wl.has_dc:
        checks.add(rp.dc_tids == ref.dc_tids, f"{wl.name} DC repair tids differ from offline")


def would_switch_at(sess: DaisySession, queries: list[Query]) -> int:
    """Replay the §5.2.3 switch policy on the session's records.

    Returns the 1-based query after which ``CostModel.should_switch`` first
    holds, or 0 if it never does.  This mirrors ``DaisySession.execute``
    with the cost model on, without letting it change what the workload runs.
    """
    for table, fds in sess.fd_rules.items():
        if not fds:
            continue
        cm: CostModel = dataclasses.replace(
            sess.cost[table], history=[], cleaned_eps=0, visited=0, incremental_spent=0.0
        )
        for i, (q, rec) in enumerate(zip(queries, sess.records), start=1):
            if q.table != table:
                continue
            cm.record(QueryCost(q_i=rec.answer, e_i=rec.extras, eps_i=rec.repaired))
            if cm.should_switch():
                return i
    return 0


def cand_width(df: DataFrame) -> float:
    """Mean candidates per non-null ``*__cands`` cell (0 if none)."""
    cols = [c for c in df.columns if c.endswith(CAND_SUFFIX)]
    if not cols:
        return 0.0
    aggs = []
    for c in cols:
        aggs += [F.sum(F.size(c)).alias(f"s{len(aggs)}"), F.count(c).alias(f"n{len(aggs)}")]
    row = df.agg(*aggs).first()
    total = sum(row[i] or 0 for i in range(0, len(aggs), 2))
    cells = sum(row[i] or 0 for i in range(1, len(aggs), 2))
    return total / cells if cells else 0.0


# ---------------------------------------------------------------------- #
def _record_clean(sp: Span, out) -> None:
    st = out[1]
    sp.info.update(answer=st.answer, extras=st.extras, repaired=st.repaired)


def _record_iters(sp: Span, out) -> None:
    sp.info["iters"] = out[1]


def _install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    w = tracer.wrap
    w(relax, "relax_fd", "relax.relax_fd", record=_record_iters)
    for fn in ("violating_complete_groups", "complete_groups", "members_of"):
        w(detect, fn, f"detect.{fn}", materialize=True)
    w(repair, "compute_repairs", "repair.compute_repairs", materialize=True)
    w(update, "apply_repairs", "update.apply_repairs")
    w(operators, "clean_sigma", "operators.clean_sigma", record=_record_clean)
    w(operators, "clean_join", "operators.clean_join")
    w(DaisySession, "execute", "daisy.execute")
    w(DaisySession, "_clean_dc", "daisy._clean_dc")
    w(ThetaJoinCleaner, "detect", "thetajoin.detect")
    w(ThetaJoinCleaner, "accuracy", "thetajoin.accuracy")
    w(daisy_mod, "dc_fixes", "repair_dc.dc_fixes", materialize=True)
    w(offline, "dc_fixes", "repair_dc.dc_fixes", materialize=True)

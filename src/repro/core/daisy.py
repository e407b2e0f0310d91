"""Daisy: the query-driven cleaning session (paper §6, Fig 4).

``DaisySession`` owns the (gradually cleaned) probabilistic tables, the
rules, the precomputed group statistics, the theta-join cleaners for general
DCs, and the §5.2.3 cost model.  ``execute`` runs one query of the §5
template: it builds the cleaning-aware logical plan, runs the cleaning
operators the plan places (:mod:`repro.core.operators`), updates the
dataset in place, and returns the cleaned (probabilistic) query result.

Strategy switching (Figs 7/12): with the cost model enabled, after each
query the session evaluates the incremental-vs-full inequality and, when it
flips, cleans the remaining dirty part of the table in one pass and stops
paying per-query cleaning cost.

``add_rules`` supports incremental rule arrival (Table 7): thanks to the
provenance base columns, adding a rule only runs the new rule's detection
and re-merges candidates of tuples dirty under both old and new rules —
no restart from scratch.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import detect, operators, repair, update
from repro.core.constraints import DC, FD, Rule, as_rules
from repro.core.cost import CostModel, QueryCost
from repro.core.planner import Filter, PlanOp, Query, build_plan
from repro.core.prob import (
    CAND_SUFFIX,
    TID,
    base_attrs,
    checked_col,
    ensure_cands,
    ensure_checked,
)
from repro.core.repair_dc import count_dirty_tids, dc_fixes
from repro.core.thetajoin import ThetaJoinCleaner


@dataclass
class QueryRecord:
    """Per-query telemetry (drives EXPERIMENTS.md tables and tests)."""

    seconds: float
    answer: int
    extras: int
    repaired: int
    relax_iters: int = 0
    strategy: str = "incremental"
    dc_accuracy: float | None = None
    dc_mode: str | None = None


class DaisySession:
    """Query-driven incremental cleaning over Spark DataFrames."""

    def __init__(
        self,
        spark: SparkSession,
        tables: dict[str, DataFrame],
        rules: dict[str, list[Rule]],
        *,
        use_cost_model: bool = True,
        relax_mode: str = "lemma",
        dc_partitions: int = 64,
        accuracy_threshold: float = 0.5,
        cost_safety: float = 1.0,
    ):
        self.spark = spark
        self.relax_mode = relax_mode
        self.use_cost_model = use_cost_model
        self.accuracy_threshold = accuracy_threshold
        self.tables: dict[str, DataFrame] = {}
        self.fd_rules: dict[str, list[tuple[FD, int]]] = {}
        self.dc_rules: dict[str, list[DC]] = {}
        self.rule_tables: dict[str, repair.RuleTables] = {}
        self.theta: dict[tuple[str, str], ThetaJoinCleaner] = {}
        self.cost: dict[str, CostModel] = {}
        self.fully_cleaned: set[str] = set()
        self.dc_repairs: dict[str, DataFrame] = {}
        self._dc_pairs: dict[tuple[str, str], DataFrame] = {}
        self.records: list[QueryRecord] = []
        self.switched_at: int | None = None
        self._dc_partitions = dc_partitions
        self._cost_safety = cost_safety
        for name, df in tables.items():
            if TID not in df.columns:
                raise ValueError(f"table {name} needs a {TID} column (prob.spark_with_tid)")
            self.tables[name] = df
            self.fd_rules[name] = []
            self.dc_rules[name] = []
            self.rule_tables[name] = repair.RuleTables()
            self.add_rules(name, rules.get(name, []))

    # ------------------------------------------------------------------ #
    def add_rules(self, table: str, new_rules: list[Rule]) -> None:
        """Register rules; precompute statistics (§6) and the cost model.

        The statistics pass also counts each FD's candidate distributions
        (:func:`repro.core.repair.build_tables`).  Called again later, this
        is Table 7's incremental rule arrival: only the new rule's tables
        (and the joint tables of the rules sharing its rhs) are built,
        detection for it runs over provenance values, and merging with
        existing candidates happens at repair time.
        """
        df = self.tables[table]
        for r in as_rules(new_rules):
            if isinstance(r, FD):
                world = repair.lhs_world(len(self.fd_rules[table]))
                self.fd_rules[table].append((r, world))
                df = ensure_cands(df, [a for a in r.attrs if len(r.lhs) == 1 or a == r.rhs])
                df = ensure_checked(df, [r.name])
            else:
                self.dc_rules[table].append(r)
                self.theta[(table, r.name)] = ThetaJoinCleaner(
                    df, r, partitions=self._dc_partitions
                )
        self.tables[table] = df.localCheckpoint(eager=True)
        fds = [fd for fd, _w in self.fd_rules[table]]
        tables = repair.build_tables(self.tables[table], fds, self.rule_tables[table])
        # cost model over the union of FD rules of this table: ε and p come
        # from the precomputed lhs and rhs group-bys (§5.2.3)
        n = self.tables[table].count()
        eps, groups, p = 0, 0, 0.0
        for fd in fds:
            g, t, pp = detect.dirty_group_summary(tables.stats[fd.name])
            eps += t
            groups += g
            p = max(p, pp, repair.lhs_per_rhs(tables, fd))
        avg_group = eps / groups if groups else 10.0
        self.cost[table] = CostModel(
            n=n,
            eps_total=eps,
            p=max(p, 1.0),
            avg_group_size=avg_group,
            safety=self._cost_safety,
        )
        self.fully_cleaned.discard(table)

    # ------------------------------------------------------------------ #
    def plan(self, q: Query) -> list[PlanOp]:
        """The cleaning-aware logical plan for ``q`` (Fig 3 / §5.1)."""
        placement = {
            t: ("before" if t in self.fully_cleaned else "after") for t in self.tables
        }
        rules_by_table = {
            t: [fd for fd, _ in self.fd_rules[t]] + self.dc_rules[t] for t in self.tables
        }
        columns = {t: base_attrs(df) for t, df in self.tables.items()}
        return build_plan(
            q, rules_by_table, placement_by_table=placement, columns_by_table=columns
        )

    # ------------------------------------------------------------------ #
    def execute(self, q: Query) -> DataFrame:
        """Run one query: clean what its plan says, return the cleaned result.

        Each input is filtered and cleaned under its ``after`` FD ops
        (:func:`repro.core.operators.clean_side`; both inputs of a join via
        ``clean_join``), then each ``clean_dc`` op runs on its table, and
        the answer is the probabilistic query over the updated tables.
        """
        t0 = time.time()
        rec = QueryRecord(0.0, 0, 0, 0)
        ops = self.plan(q)
        filters = {q.table: q.filters}
        if q.join is not None:
            filters[q.join.right_table] = q.join.right_filters
        fds = {
            t: [fd for fd, _w in self.fd_rules[t]
                if PlanOp("clean_sigma", t, fd.name, "after") in ops]
            for t in filters
        }
        if q.join is None:
            t = q.table
            self.tables[t], st = operators.clean_side(
                self.tables[t], q.filters, fds[t], self.fd_rules[t], self.rule_tables[t],
                relax_mode=self.relax_mode,
            )
            side_stats = {t: st}
        else:
            lt, rt = q.table, q.join.right_table
            self.tables[lt], self.tables[rt], _joined, lst, rst = operators.clean_join(
                self.tables[lt], self.tables[rt], q, fds[lt], fds[rt],
                self.fd_rules[lt], self.fd_rules[rt], self.rule_tables[lt], self.rule_tables[rt],
                relax_mode=self.relax_mode,
            )
            side_stats = {lt: lst, rt: rst}
        for st in side_stats.values():
            rec.answer += st.answer
            rec.extras += st.extras
            rec.repaired += st.repaired
            rec.relax_iters = max(rec.relax_iters, st.relax_iters)
        if not any(fds.values()):
            rec.strategy = "clean" if q.table in self.fully_cleaned else "no-rule"
        for o in ops:
            if o.op == "clean_dc":
                dc = self.theta[(o.table, o.rule)].dc
                self._clean_dc(o.table, dc, filters[o.table], side_stats[o.table].answer, rec)
        result = operators.run_query(self.tables, q)
        rec.seconds = time.time() - t0
        self.records.append(rec)
        # cost-model strategy decision (Figs 7/12)
        table = q.table
        if (
            self.use_cost_model
            and table not in self.fully_cleaned
            and self.fd_rules[table]
        ):
            cm = self.cost[table]
            cm.record(QueryCost(q_i=rec.answer, e_i=rec.extras, eps_i=rec.repaired))
            if cm.should_switch():
                self.full_clean(table)
                self.switched_at = len(self.records)
        return result

    # ------------------------------------------------------------------ #
    def _clean_dc(
        self, table: str, dc: DC, filters: list[Filter], answer: int, rec: QueryRecord
    ) -> None:
        """Incremental theta-join cleaning with the Alg. 2 accuracy gate.

        ``filters`` are the query's filters on ``table`` and ``answer`` the
        size of their result; the filters give the matrix buckets in scope
        (:meth:`repro.core.thetajoin.ThetaJoinCleaner.buckets_for`).

        The state of each (table, DC) is the union of the checkpointed
        violation frames its queries detected; each matrix pair is scanned
        once, so the union has at most one frame per query and no pair
        twice.  A query that scans new pairs adds its frame and rebuilds
        ``dc_repairs[table]`` as :func:`repro.core.repair_dc.dc_fixes` of
        every pair found so far, checkpointed in one job: what the offline
        cleaner computes once the matrix is covered.  A query that scans no
        new pair (a repeat, or any query after a ``full`` pass) launches no
        job here and repairs nothing.
        """
        theta = self.theta[(table, dc.name)]
        buckets = theta.buckets_for(filters)
        acc, support = theta.accuracy(buckets, max(1, answer))
        rec.dc_accuracy = acc
        scanned = theta.pairs_scanned
        if acc < self.accuracy_threshold:
            viol = theta.detect(None)  # full cleaning (Fig 10's 20% case)
            rec.dc_mode = "full"
        else:
            viol = theta.detect(buckets)
            rec.dc_mode = "partial"
        if theta.pairs_scanned == scanned:
            # no matrix pair scanned, so no violation found; the lazy empty
            # fixes keep a ``dc_repairs`` entry for every DC-queried table
            self.dc_repairs.setdefault(table, dc_fixes(viol, dc))
            return
        key = (table, dc.name)
        prev = self._dc_pairs.get(key)
        self._dc_pairs[key] = viol if prev is None else prev.unionByName(viol)
        fixes = [
            dc_fixes(self._dc_pairs[(table, d.name)], d)
            for d in self.dc_rules[table] if (table, d.name) in self._dc_pairs
        ]
        self.dc_repairs[table] = reduce(DataFrame.unionByName, fixes).localCheckpoint(
            eager=True
        )
        rec.repaired += count_dirty_tids(viol)

    # ------------------------------------------------------------------ #
    def full_clean(self, table: str) -> None:
        """Clean the remaining FD-dirty part of ``table`` in one pass (§5.2.3).

        Only unchecked violating groups are repaired — the part already
        cleaned incrementally is not re-done (Fig 7: "cleaning is applied
        over the remaining dirty part of the dataset").  DCs stay cleaned
        per query: the plan places them after the filter on every table.
        """
        df = self.tables[table]
        rules = self.fd_rules[table]
        if rules:
            fds = [fd for fd, _w in rules]
            tables = self.rule_tables[table]
            # the rows of a violating group not yet checked under its rule
            rows, todo = df, []
            for i, fd in enumerate(fds):
                vg = detect.violating_groups(tables.stats[fd.name], fd)
                rows = rows.join(
                    F.broadcast(vg.withColumn(f"__vg{i}", F.lit(True))), list(fd.lhs), "left"
                )
                todo.append(~F.col(checked_col(fd.name)) & F.col(f"__vg{i}").isNotNull())
            rows = rows.where(reduce(Column.__or__, todo)).select(*df.columns)
            # the full clean examines every group of every rule
            checked = {checked_col(fd.name): F.lit(True) for fd in fds}
            fixes = repair.compute_repairs(rows.withColumns(checked), rules, tables)
            cells = [c for c in fixes.columns if c.endswith(CAND_SUFFIX)]
            self.tables[table] = update.apply_repairs(
                df.withColumns(checked), fixes.select(TID, *cells)
            )
        self.fully_cleaned.add(table)

    # ------------------------------------------------------------------ #
    def table(self, name: str) -> DataFrame:
        """The current (gradually cleaned) probabilistic table."""
        return self.tables[name]

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
paying per-query cleaning cost.  A table whose every violating group has
been repaired by queries stops paying it too, with no pass: nothing is left
to clean.

``add_rules`` supports incremental rule arrival (Table 7): thanks to the
provenance base columns, adding a rule only runs the new rule's detection
and re-merges candidates of tuples dirty under both old and new rules —
no restart from scratch.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core import operators, repair, update
from repro.core.constraints import DC, FD, Rule, as_rules
from repro.core.cost import CostModel, QueryCost
from repro.core.planner import Filter, PlanOp, Query, build_plan
from repro.core.prob import TID, base_attrs, checked_col, ensure_cands, ensure_checked
from repro.core.repair_dc import REPAIRED, dc_fixes, fix_rows
from repro.core.sqltext import ident
from repro.core.thetajoin import ThetaJoinCleaner


@dataclass
class QueryRecord:
    """Per-query telemetry (drives EXPERIMENTS.md tables and tests).

    ``answer``, ``extras`` and ``repaired`` add up the query's inputs.  An
    input's answer is counted only where the count is used, by ``clean_σ``'s
    region aggregate or by the Alg. 2 gate when its accuracy depends on it;
    an input nothing cleans adds 0 to ``answer``.  ``dc_buckets`` is the
    number of matrix row buckets a DC op keeps in scope
    (:meth:`repro.core.thetajoin.ThetaJoinCleaner.buckets_for`), every
    bucket when its filters fall back to the whole matrix; like
    ``dc_mode``, the query's last DC op sets it.  ``dc_mode`` and
    ``dc_accuracy`` are the Alg. 2 gate's, which runs only while the DC's
    matrix has unchecked pairs: a query on a fully checked matrix leaves
    them None.
    """

    seconds: float
    answer: int
    extras: int
    repaired: int
    relax_iters: int = 0
    strategy: str = "incremental"
    dc_accuracy: float | None = None
    dc_mode: str | None = None
    dc_buckets: int | None = None


class DaisySession:
    """Query-driven incremental cleaning over Spark DataFrames.

    ``rules`` maps table names to their rules.  Rules keyed by a name no
    table has are not registered, so one rule map can serve sessions over
    different sets of tables; but rules whose attributes are all columns of
    a session table, keyed by a name no table has (say ``"T"`` for ``t``),
    raise ``ValueError``, as does a ``relax_mode`` other than ``"lemma"``
    (the Lemma budgets) or ``"closure"`` (the fixpoint).
    """

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
        if relax_mode not in ("lemma", "closure"):
            raise ValueError(f"relax_mode must be 'lemma' or 'closure', not {relax_mode!r}")
        for name, rs in rules.items():
            attrs = {a for r in rs for a in r.attrs}
            fits = sorted(t for t, df in tables.items() if attrs <= set(df.columns))
            if rs and name not in tables and fits:
                raise ValueError(
                    f"rules for unknown table {name!r}; their attributes are columns of {fits}"
                )
        self.spark = spark
        self.relax_mode = relax_mode
        self.use_cost_model = use_cost_model
        self.accuracy_threshold = accuracy_threshold
        self.tables: dict[str, DataFrame] = {}
        self.rule_tables: dict[str, repair.RuleTables] = {}
        self.theta: dict[tuple[str, str], ThetaJoinCleaner] = {}
        self.cost: dict[str, CostModel] = {}
        self.fully_cleaned: set[str] = set()
        self.records: list[QueryRecord] = []
        self.switched_at: int | None = None
        self._dc_partitions = dc_partitions
        self._cost_safety = cost_safety
        for name, df in tables.items():
            if TID not in df.columns:
                raise ValueError(f"table {name} needs a {TID} column (prob.spark_with_tid)")
            self.tables[name] = df
            self.rule_tables[name] = repair.RuleTables()
            self.add_rules(name, rules.get(name, []))

    @property
    def fd_rules(self) -> dict[str, list[FD]]:
        """Per table, its FDs in registration order (``RuleTables.fds``)."""
        return {t: rt.fds for t, rt in self.rule_tables.items()}

    @property
    def unrepaired(self) -> dict[str, dict[str, int]]:
        """Per table and FD, the rows of violating groups no query has repaired yet.

        Read from ``RuleTables.unrepaired``.
        """
        return {t: rt.unrepaired for t, rt in self.rule_tables.items()}

    @property
    def dc_rules(self) -> dict[str, list[DC]]:
        """Per table, its DCs in registration order (one cleaner each in ``theta``)."""
        return {t: [th.dc for (tt, _), th in self.theta.items() if tt == t] for t in self.tables}

    @property
    def dc_repairs(self) -> dict[str, DataFrame]:
        """Per table whose theta-join cleaners hold fixes, their fix rows.

        The ``FIX_COLS`` union of the cleaners' fix states
        (:func:`repro.core.repair_dc.fix_rows`); building it runs no job.
        """
        rows = {
            t: fix_rows(th.state for (tt, _), th in self.theta.items() if tt == t)
            for t in self.tables
        }
        return {t: r for t, r in rows.items() if r is not None}

    # ------------------------------------------------------------------ #
    def add_rules(self, table: str, new_rules: list[Rule]) -> None:
        """Register rules; precompute statistics (§6) and the cost model.

        The statistics pass also counts each FD's candidate distributions
        and observes its summary (:func:`repro.core.repair.build_tables`).
        Called again later, this is Table 7's incremental rule arrival: only
        the new rule's tables and statistics (and the joint tables of the
        rules sharing its rhs) are built, detection for it runs over
        provenance values, and merging with existing candidates happens at
        repair time.  A new FD's count of unrepaired rows starts at its
        tuples in violating groups; a fully cleaned table stays so unless
        that count is above 0, and its checked flags are set for the new
        rules.  The cost model's ε starts at the table's unrepaired rows, so
        the rows queries already repaired are not counted again.
        """
        df = self.tables[table]
        fds = []
        for r in as_rules(new_rules):
            if isinstance(r, FD):
                fds.append(r)
                df = ensure_cands(df, r.cand_attrs)
                df = ensure_checked(df, [r.name])
            else:
                self.theta[(table, r.name)] = ThetaJoinCleaner(
                    df, r, partitions=self._dc_partitions
                )
        self.tables[table], row = update.checkpoint(df, F.expr("count(*) AS n"))
        tables = repair.build_tables(self.tables[table], fds, self.rule_tables[table])
        # cost model over the union of FD rules of this table: ε and p are
        # the summaries of the lhs and rhs group-bys (§5.2.3)
        summaries = tables.summary.values()
        groups = sum(s.groups for s in summaries)
        self.cost[table] = CostModel(
            n=row["n"],
            eps_total=sum(tables.unrepaired.values()),
            p=max([1.0, *(max(s.n_rhs, s.lhs_per_rhs) for s in summaries)]),
            avg_group_size=sum(s.rows for s in summaries) / groups if groups else 10.0,
            safety=self._cost_safety,
        )
        if table in self.fully_cleaned and not any(tables.unrepaired.values()):
            self._mark_cleaned(table)
        else:
            self.fully_cleaned.discard(table)

    # ------------------------------------------------------------------ #
    def plan(self, q: Query) -> list[PlanOp]:
        """The cleaning-aware logical plan for ``q`` (Fig 3 / §5.1)."""
        placement = {
            t: ("before" if t in self.fully_cleaned else "after") for t in self.tables
        }
        rules_by_table = {t: self.fd_rules[t] + self.dc_rules[t] for t in self.tables}
        columns = {t: base_attrs(df) for t, df in self.tables.items()}
        return build_plan(
            q, rules_by_table, placement_by_table=placement, columns_by_table=columns
        )

    # ------------------------------------------------------------------ #
    def execute(self, q: Query) -> DataFrame:
        """Run one query: clean what its plan says, return the cleaned result.

        The plan opens each input with a ``scan``: the left input, then a
        join's right input.  Each input in turn with ``after`` FD ops is
        cleaned under them (:func:`repro.core.operators.clean_sigma`) on its
        table as the previous input left it (a self-join's right input sees
        the left input's repairs), then its ``clean_dc`` ops run with its
        filters.  An input nothing cleans launches no Spark job.
        The answer is the probabilistic query over the updated tables
        (Definition 3's re-evaluated join, Lemma 5).

        Once every violating group of every FD of a table is repaired, the
        table is fully cleaned (:meth:`_count_repaired`): the plan places
        its FD ops ``before``, so its inputs cost only the answer.  A query
        that finds ``q.table`` not fully cleaned gives its cost model the
        counts of the inputs on ``q.table``; its repaired rows are the
        rules' violating-group rows (``CleanStats.violating``), the unit of
        the table's unrepaired counts.
        """
        t0 = time.time()
        rec = QueryRecord(0.0, 0, 0, 0)
        own = QueryCost(q_i=0, e_i=0, eps_i=0)
        table = q.table
        incremental = table not in self.fully_cleaned
        ops = self.plan(q)
        scans = [i for i, o in enumerate(ops) if o.op == "scan"]
        inputs = [q.filters] + ([q.join.right_filters] if q.join is not None else [])
        for filters, start, end in zip(inputs, scans, scans[1:] + [len(ops)]):
            side = ops[start:end]
            t = side[0].table
            fds = [fd for fd in self.fd_rules[t]
                   if PlanOp("clean_sigma", t, fd.name, "after") in side]
            st, answer = operators.CleanStats(), None
            if fds:
                self.tables[t], st = operators.clean_sigma(
                    self.tables[t], filters, fds, self.rule_tables[t], relax_mode=self.relax_mode
                )
                self._count_repaired(t, st.violating)
                answer = st.answer
            for o in side:
                if o.op == "clean_dc":
                    answer = self._clean_dc(t, self.theta[(t, o.rule)], filters, answer, rec)
            rec.answer += answer or 0
            rec.extras += st.extras
            rec.repaired += st.repaired
            rec.relax_iters = max(rec.relax_iters, st.relax_iters)
            if t == table:
                own.q_i += answer or 0
                own.e_i += st.extras
                own.eps_i += sum(st.violating.values())
        if not any(o.op == "clean_sigma" and o.placement == "after" for o in ops):
            rec.strategy = "clean" if table in self.fully_cleaned else "no-rule"
        result = operators.run_query(self.tables, q)
        rec.seconds = time.time() - t0
        self.records.append(rec)
        # cost-model strategy decision (Figs 7/12)
        if self.use_cost_model and incremental and self.fd_rules[table]:
            cm = self.cost[table]
            cm.record(own)
            if table not in self.fully_cleaned and cm.should_switch():
                self.full_clean(table)
                self.switched_at = len(self.records)
        return result

    # ------------------------------------------------------------------ #
    def _count_repaired(self, table: str, violating: dict[str, int]) -> None:
        """Take a query's repaired violating-group rows off each FD's count.

        The counts are ``RuleTables.unrepaired``; ``violating`` is
        ``CleanStats.violating``.  A row is repaired once per rule:
        ``clean_σ`` repairs a row of a violating group only while it is
        unchecked under the rule, and sets its checked flag in the same
        update.  So the counts are exact, and when every FD of ``table``
        is at 0, every dirty row holds the cells offline cleaning gives it
        and no ``clean_σ`` can change the table: it is fully cleaned
        (:meth:`_mark_cleaned`).
        """
        left = self.rule_tables[table].unrepaired
        for name, rows in violating.items():
            left[name] -= rows
        if not any(left.values()):
            self._mark_cleaned(table)

    def _mark_cleaned(self, table: str) -> None:
        """Mark ``table`` fully cleaned, its checked flags set, its counts 0.

        The flags are a projection over the table, which runs no job.
        """
        rt = self.rule_tables[table]
        self.tables[table] = self.tables[table].withColumns(
            {checked_col(fd.name): F.lit(True) for fd in rt.fds}
        )
        rt.unrepaired = dict.fromkeys(rt.unrepaired, 0)
        self.fully_cleaned.add(table)

    # ------------------------------------------------------------------ #
    def _clean_dc(
        self, table: str, theta: ThetaJoinCleaner, filters: list[Filter],
        answer: int | None, rec: QueryRecord,
    ) -> int | None:
        """Incremental theta-join cleaning with the Alg. 2 accuracy gate.

        ``theta`` is the cleaner of one DC on ``table``, the owner of its
        checked pairs and fix state.  ``filters`` are the query's filters
        on ``table``; they give the matrix buckets in scope
        (:meth:`repro.core.thetajoin.ThetaJoinCleaner.buckets_for`).
        ``answer`` is the size of their result if the input's FD clean
        counted it, else None.  Returns ``answer``, counted if the gate
        counted it.

        Once all ``nb²`` ordered pairs are checked, nothing is left to scan
        and the DC is done: no gate, no count, no Spark job.  Otherwise the
        gate picks partial or full cleaning of what is unchecked.  Its
        accuracy is |qa| / (|qa| + E), with E the estimate outside the
        buckets in scope; with E = 0 it is 1 for any |qa|, so the answer is
        counted (in one task) only when E > 0.

        Each matrix pair is scanned once, so no pair is counted twice.  A
        query that scans new pairs folds their range counts into the
        cleaner's state (:func:`repro.core.repair_dc.dc_fixes`) in one job,
        which also observes the distinct tids the pairs touch
        (``repaired``).  A query that scans no new pair (a repeat) launches
        no job here and repairs nothing.
        """
        buckets = theta.buckets_for(filters)
        rec.dc_buckets = len(buckets)
        if len(theta.checked) == theta.nb ** 2:
            return answer
        if answer is None and theta.errors_outside(buckets):
            qa = operators.apply_filters(self.tables[table], filters)
            answer = qa.coalesce(1).selectExpr("count(*)").first()[0]
        acc, _support = theta.accuracy(buckets, max(1, answer or 0))
        rec.dc_accuracy = acc
        full = acc < self.accuracy_threshold  # Fig 10's 20% case
        rec.dc_mode = "full" if full else "partial"
        scanned = theta.pairs_scanned
        viol = theta.detect(None if full else buckets)
        if theta.pairs_scanned > scanned:
            obs = Observation()
            theta.state = dc_fixes(viol, theta.dc, theta.state, obs).localCheckpoint(eager=True)
            rec.repaired += obs.get[REPAIRED]
        return answer

    # ------------------------------------------------------------------ #
    def full_clean(self, table: str) -> None:
        """Clean the remaining FD-dirty part of ``table`` in one pass (§5.2.3).

        The rows some rule has not checked yet go through the full-clean
        pass offline cleaning runs (:func:`repro.core.repair.repair_all`),
        which keeps only the members of violating groups; the part already
        cleaned incrementally is not re-done (Fig 7: "cleaning is applied
        over the remaining dirty part of the dataset").  DCs stay cleaned
        per query: the plan places them after the filter on every table.
        """
        df = self.tables[table]
        rules = self.fd_rules[table]
        if rules:
            todo = " OR ".join(f"NOT {ident(checked_col(fd.name))}" for fd in rules)
            fixes = repair.repair_all(df.where(todo), self.rule_tables[table])
            self.tables[table] = update.apply_repairs(df, fixes)
        self._mark_cleaned(table)

    # ------------------------------------------------------------------ #
    def table(self, name: str) -> DataFrame:
        """The current (gradually cleaned) probabilistic table."""
        return self.tables[name]

"""Query model and cleaning-aware logical planning (paper §5).

Supported query template (§5)::

    SELECT <list> FROM T [, (T2 JOIN ...)]
    [WHERE col op val [AND col op val ...]] [GROUP BY ...]

represented structurally by :class:`Query`.  The planner detects which query
operators touch attributes of which rules (§5.1) and injects cleaning
operators pushed down next to them; the §5.2.3 cost decision chooses the
*placement* of FD cleaning: ``after`` the query operator (incremental: clean
the relaxed result) or ``before`` it (clean the input relation — the
full-cleaning strategy).  The produced :class:`PlanOp` list is what Fig 3
draws, and it is what :meth:`repro.core.daisy.DaisySession.execute` runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.constraints import DC, FD, Rule


@dataclass(frozen=True)
class Filter:
    attr: str
    op: str  # =, !=, <, <=, >, >=, between, in
    value: Any
    value2: Any = None


@dataclass(frozen=True)
class Aggregate:
    func: str  # avg, sum, count, min, max
    col: str
    alias: str


@dataclass
class JoinSpec:
    right_table: str
    left_on: str
    right_on: str
    right_filters: list[Filter] = field(default_factory=list)


@dataclass
class Query:
    table: str
    filters: list[Filter] = field(default_factory=list)
    project: list[str] | None = None
    join: JoinSpec | None = None
    group_by: list[str] | None = None
    aggs: list[Aggregate] | None = None

    def attrs(self, side: str = "left") -> set[str]:
        """Attributes the query accesses on one side (P ∪ W of §4.1)."""
        if side == "left":
            out = {f.attr for f in self.filters}
            out |= set(self.project or [])
            out |= set(self.group_by or [])
            out |= {a.col for a in (self.aggs or []) if a.col != "*"}
            if self.join:
                out.add(self.join.left_on)
            return out
        assert self.join is not None
        out = {f.attr for f in self.join.right_filters}
        out.add(self.join.right_on)
        return out


@dataclass(frozen=True)
class PlanOp:
    """One node of the cleaning-aware logical plan (bottom-up order)."""

    op: str  # scan | filter | clean_sigma | clean_dc | join | clean_join | groupby | project
    table: str = ""
    rule: str = ""
    placement: str = ""  # for cleaning ops: "before" (input) / "after" (result)


def filter_side(fd: FD, filters: list[Filter]) -> str | None:
    """Which side of the FD the query's filters restrict (Lemma 1/2 choice)."""
    fattrs = {f.attr for f in filters}
    if fd.rhs in fattrs:
        return "rhs"
    if fattrs & set(fd.lhs):
        return "lhs"
    return None


def relevant_rules(rules: list[Rule], attrs: set[str]) -> list[Rule]:
    """§4.1 overlap test: the rule matters iff it shares an attribute."""
    return [r for r in rules if r.overlaps(attrs)]


def build_plan(
    q: Query,
    rules_by_table: dict[str, list[Rule]],
    *,
    placement_by_table: dict[str, str] | None = None,
    columns_by_table: dict[str, list[str]] | None = None,
) -> list[PlanOp]:
    """Cleaning-aware logical plan with pushed-down cleaning operators.

    ``placement_by_table`` carries the cost-model decision for FD cleaning
    (default "after" = incremental; "before" = the table is fully cleaned);
    DC cleaning always runs on the filter result.  ``columns_by_table``
    gives each table's base columns: a SELECT * query (no projection, no
    group-by or aggregates) accesses all of them, on both sides of a join.
    Cleaning is always pushed below group-by (§4: "for group-by queries,
    cleaning takes place before the aggregation").
    """
    placement_by_table = placement_by_table or {}
    columns_by_table = columns_by_table or {}
    select_star = q.project is None and not (q.group_by or q.aggs)

    def side_ops(table: str, side: str, filtered: bool) -> list[PlanOp]:
        attrs = q.attrs(side)
        if select_star:
            attrs |= set(columns_by_table.get(table, ()))
        rules = relevant_rules(rules_by_table.get(table, []), attrs)
        place = placement_by_table.get(table, "after")
        before = [PlanOp("clean_sigma", table, r.name, "before")
                  for r in rules if isinstance(r, FD) and place == "before"]
        after = [PlanOp(_clean_kind(r), table, r.name, "after")
                 for r in rules if isinstance(r, DC) or place == "after"]
        return [PlanOp("scan", table=table), *before,
                *([PlanOp("filter", table=table)] if filtered else []), *after]

    ops = side_ops(q.table, "left", bool(q.filters))
    if q.join:
        jt = q.join.right_table
        ops += side_ops(jt, "right", bool(q.join.right_filters))
        join_key_ruled = any(
            q.join.left_on in r.attrs for r in rules_by_table.get(q.table, [])
        ) or any(q.join.right_on in r.attrs for r in rules_by_table.get(jt, []))
        ops.append(PlanOp("join"))
        if join_key_ruled:
            ops.append(PlanOp("clean_join", placement="after"))
    if q.group_by:
        ops.append(PlanOp("groupby"))
    if q.project:
        ops.append(PlanOp("project"))
    return ops


def _clean_kind(rule: Rule) -> str:
    return "clean_sigma" if isinstance(rule, FD) else "clean_dc"

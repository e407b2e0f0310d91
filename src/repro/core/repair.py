"""Probabilistic FD repair (paper §4.1, §4.3).

For a tuple ``t`` in a violating group of FD ``lhs → rhs``, repair produces
attribute-level candidates in two possible worlds:

- world 1 (lhs kept): rhs candidates ``RHS`` = rhs values of tuples sharing
  ``t``'s lhs, with conditional probabilities ``P(c_rhs | t_lhs)``; the lhs
  cell keeps ``t.lhs`` (probability 1 in this world);
- world ``2+i`` for rule ``i`` (rhs kept): lhs candidates ``LHS`` = lhs
  values of tuples sharing ``t``'s rhs with ``P(c_lhs | t_rhs)``; the rhs
  cell keeps ``t.rhs``.

Multiple rules with the same rhs attribute merge their world-1 candidate
sets with union-group probabilities ``P(X | Y ∪ Z)`` (§4.3); Lemma 4's
commutativity holds by construction because the repair for a tuple is a
pure function of provenance values and the *set* of rules it is dirty
under — re-running with rules in any order yields the same cells.

Every candidate is a frequency ratio over provenance values, which never
change, so the distributions are counted once per rule, keyed by value,
when the rules are registered (:func:`build_tables`, next to the §6
statistics of :func:`repro.core.detect.group_stats`):

- world 1: the rhs value counts of each violating lhs group (the
  statistics' ``rhs_counts``);
- merged world 1: for each set of rules sharing an rhs, the rhs value
  counts of the tuples matching a combination of all their lhs values —
  the inclusion–exclusion terms of the union ``Y ∪ Z``;
- world 2: the lhs value counts of each rhs value of a violating group.

:func:`compute_repairs` is then a row-wise lookup: broadcast joins of those
tables onto the rows to repair, plus the keep entries as literals — no join
against the dataset and no shuffle.  Incremental (Daisy) and offline
cleaning use the same tables and the same lookup, so their repairs
coincide exactly — the paper's "Daisy outputs the same results with the
offline approach".
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import detect
from repro.core.constraints import FD
from repro.core.detect import RHS_COUNTS
from repro.core.prob import CAND_SUFFIX, TID, cand_type, cands_col, checked_col
from repro.core.sqltext import ident, num

#: world id of the rhs-varies (lhs kept) world, shared/merged across rules
RHS_WORLD = 1

#: columns of a world-2 table: lhs value counts (``array<struct<v, c>>``,
#: single-lhs rules), distinct non-null lhs values, and whether the rhs
#: value occurs in a violating group
LHS_COUNTS, N_LHS, IN_VIOLATING = "lhs_counts", "n_lhs", "in_violating"


def lhs_world(rule_index: int) -> int:
    """World id of the lhs-varies world of the rule at ``rule_index`` in ``RuleTables.fds``."""
    return 2 + rule_index


@dataclass
class RuleTables:
    """One table's FD rules with their §6 statistics and candidate tables.

    ``fds``: the rules in registration order; a rule's position gives its
    lhs world (:func:`lhs_world`);
    ``stats``: per rule, :func:`repro.core.detect.group_stats` (world 1);
    ``world2``: per rule, one row per rhs value (:func:`_by_rhs`);
    ``joint``: per set of ≥2 rules sharing an rhs, one row per combination
    of their lhs values with its rhs value counts.  All are checkpointed.
    """

    fds: list[FD] = field(default_factory=list)
    stats: dict[str, DataFrame] = field(default_factory=dict)
    world2: dict[str, DataFrame] = field(default_factory=dict)
    joint: dict[frozenset[str], DataFrame] = field(default_factory=dict)


def build_tables(dataset: DataFrame, fds: list[FD], tables: RuleTables | None = None) -> RuleTables:
    """Count the candidate distributions of ``fds`` over ``dataset``.

    The rules ``tables`` does not know yet are appended to ``tables.fds``.
    Tables already in ``tables`` are kept (a rule added later — Table 7's
    arrival — only adds its own tables and the joint tables of the rule
    sets it joins), so ``tables`` is extended and returned.
    """
    tables = tables if tables is not None else RuleTables()
    for fd in fds:
        if fd.name not in tables.stats:
            tables.fds.append(fd)
            stats = detect.group_stats(dataset, fd).localCheckpoint(eager=True)
            tables.stats[fd.name] = stats
            tables.world2[fd.name] = _by_rhs(stats, fd).localCheckpoint(eager=True)
    for group in _by_rhs_attr(tables.fds).values():
        for subset in _subsets(group):
            key = frozenset(fd.name for fd in subset)
            if len(subset) > 1 and key not in tables.joint:
                tables.joint[key] = _joint(dataset, subset, tables).localCheckpoint(eager=True)
    return tables


def lhs_per_rhs(tables: RuleTables, fd: FD) -> float:
    """Avg distinct lhs values per rhs value (§5.2.3's p via the rhs group-by).

    This is the size of the *lhs-side* candidate domain an erroneous cell
    acquires (world 2): when the rhs has low selectivity, each rhs value
    co-occurs with many lhs values and p explodes (Figs 6-7 discussion).
    Read from the world-2 table, which has a row for every rhs value.
    """
    row = tables.world2[fd.name].selectExpr(f"avg({N_LHS})").first()
    return float(row[0] or 0.0)


def _by_rhs(stats: DataFrame, fd: FD) -> DataFrame:
    """World 2 of ``fd``: per rhs value, its lhs value counts.

    Regroups the (lhs, rhs) counts of ``stats`` by rhs value.  Every rhs
    value gets a row (its ``N_LHS`` feeds the cost model); repair looks up
    the rows ``IN_VIOLATING``.  Only a single-lhs rule has ``LHS_COUNTS``.
    """
    pairs = stats.selectExpr(*map(ident, fd.lhs), "n_rhs", f"explode({RHS_COUNTS}) AS __e")
    present = " AND ".join(f"{ident(a)} IS NOT NULL" for a in fd.lhs)
    aggs = [
        F.expr(f"count_if({present}) AS {N_LHS}"),
        F.expr(f"bool_or(n_rhs > 1) AS {IN_VIOLATING}"),
    ]
    if fd.single_lhs:
        entry = f"named_struct('v', {ident(fd.lhs[0])}, 'c', __e.c)"
        aggs.append(F.expr(f"collect_list({entry}) AS {LHS_COUNTS}"))
    return pairs.groupBy(F.expr(f"__e.v AS {ident(fd.rhs)}")).agg(*aggs)


def _joint(dataset: DataFrame, fds: list[FD], tables: RuleTables) -> DataFrame:
    """Rhs value counts per combination of the lhs values of ``fds``.

    Only tuples in a violating group of every rule can be dirty under all
    of them, so the others are dropped first (broadcast semi-joins on the
    violating lhs keys).
    """
    rows = dataset
    for fd in fds:
        vg = detect.violating_groups(tables.stats[fd.name], fd)
        rows = rows.join(F.broadcast(vg), list(fd.lhs), "leftsemi")
    keys = tuple(dict.fromkeys(a for fd in fds for a in fd.lhs))
    return detect.group_stats(rows, FD(keys, fds[0].rhs)).select(*keys, RHS_COUNTS)


def _by_rhs_attr(fds: list[FD]) -> dict[str, list[FD]]:
    """Rules by rhs attribute (the rules whose world 1 is merged)."""
    out: dict[str, list[FD]] = {}
    for fd in fds:
        out.setdefault(fd.rhs, []).append(fd)
    return out


def _subsets(items: list) -> list[list]:
    """Every non-empty subset of ``items``, smallest first."""
    return [list(c) for k in range(1, len(items) + 1) for c in combinations(items, k)]


def compute_repairs(rows: DataFrame, tables: RuleTables) -> DataFrame:
    """The candidate cells of ``rows``, looked up in ``tables``.

    ``tables`` holds every rule the table knows (``tables.fds``).
    ``rows``: the tuples to repair, with their ``__checked__<rule>`` flags.
    A tuple is repaired under every rule whose flag it carries and whose
    violating group contains it, so a tuple repaired now re-merges the
    worlds of the rules it is already known-dirty under (§4.3).

    Returns the rows dirty under at least one rule, all columns kept, with
    ``<attr>__cands`` replaced for every attribute of a rule's cells; a
    null cell means "this repair does not touch that cell" (the update
    keeps the old one).  Every table is broadcast onto the rows (one row
    per value or violating group); nothing is shuffled.  The flags, the
    merges and the cells are SQL text over the looked-up columns, so the
    plan costs a few Python-to-JVM calls per rule (DESIGN §3, on round
    trips to the JVM).
    """
    fds = tables.fds
    world = {fd.name: lhs_world(i) for i, fd in enumerate(fds)}
    out = rows
    dirty: dict[str, str] = {}
    counts: dict[frozenset[str], str] = {}
    lhs_counts: dict[str, str] = {}
    for i, fd in enumerate(fds):
        a, b, d = f"__rp_a{i}", f"__rp_b{i}", f"__rp_d{i}"
        world1 = tables.stats[fd.name].where("n_rhs > 1").selectExpr(
            *map(ident, fd.lhs), f"{RHS_COUNTS} AS {a}"
        )
        out = out.join(F.broadcast(world1), list(fd.lhs), "left")
        out = out.selectExpr("*", f"{ident(checked_col(fd.name))} AND {a} IS NOT NULL AS {d}")
        dirty[fd.name] = d
        counts[frozenset([fd.name])] = a
        if fd.single_lhs:
            world2 = tables.world2[fd.name]
            lookup = world2.where(IN_VIOLATING).selectExpr(ident(fd.rhs), f"{LHS_COUNTS} AS {b}")
            out = out.join(F.broadcast(lookup), fd.rhs, "left")
            lhs_counts[fd.name] = f"coalesce({b}, {_empty(world2, LHS_COUNTS)})"
    joints = [(k, t) for k, t in tables.joint.items() if k <= set(dirty)]
    for j, (key, joint) in enumerate(joints):
        keys = [c for c in joint.columns if c != RHS_COUNTS]
        out = out.join(F.broadcast(joint.withColumnRenamed(RHS_COUNTS, f"__rp_j{j}")), keys, "left")
        counts[key] = f"__rp_j{j}"

    pieces: dict[str, list[tuple[str, str]]] = {}  # attr -> (touches, entries)
    for x, group in _by_rhs_attr(fds).items():
        names = [fd.name for fd in group]
        if len(names) == 1:
            merged = counts[frozenset(names)]
        else:
            # inclusion–exclusion over the rules the row is dirty under
            empty = _empty(tables.stats[names[0]], RHS_COUNTS)
            terms = []
            for subset in _subsets(names):
                arr = counts[frozenset(subset)]
                if len(subset) % 2 == 0:
                    arr = f"transform({arr}, __e -> named_struct('v', __e.v, 'c', -__e.c))"
                terms.append(f"CASE WHEN {_all([dirty[n] for n in subset])} THEN {arr} ELSE {empty} END")
            merged = _sum_by_value(f"concat({', '.join(terms)})")
        pieces.setdefault(x, []).append(
            (_any([dirty[n] for n in names]), _distribution(merged, RHS_WORLD))
        )
        for n in names:
            pieces[x].append((dirty[n], _keep(x, world[n])))
    for la, group in _by_lhs_attr(fds).items():
        pieces.setdefault(la, []).append(
            (_any([dirty[fd.name] for fd in group]), _keep(la, RHS_WORLD))
        )
        for fd in group:
            pieces[la].append(
                (dirty[fd.name], _distribution(lhs_counts[fd.name], world[fd.name]))
            )

    cells = {cands_col(a): _cell(rows, a, ps) for a, ps in pieces.items()}
    kept = [cells.pop(c) if c in cells else ident(c) for c in rows.columns]
    return out.where(_any(list(dirty.values()))).selectExpr(*kept, *cells.values())


def repair_all(rows: DataFrame, tables: RuleTables) -> DataFrame:
    """A full clean's fixes of ``rows``: ``TID`` and the candidate cells.

    A full clean examines every group of every rule, so every rule's checked
    flag is set before :func:`compute_repairs`: each member of a violating
    group is repaired under every rule it is dirty under.  The session's
    switch and both offline modes run this pass.
    """
    checked = {checked_col(fd.name): F.lit(True) for fd in tables.fds}
    fixed = compute_repairs(rows.withColumns(checked), tables)
    return fixed.selectExpr(TID, *[ident(c) for c in fixed.columns if c.endswith(CAND_SUFFIX)])


def _by_lhs_attr(fds: list[FD]) -> dict[str, list[FD]]:
    """Single-lhs rules by lhs attribute (the rules with an lhs world)."""
    out: dict[str, list[FD]] = {}
    for fd in fds:
        if fd.single_lhs:
            out.setdefault(fd.lhs[0], []).append(fd)
    return out


def _any(conds: list[str]) -> str:
    return "(" + " OR ".join(conds) + ")"


def _all(conds: list[str]) -> str:
    return "(" + " AND ".join(conds) + ")"


def _empty(table: DataFrame, col: str) -> str:
    """SQL text: an empty array of the type of ``table[col]``."""
    return f"CAST(array() AS {table.schema[col].dataType.simpleString()})"


def _keep(attr: str, world: int) -> str:
    """SQL text: the one-entry array keeping ``attr``'s value in ``world``."""
    return f"array(named_struct('v', {ident(attr)}, 'p', {num(1.0)}, 'w', {world}))"


def _sum_by_value(entries: str) -> str:
    """SQL text: ``(v, c)`` entries with the counts of equal values summed."""
    total = f"aggregate(filter({entries}, __e -> __e.v <=> __u), 0L, (__acc, __e) -> __acc + __e.c)"
    return (
        f"transform(array_distinct(transform({entries}, __e -> __e.v)), "
        f"__u -> named_struct('v', __u, 'c', {total}))"
    )


def _distribution(counts: str, world: int) -> str:
    """SQL text: candidate entries ``(v, c / Σc, world)`` of a ``(v, c)`` count array.

    The total is the fold's result, bound once per row.
    """
    entry = f"named_struct('v', __e.v, 'p', __e.c / __total, 'w', {world})"
    return (
        f"aggregate({counts}, 0L, (__acc, __e) -> __acc + __e.c, "
        f"__total -> transform({counts}, __e -> {entry}))"
    )


def _cell(rows: DataFrame, attr: str, pieces: list[tuple[str, str]]) -> str:
    """SQL text: concatenate the pieces that touch the cell; null when none does."""
    typ = cand_type(rows, attr).simpleString()
    arrays = [
        f"CASE WHEN {t} THEN CAST({arr} AS {typ}) ELSE CAST(array() AS {typ}) END"
        for t, arr in pieces
    ]
    touched = _any([t for t, _ in pieces])
    return f"CASE WHEN {touched} THEN concat({', '.join(arrays)}) END AS {ident(cands_col(attr))}"

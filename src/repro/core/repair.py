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
from functools import reduce
from itertools import combinations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core import detect
from repro.core.constraints import FD
from repro.core.detect import RHS_COUNTS
from repro.core.prob import CAND_SUFFIX, TID, cand_type, cands_col, checked_col

#: world id of the rhs-varies (lhs kept) world, shared/merged across rules
RHS_WORLD = 1

#: columns of a world-2 table: lhs value counts (``array<struct<v, c>>``,
#: single-lhs rules), distinct non-null lhs values, and whether the rhs
#: value occurs in a violating group
LHS_COUNTS, N_LHS, IN_VIOLATING = "lhs_counts", "n_lhs", "in_violating"


def lhs_world(rule_index: int) -> int:
    """World id of rule ``rule_index``'s lhs-varies world."""
    return 2 + rule_index


@dataclass
class RuleTables:
    """The §6 statistics and candidate tables of one table's FD rules.

    ``stats``: per rule, :func:`repro.core.detect.group_stats` (world 1);
    ``world2``: per rule, one row per rhs value (:func:`_by_rhs`);
    ``joint``: per set of ≥2 rules sharing an rhs, one row per combination
    of their lhs values with its rhs value counts.  All are checkpointed.
    """

    stats: dict[str, DataFrame] = field(default_factory=dict)
    world2: dict[str, DataFrame] = field(default_factory=dict)
    joint: dict[frozenset[str], DataFrame] = field(default_factory=dict)


def build_tables(dataset: DataFrame, fds: list[FD], tables: RuleTables | None = None) -> RuleTables:
    """Count the candidate distributions of ``fds`` over ``dataset``.

    Tables already in ``tables`` are kept (a rule added later — Table 7's
    arrival — only adds its own tables and the joint tables of the rule
    sets it joins), so ``tables`` is extended and returned.
    """
    tables = tables if tables is not None else RuleTables()
    for fd in fds:
        if fd.name not in tables.stats:
            stats = detect.group_stats(dataset, fd).localCheckpoint(eager=True)
            tables.stats[fd.name] = stats
            tables.world2[fd.name] = _by_rhs(stats, fd).localCheckpoint(eager=True)
    for group in _by_rhs_attr(fds).values():
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
    row = tables.world2[fd.name].agg(F.avg(N_LHS)).first()
    return float(row[0] or 0.0)


def _by_rhs(stats: DataFrame, fd: FD) -> DataFrame:
    """World 2 of ``fd``: per rhs value, its lhs value counts.

    Regroups the (lhs, rhs) counts of ``stats`` by rhs value.  Every rhs
    value gets a row (its ``N_LHS`` feeds the cost model); repair looks up
    the rows ``IN_VIOLATING``.  Only a single-lhs rule has ``LHS_COUNTS``.
    """
    e = F.col("__e")
    pairs = stats.select(*fd.lhs, "n_rhs", F.explode(RHS_COUNTS).alias("__e"))
    aggs = [
        F.count_if(reduce(Column.__and__, [F.col(a).isNotNull() for a in fd.lhs])).alias(N_LHS),
        F.bool_or(F.col("n_rhs") > 1).alias(IN_VIOLATING),
    ]
    if fd.single_lhs:
        aggs.append(
            F.collect_list(F.struct(F.col(fd.lhs[0]).alias("v"), e["c"].alias("c"))).alias(
                LHS_COUNTS
            )
        )
    return pairs.groupBy(e["v"].alias(fd.rhs)).agg(*aggs)


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


def compute_repairs(rows: DataFrame, rules: list[tuple[FD, int]], tables: RuleTables) -> DataFrame:
    """The candidate cells of ``rows``, looked up in ``tables``.

    ``rules``: list of ``(fd, world_id)`` — every rule the session knows.
    ``rows``: the tuples to repair, with their ``__checked__<rule>`` flags.
    A tuple is repaired under every rule whose flag it carries and whose
    violating group contains it, so a tuple repaired now re-merges the
    worlds of the rules it is already known-dirty under (§4.3).

    Returns the rows dirty under at least one rule, all columns kept, with
    ``<attr>__cands`` replaced for every attribute of a rule's cells; a
    null cell means "this repair does not touch that cell" (the update
    keeps the old one).  Every table is broadcast onto the rows (one row
    per value or violating group); nothing is shuffled.
    """
    fds = [fd for fd, _w in rules]
    world = {fd.name: w for fd, w in rules}
    out = rows
    dirty: dict[str, Column] = {}
    counts: dict[frozenset[str], Column] = {}
    lhs_counts: dict[str, Column] = {}
    for i, fd in enumerate(fds):
        a, b = f"__rp_a{i}", f"__rp_b{i}"
        world1 = tables.stats[fd.name].where(F.col("n_rhs") > 1).select(
            *fd.lhs, F.col(RHS_COUNTS).alias(a)
        )
        out = out.join(F.broadcast(world1), list(fd.lhs), "left")
        out = out.withColumn(f"__rp_d{i}", F.col(checked_col(fd.name)) & F.col(a).isNotNull())
        dirty[fd.name] = F.col(f"__rp_d{i}")
        counts[frozenset([fd.name])] = F.col(a)
        if fd.single_lhs:
            world2 = tables.world2[fd.name]
            lookup = world2.where(F.col(IN_VIOLATING)).select(fd.rhs, F.col(LHS_COUNTS).alias(b))
            out = out.join(F.broadcast(lookup), fd.rhs, "left")
            lhs_counts[fd.name] = F.coalesce(F.col(b), _empty(world2, LHS_COUNTS))
    joints = [(k, t) for k, t in tables.joint.items() if k <= set(dirty)]
    for j, (key, joint) in enumerate(joints):
        keys = [c for c in joint.columns if c != RHS_COUNTS]
        out = out.join(F.broadcast(joint.withColumnRenamed(RHS_COUNTS, f"__rp_j{j}")), keys, "left")
        counts[key] = F.col(f"__rp_j{j}")

    pieces: dict[str, list[tuple[Column, Column]]] = {}  # attr -> (touches, entries)
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
                    arr = F.transform(
                        arr, lambda e: F.struct(e["v"].alias("v"), (-e["c"]).alias("c"))
                    )
                terms.append(F.when(_all([dirty[n] for n in subset]), arr).otherwise(empty))
            merged = _sum_by_value(F.concat(*terms))
        pieces.setdefault(x, []).append(
            (_any([dirty[n] for n in names]), _distribution(merged, RHS_WORLD))
        )
        for n in names:
            keep = F.struct(F.col(x).alias("v"), F.lit(1.0).alias("p"), F.lit(world[n]).alias("w"))
            pieces[x].append((dirty[n], F.array(keep)))
    for la, group in _by_lhs_attr(fds).items():
        keep = F.struct(F.col(la).alias("v"), F.lit(1.0).alias("p"), F.lit(RHS_WORLD).alias("w"))
        pieces.setdefault(la, []).append((_any([dirty[fd.name] for fd in group]), F.array(keep)))
        for fd in group:
            pieces[la].append(
                (dirty[fd.name], _distribution(lhs_counts[fd.name], world[fd.name]))
            )

    cells = {cands_col(a): _cell(rows, a, ps) for a, ps in pieces.items()}
    kept = [cells.pop(c) if c in cells else F.col(c) for c in rows.columns]
    return out.where(_any(list(dirty.values()))).select(*kept, *cells.values())


def repair_all(rows: DataFrame, rules: list[tuple[FD, int]], tables: RuleTables) -> DataFrame:
    """A full clean's fixes of ``rows``: ``TID`` and the candidate cells.

    A full clean examines every group of every rule, so every rule's checked
    flag is set before :func:`compute_repairs`: each member of a violating
    group is repaired under every rule it is dirty under.  The session's
    switch and both offline modes run this pass.
    """
    checked = {checked_col(fd.name): F.lit(True) for fd, _w in rules}
    fixed = compute_repairs(rows.withColumns(checked), rules, tables)
    return fixed.select(TID, *[c for c in fixed.columns if c.endswith(CAND_SUFFIX)])


def _by_lhs_attr(fds: list[FD]) -> dict[str, list[FD]]:
    """Single-lhs rules by lhs attribute (the rules with an lhs world)."""
    out: dict[str, list[FD]] = {}
    for fd in fds:
        if fd.single_lhs:
            out.setdefault(fd.lhs[0], []).append(fd)
    return out


def _any(conds: list[Column]) -> Column:
    return reduce(Column.__or__, conds)


def _all(conds: list[Column]) -> Column:
    return reduce(Column.__and__, conds)


def _empty(table: DataFrame, col: str) -> Column:
    """An empty array of the type of ``table[col]``."""
    return F.array().cast(table.schema[col].dataType)


def _sum_by_value(entries: Column) -> Column:
    """``(v, c)`` entries with the counts of equal values summed."""
    vals = F.array_distinct(F.transform(entries, lambda e: e["v"]))
    return F.transform(
        vals,
        lambda v: F.struct(
            v.alias("v"),
            F.aggregate(
                F.filter(entries, lambda e: e["v"].eqNullSafe(v)),
                F.lit(0).cast("long"),
                lambda acc, e: acc + e["c"],
            ).alias("c"),
        ),
    )


def _distribution(counts: Column, world: int) -> Column:
    """Candidate entries ``(v, c / Σc, world)`` of a ``(v, c)`` count array.

    The total is the fold's result, bound once per row.
    """
    return F.aggregate(
        counts,
        F.lit(0).cast("long"),
        lambda acc, e: acc + e["c"],
        lambda total: F.transform(
            counts,
            lambda e: F.struct(
                e["v"].alias("v"), (e["c"] / total).alias("p"), F.lit(world).alias("w")
            ),
        ),
    )


def _cell(rows: DataFrame, attr: str, pieces: list[tuple[Column, Column]]) -> Column:
    """Concatenate the pieces that touch the cell; null when none does."""
    typ = cand_type(rows, attr)
    empty = F.array().cast(typ)
    arrays = [F.when(t, arr.cast(typ)).otherwise(empty) for t, arr in pieces]
    return F.when(_any([t for t, _ in pieces]), F.concat(*arrays)).alias(cands_col(attr))

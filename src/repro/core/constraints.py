"""Denial constraints and functional dependencies (paper §3).

DCs are universally quantified sentences ``∀t1..tk ¬(p1 ∧ … ∧ pm)``.  The
reproduction supports the two families the paper evaluates:

- :class:`FD` — functional dependencies ``lhs → rhs`` (equivalently the DC
  ``¬(t1.lhs = t2.lhs ∧ t1.rhs ≠ t2.rhs)``), possibly with a composite lhs;
- :class:`DC` — two-tuple constraints whose atoms compare the *same*
  attribute of two tuples with an inequality (the paper §4.2 focuses on
  "the more realistic case that involves conditions over the same
  attribute", e.g. ``¬(t1.salary < t2.salary ∧ t1.tax > t2.tax)``).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field


@dataclass(frozen=True)
class FD:
    """Functional dependency ``lhs → rhs``; ``lhs`` is a tuple of columns."""

    lhs: tuple[str, ...]
    rhs: str
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "lhs", tuple(self.lhs))
        if not self.name:
            object.__setattr__(self, "name", f"fd_{'_'.join(self.lhs)}__{self.rhs}")
        if self.rhs in self.lhs:
            raise ValueError("rhs must not appear in lhs")

    @property
    def attrs(self) -> set[str]:
        return set(self.lhs) | {self.rhs}

    @property
    def single_lhs(self) -> bool:
        return len(self.lhs) == 1

    def overlaps(self, query_attrs: set[str]) -> bool:
        """§4.1: the rule affects query correctness iff (X∪Y)∩(P∪W) ≠ ∅."""
        return bool(self.attrs & set(query_attrs))


#: the comparator of each op, on Python values and on Spark Columns alike
OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "!=": operator.ne,
}

#: each op's negation
_INVERSE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}


@dataclass(frozen=True)
class Atom:
    """One predicate ``t1.attr <op> t2.attr`` of a two-tuple DC."""

    attr: str
    op: str  # applied as: t1.attr  op  t2.attr

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unsupported op {self.op!r}")

    @property
    def inverse_op(self) -> str:
        return _INVERSE[self.op]

    def holds(self, v1, v2) -> bool:
        return OPS[self.op](v1, v2)


@dataclass(frozen=True)
class DC:
    """Two-tuple denial constraint ``∀t1,t2 ¬(atom1 ∧ … ∧ atomm)``.

    A pair (t1, t2) *violates* the DC iff every atom holds on it.
    """

    atoms: tuple[Atom, ...]
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise ValueError("a DC needs at least one atom")
        if not self.name:
            object.__setattr__(
                self, "name", "dc_" + "_".join(f"{a.attr}{a.op}" for a in self.atoms)
            )

    @property
    def attrs(self) -> set[str]:
        return {a.attr for a in self.atoms}

    def overlaps(self, query_attrs: set[str]) -> bool:
        return bool(self.attrs & set(query_attrs))

    def as_fd(self) -> FD | None:
        """Recognize the FD pattern ``¬(t1.a = t2.a ∧ … ∧ t1.b ≠ t2.b)``.

        Equality atoms form the lhs; exactly one inequality(≠) atom forms
        the rhs. Returns None when the DC is not an FD in disguise.
        """
        eqs = [a.attr for a in self.atoms if a.op == "="]
        neqs = [a.attr for a in self.atoms if a.op == "!="]
        if eqs and len(neqs) == 1 and len(eqs) + 1 == len(self.atoms):
            return FD(tuple(eqs), neqs[0], name=self.name)
        return None

    def violates(self, t1: dict, t2: dict) -> bool:
        """Python-side check, used by tests and the SAT-style fix enumerator."""
        return all(a.holds(t1[a.attr], t2[a.attr]) for a in self.atoms)


Rule = FD | DC


def as_rules(rules) -> list[Rule]:
    """Normalize a rule list: DCs that are FDs in disguise become FDs."""
    out: list[Rule] = []
    for r in rules:
        if isinstance(r, DC):
            fd = r.as_fd()
            out.append(fd if fd is not None else r)
        else:
            out.append(r)
    return out

"""HolocleanSim — the HoloClean stand-in substrate (paper §7.3, Tables 5-7).

The real HoloClean is a single-node probabilistic-inference system; the
paper uses it (a) as the accuracy yardstick of Table 5 and (b) as the slow
per-dirty-group baseline of Tables 6-7.  This simulator reproduces the two
properties the paper measures:

- **domain generation with threshold pruning**: candidate values come from
  quantitative co-occurrence statistics, pruned by ``domain_threshold`` —
  the pruning that costs HoloClean accuracy once more rules are known
  (Table 5 discussion);
- **per-dirty-group passes in Python** make it ~an order of magnitude
  slower than the Spark-vectorized cleaners (Tables 6-7 shape).

The module also implements the two Daisy repair-selection strategies of
Table 5:

- :func:`daisy_p_choose` (DaisyP, "blindly select the most probable
  value"): a per-tuple MAP over Daisy's stored possible worlds — each rule
  contributes its keep-lhs / keep-rhs world options, a combination must
  agree on shared attributes, and each changed cell pays a change prior
  ``λ`` (dirty tuples have a clean lhs *or* a clean rhs, §4.1);
- :func:`HolocleanSim.infer` with Daisy domains (DaisyH): HoloClean-style
  context-feature inference restricted to Daisy's candidate sets.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.constraints import FD
from repro.core.repair import lhs_world


@dataclass
class SimResult:
    chosen: pd.DataFrame  # (rid, attr, value)
    seconds: float
    dirty_cells: int = 0


def _violating_groups(df: pd.DataFrame, fd: FD) -> pd.Index:
    key = _key(df, fd.lhs)
    nun = df.groupby(key)[fd.rhs].nunique()
    return nun[nun > 1].index


def _key(df: pd.DataFrame, attrs: tuple[str, ...]):
    if len(attrs) == 1:
        return df[attrs[0]]
    return df[list(attrs)].astype(str).agg("\x00".join, axis=1)


class HolocleanSim:
    """Detect → domain generation → feature-based inference, per group."""

    def __init__(
        self,
        df: pd.DataFrame,
        rules: list[FD],
        *,
        context_attrs: list[str] | None = None,
        domain_threshold: float = 0.05,
        margin: float = 0.05,
        max_domain: int = 12,
    ):
        self.df = df.reset_index(drop=True)
        self.rules = rules
        self.domain_threshold = domain_threshold
        self.margin = margin
        self.max_domain = max_domain
        rule_attrs = {a for r in rules for a in r.attrs}
        self.context_attrs = context_attrs or [
            c for c in df.columns if c not in rule_attrs and df[c].dtype == object
        ]

    # -- detection --------------------------------------------------------
    def dirty_cells(self) -> list[tuple[int, str]]:
        """(rid, attr) pairs inside violating groups, per rule."""
        cells: set[tuple[int, str]] = set()
        for fd in self.rules:
            bad = set(_violating_groups(self.df, fd))
            key = _key(self.df, fd.lhs)
            rows = self.df.index[key.isin(bad)]
            for r in rows:
                cells.add((int(r), fd.rhs))
                if len(fd.lhs) == 1:
                    cells.add((int(r), fd.lhs[0]))
        return sorted(cells)

    # -- domain generation (threshold-pruned co-occurrence) ---------------
    def domains(self) -> dict[tuple[int, str], list[str]]:
        """HoloClean's own candidate domains.

        Candidates for cell (r, a): values of ``a`` whose conditional
        co-occurrence probability with any of the row's *other* attribute
        values exceeds ``domain_threshold``; capped at ``max_domain`` by
        descending probability (the performance pruning of §7.3).
        """
        cells = self.dirty_cells()
        target_attrs = sorted({a for _, a in cells})
        evidence = self._evidence_attrs(target_attrs)
        cooc = self._cooc_tables(target_attrs, evidence)
        out: dict[tuple[int, str], list[str]] = {}
        for r, a in cells:
            scored: dict[str, float] = {}
            for e in evidence[a]:
                ev = self.df.at[r, e]
                dist = cooc[(a, e)].get(ev)
                if dist is None:
                    continue
                for v, p in dist.items():
                    if p >= self.domain_threshold:
                        scored[v] = max(scored.get(v, 0.0), p)
            scored.setdefault(self.df.at[r, a], 1.0)
            ranked = sorted(scored.items(), key=lambda kv: -kv[1])[: self.max_domain]
            out[(r, a)] = [v for v, _ in ranked]
        return out

    def _evidence_attrs(self, target_attrs: list[str]) -> dict[str, list[str]]:
        ev: dict[str, list[str]] = {}
        for a in target_attrs:
            rule_partners = set()
            for fd in self.rules:
                if a == fd.rhs and len(fd.lhs) == 1:
                    rule_partners.add(fd.lhs[0])
                if len(fd.lhs) == 1 and a == fd.lhs[0]:
                    rule_partners.add(fd.rhs)
            ev[a] = sorted(rule_partners) + [c for c in self.context_attrs if c != a]
        return ev

    def _cooc_tables(self, target_attrs, evidence) -> dict:
        """P(target value | evidence value) lookup tables."""
        cooc: dict[tuple[str, str], dict] = {}
        for a in target_attrs:
            for e in evidence[a]:
                if (a, e) in cooc:
                    continue
                tab = (
                    self.df.groupby([e, a]).size().rename("c").reset_index()
                )
                tab["p"] = tab["c"] / tab.groupby(e)["c"].transform("sum")
                cooc[(a, e)] = {
                    ev: dict(zip(sub[a], sub["p"]))
                    for ev, sub in tab.groupby(e)
                }
        return cooc

    # -- inference --------------------------------------------------------
    def infer(
        self, domains: dict[tuple[int, str], list[str]] | None = None
    ) -> SimResult:
        """Pick a value per dirty cell by weighted co-occurrence voting.

        ``domains=None`` uses HoloClean's own (threshold-pruned) domains;
        passing Daisy's domains gives the DaisyH configuration.  The loop is
        deliberately per-cell/per-group Python — the baseline's cost shape.
        """
        t0 = time.time()
        own = domains is None
        if own:
            domains = self.domains()
        cells = sorted(domains)
        target_attrs = sorted({a for _, a in cells})
        evidence = self._evidence_attrs(target_attrs)
        cooc = self._cooc_tables(target_attrs, evidence)
        rows = []
        for r, a in cells:
            observed = self.df.at[r, a]
            best_v, best_s, obs_s = observed, -1.0, 0.0
            for v in domains[(r, a)]:
                s = 0.0
                for e in evidence[a]:
                    dist = cooc[(a, e)].get(self.df.at[r, e])
                    if dist:
                        s += dist.get(v, 0.0)
                s /= max(1, len(evidence[a]))
                if v == observed:
                    obs_s = s
                if s > best_s:
                    best_v, best_s = v, s
            # conservative update: only move off the observed value when the
            # winner clears it by the margin (precision over recall)
            value = best_v if best_s > obs_s + self.margin else observed
            rows.append((r, a, value))
        chosen = pd.DataFrame(rows, columns=["rid", "attr", "value"])
        return SimResult(chosen, time.time() - t0, dirty_cells=len(cells))

    def run(self) -> SimResult:
        """detect + domain generation + inference, end to end."""
        t0 = time.time()
        res = self.infer(None)
        return SimResult(res.chosen, time.time() - t0, res.dirty_cells)

    # -- full grounding + training (the HoloClean cost shape) --------------
    def ground_and_train(self, *, epochs: int = 3, lr: float = 0.05) -> SimResult:
        """Featurize *every* cell, train evidence weights, infer dirty cells.

        The real HoloClean grounds a factor graph over all cells of the
        dataset (clean cells are its training data) and learns feature
        weights — that is where its runtime goes (Tables 6-7: ~20× the
        Spark-based cleaners).  This method reproduces that cost shape with
        genuine work: per-cell softmax scoring over co-occurrence features
        and SGD weight updates, for ``epochs`` passes over all cells.
        """
        t0 = time.time()
        dirty = set(self.dirty_cells())
        # HoloClean grounds *every* categorical cell of the dataset, not just
        # the rule attributes — that full-width grounding is its cost driver
        target_attrs = sorted(
            c for c in self.df.columns if self.df[c].dtype == object
        )
        evidence = self._evidence_attrs(target_attrs)
        for a in target_attrs:
            others = [c for c in target_attrs if c != a and c not in evidence[a]]
            evidence[a] = evidence[a] + others
        cooc = self._cooc_tables(target_attrs, evidence)
        weights = {a: {e: 1.0 for e in evidence[a]} for a in target_attrs}
        col_vals = {c: self.df[c].to_numpy() for c in self.df.columns}
        n = len(self.df)
        for _ in range(epochs):
            for a in target_attrs:
                evs = evidence[a]
                w = weights[a]
                obs_col = col_vals[a]
                for r in range(n):  # grounding pass over every cell
                    observed = obs_col[r]
                    # candidate domain from co-occurrence
                    scores: dict[str, float] = {}
                    feats: dict[str, dict[str, float]] = {}
                    for e in evs:
                        dist = cooc[(a, e)].get(col_vals[e][r])
                        if not dist:
                            continue
                        for v, p in dist.items():
                            scores[v] = scores.get(v, 0.0) + w[e] * p
                            feats.setdefault(v, {})[e] = p
                    if observed not in scores or len(scores) < 2:
                        continue
                    if (r, a) in dirty:
                        continue  # clean cells only are training examples
                    # softmax gradient step toward the observed value
                    import math

                    mx = max(scores.values())
                    exp = {v: math.exp(s - mx) for v, s in scores.items()}
                    z = sum(exp.values())
                    for e in evs:
                        grad = feats.get(observed, {}).get(e, 0.0)
                        grad -= sum(
                            (exp[v] / z) * feats.get(v, {}).get(e, 0.0) for v in exp
                        )
                        w[e] += lr * grad
        # inference over the dirty cells with the learned weights
        rows = []
        for r, a in sorted(dirty):
            observed = self.df.at[r, a]
            best_v, best_s, obs_s = observed, -1.0, 0.0
            scored: dict[str, float] = {}
            for e in evidence[a]:
                dist = cooc[(a, e)].get(self.df.at[r, e])
                if not dist:
                    continue
                for v, p in dist.items():
                    scored[v] = scored.get(v, 0.0) + weights[a][e] * p
            denom = max(1.0, sum(weights[a].values()))
            for v, s in scored.items():
                s /= denom
                if v == observed:
                    obs_s = s
                if s > best_s:
                    best_v, best_s = v, s
            value = best_v if best_s > obs_s + self.margin else observed
            rows.append((r, a, value))
        chosen = pd.DataFrame(rows, columns=["rid", "attr", "value"])
        return SimResult(chosen, time.time() - t0, dirty_cells=len(dirty))


# ---------------------------------------------------------------------- #
# DaisyP: per-tuple MAP over the stored possible worlds
# ---------------------------------------------------------------------- #
def daisy_p_choose(
    cands: dict[str, pd.DataFrame],
    dirty: pd.DataFrame,
    rules: list[FD],
    *,
    change_prior: float = 0.5,
    top_k: int = 4,
) -> pd.DataFrame:
    """DaisyP: select the most probable consistent world per tuple.

    ``cands``: attr → canonical candidates frame ``(tid, v, p, w)``
    (from :func:`repro.core.prob.cands_canonical`).  ``rules``: the
    table's FDs in registration order, which gives each its lhs world
    (:func:`repro.core.repair.lhs_world`).  Each rule offers its world-1
    option (keep lhs, rhs = one candidate) and its lhs-world options (keep
    rhs, lhs = one candidate); a combination must agree on shared
    attributes and multiplies its options' probabilities with
    ``change_prior`` per changed cell.  Returns ``(rid, attr, value)``.
    """
    dirty = dirty.reset_index(drop=True)
    by_tid: dict[int, dict[str, list[tuple[str, float, int]]]] = {}
    for attr, frame in cands.items():
        for tid, v, p, w in frame[["tid", "v", "p", "w"]].itertuples(index=False):
            by_tid.setdefault(int(tid), {}).setdefault(attr, []).append((v, float(p), int(w)))
    # attrs that are the (single) lhs of some rule: their world-1 keep
    # entries (p=1, v=observed) must not be mistaken for another rule's
    # merged rhs distribution over the same attribute
    lhs_attrs = {fd.lhs[0] for fd in rules if fd.single_lhs}
    rows = []
    for tid, attr_cands in by_tid.items():
        options_per_rule = []
        involved_attrs: set[str] = set()
        for i, fd in enumerate(rules):
            if not fd.single_lhs:
                # composite lhs: only the rhs-varies world exists
                rhs_opts = [
                    ({fd.rhs: v}, p)
                    for v, p, w in attr_cands.get(fd.rhs, [])
                    if w == 1
                ]
                if rhs_opts:
                    options_per_rule.append(rhs_opts[:top_k])
                    involved_attrs.add(fd.rhs)
                continue
            la = fd.lhs[0]
            obs_l = dirty.at[tid, la]
            obs_r = dirty.at[tid, fd.rhs]
            keep_lhs = [
                ({la: obs_l, fd.rhs: v}, p)
                for v, p, w in sorted(attr_cands.get(fd.rhs, []), key=lambda t: -t[1])
                if w == 1
                and not (fd.rhs in lhs_attrs and p == 1.0 and v == obs_r)
            ]
            keep_rhs = [
                ({la: v, fd.rhs: obs_r}, p)
                for v, p, w in sorted(attr_cands.get(la, []), key=lambda t: -t[1])
                if w == lhs_world(i)
            ]
            opts = keep_lhs[:top_k] + keep_rhs[:top_k]
            if not opts:
                continue
            options_per_rule.append(opts)
            involved_attrs |= {la, fd.rhs}
        if not options_per_rule:
            continue
        best_combo, best_score = None, -1.0
        for combo in itertools.product(*options_per_rule):
            assign: dict[str, str] = {}
            score = 1.0
            ok = True
            for cells, p in combo:
                for a, v in cells.items():
                    if a in assign and assign[a] != v:
                        ok = False
                        break
                    assign[a] = v
                if not ok:
                    break
                score *= p
            if not ok:
                continue
            changed = sum(1 for a, v in assign.items() if v != dirty.at[tid, a])
            score *= change_prior**changed
            if score > best_score:
                best_combo, best_score = assign, score
        if best_combo:
            for a, v in best_combo.items():
                rows.append((tid, a, v))
    return pd.DataFrame(rows, columns=["rid", "attr", "value"])


def daisy_domains_for_holoclean(
    cands: dict[str, pd.DataFrame]
) -> dict[tuple[int, str], list[str]]:
    """Populate HoloClean's cell_domain from Daisy's candidates (DaisyH)."""
    out: dict[tuple[int, str], list[str]] = {}
    for attr, frame in cands.items():
        for tid, v in frame[["tid", "v"]].itertuples(index=False):
            key = (int(tid), attr)
            vals = out.setdefault(key, [])
            if v not in vals:
                vals.append(v)
    return out

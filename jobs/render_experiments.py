"""Assemble EXPERIMENTS.md from benchmarks/results/*.json.

Run after ``python jobs/run.py <name>`` or ``pytest benchmarks/
--benchmark-only``.  Both go through ``repro.experiments.run``, which saves
each experiment's paper-vs-measured payload there before it checks the
paper's claim, so a claim that failed is rendered with its numbers too.
Keeps commentary blocks maintained here so re-rendering after a re-run
refreshes the numbers without losing the analysis.
"""
from __future__ import annotations

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"


def load(name: str) -> dict | None:
    p = RESULTS / f"{name}.json"
    return json.loads(p.read_text()) if p.exists() else None


def fmt_acc(row):
    return " / ".join(f"{v:.2f}" for v in row)


def main() -> None:
    out: list[str] = []
    w = out.append
    w("# EXPERIMENTS — paper numbers vs. this reproduction\n")
    w(
        "All timings are single local[*] Spark 4.1 session (16 cores) at the "
        "reduced scales of DESIGN.md §4-5; the paper ran a 7-node cluster "
        "(56 cores) on the full datasets. Absolute numbers are therefore not "
        "comparable — the *shape* (ordering, growth, crossovers) is the "
        "reproduction target. `B` = offline per-group batch size "
        "(paper's baseline is B=1: one pass per erroneous group).\n"
    )

    t5 = load("table5")
    if t5:
        w("## Table 5 — repair accuracy (precision / recall / F1)\n")
        w("| rule set | system | paper | measured |")
        w("|---|---|---|---|")
        for rs in ("phi1", "phi1+phi2", "phi1+phi2+phi3"):
            for system in ("holoclean", "daisyH", "daisyP"):
                w(
                    f"| {rs} | {system} | {fmt_acc(t5['paper'][rs][system])} | "
                    f"{fmt_acc(t5['measured'][rs][system])} |"
                )
        w("")
        w(
            "Shape reproduced: with φ1 alone every system degrades and DaisyP "
            "(blind most-probable-value) is clearly worst; once φ2/φ3 are "
            "known all three systems are ≥0.96 F1. Deviations: there the "
            "HoloClean stand-in (1.00) is slightly ahead of DaisyH (0.98) and "
            "DaisyP (0.96-0.97), where the paper has the Daisy variants "
            "slightly ahead; and our φ1-only Holoclean/DaisyH trade less "
            "precision for recall than the paper's (their inference is more "
            "conservative than our margin-voting substrate).\n"
        )

    t6 = load("table6")
    if t6:
        w(f"## Table 6 — response time vs #rules (hospital, {t6.get('rows','-')} rows here vs 100K in paper)\n")
        w("| rule set | system | paper (s) | measured (s) |")
        w("|---|---|---|---|")
        for rs in ("phi1", "phi1+phi2", "phi1+phi2+phi3"):
            for system in ("full", "daisy", "holoclean"):
                w(
                    f"| {rs} | {system} | {t6['paper'][rs][system]} | "
                    f"{t6['measured'][rs][system]} |"
                )
        w("")
        w(
            "Partly reproduced: both Daisy and full cleaning grow with #rules, "
            "but Daisy beats full cleaning only with all three rules; with φ1 "
            "it is slower and with φ1+φ2 about even (the paper has Daisy ahead "
            "for every rule set: 49/51, 40/49, 92/118). The HoloClean "
            "substrate (full-dataset grounding + learning) costs about the "
            "same for every rule set: it is the slowest system for φ1 and "
            "φ1+φ2 but beats full cleaning with three rules. The paper's "
            "~10-20× HoloClean gap is larger than ours — their PyTorch "
            "factor-graph at 100K rows does more work than our numpy/python "
            "substrate at this scale.\n"
        )

    t7 = load("table7")
    if t7:
        w("## Table 7 — incremental rule arrival via provenance\n")
        w("| strategy | φ1 | φ1+φ2 | φ1+φ2+φ3 | total |")
        w("|---|---|---|---|---|")
        for strat in ("three_exec", "one_exec", "holoclean"):
            p = t7["paper"][strat]
            m = t7["measured"][strat]
            w(
                f"| {strat} (paper) | {p['phi1']} | {p['phi1+phi2']} | "
                f"{p['phi1+phi2+phi3']} | {p['total']} |"
            )
            w(
                f"| {strat} (measured) | {m['phi1']} | {m['phi1+phi2']} | "
                f"{m['phi1+phi2+phi3']} | {m['total']} |"
            )
        w("")
        w(
            "Shape reproduced: the single provenance-keeping session beats "
            "three from-scratch executions because adding a rule only runs "
            "the new rule's detection and merges probabilistic fixes "
            "(Lemma 4), exactly as the paper describes.\n"
        )

    t8 = load("table8")
    if t8:
        w("## Table 8 — realistic scenarios\n")
        w("| dataset | paper Daisy | paper offline | measured Daisy (s) | measured offline (s) | B |")
        w("|---|---|---|---|---|---|")
        bmap = {"nestle_small": 10, "nestle_large": 10, "air_30": 1, "air_97": 1}
        for k in ("nestle_small", "nestle_large", "air_30", "air_97"):
            p = t8["paper"][k]
            m = t8["measured"][k]
            w(
                f"| {k} ({m.get('rows','-')} rows) | {p['daisy']} | {p['offline']} | "
                f"{m['daisy']} | {m['offline']} | {bmap[k]} |"
            )
        w("")
        w(
            "Mostly reproduced: on the small Nestle offline wins here (the "
            "paper has Daisy slightly ahead) — Daisy's per-query Spark-job "
            "overhead is proportionally larger at 6K rows; the gap inverts and grows "
            "on the large version (low Category selectivity → one offline "
            "pass per erroneous group), and at the faithful B=1 cost the "
            "offline cleaner exceeds its wall-clock budget on air quality "
            "(the paper's one-day timeout, scaled) while Daisy finishes both "
            "violation regimes.\n"
        )

    fig_notes = {
        "fig5": "Offline per-group runs at B=5 (paper's baseline is B=1 — one "
                "pass per erroneous group — which would be several times "
                "slower still); Daisy wins at every cardinality and both "
                "systems grow with the number of groups.",
        "fig7": "Not reproduced: the cost model never switches at this scale "
                "(`switched_at` is null), so the cost-model run does the same "
                "work as the incremental one. Daisy (either mode) still beats "
                "offline ~3×. Fig 12 shows the switch firing, but after "
                "query 1 rather than mid-workload.",
        "fig9": "Offline passes grow with the violation fraction (the paper's "
                "mechanism: iterations ∝ #erroneous groups) while Daisy's "
                "cost is flat in it; endpoints of the paper's 20-80% sweep. "
                "Unlike the paper, Daisy is slower than offline at both "
                "endpoints; only the gap closing as violations grow carries "
                "over.",
        "fig10": "The Alg. 2 accuracy gate decides partial cleaning for the "
                 "0.2%/2% versions and full cleaning for the 20% outlier "
                 "version, as in the paper. Our partial mode converges to "
                 "100% of offline's violations because the workload covers "
                 "the whole matrix; the paper's 99%/80% reflect their "
                 "sampled coverage. Not reproduced: Daisy is 1.8-3× slower "
                 "than offline in all three regimes (the paper reports 1.3× "
                 "faster); the fixed Spark work per query dominates at 5K "
                 "rows.",
        "fig11": "clean_⋈ cleans both qualifying parts and re-evaluates the "
                 "join incrementally; offline pays full cleaning of both "
                 "tables plus probabilistic joins.",
        "fig12": "The cost model switches after query 1 (the paper: about a "
                 "third of the way through) and beats both pure incremental "
                 "and offline, the paper's headline for this figure.",
    }
    for name, title in (
        ("fig5", "Fig 5 — SP cost vs orderkey cardinality (rhs filters)"),
        ("fig7", "Fig 7 — cost-model switch under low suppkey selectivity"),
        ("fig9", "Fig 9 — increasing violation fraction"),
        ("fig10", "Fig 10 — inequality DCs (theta-join + Alg. 2 accuracy gate)"),
        ("fig11", "Fig 11 — SPJ workload (clean_⋈)"),
        ("fig12", "Fig 12 — mixed SP+SPJ workload"),
    ):
        d = load(name)
        if not d:
            continue
        w(f"## {title}\n")
        w(f"Paper: {json.dumps(d['paper'])}\n")
        w("```json")
        w(json.dumps(d["measured"], indent=1))
        w("```")
        w("")
        w(fig_notes[name] + "\n")

    (ROOT / "EXPERIMENTS.md").write_text("\n".join(out) + "\n")
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")


if __name__ == "__main__":
    main()

"""perfbench's trace mode wraps engine functions by name; each name must resolve.

A renamed or deleted function fails here, not in a later ``--trace 1`` run.
No Spark job is started.
"""
from pathlib import Path

from repro.core import operators, repair

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness
    import tracer

    originals = (operators.clean_sigma, repair.compute_repairs)
    tr = tracer.Tracer(None, "guard")
    try:
        harness._install(tr)
        assert operators.clean_sigma is not originals[0]
    finally:
        tr.uninstall()
    assert (operators.clean_sigma, repair.compute_repairs) == originals

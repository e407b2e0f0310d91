"""The experiment registry and its one runner, as ``jobs/run.py`` uses them."""
import importlib.util
import json
import pathlib

import pytest

from repro import experiments
from repro.experiments import common

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def runner():
    spec = importlib.util.spec_from_file_location("jobs_run", ROOT / "jobs" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_registry_names_the_benchmarked_experiments():
    # the payloads jobs/render_experiments.py reads, one per experiment
    recorded = {p.stem for p in (ROOT / "benchmarks" / "results").glob("*.json")}
    assert set(experiments.EXPERIMENTS) == recorded


def test_run_saves_before_it_checks(monkeypatch, tmp_path):
    def fail(out):
        assert out["measured"] > 1, "claim does not hold"

    monkeypatch.setitem(
        experiments.EXPERIMENTS, "fake", (lambda spark: {"measured": 1}, fail)
    )
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    with pytest.raises(AssertionError, match="claim does not hold"):
        experiments.run("fake", None)
    assert json.loads((tmp_path / "fake.json").read_text()) == {"measured": 1}


def test_unknown_experiment_exits_nonzero(runner, capsys):
    with pytest.raises(SystemExit) as exc:
        runner.main(["fig99"])
    assert exc.value.code != 0
    assert "fig10" in capsys.readouterr().err

"""The ``jobs/run.py`` registry: one runner for every benchmarked experiment."""
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def runner():
    spec = importlib.util.spec_from_file_location("jobs_run", ROOT / "jobs" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_registry_names_the_benchmarked_experiments(runner):
    # benchmarks/test_<name>_<what>.py, one per experiment
    benchmarked = {p.stem.split("_")[1] for p in (ROOT / "benchmarks").glob("test_*.py")}
    assert set(runner.EXPERIMENTS) == benchmarked


def test_unknown_experiment_exits_nonzero(runner, capsys):
    with pytest.raises(SystemExit) as exc:
        runner.main(["fig99"])
    assert exc.value.code != 0
    assert "fig10" in capsys.readouterr().err

"""Smoke tests of the experiment scripts at toy size: they drive the
pipeline API directly, so an API change must not break them silently."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("noise_separation", ["--samples", "4", "--spots", "30", "--genes", "4",
                          "--hidden", "4", "--kernel-hidden", "4", "--epochs", "1",
                          "--runs", "1"]),
    ("resolution_shift", ["--train-spots", "30", "--eval-spots", "30",
                          "--hidden", "4", "--kernel-hidden", "4", "--epochs", "1"]),
])
def test_experiment_script_runs_at_toy_size(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert "F1" in capsys.readouterr().out

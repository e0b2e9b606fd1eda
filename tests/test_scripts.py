"""Tests of the study script at toy size: it drives the pipeline API
directly, so an API change must not break it silently."""

import importlib.util
from pathlib import Path

from stgno.models import make_config
from stgno.pipeline import (SyntheticConfig, assemble_graphs, bin_labels,
                            generate_synthetic, select_holdout)
from stgno.train import TrainConfig, evaluate, train

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

TOY = ["--samples", "4", "--spots", "30", "--genes", "4", "--hidden", "4",
       "--kernel-hidden", "4", "--epochs", "1"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_study_runs_at_toy_size(capsys):
    assert load_script("study").main(TOY + ["--runs", "1", "--eval-spots", "30", "60"]) == 0
    out = capsys.readouterr().out
    # one line per (kind, density), for each default kind
    for name in ("LR", "FCN", "GraphPDE"):
        for spots in (30, 60):
            assert f"  {name:<13} {spots:5d} spots: " in out


def _noise_graphs(spots):
    """The toy study's data at one density, built straight from the API."""
    table, label_map = generate_synthetic(SyntheticConfig(
        num_samples=4, spots_per_sample=spots, num_genes=4, region_seeds_per_class=1,
        expression_mode="noise_only", seed=1))
    table = bin_labels(table, label_map)
    split = select_holdout(table, k=2, min_classes=3, seed=1)
    return assemble_graphs(table, split, radius=0.25)[:2]


def test_study_f1s_equal_a_direct_train_and_evaluate_per_seed():
    study = load_script("study")
    f1s = study.study(study.parse_args(
        TOY + ["--kinds", "graphpde", "--runs", "2", "--seed", "1",
               "--eval-spots", "30", "60"]))
    train_g = _noise_graphs(30)[0]
    holdouts = {spots: _noise_graphs(spots)[1] for spots in (30, 60)}
    expected = {("graphpde", 30): [], ("graphpde", 60): []}
    for seed in (1, 2):
        cfg = make_config("graphpde", input_dim=4, hidden_dim=4, kernel_net_hidden=(4,),
                          init_seed=seed)
        params, _history = train(cfg, train_g, TrainConfig(
            epochs=1, learning_rate=1e-2, num_runs=1, seed=seed))
        for spots, hold_g in holdouts.items():
            expected["graphpde", spots].append(evaluate(params, cfg, hold_g).macro_f1)
    assert f1s == expected

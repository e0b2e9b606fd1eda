"""Tests of the study script at toy size: it drives the pipeline API
directly, so an API change must not break it silently."""

import importlib.util
from pathlib import Path

import pytest

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


def test_study_holds_out_the_same_slides_at_every_density():
    # a holdout drawn per density would hold out s09 and s11 at 75 spots,
    # two of the slides that seed 6 trains on at 300 spots
    study = load_script("study")
    data, _label_map = study.build(study.parse_args(["--seed", "6", "--eval-spots", "75"]))
    held = {spots: [g.sample_id for g in hold_g] for spots, (_train_g, hold_g) in data.items()}
    assert held == {75: ["s08", "s10"], 300: ["s08", "s10"]}


@pytest.mark.parametrize("repeat", [["--kinds", "lr", "lr"],
                                    ["--eval-spots", "30", "30", "60"]])
def test_study_refuses_a_repeated_kind_or_density(capsys, repeat):
    with pytest.raises(SystemExit) as exc:
        load_script("study").parse_args(TOY + repeat)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"{repeat[0]} names {repeat[1]} more than once\n")


def _noise_tables(spots):
    """The toy study's binned table at one density, built straight from the API."""
    table, label_map = generate_synthetic(SyntheticConfig(
        num_samples=4, spots_per_sample=spots, num_genes=4, region_seeds_per_class=1,
        expression_mode="noise_only", seed=1))
    return bin_labels(table, label_map)


def test_study_f1s_equal_a_direct_train_and_evaluate_per_seed():
    study = load_script("study")
    f1s = study.study(study.parse_args(
        TOY + ["--kinds", "graphpde", "--runs", "2", "--seed", "1",
               "--eval-spots", "30", "60"]))
    tables = {spots: _noise_tables(spots) for spots in (30, 60)}
    split = select_holdout(tables[30], k=2, min_classes=3, seed=1)
    train_g = assemble_graphs(tables[30], split, radius=0.25)[0]
    holdouts = {spots: assemble_graphs(table, split, radius=0.25)[1]
                for spots, table in tables.items()}
    expected = {("graphpde", 30): [], ("graphpde", 60): []}
    for seed in (1, 2):
        cfg = make_config("graphpde", input_dim=4, hidden_dim=4, kernel_net_hidden=(4,),
                          init_seed=seed)
        params, _history = train(cfg, train_g, TrainConfig(
            epochs=1, learning_rate=1e-2, num_runs=1, seed=seed))
        for spots, hold_g in holdouts.items():
            expected["graphpde", spots].append(evaluate(params, cfg, hold_g).macro_f1)
    assert f1s == expected

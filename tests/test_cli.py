import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from stgno.cli import build_parser, main
from stgno.pipeline import load_spot_table


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run_cli("synth", "--out", str(out), "--samples", "6", "--spots", "60",
                   "--genes", "8", "--mode", "informative", "--separation", "2.0",
                   "--region-seeds", "2", "--seed", "4")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def prepared_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("prep")
    code = run_cli("prepare", "--spots", str(synth_dir / "spots.csv"),
                   "--genes", str(synth_dir / "genes.txt"),
                   "--labels", str(synth_dir / "labels.tsv"),
                   "--radius", "0.3", "--holdout-k", "2", "--min-classes", "3",
                   "--seed", "0", "--out", str(out))
    assert code == 0
    return out


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# synth


def test_synth_outputs_reload_losslessly(synth_dir):
    table = load_spot_table(synth_dir / "spots.csv")
    assert table.num_spots == 6 * 60
    genes = (synth_dir / "genes.txt").read_text().split()
    assert genes == table.gene_names
    assert (synth_dir / "labels.tsv").exists()


def test_synth_single_spot_samples(tmp_path):
    with pytest.warns(UserWarning):
        code = run_cli("synth", "--out", str(tmp_path / "one"), "--samples", "3",
                       "--spots", "1", "--genes", "4", "--seed", "0")
        assert code == 0
        code = run_cli("prepare", "--spots", str(tmp_path / "one" / "spots.csv"),
                       "--genes", str(tmp_path / "one" / "genes.txt"),
                       "--labels", str(tmp_path / "one" / "labels.tsv"),
                       "--radius", "0.3", "--holdout-k", "1", "--min-classes", "1",
                       "--seed", "0", "--out", str(tmp_path / "prep1"))
    assert code == 0


def test_synth_defaults_documented():
    _parser, subparsers = build_parser()
    defaults = {a.dest: a.default for a in subparsers["synth"]._actions}
    assert defaults["samples"] == 20
    assert defaults["spots"] == 300
    assert defaults["genes"] == 32


# ---------------------------------------------------------------------------
# prepare


def test_prepare_manifest_records_flags(prepared_dir):
    manifest = json.loads((prepared_dir / "manifest.json").read_text())
    flags = manifest["flags"]
    assert flags["radius"] == 0.3
    assert flags["holdout_k"] == 2
    assert flags["min_classes"] == 3
    assert flags["standardize"] is False
    assert flags["seed"] == 0
    assert len(manifest["split"]["holdout"]) == 2
    assert not set(manifest["split"]["train"]) & set(manifest["split"]["holdout"])


def test_prepare_defaults_match_documented_values():
    _parser, subparsers = build_parser()
    defaults = {a.dest: a.default for a in subparsers["prepare"]._actions}
    assert defaults["holdout_k"] == 7
    assert defaults["min_classes"] == 10


def test_train_and_report_run_defaults():
    _parser, subparsers = build_parser()
    for name in ("train", "report"):
        defaults = {a.dest: a.default for a in subparsers[name]._actions}
        assert defaults["runs"] == 10
        assert defaults["epochs"] == 100
        assert defaults["lr"] == 1e-3


def test_prepare_warns_on_extreme_median_degree(synth_dir, tmp_path, capsys):
    code = run_cli("prepare", "--spots", str(synth_dir / "spots.csv"),
                   "--genes", str(synth_dir / "genes.txt"),
                   "--labels", str(synth_dir / "labels.tsv"),
                   "--radius", "2.0", "--holdout-k", "1", "--min-classes", "3",
                   "--seed", "0", "--out", str(tmp_path / "dense"))
    assert code == 0
    captured = capsys.readouterr()
    assert "outside [3, 12]" in captured.err


def test_prepare_degree_summary_printed(synth_dir, tmp_path, capsys):
    code = run_cli("prepare", "--spots", str(synth_dir / "spots.csv"),
                   "--genes", str(synth_dir / "genes.txt"),
                   "--labels", str(synth_dir / "labels.tsv"),
                   "--radius", "0.3", "--holdout-k", "1", "--min-classes", "3",
                   "--seed", "1", "--out", str(tmp_path / "p"))
    assert code == 0
    out = capsys.readouterr().out
    assert "median train degree" in out
    assert re.search(r"radius: 0\.3", out)


# ---------------------------------------------------------------------------
# train / eval / predict / report


@pytest.fixture(scope="module")
def trained_dir(prepared_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run_cli("train", "--data", str(prepared_dir), "--model", "lr",
                   "--epochs", "3", "--runs", "2", "--seed", "0",
                   "--out", str(out))
    assert code == 0
    return out


def test_train_writes_checkpoints_and_logs(trained_dir):
    names = {p.name for p in trained_dir.iterdir()}
    assert {"run_0.ckpt.json", "run_1.ckpt.json", "best.ckpt.json",
            "run_0.log.jsonl", "run_1.log.jsonl", "train_summary.json"} <= names
    lines = (trained_dir / "run_0.log.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3
    entry = json.loads(lines[0])
    assert set(entry) == {"epoch", "mean_loss", "elapsed"}


def test_train_unknown_model_lists_valid_names(prepared_dir, tmp_path, capsys):
    code = run_cli("train", "--data", str(prepared_dir), "--model", "resnet",
                   "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:usage:")
    assert "graphpde" in err


@pytest.mark.parametrize("widths", ["-1", "0", "8,0"])
def test_train_nonpositive_kernel_width_is_usage_error(prepared_dir, tmp_path,
                                                      capsys, widths):
    code = run_cli("train", "--data", str(prepared_dir), "--model", "graphpde",
                   f"--kernel-hidden={widths}", "--epochs", "1", "--runs", "1",
                   "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:usage:")
    assert err.count("\n") == 1
    assert "kernel network widths" in err


def test_eval_deterministic_bytes(prepared_dir, trained_dir, capsys):
    args = ("eval", "--data", str(prepared_dir),
            "--checkpoint", str(trained_dir / "best.ckpt.json"))
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert set(doc) >= {"confusion", "accuracy", "macro_f1", "per_class_f1"}


def test_eval_dimension_mismatch_is_data_error(trained_dir, tmp_path, capsys):
    other = tmp_path / "synth2"
    run_cli("synth", "--out", str(other), "--samples", "4", "--spots", "40",
            "--genes", "5", "--seed", "1")
    prep2 = tmp_path / "prep2"
    run_cli("prepare", "--spots", str(other / "spots.csv"),
            "--genes", str(other / "genes.txt"),
            "--labels", str(other / "labels.tsv"), "--radius", "0.3",
            "--holdout-k", "1", "--min-classes", "3", "--seed", "0",
            "--out", str(prep2))
    code = run_cli("eval", "--data", str(prep2),
                   "--checkpoint", str(trained_dir / "best.ckpt.json"))
    assert code == 2
    assert capsys.readouterr().err.startswith("error:data:")


def test_predict_row_count_matches_spots(synth_dir, trained_dir, tmp_path):
    out_csv = tmp_path / "preds.csv"
    code = run_cli("predict", "--checkpoint", str(trained_dir / "best.ckpt.json"),
                   "--spots", str(synth_dir / "spots.csv"),
                   "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "sample_id,x,y,predicted_class"
    assert len(lines) - 1 == 6 * 60
    classes = {line.split(",")[3] for line in lines[1:]}
    assert classes <= {"region_a", "region_b", "region_c"}
    # coordinates round-trip as plain decimal floats
    source = load_spot_table(synth_dir / "spots.csv")
    first = lines[1].split(",")
    assert float(first[1]) == source.positions[0, 0]
    assert float(first[2]) == source.positions[0, 1]


def test_report_table_grammar_and_files(prepared_dir, tmp_path, capsys):
    out = tmp_path / "rep"
    code = run_cli("report", "--data", str(prepared_dir), "--models", "lr,fcn",
                   "--epochs", "2", "--runs", "1", "--seed", "0",
                   "--hidden", "4", "--out", str(out))
    assert code == 0
    stdout = capsys.readouterr().out
    row = re.compile(r"^(LR|FCN)\s+\d+\.\d{2} ± \d+\.\d{2} %\s+"
                     r"\d+\.\d{2} ± \d+\.\d{2} %\s+\d+\s*$")
    lines = (out / "report.txt").read_text().strip().splitlines()
    assert lines[0].split() == ["Model", "Accuracy", "Macro-F1", "Params"]
    assert all(row.match(l) for l in lines[1:])
    doc = json.loads((out / "report.json").read_text())
    assert [r["model"] for r in doc["models"]] == ["LR", "FCN"]
    assert "report.txt" in stdout
    # the summary statistics must be recomputable from the persisted
    # per-run records alone
    for row in doc["models"]:
        accs = [r["accuracy"] for r in row["runs"]]
        f1s = [r["macro_f1"] for r in row["runs"]]
        assert row["mean_accuracy"] == pytest.approx(np.mean(accs), abs=1e-15)
        assert row["mean_f1"] == pytest.approx(np.mean(f1s), abs=1e-15)


# ---------------------------------------------------------------------------
# contracts


def test_inputs_never_mutated(synth_dir, prepared_dir, tmp_path):
    before = dir_digest(synth_dir), dir_digest(prepared_dir)
    run_cli("report", "--data", str(prepared_dir), "--models", "lr",
            "--epochs", "1", "--runs", "1")
    run_cli("train", "--data", str(prepared_dir), "--model", "lr", "--epochs", "1",
            "--runs", "1", "--out", str(tmp_path / "t"))
    assert (dir_digest(synth_dir), dir_digest(prepared_dir)) == before


def test_missing_file_is_data_error(capsys):
    code = run_cli("eval", "--data", "/nonexistent", "--checkpoint", "/nope")
    assert code == 2
    assert capsys.readouterr().err.startswith("error:data:")


def test_unknown_flag_is_usage_error(capsys):
    code = run_cli("synth", "--out", "/tmp/x", "--bogus", "1")
    assert code == 1
    assert capsys.readouterr().err.startswith("error:usage:")


def test_help_documents_every_flag_with_default():
    parser, subparsers = build_parser()
    for name, sub in subparsers.items():
        help_text = sub.format_help()
        for action in sub._actions:
            if action.dest in ("help", "command"):
                continue
            assert action.option_strings[0] in help_text, (name, action.dest)
            if action.default is not None and action.default != "==SUPPRESS==" \
                    and not action.required:
                assert "default" in help_text.lower()


def test_config_file_layering(synth_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 3, "spots": 30, "genes": 4, "seed": 9}))
    out = tmp_path / "from_cfg"
    code = run_cli("synth", "--config", str(cfg), "--out", str(out),
                   "--genes", "5")  # explicit flag beats config value
    assert code == 0
    table = load_spot_table(out / "spots.csv")
    assert table.num_spots == 3 * 30
    assert len(table.gene_names) == 5


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    code = run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "bogus_key" in capsys.readouterr().err

import csv
import hashlib
import json
import re
import shlex
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from stgno import autodiff as ad
from stgno import pipeline
from stgno.cli import build_parser, main
from stgno.errors import DataError
from stgno.ioutil import dump_json
from stgno.pipeline import PREPARED_VERSION, load_prepared, load_spot_table
from stgno.train import evaluate, load_checkpoint

from oracles import brute_force_radius_edges


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


def test_synth_single_spot_samples(tmp_path, capsys):
    code = run_cli("synth", "--out", str(tmp_path / "one"), "--samples", "3",
                   "--spots", "1", "--genes", "4", "--seed", "0")
    assert code == 0
    argv = ("prepare", "--spots", str(tmp_path / "one" / "spots.csv"),
            "--genes", str(tmp_path / "one" / "genes.txt"),
            "--labels", str(tmp_path / "one" / "labels.tsv"),
            "--radius", "0.3", "--holdout-k", "1", "--min-classes", "1",
            "--seed", "0", "--out", str(tmp_path / "prep1"))
    capsys.readouterr()
    assert run_cli(*argv) == 0
    # each library warning is one line, as the degree warning is
    err = capsys.readouterr().err.splitlines()
    assert all(line.startswith("warning: ") for line in err), err
    assert sorted(line for line in err if "edgeless" in line) == [
        f"warning: sample 's0{i}' has 1 spot(s); kept as an edgeless graph"
        for i in range(3)]
    # the filters still decide: a warning made an error is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="edgeless"):
            run_cli(*argv)


@pytest.mark.parametrize("flag,value", [("--noise", "nan"), ("--noise", "inf"),
                                        ("--noise", "-1"), ("--separation", "nan")])
def test_synth_non_finite_expression_setting_is_one_usage_line(tmp_path, capsys,
                                                               flag, value):
    assert run_cli("synth", "--out", str(tmp_path / "x"), f"{flag}={value}") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:usage:") and err.count("\n") == 1, err
    assert not (tmp_path / "x").exists()


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


def test_refused_prepare_leaves_an_existing_dataset_unchanged(synth_dir, prepared_dir,
                                                             tmp_path, capsys):
    # the same spots, standardized, so every file would change; the last
    # holdout slide, written last, gets an id that is not filesystem-safe
    prep = tmp_path / "prep"
    shutil.copytree(prepared_dir, prep)
    before = {p.name: p.read_bytes() for p in prep.iterdir()}
    last = json.loads((prep / "manifest.json").read_text())["split"]["holdout"][-1]
    with open(synth_dir / "spots.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[0] = "s 99" if row[0] == last else row[0]
    spots = tmp_path / "spots.csv"
    with open(spots, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    capsys.readouterr()
    assert run_cli("prepare", "--spots", str(spots), "--genes", str(synth_dir / "genes.txt"),
                   "--labels", str(synth_dir / "labels.tsv"), "--radius", "0.3",
                   "--holdout-k", "2", "--min-classes", "3", "--standardize", "true",
                   "--seed", "0", "--out", str(prep)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and "'s 99'" in err and err.count("\n") == 1, err
    assert {p.name: p.read_bytes() for p in prep.iterdir()} == before


def test_prepare_writes_positions_not_edges(prepared_dir):
    manifest = json.loads((prepared_dir / "manifest.json").read_text())
    assert manifest["format_version"] == PREPARED_VERSION == 3
    ids = [*manifest["split"]["train"], *manifest["split"]["holdout"]]
    assert sorted(p.name for p in prepared_dir.iterdir()) == sorted(
        ["manifest.json", *(f"{sid}.npz" for sid in ids)])
    for sid in ids:
        with np.load(prepared_dir / f"{sid}.npz", allow_pickle=False) as npz:
            doc = {key: npz[key] for key in npz.files}
        assert set(doc) == {"sample_id", "positions", "features", "labels"}
        assert doc["sample_id"].shape == () and doc["sample_id"].item() == sid
        n = len(doc["labels"])
        for key, dtype, shape in (("positions", np.float64, (n, 2)),
                                  ("features", np.float64, (n, 8)),
                                  ("labels", np.int64, (n,))):
            assert doc[key].dtype == dtype and doc[key].shape == shape, key


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


def test_prepare_warns_of_an_absent_listed_gene_in_one_line(synth_dir, tmp_path, capsys):
    genes = tmp_path / "genes.txt"
    genes.write_text((synth_dir / "genes.txt").read_text() + "g999\n")
    capsys.readouterr()
    assert run_cli("prepare", "--spots", str(synth_dir / "spots.csv"), "--genes", str(genes),
                   "--labels", str(synth_dir / "labels.tsv"), "--radius", "0.3",
                   "--holdout-k", "2", "--min-classes", "3",
                   "--out", str(tmp_path / "prep")) == 0
    err = capsys.readouterr().err.splitlines()
    assert all(line.startswith("warning: ") for line in err), err
    assert "warning: 1 listed gene(s) not present in the table; skipped" in err, err


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


def test_prepare_records_graph_statistics_per_slide(prepared_dir, tmp_path):
    manifest = json.loads((prepared_dir / "manifest.json").read_text())
    train, holdout, _ = load_prepared(prepared_dir)
    stats = manifest["graph_statistics"]
    assert set(stats) == {s.sample_id for s in [*train, *holdout]}
    # every figure recomputed from the all-pairs edge list
    train_degrees = []
    for sample in [*train, *holdout]:
        edges = brute_force_radius_edges(sample.graph.positions, manifest["radius"])
        degree = np.bincount(edges[:, 1], minlength=sample.num_nodes)
        if any(sample is t for t in train):
            train_degrees.append(degree)
        assert stats[sample.sample_id] == {
            "edges": len(edges), "in_degree_min": int(degree.min()),
            "in_degree_median": float(np.median(degree)),
            "in_degree_max": int(degree.max()),
            "isolated_nodes": int((degree == 0).sum()),
            "slots_per_edge": sample.graph.layout.num_slots / len(edges)}
        assert 1.0 <= stats[sample.sample_id]["slots_per_edge"] < 2.0
    assert manifest["degree_median"] == float(np.median(np.concatenate(train_degrees)))
    # load_prepared does not read them
    copy = tmp_path / "prep"
    shutil.copytree(prepared_dir, copy)
    (copy / "manifest.json").write_text(json.dumps({**manifest, "graph_statistics": 7}))
    again, _, _ = load_prepared(copy)
    assert [s.sample_id for s in again] == [s.sample_id for s in train]


@pytest.mark.parametrize("gene,code", [("g007", 0), ("g000", 2)])
def test_prepare_reads_only_the_listed_genes(synth_dir, tmp_path, capsys, gene, code):
    lines = (synth_dir / "spots.csv").read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[4].split(",")
    cells[header.index(gene)] = "oops"
    lines[4] = ",".join(cells)
    spots, genes = tmp_path / "spots.csv", tmp_path / "genes.txt"
    spots.write_text("\n".join(lines) + "\n")
    genes.write_text("\n".join(header[4:-1]) + "\n")  # every gene but g007
    capsys.readouterr()
    assert run_cli("prepare", "--spots", str(spots), "--genes", str(genes),
                   "--labels", str(synth_dir / "labels.tsv"), "--radius", "0.3",
                   "--holdout-k", "2", "--min-classes", "3",
                   "--out", str(tmp_path / "prep")) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error:data:") and "spots.csv:5: non-numeric" in err
    else:
        manifest = json.loads((tmp_path / "prep" / "manifest.json").read_text())
        assert manifest["gene_names"] == header[4:-1]


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
    best = json.loads((trained_dir / "train_summary.json").read_text())["best_run"]
    assert (trained_dir / "best.ckpt.json").read_bytes() == \
        (trained_dir / f"run_{best}.ckpt.json").read_bytes()


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


@pytest.mark.parametrize("command", ["train", "report"])
def test_infinite_learning_rate_is_one_usage_line(prepared_dir, tmp_path, capsys, command):
    kinds = ("--model", "lr") if command == "train" else ("--models", "lr")
    capsys.readouterr()
    assert run_cli(command, "--data", str(prepared_dir), *kinds, "--epochs", "1",
                   "--runs", "1", "--lr", "inf", "--out", str(tmp_path / "x")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:usage:") and err.count("\n") == 1, err
    assert "learning_rate" in err, err
    assert not (tmp_path / "x").exists()


def test_infinite_bandwidth_is_one_usage_line(prepared_dir, tmp_path, capsys):
    capsys.readouterr()
    assert run_cli("train", "--data", str(prepared_dir), "--model", "spatial_kernel",
                   "--epochs", "1", "--runs", "1", "--bandwidth", "inf",
                   "--out", str(tmp_path / "x")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:usage:") and err.count("\n") == 1, err
    assert "bandwidth" in err, err
    assert not (tmp_path / "x").exists()


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


def test_eval_reads_and_builds_only_the_holdout(prepared_dir, trained_dir, tmp_path,
                                                monkeypatch, capsys):
    checkpoint = trained_dir / "best.ckpt.json"
    _train, holdout, _ = load_prepared(prepared_dir)
    params, config, _pre = load_checkpoint(checkpoint)
    want = dump_json(evaluate(params, config, holdout).to_json_dict())
    built = []
    build = pipeline.build_radius_graph
    monkeypatch.setattr(pipeline, "build_radius_graph",
                        lambda points, radius: built.append(points) or build(points, radius))
    assert run_cli("eval", "--data", str(prepared_dir), "--checkpoint", str(checkpoint)) == 0
    assert capsys.readouterr().out == want
    assert len(built) == len(holdout)
    for points, sample in zip(built, holdout):
        assert np.array_equal(points, sample.graph.positions)
    # so a broken train sample file does not stop eval
    copy = tmp_path / "prep"
    shutil.copytree(prepared_dir, copy)
    broken = json.loads((copy / "manifest.json").read_text())["split"]["train"][0]
    (copy / f"{broken}.npz").write_bytes(b"PK\x03\x04 truncated")
    with pytest.raises(DataError, match=broken):
        load_prepared(copy)
    assert run_cli("eval", "--data", str(copy), "--checkpoint", str(checkpoint)) == 0
    assert capsys.readouterr().out == want


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


def test_predict_quotes_ids_and_class_names_that_need_it(synth_dir, trained_dir,
                                                          tmp_path):
    # sample ids with a comma and with a quote, valid CSV on the way in, and
    # class names from the checkpoint with the same characters
    ids = {"s00": "a,b", "s01": 'say "hi"'}
    with open(synth_dir / "spots.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[0] = ids.get(row[0], row[0])
    spots = tmp_path / "spots.csv"
    with open(spots, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    doc = json.loads((trained_dir / "best.ckpt.json").read_text())
    names = ["x,1", 'y"2', "z"]
    doc["preprocess"]["class_names"] = names
    ckpt = tmp_path / "names.ckpt.json"
    ckpt.write_text(json.dumps(doc))
    out_csv = tmp_path / "preds.csv"
    assert run_cli("predict", "--checkpoint", str(ckpt), "--spots", str(spots),
                   "--out", str(out_csv)) == 0
    with open(out_csv, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["sample_id", "x", "y", "predicted_class"]
    assert len(got) - 1 == 6 * 60 and all(len(row) == 4 for row in got)
    assert [row[0] for row in got[1:]] == [row[0] for row in rows[1:]]
    assert {row[3] for row in got[1:]} <= set(names)
    assert set(ids.values()) <= {row[0] for row in got[1:]}


@pytest.mark.parametrize("holder", ["sample_id", "class_name"])
def test_predict_quotes_a_carriage_return(synth_dir, trained_dir, tmp_path, holder):
    # the csv module quotes a bare "\r" only under a line end that holds one;
    # written bare, "\r" splits the row for every reader
    with open(synth_dir / "spots.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    doc = json.loads((trained_dir / "best.ckpt.json").read_text())
    names = doc["preprocess"]["class_names"]
    if holder == "sample_id":
        for row in rows[1:]:
            row[0] = "a\rb" if row[0] == "s00" else row[0]
    else:
        names = doc["preprocess"]["class_names"] = [f"{n}\r{n}" for n in names]
    spots = tmp_path / "spots.csv"
    with open(spots, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)  # "\r\n" line ends: "\r" is quoted here
    ckpt = tmp_path / "names.ckpt.json"
    ckpt.write_text(json.dumps(doc))
    out_csv = tmp_path / "preds.csv"
    assert run_cli("predict", "--checkpoint", str(ckpt), "--spots", str(spots),
                   "--out", str(out_csv)) == 0
    with open(out_csv, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["sample_id", "x", "y", "predicted_class"]
    assert len(got) - 1 == 6 * 60 and all(len(row) == 4 for row in got)
    assert [row[:3] for row in got[1:]] == [row[:3] for row in rows[1:]]
    assert {row[3] for row in got[1:]} <= set(names)


def test_predict_runs_on_non_recording_tapes(synth_dir, trained_dir, tmp_path,
                                            monkeypatch):
    tapes = []
    init = ad.Tape.__init__

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tapes.append(self)

    monkeypatch.setattr(ad.Tape, "__init__", recorded_init)
    assert run_cli("predict", "--checkpoint", str(trained_dir / "best.ckpt.json"),
                   "--spots", str(synth_dir / "spots.csv"),
                   "--out", str(tmp_path / "preds.csv")) == 0
    assert len(tapes) == 6
    assert all(not tape.recording and len(tape) == 0 for tape in tapes)


@pytest.mark.parametrize("version", [1, 2, None])
def test_old_prepared_format_is_data_error(prepared_dir, trained_dir, tmp_path,
                                           capsys, version):
    old = tmp_path / "old"
    shutil.copytree(prepared_dir, old)
    manifest = json.loads((old / "manifest.json").read_text())
    if version is None:
        del manifest["format_version"]
    else:
        manifest["format_version"] = version
    (old / "manifest.json").write_text(json.dumps(manifest))
    for argv in (("train", "--data", str(old), "--model", "lr", "--epochs", "1",
                  "--runs", "1", "--out", str(tmp_path / "t")),
                 ("eval", "--data", str(old),
                  "--checkpoint", str(trained_dir / "best.ckpt.json"))):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:data:")
        assert err.count("\n") == 1
        assert str(old) in err and "re-run stgno prepare" in err


@pytest.mark.parametrize("key", ["radius", "split", "gene_names", "class_names",
                                 "standardization"])
def test_missing_manifest_key_is_data_error(prepared_dir, trained_dir, tmp_path,
                                            capsys, key):
    broken = tmp_path / "broken"
    shutil.copytree(prepared_dir, broken)
    manifest = json.loads((broken / "manifest.json").read_text())
    del manifest[key]
    (broken / "manifest.json").write_text(json.dumps(manifest))
    for argv in (("train", "--data", str(broken), "--model", "lr", "--epochs", "1",
                  "--runs", "1", "--out", str(tmp_path / "t")),
                 ("report", "--data", str(broken), "--models", "lr", "--epochs", "1",
                  "--runs", "1"),
                 ("eval", "--data", str(broken),
                  "--checkpoint", str(trained_dir / "best.ckpt.json"))):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:data:")
        assert err.count("\n") == 1
        assert str(broken) in err and key in err


@pytest.mark.parametrize("num_classes", [2, 4])
@pytest.mark.parametrize("model", [["gcn"], ["graphpde", "--kernel-hidden", "4"]],
                         ids=["gcn", "graphpde"])
def test_any_class_count_runs_end_to_end(synth_dir, tmp_path, capsys, model,
                                         num_classes):
    names = [f"class_{i}" for i in range(num_classes)]
    raws = sorted({line.split("\t")[0] for line in
                   (synth_dir / "labels.tsv").read_text().splitlines() if line})
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(f"{raw}\t{names[i % num_classes]}\n"
                              for i, raw in enumerate(raws)))
    prep, run = tmp_path / "prep", tmp_path / "run"
    assert run_cli("prepare", "--spots", str(synth_dir / "spots.csv"),
                   "--genes", str(synth_dir / "genes.txt"), "--labels", str(labels),
                   "--radius", "0.3", "--holdout-k", "2", "--min-classes", "3",
                   "--seed", "0", "--out", str(prep)) == 0
    assert run_cli("train", "--data", str(prep), "--model", *model, "--hidden", "4",
                   "--epochs", "2", "--runs", "1", "--seed", "0",
                   "--out", str(run)) == 0
    capsys.readouterr()
    assert run_cli("eval", "--data", str(prep),
                   "--checkpoint", str(run / "best.ckpt.json")) == 0
    confusion = np.array(json.loads(capsys.readouterr().out)["confusion"])
    assert confusion.shape == (num_classes, num_classes)
    preds = tmp_path / "preds.csv"
    assert run_cli("predict", "--checkpoint", str(run / "best.ckpt.json"),
                   "--spots", str(synth_dir / "spots.csv"), "--out", str(preds)) == 0
    predicted = {line.rsplit(",", 1)[1]
                 for line in preds.read_text().splitlines()[1:]}
    assert predicted <= set(names)


def test_eval_class_count_mismatch_is_data_error(synth_dir, trained_dir, tmp_path,
                                                 capsys):
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(f"site_{i:02d}\tclass_{i % 2}\n" for i in range(6)))
    prep = tmp_path / "prep"
    assert run_cli("prepare", "--spots", str(synth_dir / "spots.csv"),
                   "--genes", str(synth_dir / "genes.txt"), "--labels", str(labels),
                   "--radius", "0.3", "--holdout-k", "2", "--min-classes", "3",
                   "--seed", "0", "--out", str(prep)) == 0
    capsys.readouterr()
    code = run_cli("eval", "--data", str(prep),
                   "--checkpoint", str(trained_dir / "best.ckpt.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and "classes" in err


@pytest.mark.parametrize("field,value", [(1, "nan"), (5, "inf")])
def test_non_finite_spot_value_is_data_error(synth_dir, trained_dir, tmp_path, capsys,
                                             field, value):
    lines = (synth_dir / "spots.csv").read_text().splitlines()
    cells = lines[4].split(",")
    cells[field] = value
    lines[4] = ",".join(cells)
    spots = tmp_path / "spots.csv"
    spots.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("prepare", "--spots", str(spots),
                   "--genes", str(synth_dir / "genes.txt"),
                   "--labels", str(synth_dir / "labels.tsv"), "--radius", "0.3",
                   "--holdout-k", "2", "--min-classes", "3",
                   "--out", str(tmp_path / "prep")) == 2
    assert run_cli("predict", "--checkpoint", str(trained_dir / "best.ckpt.json"),
                   "--spots", str(spots), "--out", str(tmp_path / "preds.csv")) == 2
    errs = capsys.readouterr().err.splitlines()
    assert len(errs) == 2
    assert all(e.startswith("error:data:") and "spots.csv:5: non-finite" in e
               for e in errs)
    assert not (tmp_path / "preds.csv").exists()


def test_single_class_label_map_is_data_error(synth_dir, tmp_path, capsys):
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(f"site_{i:02d}\tonly\n" for i in range(6)))
    capsys.readouterr()
    assert run_cli("prepare", "--spots", str(synth_dir / "spots.csv"),
                   "--genes", str(synth_dir / "genes.txt"), "--labels", str(labels),
                   "--radius", "0.3", "--holdout-k", "2", "--min-classes", "1",
                   "--out", str(tmp_path / "prep")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:data:")
    assert "labels.tsv" in err[0] and "at least 2 coarse classes" in err[0]
    assert not (tmp_path / "prep").exists()


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


def test_train_and_report_share_one_runner(prepared_dir, tmp_path):
    flags = ("--hidden", "4", "--epochs", "2", "--lr", "0.01", "--runs", "2",
             "--seed", "3")
    assert run_cli("train", "--data", str(prepared_dir), "--model", "lr", *flags,
                   "--out", str(tmp_path / "t")) == 0
    assert run_cli("report", "--data", str(prepared_dir), "--models", "lr", *flags,
                   "--out", str(tmp_path / "r")) == 0
    trained = json.loads((tmp_path / "t" / "train_summary.json").read_text())["runs"]
    reported = json.loads((tmp_path / "r" / "report.json").read_text())["models"][0]["runs"]
    assert len(trained) == len(reported) == 2
    for t, r in zip(trained, reported):
        assert (t["seed"], t["holdout_accuracy"], t["holdout_macro_f1"]) == \
            (r["seed"], r["accuracy"], r["macro_f1"])


@pytest.mark.parametrize("command", ["train", "report"])
def test_divergence_names_model_run_seed_and_reproduce_hint(prepared_dir, tmp_path,
                                                           capsys, command):
    argv = (("train", "--model", "lr", "--out", str(tmp_path / "t"))
            if command == "train" else ("report", "--models", "lr"))
    data = tmp_path / "prepared dir"  # the hint quotes it
    shutil.copytree(prepared_dir, data)
    argv = (*argv, "--data", str(data), "--optimizer", "sgd", "--lr", "1e308",
            "--epochs", "2", "--runs", "2", "--seed", "4")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(r"error:divergence: lr run 0 \(seed 4\): non-finite loss at "
                        r"epoch \d+, sample '[\w.-]+'; last finite loss [\d.e+-]+ at "
                        r"epoch \d+ \(reproduce: stgno (.*)\)\n",
                        err).group(1) == shlex.join(argv)


@pytest.fixture(scope="module")
def graphpde_run(tmp_path_factory):
    """A 4 x 40 synth set, prepared, and a one-epoch graphpde checkpoint."""
    root = tmp_path_factory.mktemp("graphpde")
    assert run_cli("synth", "--out", str(root / "data"), "--samples", "4",
                   "--spots", "40", "--genes", "8", "--seed", "2") == 0
    assert run_cli("prepare", "--spots", str(root / "data" / "spots.csv"),
                   "--genes", str(root / "data" / "genes.txt"),
                   "--labels", str(root / "data" / "labels.tsv"), "--radius", "0.3",
                   "--holdout-k", "1", "--min-classes", "3", "--out",
                   str(root / "prep")) == 0
    assert run_cli("train", "--data", str(root / "prep"), "--model", "graphpde",
                   "--hidden", "4", "--kernel-hidden", "8", "--epochs", "1",
                   "--runs", "1", "--out", str(root / "run")) == 0
    return root


DELETE = object()  # a _tampered_checkpoint value that deletes the key


def _tampered_checkpoint(graphpde_run, tmp_path, block, key, value):
    doc = json.loads((graphpde_run / "run" / "best.ckpt.json").read_text())
    if value is DELETE:
        del doc[block][key]
    else:
        doc[block][key] = value
    path = tmp_path / "tampered.ckpt.json"
    path.write_text(json.dumps(doc))
    return path


# the checkpoint loader checks every value, so eval refuses what predict does
BOTH = ("eval", "predict")


@pytest.mark.parametrize("block,key,value,commands", [
    ("params", "readout_w", "oops", BOTH),
    ("preprocess", "radius", "oops", BOTH),
    ("preprocess", "radius", 0, BOTH),
    ("preprocess", "radius", -1, BOTH),
    ("preprocess", "class_names", ["region_a"], BOTH),
    ("preprocess", "gene_names", [["g000"]], BOTH),
    ("preprocess", "gene_names", "g000g001", BOTH),
    ("preprocess", "class_names", 3, BOTH),
    ("preprocess", "class_names", "abc", BOTH),
    ("preprocess", "class_names", [1, 2, 3], BOTH),
    # the fixture's readout_w is 4 x 3; numpy would read these as numbers
    ("params", "readout_w", [["0.5"] * 3] * 4, BOTH),
    ("params", "readout_w", [[True, False, True]] * 4, BOTH),
    # a scaler that is not null must be one: none of these skips it
    ("preprocess", "standardization", {}, BOTH),
    ("preprocess", "standardization", False, BOTH),
    ("preprocess", "standardization", 0, BOTH),
    # a bool among numbers, which numpy would read as 1.0
    ("params", "readout_w", [[True, 0.5, 0.5]] + [[0.5] * 3] * 3, BOTH),
    # a model of one class
    ("config", "num_classes", 1, BOTH),
    # a count that is not an integer, though its shapes would compare equal
    ("config", "num_classes", 3.0, BOTH),
    # every key of the preprocess block must be there
    ("preprocess", "gene_names", DELETE, BOTH),
    ("preprocess", "radius", DELETE, BOTH),
    ("preprocess", "standardization", DELETE, BOTH),
    ("preprocess", "class_names", DELETE, BOTH),
    # one gene name per input: the fixture's model reads 8 genes
    ("preprocess", "gene_names", [f"g{i:03d}" for i in range(7)], BOTH),
    # a bool is not a bandwidth, though it compares > 0
    ("config", "bandwidth", True, BOTH)])
def test_malformed_checkpoint_is_one_data_error_line(graphpde_run, tmp_path, capsys,
                                                     block, key, value, commands):
    ckpt = _tampered_checkpoint(graphpde_run, tmp_path, block, key, value)
    argvs = {"eval": ("eval", "--data", str(graphpde_run / "prep")),
             "predict": ("predict", "--spots", str(graphpde_run / "data" / "spots.csv"),
                         "--out", str(tmp_path / "preds.csv"))}
    capsys.readouterr()
    for command in commands:
        assert run_cli(*argvs[command], "--checkpoint", str(ckpt)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:data:") and err.count("\n") == 1, err
        assert str(ckpt) in err and key in err, err
    assert not (tmp_path / "preds.csv").exists()


def _one_data_error(capsys, *names):
    err = capsys.readouterr().err
    assert err.startswith("error:data:") and err.count("\n") == 1, err
    for name in names:
        assert str(name) in err, (name, err)


def test_graphpde_train_and_predict_are_byte_identical(graphpde_run, tmp_path):
    # the fixture's training flags again, into a second directory
    run = tmp_path / "run"
    assert run_cli("train", "--data", str(graphpde_run / "prep"), "--model", "graphpde",
                   "--hidden", "4", "--kernel-hidden", "8", "--epochs", "1",
                   "--runs", "1", "--out", str(run)) == 0
    assert ((run / "best.ckpt.json").read_bytes()
            == (graphpde_run / "run" / "best.ckpt.json").read_bytes())
    predictions = []
    for i in range(2):
        out = tmp_path / f"preds_{i}.csv"
        assert run_cli("predict", "--checkpoint", str(run / "best.ckpt.json"),
                       "--spots", str(graphpde_run / "data" / "spots.csv"),
                       "--out", str(out)) == 0
        predictions.append(out.read_bytes())
    assert predictions[0] == predictions[1]


def test_predict_needs_every_gene_of_the_checkpoint(graphpde_run, tmp_path, capsys):
    with open(graphpde_run / "data" / "spots.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("g003")
    spots = tmp_path / "spots.csv"
    with open(spots, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(row[:drop] + row[drop + 1:]
                                                      for row in rows)
    capsys.readouterr()
    assert run_cli("predict", "--checkpoint", str(graphpde_run / "run" / "best.ckpt.json"),
                   "--spots", str(spots), "--out", str(tmp_path / "preds.csv")) == 2
    _one_data_error(capsys, spots, "'g003'")
    assert not (tmp_path / "preds.csv").exists()


# each case's preprocess key that eval names
EVAL_MISMATCHES = {"reversed_genes": "gene_names", "renamed_classes": "class_names",
                   "disjoint_genes": "gene_names", "other_radius": "radius",
                   "standardized": "standardization"}


@pytest.mark.parametrize("case", EVAL_MISMATCHES)
def test_eval_refuses_other_gene_or_class_names_of_equal_width(graphpde_run, tmp_path,
                                                               capsys, case):
    # the same spots prepared from the gene list in reverse order (as `tac`
    # writes it), under other class names, at another radius or with the
    # features standardized, or a checkpoint whose genes are none of the
    # dataset's: every width matches, the preprocessing does not
    data, ckpt = graphpde_run / "data", graphpde_run / "run" / "best.ckpt.json"
    genes, labels, prep = data / "genes.txt", data / "labels.tsv", tmp_path / "prep"
    flags = {"--radius": "0.3", "--standardize": "false"}
    if case == "disjoint_genes":
        names = json.loads(ckpt.read_text())["preprocess"]["gene_names"]
        ckpt = _tampered_checkpoint(graphpde_run, tmp_path, "preprocess", "gene_names",
                                    [f"other_{name}" for name in names])
        prep = graphpde_run / "prep"
    else:
        if case == "reversed_genes":
            genes = tmp_path / "genes.txt"
            genes.write_text("".join(reversed(
                (data / "genes.txt").read_text().splitlines(keepends=True))))
        elif case == "renamed_classes":
            labels = tmp_path / "labels.tsv"
            labels.write_text(
                (data / "labels.tsv").read_text().replace("region_", "zone_"))
        elif case == "other_radius":
            flags["--radius"] = "0.1"
        else:
            flags["--standardize"] = "true"
        assert run_cli("prepare", "--spots", str(data / "spots.csv"), "--genes",
                       str(genes), "--labels", str(labels), "--holdout-k", "1",
                       "--min-classes", "3", "--out", str(prep),
                       *(item for pair in flags.items() for item in pair)) == 0
    capsys.readouterr()
    assert run_cli("eval", "--data", str(prep), "--checkpoint", str(ckpt)) == 2
    _one_data_error(capsys, ckpt, f"preprocess.{EVAL_MISMATCHES[case]}")
    assert capsys.readouterr().out == ""


def _holdout_id(prep):
    """A holdout slide: train reads every slide and eval only the holdout
    ones, so a fault in its file stops both."""
    return json.loads((prep / "manifest.json").read_text())["split"]["holdout"][0]


def _break_manifest(prep, edit):
    manifest = json.loads((prep / "manifest.json").read_text())
    edit(manifest)
    (prep / "manifest.json").write_text(json.dumps(manifest))


def _break_sample(prep, edit):
    path = prep / f"{_holdout_id(prep)}.npz"
    with np.load(path, allow_pickle=False) as npz:
        doc = {key: npz[key] for key in npz.files}
    edit(doc)
    with open(path, "wb") as fh:
        np.savez(fh, **doc)


def _write_npy(path, arr):
    with open(path, "wb") as fh:  # np.save would append ".npy" to a path
        np.save(fh, arr)


def _set_entry(doc, key, index, value, dtype=None):
    """``doc[key]`` with entry ``index`` set to ``value``, as ``dtype``."""
    arr = doc[key].astype(dtype or doc[key].dtype)
    arr[index] = value
    doc[key] = arr


@pytest.mark.parametrize("case,file,key", [
    ("manifest not JSON", "manifest.json", None),
    ("manifest a JSON list", "manifest.json", None),
    ("manifest not UTF-8", "manifest.json", None),
    ("radius a string", "manifest.json", "radius"),
    ("radius infinite", "manifest.json", "radius"),
    ("radius past the float range", "manifest.json", "radius"),
    ("split id unsafe", "manifest.json", "split"),
    ("split holdout empty", "manifest.json", "split"),
    ("split id twice", "manifest.json", "split"),
    ("split id in both parts", "manifest.json", "split"),
    ("gene_names not a list", "manifest.json", "gene_names"),
    ("one class name", "manifest.json", "class_names"),
    ("sample id not its split id", "sample", "sample_id"),
    ("sample id not a string", "sample", "sample_id"),
    ("sample without features", "sample", "features"),
    ("non-numeric feature", "sample", "features"),
    ("features float32", "sample", "features"),
    ("feature width off", "sample", "features"),
    ("features 1-D", "sample", "features"),
    ("non-finite position", "sample", "positions"),
    ("positions short", "sample", "positions"),
    ("label out of range", "sample", "labels"),
    ("label not an integer", "sample", "labels"),
    ("bool among features", "sample", "features"),
    ("bool among labels", "sample", "labels"),
    ("sample not npz", "sample", None),
    ("sample file empty", "sample", None),
    ("sample file truncated", "sample", None),
    ("sample a plain npy", "sample", None),
    ("sample holds an object array", "sample", None),
    ("sample file missing", "sample", None),
    ("scaler mean short", "manifest.json", "standardization.mean")])
def test_malformed_prepared_dataset_is_one_data_error_line(graphpde_run, tmp_path,
                                                           capsys, case, file, key):
    prep = tmp_path / "prep"
    shutil.copytree(graphpde_run / "prep", prep)
    sample = prep / f"{_holdout_id(prep)}.npz"
    drop_column = lambda d: d.update(features=d["features"][:, :-1])
    edits = {
        "manifest not JSON": lambda: (prep / "manifest.json").write_text("{not json"),
        "manifest a JSON list": lambda: (prep / "manifest.json").write_text("[]"),
        "manifest not UTF-8": lambda: (prep / "manifest.json").write_bytes(b'{"a": "\xff"}'),
        "radius a string": lambda: _break_manifest(prep, lambda m: m.update(radius="0.3")),
        "radius infinite": lambda: _break_manifest(
            prep, lambda m: m.update(radius=float("inf"))),
        "radius past the float range": lambda: _break_manifest(
            prep, lambda m: m.update(radius=10 ** 400)),
        "split id unsafe": lambda: _break_manifest(
            prep, lambda m: m["split"]["train"].append("../x")),
        "split holdout empty": lambda: _break_manifest(
            prep, lambda m: m["split"].update(holdout=[])),
        "split id twice": lambda: _break_manifest(
            prep, lambda m: m["split"]["train"].append(m["split"]["train"][0])),
        "split id in both parts": lambda: _break_manifest(
            prep, lambda m: m["split"]["train"].append(m["split"]["holdout"][0])),
        "gene_names not a list": lambda: _break_manifest(
            prep, lambda m: m.update(gene_names="g000")),
        "one class name": lambda: _break_manifest(
            prep, lambda m: m.update(class_names=["region_a"])),
        "sample id not its split id": lambda: _break_sample(
            prep, lambda d: d.update(sample_id=np.array("zzz"))),
        "sample id not a string": lambda: _break_sample(
            prep, lambda d: d.update(sample_id=np.array([d["sample_id"].item()]))),
        "sample without features": lambda: _break_sample(prep, lambda d: d.pop("features")),
        "non-numeric feature": lambda: _break_sample(
            prep, lambda d: _set_entry(d, "features", (0, 0), "x", str)),
        "features float32": lambda: _break_sample(
            prep, lambda d: d.update(features=d["features"].astype(np.float32))),
        "feature width off": lambda: _break_sample(prep, drop_column),
        "features 1-D": lambda: _break_sample(
            prep, lambda d: d.update(features=d["features"].ravel())),
        "non-finite position": lambda: _break_sample(
            prep, lambda d: _set_entry(d, "positions", (0, 0), float("nan"))),
        "positions short": lambda: _break_sample(
            prep, lambda d: d.update(positions=d["positions"][:-1])),
        "label out of range": lambda: _break_sample(
            prep, lambda d: _set_entry(d, "labels", 0, 7)),
        "label not an integer": lambda: _break_sample(
            prep, lambda d: _set_entry(d, "labels", 0, 0.5, np.float64)),
        "bool among features": lambda: _break_sample(
            prep, lambda d: _set_entry(d, "features", (0, 0), True, bool)),
        "bool among labels": lambda: _break_sample(
            prep, lambda d: _set_entry(d, "labels", 0, True, bool)),
        "sample not npz": lambda: sample.write_text("[]"),
        "sample file empty": lambda: sample.write_bytes(b""),
        "sample file truncated": lambda: sample.write_bytes(
            sample.read_bytes()[:sample.stat().st_size // 2]),
        "sample a plain npy": lambda: _write_npy(sample, np.zeros((3, 8))),
        "sample holds an object array": lambda: _break_sample(
            prep, lambda d: d.update(features=np.array([[1.0, "x", None]], dtype=object))),
        "sample file missing": sample.unlink,
        "scaler mean short": lambda: _break_manifest(
            prep, lambda m: m.update(standardization={"mean": [0.0] * 7,
                                                      "std": [1.0] * 8})),
    }
    edits[case]()
    names = [prep / "manifest.json" if file == "manifest.json" else sample]
    names += [repr(key)] if key else []
    capsys.readouterr()
    for argv in (("train", "--data", str(prep), "--model", "lr", "--epochs", "1",
                  "--runs", "1", "--out", str(tmp_path / "t")),
                 ("eval", "--data", str(prep),
                  "--checkpoint", str(graphpde_run / "run" / "best.ckpt.json"))):
        assert run_cli(*argv) == 2
        _one_data_error(capsys, *names)


@pytest.fixture(scope="module")
def standardized_run(graphpde_run, tmp_path_factory):
    """The graphpde_run data prepared with --standardize true at the auto
    radius, and a one-epoch spatial_gcn checkpoint trained on it."""
    root = tmp_path_factory.mktemp("standardized")
    data = graphpde_run / "data"
    assert run_cli("prepare", "--spots", str(data / "spots.csv"),
                   "--genes", str(data / "genes.txt"), "--labels", str(data / "labels.tsv"),
                   "--standardize", "true", "--holdout-k", "1", "--min-classes", "3",
                   "--out", str(root / "prep")) == 0
    assert run_cli("train", "--data", str(root / "prep"), "--model", "spatial_gcn",
                   "--epochs", "1", "--runs", "1", "--out", str(root / "run")) == 0
    return root


def test_predict_applies_the_checkpoint_scaler(graphpde_run, standardized_run, tmp_path):
    ckpt = standardized_run / "run" / "best.ckpt.json"
    scaler = json.loads(ckpt.read_text())["preprocess"]["standardization"]
    assert len(scaler["mean"]) == len(scaler["std"]) == 8
    assert run_cli("predict", "--checkpoint", str(ckpt),
                   "--spots", str(graphpde_run / "data" / "spots.csv"),
                   "--out", str(tmp_path / "preds.csv")) == 0
    assert len((tmp_path / "preds.csv").read_text().splitlines()) == 161


@pytest.mark.parametrize("edit", [
    lambda s: s["mean"].pop(),
    lambda s: s["std"].append(1.0),
    lambda s: s.update(mean=["x"] * 8),
    lambda s: s.update(std=[0.0] * 8),
    lambda s: s.update(std=None),
    lambda s: s.clear() or s.update(mean=1.0)])
def test_malformed_checkpoint_scaler_is_one_data_error_line(graphpde_run, standardized_run,
                                                            tmp_path, capsys, edit):
    doc = json.loads((standardized_run / "run" / "best.ckpt.json").read_text())
    edit(doc["preprocess"]["standardization"])
    ckpt = tmp_path / "tampered.ckpt.json"
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("predict", "--checkpoint", str(ckpt),
                   "--spots", str(graphpde_run / "data" / "spots.csv"),
                   "--out", str(tmp_path / "preds.csv")) == 2
    _one_data_error(capsys, ckpt, "preprocess.standardization.")
    assert not (tmp_path / "preds.csv").exists()


@pytest.mark.parametrize("target", ["spots", "genes", "labels", "config", "predict"])
def test_undecodable_text_input_is_one_data_error_line(graphpde_run, tmp_path, capsys,
                                                       target):
    data = tmp_path / "data"
    shutil.copytree(graphpde_run / "data", data)
    inputs = {"spots": data / "spots.csv", "genes": data / "genes.txt",
              "labels": data / "labels.tsv", "config": tmp_path / "cfg.json",
              "predict": data / "spots.csv"}
    bad = inputs[target]
    if target == "config":
        bad.write_bytes(b'{"holdout_k": 1, "min_classes": "\xe9"}')
    else:  # valid text first, so the bad byte is past the first read
        bad.write_bytes(bad.read_bytes() + b"\xff\xfe\n")
    capsys.readouterr()
    if target == "predict":
        argv = ["predict", "--checkpoint", str(graphpde_run / "run" / "best.ckpt.json"),
                "--spots", str(bad), "--out", str(tmp_path / "preds.csv")]
    else:
        argv = ["prepare", "--spots", str(inputs["spots"]), "--genes", str(inputs["genes"]),
                "--labels", str(inputs["labels"]), "--radius", "0.3", "--holdout-k", "1",
                "--min-classes", "3", "--out", str(tmp_path / "prep")]
        argv += ["--config", str(bad)] if target == "config" else []
    assert run_cli(*argv) == 2
    _one_data_error(capsys, bad, "not UTF-8")
    assert not (tmp_path / "prep").exists() and not (tmp_path / "preds.csv").exists()


@pytest.mark.parametrize("argv", [
    ("report", "--models", ",", "--epochs", "1", "--runs", "1"),
    ("report", "--models", " , ", "--epochs", "1", "--runs", "1"),
    ("prepare", "--radius", "inf"),
    ("prepare", "--radius", "-inf")])
def test_empty_model_list_and_infinite_radius_are_usage_errors(graphpde_run, tmp_path,
                                                               capsys, argv):
    data = graphpde_run / "data"
    common = {"report": ["--data", str(graphpde_run / "prep")],
              "prepare": ["--spots", str(data / "spots.csv"), "--genes",
                          str(data / "genes.txt"), "--labels", str(data / "labels.tsv"),
                          "--holdout-k", "1", "--min-classes", "3",
                          "--out", str(tmp_path / "prep")]}[argv[0]]
    assert run_cli(*argv, *common) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:usage:") and err.count("\n") == 1, err
    assert argv[1] in err
    assert not (tmp_path / "prep").exists()


def test_repeated_model_kind_is_usage_error(graphpde_run, tmp_path, capsys):
    out = tmp_path / "report"
    assert run_cli("report", "--data", str(graphpde_run / "prep"), "--models",
                   "lr,fcn,lr", "--epochs", "1", "--runs", "1", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:usage:") and captured.err.count("\n") == 1
    assert "'lr'" in captured.err and "fcn" not in captured.err, captured.err
    assert captured.out == "" and not out.exists()


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


@pytest.mark.parametrize("values", [{"epochs": 1.5}, {"kernel_hidden": [8, "x"]},
                                    {"runs": None}, {"seed": -1}])
def test_config_file_wrong_type_is_usage_error(prepared_dir, tmp_path, capsys, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code = run_cli("train", "--data", str(prepared_dir), "--model", "lr",
                   "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:usage:")
    assert err.count("\n") == 1
    assert next(iter(values)) in err


@pytest.mark.parametrize("command", ["synth", "prepare", "train", "report"])
def test_negative_seed_is_one_usage_line(synth_dir, prepared_dir, tmp_path, capsys,
                                         command):
    # a config file's "seed": -1 is test_config_file_wrong_type_is_usage_error's
    data = ("--data", str(prepared_dir))
    argv = {"synth": ("synth", "--out", str(tmp_path / "s")),
            "prepare": ("prepare", "--spots", str(synth_dir / "spots.csv"),
                        "--genes", str(synth_dir / "genes.txt"),
                        "--labels", str(synth_dir / "labels.tsv"), "--radius", "0.3",
                        "--holdout-k", "2", "--min-classes", "3",
                        "--out", str(tmp_path / "p")),
            "train": ("train", *data, "--model", "lr", "--epochs", "1", "--runs", "1",
                      "--out", str(tmp_path / "t")),
            "report": ("report", *data, "--models", "lr", "--epochs", "1", "--runs", "1")
            }[command]
    capsys.readouterr()
    assert run_cli(*argv, "--seed", "-1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:usage:") and err.count("\n") == 1, err
    assert "non-negative" in err and "-1" in err, err
    assert not any(tmp_path.glob("[spt]"))


def test_config_file_values_read_like_flags(prepared_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel_hidden": [4, 2], "bandwidth": None,
                               "class_weighting": False, "lr": 0.01, "epochs": 1}))
    common = ("train", "--data", str(prepared_dir), "--model", "lr", "--runs", "1")
    assert run_cli(*common, "--config", str(cfg), "--out", str(tmp_path / "cfg")) == 0
    assert run_cli(*common, "--kernel-hidden", "4,2", "--class-weighting", "false",
                   "--lr", "0.01", "--epochs", "1", "--out", str(tmp_path / "flags")) == 0
    assert ((tmp_path / "cfg" / "run_0.ckpt.json").read_bytes()
            == (tmp_path / "flags" / "run_0.ckpt.json").read_bytes())

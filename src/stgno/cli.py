"""Command-line entry point: synth, prepare, train, eval, report, predict.

Exit codes: 0 success, 1 usage error, 2 data/contract error, 3 numeric
divergence. Failures print a single line ``error:<category>: <message>``
to stderr. Every subcommand accepts ``--config FILE`` pointing at a JSON
object whose keys mirror the flag names (explicit flags win).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import shlex
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import pipeline as pl
from . import train as tr
from .errors import (CheckpointError, ContractError, DataError, DimensionError,
                     DivergenceError, ParameterError)
from .ioutil import atomic_write_text, dump_json, read_json
from .models import KINDS, ModelConfig, check_kind, make_config
from .train import TrainConfig, evaluate, load_checkpoint, run_experiment, save_checkpoint


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _add_run_flags(p) -> None:
    """The model, optimizer and seeded-run flags that train and report share."""
    p.add_argument("--hidden", type=int, default=ModelConfig.hidden_dim, help="hidden width")
    p.add_argument("--kernel-hidden", type=_parse_int_list, metavar="LIST",
                   default=ModelConfig.kernel_net_hidden,
                   help="kernel network hidden widths (graphpde)")
    p.add_argument("--bandwidth", type=float, default=ModelConfig.bandwidth,
                   help="Gaussian bandwidth (spatial models; default radius/2)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="training epochs")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                   help="learning rate")
    p.add_argument("--optimizer", choices=tr.OPTIMIZERS, default=TrainConfig.optimizer,
                   help="optimizer")
    p.add_argument("--runs", type=int, default=TrainConfig.num_runs,
                   help="independent seeded runs")
    p.add_argument("--class-weighting", type=_parse_bool, metavar="BOOL",
                   default=TrainConfig.class_weighting, help="balanced class weighting")
    p.add_argument("--seed", type=_parse_seed, default=TrainConfig.seed, help="base seed")


def build_parser():
    parser = _Parser(prog="stgno", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", default=None,
                       help="JSON file of defaults; keys mirror flag names")
        subparsers[name] = p
        return p

    p = add("synth", "generate a synthetic spot dataset (CSV + gene list + label map)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--samples", type=int, default=pl.SyntheticConfig.num_samples,
                   help="number of samples")
    p.add_argument("--spots", type=int, default=pl.SyntheticConfig.spots_per_sample,
                   help="spots per sample")
    p.add_argument("--genes", type=int, default=pl.SyntheticConfig.num_genes,
                   help="number of genes")
    p.add_argument("--mode", choices=pl.EXPRESSION_MODES,
                   default=pl.SyntheticConfig.expression_mode, help="expression mode")
    p.add_argument("--separation", type=float, default=pl.SyntheticConfig.class_separation,
                   help="class separation of the expression patterns")
    p.add_argument("--noise", type=float, default=pl.SyntheticConfig.noise_scale,
                   help="expression noise scale")
    p.add_argument("--region-seeds", type=int,
                   default=pl.SyntheticConfig.region_seeds_per_class,
                   help="region seed sites per class")
    p.add_argument("--seed", type=_parse_seed, default=pl.SyntheticConfig.seed,
                   help="generator seed")

    p = add("prepare", "filter, bin, split and assemble a prepared graph dataset")
    p.add_argument("--spots", required=True, help="spot CSV path")
    p.add_argument("--genes", required=True, help="gene list path")
    p.add_argument("--labels", required=True, help="label map TSV path")
    p.add_argument("--radius", type=float, default=None, help="neighbor radius (default: "
                   f"tuned for median degree ~{_TARGET_DEGREE})")
    p.add_argument("--holdout-k", type=int, default=7, help="samples to hold out")
    p.add_argument("--min-classes", type=int, default=10,
                   help="raw-label coverage threshold for holdout candidates")
    p.add_argument("--standardize", type=_parse_bool, default=False, metavar="BOOL",
                   help="z-score features per gene with train statistics")
    p.add_argument("--seed", type=_parse_seed, default=0, help="split seed")
    p.add_argument("--out", required=True, help="output directory")

    p = add("train", "train one model over repeated seeded runs")
    p.add_argument("--data", required=True, help="prepared dataset directory")
    p.add_argument("--model", required=True, help=f"one of {', '.join(KINDS)}")
    p.add_argument("--layers", type=int, default=None, help="depth (default per model; "
                   f"graphpde: {KINDS['graphpde'].default_layers})")
    p.add_argument("--activation", choices=ad.ACTIVATIONS, default=ModelConfig.activation,
                   help="activation function")
    _add_run_flags(p)
    p.add_argument("--out", required=True, help="output directory")

    p = add("eval", "evaluate a checkpoint on the holdout slides")
    p.add_argument("--data", required=True, help="prepared dataset directory")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON path")

    p = add("report", "run the multi-model experiment and emit the results table")
    p.add_argument("--data", required=True, help="prepared dataset directory")
    p.add_argument("--models", default=",".join(KINDS),
                   help="comma-separated model kinds")
    p.add_argument("--f1", choices=tr.F1_KEYS, default="macro",
                   help="F1 flavor for the table")
    _add_run_flags(p)
    p.add_argument("--out", default=None, help="directory for report.txt/report.json")

    p = add("predict", "predict classes for new spots with a trained checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON path")
    p.add_argument("--spots", required=True, help="spot CSV path")
    p.add_argument("--out", required=True, help="output CSV path")

    return parser, subparsers


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(args, argv):
    config = pl.SyntheticConfig(
        num_samples=args.samples, spots_per_sample=args.spots,
        num_genes=args.genes, region_seeds_per_class=args.region_seeds,
        expression_mode=args.mode, class_separation=args.separation,
        noise_scale=args.noise, seed=args.seed)
    table, label_map = pl.generate_synthetic(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pl.write_spot_table(out / "spots.csv", table)
    atomic_write_text(out / "genes.txt", "\n".join(table.gene_names) + "\n")
    pl.write_label_map(out / "labels.tsv", label_map)
    print(f"wrote {table.num_spots} spots over {args.samples} samples "
          f"({args.genes} genes, mode={args.mode}) to {out}")
    return 0


# prepare tunes the radius for this median degree, and warns outside the range
_TARGET_DEGREE, _DEGREE_RANGE = 6, (3, 12)


def _auto_radius(table: pl.SpotTable) -> float:
    """Radius giving expected degree ~ _TARGET_DEGREE under uniform density,
    averaged over samples: pi r^2 rho = target."""
    densities = []
    for sid in table.sample_order():
        rows = table.rows_for(sid)
        pos = table.positions[rows]
        span = pos.max(axis=0) - pos.min(axis=0)
        area = float(span[0] * span[1])
        if area > 0 and rows.size > 1:
            densities.append(rows.size / area)
    if not densities:
        raise DataError("cannot tune a radius: no sample with positive area")
    rho = float(np.mean(densities))
    return math.sqrt(_TARGET_DEGREE / (math.pi * rho))


def _graph_statistics(graph) -> dict:
    """One slide's graph figures for the manifest; loading does not read them."""
    degree = graph.layout.degree
    m = graph.num_edges
    return {"edges": m, "in_degree_min": int(degree.min()),
            "in_degree_median": float(np.median(degree)),
            "in_degree_max": int(degree.max()),
            "isolated_nodes": int((degree == 0).sum()),
            # padded neighbour slots per edge of the degree-blocked layout
            "slots_per_edge": graph.layout.num_slots / m if m else None}


def _cmd_prepare(args, argv):
    genes = pl.load_gene_list(args.genes)
    table = pl.load_spot_table(args.spots, genes)
    label_map = pl.load_label_map(args.labels)
    table = pl.filter_genes(table, genes)
    table = pl.bin_labels(table, label_map)
    split = pl.select_holdout(table, k=args.holdout_k,
                              min_classes=args.min_classes, seed=args.seed)
    radius = args.radius if args.radius is not None else _auto_radius(table)
    if not 0 < radius < math.inf:
        raise ParameterError(f"--radius must be positive and finite, got {radius}")
    train_graphs, holdout_graphs, scaler = pl.assemble_graphs(
        table, split, radius, standardize=args.standardize)

    degrees = np.concatenate([g.graph.layout.degree for g in train_graphs])
    median_degree = float(np.median(degrees))
    manifest = {
        "flags": {
            "spots": str(args.spots), "genes": str(args.genes),
            "labels": str(args.labels), "radius": radius,
            "holdout_k": args.holdout_k, "min_classes": args.min_classes,
            "standardize": args.standardize, "seed": args.seed,
        },
        "radius": radius,
        "seed": args.seed,
        "split": {"train": list(split.train_sample_ids),
                  "holdout": list(split.holdout_sample_ids)},
        "standardization": scaler,
        "class_names": list(label_map.class_names),
        "gene_names": list(table.gene_names),
        "degree_median": median_degree,
        "graph_statistics": {g.sample_id: _graph_statistics(g.graph)
                             for g in [*train_graphs, *holdout_graphs]},
    }
    pl.save_prepared(args.out, train_graphs, holdout_graphs, manifest)

    counts = np.bincount(table.class_ids, minlength=len(label_map.class_names))
    print(f"spots: {table.num_spots}  samples: {len(table.sample_order())} "
          f"(train {len(split.train_sample_ids)}, holdout {len(split.holdout_sample_ids)})")
    print("class counts: " + ", ".join(
        f"{name}={int(c)}" for name, c in zip(label_map.class_names, counts)))
    print(f"radius: {radius:.6g}  median train degree: {median_degree:.1f}")
    if not _DEGREE_RANGE[0] <= median_degree <= _DEGREE_RANGE[1]:
        print(f"warning: median degree {median_degree:.1f} outside {list(_DEGREE_RANGE)}; "
              "consider adjusting --radius", file=sys.stderr)
    return 0


def _model_config_from_args(args, manifest: dict, kind: str, **overrides):
    """Model flags plus the dataset's widths: one input per kept gene and
    one output per coarse class."""
    return make_config(kind, len(manifest["gene_names"]), hidden_dim=args.hidden,
                       kernel_net_hidden=args.kernel_hidden, bandwidth=args.bandwidth,
                       num_classes=len(manifest["class_names"]), **overrides)


def _train_config_from_args(args) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                       optimizer=args.optimizer, seed=args.seed,
                       num_runs=args.runs, class_weighting=args.class_weighting)


def _cmd_train(args, argv):
    check_kind(args.model)
    tc = _train_config_from_args(args)
    train_graphs, holdout_graphs, manifest = pl.load_prepared(args.data)
    mc = _model_config_from_args(args, manifest, args.model, num_layers=args.layers,
                                 activation=args.activation)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    preprocess = {key: manifest[key] for key in pl.PREPROCESS_KEYS}
    log_lines: list[str] = []
    summary_runs: list[dict] = []
    started = time.monotonic()

    def log_epoch(epoch, mean_loss):
        log_lines.append(json.dumps(
            {"epoch": epoch, "mean_loss": mean_loss,
             "elapsed": time.monotonic() - started}, sort_keys=True))

    def finish_run(mc_r, r, params, history, holdout_metrics):
        nonlocal started
        atomic_write_text(out / f"run_{r}.log.jsonl", "\n".join(log_lines) + "\n")
        log_lines.clear()
        train_metrics = evaluate(params, mc_r, train_graphs)
        save_checkpoint(out / f"run_{r}.ckpt.json", params, mc_r, preprocess=preprocess)
        summary_runs.append({
            "run": r, "seed": mc_r.init_seed,
            "train_macro_f1": train_metrics.macro_f1,
            "holdout_accuracy": holdout_metrics.accuracy,
            "holdout_macro_f1": holdout_metrics.macro_f1,
            "final_loss": history[-1],
        })
        print(f"run {r}: train macro-F1 {train_metrics.macro_f1:.4f}, "
              f"holdout macro-F1 {holdout_metrics.macro_f1:.4f}")
        started = time.monotonic()

    run_experiment([mc], train_graphs, holdout_graphs, tc,
                   epoch_hook=log_epoch, run_hook=finish_run)
    # selection by train macro-F1 (first run on ties) never looks at the holdout
    best_run = max(summary_runs, key=lambda run: run["train_macro_f1"])["run"]
    atomic_write_text(out / "best.ckpt.json",
                      (out / f"run_{best_run}.ckpt.json").read_text(encoding="utf-8"))
    atomic_write_text(out / "train_summary.json", dump_json({
        "model": args.model, "best_run": best_run, "runs": summary_runs}))
    print(f"best run by train macro-F1: {best_run} -> {out / 'best.ckpt.json'}")
    return 0


def _cmd_eval(args, argv):
    _train, holdout_graphs, manifest = pl.load_prepared(args.data, parts=("holdout",))
    params, config, pre = load_checkpoint(args.checkpoint)
    # the holdout must be prepared as the checkpoint's training data was
    for key in pl.PREPROCESS_KEYS:
        if pre[key] != manifest[key]:
            raise ContractError(
                f"{args.checkpoint}: preprocess.{key} differs from the {key} of the "
                f"dataset in {args.data}; eval needs the genes, radius, scaler and "
                "classes the model was trained with")
    metrics = evaluate(params, config, holdout_graphs)
    print(dump_json(metrics.to_json_dict()), end="")
    return 0


def _cmd_report(args, argv):
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    if not kinds:
        raise ParameterError(f"--models names no model kind; valid: {', '.join(KINDS)}")
    for i, kind in enumerate(kinds):
        check_kind(kind)
        if kind in kinds[:i]:
            raise ParameterError(f"--models names {kind!r} more than once")
    tc = _train_config_from_args(args)
    train_graphs, holdout_graphs, manifest = pl.load_prepared(args.data)
    configs = [_model_config_from_args(args, manifest, kind) for kind in kinds]
    report = run_experiment(configs, train_graphs, holdout_graphs, tc, f1_flavor=args.f1)
    table = report.table()
    print(table, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out / "report.txt", table)
        atomic_write_text(out / "report.json", dump_json(report.to_json_dict()))
        print(f"wrote {out / 'report.txt'} and {out / 'report.json'}")
    return 0


def _cmd_predict(args, argv):
    params, config, pre = load_checkpoint(args.checkpoint)
    gene_names, class_names = pre["gene_names"], pre["class_names"]
    table = pl.load_spot_table(args.spots, gene_names)
    missing = sorted(set(gene_names) - set(table.gene_names))
    if missing:
        raise DataError(f"{args.spots}: no column for the checkpoint's gene(s) {missing}")
    table = pl.filter_genes(table, gene_names)
    features, scaler = table.expression, pre["standardization"]
    if scaler is not None:
        features = (features - np.asarray(scaler["mean"])) / np.asarray(scaler["std"])

    # csv quotes "\n" but not a bare "\r" under a "\n" line end: a file with
    # one in a sample id or class name gets every field quoted
    carriage = any("\r" in name for name in [*table.sample_order(), *class_names])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n",
                        quoting=csv.QUOTE_ALL if carriage else csv.QUOTE_MINIMAL)
    writer.writerow(["sample_id", "x", "y", "predicted_class"])
    for sid in table.sample_order():
        rows = table.rows_for(sid)
        sample = pl.graph_sample(sid, features[rows], table.positions[rows],
                                 np.zeros(rows.size, dtype=np.int64), pre["radius"])
        logits = tr.forward_sample(tr.Tape(record=False), config, params, sample)
        preds = logits.data.argmax(axis=1)
        writer.writerows([sid, repr(float(table.positions[row, 0])),
                          repr(float(table.positions[row, 1])), class_names[preds[i]]]
                         for i, row in enumerate(rows))
    atomic_write_text(args.out, buf.getvalue())
    print(f"wrote {table.num_spots} predictions to {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "prepare": _cmd_prepare,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "report": _cmd_report,
    "predict": _cmd_predict,
}


def _apply_config_file(argv, args):
    """Re-parse with JSON-file values as defaults, so explicit flags win."""
    cfg_path = getattr(args, "config", None)
    if not cfg_path:
        return args
    try:
        cfg = read_json(cfg_path)  # undecodable text or bad JSON: a DataError
    except OSError as exc:
        raise DataError(f"cannot read config file {cfg_path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise DataError(f"config file {cfg_path} must hold a JSON object")
    parser, subparsers = build_parser()
    sub = subparsers[args.command]
    actions = {a.dest: a for a in sub._actions}
    unknown = set(cfg) - set(actions)
    if unknown:
        raise UsageError(f"unknown config key(s) {sorted(unknown)} for "
                         f"'{args.command}'")
    sub.set_defaults(**{key: _config_value(actions[key], key, value)
                        for key, value in cfg.items()})
    return parser.parse_args(argv)


def _config_value(action, key: str, value):
    """A config-file value read as its flag reads the command line: through
    the flag's ``type`` and ``choices``, lists comma-joined; null only where
    the flag's default is None."""
    if value is None:
        if action.default is None:
            return None
        raise UsageError(f"config key {key!r} cannot be null")
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        converted = action.type(text) if action.type else text
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise UsageError(f"config key {key!r}: invalid value {value!r} ({exc})") from None
    if action.choices is not None and converted not in action.choices:
        raise UsageError(f"config key {key!r}: invalid choice {value!r} "
                         f"(choose from {', '.join(map(str, action.choices))})")
    return converted


def _warning_line(message, category, filename, lineno, file=None, line=None):
    """A library warning that the filters let through, as one stderr line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, _subparsers = build_parser()
    with warnings.catch_warnings():  # keeps the filters, restores showwarning
        warnings.showwarning = _warning_line
        try:
            args = parser.parse_args(argv)
            args = _apply_config_file(argv, args)
            return _COMMANDS[args.command](args, argv)
        except (UsageError, ParameterError) as exc:
            print(f"error:usage: {exc}", file=sys.stderr)
            return 1
        except (DataError, CheckpointError, ContractError, DimensionError, IndexError,
                OSError) as exc:
            print(f"error:data: {exc}", file=sys.stderr)
            return 2
        except DivergenceError as exc:
            print(f"error:divergence: {exc} (reproduce: stgno {shlex.join(argv)})",
                  file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())

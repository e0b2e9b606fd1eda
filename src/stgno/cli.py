"""Command-line entry point: synth, prepare, train, eval, report, predict.

Exit codes: 0 success, 1 usage error, 2 data/contract error, 3 numeric
divergence. Failures print a single line ``error:<category>: <message>``
to stderr. Every subcommand accepts ``--config FILE`` pointing at a JSON
object whose keys mirror the flag names (explicit flags win).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import pipeline as pl
from . import train as tr
from .errors import (CheckpointError, ContractError, DataError, DimensionError,
                     DivergenceError, NormalizationError, ParameterError)
from .ioutil import atomic_write_text, dump_json, read_json
from .models import MODEL_KINDS, make_config
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
    p.add_argument("--samples", type=int, default=20, help="number of samples")
    p.add_argument("--spots", type=int, default=300, help="spots per sample")
    p.add_argument("--genes", type=int, default=32, help="number of genes")
    p.add_argument("--mode", choices=["informative", "noise_only"],
                   default="informative", help="expression mode")
    p.add_argument("--separation", type=float, default=1.0,
                   help="class separation of the expression patterns")
    p.add_argument("--noise", type=float, default=1.0, help="expression noise scale")
    p.add_argument("--region-seeds", type=int, default=4,
                   help="region seed sites per class")
    p.add_argument("--seed", type=int, default=0, help="generator seed")

    p = add("prepare", "filter, bin, split and assemble a prepared graph dataset")
    p.add_argument("--spots", required=True, help="spot CSV path")
    p.add_argument("--genes", required=True, help="gene list path")
    p.add_argument("--labels", required=True, help="label map TSV path")
    p.add_argument("--radius", type=float, default=None,
                   help="neighbor radius (default: tuned for median degree ~6)")
    p.add_argument("--holdout-k", type=int, default=7, help="samples to hold out")
    p.add_argument("--min-classes", type=int, default=10,
                   help="raw-label coverage threshold for holdout candidates")
    p.add_argument("--standardize", type=_parse_bool, default=False, metavar="BOOL",
                   help="z-score features per gene with train statistics")
    p.add_argument("--seed", type=int, default=0, help="split seed")
    p.add_argument("--out", required=True, help="output directory")

    p = add("train", "train one model over repeated seeded runs")
    p.add_argument("--data", required=True, help="prepared dataset directory")
    p.add_argument("--model", required=True, help=f"one of {', '.join(MODEL_KINDS)}")
    p.add_argument("--hidden", type=int, default=16, help="hidden width")
    p.add_argument("--layers", type=int, default=None,
                   help="depth (default per model; graphpde: 6)")
    p.add_argument("--activation", choices=["relu", "tanh"], default="relu",
                   help="activation function")
    p.add_argument("--kernel-hidden", type=_parse_int_list, default=(64,),
                   metavar="LIST", help="kernel network hidden widths (graphpde)")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="Gaussian bandwidth (spatial models; default radius/2)")
    p.add_argument("--epochs", type=int, default=100, help="training epochs")
    p.add_argument("--lr", type=float, default=1e-3, help="learning rate")
    p.add_argument("--optimizer", choices=["adam", "sgd"], default="adam",
                   help="optimizer")
    p.add_argument("--runs", type=int, default=10, help="independent seeded runs")
    p.add_argument("--class-weighting", type=_parse_bool, default=True,
                   metavar="BOOL", help="balanced class weighting")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--out", required=True, help="output directory")

    p = add("eval", "evaluate a checkpoint on the holdout slides")
    p.add_argument("--data", required=True, help="prepared dataset directory")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON path")

    p = add("report", "run the multi-model experiment and emit the results table")
    p.add_argument("--data", required=True, help="prepared dataset directory")
    p.add_argument("--models", default=",".join(MODEL_KINDS),
                   help="comma-separated model kinds")
    p.add_argument("--hidden", type=int, default=16, help="hidden width")
    p.add_argument("--kernel-hidden", type=_parse_int_list, default=(64,),
                   metavar="LIST", help="kernel network hidden widths (graphpde)")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="Gaussian bandwidth (spatial models; default radius/2)")
    p.add_argument("--epochs", type=int, default=100, help="training epochs")
    p.add_argument("--lr", type=float, default=1e-3, help="learning rate")
    p.add_argument("--optimizer", choices=["adam", "sgd"], default="adam",
                   help="optimizer")
    p.add_argument("--runs", type=int, default=10, help="independent seeded runs")
    p.add_argument("--class-weighting", type=_parse_bool, default=True,
                   metavar="BOOL", help="balanced class weighting")
    p.add_argument("--f1", choices=["macro", "weighted"], default="macro",
                   help="F1 flavor for the table")
    p.add_argument("--seed", type=int, default=0, help="base seed")
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


def _auto_radius(table: pl.SpotTable, target_degree: float = 6.0) -> float:
    """Radius giving expected degree ~ target under uniform density,
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
    return math.sqrt(target_degree / (math.pi * rho))


def _cmd_prepare(args, argv):
    table = pl.load_spot_table(args.spots)
    genes = pl.load_gene_list(args.genes)
    label_map = pl.load_label_map(args.labels)
    table = pl.filter_genes(table, genes)
    table = pl.bin_labels(table, label_map)
    split = pl.select_holdout(table, k=args.holdout_k,
                              min_classes=args.min_classes, seed=args.seed)
    radius = args.radius if args.radius is not None else _auto_radius(table)
    if not radius > 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    train_graphs, holdout_graphs, scaler = pl.assemble_graphs(
        table, split, radius, standardize=args.standardize)

    degrees = np.concatenate([
        np.bincount(g.graph.edges[:, 1], minlength=g.num_nodes)
        if g.graph.num_edges else np.zeros(g.num_nodes, dtype=np.int64)
        for g in train_graphs])
    median_degree = float(np.median(degrees))
    manifest = {
        "format_version": 1,
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
    }
    pl.save_prepared(args.out, train_graphs, holdout_graphs, manifest)

    counts = np.bincount(table.class_ids, minlength=len(label_map.class_names))
    print(f"spots: {table.num_spots}  samples: {len(table.sample_order())} "
          f"(train {len(split.train_sample_ids)}, holdout {len(split.holdout_sample_ids)})")
    print("class counts: " + ", ".join(
        f"{name}={int(c)}" for name, c in zip(label_map.class_names, counts)))
    print(f"radius: {radius:.6g}  median train degree: {median_degree:.1f}")
    if not 3.0 <= median_degree <= 12.0:
        print(f"warning: median degree {median_degree:.1f} outside [3, 12]; "
              "consider adjusting --radius", file=sys.stderr)
    return 0


def _model_config_from_args(args, input_dim: int, kind: str):
    overrides = dict(hidden_dim=args.hidden, activation=getattr(args, "activation", "relu"),
                     kernel_net_hidden=args.kernel_hidden, bandwidth=args.bandwidth,
                     init_seed=args.seed)
    layers = getattr(args, "layers", None)
    if layers is not None:
        overrides["num_layers"] = layers
    return make_config(kind, input_dim, **overrides)


def _train_config_from_args(args) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                       optimizer=args.optimizer, seed=args.seed,
                       num_runs=args.runs, class_weighting=args.class_weighting)


def _preprocess_block(manifest: dict) -> dict:
    return {
        "gene_names": manifest["gene_names"],
        "radius": manifest["radius"],
        "standardization": manifest.get("standardization"),
        "class_names": manifest["class_names"],
    }


def _cmd_train(args, argv):
    if args.model not in MODEL_KINDS:
        raise ParameterError(
            f"unknown model {args.model!r}; valid: {', '.join(MODEL_KINDS)}")
    train_graphs, holdout_graphs, manifest = pl.load_prepared(args.data)
    input_dim = len(manifest["gene_names"])
    mc = _model_config_from_args(args, input_dim, args.model)
    tc = _train_config_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    best_f1, best_run = -1.0, 0
    summary_runs = []
    for r in range(tc.num_runs):
        seed = tc.seed + r
        mc_r = replace(mc, init_seed=seed)
        tc_r = replace(tc, seed=seed, num_runs=1)
        log_lines = []
        started = time.monotonic()

        def log_epoch(epoch, mean_loss):
            log_lines.append(json.dumps(
                {"epoch": epoch, "mean_loss": mean_loss,
                 "elapsed": time.monotonic() - started}, sort_keys=True))

        try:
            params, history = tr.train(mc_r, train_graphs, tc_r,
                                       epoch_callback=log_epoch)
        except DivergenceError as exc:
            raise DivergenceError(
                f"{exc} (reproduce: stgno {' '.join(argv)})") from None
        atomic_write_text(out / f"run_{r}.log.jsonl", "\n".join(log_lines) + "\n")
        train_metrics = evaluate(params, mc_r, train_graphs)
        holdout_metrics = evaluate(params, mc_r, holdout_graphs)
        save_checkpoint(out / f"run_{r}.ckpt.json", params, mc_r,
                        preprocess=_preprocess_block(manifest))
        if train_metrics.macro_f1 > best_f1:
            best_f1, best_run = train_metrics.macro_f1, r
        summary_runs.append({
            "run": r, "seed": seed,
            "train_macro_f1": train_metrics.macro_f1,
            "holdout_accuracy": holdout_metrics.accuracy,
            "holdout_macro_f1": holdout_metrics.macro_f1,
            "final_loss": history[-1],
        })
        print(f"run {r}: train macro-F1 {train_metrics.macro_f1:.4f}, "
              f"holdout macro-F1 {holdout_metrics.macro_f1:.4f}")

    best_params, best_config, best_pre = load_checkpoint(out / f"run_{best_run}.ckpt.json")
    save_checkpoint(out / "best.ckpt.json", best_params, best_config,
                    preprocess=best_pre)
    atomic_write_text(out / "train_summary.json", dump_json({
        "model": args.model, "best_run": best_run, "runs": summary_runs}))
    print(f"best run by train macro-F1: {best_run} -> {out / 'best.ckpt.json'}")
    return 0


def _cmd_eval(args, argv):
    _train_graphs, holdout_graphs, manifest = pl.load_prepared(args.data)
    params, config, _pre = load_checkpoint(args.checkpoint)
    input_dim = len(manifest["gene_names"])
    if config.input_dim != input_dim:
        raise ContractError(
            f"checkpoint expects {config.input_dim} features, dataset has {input_dim}")
    metrics = evaluate(params, config, holdout_graphs)
    print(dump_json(metrics.to_json_dict()), end="")
    return 0


def _cmd_report(args, argv):
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise ParameterError(
                f"unknown model {kind!r}; valid: {', '.join(MODEL_KINDS)}")
    train_graphs, holdout_graphs, manifest = pl.load_prepared(args.data)
    input_dim = len(manifest["gene_names"])
    configs = [_model_config_from_args(args, input_dim, kind) for kind in kinds]
    tc = _train_config_from_args(args)
    report, _trained = run_experiment(configs, train_graphs, holdout_graphs, tc,
                                      f1_flavor=args.f1)
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
    gene_names = pre.get("gene_names")
    radius = pre.get("radius")
    if not gene_names or radius is None:
        raise CheckpointError(
            "checkpoint has no preprocess block; re-train with this version")
    table = pl.load_spot_table(args.spots)
    table = pl.filter_genes(table, gene_names)
    if table.gene_names != list(gene_names):
        raise DataError("spot file does not provide every gene the model needs")
    features = table.expression
    scaler = pre.get("standardization")
    if scaler:
        features = (features - np.array(scaler["mean"])) / np.array(scaler["std"])
    class_names = pre.get("class_names") or [str(i) for i in range(config.num_classes)]

    from .geometry import build_radius_graph
    from .train import forward_sample

    lines = ["sample_id,x,y,predicted_class"]
    for sid in table.sample_order():
        rows = table.rows_for(sid)
        pos = table.positions[rows]
        sample = pl.GraphSample(
            sample_id=sid, node_features=features[rows], positions=pos,
            graph=build_radius_graph(pos, radius),
            labels=np.zeros(rows.size, dtype=np.int64))
        tape = tr.Tape()
        logits = forward_sample(tape, config, params, sample)
        preds = logits.data.argmax(axis=1)
        for i, row in enumerate(rows):
            lines.append(f"{sid},{float(table.positions[row, 0])!r},"
                         f"{float(table.positions[row, 1])!r},{class_names[preds[i]]}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} predictions to {args.out}")
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
        cfg = read_json(cfg_path)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config file {cfg_path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise DataError(f"config file {cfg_path} must hold a JSON object")
    parser, subparsers = build_parser()
    sub = subparsers[args.command]
    valid = {a.dest for a in sub._actions}
    unknown = set(cfg) - valid
    if unknown:
        raise UsageError(f"unknown config key(s) {sorted(unknown)} for "
                         f"'{args.command}'")
    converted = {}
    for key, value in cfg.items():
        if key == "kernel_hidden" and isinstance(value, list):
            value = tuple(int(v) for v in value)
        converted[key] = value
    sub.set_defaults(**converted)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, _subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config_file(argv, args)
        return _COMMANDS[args.command](args, argv)
    except UsageError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError, ContractError, DimensionError,
            NormalizationError, IndexError) as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error:divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Noise-only study: feature-only baselines against the graph neural operator,
scored across spot densities.

Generates noise_only slides (labels depend on position alone), trains each
kind in --kinds for --runs seeds on slides of --spots spots, and scores every
run on holdout slides of the same spatial process sampled at each density in
--eval-spots. LR and FCN should sit near chance while the operator recovers
the regions from edge geometry; mean aggregation over fixed-radius
neighbourhoods keeps its receptive field in physical units, so its macro-F1
should stay roughly flat across densities. The defaults are the acceptance
suite's criterion-7 settings, so the 300- and 600-spot lines give criteria 7
and 8.

Usage: python scripts/study.py [--kinds lr fcn graphpde] [--runs 3] \
           [--eval-spots 300 600] ...
"""

import argparse
import sys
import time

import numpy as np

from stgno.models import KINDS, make_config
from stgno.pipeline import (SyntheticConfig, assemble_graphs, bin_labels,
                            generate_synthetic, select_holdout)
from stgno.train import TrainConfig, evaluate, run_experiment


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kinds", nargs="+", choices=list(KINDS),
                    default=["lr", "fcn", "graphpde"])
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--spots", type=int, default=300, help="spots per training slide")
    ap.add_argument("--eval-spots", type=int, nargs="+", default=[300, 600])
    ap.add_argument("--genes", type=int, default=32)
    ap.add_argument("--region-seeds", type=int, default=1)
    ap.add_argument("--radius", type=float, default=0.25)
    ap.add_argument("--hidden", type=int, default=8)
    ap.add_argument("--kernel-hidden", type=int, default=32)
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args(argv)


def build(args, spots):
    """Noise-only (train graphs, holdout graphs, label map) at ``spots``
    spots per slide. Every density draws from --seed, so all share one
    region layout."""
    table, label_map = generate_synthetic(SyntheticConfig(
        num_samples=args.samples, spots_per_sample=spots, num_genes=args.genes,
        region_seeds_per_class=args.region_seeds, expression_mode="noise_only",
        seed=args.seed))
    table = bin_labels(table, label_map)
    split = select_holdout(table, k=2, min_classes=3, seed=args.seed)
    train_g, hold_g, _ = assemble_graphs(table, split, radius=args.radius)
    return train_g, hold_g, label_map


def study(args):
    """{(kind, eval spots): [holdout macro-F1 per seed]}, seeds --seed onward."""
    data = {spots: build(args, spots) for spots in {args.spots, *args.eval_spots}}
    train_g, hold_g, label_map = data[args.spots]
    configs = [make_config(kind, args.genes, hidden_dim=args.hidden,
                           kernel_net_hidden=(args.kernel_hidden,),
                           num_classes=len(label_map.class_names))
               for kind in args.kinds]
    f1s = {(kind, spots): [] for kind in args.kinds for spots in args.eval_spots}

    def score(mc, _run, params, _history, _metrics):
        for spots in args.eval_spots:
            f1s[mc.kind, spots].append(evaluate(params, mc, data[spots][1]).macro_f1)

    run_experiment(configs, train_g, hold_g, TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, num_runs=args.runs,
        seed=args.seed), run_hook=score)
    return f1s


def main(argv=None):
    args = parse_args(argv)
    started = time.monotonic()
    seeds = " ".join(str(args.seed + r) for r in range(args.runs))
    print(f"trained on {args.spots}-spot slides; holdout macro-F1 by density, "
          f"mean ± std (seeds {seeds}):")
    for (kind, spots), f1 in study(args).items():
        std = np.std(f1, ddof=1) if len(f1) > 1 else 0.0
        print(f"  {KINDS[kind].display_name:<13} {spots:5d} spots: {np.mean(f1):.3f} "
              f"± {std:.3f}  ({' '.join(f'{x:.3f}' for x in f1)})")
    print(f"total {time.monotonic() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

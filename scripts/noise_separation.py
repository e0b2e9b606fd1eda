"""Spatial-separation experiment on feature-free synthetic slides.

Generates a noise_only dataset (labels depend on position alone), trains
feature-only baselines (LR, FCN) and the graph neural operator, and
prints the report table. The baselines should sit near chance while the
operator recovers the regions from edge geometry.

Usage: python scripts/noise_separation.py [--epochs 40] [--runs 3] ...
"""

import argparse
import sys
import time

from stgno.models import make_config
from stgno.pipeline import (SyntheticConfig, assemble_graphs, bin_labels,
                            generate_synthetic, select_holdout)
from stgno.train import TrainConfig, run_experiment


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--spots", type=int, default=300)
    ap.add_argument("--genes", type=int, default=32)
    ap.add_argument("--region-seeds", type=int, default=1)
    ap.add_argument("--radius", type=float, default=0.25)
    ap.add_argument("--hidden", type=int, default=8)
    ap.add_argument("--kernel-hidden", type=int, default=32)
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    table, label_map = generate_synthetic(SyntheticConfig(
        num_samples=args.samples, spots_per_sample=args.spots,
        num_genes=args.genes, region_seeds_per_class=args.region_seeds,
        expression_mode="noise_only", seed=args.seed))
    table = bin_labels(table, label_map)
    split = select_holdout(table, k=2, min_classes=3, seed=args.seed)
    train_g, hold_g, _ = assemble_graphs(table, split, radius=args.radius)

    configs = [
        make_config("lr", input_dim=args.genes),
        make_config("fcn", input_dim=args.genes, hidden_dim=args.hidden),
        make_config("graphpde", input_dim=args.genes, hidden_dim=args.hidden,
                    kernel_net_hidden=(args.kernel_hidden,)),
    ]
    tc = TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                     num_runs=args.runs, seed=args.seed)
    started = time.monotonic()
    report = run_experiment(configs, train_g, hold_g, tc)
    print(report.table(), end="")
    print(f"total {time.monotonic() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

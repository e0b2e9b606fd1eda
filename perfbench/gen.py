"""Seeded input generator: spot CSV, gene list, label map, and per workload
either a prepared dataset or a graphpde checkpoint.

Runs in its own process before the measured one, so that neither set-up
time nor peak RSS of the measured process includes generation. The
program under test later receives only the files written here.

The region layout (sites and expression patterns) is fixed: it is the
layout ``stgno synth --seed 0`` draws, so seed 0 reproduces the
criterion-7 slides exactly. The run's seed draws the spot positions and
the expression noise. Seeds thus give different data over one layout, and
the quality metric does not swing with where the regions happen to lie.

    python3 perfbench/gen.py --workload operator_train --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from stgno import cli
from stgno import pipeline as pl
from stgno.models import make_config, init_params
from stgno.train import save_checkpoint

from workloads import workload

NUM_CLASSES = 3
LAYOUT_SEED = 0
AUTO_DEGREE = 6.0


def spot_table(data: dict, seed: int) -> tuple[pl.SpotTable, pl.LabelMap, list[str]]:
    """Slides of uniform spots over a fixed site layout; labels are the
    nearest site, expression is noise (plus the class pattern when
    ``mode`` is informative)."""
    layout = np.random.default_rng(np.random.SeedSequence(LAYOUT_SEED).spawn(1)[0])
    num_sites = NUM_CLASSES * data["sites_per_class"]
    sites = layout.uniform(size=(num_sites, 2))
    site_class = np.arange(num_sites, dtype=np.int64) % NUM_CLASSES
    patterns = layout.choice([-1.0, 1.0], size=(NUM_CLASSES, data["genes"]))
    class_names = pl.synthetic_class_names(NUM_CLASSES)

    streams = np.random.SeedSequence(seed).spawn(data["slides"] + 1)[1:]
    sample_ids, raw_labels, truth, positions, expression = [], [], [], [], []
    for s, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        pos = rng.uniform(size=(data["spots"], 2))
        nearest = ((pos[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        expr = rng.standard_normal((data["spots"], data["genes"]))
        if data["mode"] == "informative":
            expr += patterns[site_class[nearest]]
        positions.append(pos)
        expression.append(expr)
        sample_ids.extend([f"s{s:02d}"] * data["spots"])
        raw_labels.extend(f"site_{i:02d}" for i in nearest)
        truth.extend(class_names[site_class[i]] for i in nearest)

    table = pl.SpotTable(sample_ids=sample_ids, positions=np.concatenate(positions),
                         expression=np.concatenate(expression), raw_labels=raw_labels,
                         gene_names=[f"g{g:03d}" for g in range(data["genes"])])
    label_map = pl.LabelMap(
        mapping={f"site_{i:02d}": int(site_class[i]) for i in range(num_sites)},
        class_names=class_names)
    return table, label_map, truth


def generate(name: str, seed: int, out: Path, smoke: bool = False) -> dict:
    """Write every input of ``name`` under ``out``; returns their index."""
    spec = workload(name, smoke)
    data = spec["data"]
    out.mkdir(parents=True, exist_ok=True)
    table, label_map, truth = spot_table(data, seed)
    stride = data["genes"] // data["keep_genes"]
    kept = table.gene_names[::stride][:data["keep_genes"]]
    files = {"spots": str(out / "spots.csv"), "genes": str(out / "genes.txt"),
             "labels": str(out / "labels.tsv")}
    pl.write_spot_table(files["spots"], table)
    Path(files["genes"]).write_text("\n".join(kept) + "\n", encoding="utf-8")
    pl.write_label_map(files["labels"], label_map)
    index = {"workload": name, "seed": seed, "smoke": smoke, "files": files,
             "num_spots": table.num_spots, "class_names": list(label_map.class_names)}

    if "checkpoint" in spec:
        ck = spec["checkpoint"]
        config = make_config("graphpde", input_dim=len(kept), hidden_dim=ck["hidden"],
                             kernel_net_hidden=(ck["kernel_hidden"],), init_seed=0)
        radius = math.sqrt(AUTO_DEGREE / (math.pi * data["spots"]))
        files["checkpoint"] = str(out / "model.ckpt.json")
        save_checkpoint(files["checkpoint"], init_params(config), config, preprocess={
            "gene_names": kept, "radius": radius, "standardization": None,
            "class_names": list(label_map.class_names)})
        files["truth"] = str(out / "truth.json")
        Path(files["truth"]).write_text(json.dumps(truth), encoding="utf-8")
    else:
        files["prepared"] = str(out / "prepared")
        argv = ["prepare", "--spots", files["spots"], "--genes", files["genes"],
                "--labels", files["labels"], *spec["prepare"], "--out", files["prepared"]]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"gen: stgno prepare exited {code}")
    (out / "inputs.json").write_text(json.dumps(index, indent=1), encoding="utf-8")
    return index


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())

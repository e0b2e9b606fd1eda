"""Workload definitions shared by the input generator and the measured process.

Each workload names the inputs to generate (from the run's seed), the stgno
CLI call that makes up one iteration (ingest's two calls are built from its
generated files), and why it is in the benchmark. A run
repeats whole iterations until its time is used, so every iteration does the
same work and its outputs can be compared bit for bit.

``--smoke`` swaps in tiny inputs with the same structure, for the
benchmark's own tests.
"""

from __future__ import annotations

BASELINE_KINDS = "lr,fcn,gcn,spatial_kernel,spatial_gcn"

WORKLOADS = {
    # The graphpde training step is about 98% of tier-1 time: per-edge
    # autodiff ops (edge_matvec, gather_rows, segment_mean) and the kernel-net
    # matmuls do nearly all the work; geometry and pipeline only run while
    # loading. This is the criterion-7 setting (r = 0.25, median degree ~47).
    # One epoch per call keeps an iteration near 5 s, so a run holds several
    # iterations after its warm-up one and spans most of the run's time
    # (README.md, Noise).
    "operator_train": {
        "data": {"slides": 20, "spots": 300, "genes": 32, "keep_genes": 32,
                 "sites_per_class": 1, "mode": "noise_only"},
        "prepare": ["--radius", "0.25", "--holdout-k", "2", "--min-classes", "3",
                    "--seed", "0"],
        "command": ["train", "--model", "graphpde", "--hidden", "8",
                    "--kernel-hidden", "32", "--epochs", "1", "--lr", "0.01",
                    "--runs", "1", "--seed", "0"],
    },
    # Row mixing goes through coo_matmul, with the Gaussian and normalisation
    # weights recomputed on every forward; edge_matvec and the kernel net never
    # run. A graphpde-only change must leave this workload unchanged, while a
    # shared-layout change shows here on its own. lr and fcn are the graph-free
    # baselines, where per-op tape overhead dominates. The same slides as
    # operator_train but with class-patterned expression: cost is the same,
    # and the baselines learn, so their F1 is not chance-level noise.
    "baseline_report": {
        "data": {"slides": 20, "spots": 300, "genes": 32, "keep_genes": 32,
                 "sites_per_class": 1, "mode": "informative"},
        "prepare": ["--radius", "0.25", "--holdout-k", "2", "--min-classes", "3",
                    "--seed", "0"],
        "command": ["report", "--models", BASELINE_KINDS, "--epochs", "1",
                    "--lr", "0.01", "--runs", "2", "--seed", "0"],
    },
    # Forward-only inference on large slides: the per-node graph build, the
    # CSV parse of 4x more gene columns than are kept, the O(n * samples)
    # row grouping and the JSON writes. prepare writes and predict reads the
    # same layers differently. The checkpoint holds init parameters at the CLI
    # defaults (h = 16, k = 64) and is written by the generator. Slides are
    # 2.5k spots (8x the training slides) so that a run holds ~10 iterations.
    # Runnable and traced, but not gated in BENCHMARK.json: its whole-call
    # timings spread too much on a shared host (see README.md).
    "large_slide_ingest": {
        "data": {"slides": 2, "spots": 2500, "genes": 128, "keep_genes": 32,
                 "sites_per_class": 4, "mode": "informative"},
        "prepare": ["--holdout-k", "1", "--min-classes", "10", "--seed", "0"],
        "checkpoint": {"hidden": 16, "kernel_hidden": 64},
    },
}

SMOKE_DATA = {
    "operator_train": {"slides": 5, "spots": 40},
    "baseline_report": {"slides": 5, "spots": 40},
    "large_slide_ingest": {"slides": 2, "spots": 120, "genes": 16, "keep_genes": 4},
}


def workload(name: str, smoke: bool = False) -> dict:
    """The definition of ``name``, shrunk to smoke-test size when asked."""
    spec = dict(WORKLOADS[name])
    if smoke:
        spec["data"] = {**spec["data"], **SMOKE_DATA[name]}
    return spec

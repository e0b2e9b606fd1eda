"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the repository root. Each test runs the one benchmark command the
way an automated harness does and checks what it prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
from measure import PROBE_REF_S, Clock, Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (all of them, gated in BENCHMARK.json or not)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def tagged(lines: list[str], tag: str) -> list[dict]:
    return [json.loads(line[len(tag):]) for line in lines if line.startswith(tag)]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    out = {}
    for trace in (0, 1):
        proc = bench(request.param, trace)
        assert proc.returncode == 0, proc.stderr
        out[trace] = proc.stdout.splitlines()
    return out


def test_every_metric_printed_with_its_unit(runs):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        last = json.loads(runs[trace][-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in last["metrics"].values())


def test_traced_iterations_bit_identical_to_untraced(runs):
    iterations = tagged(runs[1], "iteration: ")
    assert any(it["traced"] for it in iterations)
    assert any(not it["traced"] for it in iterations)
    assert len({it["digest"] for it in iterations}) == 1
    assert iterations[0]["digest"] is not None


def test_span_self_times_within_wall(runs):
    (trace,) = tagged(runs[1], "trace: ")
    spans = [json.loads(line) for line in
             Path(trace["spans_file"]).read_text().splitlines()]
    assert spans
    child = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    self_times = [s["end"] - s["start"] - child[i] for i, s in enumerate(spans)]
    assert min(self_times) >= -1e-9
    assert sum(self_times) <= trace["traced_wall_s"] * (1 + 1e-9)


def test_rate_counts_every_step_at_the_probes_speed():
    # Every step of the given iterations counts at its own wall time; the
    # rate is then scaled by the mean probe time of the probed iterations.
    clock = Clock.__new__(Clock)
    clock.samples = [(0, "train", 1.0, 100.0), (0, "train", 0.1, 100.0),
                     (1, "train", 1.2, 100.0), (1, "train", 0.3, 100.0)]
    clock.probe = Probe.__new__(Probe)
    clock.probe.times = [(0, 2 * PROBE_REF_S), (1, PROBE_REF_S), (1, 3 * PROBE_REF_S)]
    assert clock.raw_rate("train", {0, 1}) == pytest.approx(400.0 / 2.6)
    assert clock.rate("train", {1}) == pytest.approx(200.0 / 1.5 * 2.0)
    assert clock.rate("train", {0}, probed={0, 1}) == pytest.approx(200.0 / 1.1 * 2.0)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("operator_train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

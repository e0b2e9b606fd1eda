"""stgno benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload operator_train --seed 1 --seconds 20 --trace 0

It pins BLAS and OpenMP to one thread, generates the workload's inputs from
``--seed`` in one child process (gen.py), then measures in a second, fresh
child (measure.py), so set-up time and peak RSS cover stgno's own work
only. At most one child runs at a time. It prints the environment, the
workload's figures under their own names, and as the last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds
every end-to-end metric of BENCHMARK.json with ``--trace 0`` and every
per-layer metric with ``--trace 1``.

Scratch files go to ``.perfbench_work/`` (removed at exit) and span dumps
to ``.perfbench_out/``, both under the current directory. Exits 2 without
a result when the stgno sources are not under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 175.0
SETUP_REPS = 4

END_TO_END_UNITS = {"setup_s": "s", "spots_per_s": "1/s", "peak_rss_mb": "MB",
                    "holdout_macro_f1": "ratio"}
FIGURE_UNITS = {"unscaled_setup_s": "s", "probe_speed": "ratio"}


def pinned_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    return env


def _child(argv, env, deadline) -> subprocess.CompletedProcess:
    """Run one child to completion (or kill it at the deadline and wait)."""
    timeout = max(deadline - time.monotonic(), 1.0)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=timeout)


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stgno" / "__init__.py").is_file():
        print(f"error: no stgno sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    work = root / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{tag}.jsonl"
    env = pinned_env(root)
    deadline = started + TIME_LIMIT_S
    try:
        gen = _child([str(HERE / "gen.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--out", str(work / "inputs"),
                      *(["--smoke"] if args.smoke else [])], env, deadline)
        if gen.returncode != 0:
            print(f"error: input generation failed\n{gen.stderr}", file=sys.stderr)
            return 1
        result = work / "result.json"
        measure = [str(HERE / "measure.py"), "--inputs", str(work / "inputs"),
                   "--work", str(work / "run"), "--result", str(result)]
        setup = []

        def set_up(reps: int) -> bool:
            for _ in range(0 if args.trace else reps):
                if _child([*measure, "--setup"], env, deadline).returncode != 0:
                    print("error: set-up process failed", file=sys.stderr)
                    return False
                setup.append(json.loads(result.read_text()))
            return True

        if not set_up(SETUP_REPS // 2):
            return 1
        proc = _child([*measure, "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--spans", str(spans)], env, deadline)
        if proc.returncode != 0:
            print(f"error: measured process failed\n{proc.stderr}", file=sys.stderr)
            return 1
        run_result = result.read_text()
        if not set_up(SETUP_REPS - SETUP_REPS // 2):
            return 1
        doc = json.loads(run_result)
        doc["setup_s"] = [s["setup_s"] for s in setup]
        doc["setup_probe_speed"] = [s["probe_speed"] for s in setup]
        if not args.trace:
            scaled = [s["setup_s"] / s["probe_speed"] for s in setup]
            doc["figures"]["unscaled_setup_s"] = statistics.median(doc["setup_s"])
            doc["end_to_end"] = {"setup_s": statistics.median(scaled), **doc["end_to_end"]}
    except subprocess.TimeoutExpired:
        print(f"error: no result within {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(doc), encoding="utf-8")
    report(args, doc)
    return 0


def report(args, doc: dict) -> None:
    print("environment: " + json.dumps(doc["environment"], sort_keys=True))
    print(f"workload {doc['workload']}: {len(doc['iterations'])} iterations, "
          f"set-ups (s): " + (", ".join(f"{s:.3f}" for s in doc["setup_s"]) or "none"))
    for it in doc["iterations"]:
        print("iteration: " + json.dumps(it))
    for name in doc["failures"]:
        print(f"FAILED check: {name}")
    ratio = doc["failed"] / doc["attempted"] if doc["attempted"] else 1.0
    if args.trace:
        metrics = doc["per_layer"]
        units = dict(PER_LAYER)
        print("trace: " + json.dumps({k: doc[k] for k in
                                      ("traced_wall_s", "self_time_s", "spans_file")}))
    else:
        metrics = doc["end_to_end"]
        units = END_TO_END_UNITS
        for key, value in {**metrics, **doc["figures"]}.items():
            print(f"  {key} = {value:.6g} {FIGURE_UNITS.get(key, units.get(key, '1/s'))}")
        print(f"  failed_ratio = {ratio:.6g} ({doc['failed']}/{doc['attempted']})")
    correct = doc["failed"] == 0 and all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": {k: {"value": v if math.isfinite(v) else None,
                                      "unit": units[k]}
                                  for k, v in metrics.items()}}))


if __name__ == "__main__":
    sys.exit(main())

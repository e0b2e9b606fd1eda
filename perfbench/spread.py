"""Run the benchmark over several seeds and report each metric's median and
quartile spread, the way the acceptance check reads them.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20 [--workloads a,b] [--out FILE]

Runs are sequential (one benchmark process at a time). The spread of a
metric is (Q3 - Q1) / median over its values, with the quartiles of
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default=None, help="write every run's metrics here as JSON")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            last = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if last is None or not last["correct"]:
                print(f"{name} seed {seed}: FAILED\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            runs.append({k: v["value"] for k, v in last["metrics"].items()})
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                  flush=True)
        summary[name] = {"runs": runs, "metrics": {}}
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name]["metrics"][metric] = {"median": med, "q1": q1, "q3": q3,
                                                "spread": spread}
            print(f"  {name:20s} {metric:18s} median {med:12.6g}  spread {spread:6.3f}"
                  f"  bound {bounds[metric]:.2f}  {'ok' if spread <= bounds[metric] else 'OVER'}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The measured process: set-up, timed iterations and output checks for one
workload, on inputs that gen.py wrote beforehand.

It runs whole iterations of the workload's CLI calls until ``--seconds``
is used (at least two, so outputs can be compared across repeats). With
``--trace 1`` it alternates untraced and traced iterations and reports the
per-layer metrics instead. With ``--setup`` it only times the stgno import
plus one load of what the workload's command needs, as a fresh process
does before its first step. The result goes to ``--result`` as JSON.

    python3 perfbench/measure.py --inputs DIR --work DIR --result FILE \
        (--setup | --seconds 45 --trace 0 --spans FILE)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

_t0 = time.perf_counter()
import numpy as np  # noqa: E402

from stgno import autodiff, cli, geometry, ioutil, models, pipeline, train  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

from tracer import Tracer  # noqa: E402
from workloads import BASELINE_KINDS, workload  # noqa: E402

STGNO = {"autodiff": autodiff, "cli": cli, "geometry": geometry, "ioutil": ioutil,
         "models": models, "pipeline": pipeline, "train": train}
MAX_LOOP_S = 150.0
SETUP_PROBES = 25
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.0025  # about the probe's median on the reference machine


def environment() -> dict:
    """Interpreter, numpy, BLAS and machine, recorded next to every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": blas.get("name"), "blas_version": blas.get("version"),
           "blas_threads": _blas_threads(),
           "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "cpu_model": _cpu_model(), "machine": platform.machine(),
           **{k: os.environ.get(k) for k in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    return env


def _blas_threads():
    import ctypes
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            try:
                getter = getattr(ctypes.CDLL(str(lib)), fn)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_int
            return getter()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


class Probe:
    """A fixed piece of work that follows the host's speed.

    The reference machine's speed drifts by 20-50% over seconds to minutes,
    for numpy and interpreter code alike, and whole runs can fall in a slow
    stretch. The probe is timed between the workload's steps, about every
    ``PROBE_EVERY_S``, so its mean time samples the same stretches of the
    host as the steps do. Throughput and set-up time are then scaled to the
    speed at which one probe takes ``PROBE_REF_S``. The probe mixes the
    kinds of work stgno does: small numpy kernels (a matmul, a row gather and
    a scatter-add, as in the autodiff ops), a kernel-net-sized two-layer
    MLP in BLAS, and interpreted Python."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((1000, 16))
        self.w = rng.standard_normal((16, 16))
        self.rows = rng.integers(0, 1000, 4000)
        self.edges = rng.standard_normal((3000, 3))
        self.w1 = rng.standard_normal((3, 32))
        self.w2 = rng.standard_normal((32, 64))
        self.times: list[tuple[int, float]] = []

    def work(self) -> None:
        y = self.x @ self.w
        np.add.at(y, self.rows, np.maximum(y[self.rows], 0.0))
        np.maximum(self.edges @ self.w1, 0.0) @ self.w2
        total = 0
        for i in range(4000):
            total += i * i

    def once(self, iteration: int = -1) -> float:
        """Time one pass of the work, after an untimed pass that brings its
        data back into cache, so that what the step before it left in cache
        does not change the time."""
        self.work()
        start = time.perf_counter()
        self.work()
        seconds = time.perf_counter() - start
        self.times.append((iteration, seconds))
        return seconds

    def speed(self, iterations=None) -> float:
        """Mean probe time over the given iterations (all when None) as a
        share of ``PROBE_REF_S``: 1.3 means the host ran 30% slower."""
        times = [s for it, s in self.times if iterations is None or it in iterations]
        return statistics.fmean(times) / PROBE_REF_S if times else float("nan")


class Clock:
    """Step timers: one clock read at the end of every optimizer step
    (``Adam.step``) and around every forward pass inside ``evaluate``.
    Installed in untraced and traced iterations alike; they pass arguments
    and results through untouched. Between steps of untraced iterations
    the clock runs the probe whenever ``PROBE_EVERY_S`` has passed since the
    last one, outside any step's time."""

    def __init__(self, probe: Probe):
        self.samples: list[tuple[int, str, float, float]] = []
        self.probe = probe
        self.iteration = 0
        self.probing = True
        self._last, self._spots, self._in_eval, self._next_probe = 0.0, 0.0, False, 0.0
        orig_train, orig_eval = train.train, train.evaluate
        orig_forward, orig_step = train.forward_sample, train.Adam.step

        def clocked_train(model_config, graphs, train_config, epoch_callback=None):
            self._spots = sum(g.num_nodes for g in graphs) / max(len(graphs), 1)
            self._last = time.perf_counter()
            return orig_train(model_config, graphs, train_config, epoch_callback)

        def clocked_step(optimizer):
            orig_step(optimizer)
            self.samples.append((self.iteration, "train",
                                 time.perf_counter() - self._last, self._spots))
            self._tick()
            self._last = time.perf_counter()

        def clocked_evaluate(params, config, graphs):
            self._in_eval = True
            try:
                return orig_eval(params, config, graphs)
            finally:
                self._in_eval = False

        def clocked_forward(tape, config, params, sample):
            start = time.perf_counter()
            out = orig_forward(tape, config, params, sample)
            if self._in_eval:
                self.samples.append((self.iteration, "eval",
                                     time.perf_counter() - start, sample.num_nodes))
                self._tick()
            return out

        train.train, train.forward_sample, train.Adam.step = (
            clocked_train, clocked_forward, clocked_step)
        for mod in (train, cli):
            mod.evaluate = clocked_evaluate

    def _tick(self) -> None:
        if self.probing and time.perf_counter() >= self._next_probe:
            self.probe.once(self.iteration)
            self._next_probe = time.perf_counter() + PROBE_EVERY_S

    def raw_rate(self, phase: str, iterations) -> float:
        """Spots per second of ``phase`` ("train" or "eval"): every step of
        the given iterations, its spots over its wall time."""
        steps = [(s, sp) for it, ph, s, sp in self.samples
                 if ph == phase and it in iterations]
        if not steps:
            return float("nan")
        return sum(sp for _s, sp in steps) / sum(s for s, _sp in steps)

    def rate(self, phase: str, iterations, probed=None) -> float:
        """``raw_rate`` at the probe's reference speed, with the probe times
        of the ``probed`` iterations (default: the same ones)."""
        return (self.raw_rate(phase, iterations)
                * self.probe.speed(iterations if probed is None else probed))


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def _dir_bytes(path: Path) -> list[bytes]:
    return [p.read_bytes() for p in sorted(path.iterdir())]


class Workload:
    """One iteration of a workload's CLI calls, plus its set-up and checks.

    ``iterate`` returns the iteration's timings, its output digest (which
    must repeat exactly) and the results of its checks; a check is
    (name, passed)."""

    def __init__(self, name: str, inputs: dict, work: Path, smoke: bool):
        self.name, self.inputs, self.work = name, inputs, work
        self.spec = workload(name, smoke)
        self.files = inputs["files"]

    def setup_once(self) -> None:
        if "prepared" in self.files:
            pipeline.load_prepared(self.files["prepared"])
        else:
            train.load_checkpoint(self.files["checkpoint"])
            pipeline.load_spot_table(self.files["spots"])

    def iterate(self) -> dict:
        return getattr(self, "_" + self.name)()

    def _operator_train(self) -> dict:
        out = self.work / "train"
        start = time.perf_counter()
        code = _run_cli([*self.spec["command"], "--data", self.files["prepared"],
                         "--out", out])
        wall = time.perf_counter() - start
        checks = [("train exits 0", code == 0)]
        if code != 0:
            return {"wall": wall, "digest": None, "checks": checks}
        summary = json.loads((out / "train_summary.json").read_text())
        losses = [json.loads(line)["mean_loss"] for line in
                  (out / "run_0.log.jsonl").read_text().splitlines() if line]
        f1 = summary["runs"][0]["holdout_macro_f1"]
        checks.append(("losses finite, f1 in [0, 1]",
                       all(math.isfinite(v) for v in losses) and 0.0 <= f1 <= 1.0))
        digest = _digest(json.dumps(losses).encode(),
                         (out / "run_0.ckpt.json").read_bytes(),
                         (out / "train_summary.json").read_bytes())
        return {"wall": wall, "digest": digest, "checks": checks, "quality": f1,
                "final_loss": losses[-1]}

    def _baseline_report(self) -> dict:
        out = self.work / "report"
        start = time.perf_counter()
        code = _run_cli([*self.spec["command"], "--data", self.files["prepared"],
                         "--out", out])
        wall = time.perf_counter() - start
        checks = [("report exits 0", code == 0)]
        if code != 0:
            return {"wall": wall, "digest": None, "checks": checks}
        raw = (out / "report.json").read_bytes()
        rows = json.loads(raw)["models"]
        losses = [v for row in rows for run in row["runs"] for v in run["loss_history"]]
        checks.append(("one row per model, losses finite, f1 in [0, 1]",
                       [row["kind"] for row in rows] == BASELINE_KINDS.split(",")
                       and all(math.isfinite(v) for v in losses)
                       and all(0.0 <= row["mean_f1"] <= 1.0 for row in rows)))
        return {"wall": wall, "digest": _digest(raw), "checks": checks,
                "quality": statistics.fmean(row["mean_f1"] for row in rows),
                "final_loss": losses[-1]}

    def _large_slide_ingest(self) -> dict:
        f = self.files
        prepared, predictions = self.work / "prepared", self.work / "predictions.csv"
        start = time.perf_counter()
        code_prepare = _run_cli(["prepare", "--spots", f["spots"], "--genes", f["genes"],
                                 "--labels", f["labels"], *self.spec["prepare"],
                                 "--out", prepared])
        mid = time.perf_counter()
        code_predict = _run_cli(["predict", "--checkpoint", f["checkpoint"],
                                 "--spots", f["spots"], "--out", predictions])
        end = time.perf_counter()
        checks = [("prepare exits 0", code_prepare == 0),
                  ("predict exits 0", code_predict == 0)]
        timing = {"wall": end - start, "prepare_s": mid - start, "predict_s": end - mid}
        if code_prepare or code_predict:
            return {**timing, "digest": None, "checks": checks}
        lines = predictions.read_text().splitlines()
        classes = set(self.inputs["class_names"])
        predicted = [line.rsplit(",", 1)[1] for line in lines[1:]]
        truth = json.loads(Path(f["truth"]).read_text())
        checks.append(("one prediction per spot, valid class names",
                       lines[0] == "sample_id,x,y,predicted_class"
                       and len(predicted) == self.inputs["num_spots"]
                       and set(predicted) <= classes))
        names = self.inputs["class_names"]
        index = {c: i for i, c in enumerate(names)}
        confusion = np.zeros((len(names), len(names)), dtype=np.int64)
        if len(predicted) == len(truth) and set(predicted) <= classes:
            np.add.at(confusion, ([index[c] for c in truth],
                                  [index[c] for c in predicted]), 1)
        digest = _digest(predictions.read_bytes(), *_dir_bytes(prepared))
        return {**timing, "digest": digest, "checks": checks,
                "quality": train.metrics_from_confusion(confusion).macro_f1}


def _workload(args) -> Workload:
    inputs = json.loads((Path(args.inputs) / "inputs.json").read_text())
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    return Workload(inputs["workload"], inputs, work, inputs["smoke"])


def set_up(args) -> dict:
    """Time the import plus one load, and the probe right before and after
    the load, so that run.py can scale the set-up to the probe's speed."""
    wl = _workload(args)
    probe = Probe()
    for _ in range(SETUP_PROBES):
        probe.once()
    start = time.perf_counter()
    wl.setup_once()
    seconds = IMPORT_S + time.perf_counter() - start
    for _ in range(SETUP_PROBES):
        probe.once()
    return {"setup_s": seconds, "probe_speed": probe.speed()}


def run(args) -> dict:
    wl = _workload(args)
    clock = Clock(Probe())

    tracer = Tracer(STGNO) if args.trace else None
    iterations: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        k = len(iterations)
        traced = bool(args.trace) and k % 2 == 1
        clock.iteration, clock.probing = k, not traced
        if traced:
            tracer.install(k)
        try:
            result = wl.iterate()
        except Exception as exc:  # noqa: BLE001 - any crash is a counted failure
            result = {"wall": 0.0, "digest": None,
                      "checks": [(f"iteration raised {type(exc).__name__}: {exc}", False)]}
        finally:
            if traced:
                tracer.remove()
        result["traced"] = traced
        first = iterations[0]["digest"] if iterations else None
        if k > 0:
            result["checks"].append((
                "outputs bit-identical to iteration 0" + (" (traced)" if traced else ""),
                result["digest"] is not None and result["digest"] == first))
        iterations.append(result)
        elapsed = time.perf_counter() - loop_start
        failed = not all(ok for _name, ok in result["checks"])
        if failed or elapsed > MAX_LOOP_S:
            break
        if len(iterations) >= 2 and elapsed + result["wall"] > args.seconds:
            break

    checks = [c for it in iterations for c in it["checks"]]
    failed = sum(1 for _name, ok in checks if not ok)
    plain = [i for i, it in enumerate(iterations) if not it["traced"]]
    doc = {
        "workload": wl.name,
        "environment": environment(),
        "attempted": len(checks),
        "failed": failed,
        "failures": [name for name, ok in checks if not ok],
        "iterations": [{k: v for k, v in it.items() if k != "checks"}
                       for it in iterations],
        "import_s": IMPORT_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    figures = _throughput(wl, iterations, clock, plain)
    doc["figures"] = figures
    doc["step_samples"] = clock.samples
    doc["probe_s"] = clock.probe.times
    if args.trace:
        traced_its = [i for i, it in enumerate(iterations) if it["traced"]]
        traced = _throughput(wl, iterations, clock, traced_its, probed=plain)
        doc["per_layer"] = tracer.metrics(
            len(traced_its), 100.0 * (figures["spots_per_s"] / traced["spots_per_s"] - 1.0))
        doc["traced_wall_s"] = sum(iterations[i]["wall"] for i in traced_its)
        doc["self_time_s"] = sum(s for s, _n in tracer.self_times().values())
        tracer.write(args.spans)
        doc["spans_file"] = args.spans
    else:
        quality = [it["quality"] for it in iterations if "quality" in it]
        doc["end_to_end"] = {
            "spots_per_s": figures["spots_per_s"],
            "peak_rss_mb": doc["peak_rss_mb"],
            "holdout_macro_f1": quality[0] if quality else float("nan"),
        }
    return doc


def _throughput(wl: Workload, iterations, clock: Clock, which, probed=None) -> dict:
    """Spots per second over the given iterations. ``spots_per_s`` is the
    workload's headline figure. On the training workloads it is training
    spot-visits over the wall time of every optimizer step of the given
    iterations but the first (a warm-up, when there are others), at the
    probe's reference speed; the probe times come from the same iterations,
    or from those of ``probed`` (untraced ones, for a traced set). On ingest
    it is the spots per second of the fastest prepare plus the fastest
    predict, unscaled. The other figures are printed, not gated."""
    which = sorted(i for i in which if iterations[i]["digest"] is not None)
    which = set(which[1:] or which)
    nan = float("nan")
    if wl.name == "large_slide_ingest":
        n = wl.inputs["num_spots"]
        prepare = min((iterations[i]["prepare_s"] for i in which), default=nan)
        predict = min((iterations[i]["predict_s"] for i in which), default=nan)
        return {"spots_per_s": n / (prepare + predict),
                "prepare_spots_per_s": n / prepare, "predict_spots_per_s": n / predict}
    if probed is not None:
        probed = sorted(i for i in probed if iterations[i]["digest"] is not None)
        probed = set(probed[1:] or probed)
    return {"spots_per_s": clock.rate("train", which, probed),
            "evaluate_spots_per_s": clock.rate("eval", which, probed),
            "unscaled_spots_per_s": clock.raw_rate("train", which),
            "probe_speed": clock.probe.speed(which if probed is None else probed)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    doc = set_up(args) if args.setup else run(args)
    Path(args.result).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of stgno from outside the package.

:class:`Tracer` wraps stgno's public functions (and the backward closures
that ops hand to ``Tape.record``) in spans. A span records its name, start,
end, the span that called it and the iteration it belongs to. Spans stay in
memory and are written out when the run ends. A span's self time is its
duration minus that of its child spans; the program is single-threaded, so
children never overlap and self times partition the root spans.

Counts are taken at the same boundaries: kernel multiply-adds and output
bytes computed from array shapes, edges built, bytes of JSON written, and
two waste ratios. Wrappers only observe arguments and results, so a traced
run computes exactly what an untraced one does.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

OPS = ("matmul", "edge_matvec", "gather_rows", "segment_mean", "coo_matmul",
       "add_row_broadcast", "add", "relu", "log_softmax_rows")

# multiply-adds of one forward call, from its argument shapes
MADDS = {
    "matmul": lambda a: a[1].data.shape[0] * a[1].data.shape[1] * a[2].data.shape[1],
    "edge_matvec": lambda a: a[2].data.shape[0] * a[2].data.shape[1] ** 2,
    "coo_matmul": lambda a: len(a[2]) * a[1].data.shape[1],
    "segment_mean": lambda a: a[1].data.size,
}

FUNCTIONS = {
    "models": ("model_forward", "kernel_net_forward", "graphpde_layer",
               "symmetric_norm_weights"),
    "geometry": ("build_radius_graph", "gaussian_kernel_weights"),
    "train": ("forward_sample", "weighted_cross_entropy", "evaluate",
              "save_checkpoint", "load_checkpoint"),
    "pipeline": ("load_spot_table", "filter_genes", "assemble_graphs",
                 "save_prepared", "load_prepared"),
    "ioutil": ("dump_json", "read_json", "atomic_write_text"),
}
METHODS = (("autodiff", "Tape", "backward"), ("train", "Adam", "step"),
           ("pipeline", "SpotTable", "rows_for"))
CLI_COMMANDS = ("prepare", "predict", "train", "report")


def _per_layer_names() -> list[tuple[str, str]]:
    names = []
    for op in OPS:
        names += [(f"autodiff.{op}.fwd_ms", "ms"), (f"autodiff.{op}.bwd_ms", "ms"),
                  (f"autodiff.{op}.calls", "count"),
                  (f"autodiff.{op}.out_mb", "MB-computed")]
        if op in MADDS:
            names.append((f"autodiff.{op}.madds", "madd-computed"))
    names += [("autodiff.Tape.backward.ms", "ms"), ("autodiff.tape_entries", "count")]
    for fn in FUNCTIONS["models"]:
        names += [(f"models.{fn}.ms", "ms"), (f"models.{fn}.calls", "count")]
    names += [("geometry.build_radius_graph.ms", "ms"),
              ("geometry.build_radius_graph.calls", "count"),
              ("geometry.build_radius_graph.edges", "count"),
              ("geometry.gaussian_kernel_weights.ms", "ms"),
              ("geometry.gaussian_kernel_weights.calls", "count"),
              ("geometry.constants_per_graph", "ratio")]
    names += [(f"train.{fn}.ms", "ms") for fn in FUNCTIONS["train"]]
    names.append(("train.Adam.step.ms", "ms"))
    names += [(f"pipeline.{fn}.ms", "ms") for fn in FUNCTIONS["pipeline"]]
    names += [("pipeline.SpotTable.rows_for.ms", "ms"),
              ("pipeline.SpotTable.rows_for.calls", "count"),
              ("pipeline.save_prepared.mb", "MB"),
              ("pipeline.load_spot_table.parsed_per_kept_gene", "ratio")]
    names += [(f"ioutil.{fn}.ms", "ms") for fn in FUNCTIONS["ioutil"]]
    names.append(("ioutil.dump_json.mb", "MB"))
    names += [(f"cli.{cmd}.ms", "ms") for cmd in CLI_COMMANDS]
    names.append(("trace.overhead_pct", "%"))
    return names


# Every per-layer metric, with its unit; all but trace.overhead_pct are
# totals per iteration, averaged over the traced iterations.
PER_LAYER = _per_layer_names()


class _Patches:
    """Swap every reference to a function inside the stgno modules (module
    attributes and dict values such as ``autodiff.ACTIVATIONS``), so
    ``from x import f`` bindings are covered too; ``restore`` undoes it."""

    def __init__(self, modules):
        self.modules = modules
        self.undo: list[tuple[object, str, object, bool]] = []

    def function(self, original, replacement) -> None:
        for mod in self.modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    self.undo.append((mod, key, val, False))
                    setattr(mod, key, replacement)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            self.undo.append((val, dkey, dval, True))
                            val[dkey] = replacement

    def attribute(self, owner, name: str, replacement) -> None:
        self.undo.append((owner, name, owner.__dict__[name], False))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self.undo:
            owner, key, val, is_dict = self.undo.pop()
            if is_dict:
                owner[key] = val
            else:
                setattr(owner, key, val)


class Tracer:
    """Spans and counts for the iterations run between :meth:`install` and
    :meth:`remove`."""

    def __init__(self, stgno_modules: dict):
        self.mods = stgno_modules
        self.spans: list[list] = []   # [name, start, end, parent index, iteration]
        self._stack: list[int] = []
        self.iteration = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._constants: dict[tuple[str, int], object] = {}
        self._patches = _Patches(list(stgno_modules.values()))

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.iteration]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(out, args)
            return out

        return traced

    # -- counting hooks ------------------------------------------------------

    def _op_after(self, op: str):
        madds = MADDS.get(op)
        counts = self.counts

        def after(out, args):
            counts[f"autodiff.{op}.out_bytes"] += out.data.nbytes
            if madds is not None:
                counts[f"autodiff.{op}.madds"] += madds(args)

        return after

    def _constant_after(self, kind: str):
        def after(out, args):
            # keyed by the edge array / graph object, held so ids stay unique
            key_obj = args[1] if kind == "gaussian" else args[0]
            self.counts["geometry.constant_computations"] += 1
            self._constants[(kind, id(key_obj))] = key_obj

        return after

    def _after_hooks(self) -> dict:
        counts = self.counts

        def graph_built(out, args):
            counts["geometry.build_radius_graph.edges"] += out.num_edges

        def parsed(out, args):
            counts["pipeline.parsed_cells"] += out.expression.size

        def kept(out, args):
            counts["pipeline.kept_cells"] += out.expression.size

        def saved(out, args):
            with os.scandir(args[0]) as entries:
                counts["pipeline.save_prepared.bytes"] += sum(
                    e.stat().st_size for e in entries if e.is_file())

        def dumped(out, args):
            counts["ioutil.dump_json.bytes"] += len(out)

        return {
            "geometry.build_radius_graph": graph_built,
            "geometry.gaussian_kernel_weights": self._constant_after("gaussian"),
            "models.symmetric_norm_weights": self._constant_after("norm"),
            "pipeline.load_spot_table": parsed,
            "pipeline.filter_genes": kept,
            "pipeline.save_prepared": saved,
            "ioutil.dump_json": dumped,
        }

    # -- install / remove ----------------------------------------------------

    def install(self, iteration: int) -> None:
        self.iteration = iteration
        mods, patches = self.mods, self._patches
        ad = mods["autodiff"]
        for op in OPS:
            patches.function(getattr(ad, op),
                             self.wrap(f"autodiff.{op}.fwd", getattr(ad, op),
                                       self._op_after(op)))
        hooks = self._after_hooks()
        for mod_name, fns in FUNCTIONS.items():
            for fn in fns:
                name = f"{mod_name}.{fn}"
                original = getattr(mods[mod_name], fn)
                patches.function(original, self.wrap(name, original, hooks.get(name)))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            patches.attribute(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}",
                                                   cls.__dict__[meth]))
        commands = mods["cli"]._COMMANDS
        for cmd in CLI_COMMANDS:
            patches.function(commands[cmd], self.wrap(f"cli.{cmd}", commands[cmd]))

        tape_cls = ad.Tape
        original_record = tape_cls.__dict__["record"]
        wrap, counts = self.wrap, self.counts

        def record(tape, op, inputs, output, backward_fn):
            counts["autodiff.tape_entries"] += 1
            if op in OPS:
                backward_fn = wrap(f"autodiff.{op}.bwd", backward_fn)
            return original_record(tape, op, inputs, output, backward_fn)

        patches.attribute(tape_cls, "record", record)

    def remove(self) -> None:
        self._patches.restore()
        self.counts["geometry.distinct_constants"] += len(self._constants)
        self._constants.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Name -> (total self seconds, span count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _it in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _parent, _it) in enumerate(self.spans):
            out[name][0] += end - start - child[i]
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def metrics(self, iterations: int, overhead_pct: float) -> dict:
        """Every PER_LAYER metric, per traced iteration."""
        st = self.self_times()
        c = self.counts
        per = 1.0 / max(iterations, 1)

        def ms(span):
            return st.get(span, (0.0, 0))[0] * 1e3 * per

        def calls(span):
            return st.get(span, (0.0, 0))[1] * per

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        values = {}
        for op in OPS:
            values[f"autodiff.{op}.fwd_ms"] = ms(f"autodiff.{op}.fwd")
            values[f"autodiff.{op}.bwd_ms"] = ms(f"autodiff.{op}.bwd")
            values[f"autodiff.{op}.calls"] = calls(f"autodiff.{op}.fwd")
            values[f"autodiff.{op}.out_mb"] = c[f"autodiff.{op}.out_bytes"] / 1e6 * per
            if op in MADDS:
                values[f"autodiff.{op}.madds"] = c[f"autodiff.{op}.madds"] * per
        values["autodiff.tape_entries"] = c["autodiff.tape_entries"] * per
        values["geometry.build_radius_graph.edges"] = (
            c["geometry.build_radius_graph.edges"] * per)
        values["geometry.constants_per_graph"] = ratio(
            "geometry.constant_computations", "geometry.distinct_constants")
        values["pipeline.save_prepared.mb"] = c["pipeline.save_prepared.bytes"] / 1e6 * per
        values["pipeline.load_spot_table.parsed_per_kept_gene"] = ratio(
            "pipeline.parsed_cells", "pipeline.kept_cells")
        values["ioutil.dump_json.mb"] = c["ioutil.dump_json.bytes"] / 1e6 * per
        values["trace.overhead_pct"] = overhead_pct
        for name, _unit in PER_LAYER:
            if name in values:
                continue
            span, stat = name.rsplit(".", 1)
            values[name] = ms(span) if stat == "ms" else calls(span)
        return {name: values[name] for name, _unit in PER_LAYER}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, it in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "iteration": it}) + "\n")

"""Spans and counters around xastruct's public functions, installed from outside.

`instrument(tracer)` swaps each traced function for a wrapper in every
xastruct module that binds it (the modules import each other's functions
by name), and wraps the traced methods on their classes. Leaving the
context restores the originals, so untraced rounds run the program as it
ships.

A span records name, start, end and parent. A layer's self time is its
duration minus the durations of the spans nested directly inside it.
Spans of the autodiff ops and of `chi_shell` run hundreds of thousands of
times a round; they are aggregated but not stored one by one.
"""

import contextlib
import json
import os
import time
from collections import Counter
from pathlib import Path

_CLOCK = time.perf_counter

# the xastruct modules whose namespaces may bind a traced function
MODULES = ("autodiff", "crystal", "spectra", "exafs_oracle", "forest", "nn", "pipelines", "cli")

AUTODIFF_OPS = (
    "add", "mul", "matmul", "linear", "concat", "reshape", "sigmoid", "relu", "swish_beta",
    "layer_norm", "batch_norm_1d", "conv1d", "avg_pool1d", "masked_mean", "gather_rows",
    "mse_loss", "cross_entropy_loss",
)


class Tracer:
    """Collects spans, per-name totals and counters while instrumented code runs."""

    def __init__(self):
        self.spans = []  # (id, parent id or None, name, start, end)
        self.totals = {}  # name -> [calls, inclusive seconds, self seconds]
        self.counts = Counter()
        self._stack = []  # open frames: [span id, name, start, child seconds]
        self._open = Counter()  # name -> open frames of that name
        self._next_id = 0

    def reset_totals(self):
        self.totals = {}
        self.counts = Counter()

    def inside(self, name) -> bool:
        return self._open[name] > 0

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def enter(self, name, keep):
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, name, 0.0, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        frame[2] = _CLOCK()
        return frame

    def exit(self, frame):
        end = _CLOCK()
        span_id, name, start, child = frame
        self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if span_id is not None:
            parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, fn, name, keep=True, after=None):
        """`fn` inside a span; `after(tracer, args, kwargs, result)` runs once the span closed."""

        def traced(*args, **kwargs):
            frame = self.enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def table(self):
        """Rows (name, calls, self s, inclusive s), largest self time first."""
        rows = [(name, c, s, i) for name, (c, i, s) in self.totals.items()]
        return sorted(rows, key=lambda row: -row[2])

    def to_doc(self):
        return {
            "spans": [list(span) for span in self.spans],
            "layers": {name: {"calls": c, "self_s": s, "inclusive_s": i}
                       for name, c, s, i in self.table()},
            "counts": dict(self.counts),
        }


# --- counting hooks: they run after the span closed, outside its timing ----------


def _count(key, amount_fn):
    def after(tracer, args, kwargs, result):
        tracer.counts[key] += amount_fn(args, kwargs, result)

    return after


def _tree_bytes(path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dense_flops(op):
    def flops(args, kwargs, result):
        if op == "linear":  # x [.., d_in] @ W[d_out, d_in].T
            x, w = args[0], args[1]
            rows = x.shape[0] if len(x.shape) == 2 else 1
            return 2 * rows * w.shape[0] * w.shape[1]
        if op == "matmul":
            a, b = args[0], args[1]
            return 2 * a.shape[0] * a.shape[1] * b.shape[1]
        x, w = args[0], args[1]  # conv1d: x [B, C_in, L], W [C_out, C_in, K]
        return 2 * x.shape[0] * x.shape[2] * w.shape[0] * w.shape[1] * w.shape[2]

    return _count("autodiff.dense.flops", flops)


def _on_extract_descriptors(tracer, args, kwargs, result):
    if tracer.parent_name() == "cli.synth_structure":
        tracer.counts["cli.synth_structure.draws"] += 1


def _on_neighbor_list(tracer, args, kwargs, result):
    if tracer.inside("cli.synth"):
        tracer.counts["crystal.neighbor_list.calls_in_synth"] += 1


def _on_build_graph(tracer, args, kwargs, result):
    tracer.counts["crystal.build_graph.edges"] += len(result.edges)
    if tracer.inside("cli.eval"):
        tracer.counts["crystal.build_graph.built_in_eval"] += 1


def _on_eval_forward(tracer, args, kwargs, result):
    if tracer.inside("cli.eval"):
        tracer.counts["crystal.build_graph.used_in_eval"] += len(_arg(args, kwargs, 1, "pairs"))


def _on_eval_cn(tracer, args, kwargs, result):
    tracer.counts["pipelines.eval_cn.samples"] += len(_arg(args, kwargs, 1, "samples"))


def _on_predict_proba(tracer, args, kwargs, result):
    if tracer.inside("pipelines.eval_cn"):
        tracer.counts["forest.predict_proba.calls_in_eval_cn"] += 1


def _targets():
    """(module, attribute, span name, stored one by one, after hook) of every traced function."""
    out = [
        ("cli", "cmd_synth", "cli.synth", True, None),
        ("cli", "cmd_extract", "cli.extract", True, None),
        ("cli", "cmd_train", "cli.train", True, None),
        ("cli", "cmd_eval", "cli.eval", True, None),
        ("cli", "cmd_predict", "cli.predict", True, None),
        ("cli", "synth_samples", "cli.synth_samples", True,
         _count("cli.synth_samples.samples", lambda a, k, r: len(r[0]))),
        ("cli", "synth_structure", "cli.synth_structure", True, None),
        ("cli", "content_hash", "cli.content_hash", True,
         _count("cli.content_hash.bytes", lambda a, k, r: _tree_bytes(a[0]))),
        ("crystal", "neighbor_list", "crystal.neighbor_list", True, _on_neighbor_list),
        ("crystal", "extract_descriptors", "crystal.extract_descriptors", True,
         _on_extract_descriptors),
        ("crystal", "build_graph", "crystal.build_graph", True, _on_build_graph),
        ("exafs_oracle", "synth_exafs", "exafs_oracle.synth_exafs", True, None),
        ("exafs_oracle", "shells_from_structure", "exafs_oracle.shells_from_structure", True, None),
        ("exafs_oracle", "chi_shell", "exafs_oracle.chi_shell", False, None),
        ("exafs_oracle", "synth_xanes", "exafs_oracle.synth_xanes", True, None),
        ("spectra", "save_dataset", "spectra.save_dataset", True,
         _count("spectra.save_dataset.bytes",
                lambda a, k, r: _tree_bytes(Path(_arg(a, k, 1, "manifest_path")).parent))),
        ("spectra", "load_dataset", "spectra.load_dataset", True,
         _count("spectra.load_dataset.samples", lambda a, k, r: len(r))),
        ("autodiff", "backward", "autodiff.backward", True, None),
        ("autodiff", "adamw_step", "autodiff.adamw_step", True, None),
        ("autodiff", "zero_grad", "autodiff.zero_grad", True, None),
        ("autodiff", "save_params", "autodiff.save_params", True,
         _count("autodiff.save_params.bytes", lambda a, k, r: _tree_bytes(_arg(a, k, 1, "path")))),
        ("autodiff", "load_params", "autodiff.load_params", True, None),
        ("forest", "fit", "forest.fit", True,
         _count("forest.fit.nodes", lambda a, k, r: sum(len(t.nodes) for t in r.trees))),
        ("forest", "predict_proba", "forest.predict_proba", True, _on_predict_proba),
    ]
    for op in AUTODIFF_OPS:
        hook = _dense_flops(op) if op in ("linear", "matmul", "conv1d") else None
        out.append(("autodiff", op, f"autodiff.{op}", False, hook))
    for fn in ("train_forward", "train_mnnd", "train_neighbor", "train_cn",
               "eval_mnnd", "eval_neighbor"):
        out.append(("pipelines", fn, f"pipelines.{fn}", True, None))
    out.append(("pipelines", "eval_forward", "pipelines.eval_forward", True, _on_eval_forward))
    out.append(("pipelines", "eval_cn", "pipelines.eval_cn", True, _on_eval_cn))
    return out


def _checkpoint_bytes(tracer, args, kwargs, result):
    tracer.counts["pipelines.checkpoint.bytes"] += _tree_bytes(_arg(args, kwargs, 1, "path"))


@contextlib.contextmanager
def instrument(tracer, xastruct_modules):
    """Route xastruct's public functions and layer calls through `tracer` while open."""
    mods = {name: xastruct_modules[name] for name in MODULES}
    restore = []  # (owner, attribute, original)

    def patch(owner, attr, new):
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for mod_name, attr, name, keep, after in _targets():
        original = getattr(mods[mod_name], attr)
        wrapper = tracer.wrap(original, name, keep, after)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, key, wrapper)

    nn, pl, ad = mods["nn"], mods["pipelines"], mods["autodiff"]
    for cls in (nn.MPEncoder, nn.SGMLP, nn.ConvBlock):
        patch(cls, "__call__", tracer.wrap(cls.__call__, f"nn.{cls.__name__}"))
    for cls in (pl.ForwardModel, pl.InverseMNND, pl.InverseNeighbor, pl.CNClassifier):
        patch(cls, "save", tracer.wrap(cls.save, "pipelines.checkpoint_save",
                                       after=_checkpoint_bytes))
        load = cls.__dict__["load"].__func__
        patch(cls, "load", classmethod(tracer.wrap(load, "pipelines.checkpoint_load")))

    tensor_init = ad.Tensor.__init__

    def counted_init(self, *args, **kwargs):
        tensor_init(self, *args, **kwargs)
        tracer.counts["autodiff.tensors"] += 1
        tracer.counts["autodiff.tensor_bytes"] += self.data.nbytes + self.grad.nbytes

    patch(ad.Tensor, "__init__", counted_init)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def layer_metrics(tracer):
    """Per-layer metrics of one traced round, by the names BENCHMARK.json lists."""
    totals, counts = tracer.totals, tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("cli.synth_samples.s", self_s("cli.synth_samples"), "s")
    put("cli.synth_structure.draws_per_sample",
        ratio(counts["cli.synth_structure.draws"], calls("cli.synth_structure")), "ratio")
    put("cli.content_hash.s", self_s("cli.content_hash"), "s")
    put("cli.content_hash.bytes", counts["cli.content_hash.bytes"], "B")
    put("crystal.neighbor_list.calls", calls("crystal.neighbor_list"), "count")
    put("crystal.neighbor_list.s", self_s("crystal.neighbor_list"), "s")
    put("crystal.neighbor_list.calls_per_sample",
        ratio(counts["crystal.neighbor_list.calls_in_synth"], counts["cli.synth_samples.samples"]),
        "ratio")
    put("crystal.extract_descriptors.s", self_s("crystal.extract_descriptors"), "s")
    put("crystal.build_graph.calls", calls("crystal.build_graph"), "count")
    put("crystal.build_graph.s", self_s("crystal.build_graph"), "s")
    put("crystal.build_graph.edges", counts["crystal.build_graph.edges"], "count")
    put("crystal.build_graph.used_per_built",
        ratio(counts["crystal.build_graph.used_in_eval"],
              counts["crystal.build_graph.built_in_eval"]), "ratio")
    for fn in ("synth_exafs", "shells_from_structure"):
        put(f"exafs_oracle.{fn}.s", self_s(f"exafs_oracle.{fn}"), "s")
    put("exafs_oracle.chi_shell.calls", calls("exafs_oracle.chi_shell"), "count")
    put("exafs_oracle.chi_shell.s", self_s("exafs_oracle.chi_shell"), "s")
    put("exafs_oracle.synth_xanes.s", self_s("exafs_oracle.synth_xanes"), "s")
    put("spectra.save_dataset.s", self_s("spectra.save_dataset"), "s")
    put("spectra.save_dataset.bytes", counts["spectra.save_dataset.bytes"], "B")
    put("spectra.load_dataset.s", self_s("spectra.load_dataset"), "s")
    put("spectra.load_dataset.samples", counts["spectra.load_dataset.samples"], "count")
    put("autodiff.tensors", counts["autodiff.tensors"], "count")
    put("autodiff.tensor_bytes", counts["autodiff.tensor_bytes"], "B")
    put("autodiff.dense.flops", counts["autodiff.dense.flops"], "flop")
    for op in AUTODIFF_OPS:
        put(f"autodiff.{op}.calls", calls(f"autodiff.{op}"), "count")
        put(f"autodiff.{op}.s", self_s(f"autodiff.{op}"), "s")
    put("autodiff.backward.calls", calls("autodiff.backward"), "count")
    put("autodiff.backward.s", self_s("autodiff.backward"), "s")
    put("autodiff.adamw_step.s", self_s("autodiff.adamw_step"), "s")
    put("autodiff.zero_grad.s", self_s("autodiff.zero_grad"), "s")
    put("autodiff.save_params.s", self_s("autodiff.save_params"), "s")
    put("autodiff.save_params.bytes", counts["autodiff.save_params.bytes"], "B")
    put("autodiff.load_params.s", self_s("autodiff.load_params"), "s")
    for layer in ("MPEncoder", "SGMLP", "ConvBlock"):
        put(f"nn.{layer}.calls", calls(f"nn.{layer}"), "count")
        put(f"nn.{layer}.s", self_s(f"nn.{layer}"), "s")
    put("forest.fit.s", self_s("forest.fit"), "s")
    put("forest.fit.nodes", counts["forest.fit.nodes"], "count")
    put("forest.predict_proba.calls", calls("forest.predict_proba"), "count")
    put("forest.predict_proba.s", self_s("forest.predict_proba"), "s")
    put("forest.predict_proba.calls_per_sample",
        ratio(counts["forest.predict_proba.calls_in_eval_cn"], counts["pipelines.eval_cn.samples"]),
        "ratio")
    for fn in ("train_forward", "train_mnnd", "train_neighbor", "train_cn"):
        put(f"pipelines.{fn}.s", self_s(f"pipelines.{fn}"), "s")
    put("pipelines.train_steps", calls("autodiff.adamw_step"), "count")
    for fn in ("eval_forward", "eval_mnnd", "eval_neighbor", "eval_cn"):
        put(f"pipelines.{fn}.s", self_s(f"pipelines.{fn}"), "s")
    put("pipelines.checkpoint_save.s", self_s("pipelines.checkpoint_save"), "s")
    put("pipelines.checkpoint_load.s", self_s("pipelines.checkpoint_load"), "s")
    put("pipelines.checkpoint.bytes", counts["pipelines.checkpoint.bytes"], "B")
    return m


def write_trace(tracer, path, meta):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = dict(meta)
    doc.update(tracer.to_doc())
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    tmp.replace(path)

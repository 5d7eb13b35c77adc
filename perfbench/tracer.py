"""Span tracer that wraps the public functions of the ``romuq`` modules.

Everything here acts from outside the package: the tracer replaces every
binding of a wrapped function (the defining module and every module that
imported it by name) and restores them on ``uninstall``.

Spans nest on a stack. When a span closes, its duration is added to the
open parent's child time, so a layer's self time is its span time minus
the time covered by its child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from pathlib import Path

# Tensor primitives and the op label they record on the tape.
TENSOR_OPS = {
    "matmul": "matmul", "add": "add", "sub": "sub", "mul": "mul",
    "scale": "scale", "exp": "exp", "gelu": "gelu", "softmax": "softmax",
    "layer_norm": "layer_norm", "reshape": "reshape",
    "transpose": "transpose", "concat": "concat", "slice_axis": "slice",
    "tensor_sum": "sum", "tensor_mean": "mean", "log": "log", "tanh": "tanh",
}

# Layer names that differ from "<module>.<function>".
ALIASES = {
    "datagen.solve_hopf_surrogate": "datagen.solve_hopf",
    "uq.write_uq_csvs": "uq.write_csvs",
}

# Public methods wrapped in addition to module-level functions:
# (module, class, method, layer name).
METHODS = [
    ("vae", "Vae", "encode", "vae.encode"),
    ("vae", "Vae", "decode", "vae.decode"),
    ("transformer", "LatentTransformer", "forecast", "transformer.forecast"),
    ("optim", "Adam", "step", "optim.step"),
    ("training", "ModelCheckpoint", "save", "training.save"),
    ("training", "ModelCheckpoint", "load", "training.load"),
    ("config", "RunConfig", "load", "config.load"),
]

# Calls too frequent for a span; only counted.
COUNT_ONLY = {"uq.member_noise"}

# Layers whose per-call durations are kept for percentiles.
SAMPLED = {"transformer.forecast", "optim.step", "tensor.backward"}

# Rollout blocks: while predict_rollout runs, every forecast stamps the
# clock as it starts, and each ROLLOUT_BLOCK consecutive intervals between
# stamps (forecast and window update) become one [seconds, steps] block of
# predict_rollout.
ROLLOUT_BLOCK = 10

# The only layers wrapped in untraced runs: those the end-to-end rates are
# computed from (forecast for the rollout blocks), and evaluate_grid, whose
# last result the output checks read.
STAGES = {"training.train", "training.retrain", "optim.step",
          "training.predict_rollout", "transformer.forecast",
          "uq.second_pass", "adaptive.evaluate_grid"}

MODULES = ["tensor", "optim", "datagen", "vae", "transformer", "training",
           "uq", "metrics", "adaptive", "config", "cli"]


class Stat:
    __slots__ = ("calls", "total", "self_time", "rows", "bytes", "flops",
                 "samples", "blocks")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.rows = 0
        self.bytes = 0
        self.flops = 0
        self.samples = None
        self.blocks = None


def _blocks(stamps, block: int) -> list:
    """[seconds, steps] of each run of ``block`` consecutive intervals
    between the (clock, steps) ``stamps`` (of all of them, when there are
    fewer); a last, shorter run is dropped."""
    block = min(block, len(stamps) - 1)
    if block < 1:
        return []
    return [[stamps[k + block][0] - stamps[k][0],
             sum(w for _, w in stamps[k:k + block])]
            for k in range(0, len(stamps) - block, block)]


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).exists())


def _first_rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) >= 2 else 1


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(layer, args, kwargs) -> int:
    """Rows (batch entries, rollout steps or decoded snapshots) one call
    works on, read from its arguments."""
    if layer in ("vae.encode", "vae.decode"):
        return _first_rows(args[1])
    if layer == "transformer.forecast":
        w = args[1]
        return int(w.shape[0]) if len(w.shape) == 3 else 1
    if layer == "training.predict_rollout":
        return int(_arg(args, kwargs, 3, "steps"))
    if layer == "uq.second_pass":
        n = int(_arg(args, kwargs, 3, "n", 64))
        return n * int(args[0].shape[0])
    return 0


def _bytes_after(layer, args) -> int:
    """Size of the files one call wrote or read."""
    if layer == "datagen.write_trajectory":
        p = Path(args[0])
        return _file_bytes(p, p.with_suffix(p.suffix + ".meta.json"))
    if layer == "datagen.read_trajectory":
        return _file_bytes(args[0])
    if layer in ("training.save", "training.load"):
        d = Path(args[1])  # (self, directory) or (cls, directory)
        return _file_bytes(d / "manifest.json", d / "weights.bin")
    if layer == "uq.write_csvs":
        d = Path(args[0])
        return _file_bytes(d / "uq_field.csv", d / "nu_t.csv")
    return 0


_MEASURES_BYTES = {"datagen.write_trajectory", "datagen.read_trajectory",
                   "training.save", "training.load", "uq.write_csvs"}


class Tracer:
    """Wraps romuq layers; ``layers=None`` wraps every public function,
    otherwise only the named layers (the untraced stage timers)."""

    def __init__(self, layers=None):
        self.only = None if layers is None else set(layers)
        self.stats: dict[str, Stat] = {}
        self.stack: list = []
        self.tape_lengths: list[int] = []
        # tape entries whose backward closure a wrapped primitive timed;
        # equals sum(tape_lengths) when every recording op is wrapped
        self.taped = 0
        self.models: list = []
        self.last: dict = {}
        # (clock, steps) of each forecast of the running predict_rollout
        self.stamps = None
        self._undo: list = []

    # ------------------------------------------------------------ install

    def _wanted(self, layer: str) -> bool:
        return self.only is None or layer in self.only

    def stat(self, layer: str) -> Stat:
        s = self.stats.get(layer)
        if s is None:
            s = self.stats[layer] = Stat()
            if layer in SAMPLED:
                s.samples = []
            if layer == "training.predict_rollout":
                s.blocks = []
        return s

    def install(self):
        mods = {name: __import__(f"romuq.{name}", fromlist=["_"])
                for name in MODULES}
        loaded = [m for n, m in sys.modules.items()
                  if n == "romuq" or n.startswith("romuq.")]
        for mname, mod in mods.items():
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                layer = f"{mname}.{fname}"
                if mname == "tensor" and fname in TENSOR_OPS:
                    layer = f"tensor.{TENSOR_OPS[fname]}"
                layer = ALIASES.get(layer, layer)
                if not self._wanted(layer):
                    continue
                wrapped = self._wrap(layer, fn)
                for m in loaded:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._undo.append((m, name, fn))
                            setattr(m, name, wrapped)
        for mname, cname, meth, layer in METHODS:
            if not self._wanted(layer):
                continue
            cls = getattr(mods[mname], cname)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__))
            else:
                wrapped = self._wrap(layer, raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
        if self.only is None:
            self._track_models(mods["transformer"].LatentTransformer)

    def _track_models(self, cls):
        """Keep every LatentTransformer so its own forward_count probe can be
        compared with the traced forecast calls."""
        init = cls.__dict__["__init__"]
        models = self.models

        def __init__(obj, *a, **k):
            init(obj, *a, **k)
            models.append(obj)

        self._undo.append((cls, "__init__", init))
        cls.__init__ = __init__

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # ------------------------------------------------------------ wrappers

    def _wrap(self, layer, fn):
        if layer in COUNT_ONLY:
            return self._counted(layer, fn)
        if layer.startswith("tensor.") and layer[7:] in TENSOR_OPS.values():
            return self._primitive(layer, fn)
        if layer == "tensor.backward":
            return self._backward(layer, fn)
        return self.span(layer, fn)

    def _counted(self, layer, fn):
        stat = self.stat(layer)

        def wrapped(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapped

    def span(self, layer, fn):
        stat = self.stat(layer)
        stack = self.stack
        clock = time.perf_counter
        samples = stat.samples
        measure_bytes = layer in _MEASURES_BYTES
        keep_last = layer == "adaptive.evaluate_grid"
        last = self.last
        opens = layer == "training.predict_rollout"
        stamps_clock = layer == "transformer.forecast"
        tracer = self

        def wrapped(*args, **kwargs):
            rows = _rows(layer, args, kwargs)
            frame = [0.0]
            stack.append(frame)
            if opens:
                stamps = tracer.stamps = []
            t0 = clock()
            if stamps_clock and tracer.stamps is not None:
                tracer.stamps.append((t0, rows))
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if opens:
                    tracer.stamps = None
                    stat.blocks += _blocks(stamps, ROLLOUT_BLOCK)
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
                stat.rows += rows
                if samples is not None:
                    samples.append(dt)
                if stack:
                    stack[-1][0] += dt
            if measure_bytes:
                stat.bytes += _bytes_after(layer, args)
            if keep_last:
                last[layer] = out
            return out

        return wrapped

    def _primitive(self, layer, fn):
        """Forward span plus a timed wrapper around the backward closure the
        primitive appended to the active tape."""
        from romuq import tensor as T

        stat = self.stat(layer)
        bstat = self.stat(layer + ".bwd")
        stack = self.stack
        clock = time.perf_counter
        tape_stack = T._TAPE_STACK
        is_matmul = layer == "tensor.matmul"
        tracer = self

        def wrapped(*args, **kwargs):
            tape = tape_stack[-1] if tape_stack else None
            n0 = len(tape.ops) if tape is not None else 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt
                if stack:
                    stack[-1][0] += dt
            flops = 2 * out.data.size * args[0].shape[-1] if is_matmul else 0
            stat.flops += flops
            if tape is not None and len(tape.ops) > n0:
                entry = tape.ops[-1]
                entry.backward_fn = timed_bwd(entry.backward_fn, flops)
                tracer.taped += 1
            return out

        def timed_bwd(bwd, flops):
            def run(g):
                t0 = clock()
                try:
                    return bwd(g)
                finally:
                    dt = clock() - t0
                    bstat.calls += 1
                    bstat.total += dt
                    bstat.self_time += dt
                    bstat.flops += 2 * flops
                    if stack:
                        stack[-1][0] += dt
            return run

        return wrapped

    def _backward(self, layer, fn):
        span = self.span(layer, fn)
        lengths = self.tape_lengths

        def wrapped(tape, loss):
            lengths.append(len(tape.ops))
            return span(tape, loss)

        return wrapped

    # ------------------------------------------------------------ results

    def module_self(self) -> dict:
        out = {m: 0.0 for m in MODULES}
        for layer, s in self.stats.items():
            out[layer.split(".", 1)[0]] += s.self_time
        return out

    def forward_count(self) -> int:
        return sum(m.forward_count for m in self.models)

    def dump(self) -> dict:
        """Plain-data snapshot, mergeable across processes."""
        return {
            "stats": {k: {"calls": s.calls, "total": s.total,
                          "self": s.self_time, "rows": s.rows,
                          "bytes": s.bytes, "flops": s.flops,
                          "samples": s.samples, "blocks": s.blocks}
                      for k, s in self.stats.items()},
            "tape_lengths": self.tape_lengths,
            "taped": self.taped,
            "forward_count": self.forward_count(),
        }


def merge_dumps(dumps) -> dict:
    """Sum of the dumps of several processes or passes."""
    stats: dict = {}
    out = {"stats": stats, "tape_lengths": [], "taped": 0, "forward_count": 0}
    for d in dumps:
        for k, s in d["stats"].items():
            acc = stats.setdefault(k, {"calls": 0, "total": 0.0, "self": 0.0,
                                       "rows": 0, "bytes": 0, "flops": 0,
                                       "samples": None, "blocks": None})
            for f in ("calls", "total", "self", "rows", "bytes", "flops"):
                acc[f] += s[f]
            for f in ("samples", "blocks"):
                if s[f] is not None:
                    acc[f] = (acc[f] or []) + s[f]
        for f in ("tape_lengths", "taped", "forward_count"):
            out[f] += d[f]
    return out

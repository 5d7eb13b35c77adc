"""Benchmark worker: runs one workload in a process whose BLAS thread count
was pinned before numpy was imported (see run.py), checks its outputs and
prints the result as the last line of standard output."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from tracer import merge_dumps
from workloads import ROOT, WORKLOADS

OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed SETUP_REPEATS times: SETUP_BEFORE times before the first
# pass, once after each pass, and the rest at the end, so that the samples
# span the run.
SETUP_REPEATS = 7
SETUP_BEFORE = 2
# A run makes at least MIN_PASSES passes, even when that outlasts --seconds,
# so that wall_s is never the time of a single slow pass.
MIN_PASSES = 2

# Gated end-to-end metrics: (name, unit), reported by every workload.
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"), ("train_steps_per_s", "1/s"),
    ("rollout_steps_per_s", "1/s"),
]

# Reported where the workload runs the stage, not gated: (name, unit).
REPORTED = [
    ("ops_failed_ratio", "ratio"), ("solve_s", "s"), ("uq_snapshots_per_s", "1/s"),
    ("adapt_s", "s"), ("rel_mse_pct", "%"), ("uq_err_pearson", "r"),
    ("cli.generate_s", "s"), ("cli.train_s", "s"), ("cli.infer_s", "s"),
    ("cli.uq_s", "s"),
]

TENSOR_METRIC_OPS = ["matmul", "add", "sub", "mul", "scale", "exp", "gelu",
                     "softmax", "layer_norm", "reshape", "transpose",
                     "concat", "slice", "sum", "mean"]
SELF_MODULES = ["tensor", "optim", "datagen", "vae", "transformer",
                "training", "uq", "metrics", "adaptive", "config", "cli"]
PERCENTILE_LAYERS = ["transformer.forecast", "optim.step", "tensor.backward"]


def per_layer_specs() -> list:
    """(name, unit, source) for every per-layer metric. ``source`` is
    (layer, field) with field one of calls/total/rows/bytes, or a key
    computed in ``per_layer``."""
    specs = []
    for op in TENSOR_METRIC_OPS:
        specs += [(f"tensor.{op}.calls", "count", (f"tensor.{op}", "calls")),
                  (f"tensor.{op}.fwd_s", "s", (f"tensor.{op}", "total")),
                  (f"tensor.{op}.bwd_s", "s", (f"tensor.{op}.bwd", "total"))]
    specs += [("tensor.backward_s", "s", ("tensor.backward", "total")),
              ("tensor.tape_ops_per_step", "count", "tape_ops"),
              ("tensor.matmul.gflop", "GFLOP", "gflop"),
              ("optim.step.calls", "count", ("optim.step", "calls")),
              ("optim.step_s", "s", ("optim.step", "total"))]
    for layer in ("vae.encode", "vae.decode", "transformer.forecast"):
        specs += [(f"{layer}.calls", "count", (layer, "calls")),
                  (f"{layer}.rows", "count", (layer, "rows")),
                  (f"{layer}_s", "s", (layer, "total"))]
    for layer in ("transformer.rollout", "uq.second_pass", "uq.ensemble_noise",
                  "uq.write_csvs", "training.total_loss", "training.train",
                  "training.retrain", "training.predict_rollout",
                  "training.save", "training.load", "adaptive.evaluate_grid",
                  "adaptive.select_next", "metrics.crps", "metrics.scaled_mse",
                  "metrics.relative_mse", "metrics.pearson",
                  "datagen.solve_ks", "datagen.solve_hopf",
                  "datagen.write_trajectory", "datagen.read_trajectory",
                  "config.load"):
        specs.append((f"{layer}_s", "s", (layer, "total")))
    specs.append(("uq.member_noise.calls", "count", ("uq.member_noise", "calls")))
    for layer in ("datagen.solve_ks", "datagen.solve_hopf",
                  "datagen.write_trajectory", "datagen.read_trajectory"):
        specs.append((f"{layer}.calls", "count", (layer, "calls")))
    for layer in ("uq.write_csvs", "training.save", "training.load",
                  "datagen.write_trajectory", "datagen.read_trajectory"):
        specs.append((f"{layer}.bytes", "B", (layer, "bytes")))
    specs += [(f"{m}.self_s", "s", f"self:{m}") for m in SELF_MODULES]
    for layer in PERCENTILE_LAYERS:
        specs += [(f"{layer}.p50_ms", "ms", f"p50:{layer}"),
                  (f"{layer}.tail_ms", "ms", f"tail:{layer}"),
                  (f"{layer}.tail_pct", "%", f"tailpct:{layer}"),
                  (f"{layer}.samples", "count", f"n:{layer}")]
    specs.append(("trace.overhead_ratio", "ratio", "overhead"))
    return specs


# ---------------------------------------------------------------- helpers


def environment() -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        # the build's own install paths say nothing about its speed
        blas = {k: v for k, v in blas.items() if "directory" not in k}
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit,
    }


def source_hash() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "romuq").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def time_setup() -> float:
    """Wall time of importing the whole package in a fresh interpreter,
    the set-up every ``romuq`` command pays."""
    t0 = time.perf_counter()
    # no timeout: Popen.wait with one polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import romuq.cli"], cwd=ROOT,
                   check=True)
    return time.perf_counter() - t0


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "ks_cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail(samples):
    """(p50, tail value, tail percentile): the tail is the highest of the
    99.9/99/90th percentiles with at least ten samples beyond it."""
    if not samples:
        return 0.0, 0.0, 0.0
    arr = np.asarray(samples)
    p50 = float(np.percentile(arr, 50))
    for pct in (99.9, 99.0, 90.0):
        if arr.size * (1 - pct / 100) >= 10:
            return p50, float(np.percentile(arr, pct)), pct
    return p50, p50, 50.0


def check_fingerprint(name: str, seed: int, fp: dict) -> bool:
    """Compare with an earlier run of the same workload, seed and source."""
    store = OUT / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{name}:{seed}:{source_hash()}"
    if key in known:
        return known[key] == fp["hash"]
    known[key] = fp["hash"]
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def per_layer(dump: dict, overhead: float) -> dict:
    stats = dump["stats"]
    self_time = {m: 0.0 for m in SELF_MODULES}
    for layer, s in stats.items():
        self_time[layer.split(".", 1)[0]] += s["self"]
    flops = sum(stats.get(k, {}).get("flops", 0)
                for k in ("tensor.matmul", "tensor.matmul.bwd"))
    lengths = dump["tape_lengths"]
    computed = {"tape_ops": lengths[0] if lengths else 0,
                "gflop": flops / 1e9, "overhead": overhead}
    for m, v in self_time.items():
        computed[f"self:{m}"] = v
    for layer in PERCENTILE_LAYERS:
        samples = (stats.get(layer) or {}).get("samples") or []
        p50, tv, pct = tail(samples)
        computed.update({f"p50:{layer}": p50 * 1e3, f"tail:{layer}": tv * 1e3,
                         f"tailpct:{layer}": pct, f"n:{layer}": len(samples)})
    out = {}
    for name, unit, src in per_layer_specs():
        if isinstance(src, tuple):
            layer, field = src
            value = (stats.get(layer) or {}).get(field, 0)
        else:
            value = computed[src]
        out[name] = {"value": value, "unit": unit}
    return out


def self_check(p) -> list:
    """Call counts seen by the tracer against counts derived from the
    workload config and the model's own forward_count probe."""
    stats = p.dump["stats"]
    problems = []

    def calls(layer):
        return (stats.get(layer) or {}).get("calls", 0)

    for key, want in p.expected.items():
        got = calls(key.rsplit(".", 1)[0])
        if got != want:
            problems.append(f"{key}: traced {got}, expected {want}")
    if calls("transformer.forecast") != p.dump["forward_count"]:
        problems.append(f"transformer.forecast.calls {calls('transformer.forecast')}"
                        f" != forward_count {p.dump['forward_count']}")
    if len(set(p.dump["tape_lengths"])) > 1:
        problems.append(f"tape ops per step vary: {sorted(set(p.dump['tape_lengths']))}")
    if p.dump["taped"] != sum(p.dump["tape_lengths"]):
        problems.append(f"wrapped primitives recorded {p.dump['taped']} tape "
                        f"entries, the tapes hold {sum(p.dump['tape_lengths'])}")
    return problems


# Throughputs: work (layer, field) over the seconds spent in the layers.
TOTAL_RATES = {
    "train_steps_per_s": (("optim.step", "calls"),
                          ("training.train", "training.retrain")),
    "uq_snapshots_per_s": (("uq.second_pass", "rows"), ("uq.second_pass",)),
}
# The rollout rate is read at this quantile of the per-step times of the
# rollout blocks (tracer.ROLLOUT_BLOCK) of a run, which holds 700-1000.
ROLLOUT_QUANTILE = 0.01


def stage_rates(dump: dict) -> dict:
    """Work over time in the stage, both summed over all passes of a run;
    the rollout rate from the fastest blocks instead. The machine switches
    between a fast and a slow speed every few seconds, in a share that
    drifts from run to run and can stay above 90% for a minute. A total
    moves with that share, and so does a median over 10-ms rollout blocks;
    their 1st percentile reads the fast speed whenever a few per cent of
    the blocks ran fast. For training, low quantiles of 80-ms blocks of 4
    steps spread over seeds as much as the total, so it stays a total."""
    stats = dump["stats"]
    out = {}
    blocks = (stats.get("training.predict_rollout") or {}).get("blocks")
    if blocks:
        per_step = [secs / steps for secs, steps in blocks]
        out["rollout_steps_per_s"] = 1.0 / float(
            np.quantile(per_step, ROLLOUT_QUANTILE))
    for name, ((work_layer, field), layers) in TOTAL_RATES.items():
        secs = sum((stats.get(k) or {}).get("total", 0.0) for k in layers)
        if secs:
            out[name] = stats[work_layer][field] / secs
    return out


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    env = environment()
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload](args.seed, OUT / "work")
    errors: list[str] = []
    record: dict = {"args": vars(args), "env": env}

    if args.trace:
        untraced = workload.run_pass(traced=False)
        traced = workload.run_pass(traced=True)
        passes = [untraced, traced]
        problems = self_check(traced)
        if traced.fingerprint != untraced.fingerprint:
            problems.append("traced fingerprint differs from untraced")
        errors += [f"self-check: {x}" for x in problems]
        overhead = traced.wall / untraced.wall
        metrics = per_layer(traced.dump, overhead)
        print(f"# tracing overhead {overhead:.3f}x (traced {traced.wall:.3f} s"
              f" / untraced {untraced.wall:.3f} s)")
        print(f"# self-check {'passed' if not problems else 'FAILED'}")
        record["trace"] = traced.dump
    else:
        setup = [time_setup() for _ in range(SETUP_BEFORE)]
        passes = []
        t0 = time.perf_counter()
        while True:
            p = workload.run_pass(traced=False)
            passes.append(p)
            if len(setup) < SETUP_REPEATS:
                setup.append(time_setup())
            elapsed = time.perf_counter() - t0
            if p.errors or (len(passes) >= MIN_PASSES
                            and elapsed + p.wall > args.seconds):
                break
        setup += [time_setup() for _ in range(SETUP_REPEATS - len(setup))]
        ok = [p for p in passes if not p.errors] or passes
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(p.wall for p in ok),
                  "peak_rss_mb": peak_rss_mb(args.workload),
                  "ops_ok_ratio": 1.0 - failed / max(attempted, 1),
                  "ops_failed_ratio": failed / max(attempted, 1)}
        merged = merge_dumps([p.dump for p in ok])
        values.update(stage_rates(merged))
        for name, _ in REPORTED:
            per_pass = [p.values[name] for p in ok if name in p.values]
            if per_pass:
                values[name] = statistics.median(per_pass)
        missing = [n for n, _ in END_TO_END if n not in values]
        errors += [f"metric {n} not measured" for n in missing]
        metrics = {n: {"value": values.get(n, 0.0), "unit": u}
                   for n, u in END_TO_END}
        print(f"# {len(passes)} passes, wall "
              + " ".join(f"{p.wall:.3f}" for p in passes) + " s; setup "
              + " ".join(f"{x:.3f}" for x in setup) + " s")
        for name, unit in END_TO_END + REPORTED:
            if name in values:
                gated = "gated" if name in metrics else "reported"
                print(f"# metric {name} {values[name]:.6g} {unit} ({gated})")
        record["reported"] = {n: {"value": values[n], "unit": u}
                              for n, u in REPORTED if n in values}
        record["setup"] = setup
        record["blocks"] = {k: s["blocks"] for k, s in merged["stats"].items()
                            if s["blocks"]}

    for p in passes:
        errors += p.errors
    prints = {p.fingerprint.get("hash") for p in passes if p.fingerprint}
    if len(prints) > 1:
        errors.append(f"same seed, different fingerprints: {sorted(prints)}")
    fp = next((p.fingerprint for p in passes if p.fingerprint), None)
    if fp and not errors and not check_fingerprint(args.workload, args.seed, fp):
        errors.append("fingerprint differs from an earlier run with this seed")
    if fp:
        curve = fp["loss_curve"]
        print(f"# fingerprint {fp['hash']} loss_curve n={len(curve)} "
              f"first={curve[0]} last={curve[-1]}")
    for e in errors:
        print(f"# ERROR {e}")

    result = {"correct": not errors,
              "attempted": sum(p.attempted for p in passes),
              "failed": sum(p.failed for p in passes),
              "metrics": metrics}
    record.update(result=result, errors=errors, fingerprint=fp,
                  passes=[{"wall": p.wall, "values": p.values}
                          for p in passes])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

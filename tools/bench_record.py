"""Benchmark record with its spread: ``BENCH_<workload>.json`` at the
repository root, from repeated untraced runs of perfbench/run.py.

Runs ``perfbench/run.py --workload W --seed 0 --seconds 50 --trace 0``
10 times for each of ``hopf_adapt`` and ``ks_cli``, the workloads taking
turns so that both sample the same stretch of the machine's time. run.py
overwrites its record ``perfbench/out/<W>-seed0-trace0.json`` on every
run, so each is deleted before its run and read right after it. Each ``BENCH_<W>.json`` holds:

- the commit and the sha256 prefix of ``src/romuq`` that
  ``perfbench/worker.py``'s ``source_hash`` computes (a run of an
  uncommitted tree reports its parent's commit), both taken before the
  first run and checked unchanged after the last;
- the first run's environment record, the seed, the run length and the
  command line;
- per metric, gated (``result.metrics``) and reported (``reported``): the
  value of every run, the median, the quartiles (``statistics.quantiles``,
  inclusive) and the quartile distance; and whether each run's output
  checks passed.

Besides deleting those run records it changes no file under perfbench/:

    python3 tools/bench_record.py

A run that exits nonzero or writes no record stops the script, which then
writes nothing.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from worker import OUT, source_hash  # noqa: E402

WORKLOADS, RUNS, SEED, SECONDS = ("hopf_adapt", "ks_cli"), 10, 0, 50


def command(workload: str) -> list:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "0"]


def run_once(workload: str) -> dict:
    """One untraced run's record, read from the file run.py just wrote."""
    record = OUT / f"{workload}-seed{SEED}-trace0.json"
    record.unlink(missing_ok=True)
    argv = [sys.executable, *command(workload)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0 or not record.is_file():
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(record.read_text())


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "quartile_distance": q3 - q1,
            "values": values}


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown (not a git checkout)"
    source = source_hash()
    records = {w: [] for w in WORKLOADS}
    for i in range(RUNS):
        for workload in WORKLOADS:
            records[workload].append(run_once(workload))
            metrics = records[workload][-1]["result"]["metrics"]
            print(f"run {i + 1}/{RUNS} {workload}: "
                  + " ".join(f"{n} {m['value']:.4g}" for n, m in metrics.items()), flush=True)
    if source_hash() != source:
        raise SystemExit("src/romuq changed during the runs; nothing written")

    for workload, runs in records.items():
        metrics = {}
        for kind, of in (("gated", lambda r: r["result"]["metrics"]),
                         ("reported", lambda r: r["reported"])):
            for name, first in of(runs[0]).items():
                metrics[name] = {"kind": kind, "unit": first["unit"],
                                 **summary([of(r)[name]["value"] for r in runs])}
        bench = {
            "workload": workload, "commit": commit, "source_hash": source,
            "seed": SEED, "seconds": SECONDS, "runs": len(runs), "trace": 0,
            "command": " ".join(["python3", *command(workload)]),
            "correct": [r["result"]["correct"] for r in runs],
            "env": runs[0]["env"], "metrics": metrics,
        }
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

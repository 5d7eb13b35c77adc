"""romuq benchmark entry point.

    python3 perfbench/run.py --workload {ks_train,hopf_adapt,ks_cli} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --baseline

Run from the repository root. The workload runs in a child process whose
BLAS/OpenMP thread count is pinned to 1 before numpy is imported; the last
line of standard output is the JSON result.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 170


def main() -> int:
    if not (ROOT / "src" / "romuq" / "__init__.py").is_file():
        print(f"error: no romuq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    args = sys.argv[1:]
    script = "worker.py"
    if args[:1] == ["--baseline"]:
        script, args = "baseline.py", args[1:]
    worker = Path(__file__).resolve().parent / script
    proc = subprocess.Popen([sys.executable, str(worker), *args],
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        # also ends any process the worker left behind in its session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())

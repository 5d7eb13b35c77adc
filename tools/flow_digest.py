"""Byte-identity digest of the romuq command-line flow, and a check of every
refusal of the refusal table.

Runs the fixed small Hopf and KS flows of tests/refusals.py,
generate -> train -> infer -> uq -> adapt -> report, on the package in this
checkout's ``src/``. Every command runs in one temporary directory
(``mkdtemp``, fixed-length name) with relative paths, so no output depends
on where the checkout or the temporary directory lives. Then it builds the
inputs of the refusal table in tests/refusals.py on the Hopf flow's outputs
and runs each of its cases. The flows and the inputs are built by
``run_flows`` and ``make_error_inputs`` of tests/refusals.py, in the order
the fixture of tests/test_cli.py builds them, so the tests assert on the
files this digest hashes. Every command runs in this process through
``run_cli``, which returns the exit code and stderr a ``romuq`` process would.

It prints ``sha256  relative/path`` for every file the flows wrote, then
each case's command, exit code, stderr and whether it created its
``--out``, and a line for each of these that differs from the table. Two
checkouts that behave the same print the same lines, so a ``diff`` of two
runs shows every changed output:

    python3 tools/flow_digest.py > before.txt   # in one checkout
    python3 tools/flow_digest.py > after.txt    # in the other
    diff before.txt after.txt

It exits 1 when a flow command fails, or when a case's exit code, message
or ``--out`` differs from what the table holds. The whole run takes about
2 s (2-core x86 machine, one BLAS thread).
"""

from __future__ import annotations

import hashlib
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests")]

from refusals import FLOWS, REFUSALS, make_error_inputs, run_cli, run_flows  # noqa: E402


def main() -> int:
    cwd = os.getcwd()
    work = Path(tempfile.mkdtemp(prefix="flow_digest_"))
    try:
        os.chdir(work)
        try:
            run_flows(work)
        except RuntimeError as exc:
            print(exc)
            return 1
        for path in sorted(p for case in FLOWS for p in (work / case).rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work).as_posix()}")
        make_error_inputs(work)
        failed = False
        for case in REFUSALS:
            code, stderr = run_cli(case.argv)
            created = (work / case.out).exists()
            print(f"# refusal {case.id}: romuq {shlex.join(case.argv)}")
            print(f"exit {code}; --out created: {'yes' if created else 'no'}")
            print(f"stderr: {stderr.strip()}")
            for difference in case.differences(code, stderr, created):
                print(f"differs from the table: {difference}")
                failed = True
        return 1 if failed else 0
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

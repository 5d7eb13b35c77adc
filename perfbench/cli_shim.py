"""Run one ``romuq`` CLI command under the tracer.

Usage: python3 perfbench/cli_shim.py {--trace|--stages} <stats.json> <romuq args...>

Behaves like ``romuq <args...>`` (same exit code). ``--trace`` wraps every
layer, ``--stages`` only the stage timers. The statistics of the process
are written to <stats.json>.
"""

import json
import sys

from tracer import STAGES, Tracer


def main() -> int:
    mode, out, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(None if mode == "--trace" else STAGES)
    tracer.install()
    from romuq import cli

    code = 0

    def run():
        cli.main.main(args=args, prog_name="romuq", standalone_mode=True)

    try:
        tracer.span("cli.main", run)()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tracer.uninstall()
    with open(out, "w") as f:
        json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())

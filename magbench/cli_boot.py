"""Run `magtrace.cli` under the tracer, as `python -m magtrace.cli` would run it.

Usage: MAGBENCH_TRACE_OUT=dump.json python3 magbench/cli_boot.py <cli args>

The time to import magtrace.cli (numpy included) is taken before the
tracer is installed.  The exit code of the CLI is passed through, and the
tracer's counters and spans are written to MAGBENCH_TRACE_OUT however the
CLI exits.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
import magtrace.cli  # noqa: E402

import_s = time.perf_counter() - start

import json  # noqa: E402

import tracing  # noqa: E402


def main():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    code = 1
    try:
        magtrace.cli.main()
    except SystemExit as done:
        code = done.code
    finally:
        tracer.active = False
        data = tracer.dump()
        data["import_s"] = import_s
        with open(os.environ["MAGBENCH_TRACE_OUT"], "w", encoding="utf-8") as handle:
            json.dump(data, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()

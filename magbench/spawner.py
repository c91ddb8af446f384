"""Start the cli-oneshot commands from a process that holds almost nothing.

A child's peak RSS counts the memory of the process it was forked from,
so CLI processes started straight from the worker (numpy, scipy and the
reference module loaded) would report the worker's size.  This process
imports only the standard library.  It reads one JSON request per line on
stdin, {"cmd": [...], "env": {...}, "cwd": "..."}, runs the command to
completion and answers with one JSON line {"code", "stdout", "stderr",
"children_peak_kb"}, the last being the peak RSS of the largest child so
far.  It exits when stdin closes.
"""

import json
import resource
import subprocess
import sys


def main():
    for line in sys.stdin:
        request = json.loads(line)
        done = subprocess.run(request["cmd"], env=request["env"], cwd=request["cwd"],
                              capture_output=True, text=True, timeout=120)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps({"code": done.returncode, "stdout": done.stdout,
                                     "stderr": done.stderr, "children_peak_kb": peak}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

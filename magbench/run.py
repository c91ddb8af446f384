"""Benchmark of magtrace: one workload per call, one JSON line of results.

Usage, from the root of a checkout:
    python3 magbench/run.py --workload spectra|kernel-grid|cli-oneshot
                            --seed N --seconds S --trace 0|1

The workload runs in worker processes (magbench/worker.py), one at a
time, with BLAS pinned to one thread.  Set-up is timed 2 * SETUPS_AROUND
+ 1 times: workers that only set up and exit, before and after the
measuring worker, and the measuring worker itself, each from process
start to its READY line; setup_s is the median.  The last line of stdout
is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The checkout must hold the magtrace sources under src/;
without them the benchmark exits with status 2 and prints no result.
See magbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("spectra", "kernel-grid", "cli-oneshot")
SETUPS_AROUND = 4
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "batch_s": "s", "peak_rss_mb": "MB", "tracing.overhead_s": "s",
         "dixmier.reliable_ratio": "ratio", "kernels.apply_kernel.madds": "computed_madd",
         "kernels.apply_kernel.bytes": "computed_B", "cli.import_s": "s"}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _env():
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class Worker:
    """A worker process, timed from its start to its READY line."""

    def __init__(self, root, args, workdir, setup_only, deadline):
        cmd = [sys.executable, os.path.join(root, "magbench", "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        began = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=_env(), stdout=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        self.setup_wall_s = time.perf_counter() - began
        speed = self.proc.stdout.readline().split()
        if line.strip() != "READY" or len(speed) != 2:
            self.finish()
            raise RuntimeError("worker failed during set-up")
        self.setup_s = self.setup_wall_s * float(speed[1])

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker ran past the deadline")
        if self.proc.returncode != 0:
            raise RuntimeError("worker exited with status %d" % self.proc.returncode)
        return out


def _setup_only(root, args, workdir, deadline) -> float:
    worker = Worker(root, args, workdir, True, deadline)
    worker.finish()
    return worker.setup_s


def main(argv) -> int:
    args = _args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "magtrace", "__init__.py")):
        print("no magtrace sources under %s/src: run from the root of a checkout"
              % root, file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(root, ".magbench_work")
    workdir = os.path.join(work, "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        setups = [_setup_only(root, args, workdir, deadline) for _ in range(SETUPS_AROUND)]
        worker = Worker(root, args, workdir, False, deadline)
        setups.append(worker.setup_s)
        result = json.loads(worker.finish().strip().splitlines()[-1])
        setups += [_setup_only(root, args, workdir, deadline) for _ in range(SETUPS_AROUND)]
    except RuntimeError as err:
        print("benchmark failed: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    for message in result["messages"]:
        print("check failed: %s" % message)
    print("%s seed %d: %d batches, %d operations, %d failed, median batch wall time %.3f s"
          % (args.workload, args.seed, result["batches"], result["attempted"],
             result["failed"], result["wall_s"]))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": value, "unit": _unit(name)}
                                  for name, value in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

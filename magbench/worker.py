"""One workload process: set up, say READY, run timed batches, check them.

Usage (normally started by run.py):
    python3 magbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                               --workdir DIR [--setup-only]

The process pins itself, and so its CLI children, to one CPU.  Set-up
imports numpy and magtrace, builds the inputs from the seed and runs a
small warm-up, then prints READY and the host speed factor of one
calibration slice; run.py times set-up from the process start to READY.
A batch runs every operation of the workload once, in a fixed order.
Each operation is timed alone and scaled to the reference host speed by
the calibration slices just before and after it (see calibrate.py); the
batch time is the sum.  Outputs are checked after the batch, off the
clock.  Batches repeat until the phase has lasted --seconds.  With
--trace 1 there are two phases of half the time each, untraced and then
traced; the per-layer metrics come from the traced phase.  Peak RSS is
read after the first batch, before the checks load scipy.  The last line
of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

CALL_LAYERS = ("operators.matrix_block", "linalg", "dixmier.collect_spectrum",
               "kernels.apply_kernel", "basis.psi", "traces.hurwitz_zeta",
               "extrapolate.log_inverse_fit")
SELF_LAYERS = ("operators.matrix_block", "linalg", "dixmier.collect_spectrum",
               "dixmier.dixmier_estimate", "dixmier.tauberian_residue",
               "dos.dixmier_dos_check", "kernels.apply_kernel", "kernels.kernel_table",
               "kernels.magnetic_translate", "basis.psi", "cli.run",
               "serialize.canonical_json", "serialize.load_operator", "traces.tau_residue",
               "traces.tau_shell", "traces.tau_ordered_basis", "traces.hurwitz_zeta",
               "extrapolate.log_inverse_fit", "extrapolate.richardson_zero",
               "dos.idos_shell_approx")
COMPLEX_BYTES = 16
MAX_MESSAGES = 5


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _peak_rss_mb(workload) -> float:
    """Peak RSS of this process, or of the largest CLI child for cli-oneshot."""
    if workload.name == "cli-oneshot":
        return workload.children_peak_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Batches of one phase or two, with their counts and check results."""

    def __init__(self, workload, ops, calibrate):
        self.workload = workload
        self.ops = ops
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages = []
        self.peak_rss_mb = None
        self.import_samples = []

    def phase(self, seconds, tracer=None):
        """Run batches for `seconds`; return their (scaled, wall) times.

        Each operation is timed alone, and its time is scaled by the
        calibration slices run just before and just after it.
        """
        scaled_times, wall_times = [], []
        start = time.perf_counter()
        while True:
            outputs = []
            scaled = wall = 0.0
            before = self.calibrate.calibration_slice()
            for op in self.ops:
                if tracer is not None:
                    tracer.trace_id = "%d.%s" % (len(wall_times), op.name)
                    tracer.active = True
                began = time.perf_counter()
                try:
                    outputs.append((op.run(), None))
                except Exception as exc:  # a failed operation is counted, not fatal
                    outputs.append((None, exc))
                took = time.perf_counter() - began
                if tracer is not None:
                    tracer.active = False
                after = self.calibrate.calibration_slice()
                wall += took
                scaled += took * self.calibrate.REFERENCE_S / (0.5 * (before + after))
                before = after
            scaled_times.append(scaled)
            wall_times.append(wall)
            if self.peak_rss_mb is None:
                self.peak_rss_mb = _peak_rss_mb(self.workload)
            self._check(outputs)
            if tracer is not None and self.workload.name == "cli-oneshot":
                self.import_samples += self.workload.take_traces(tracer)
            if time.perf_counter() - start >= seconds:
                return scaled_times, wall_times

    def _check(self, outputs):
        for op, (output, error) in zip(self.ops, outputs):
            self.attempted += 1
            if error is None:
                try:
                    op.check(output)
                except Exception as exc:  # CheckFailure, or a malformed output
                    error = exc
            if error is None:
                continue
            self.failed += 1
            if not op.fault:
                self.correct = False
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append("%s: %s: %s" % (op.name, type(error).__name__, error))


def _per_layer(tracer, batches, speed, import_s):
    """Per-batch counts, and self times scaled to the reference speed."""
    out = {}
    for name in CALL_LAYERS:
        out[name + ".calls"] = tracer.calls.get(name, 0) / batches
    for name in SELF_LAYERS:
        out[name + ".self_s"] = speed * tracer.self_s.get(name, 0.0) / batches
    out["dixmier.reliable_ratio"] = (tracer.reliable / tracer.computed
                                     if tracer.computed else 0.0)
    work = sum(n ** 4 for n in tracer.kernel_nodes) / batches
    out["kernels.apply_kernel.madds"] = work
    out["kernels.apply_kernel.bytes"] = COMPLEX_BYTES * work
    out["cli.import_s"] = speed * import_s
    return out


def main(argv) -> int:
    args = _args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(1, src)
    mt = None
    import_s = 0.0
    if args.workload != "cli-oneshot":
        began = time.perf_counter()
        import numpy  # noqa: F401
        import magtrace
        import magtrace.cli  # noqa: F401

        import_s = time.perf_counter() - began
        if not os.path.abspath(magtrace.__file__).startswith(src + os.sep):
            print("magtrace was not imported from %s" % src, file=sys.stderr)
            return 2
        mt = magtrace

    import calibrate
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](mt, args.seed, args.workdir)
    try:
        workload.warm_up()
        ops = workload.ops()
        print("READY", flush=True)
        print("SPEED %r" % (calibrate.REFERENCE_S / calibrate.calibration_slice()), flush=True)
        if not args.setup_only:
            _measure(args, mt, workload, ops, calibrate, tracing, import_s)
    finally:
        workload.close()
    return 0


def _measure(args, mt, workload, ops, calibrate, tracing, import_s):
    """Run the phases and print the result line."""
    run = Run(workload, ops, calibrate)
    plain, plain_wall = run.phase(args.seconds / (2.0 if args.trace else 1.0))
    metrics = {"batch_s": statistics.median(plain), "peak_rss_mb": run.peak_rss_mb}
    if args.trace:
        tracer = tracing.Tracer()
        if mt is not None:
            tracer.install()
        else:
            workload.tracer = tracer
        traced, traced_wall = run.phase(args.seconds / 2.0, tracer)
        speed = sum(traced) / sum(traced_wall)
        if run.import_samples:
            import_s = statistics.median(run.import_samples)
        metrics = _per_layer(tracer, len(traced), speed, import_s)
        metrics["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        os.makedirs(os.path.dirname(args.workdir), exist_ok=True)
        tracer.write_spans(args.workdir + ".spans.jsonl")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics, "batches": len(plain),
                      "wall_s": statistics.median(plain_wall), "messages": run.messages}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

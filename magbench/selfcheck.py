"""Show that every check of the benchmark rejects a perturbed answer.

Usage, from the root of a checkout:
    python3 magbench/selfcheck.py [--seed N] [--workload NAME ...]

Each operation of each workload runs once.  Its real output must pass its
check (the known program fault must fail it).  Then every numeric value
and flag of the output is perturbed in turn (numbers by 1e-4 * (1 + |x|),
integers by two, flags negated, exit codes swapped between 0 and 3), and
a CLI report is also re-emitted with one extra space: each perturbed copy
must be rejected.  Report timings (`wall_time_s`) are the only values no
check reads.  Integers move by two because a reliable prefix is ambiguous
by one where a retained value ties the first omitted block exactly (the
hopping source's singular values 1/(m+2) and 1/(m+1) of the next
block).  Exits 1 if any perturbation is accepted.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402

UNCHECKED_KEYS = {"wall_time_s"}


def _bump(x):
    return x + 1e-4 * (1.0 + abs(x))


def perturbations(value):
    """Yield (label, copy) pairs, each with one numeric leaf perturbed."""
    if isinstance(value, (bool, np.bool_)):
        yield "", not value
    elif value is None or isinstance(value, str):
        return
    elif isinstance(value, (int, np.integer)):
        yield "", value + 2
    elif isinstance(value, (float, complex, np.floating, np.complexfloating)):
        yield "", _bump(value)
    elif isinstance(value, np.ndarray):
        if value.size:
            i = int(np.argmax(np.abs(value)))
            copy = value.copy()
            copy.flat[i] = _bump(copy.flat[i])
            yield "[%d]" % i, copy
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            for label, changed in perturbations(item):
                copy = list(value)
                copy[i] = changed
                yield "[%d]%s" % (i, label), type(value)(copy)
    elif isinstance(value, dict):
        for key in sorted(value):
            if key in UNCHECKED_KEYS:
                continue
            for label, changed in perturbations(value[key]):
                yield ".%s%s" % (key, label), {**value, key: changed}
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            for label, changed in perturbations(getattr(value, field.name)):
                yield "." + field.name + label, dataclasses.replace(
                    value, **{field.name: changed})
    else:
        raise TypeError("no perturbation for %r" % type(value))


def cli_perturbations(output):
    code, stdout, stderr = output
    yield "exit code", (3 if code == 0 else 0, stdout, stderr)
    yield "spacing", (code, stdout.replace(": ", ":  ", 1), stderr)
    report = ref.parse_canonical(stdout)
    for label, changed in perturbations(report):
        yield label, (code, ref.canonical_json(changed) + "\n", stderr)


def rejected(check, output):
    try:
        check(output)
    except Exception:  # the worker counts any exception in a check as a failure
        return True
    return False


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    import magtrace

    workdir = os.path.join(ROOT, ".magbench_work", "selfcheck-%d" % os.getpid())
    accepted = 0
    trials = 0
    try:
        for name in args.workload or sorted(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name](magtrace, args.seed, workdir)
            try:
                workload.warm_up()
                accepted, trials = _perturb_all(name, workload, accepted, trials)
            finally:
                workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%d perturbed outputs, %d accepted" % (trials, accepted))
    return 1 if accepted else 0


def _perturb_all(name, workload, accepted, trials):
    for op in workload.ops():
        output = op.run()
        if rejected(op.check, output) != op.fault:
            print("%s %s: real output %s" % (name, op.name, "rejected" if not op.fault
                                             else "accepted despite the fault"))
            accepted += 1
        if op.fault:
            continue
        kinds = cli_perturbations if name == "cli-oneshot" else perturbations
        count = 0
        for label, changed in kinds(output):
            count += 1
            if not rejected(op.check, changed):
                print("%s %s: perturbed %s accepted" % (name, op.name, label))
                accepted += 1
        trials += count
        print("%s %s: %d perturbations" % (name, op.name, count), flush=True)
    return accepted, trials


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

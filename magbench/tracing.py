"""Outside-in tracer for magtrace.

`Tracer.install()` replaces every public function of every imported
magtrace module, at every module attribute that holds it (so names bound
by `from .x import f` are caught too), with a timing wrapper.  It also
wraps `KernelFunction.__call__` as the layer `kernels.kernel_table` and
the four numpy.linalg routines the spectral layer calls (`eig`, `svd`,
`cond`, `norm`) as the layer `linalg`.

Each layer gets a call count and a self time: its own duration minus the
time spent in the wrapped functions it called.  Coarse layers also record
a span (trace id, span id, parent span id, name, start, end).  Per-block
callees (matrix_block, psi, laguerre_poly, hurwitz_zeta, format_float and
linalg) are called thousands of times per job and only add to counters,
never to spans.  Spans stay in memory until `write_spans` at the end of the run.
A recursive call of a function from itself is folded into the outer call.
The program is not changed; the wrappers are only active while
`active` is true.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PER_BLOCK = frozenset({"operators.matrix_block", "basis.psi", "basis.laguerre_poly",
                       "traces.hurwitz_zeta", "serialize.format_float", "linalg"})
LINALG = ("eig", "svd", "cond", "norm")


class _Frame:
    __slots__ = ("name", "span_id", "child_s")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.active = False
        self.trace_id = ""
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.reliable = 0
        self.computed = 0
        self.kernel_nodes = []
        self._stack: list[_Frame] = []
        self._next_span = 0

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap the public functions of every imported magtrace module."""
        import numpy.linalg

        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("magtrace.") and m is not None]
        wrappers = {}
        for module in modules:
            short = module.__name__.split(".", 1)[1]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(short + "." + attr, value))
        for attr in LINALG:
            value = getattr(numpy.linalg, attr)
            wrappers[id(value)] = (value, self._wrap("linalg", value))
        holders = modules + [sys.modules["magtrace"], numpy.linalg]
        for module in holders:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        kernels = sys.modules.get("magtrace.kernels")
        if kernels is not None:
            cls = kernels.KernelFunction
            cls.__call__ = self._wrap("kernels.kernel_table", cls.__call__)

    def _wrap(self, name, fn):
        span = name not in PER_BLOCK
        hook = {"dixmier.collect_spectrum": self._on_spectrum,
                "kernels.apply_kernel": self._on_apply}.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (stack and stack[-1].name == name):
                return fn(*args, **kwargs)
            span_id = -1
            if span:
                span_id = self._next_span
                self._next_span += 1
            frame = _Frame(name, span_id)
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame.child_s
                if parent is not None:
                    parent.child_s += duration
                if span:
                    self.spans.append((self.trace_id, span_id,
                                       parent.span_id if parent is not None else None,
                                       name, start, end))
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _on_spectrum(self, spectrum):
        reliable = spectrum.reliable if spectrum.reliable is not None else len(spectrum)
        self.reliable += min(int(reliable), len(spectrum))
        self.computed += len(spectrum)

    def _on_apply(self, result):
        self.kernel_nodes.append(int(result.spec.nodes))

    # -- results -------------------------------------------------------

    def dump(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "spans": self.spans,
                "reliable": self.reliable, "computed": self.computed,
                "kernel_nodes": self.kernel_nodes}

    def merge(self, data: dict, trace_id: str):
        """Add a dump taken in another process (a traced CLI child)."""
        for name, count in data["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + count
        for name, value in data["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value
        self.spans.extend([trace_id] + list(span[1:]) for span in data["spans"])
        self.reliable += data["reliable"]
        self.computed += data["computed"]
        self.kernel_nodes.extend(data["kernel_nodes"])

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for trace_id, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({"trace": trace_id, "span": span_id,
                                         "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")

"""The three workloads: their inputs, their operations and the checks.

A workload is built from a seed.  The seed changes values only
(coefficients, shifts, test-function nodes, evaluation points and
translations); the list of operations, every truncation and every grid
size are fixed, so each batch does the same amount of work.  Each
operation returns the program's output, and its check compares that
output with `reference` or with a property the method must have.
Tolerances and where they come from are listed in README.md.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import types

import numpy as np

import reference as ref
from reference import close, require

LAMBDAS = (-0.5, 0.0, 2.0)
HOP_CHECKPOINTS = (128, 256, 512, 1024, 2048, 4000)


class Op:
    """One operation of a batch.  `fault` marks the one known program fault."""

    def __init__(self, name, run, check, fault=False):
        self.name = name
        self.run = run
        self.check = check
        self.fault = fault


def _diagonal_source(rng, support):
    """Criterion 5's shape: real weights U(0.25, 1) on a fixed diagonal support."""
    return {(n, n): float(w) for n, w in zip(support, rng.uniform(0.25, 1.0, len(support)))}


def _hermitian(rng, size):
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return (a + a.conj().T) / 2.0


def _check_fit(table, params, raw, what, accelerated=False, scale=0.0):
    """A log_inverse table: checkpoints, gamma column, limit and residual.

    `scale` bounds the size of the summed terms where the column cancels.
    """
    require(table.model == "log_inverse" and (table.accelerated is not None) == accelerated,
            "%s: model %s" % (what, table.model))
    require(list(table.params) == [float(n) for n in params],
            "%s: checkpoints %s, expected %s" % (what, table.params, list(params)))
    scale = max(scale, float(np.max(np.abs(raw))))
    close(table.raw, raw, 1e-9, 1e-12 * scale, what + " gamma column")
    limit, _, rms = ref.log_inverse_fit(params, raw)
    close(table.extrapolated, limit, 1e-9, 1e-9 * scale, what + " extrapolated limit")
    close(table.residual, rms, 1e-6, 1e-12 * scale, what + " fit residual")
    return limit


def _check_richardson(table, xs, raw, what):
    """A richardson_x table: x grid, raw column, limit and order-reduced residual."""
    require(table.model == "richardson_x" and table.accelerated is None,
            "%s: model %s" % (what, table.model))
    require(list(table.params) == list(xs), "%s: x grid %s" % (what, table.params))
    scale = float(np.max(np.abs(raw)))
    close(table.raw, raw, 1e-9, 0.0, what + " raw column")
    limit = ref.lagrange_zero(xs, raw)
    close(table.extrapolated, limit, 1e-8, 1e-10 * scale, what + " extrapolation")
    close(table.residual, abs(limit - ref.lagrange_zero(xs[:-1], raw[:-1])), 1e-6,
          1e-10 * scale, what + " residual")
    return limit


def _check_estimate(spectrum, table, expected_values, threshold, kind, rtol, what):
    """Spectrum, reliable prefix, ladder, gamma column and fit against reference."""
    ref.same_spectrum(spectrum.values, expected_values, rtol, what + " spectrum")
    ref.check_reliable(spectrum.reliable, expected_values, threshold, what)
    ladder = ref.deep_ladder(spectrum.reliable, len(expected_values))
    return _check_fit(table, ladder, ref.gammas(expected_values, ladder, kind), what)


# -- spectra -------------------------------------------------------------------


class Spectra:
    """Dixmier estimation through library calls, shaped like criteria 4, 5, 7, 10."""

    name = "spectra"
    M_MAX = 8191
    DOS_M_MAX = 32767
    SHELLS = 2000

    def __init__(self, mt, seed, workdir):
        self.mt = mt
        rng = np.random.default_rng([seed, 11])
        self.diag = _diagonal_source(rng, (0, 1, 3, 5))
        self.lam, self.lam2 = (float(LAMBDAS[i]) for i in rng.integers(0, 3, size=2))
        self.dense = _hermitian(rng, 6)
        self.hop = complex(rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        self.hop_lam = float(LAMBDAS[rng.integers(0, 3)])
        inner = np.sort(rng.uniform(0.6, 10.9, size=3))
        self.dos_nodes = ((float(rng.uniform(0.01, 0.45)), 0.0),
                          *((float(e), float(v)) for e, v in zip(inner, rng.uniform(-1, 1, 3))),
                          (float(rng.uniform(11.0, 11.45)), 0.0))
        self.shell_lam = float(LAMBDAS[rng.integers(0, 3)])

    def close(self):
        pass

    def warm_up(self):
        source = self.mt.CoefficientOperator({(0, 0): 1.0, (1, 2): 0.5, (2, 1): 0.5})
        for kind in ("eigen", "singular"):
            self.mt.collect_spectrum(self.mt.weighted_product(source, "split", 0.0),
                                     15, 3, kind)

    def ops(self):
        mt = self.mt
        diag_op = mt.CoefficientOperator(self.diag, "Itau")
        dense_op = mt.CoefficientOperator(
            {(j, k): complex(self.dense[j, k]) for j in range(6) for k in range(6)}, "L1")
        hop_op = mt.CoefficientOperator({(0, 1): self.hop, (1, 0): self.hop.conjugate()})
        out = []
        for form, kind in (("left", "eigen"), ("right", "eigen"), ("split", "eigen"),
                           ("split", "singular")):
            out.append(self._diag_op(diag_op, form, kind))
        out.append(self._dense_op(dense_op, "split", "eigen"))
        out.append(self._dense_op(dense_op, "left", "singular"))
        for kind in ("eigen", "singular"):
            out.append(self._hop_op(hop_op, kind))
        out.append(self._dos_op())
        out.append(self._shell_op())
        return out

    def _estimate(self, source, form, kind, m_max, n_max):
        mt = self.mt
        product = mt.weighted_product(source, form, self.lam, self.lam2, s=1.0)
        spectrum = mt.collect_spectrum(product, m_max, n_max, kind)
        ladder = mt.checkpoint_ladder(spectrum, points=6, minimum=len(spectrum))
        return spectrum, mt.dixmier_estimate(spectrum, ladder)

    def _diag_op(self, source, form, kind):
        def run():
            return self._estimate(source, form, kind, self.M_MAX, 6)

        def check(output):
            spectrum, table = output
            values = ref.diagonal_spectrum(self.diag, form, self.lam, self.lam2, self.M_MAX, 6)
            if kind == "singular":
                values = np.abs(values)
            threshold = ref.diagonal_frontier(self.diag, form, self.lam, self.lam2,
                                              self.M_MAX, 6)
            limit = _check_estimate(spectrum, table, values, threshold, kind, 1e-12,
                                    "diagonal %s %s" % (form, kind))
            close(limit.real, ref.diagonal_sum(self.diag).real, 0.0, 1e-2,
                  "diagonal %s %s Dixmier limit" % (form, kind))

        return Op("diag-%s-%s" % (form, kind), run, check)

    def _dense_op(self, source, form, kind):
        def run():
            return self._estimate(source, form, kind, self.M_MAX, 6)

        def check(output):
            spectrum, table = output
            values = ref.dense_spectrum(self.dense, form, self.lam, self.lam2, self.M_MAX, kind)
            threshold = ref.dense_frontier(self.dense, form, self.lam, self.lam2, self.M_MAX)
            limit = _check_estimate(spectrum, table, values, threshold, kind, 1e-10,
                                    "dense %s %s" % (form, kind))
            norm = ref.trace_norm(self.dense)
            target = norm if kind == "singular" else float(np.trace(self.dense).real)
            close(limit.real, target, 0.0, 1e-2 * norm, "dense %s %s Dixmier limit"
                  % (form, kind))

        return Op("dense6-%s-%s" % (form, kind), run, check)

    def _hop_op(self, source, kind):
        mt = self.mt

        def run():
            product = mt.weighted_product(source, "left", self.hop_lam, None, s=1.0)
            spectrum = mt.collect_spectrum(product, 2000, 2, kind)
            return spectrum, mt.dixmier_estimate(spectrum, HOP_CHECKPOINTS)

        def check(output):
            spectrum, table = output
            eigen, singular = ref.hopping_spectra(self.hop, self.hop_lam, 2000)
            values = eigen if kind == "eigen" else singular
            ref.same_spectrum(spectrum.values, values, 1e-12, "hopping %s spectrum" % kind)
            frontier = abs(self.hop) / (2001.0 + 1.0 + self.hop_lam)
            ref.check_reliable(spectrum.reliable, values, frontier, "hopping " + kind)
            limit = _check_fit(table, HOP_CHECKPOINTS, ref.gammas(values, HOP_CHECKPOINTS, kind),
                               "hopping " + kind, scale=2.0 * abs(self.hop))
            if kind == "eigen":
                close(abs(limit), 0.0, 0.0, 1e-6, "hopping eigen limit (pairs cancel)")
            else:
                close(limit.real, 2.0 * abs(self.hop), 2e-2, 0.0, "hopping singular limit")

        return Op("hopping-" + kind, run, check)

    def _dos_op(self):
        mt = self.mt

        def run():
            fn = mt.CompactTestFunction(nodes=self.dos_nodes)
            return mt.dixmier_dos_check(mt.landau_hamiltonian(12), fn, mt.make_config(1.0),
                                        m_max=self.DOS_M_MAX)

        def check(output):
            pairing = ref.dos_pairing(self.dos_nodes, 12)
            close(output.measure_value, pairing, 1e-12, 1e-15, "DOS pairing")
            diag = {(j, j): ref.piecewise_linear(self.dos_nodes, j + 0.5) for j in range(11)}
            values = ref.diagonal_spectrum(diag, "left", 0.0, 0.0, self.DOS_M_MAX, 11)
            threshold = ref.diagonal_frontier(diag, "left", 0.0, 0.0, self.DOS_M_MAX, 11)
            ladder = ref.deep_ladder(ref.reliable_count(values, threshold), len(values))
            limit = _check_fit(output.table, ladder, ref.gammas(values, ladder, "eigen"),
                               "Dixmier DOS")
            close(output.dixmier_value, limit.real, 1e-9, 1e-12, "Dixmier DOS value")
            close(limit.real, pairing, 0.0, 2e-2, "Dixmier DOS value against the pairing")

        return Op("landau-dos", run, check)

    def _shell_op(self):
        mt = self.mt

        def run():
            spectrum = mt.shell_spectrum(mt.DiagonalWeight.q_power(2.0, self.shell_lam),
                                         self.SHELLS)
            ladder = mt.shell_checkpoints(self.SHELLS, points=6, min_shell=512)
            return (mt.dixmier_estimate(spectrum, ladder),
                    mt.tauberian_residue(spectrum, (1e-1, 1e-2, 1e-3)))

        def check(output):
            from scipy.special import zeta

            estimate, tauberian = output
            lam = self.shell_lam
            e = np.arange(1, self.SHELLS + 1, dtype=float)
            shells = np.unique(np.geomspace(512, self.SHELLS, 6).astype(int))
            ladder = [int(k) * (int(k) + 1) // 2 for k in shells]
            sums = np.cumsum(e * (e + lam) ** -2.0)[shells - 1]
            limit = _check_fit(estimate, ladder, sums / np.log(ladder), "shell")
            close(limit.real, 0.5, 0.0, 1e-2, "shell Dixmier value")
            xs = [1e-1, 1e-2, 1e-3]
            q = self.SHELLS + 1.0 + lam
            raw = [x * (float((e * (e + lam) ** (-2.0 - 2.0 * x)).sum())
                        + zeta(1.0 + 2.0 * x, q) - lam * zeta(2.0 + 2.0 * x, q)) for x in xs]
            residue = _check_richardson(tauberian, xs, raw, "Tauberian")
            close(residue.real, limit.real, 0.0, 1e-2,
                  "Tauberian residue against the Dixmier value")

        return Op("shell-q2", run, check)


# -- kernel grid -----------------------------------------------------------------


class KernelGrid:
    """Twisted convolution on grids of 64 to 128 nodes, shaped like criterion 8."""

    name = "kernel-grid"
    EXTENT = 9.0
    APPLY = ((64, (1, 0)), (96, (2, 1)), (112, (0, 2)))
    COMMUTANT_NODES = 64
    SUPPORT = ((0, 1), (2, 0), (1, 1), (1, 2))

    def __init__(self, mt, seed, workdir):
        self.mt = mt
        rng = np.random.default_rng([seed, 22])
        self.action = {key: complex(*rng.normal(size=2)) for key in self.SUPPORT}
        self.shifts = [tuple(float(v) for v in rng.uniform(-1.5, 1.5, size=2))
                       for _ in range(3)]

    def close(self):
        pass

    def warm_up(self):
        mt = self.mt
        cfg = mt.make_config(1.0)
        phi = mt.sample_basis(0, 0, mt.GridSpec(extent=self.EXTENT, nodes=16), cfg)
        mt.commutant_residual(mt.CoefficientOperator({(0, 0): 1.0}), (0.5, 0.5), phi, cfg)

    def ops(self):
        out = [self._apply_op(nodes, nm) for nodes, nm in self.APPLY]
        out += [self._commutant_op(shift) for shift in self.shifts]
        return out

    def _apply_op(self, nodes, nm):
        mt = self.mt

        def run():
            cfg = mt.make_config(1.0)
            phi = mt.sample_basis(nm[0], nm[1], mt.GridSpec(extent=self.EXTENT, nodes=nodes), cfg)
            return mt.apply_kernel(mt.CoefficientOperator(self.action), phi, cfg)

        def check(output):
            axis = np.linspace(-self.EXTENT, self.EXTENT, nodes)
            x1, x2 = axis[:, None], axis[None, :]
            expected = np.zeros((nodes, nodes), dtype=complex)
            for (j, k), v in self.action.items():
                if j == nm[0]:
                    expected = expected + v * ref.psi(k, nm[1], x1, x2)
            require(output.spec == mt.GridSpec(extent=self.EXTENT, nodes=nodes),
                    "grid changed: %s" % (output.spec,))
            close(output.values, expected, 0.0, 1e-6, "kernel action on psi_%d,%d at %d nodes"
                  % (nm[0], nm[1], nodes))

        return Op("apply-%d" % nodes, run, check)

    def _commutant_op(self, shift):
        mt = self.mt

        def run():
            cfg = mt.make_config(1.0)
            spec = mt.GridSpec(extent=self.EXTENT, nodes=self.COMMUTANT_NODES)
            phi = mt.sample_basis(0, 0, spec, cfg)
            return mt.commutant_residual(mt.CoefficientOperator(self.action), shift, phi, cfg)

        def check(output):
            require(math.isfinite(output) and 0.0 <= output <= 1e-5,
                    "commutant residual %r at shift %s exceeds 1e-5" % (output, shift))

        return Op("commutant-%.3f,%.3f" % shift, run, check)


# -- one-shot CLI ----------------------------------------------------------------------


BUDGET_SHELLS = {"full": 512, "quick": 128}
X_GRID = (1e-1, 1e-2, 1e-3)
N_GRID = {"full": (100, 1000, 10000), "quick": (100, 1000)}
ORDERED_SHELLS = {"full": (250, 500, 1000, 2000), "quick": (60, 125, 250, 500)}
FAR_SOURCE = {(0, 0): 1.0, (5000, 5000): 1.0}


def _write_operator(path, entries, declared="L1"):
    doc = {"class": declared,
           "entries": [{"j": j, "k": k, "re": complex(v).real, "im": complex(v).imag}
                       for (j, k), v in sorted(entries.items())]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _table(report):
    """A report's table as an object with the library's field names."""
    table = report["table"]
    require(set(table) == {"accelerated", "converged", "extrapolated", "model", "params",
                           "raw", "residual"}, "table keys %s" % sorted(table))
    out = types.SimpleNamespace(
        model=table["model"], params=table["params"],
        raw=[ref.as_complex(v) for v in table["raw"]],
        accelerated=(None if table["accelerated"] is None
                     else [ref.as_complex(v) for v in table["accelerated"]]),
        extrapolated=ref.as_complex(table["extrapolated"]), residual=table["residual"],
        converged=table["converged"])
    require(out.converged is ref.converged_flag(out.residual, out.extrapolated),
            "converged flag disagrees with the residual rule")
    return out


def _exit_code(code, converged):
    require(code == (0 if converged else 3), "exit code %d with converged=%s"
            % (code, converged))


class CliOneshot:
    """Every command in a fresh `python -m magtrace.cli` process."""

    name = "cli-oneshot"

    def __init__(self, mt, seed, workdir):
        self.workdir = workdir
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.tracer = None
        self.trace_files = []
        self.spawner = None
        self.children_peak_mb = 0.0
        rng = np.random.default_rng([seed, 33])
        self.src = _diagonal_source(rng, (0, 2, 3, 5))
        self.dense = _hermitian(rng, 16)
        self.kop = {key: complex(*rng.normal(size=2)) for key in ((0, 1), (1, 0), (2, 2), (1, 3))}
        self.point = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        self.radius = float(rng.uniform(0.5, 25.0))
        peak = float(rng.uniform(0.2, 2.4))
        self.bump = ((0.0, 0.0), (peak, float(rng.uniform(0.5, 1.5))),
                     (float(rng.uniform(2.6, 3.0)), 0.0))
        self.eps = float(rng.uniform(0.6, 10.9))
        self.paths = {name: os.path.join(workdir, name + ".json")
                      for name in ("src", "dense16", "kop", "far", "bump")}

    def write_inputs(self):
        os.makedirs(self.workdir, exist_ok=True)
        _write_operator(self.paths["src"], self.src, "Itau")
        _write_operator(self.paths["dense16"],
                        {(j, k): self.dense[j, k] for j in range(16) for k in range(16)})
        _write_operator(self.paths["kop"], self.kop)
        _write_operator(self.paths["far"], FAR_SOURCE)
        with open(self.paths["bump"], "w", encoding="utf-8") as handle:
            json.dump({"nodes": [list(node) for node in self.bump]}, handle)

    def warm_up(self):
        self.write_inputs()
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(self.root, "magbench", "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        code, _, stderr = self._invoke(["trace", "diag", "--op", self.paths["src"]], None)
        require(code == 0, "warm-up CLI call failed: %s" % stderr.strip()[-300:])

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        return env

    def _invoke(self, argv, trace_file):
        env = self._env()
        if trace_file is None:
            cmd = [sys.executable, "-m", "magtrace.cli"] + argv
        else:
            cmd = [sys.executable, os.path.join(self.root, "magbench", "cli_boot.py")] + argv
            env["MAGBENCH_TRACE_OUT"] = trace_file
        self.spawner.stdin.write(json.dumps({"cmd": cmd, "env": env, "cwd": self.root}) + "\n")
        self.spawner.stdin.flush()
        done = json.loads(self.spawner.stdout.readline())
        self.children_peak_mb = done["children_peak_kb"] / 1024.0
        return done["code"], done["stdout"], done["stderr"]

    def close(self):
        """Stop the spawner and wait for it."""
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait(timeout=60)
            self.spawner.stdout.close()
            self.spawner = None

    def ops(self):
        p = self.paths
        specs = [
            ("compare-full", ["compare", "--op", p["src"]], self._check_compare("full")),
            ("compare-quick", ["--budget-profile", "quick", "compare", "--op", p["src"]],
             self._check_compare("quick")),
            ("trace-residue", ["trace", "residue", "--op", p["src"]],
             self._check_residue(self.src)),
            ("trace-residue-dense16", ["trace", "residue", "--op", p["dense16"]],
             self._check_residue({(n, n): self.dense[n, n] for n in range(16)})),
            ("trace-shell", ["trace", "shell", "--op", p["src"]], self._check_shell),
            ("trace-ordered", ["trace", "ordered", "--op", p["src"]], self._check_ordered),
            ("trace-shell-far-quick", ["--budget-profile", "quick", "trace", "shell",
                                       "--op", p["far"]], self._check_far),
            ("dixmier-spectrum-dense16", ["dixmier", "spectrum", "--op", p["dense16"]],
             self._check_dense_spectrum),
            ("dixmier-estimate-dense16", ["dixmier", "estimate", "--op", p["dense16"]],
             self._check_dense_estimate),
            ("dixmier-tauberian", ["dixmier", "tauberian", "--op", p["src"]],
             self._check_tauberian),
            ("dos-approx", ["dos", "approx", "--eps", repr(self.eps)], self._check_dos_approx),
            ("dos-dixmier", ["dos", "dixmier", "--f", p["bump"]], self._check_dos_dixmier),
            ("kernel-eval", ["kernel", "eval", "--op", p["kop"], "--x1", repr(self.point[0]),
                             "--x2", repr(self.point[1])], self._check_kernel_eval),
            ("kernel-folner", ["kernel", "folner", "--op", p["src"], "--R", repr(self.radius)],
             self._check_folner),
        ]
        return [self._op(name, argv, check, fault=(name == "trace-shell-far-quick"))
                for name, argv, check in specs]

    def _op(self, name, argv, check, fault):
        def run():
            trace_file = None
            if self.tracer is not None:
                trace_file = os.path.join(self.workdir, "trace-%d.json" % len(self.trace_files))
                self.trace_files.append((self.tracer.trace_id, trace_file))
            return self._invoke(argv, trace_file)

        def checked(output):
            code, stdout, stderr = output
            require(code in (0, 3), "exit %d: %s" % (code, stderr.strip()[-300:]))
            report = ref.parse_canonical(stdout)
            require(report.get("format_version") == "1", "format_version changed")
            require(report["config"]["ell"] == 1, "ell echoed wrongly")
            require(isinstance(report.get("wall_time_s"), (int, float)), "wall_time_s missing")
            check(code, report)

        return Op(name, run, checked, fault)

    # -- checks -----------------------------------------------------------

    @staticmethod
    def _residue_raw(diag, xs):
        from scipy.special import zeta

        return [x * sum(v * zeta(1.0 + x, n + 1.0) for (n, _), v in sorted(diag.items()))
                for x in xs]

    def _shell_raw(self, tops):
        """Shell-average sums over log N, and prefix sums of the diagonal."""
        top = max(tops)
        prefix = np.cumsum([0.0] + [self.src.get((n, n), 0.0) for n in range(top)])
        sums = np.cumsum(prefix[1:] / np.arange(1, top + 1))
        return [sums[n - 1] / math.log(n) for n in tops], prefix

    def _ordered_raw(self, shells):
        raw, _ = self._shell_raw(shells)
        states = [e * (e + 1) // 2 for e in shells]
        return [r * math.log(e) / math.log(n) for r, e, n in zip(raw, shells, states)], states

    def _check_compare(self, profile):
        def check(code, report):
            tau = ref.diagonal_sum(self.src)
            l1 = ref.l1_of_diagonal(self.src)
            rows = report["engines"]
            require(set(rows) == {"diagonal", "residue", "shell", "ordered", "dixmier"},
                    "engines %s" % sorted(rows))
            close(ref.as_complex(rows["diagonal"]["value"]), tau, 1e-15, 0.0, "diagonal engine")
            xs = sorted(X_GRID, reverse=True)
            raw = self._residue_raw(self.src, xs)
            residue = ref.lagrange_zero(xs, raw)
            residue_rms = abs(residue - ref.lagrange_zero(xs[:-1], raw[:-1]))
            close(ref.as_complex(rows["residue"]["extrapolated"]), residue, 1e-8, 1e-12,
                  "residue engine")
            close(rows["residue"]["residual"], residue_rms, 1e-6, 1e-12, "residue residual")
            close(residue, tau, 0.0, 1e-3 * l1, "residue engine against the trace")

            shell_raw, prefix = self._shell_raw(N_GRID[profile])
            shell, _, shell_rms = ref.log_inverse_fit(N_GRID[profile], shell_raw)
            close(ref.as_complex(rows["shell"]["extrapolated"]), shell, 1e-9, 0.0, "shell engine")
            close(ref.as_complex(rows["shell"]["accelerated"]), prefix[N_GRID[profile][-1]],
                  1e-14, 0.0, "shell accelerated value")
            close(prefix[N_GRID[profile][-1]], tau, 1e-14, 0.0, "shell value against the trace")

            ordered_raw, states = self._ordered_raw(ORDERED_SHELLS[profile])
            ordered, _, ordered_rms = ref.log_inverse_fit(states, ordered_raw)
            close(ref.as_complex(rows["ordered"]["extrapolated"]), ordered, 1e-9, 0.0,
                  "ordered engine")
            close(ref.as_complex(rows["ordered"]["doubled"]), 2.0 * ordered, 1e-9, 0.0,
                  "ordered doubled value")
            close(2.0 * ordered, tau, 0.0, 5e-2 * l1, "ordered engine against the trace")

            shells = BUDGET_SHELLS[profile]
            values = ref.diagonal_spectrum(self.src, "left", 0.0, 0.0, shells - 1, 6).real
            threshold = ref.diagonal_frontier(self.src, "left", 0.0, 0.0, shells - 1, 6)
            ladder = ref.deep_ladder(ref.reliable_count(values, threshold), len(values))
            dixmier, _, dixmier_rms = ref.log_inverse_fit(ladder,
                                                          ref.gammas(values, ladder, "eigen"))
            row = rows["dixmier"]
            require(row["kind"] == "eigen", "dixmier engine kind %s" % row["kind"])
            close(ref.as_complex(row["extrapolated"]), dixmier, 1e-9, 0.0, "dixmier engine")
            close(row["residual"], dixmier_rms, 1e-6, 1e-14, "dixmier engine residual")
            bound = 0.1 if profile == "full" else 0.3
            close(dixmier, tau, 0.0, bound * l1, "dixmier engine against the trace")

            gaps = {"diagonal": 0.0, "residue": abs(residue - tau),
                    "shell": abs(prefix[N_GRID[profile][-1]] - tau),
                    "ordered": abs(2.0 * ordered - tau), "dixmier": abs(dixmier - tau)}
            for name, gap in gaps.items():
                close(rows[name]["gap"], gap, 1e-6, 1e-12, name + " gap")
            close(report["max_gap"], max(gaps.values()), 1e-6, 1e-12, "max_gap")
            require(report["budget"] == {"name": profile, "shells": shells, "x_grid": list(X_GRID),
                                         "N_grid": list(N_GRID[profile])},
                    "budget echoed wrongly: %s" % report["budget"])
            _exit_code(code, ref.converged_flag(residue_rms, residue)
                       and ref.converged_flag(shell_rms, shell)
                       and ref.converged_flag(ordered_rms, ordered)
                       and ref.converged_flag(dixmier_rms, dixmier))
        return check

    def _check_residue(self, diag):
        def check(code, report):
            require(report["lambda"] == 0, "lambda echoed wrongly")
            table = _table(report)
            xs = sorted(X_GRID, reverse=True)
            limit = _check_richardson(table, xs, self._residue_raw(diag, xs), "residue")
            close(limit, ref.diagonal_sum(diag), 0.0, 1e-3 * ref.l1_of_diagonal(diag),
                  "residue limit against the trace")
            _exit_code(code, table.converged)
        return check

    def _check_shell(self, code, report):
        table = _table(report)
        tops = N_GRID["full"]
        raw, prefix = self._shell_raw(tops)
        _check_fit(table, tops, raw, "shell", accelerated=True)
        close(table.accelerated, [prefix[n] for n in tops], 1e-14, 0.0,
              "shell accelerated column")
        close(table.accelerated[-1], ref.diagonal_sum(self.src), 1e-14, 0.0,
              "shell accelerated value against the trace")
        _exit_code(code, table.converged)

    def _check_ordered(self, code, report):
        table = _table(report)
        raw, states = self._ordered_raw(ORDERED_SHELLS["full"])
        require(table.params == [float(n - 1) for n in states], "ordered params %s"
                % table.params)
        table.params = [p + 1.0 for p in table.params]
        limit = _check_fit(table, states, raw, "ordered")
        close(ref.as_complex(report["doubled"]), 2.0 * limit, 1e-12, 0.0, "ordered doubled")
        close(2.0 * limit, ref.diagonal_sum(self.src), 0.0,
              5e-2 * ref.l1_of_diagonal(self.src), "ordered doubled limit against the trace")
        _exit_code(code, table.converged)

    def _check_far(self, code, report):
        if code == 3:
            return
        close(_table(report).extrapolated, 2.0, 0.0, 1e-2,
              "quick shell trace of {(0,0): 1, (5000,5000): 1} reported with exit %d" % code)

    def _dense_reference(self):
        values = ref.dense_spectrum(self.dense, "left", 0.0, 0.0, 511, "singular")
        threshold = ref.dense_frontier(self.dense, "left", 0.0, 0.0, 511)
        return values, ref.reliable_count(values, threshold)

    def _check_dense_spectrum(self, code, report):
        values, reliable = self._dense_reference()
        require(report["kind"] == "singular" and report["shells"] == 512
                and report["count"] == values.size, "dense spectrum shape")
        require(report["reliable"] == reliable, "dense reliable prefix %s, expected %d"
                % (report["reliable"], reliable))
        close([ref.as_complex(v) for v in report["head"]], ref.sorted_desc(values)[:16],
              1e-10, 0.0, "dense spectrum head")
        _exit_code(code, True)

    def _check_dense_estimate(self, code, report):
        values, reliable = self._dense_reference()
        require(report["kind"] == "singular" and report["shells"] == 512, "dense estimate shape")
        table = _table(report)
        ladder = ref.deep_ladder(reliable, values.size)
        limit = _check_fit(table, ladder, ref.gammas(values, ladder, "singular"), "dense")
        close(limit.real, ref.trace_norm(self.dense), 0.25, 0.0,
              "dense estimate against the trace norm")
        _exit_code(code, table.converged)

    def _check_tauberian(self, code, report):
        require(report["shells"] == 512, "tauberian shells %s" % report["shells"])
        table = _table(report)
        xs = sorted(X_GRID, reverse=True)
        values = np.abs(ref.diagonal_spectrum(self.src, "left", 0.0, 0.0, 511, 6))
        values = values[values > 0.0]
        raw = [x * float((values ** (1.0 + x)).sum()) for x in xs]
        _check_richardson(table, xs, raw, "tauberian")
        _exit_code(code, table.converged)

    def _check_dos_approx(self, code, report):
        close(report["eps"], self.eps, 0.0, 0.0, "eps echoed")
        table = _table(report)
        tops = N_GRID["full"]
        exact = ref.idos(self.eps)
        limit = _check_fit(table, tops, ref.shell_idos_raw(self.eps, tops), "IDOS",
                           accelerated=True)
        close(table.accelerated, [exact] * len(tops), 1e-14, 0.0, "IDOS accelerated column")
        close(limit.real, exact, 1e-2, 0.0, "IDOS shell limit against 1/pi-type value")
        _exit_code(code, table.converged)

    def _check_dos_dixmier(self, code, report):
        pairing = ref.dos_pairing(self.bump, 64)
        close(report["measure_value"], pairing, 1e-12, 1e-15, "DOS pairing")
        table = _table(report)
        diag = {(j, j): ref.piecewise_linear(self.bump, j + 0.5) for j in range(3)}
        values = ref.diagonal_spectrum(diag, "left", 0.0, 0.0, 4 * 512 - 1, 3).real
        threshold = ref.diagonal_frontier(diag, "left", 0.0, 0.0, 4 * 512 - 1, 3)
        ladder = ref.deep_ladder(ref.reliable_count(values, threshold), values.size)
        limit = _check_fit(table, ladder, ref.gammas(values, ladder, "eigen"), "Dixmier DOS")
        close(report["dixmier_value"], limit.real, 1e-9, 0.0, "Dixmier DOS value")
        close(limit.real, pairing, 2e-2, 0.0, "Dixmier DOS value against the pairing")
        close(report["gap"], abs(limit.real - pairing), 1e-6, 1e-12, "DOS gap")
        _exit_code(code, table.converged)

    def _check_kernel_eval(self, code, report):
        expected = complex(ref.kernel_value(self.kop, *self.point))
        scale = sum(abs(v) for v in self.kop.values())
        close(ref.as_complex(report["value"]), expected, 1e-10, 1e-13 * scale, "kernel value")
        _exit_code(code, True)

    def _check_folner(self, code, report):
        close(report["radius"], self.radius, 0.0, 0.0, "Folner radius")
        close(ref.as_complex(report["value"]), ref.diagonal_sum(self.src), 0.0, 1e-10,
              "Folner box trace")
        _exit_code(code, True)

    def take_traces(self, tracer):
        """Merge the dumps that traced children wrote during the last batch."""
        merged = []
        for trace_id, path in self.trace_files:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            tracer.merge(data, trace_id)
            merged.append(data["import_s"])
            os.remove(path)
        self.trace_files = []
        return merged


WORKLOADS = {cls.name: cls for cls in (Spectra, KernelGrid, CliOneshot)}

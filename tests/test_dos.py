"""IDOS and DOS of the Landau Hamiltonian."""

import math
import struct

import numpy as np
import pytest

from magtrace import (
    CompactTestFunction,
    DomainError,
    RangeError,
    dixmier_dos_check,
    dos_measure,
    functional_calculus,
    idos,
    idos_shell_approx,
    landau_hamiltonian,
    make_config,
    spectral_formula_check,
    spectral_projection,
    tau_diagonal,
    tau_shell,
)

BUMP = CompactTestFunction(nodes=((0.0, 0.0), (1.0, 1.0), (2.2, 0.0)))


def test_landau_hamiltonian_levels(cfg):
    op = landau_hamiltonian(5)
    assert op.truncation == 5
    assert op.tail_inf == 5.5
    assert [e for e, _ in dos_measure(op, cfg).atoms] == [0.5, 1.5, 2.5, 3.5, 4.5]


def test_landau_hamiltonian_validation():
    # the truncation is an integer of at least 1: no float, string or boolean
    for bad in (0, -2, 2.5, 3.0, "3", True, None):
        with pytest.raises(DomainError):
            landau_hamiltonian(bad)
    op = landau_hamiltonian(np.int64(3))
    assert type(op.truncation) is int and op == landau_hamiltonian(3)


def test_spectral_projection_counts_levels():
    op = landau_hamiltonian(5)
    assert len(spectral_projection(op, 1.7).entries) == 2
    # the threshold convention includes a level equal to eps
    assert len(spectral_projection(op, 1.5).entries) == 2
    assert len(spectral_projection(op, 1.4999).entries) == 1
    assert spectral_projection(op, 0.1).entries == {}
    assert spectral_projection(op, 2.0).declared_class == "L1"


def test_spectral_projection_domain():
    op = landau_hamiltonian(5)
    with pytest.raises(DomainError):
        spectral_projection(op, math.inf)
    with pytest.raises(RangeError):
        spectral_projection(op, 5.5)


def test_idos_of_landau_hamiltonian(cfg):
    op = landau_hamiltonian(40)
    assert idos(op, 2.0, cfg) == pytest.approx(1.0 / math.pi, rel=1e-14, abs=0.0)
    assert idos(op, 0.4, cfg) == 0.0
    assert idos(op, 10.0, cfg) == pytest.approx(10.0 / (2.0 * math.pi), rel=1e-14, abs=0.0)


def test_idos_scales_with_length():
    wide = make_config(2.0)
    op = landau_hamiltonian(40)
    assert idos(op, 2.0, wide) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14, abs=0.0)


def test_dos_measure_atoms(cfg):
    op = landau_hamiltonian(3)
    measure = dos_measure(op, cfg)
    assert [e for e, _ in measure.atoms] == [0.5, 1.5, 2.5]
    for _, w in measure.atoms:
        assert w == pytest.approx(cfg.idos_scale, rel=1e-15, abs=0.0)


def mass(measure, a, b):
    """Measure of the half-open interval (a, b], summed over the atoms."""
    return math.fsum(w for e, w in measure.atoms if a < e <= b)


def test_dos_mass_matches_idos_difference(cfg):
    op = landau_hamiltonian(12)
    measure = dos_measure(op, cfg)
    for a, b in [(0.0, 2.0), (1.5, 6.25), (3.0, 3.5)]:
        assert mass(measure, a, b) == pytest.approx(
            idos(op, b, cfg) - idos(op, a, cfg), abs=1e-15)


def test_compact_test_function_interpolates():
    fn = CompactTestFunction(nodes=((0.0, 0.0), (1.0, 2.0), (3.0, 0.0)))
    assert fn.support == (0.0, 3.0)
    assert fn(0.5) == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert fn(1.0) == pytest.approx(2.0, rel=1e-12, abs=0.0)
    assert fn(2.0) == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert fn(-1.0) == 0.0
    assert fn(3.0) == 0.0
    assert fn(4.0) == 0.0


def _bits(x):
    return struct.pack("<d", x)


def test_compact_test_function_matches_numpy_interp_bit_for_bit():
    # the plain-Python interpolation repeats np.interp's arithmetic: on the
    # nodes, next to them, between them and past the ends, signed zeros
    # and flat segments included, compared as the bytes of each double
    rng = np.random.default_rng(14)
    for trial in range(40):
        count = int(rng.integers(2, 12))
        xs = np.cumsum(rng.uniform(0.01, 2.0, size=count)) - 4.0
        ys = rng.normal(size=count)
        ys[rng.random(count) < 0.3] = 0.0
        ys[rng.random(count) < 0.3] = -0.0
        ys[0] = ys[-1] = 0.0
        fn = CompactTestFunction(tuple(zip(xs.tolist(), ys.tolist())))
        points = np.concatenate([xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
                                 0.5 * (xs[1:] + xs[:-1]), rng.uniform(xs[0], xs[-1], 200),
                                 [xs[0] - 1.0, xs[-1] + 1.0]])
        for x in points.tolist():
            assert _bits(fn(x)) == _bits(float(np.interp(x, xs, ys))), (xs, ys, x)
    # a NaN point, and a segment whose energy difference overflows, so that
    # the first end gives 0 * inf and the value comes from the other end
    xs, ys = [-1.7e308, 1e308, 1.01e308], [0.0, 5.0, 0.0]
    fn = CompactTestFunction(tuple(zip(xs, ys)))
    for x in (0.9e308, math.nan):
        assert _bits(fn(x)) == _bits(float(np.interp(x, xs, ys))), x
    assert fn(0.9e308) == 5.0


def test_compact_test_function_validation():
    with pytest.raises(DomainError):
        CompactTestFunction(nodes=((0.0, 0.0),))
    with pytest.raises(DomainError):
        CompactTestFunction(nodes=((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(DomainError):
        CompactTestFunction(nodes=((0.0, 0.5), (1.0, 0.0)))
    with pytest.raises(DomainError):
        CompactTestFunction(nodes=((0.0, 0.0), (1.0, 0.5)))
    # every node is finite: no NaN level or value, and a compact support
    nan, inf = float("nan"), float("inf")
    for nodes in (((0.2, 0.0), (0.3, nan), (0.4, 0.0)), ((-inf, 0.0), (1.0, 1.0), (3.0, 0.0)),
                  ((0.0, 0.0), (nan, 1.0), (3.0, 0.0)), ((0.0, 0.0), (1.0, inf), (3.0, 0.0)),
                  ((0.0, 0.0), (1.0, 1.0), (inf, 0.0))):
        with pytest.raises(DomainError, match="finite"):
            CompactTestFunction(nodes=nodes)


def test_functional_calculus_entries():
    op = landau_hamiltonian(10)
    family = functional_calculus(op, BUMP)
    assert set(family.entries) == {(0, 0), (1, 1)}
    assert family.entries[(0, 0)] == pytest.approx(BUMP(0.5), rel=1e-12, abs=0.0)
    assert family.entries[(1, 1)] == pytest.approx(BUMP(1.5), rel=1e-12, abs=0.0)
    assert family.declared_class == "L1"


def test_functional_calculus_domain():
    short = landau_hamiltonian(2)
    wide = CompactTestFunction(nodes=((0.0, 0.0), (1.0, 1.0), (3.0, 0.0)))
    with pytest.raises(RangeError):
        functional_calculus(short, wide)


def test_spectral_formula(cfg):
    # the trace of f(H) equals the scaled DOS pairing exactly
    op = landau_hamiltonian(10)
    check = spectral_formula_check(op, BUMP, cfg)
    assert check.gap <= 1e-12
    assert check.trace_value == pytest.approx(BUMP(0.5) + BUMP(1.5), rel=1e-14, abs=0.0)


def test_spectral_formula_other_length():
    op = landau_hamiltonian(10)
    check = spectral_formula_check(op, BUMP, make_config(0.5))
    assert check.gap <= 1e-12


def test_idos_shell_approx(cfg):
    op = landau_hamiltonian(40)
    exact = idos(op, 2.0, cfg)
    table = idos_shell_approx(op, 2.0, (100, 1000, 10000), cfg)
    ratios = [r.real / exact for r in table.raw]
    # the raw shell route approaches the IDOS from above, slowly
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] <= 1.05
    # the rearranged column is exact once the truncation covers the range
    assert table.accelerated == (exact,) * 3
    assert abs(table.extrapolated - exact) <= 1e-2
    assert table.converged


def test_idos_shell_approx_is_scaled_tau_shell():
    # the IDOS shell route is idos_scale times the shell trace of the projection
    for ell, eps in ((1.0, 2.0), (0.7, 5.5)):
        cfg = make_config(ell)
        op = landau_hamiltonian(40)
        table = idos_shell_approx(op, eps, (100, 1000, 10000), cfg)
        shell = tau_shell(spectral_projection(op, eps), (100, 1000, 10000))
        assert table.params == shell.params
        assert table.accelerated == tuple(cfg.idos_scale * v.real for v in shell.accelerated)
        for value, shell_value in zip(table.raw, shell.raw):
            assert value == pytest.approx(cfg.idos_scale * shell_value.real, rel=1e-15, abs=0.0)


def test_idos_shell_approx_propagates_domain_errors(cfg):
    op = landau_hamiltonian(5)
    with pytest.raises(RangeError):
        idos_shell_approx(op, 6.0, (100, 1000), cfg)
    with pytest.raises(DomainError):
        idos_shell_approx(op, 2.0, (1, 100), cfg)


def test_dixmier_dos_bump(cfg):
    op = landau_hamiltonian(8)
    check = dixmier_dos_check(op, BUMP, cfg)
    assert check.measure_value == pytest.approx(BUMP(0.5) + BUMP(1.5), rel=1e-14, abs=0.0)
    assert check.gap <= 2e-2
    assert check.table.model == "log_inverse"


def test_dixmier_dos_signed_function(cfg):
    signed = CompactTestFunction(
        nodes=((0.0, 0.0), (0.5, -1.0), (1.5, 1.0), (2.2, 0.0)))
    op = landau_hamiltonian(8)
    check = dixmier_dos_check(op, signed, cfg)
    assert check.measure_value == pytest.approx(0.0, abs=1e-15)
    assert check.gap <= 2e-2


def test_dixmier_dos_shifted_split_form(cfg):
    op = landau_hamiltonian(8)
    check = dixmier_dos_check(op, BUMP, cfg, form="split", lam=0.3, lam2=0.8)
    assert check.gap <= 3e-2

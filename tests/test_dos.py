"""IDOS and DOS of Landau-type diagonal operators."""

import math

import pytest

from magtrace import (
    CompactTestFunction,
    DomainError,
    LandauDiagonalOperator,
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
)

BUMP = CompactTestFunction(nodes=((0.0, 0.0), (1.0, 1.0), (2.2, 0.0)))


def test_landau_hamiltonian_levels():
    op = landau_hamiltonian(5)
    assert op.levels == (0.5, 1.5, 2.5, 3.5, 4.5)
    assert op.truncation == 5
    assert op.tail_inf == 5.5
    with pytest.raises(DomainError):
        landau_hamiltonian(0)


def test_diagonal_operator_validation():
    with pytest.raises(DomainError):
        LandauDiagonalOperator(levels=())
    with pytest.raises(DomainError):
        LandauDiagonalOperator(levels=(1.0, math.inf))


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
    assert idos(op, 2.0, cfg) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert idos(op, 0.4, cfg) == 0.0
    assert idos(op, 10.0, cfg) == pytest.approx(10.0 / (2.0 * math.pi), rel=1e-14)


def test_idos_scales_with_length():
    wide = make_config(2.0)
    op = landau_hamiltonian(40)
    assert idos(op, 2.0, wide) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)


def test_dos_measure_atoms(cfg):
    op = landau_hamiltonian(3)
    measure = dos_measure(op, cfg)
    assert [e for e, _ in measure.atoms] == [0.5, 1.5, 2.5]
    for _, w in measure.atoms:
        assert w == pytest.approx(cfg.idos_scale, rel=1e-15)


def test_dos_measure_flat_band(cfg):
    flat = LandauDiagonalOperator(levels=(7.0, 7.0, 7.0, 9.0))
    measure = dos_measure(flat, cfg)
    assert measure.atoms[0] == (7.0, pytest.approx(3.0 * cfg.idos_scale))
    assert measure.atoms[1:] == ((9.0, pytest.approx(cfg.idos_scale)),)


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
    assert fn(0.5) == pytest.approx(1.0)
    assert fn(1.0) == pytest.approx(2.0)
    assert fn(2.0) == pytest.approx(1.0)
    assert fn(-1.0) == 0.0
    assert fn(3.0) == 0.0
    assert fn(4.0) == 0.0


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
    assert family.entries[(0, 0)] == pytest.approx(BUMP(0.5))
    assert family.entries[(1, 1)] == pytest.approx(BUMP(1.5))
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
    assert check.trace_value == pytest.approx(BUMP(0.5) + BUMP(1.5), rel=1e-14)


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


def test_idos_shell_approx_propagates_domain_errors(cfg):
    op = landau_hamiltonian(5)
    with pytest.raises(RangeError):
        idos_shell_approx(op, 6.0, (100, 1000), cfg)
    with pytest.raises(DomainError):
        idos_shell_approx(op, 2.0, (1, 100), cfg)


def test_dixmier_dos_bump(cfg):
    op = landau_hamiltonian(8)
    check = dixmier_dos_check(op, BUMP, cfg)
    assert check.measure_value == pytest.approx(BUMP(0.5) + BUMP(1.5), rel=1e-14)
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

"""Integral-kernel realization checked against the coefficient picture."""

import math

import numpy as np
import pytest

from magtrace import (
    CoefficientOperator,
    DomainError,
    GridFunction,
    GridSpec,
    ResourceError,
    adjoint,
    apply_kernel,
    commutant_residual,
    coefficient_bound_check,
    compose,
    folner_trace,
    grid_from_function,
    grid_inner,
    grid_norm,
    kernel_at_zero,
    kernel_of,
    magnetic_translate,
    make_config,
    sample_basis,
    tau_diagonal,
)
from conftest import random_operator

WORK_GRID = GridSpec(extent=9.0, nodes=96)


@pytest.fixture(scope="module")
def work_basis():
    from magtrace import make_config

    cfg = make_config(1.0)
    return {(n, m): sample_basis(n, m, WORK_GRID, cfg)
            for n in range(3) for m in range(3)}


def test_kernel_of_ground_projection(cfg):
    # the kernel of the lowest projection is the plain Gaussian
    fn = kernel_of(CoefficientOperator.projection(0), cfg)
    assert fn(0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    for x1, x2 in [(0.5, 0.2), (2.0, -1.0), (0.0, 3.0)]:
        expected = math.exp(-(x1 * x1 + x2 * x2) / 4.0)
        assert fn(x1, x2) == pytest.approx(expected, rel=1e-12)


def test_kernel_of_transition_vanishes_at_origin(cfg):
    fn = kernel_of(CoefficientOperator.transition(0, 1), cfg)
    assert abs(fn(0.0, 0.0)) == 0.0


def test_kernel_of_zero_operator(cfg):
    fn = kernel_of(CoefficientOperator({}), cfg)
    assert fn(1.0, 2.0) == 0.0


def test_kernel_at_zero_is_diagonal_sum(rng, cfg):
    for trial in range(10):
        s = random_operator(rng, max_index=7, count=12)
        assert kernel_at_zero(s, cfg) == pytest.approx(tau_diagonal(s), abs=1e-12)


def test_kernel_at_zero_ignores_offdiagonal(cfg):
    s = CoefficientOperator.projection(0) + 3.0 * CoefficientOperator.transition(2, 5)
    assert kernel_at_zero(s, cfg) == pytest.approx(1.0, abs=1e-14)


def test_kernel_at_zero_gram(rng, cfg):
    # f at the origin of A*A carries the squared coefficient mass
    a = random_operator(rng, max_index=5, count=10)
    gram = compose(adjoint(a), a)
    expected = sum(abs(v) ** 2 for v in a.entries.values())
    assert kernel_at_zero(gram, cfg) == pytest.approx(expected, abs=1e-12)


def test_apply_kernel_projection_fixes_range(cfg, work_basis):
    pi0 = CoefficientOperator.projection(0)
    out = apply_kernel(pi0, work_basis[(0, 0)], cfg)
    assert np.abs(out.values - work_basis[(0, 0)].values).max() <= 1e-6
    killed = apply_kernel(pi0, work_basis[(1, 0)], cfg)
    assert np.abs(killed.values).max() <= 1e-6
    fixed = apply_kernel(pi0, work_basis[(0, 1)], cfg)
    assert np.abs(fixed.values - work_basis[(0, 1)].values).max() <= 1e-6


def test_apply_kernel_transition_action(cfg, work_basis):
    # the generator with entry (0, 1) raises the first index and leaves
    # the degeneracy index alone
    up = CoefficientOperator.transition(0, 1)
    out = apply_kernel(up, work_basis[(0, 0)], cfg)
    assert np.abs(out.values - work_basis[(1, 0)].values).max() <= 1e-6
    out = apply_kernel(up, work_basis[(0, 1)], cfg)
    assert np.abs(out.values - work_basis[(1, 1)].values).max() <= 1e-6
    dead = apply_kernel(up, work_basis[(1, 0)], cfg)
    assert np.abs(dead.values).max() <= 1e-6


def test_apply_kernel_linear_combination(cfg, work_basis):
    s = CoefficientOperator({(0, 0): 0.5, (0, 2): 1.0 - 0.5j})
    out = apply_kernel(s, work_basis[(0, 0)], cfg)
    expected = 0.5 * work_basis[(0, 0)].values + (1.0 - 0.5j) * work_basis[(2, 0)].values
    assert np.abs(out.values - expected).max() <= 1e-6


def test_apply_kernel_flags_small_grid(cfg):
    tight = GridSpec(extent=3.0, nodes=48)
    phi = sample_basis(2, 2, tight, cfg)
    out = apply_kernel(CoefficientOperator.projection(0), phi, cfg)
    assert any("boundary" in w for w in out.warnings)


def _brute_force_apply(s, phi, cfg):
    # the trapezoid double sum over (y1, y2) = (g[j1], g[j2]), written out
    # for every output point x = (g[i1], g[i2])
    spec = phi.spec
    n = spec.nodes
    g = spec.axis()
    w = np.full(n, spec.spacing)
    w[0] = w[-1] = 0.5 * spec.spacing
    y1, y2 = g[:, None], g[None, :]
    ker = kernel_of(s, cfg)
    out = np.zeros((n, n), dtype=complex)
    for i1 in range(n):
        for i2 in range(n):
            x1, x2 = g[i1], g[i2]
            wedge = x1 * y2 - x2 * y1
            terms = (ker(y1 - x1, y2 - x2) * np.exp(1j * wedge / (2.0 * cfg.ell ** 2))
                     * w[:, None] * w[None, :] * phi.values)
            out[i1, i2] = terms.sum() / (2.0 * math.pi * cfg.ell ** 2)
    return out


@pytest.mark.parametrize("nodes", [2, 3, 16, 17])
@pytest.mark.parametrize("ell", [1.0, 2.0])
def test_apply_kernel_matches_brute_force_sum(nodes, ell):
    # catches index and phase slips (a reversed lag slice, say) that the
    # 1e-6 basis checks cannot see
    rng = np.random.default_rng([nodes, int(ell)])
    cfg = make_config(ell)
    s = CoefficientOperator({(0, 0): 0.7, (0, 1): 1.0 - 0.5j, (2, 1): -0.3 + 0.8j,
                             (1, 3): 0.25j})
    spec = GridSpec(extent=2.5 * ell, nodes=nodes)
    phi = GridFunction(spec, rng.normal(size=(nodes, nodes))
                       + 1j * rng.normal(size=(nodes, nodes)))
    out = apply_kernel(s, phi, cfg)
    expected = _brute_force_apply(s, phi, cfg)
    assert out.spec == spec
    assert np.abs(out.values - expected).max() <= 1e-12 * np.abs(expected).max()


def test_commutant_residual_matches_explicit_applications(cfg):
    rng = np.random.default_rng(7)
    spec = GridSpec(extent=6.0, nodes=24)
    s = CoefficientOperator({(0, 0): 1.0, (1, 2): 0.5 - 0.2j})
    phi = GridFunction(spec, rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24)))
    a = (0.8, -0.4)
    lhs = apply_kernel(s, magnetic_translate(a, phi, cfg), cfg)
    rhs = magnetic_translate(a, apply_kernel(s, phi, cfg), cfg)
    defect = GridFunction(spec, lhs.values - rhs.values)
    expected = grid_norm(defect) / grid_norm(phi)
    assert expected > 1e-3
    assert commutant_residual(s, a, phi, cfg) == pytest.approx(expected, rel=1e-12)


def test_grid_spec_needs_finite_positive_extent():
    for extent in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError):
            GridSpec(extent=extent, nodes=8)
    with pytest.raises(DomainError):
        GridSpec(extent=1.0, nodes=1)


def test_grid_spec_needs_finite_spacing():
    # a finite extent can still overflow the spacing 2 * extent / (nodes - 1)
    with pytest.raises(DomainError, match="spacing"):
        GridSpec(extent=1e308, nodes=8)
    assert math.isfinite(GridSpec(extent=8e307, nodes=8).spacing)


def test_apply_kernel_refuses_oversized_grids(cfg):
    # the budget is checked on the grid alone, before the kernel table is
    # tabulated; the zero-stride input allocates nothing either
    from magtrace.kernels import check_convolution_budget

    check_convolution_budget(GridSpec(extent=9.0, nodes=128))
    for nodes in (2000, 100000):
        spec = GridSpec(extent=9.0, nodes=nodes)
        with pytest.raises(ResourceError):
            check_convolution_budget(spec)
        phi = GridFunction(spec, np.broadcast_to(np.complex128(1.0), (nodes, nodes)))
        with pytest.raises(ResourceError):
            apply_kernel(CoefficientOperator.projection(0), phi, cfg)


def test_translate_identity(cfg, work_basis):
    out = magnetic_translate((0.0, 0.0), work_basis[(0, 0)], cfg)
    assert np.abs(out.values - work_basis[(0, 0)].values).max() <= 1e-12


def test_translate_composition_law(cfg, work_basis):
    # V(a) V(b) = exp(i (b wedge a) / 2 ell^2) V(a + b)
    phi = work_basis[(0, 0)]
    for a, b in [((0.75, 0.0), (0.0, 1.5)), ((0.4, -0.7), (-0.3, 0.2))]:
        lhs = magnetic_translate(a, magnetic_translate(b, phi, cfg), cfg)
        wedge = b[0] * a[1] - b[1] * a[0]
        rhs = magnetic_translate((a[0] + b[0], a[1] + b[1]), phi, cfg)
        expected = np.exp(0.5j * wedge) * rhs.values
        assert np.abs(lhs.values - expected).max() <= 1e-8


def test_translate_unitary(cfg, work_basis):
    phi = work_basis[(1, 0)]
    out = magnetic_translate((1.3, -0.8), phi, cfg)
    assert grid_norm(out) == pytest.approx(grid_norm(phi), abs=1e-8)


def test_translate_flags_clipping(cfg):
    spec = GridSpec(extent=6.0, nodes=64)
    phi = sample_basis(0, 0, spec, cfg)
    out = magnetic_translate((5.0, 0.0), phi, cfg)
    assert any("clipped" in w for w in out.warnings)


def test_translate_needs_finite_displacement(cfg):
    phi = sample_basis(0, 0, GridSpec(extent=6.0, nodes=16), cfg)
    for a in ((float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0)):
        with pytest.raises(DomainError):
            magnetic_translate(a, phi, cfg)
        with pytest.raises(DomainError):
            commutant_residual(CoefficientOperator.projection(0), a, phi, cfg)


def test_commutant_residual_projection(cfg, work_basis):
    pi0 = CoefficientOperator.projection(0)
    res = commutant_residual(pi0, (1.0, 0.5), work_basis[(0, 0)], cfg)
    assert res <= 1e-5


def test_commutant_residual_zero_shift(cfg, work_basis):
    pi0 = CoefficientOperator.projection(0)
    assert commutant_residual(pi0, (0.0, 0.0), work_basis[(0, 0)], cfg) <= 1e-12


def test_commutant_residual_needs_nonzero_input(cfg):
    empty = grid_from_function(lambda u, v: np.zeros_like(u + v), WORK_GRID)
    with pytest.raises(DomainError):
        commutant_residual(CoefficientOperator.projection(0), (1.0, 0.0), empty, cfg)


def test_position_operator_negative_control(cfg, work_basis):
    # multiplication by x1 is not in the commutant: the defect against a
    # unit translation is order one
    from magtrace import GridFunction

    phi = work_basis[(0, 0)]
    g = WORK_GRID.axis()
    x1 = g[:, None] * np.ones_like(g)[None, :]

    def mult(f):
        return GridFunction(WORK_GRID, x1 * f.values)

    shifted = magnetic_translate((1.0, 0.0), phi, cfg)
    lhs = mult(shifted)
    rhs = magnetic_translate((1.0, 0.0), mult(phi), cfg)
    residual = grid_norm(GridFunction(WORK_GRID, lhs.values - rhs.values)) / grid_norm(phi)
    assert residual >= 0.1


def test_folner_trace_projection(cfg):
    pi0 = CoefficientOperator.projection(0)
    for radius in (0.5, 3.0, 25.0):
        assert folner_trace(pi0, radius, cfg) == pytest.approx(1.0, abs=1e-10)


def test_folner_trace_linearity(cfg):
    s = 2.0 * CoefficientOperator.projection(0) + CoefficientOperator.projection(1)
    assert folner_trace(s, 4.0, cfg) == pytest.approx(3.0, abs=1e-10)
    assert folner_trace(CoefficientOperator({}), 4.0, cfg) == 0.0


def test_folner_trace_needs_positive_radius(cfg):
    for radius in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            folner_trace(CoefficientOperator.projection(0), radius, cfg)


def test_folner_matches_other_lengths():
    from magtrace import make_config

    wide = make_config(2.0)
    pi0 = CoefficientOperator.projection(0)
    assert folner_trace(pi0, 4.0, wide) == pytest.approx(1.0, abs=1e-10)


def test_kernel_norm_bound(rng, cfg):
    # sqrt(2 pi) ell times the truncated operator norm is below the kernel
    # L2 norm
    spec = GridSpec(extent=12.0, nodes=192)
    for trial in range(4):
        a = random_operator(rng, max_index=4, count=8)
        fa = grid_from_function(kernel_of(a, cfg), spec)
        block_norm = coefficient_bound_check(dict(a.entries), 5).block_norm
        assert math.sqrt(2.0 * math.pi) * block_norm <= grid_norm(fa) + 1e-8


def test_kernel_pairing_matches_coefficients(rng, cfg):
    # (1 / 2 pi ell^2) <f_A, f_B> equals the entrywise coefficient pairing
    spec = GridSpec(extent=12.0, nodes=192)
    for trial in range(3):
        a = random_operator(rng, max_index=4, count=8)
        b = random_operator(rng, max_index=4, count=8)
        fa = grid_from_function(kernel_of(a, cfg), spec)
        fb = grid_from_function(kernel_of(b, cfg), spec)
        quad = grid_inner(fa, fb) / (2.0 * math.pi * cfg.ell ** 2)
        exact = sum(np.conj(v) * b.entries.get(key, 0.0) for key, v in a.entries.items())
        assert quad == pytest.approx(exact, abs=1e-6)


def test_grid_inner_requires_matching_grids(cfg):
    f = sample_basis(0, 0, GridSpec(extent=9.0, nodes=64), cfg)
    g = sample_basis(0, 0, GridSpec(extent=9.0, nodes=96), cfg)
    with pytest.raises(DomainError):
        grid_inner(f, g)

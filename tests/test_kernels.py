"""Integral-kernel realization checked against the coefficient picture."""

import math
import tracemalloc

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
    grid_from_function,
    grid_inner,
    grid_norm,
    kernel_at_zero,
    magnetic_translate,
    make_config,
    psi,
    sample_basis,
    tau_diagonal,
)
from magtrace.kernels import KernelFunction
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
    fn = KernelFunction(CoefficientOperator.projection(0), cfg)
    assert fn(0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    for x1, x2 in [(0.5, 0.2), (2.0, -1.0), (0.0, 3.0)]:
        expected = math.exp(-(x1 * x1 + x2 * x2) / 4.0)
        assert fn(x1, x2) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_kernel_of_transition_vanishes_at_origin(cfg):
    fn = KernelFunction(CoefficientOperator.transition(0, 1), cfg)
    assert abs(fn(0.0, 0.0)) == 0.0


def test_kernel_of_zero_operator(cfg):
    fn = KernelFunction(CoefficientOperator({}), cfg)
    assert fn(1.0, 2.0) == 0.0


def _kernel_by_psi(entries, x1, x2, cfg):
    # the defining series, one basis function at a time, in the sorted
    # (j, k) order of KernelFunction's terms
    total = 0.0
    for (j, k), v in sorted(entries.items()):
        total = total + (-1.0) ** (j - k) * v * psi(k, j, x1, x2, cfg)
    return math.sqrt(2.0 * math.pi) * cfg.ell * total


@pytest.mark.parametrize("ell", [1.0, 2.0])
def test_kernel_function_matches_basis_sum(rng, ell):
    # the shared radial factors give the term-by-term value at the numbers
    # that `kernel eval` passes
    cfg = make_config(ell)
    for trial in range(6):
        s = random_operator(rng, max_index=7, count=10)
        fn = KernelFunction(s, cfg)
        x1, x2 = rng.uniform(-4.0, 4.0, size=2) * ell
        for u, v in [(0.0, 0.0), (float(x1), float(x2)), (-1.5 * ell, 0.25), (x1, 3)]:
            value = fn(u, v)
            assert isinstance(value, complex)
            assert abs(value - _kernel_by_psi(s.entries, u, v, cfg)) <= 1e-14 * max(1.0, abs(value))


def test_kernel_function_refuses_anything_but_two_numbers(cfg):
    # a point is two real numbers; grids go through _kernel_rows
    fn = KernelFunction(CoefficientOperator.projection(0), cfg)
    for x1, x2 in [(np.zeros(3), np.zeros(3)), (np.array(0.5), 0.2), (0.5, np.array([0.2])),
                   (0.5, 1j), ("0.5", 0.2), (None, 0.0)]:
        with pytest.raises(DomainError, match="a point of two real numbers"):
            fn(x1, x2)


def test_kernel_at_zero_is_diagonal_sum(rng, cfg):
    for trial in range(10):
        s = random_operator(rng, max_index=7, count=12)
        assert kernel_at_zero(s, cfg) == pytest.approx(tau_diagonal(s), abs=1e-12)


def test_kernel_at_zero_matches_other_lengths():
    # the trace per unit volume of pi0 is 1 at every magnetic length
    pi0 = CoefficientOperator.projection(0)
    assert kernel_at_zero(pi0, make_config(2.0)) == pytest.approx(1.0, abs=1e-10)


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
    out = np.zeros((n, n), dtype=complex)
    for i1 in range(n):
        for i2 in range(n):
            x1, x2 = g[i1], g[i2]
            wedge = x1 * y2 - x2 * y1
            terms = (_kernel_by_psi(s.entries, y1 - x1, y2 - x2, cfg)
                     * np.exp(1j * wedge / (2.0 * cfg.ell ** 2))
                     * w[:, None] * w[None, :] * phi.values)
            out[i1, i2] = terms.sum() / (2.0 * math.pi * cfg.ell ** 2)
    return out


def _brute_force_case(nodes, ell, extent=2.5):
    rng = np.random.default_rng([nodes, int(ell)])
    cfg = make_config(ell)
    s = CoefficientOperator({(0, 0): 0.7, (0, 1): 1.0 - 0.5j, (2, 1): -0.3 + 0.8j,
                             (1, 3): 0.25j})
    spec = GridSpec(extent=extent * ell, nodes=nodes)
    phi = GridFunction(spec, rng.normal(size=(nodes, nodes))
                       + 1j * rng.normal(size=(nodes, nodes)))
    return s, phi, cfg


# extent 9 ell is the benchmark's: there the table's chirp
# e^{-i d1 d2 / 2 ell^2} turns by up to 2 * 9**2 = 162 radians
@pytest.mark.parametrize("nodes, extent", [(2, 2.5), (3, 2.5), (16, 2.5), (17, 2.5),
                                           (16, 9.0), (17, 9.0)],
                         ids=["2", "3", "16", "17", "16-wide", "17-wide"])
@pytest.mark.parametrize("ell", [1.0, 2.0])
def test_apply_kernel_matches_brute_force_sum(nodes, extent, ell):
    # catches index and phase slips (a reversed lag slice, say) that the
    # 1e-6 basis checks cannot see
    s, phi, cfg = _brute_force_case(nodes, ell, extent)
    out = apply_kernel(s, phi, cfg)
    expected = _brute_force_apply(s, phi, cfg)
    assert out.spec == phi.spec
    assert np.abs(out.values - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("nodes", [16, 17])
def test_apply_kernel_slabs_match_one_slab(nodes, monkeypatch):
    # slabs of 3 rows, the last one partial, reuse one buffer: a stale
    # padding tail or a misplaced slab would show against one slab
    from magtrace import kernels

    s, phi, cfg = _brute_force_case(nodes, 1.0)
    length = kernels._fft_length(2 * nodes - 1)
    assert kernels._slab_shape(nodes, length) == (nodes, nodes)
    one_slab = apply_kernel(s, phi, cfg).values
    monkeypatch.setattr(kernels, "SLAB_BYTES", 3 * nodes * length * 16)
    assert kernels._slab_shape(nodes, length) == (3, nodes) and nodes % 3 != 0
    out = apply_kernel(s, phi, cfg).values
    expected = _brute_force_apply(s, phi, cfg)
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(out, one_slab)


@pytest.mark.parametrize("nodes", [16, 17])
def test_apply_kernel_splits_rows_wider_than_a_slab(nodes, monkeypatch):
    # a slab smaller than one output row holds 5 input rows of it, the
    # last piece partial; the sums over the pieces must add up to the row
    from magtrace import kernels

    s, phi, cfg = _brute_force_case(nodes, 1.0)
    length = kernels._fft_length(2 * nodes - 1)
    monkeypatch.setattr(kernels, "SLAB_BYTES", 5 * length * 16)
    assert kernels._slab_shape(nodes, length) == (1, 5) and nodes % 5 != 0
    out = apply_kernel(s, phi, cfg).values
    expected = _brute_force_apply(s, phi, cfg)
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def test_slabs_stay_within_slab_bytes():
    # at every admitted grid, the convolution's slab buffer and the point
    # temporaries of one tabulation slab fit in SLAB_BYTES
    from magtrace import kernels

    for nodes in range(2, 1227):
        length = kernels._fft_length(2 * nodes - 1)
        rows, width = kernels._slab_shape(nodes, length)
        assert rows == 1 or width == nodes
        assert rows * width * length * 16 <= kernels.SLAB_BYTES
        step = max(1, kernels.SLAB_BYTES // (kernels._POINT_BYTES * (2 * nodes - 1)))
        assert step * kernels._POINT_BYTES * (2 * nodes - 1) <= kernels.SLAB_BYTES


def _direct_rows(s, spec, cfg):
    # the defining series on the full lattice, in the layout of
    # _kernel_rows: rows reversed, zero-padded to the FFT length
    from magtrace import kernels

    n = spec.nodes
    diffs = np.arange(-(n - 1), n) * spec.spacing
    table = _kernel_by_psi(s.entries, diffs[:, None], diffs[None, :], cfg)
    rows = np.zeros((2 * n - 1, kernels._fft_length(2 * n - 1)), dtype=complex)
    rows[:, :2 * n - 1] = table[:, ::-1]
    return rows


SOURCES = {"even": {(0, 0): 0.7, (1, 1): -0.4 + 0.2j}, "odd": {(0, 1): 1.0 - 0.5j}}


@pytest.mark.parametrize("nodes", [2, 3, 16, 17])
@pytest.mark.parametrize("name", ["even", "odd", "four", "seven"])
@pytest.mark.parametrize("slab_rows", [None, 1, 5], ids=["one-slab", "row-slabs", "5-row-slabs"])
def test_mirrored_table_matches_direct_evaluation(nodes, name, slab_rows, cfg, monkeypatch):
    # rows d1 < 0 come from the rows d1 >= 0 by the parity of each term;
    # a one-parity source checks each sign alone.  Slabs of 1 row put row
    # d1 = 0 alone, without mirrored rows, in the first slab; at 16 and 17
    # nodes slabs of 5 rows make four slabs, the last one partial
    from magtrace import kernels

    if slab_rows is not None:
        slab = kernels._POINT_BYTES * (2 * nodes - 1) * slab_rows
        monkeypatch.setattr(kernels, "SLAB_BYTES", slab)
    entries = dict(SOURCES, four=FOUR_ENTRY, seven=INDEX_SEVEN)[name]
    s = CoefficientOperator(entries)
    spec = GridSpec(extent=2.5, nodes=nodes)
    rows = kernels._kernel_rows(s, spec, cfg)
    expected = _direct_rows(s, spec, cfg)
    assert rows.shape == expected.shape
    assert np.abs(rows - expected).max() <= 1e-15 * np.abs(expected).max()


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
    assert commutant_residual(s, a, phi, cfg) == pytest.approx(expected, rel=1e-12, abs=0.0)


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
    # tabulated; the zero-stride input allocates nothing either.  Slabs
    # keep every buffer beside the table, the input spectrum and the grid
    # arrays within SLAB_BYTES, so the largest admitted grid is 1226 nodes
    from magtrace.kernels import check_convolution_budget

    for nodes in (128, 1000, 1094, 1226):
        check_convolution_budget(GridSpec(extent=9.0, nodes=nodes))
    for nodes in (1227, 2000, 100000):
        spec = GridSpec(extent=9.0, nodes=nodes)
        with pytest.raises(ResourceError):
            check_convolution_budget(spec)
        phi = GridFunction(spec, np.broadcast_to(np.complex128(1.0), (nodes, nodes)))
        with pytest.raises(ResourceError):
            apply_kernel(CoefficientOperator.projection(0), phi, cfg)


FOUR_ENTRY = {(0, 1): 0.3 + 0.1j, (2, 0): -0.5, (1, 1): 0.2j, (1, 2): 0.7}
INDEX_SEVEN = {(5, 3): 1.0, (0, 7): 0.5j}


@pytest.mark.parametrize("nodes, entries", [(112, {(0, 0): 1.0}), (112, FOUR_ENTRY),
                                            (112, INDEX_SEVEN), (200, FOUR_ENTRY),
                                            (200, INDEX_SEVEN), (400, INDEX_SEVEN)],
                         ids=["112-ground", "112-four", "112-seven", "200-four", "200-seven",
                              "400-seven"])
def test_convolution_stays_within_its_memory_estimate(nodes, entries, monkeypatch, cfg):
    # tabulating the kernel holds the padded table, which its chirp and FFTs
    # then overwrite, and the temporaries of its rows d1 >= 0; the estimate
    # counts both, and the convolution's input spectrum, slab buffer and
    # grid-sized arrays
    from magtrace import kernels

    estimates = []
    check = kernels.check_memory
    monkeypatch.setattr(kernels, "check_memory",
                        lambda size, what: (estimates.append(size), check(size, what)))
    phi = sample_basis(0, 1, GridSpec(extent=9.0, nodes=nodes), cfg)
    s = CoefficientOperator(entries)
    apply_kernel(s, sample_basis(0, 1, GridSpec(extent=9.0, nodes=8), cfg), cfg)  # first call
    for run in (lambda: apply_kernel(s, phi, cfg),
                lambda: commutant_residual(s, (0.5, -0.3), phi, cfg)):
        estimates.clear()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(set(estimates)) == 1
        assert peak <= estimates[0]


def test_grid_function_is_refused_before_sampling(cfg):
    # 10**5 nodes per axis would need 920 GB: the count fires before the axis
    # or any sample is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="a grid function on 100000 nodes"):
            sample_basis(0, 0, GridSpec(extent=10.0, nodes=10 ** 5), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("nodes", (100, 300))
def test_grid_function_stays_within_its_memory_estimate(nodes, monkeypatch, cfg):
    # the samples, a complex temporary and the point temporaries of psi at a
    # high index: the one count that grid_from_function checks bounds the peak
    from magtrace import kernels

    estimates = []
    check = kernels.check_memory
    monkeypatch.setattr(kernels, "check_memory",
                        lambda size, what: (estimates.append(size), check(size, what)))
    sample_basis(40, 7, GridSpec(extent=12.0, nodes=8), cfg)  # first call
    estimates.clear()
    tracemalloc.start()
    try:
        sample_basis(40, 7, GridSpec(extent=12.0, nodes=nodes), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1
    assert peak <= estimates[0]


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
    # a finite displacement whose phase ramp pi |a| / h overflows is refused too
    for a in ((float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0), (1e308, 0.0),
              (0.0, -1e308)):
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


def test_kernel_norm_bound(rng, cfg):
    # sqrt(2 pi) ell times the truncated operator norm is below the kernel
    # L2 norm
    spec = GridSpec(extent=12.0, nodes=192)
    for trial in range(4):
        a = random_operator(rng, max_index=4, count=8)
        fa = grid_from_function(lambda u, v: _kernel_by_psi(a.entries, u, v, cfg), spec)
        block_norm = coefficient_bound_check(dict(a.entries), 5).block_norm
        assert math.sqrt(2.0 * math.pi) * block_norm <= grid_norm(fa) + 1e-8


def test_kernel_pairing_matches_coefficients(rng, cfg):
    # (1 / 2 pi ell^2) <f_A, f_B> equals the entrywise coefficient pairing
    spec = GridSpec(extent=12.0, nodes=192)
    for trial in range(3):
        a = random_operator(rng, max_index=4, count=8)
        b = random_operator(rng, max_index=4, count=8)
        fa = grid_from_function(lambda u, v: _kernel_by_psi(a.entries, u, v, cfg), spec)
        fb = grid_from_function(lambda u, v: _kernel_by_psi(b.entries, u, v, cfg), spec)
        quad = grid_inner(fa, fb) / (2.0 * math.pi * cfg.ell ** 2)
        exact = sum(np.conj(v) * b.entries.get(key, 0.0) for key, v in a.entries.items())
        assert quad == pytest.approx(exact, abs=1e-6)


def test_grid_inner_requires_matching_grids(cfg):
    f = sample_basis(0, 0, GridSpec(extent=9.0, nodes=64), cfg)
    g = sample_basis(0, 0, GridSpec(extent=9.0, nodes=96), cfg)
    with pytest.raises(DomainError):
        grid_inner(f, g)

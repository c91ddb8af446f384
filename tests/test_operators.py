"""Coefficient algebra identities checked against dense matrix arithmetic."""

import math

import numpy as np
import pytest

from magtrace import (
    CoefficientOperator,
    DiagonalWeight,
    DomainError,
    absorb_product,
    adjoint,
    coefficient_bound_check,
    collect_spectrum,
    compose,
    lp_norm,
    matrix_block,
    tau_diagonal,
    weighted_product,
)
from conftest import dense_matrix, random_operator

SIZE = 8


def test_constructors_and_zero_dropping():
    op = CoefficientOperator({(0, 1): 0.0, (2, 3): 1.5})
    assert (0, 1) not in op.entries
    assert op.entries[(2, 3)] == 1.5
    assert op.max_index == 3
    pi2 = CoefficientOperator.projection(2)
    assert pi2.entries == {(2, 2): 1.0}
    assert pi2.is_diagonal
    tr = CoefficientOperator.transition(1, 4, 2.0 - 1.0j)
    assert tr.entries == {(1, 4): 2.0 - 1.0j}
    assert not tr.is_diagonal


def test_diagonal_constructor_forms():
    from_map = CoefficientOperator({(0, 0): 1.0, (3, 3): 2.0j})
    from_sum = CoefficientOperator.projection(0) + CoefficientOperator.projection(3) * 2.0j
    assert from_map.entries == from_sum.entries
    assert from_map.is_diagonal
    assert np.allclose(from_map.diagonal_array(5), [1.0, 0.0, 0.0, 2.0j, 0.0])
    mixed = CoefficientOperator({(0, 0): 1.0, (3, 3): 2.0j, (1, 2): 5.0})
    assert np.allclose(mixed.diagonal_array(5), [1.0, 0.0, 0.0, 2.0j, 0.0])


def test_invalid_entries_rejected():
    with pytest.raises(DomainError):
        CoefficientOperator({(-1, 0): 1.0})
    with pytest.raises(DomainError):
        CoefficientOperator({(0, 0): float("nan")})
    with pytest.raises(DomainError):
        CoefficientOperator({(0, 0): 1.0}, "L7")


def test_adjoint_matches_conjugate_transpose(rng):
    a = random_operator(rng, max_index=SIZE - 1, count=14)
    lhs = dense_matrix(adjoint(a), SIZE)
    rhs = np.conj(dense_matrix(a, SIZE)).T
    assert np.array_equal(lhs, rhs)


def test_adjoint_is_involutive(rng):
    a = random_operator(rng, max_index=SIZE - 1, count=14)
    assert adjoint(adjoint(a)).entries == a.entries


def test_compose_matches_block_product(rng):
    # the truncated block of AB is the product of the truncated blocks
    for trial in range(5):
        a = random_operator(rng, max_index=SIZE - 1, count=16)
        b = random_operator(rng, max_index=SIZE - 1, count=16)
        lhs = matrix_block(compose(a, b), 0, SIZE)
        rhs = matrix_block(a, 0, SIZE) @ matrix_block(b, 0, SIZE)
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_compose_associative(rng):
    a = random_operator(rng, max_index=4, count=8)
    b = random_operator(rng, max_index=4, count=8)
    c = random_operator(rng, max_index=4, count=8)
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert np.allclose(dense_matrix(left, 5), dense_matrix(right, 5), atol=1e-13)


def test_trace_cyclicity(rng):
    a = random_operator(rng, max_index=5, count=12)
    b = random_operator(rng, max_index=5, count=12)
    assert tau_diagonal(compose(a, b)) == pytest.approx(
        tau_diagonal(compose(b, a)), abs=1e-13)


def test_pairing_formula(rng):
    # tau(A* B) is the entrywise inner product of the coefficient families
    a = random_operator(rng, max_index=5, count=12)
    b = random_operator(rng, max_index=5, count=12)
    expected = sum(np.conj(v) * b.entries.get(key, 0.0) for key, v in a.entries.items())
    assert tau_diagonal(compose(adjoint(a), b)) == pytest.approx(expected, abs=1e-13)


def test_class_propagation():
    a2 = CoefficientOperator({(0, 1): 1.0}, "L2")
    b2 = CoefficientOperator({(1, 0): 1.0}, "L2")
    assert compose(a2, b2).declared_class == "Itau"
    a1 = CoefficientOperator({(0, 1): 1.0}, "L1")
    b1 = CoefficientOperator({(1, 0): 1.0}, "L1")
    assert compose(a1, b1).declared_class == "L1"
    assert compose(a1, b2).declared_class == "unclassified"
    assert (a1 + b1).declared_class == "L1"
    assert (a1 + b2).declared_class == "unclassified"


def test_linear_combinations(rng):
    a = random_operator(rng, max_index=4, count=8)
    b = random_operator(rng, max_index=4, count=8)
    combo = 2.0 * a - b * 3.0j
    expected = 2.0 * dense_matrix(a, 5) - 3.0j * dense_matrix(b, 5)
    assert np.allclose(dense_matrix(combo, 5), expected, atol=1e-15)


def test_lp_norm_values():
    op = CoefficientOperator({(0, 0): 1.0, (3, 1): 2.0})
    assert lp_norm(op, 1) == pytest.approx(3.0, abs=1e-15)
    assert lp_norm(op, 2) == pytest.approx(math.sqrt(5.0), abs=1e-15)
    assert lp_norm(op, float("inf")) == pytest.approx(2.0, abs=1e-15)
    assert lp_norm(CoefficientOperator({}), 1) == 0.0
    for p in (0.5, float("nan")):
        with pytest.raises(DomainError, match="p >= 1"):
            lp_norm(op, p)


def test_weight_block_is_diagonal_of_inverse_shells():
    w = DiagonalWeight.q_power(1.0)
    assert np.allclose(w.value(np.arange(2), 3), [0.25, 0.2], atol=1e-15)
    # matrix_block takes coefficient operators only
    with pytest.raises(DomainError, match="unsupported operand type"):
        matrix_block(w, 3, 2)
    with pytest.raises(DomainError, match="unsupported operand type"):
        matrix_block(weighted_product(CoefficientOperator.projection(0), "left", 0.0), 3, 2)


def test_weight_validation():
    with pytest.raises(DomainError):
        DiagonalWeight.q_power(0.0)
    with pytest.raises(DomainError, match="invertible only for lambda > -1"):
        DiagonalWeight.q_power(1.0, lam=-1.0)
    with pytest.raises(DomainError, match="invertible only for lambda > -1"):
        weighted_product(CoefficientOperator.projection(0), "left", -1.5)
    with pytest.raises(DomainError):
        weighted_product(CoefficientOperator.projection(0), "middle", 0.0)
    with pytest.raises(DomainError):
        weighted_product(CoefficientOperator.projection(0), "left", 0.0, s=-1.0)
    nan = float("nan")
    with pytest.raises(DomainError, match="exponent must be positive"):
        DiagonalWeight.q_power(nan)
    inf = float("inf")
    for lam in (nan, inf):
        with pytest.raises(DomainError, match="invertible only for lambda > -1"):
            DiagonalWeight.q_power(1.0, lam=lam)
    for lam, lam2 in ((nan, None), (0.0, nan), (inf, None), (0.0, inf)):
        with pytest.raises(DomainError, match="invertible only for lambda > -1"):
            weighted_product(CoefficientOperator.projection(0), "split", lam, lam2)
    with pytest.raises(DomainError, match="exponent s must be positive"):
        weighted_product(CoefficientOperator.projection(0), "left", 0.0, s=nan)


@pytest.mark.parametrize("form", ["left", "right", "split"])
def test_weighted_block_matches_dense(form, rng):
    a = random_operator(rng, max_index=SIZE - 1, count=16)
    lam, lam2, s, m_max = 0.5, 1.5, 0.8, 3
    product = weighted_product(a, form, lam, lam2, s=s)
    spectrum = collect_spectrum(product, m_max, SIZE)
    base = dense_matrix(a, SIZE).T
    n = np.arange(SIZE)
    expected = []
    for m in range(m_max + 1):
        w = (n + m + 1.0 + lam) ** (-s)
        w2 = (n + m + 1.0 + lam2) ** (-s)
        if form == "left":
            block = np.diag(w) @ base
        elif form == "right":
            block = base @ np.diag(w)
        else:
            block = np.diag(np.sqrt(w)) @ base @ np.diag(np.sqrt(w2))
        expected.extend(np.linalg.svd(block, compute_uv=False))
    assert np.allclose(spectrum.values, sorted(expected, reverse=True), rtol=1e-12, atol=1e-15)


def test_absorb_projection_sandwich():
    pi0 = CoefficientOperator.projection(0)
    t = {(0, 0): 2.5, (0, 1): 7.0, (1, 1): -1.0}
    out = absorb_product(pi0, t, pi0)
    assert out.entries == {(0, 0): 2.5}
    assert out.declared_class == "L1"


def test_absorb_requires_summable_factors(rng):
    a = random_operator(rng, max_index=3, count=6, declared_class="L2")
    with pytest.raises(DomainError):
        absorb_product(a, {(0, 0): 1.0}, CoefficientOperator.projection(0))


def test_absorb_l1_bound(rng):
    # ||A1 T A2||_1 <= ||T|| ||A1||_1 ||A2||_1, with ||T|| from a covering block
    for trial in range(4):
        a1 = random_operator(rng, max_index=3, count=8)
        a2 = random_operator(rng, max_index=3, count=8)
        t = {(int(j), int(k)): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for j in range(4) for k in range(4)}
        check = coefficient_bound_check(t, 4)
        assert check.margin >= -1e-12
        out = absorb_product(a1, t, a2)
        bound = check.block_norm * lp_norm(a1, 1) * lp_norm(a2, 1)
        assert lp_norm(out, 1) <= bound + 1e-10


def test_bound_check_requires_covering_block():
    with pytest.raises(DomainError):
        coefficient_bound_check({(5, 0): 1.0}, 4)

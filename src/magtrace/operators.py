"""Coefficient calculus for operators commuting with magnetic translations.

An operator is stored as a sparse family a_{j,k} of coefficients over the
transition operators T_{j->k} that map the Landau index j to k while acting
as the identity on the degeneracy index.  The family obeys

    adjoint:  (T_{j->k})^* = T_{k->j}
    product:  T_{j->k} T_{m->n} = delta_{j,n} T_{m->k}

so composition and adjoints reduce to index bookkeeping.  The algebra has
no identity element: the would-be identity sum over all projections is not
a finite coefficient family.

The coefficient calculus and inverse_weight are pure Python.  The array
helpers (WeightedProduct.block_weights, matrix_block and
coefficient_bound_check) import numpy when they run, so a scalar command
never loads it.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping

from .errors import DomainError, Record, check_memory, check_positive_int

OPERATOR_CLASSES = ("L1", "L2", "Itau", "unclassified")


class CoefficientOperator:
    """Sparse coefficient family {(j, k): a_jk} plus a declared class.

    The declared class ("L1", "L2", "Itau" or "unclassified") is advisory
    metadata: it records which summability hypothesis the caller claims,
    and operations never silently reclassify beyond obvious bookkeeping.
    Keys must be pairs of non-negative integers and values finite numbers,
    booleans excluded; anything else is refused, not coerced.  Instances
    are treated as immutable after construction.
    """

    __slots__ = ("entries", "declared_class")

    def __init__(self, entries: Mapping[tuple[int, int], complex] | None = None,
                 declared_class: str = "unclassified"):
        if declared_class not in OPERATOR_CLASSES:
            raise DomainError("declared class must be one of %s" % (OPERATOR_CLASSES,))
        cleaned: dict[tuple[int, int], complex] = {}
        for key, value in (entries or {}).items():
            if not (isinstance(key, tuple) and len(key) == 2 and all(
                    isinstance(i, numbers.Integral) and not isinstance(i, bool) and i >= 0
                    for i in key)):
                raise DomainError("transition indices must be pairs of non-negative integers, "
                                  "not %r" % (key,))
            j, k = int(key[0]), int(key[1])
            if not isinstance(value, numbers.Number) or isinstance(value, bool):
                raise DomainError("coefficient at (%d, %d) must be a number, not %r"
                                  % (j, k, value))
            try:
                value = complex(value)
            except OverflowError:  # an integer past the largest double
                value = complex(math.inf)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise DomainError("coefficient at (%d, %d) is not finite" % (j, k))
            if value != 0:
                cleaned[(j, k)] = value
        self.entries = cleaned
        self.declared_class = declared_class

    # -- constructors -------------------------------------------------

    @classmethod
    def transition(cls, j: int, k: int, value: complex = 1.0,
                   declared_class: str = "L1") -> "CoefficientOperator":
        return cls({(j, k): value}, declared_class)

    @classmethod
    def projection(cls, j: int) -> "CoefficientOperator":
        """Spectral projection onto Landau level j (a diagonal transition)."""
        return cls({(j, j): 1.0}, "L1")

    # -- bookkeeping ---------------------------------------------------

    @property
    def max_index(self) -> int:
        """Largest Landau index appearing in the support, -1 when empty."""
        if not self.entries:
            return -1
        return max(max(j, k) for j, k in self.entries)

    @property
    def is_diagonal(self) -> bool:
        return all(j == k for j, k in self.entries)

    def __add__(self, other: "CoefficientOperator") -> "CoefficientOperator":
        merged = dict(self.entries)
        for key, value in other.entries.items():
            merged[key] = merged.get(key, 0.0) + value
        cls = self.declared_class if self.declared_class == other.declared_class else "unclassified"
        return CoefficientOperator(merged, cls)

    def __sub__(self, other: "CoefficientOperator") -> "CoefficientOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "CoefficientOperator":
        scalar = complex(scalar)
        return CoefficientOperator({k: scalar * v for k, v in self.entries.items()},
                                   self.declared_class)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return "CoefficientOperator(%d entries, class=%s)" % (len(self.entries),
                                                              self.declared_class)


def adjoint(a: CoefficientOperator) -> CoefficientOperator:
    """Coefficient family of the adjoint: entry (j, k) becomes conj at (k, j)."""
    return CoefficientOperator({(k, j): v.conjugate() for (j, k), v in a.entries.items()},
                               a.declared_class)


def compose(a: CoefficientOperator, b: CoefficientOperator) -> CoefficientOperator:
    """Coefficients of the product AB.

    The transition relations give (AB)_{m,k} = sum_j a_{j,k} b_{m,j}: the
    outgoing index of B must meet the incoming index of A.
    """
    by_target: dict[int, list[tuple[int, complex]]] = {}
    for (m, j), v in b.entries.items():
        by_target.setdefault(j, []).append((m, v))
    out: dict[tuple[int, int], complex] = {}
    for (j, k), av in a.entries.items():
        for m, bv in by_target.get(j, ()):
            key = (m, k)
            out[key] = out.get(key, 0.0) + av * bv
    cls = "unclassified"
    if a.declared_class == "L2" and b.declared_class == "L2":
        cls = "Itau"
    elif a.declared_class == "L1" and b.declared_class == "L1":
        cls = "L1"
    return CoefficientOperator(out, cls)


def lp_norm(a: CoefficientOperator, p: float) -> float:
    """Coefficient lp norm (sum |a_jk|^p)^(1/p); requires a finite p >= 1.

    The magnitudes are scaled by the largest one, so no power overflows,
    and summed by math.fsum.
    """
    if not (p >= 1.0 and math.isfinite(p)):
        raise DomainError("lp norms of coefficient families require p >= 1 and finite")
    if not a.entries:
        return 0.0
    mags = [abs(v) for v in a.entries.values()]
    top = max(mags)
    return top * math.fsum((m / top) ** p for m in mags) ** (1.0 / p)


def check_shift(lam: float) -> None:
    """Reject a shift lam that is not a finite number above -1."""
    if not (lam > -1.0 and math.isfinite(lam)):
        raise DomainError("lambda must be finite and exceed -1: the shifted "
                          "oscillator Q + lambda*1 is invertible only for lambda > -1")


class DiagonalWeight(Record):
    """The inverse power (n + m + 1 + lam) ** (-s) of the shifted oscillator.

    It is diagonal in the doubly indexed basis, and shell_spectrum's bare
    weight; q_power checks s > 0 and a finite lam > -1.
    """

    s: float
    lam: float = 0.0

    @classmethod
    def q_power(cls, s: float, lam: float = 0.0) -> "DiagonalWeight":
        if not s > 0.0:
            raise DomainError("q_power exponent must be positive")
        check_shift(lam)
        return cls(s=float(s), lam=float(lam))


def inverse_weight(k, lam: float):
    """The weight 1 / (k + 1 + lam) of Q_lam^{-1} at the diagonal index k = n + m.

    A float at a Python number, an array at an array, each rounded as the
    other: the block weights and the level values are the same numbers.
    """
    return 1.0 / (k + 1.0 + lam)


WEIGHT_FORMS = ("left", "right", "split")


class WeightedProduct(Record):
    """Inverse-oscillator weight combined with a coefficient operator.

    form "left" is Q_lam^{-1} S, "right" is S Q_lam^{-1} and "split" is
    Q_lam^{-1/2} S Q_lam2^{-1/2}, with Q_lam^{-1} weighing (n, m) by
    inverse_weight(n + m, lam).  Only at exponent 1 do the partial sums
    of the Dixmier formula grow like log N.  lam2 is set to lam outside
    the split form, the only one that reads it.  All blocks stay diagonal
    in the degeneracy index m.
    """

    source: CoefficientOperator
    form: str
    lam: float
    lam2: float

    def __post_init__(self):
        if self.form != "split":
            object.__setattr__(self, "lam2", self.lam)

    def block_weights(self, k):
        """Row and column weights (r, c) at the diagonal indices k = n + m.

        Level n of block m is weighted at y = n + m + 1 alone, so with r
        and c taken at k = 0 .. m + count - 1, block m of the product is
        r[m + n] * matrix_block(source, count)[n, n'] * c[m + n'].  A side
        that the form leaves unweighted is a read-only broadcast of 1.0,
        which allocates nothing and multiplies exactly.
        """
        import numpy as np

        w = inverse_weight(k, self.lam)
        ones = np.broadcast_to(1.0, w.shape)
        if self.form == "left":
            return w, ones
        if self.form == "right":
            return ones, w
        w2 = inverse_weight(k, self.lam2)
        return np.sqrt(w, out=w), np.sqrt(w2, out=w2)


def weighted_product(source: CoefficientOperator, form: str, lam: float,
                     lam2: float | None = None, s: float = 1.0) -> WeightedProduct:
    """The weighted product of `form`; the exponent s may only be 1."""
    if form not in WEIGHT_FORMS:
        raise DomainError("weight form must be one of %s" % (WEIGHT_FORMS,))
    if s != 1.0:
        raise DomainError("weighted products take the exponent s = 1 only, not %r" % (s,))
    if lam2 is None:
        lam2 = lam
    check_shift(lam)
    check_shift(lam2)
    return WeightedProduct(source=source, form=form, lam=float(lam), lam2=float(lam2))


def matrix_block(op: CoefficientOperator, count: int):
    """Truncated matrix of `op` on any block of fixed degeneracy index.

    Rows and columns run over the Landau indices n, n' in [0, count), and
    entry (n, n') is a_{n',n}.  The operator acts as the identity on the
    degeneracy index, so every block has this same matrix.
    """
    import numpy as np

    if not isinstance(op, CoefficientOperator):
        raise DomainError("unsupported operand type for matrix_block: %r" % type(op))
    check_positive_int(count, "the truncation size")
    check_memory(16 * count * count, "a block of size %d" % count)
    block = np.zeros((count, count), dtype=complex)
    for (j, k), v in op.entries.items():
        if k < count and j < count:
            block[k, j] = v
    return block


def absorb_product(a1: CoefficientOperator, t_entries: Mapping[tuple[int, int], complex],
                   a2: CoefficientOperator) -> CoefficientOperator:
    """Coefficients of A1 T A2 for a bounded T given by entries t_{j,k}.

    Both coefficient factors must be declared summable ("L1"); the result
    entry at (p, s) is sum_{r,q} a1_{r,s} t_{q,r} a2_{p,q}, and its l1 norm
    is bounded by ||T|| * ||a1||_1 * ||a2||_1.
    """
    for factor, name in ((a1, "a1"), (a2, "a2")):
        if factor.declared_class != "L1":
            raise DomainError("absorb_product requires %s declared L1, got %s"
                              % (name, factor.declared_class))
    product = compose(compose(a1, CoefficientOperator(t_entries)), a2)
    return CoefficientOperator(product.entries, "L1")


class BoundCheck(Record):
    max_entry: float
    block_norm: float

    @property
    def margin(self) -> float:
        return self.block_norm - self.max_entry


def coefficient_bound_check(t_entries: Mapping[tuple[int, int], complex],
                            count: int) -> BoundCheck:
    """Entry bound |t_{n,k}| <= ||T|| tested against a covering block.

    The spectral norm of any truncation bounds each matrix entry from
    above, so margin >= 0 certifies the stored entries against the block
    norm estimate.  `count` must cover the support of the entries.
    """
    import numpy as np

    check_positive_int(count, "the truncation size")
    op = CoefficientOperator(dict(t_entries), "unclassified")
    if op.max_index >= count:
        raise DomainError("truncation %d does not cover entries up to index %d"
                          % (count, op.max_index))
    block = matrix_block(op, count)
    norm = float(np.linalg.norm(block, ord=2))
    max_entry = float(max((abs(v) for v in op.entries.values()), default=0.0))
    return BoundCheck(max_entry=max_entry, block_norm=norm)

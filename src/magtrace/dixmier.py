"""Partial-sum estimation of Dixmier traces.

For a compact non-negative operator with singular values mu_0 >= mu_1 >= ...
the Dixmier trace of interest here is the limit of gamma_N = sigma_N / log N
with sigma_N the N-th partial sum.  Operators are truncated block by block
in the degeneracy index.  The blocks of a source with off-diagonal entries
are factored in slabs of bounded size, and their singular values (or
eigenvalues) merged into one sorted sequence; a diagonal source is read
level by level, and the whole-shell spectrum of the shifted oscillator
shell by shell, in closed form from Hurwitz sums, so nothing sized by
their blocks or shells is stored.  gamma_N is extrapolated over a ladder of checkpoints under the
log_inverse model.  A zeta-function route x * Tr(T^(1+x)) -> x = 0
provides the independent Tauberian cross-check.

numpy is imported where blocks are materialized (Spectrum and the block
slabs), so the closed-form routes never load it.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
import sys
from functools import cached_property, partial

from .errors import DomainError, RangeError, Record, check_memory, check_positive_int, check_work
from .extrapolate import (ConvergenceTable, converged_tolerance, log_inverse_table,
                          richardson_table)
from .operators import DiagonalWeight, WeightedProduct, inverse_weight, matrix_block
from .traces import checked_n_grid, completed_shells, hurwitz_sum, hurwitz_zeta


SPECTRUM_KINDS = ("singular", "eigen")


class Spectrum(Record, eq=False):
    """Sorted spectrum of a compact operator with provenance metadata.

    kind "singular" holds non-negative singular values in non-increasing
    order; kind "eigen" holds the real eigenvalues of a self-adjoint
    operator ordered by non-increasing modulus, ties broken toward the
    value whose sign bit is clear, so +0.0 comes before -0.0.
    Values that are not finite real numbers are refused before sorting,
    complex values, booleans and strings included.
    `reliable` bounds the prefix of the sorted sequence that is faithful to
    the untruncated operator; left out, it is the whole length.
    """

    values: "numpy.ndarray"
    provenance: str
    kind: str = "singular"
    reliable: int | None = None

    def __post_init__(self):
        import numpy as np

        if self.kind not in SPECTRUM_KINDS:
            raise DomainError("spectrum kind must be one of %s" % (SPECTRUM_KINDS,))
        values = _finite_values(self.values)
        if self.kind == "singular":
            # a reversed view: a contiguous copy raised peak memory
            values = np.sort(values)[::-1]
        else:
            key = _eigen_keys(values)
            key.sort()
            values = _decode_keys(key)[::-1]
        if self.kind == "singular" and values.size and values[-1] < 0.0:
            raise DomainError("singular values must be non-negative")
        object.__setattr__(self, "values", values)
        if self.reliable is None:
            object.__setattr__(self, "reliable", len(self))

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self):
        """The values as Python floats, converted 2048 at a time."""
        step = BLOCK_SLAB_BYTES // 32
        return itertools.chain.from_iterable(self.values[start:start + step].tolist()
                                             for start in range(0, self.values.size, step))

    def partial_sum(self, count: int) -> float:
        """sigma_N of the first N = count values, in numpy's in-order cumsum."""
        import numpy as np

        return float(np.cumsum(self.values[:count])[-1])

    def power_sum(self, p: float) -> float:
        """sum |v|^p over the nonzero values, in place on one compressed copy.

        A sum past the largest double is refused, as for level spectra.
        """
        import numpy as np

        powers = self.values[self.values != 0.0]
        np.abs(powers, out=powers)
        with np.errstate(over="ignore"):
            powers **= p
            total = float(powers.sum())
        if total == math.inf:
            raise RangeError("the spectrum's power sum passes the largest double")
        return total


def _finite_values(values):
    """Spectrum values as a 1-D float array, refusing what is not finite and real.

    Complex values, booleans, strings and other non-numeric input are
    refused rather than cast.
    """
    import numpy as np

    values = np.asarray(values)
    if values.ndim != 1:
        raise DomainError("spectrum values must be a 1-D array")
    if values.dtype.kind not in "iuf":
        raise DomainError("spectrum values must be real numbers, not %s" % values.dtype)
    values = values.astype(float, copy=False)
    if not np.all(np.isfinite(values)):
        raise DomainError("spectrum values must be finite")
    return values


# Byte columns of a native uint64 or float64 viewed as 8 uint8 each: the
# low byte of an integer, and the byte that holds a float's sign bit.
_LOW_BYTE, _SIGN_BYTE = (0, 7) if sys.byteorder == "little" else (7, 0)


def _eigen_keys(values):
    """uint64 keys whose ascending order is the reverse of the eigen order.

    The bit pattern of a finite |v| orders like |v| as an unsigned integer,
    and its top bit is clear, so shifting it left by one leaves the low
    bit for the sign: set when the sign bit of v is clear.  Equal keys
    are equal values, sign bit included.  The flags are set through a
    byte view of the keys, so numpy needs no buffer to cast them.
    """
    import numpy as np

    key = np.abs(values).view(np.uint64)
    key <<= 1
    positive = np.signbit(values)
    np.logical_not(positive, out=positive)
    key.view(np.uint8).reshape(-1, 8)[:, _LOW_BYTE] |= positive.view(np.uint8)
    return key


def _decode_keys(key):
    """The float64 values of _eigen_keys, decoded in place beside one sign byte per value.

    The sign flags move from the keys' low bits to the values' sign bits
    through byte views, so numpy needs neither a value-sized temporary nor
    a buffer to cast them.
    """
    import numpy as np

    key ^= 1  # the low bit is now the sign bit
    octets = key.view(np.uint8).reshape(-1, 8)
    sign = octets[:, _LOW_BYTE] & 1
    sign <<= 7
    key >>= 1
    octets[:, _SIGN_BYTE] |= sign
    return key.view(float)


def _order(value: float) -> tuple[float, bool]:
    """Sort key of the eigen order: modulus descending, then a clear sign bit first.

    On non-negative values it is the non-increasing order of singular values.
    """
    return -abs(value), math.copysign(1.0, value) < 0.0


def _provenance(op, m_max: int, n_max: int) -> str:
    """The label of a weighted product's spectrum; op has its form and shifts."""
    return "%s-weighted product (lam=%g, lam2=%g, s=1) over n<%d, m<=%d" % (
        op.form, op.lam, op.lam2, n_max, m_max)


# Bytes of one slab of weighted blocks.  Measured on a 2-core host with the
# two dense 6x6 spectra of magbench's `spectra` workload (m_max 8191, with
# their estimates), alternating in one process: they took 105.0 ms in 1 MiB
# slabs, 102.4 ms in 256 KiB, 102.6 ms in 64 KiB and 109.7 ms in 16 KiB.
# Their spectra alone, pinned to one core, took 72.4 ms in 1 MiB slabs and
# 74.6 ms in 64 KiB, since each slab costs a fixed 15-20 us; at 64 KiB the
# slab is a small part of what they hold.
BLOCK_SLAB_BYTES = 2 ** 16


def _weighted_blocks(block, row, col, out=None):
    """Blocks A S B of the source block, one per leading index of the weights, into out."""
    import numpy as np

    # in place, into out or the array just made: the source block stays as it is
    block = np.multiply(row[..., :, None], block, out=out)
    block *= col[..., None, :]
    return block


def _block_values(op: WeightedProduct, m_max: int, n_max: int, kind: str):
    """Block spectra of m = 0 .. m_max, in block order, and how many pass the frontier.

    The blocks m = 0 .. m_max are built and factored slab by slab, each
    slab by one batched SVD or eigvalsh, into one values array, so what is
    held grows with the values and one slab, not with every block.  LAPACK
    factors each block on its own, so the slabs change no bit.  The
    weights are one table per side over the diagonal index n + m, which
    each slab reads through a window.  For a Hermitian source S, A S B is
    similar to the Hermitian (AB)^(1/2) S (AB)^(1/2), so kind "eigen"
    factors those blocks.  The frontier block m_max + 1 is the form's own
    A S B; the values whose modulus passes its 2-norm t are counted once,
    after the slabs, as those above t and those below -t, with one byte
    per value and no array of moduli.
    The memory budget is checked before anything is allocated.
    """
    count, indices = (m_max + 1) * n_max, m_max + n_max + 1
    step = min(m_max + 1, max(1, BLOCK_SLAB_BYTES // (16 * n_max * n_max)))
    # while the slabs are factored: the values and the mask that counts
    # them; the weight tables, 32 bytes per diagonal index while they are
    # built; one slab's blocks, 16 bytes per entry, the source and frontier
    # blocks and the copy of a block that numpy hands to LAPACK; the slab's
    # values; and numpy's buffers as it casts the weights into the blocks,
    # twice its ufunc buffer of 8192 (numpy.getbufsize()) complex numbers
    factoring = (9 * count + 32 * indices + 16 * (step + 3) * n_max * n_max
                 + 8 * step * n_max + 32 * 8192)
    # while the spectrum is sorted and read, 17 bytes per value: the values,
    # one sorted copy (the sorted values or the eigen sort keys) and one
    # byte per value (the finite check, the keys' sign flags); then, once
    # the block values are gone, the sorted values and a cumsum, or
    # power_sum's nonzero mask and compressed copy.  One slab's bytes
    # cover the records and the sort's scratch (3 KB measured)
    check_memory(max(factoring, 17 * count + BLOCK_SLAB_BYTES),
                 "the block values and one slab of weighted blocks")
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    block = matrix_block(op.source, n_max)
    row, col = op.block_weights(np.arange(indices))
    frontier = _weighted_blocks(block, row[m_max + 1:], col[m_max + 1:])
    threshold = float(np.linalg.norm(frontier, ord=2))
    if kind == "eigen":
        row = col = np.sqrt(row * col)
        factor = np.linalg.eigvalsh
    else:
        factor = partial(np.linalg.svd, compute_uv=False)
    # row m of a window is the weights of block m
    row, col = sliding_window_view(row, n_max), sliding_window_view(col, n_max)
    values = np.empty((m_max + 1, n_max))
    # one buffer for every slab: filling a fresh array of 390 6x6 blocks
    # took 0.63 us per block, against 0.23 us into the reused buffer
    slab = np.empty((step, n_max, n_max), dtype=complex)
    for start in range(0, m_max + 1, step):
        stop = min(start + step, m_max + 1)
        stack = _weighted_blocks(block, row[start:stop], col[start:stop], slab[:stop - start])
        values[start:stop] = factor(stack)
    values = values.ravel()
    reliable = np.count_nonzero(values > threshold) + np.count_nonzero(values < -threshold)
    return values, int(reliable)


def collect_spectrum(op: WeightedProduct, m_max: int, n_max: int, kind: str = "singular"):
    """Merged, sorted spectrum of the blocks m = 0 .. m_max at size n_max.

    A truncation with off-diagonal entries goes through batched SVDs
    (kind "singular") or batched eigvalsh (kind "eigen"), slab by slab,
    into a Spectrum; a diagonal one gives a LevelSpectrum, read level by
    level with no array.  Kind "eigen" needs a source whose truncation is exactly
    Hermitian, a_kj = conj(a_jk) for max(j, k) < n_max, and returns real
    eigenvalues; any other source is refused with DomainError before
    anything is allocated.  The reliable prefix length is the number of
    retained values strictly above the norm of the first omitted block,
    beyond which sorting against the truncation boundary would mix retained
    and missing contributions.  shell_spectrum is the route for a bare
    DiagonalWeight.
    """
    if not isinstance(op, WeightedProduct):
        raise DomainError("collect_spectrum expects a WeightedProduct")
    if kind not in SPECTRUM_KINDS:
        raise DomainError("spectrum kind must be one of %s" % (SPECTRUM_KINDS,))
    if m_max < 0 or n_max < 1:
        raise DomainError("spectrum truncation needs m_max >= 0 and n_max >= 1")
    if (m_max + 1) * n_max > sys.maxsize:
        raise RangeError("spectrum truncation needs (m_max + 1) * n_max <= sys.maxsize = %d "
                         "values, so that a length counts them" % sys.maxsize)
    truncated = {key: v for key, v in op.source.entries.items() if max(key) < n_max}
    if kind == "eigen" and any(truncated.get((k, j), 0.0) != v.conjugate()
                               for (j, k), v in truncated.items()):
        raise DomainError("kind \"eigen\" needs a Hermitian source: a_kj = conj(a_jk) "
                          "for all j, k < %d" % n_max)
    if all(j == k for j, k in truncated):
        return _level_spectrum(op, truncated, m_max, n_max, kind)
    del truncated  # about 50 bytes an entry, which the block route does not count
    values, reliable = _block_values(op, m_max, n_max, kind)
    return Spectrum(values, _provenance(op, m_max, n_max), kind, reliable=reliable)


def _level_spectrum(op: WeightedProduct, diagonal, m_max: int, n_max: int,
                    kind: str) -> "LevelSpectrum":
    """The LevelSpectrum of a diagonal truncation, refused when it resolves too little.

    a_n is d.real for kind "eigen", exact once the Hermitian check has run,
    and |d| for "singular".  Levels without a value above the frontier are
    missed by every checkpoint; when they carry more l1 mass than the
    `converged` tolerance 0.05 (1 + sum |a_n|), the estimate could be off by
    more than that and still read as converged, so RangeError refuses it.
    So it does when the l1 mass passes the largest double.
    """
    levels = sorted((j, v.real if kind == "eigen" else abs(v)) for (j, _), v in diagonal.items())
    spectrum = LevelSpectrum(tuple((n, a) for n, a in levels if a != 0.0), op.form,
                             op.lam, op.lam2, m_max, n_max, kind)
    mass = [abs(a) for _, a in spectrum.levels]
    try:
        total = math.fsum(mass)
    except OverflowError:
        raise RangeError("the levels' l1 mass passes the largest double") from None
    missed = math.fsum(size for size, count in zip(mass, spectrum.frontier_counts)
                       if count == 0)
    tolerance = converged_tolerance(total)
    if missed > tolerance:
        raise RangeError("levels that hold no value above the truncation frontier (m = %d) "
                         "carry l1 mass %.3g of %.3g, over the converged tolerance %.3g"
                         % (m_max + 1, missed, total, tolerance))
    return spectrum


def _first_index(stop, guess: int, end: int) -> int:
    """Least m in [0, end) where stop(m) holds, or end; stop holds from some m on.

    Two calls confirm a right guess; a wrong one is bisected over the range.
    """
    if (guess == end or stop(guess)) and (guess == 0 or not stop(guess - 1)):
        return guess
    return bisect.bisect_left(range(end), True, key=stop)


class LevelSpectrum(Record):
    """Spectrum of a weighted product whose truncated source is diagonal, level by level.

    Level n holds v(n, m) = a_n w_n(m) for m = 0 .. m_max, with w_n(m) the
    form's weight ((y + lam)(y + lam2))^(-1/2) at y = n + m + 1 (lam2 is set
    to lam outside the split form), and the levels without an entry hold
    zeros.  Only the nonzero levels (n, a_n) are stored, nothing sized by
    m_max or n_max.  Each value is rounded as the diagonal of the blocks
    that WeightedProduct.block_weights weighs, from the same
    operators.inverse_weight, bit for bit, so |v| falls with m in every
    level.  A level's count above a threshold t inverts (y + lam)(y + lam2)
    < (|a_n|/t)^2 and is fixed exactly by the values at the boundary.
    Values that are not finite are refused.
    """

    levels: tuple[tuple[int, float], ...]
    form: str
    lam: float
    lam2: float
    m_max: int
    n_max: int
    kind: str = "singular"

    def __post_init__(self):
        if self.form != "split":
            object.__setattr__(self, "lam2", self.lam)
        if not all(math.isfinite(self._value(n, a, 0)) for n, a in self.levels):
            raise DomainError("spectrum values must be finite")

    def __len__(self) -> int:
        return (self.m_max + 1) * self.n_max

    @property
    def provenance(self) -> str:
        return _provenance(self, self.m_max, self.n_max)

    def _value(self, n: int, a: float, m: int) -> float:
        """v(n, m) of the level (n, a), multiplied in the order of the block weights."""
        w = inverse_weight(n + m, self.lam)
        if self.form != "split":
            return w * a
        return (math.sqrt(w) * a) * math.sqrt(inverse_weight(n + m, self.lam2))

    def _count_above(self, n: int, a: float, t: float) -> int:
        """Number of m <= m_max with |v(n, m)| > t >= 0."""
        end = self.m_max + 1
        guess = end
        if t > 0.0:
            # (y + c)^2 - d^2 < r^2 with r = |a|/t, which may overflow to inf
            guess = (math.hypot(abs(a) / t, 0.5 * (self.lam - self.lam2))
                     - 0.5 * (self.lam + self.lam2) - (n + 1))
        guess = 0 if not guess > 0.0 else end if guess >= end else math.ceil(guess)
        return _first_index(lambda m: abs(self._value(n, a, m)) <= t, guess, end)

    def _counts_above(self, t: float) -> list[int]:
        return [self._count_above(n, a, t) for n, a in self.levels]

    @cached_property
    def frontier_counts(self) -> tuple[int, ...]:
        """Each level's values above the 2-norm of the first omitted block, max |v(n, m_max + 1)|."""
        top = self.m_max + 1
        threshold = max((abs(self._value(n, a, top)) for n, a in self.levels), default=0.0)
        return tuple(self._counts_above(threshold))

    @property
    def reliable(self) -> int:
        return sum(self.frontier_counts)

    def __iter__(self):
        """Every value in the spectrum's order, one at a time; zero levels give +0.0."""
        end = self.m_max + 1
        runs = [map(partial(self._value, n, a), range(end)) for n, a in self.levels]
        zeros = itertools.repeat(0.0, (self.n_max - len(self.levels)) * end)
        return heapq.merge(*runs, zeros, key=_order)

    @property
    def values(self) -> list[float]:
        """Every value in the spectrum's order, as a list of floats."""
        # a list entry per value, and a float object per value of a nonzero level
        check_memory(8 * len(self) + 32 * (self.m_max + 1) * len(self.levels),
                     "the values of a level spectrum")
        return list(self)

    def _leading_counts(self, count: int) -> list[int]:
        """Each level's share of the first `count` values in the spectrum's order.

        Regula falsi in u = 1/t (Illinois), bisecting a step that is not
        strictly inside the bracket, finds a threshold t whose counts fall
        short of count by at most twice the number of levels, or no double
        is left inside the bracket; the values left, within the work limit,
        are taken in order from a merge of the levels' remaining runs, tied
        moduli positive first and equal values to the lower level.
        """
        levels, end = self.levels, self.m_max + 1
        if count >= len(levels) * end:
            return [end] * len(levels)
        slack, target = 2 * len(levels), count - len(levels)
        counts, taken = [0] * len(levels), 0
        # every value lies above t = floor / 2, unless some underflow to zero
        floor = min(abs(self._value(n, a, self.m_max)) for n, a in levels)
        low, high = 0.0, 2.0 / floor if floor > 1e-300 else 2e300
        trial = self._counts_above(1.0 / high)
        above = sum(trial)
        f_low, f_high, side = -target, above - target, 0
        if above <= count:
            counts, taken = trial, above
        while above > count and taken < count - slack:
            u = high - f_high * (high - low) / (f_high - f_low)
            if not low < u < high:
                u = 0.5 * (low + high)
                if not low < u < high:
                    break
            trial = self._counts_above(1.0 / u)
            found = sum(trial)
            if found <= count:
                low, counts, taken = u, trial, found
                f_low = found - target
                if side < 0:  # the same end moved twice: halve the other's value
                    f_high *= 0.5
                side = -1
            else:
                high, f_high = u, found - target
                if side > 0:
                    f_low *= 0.5
                side = 1
        check_work(count - taken, "the merge of the levels' values")
        runs = [zip(map(_order, map(partial(self._value, n, a), range(k, end))),
                    itertools.repeat(i))
                for i, ((n, a), k) in enumerate(zip(levels, counts))]
        for _, i in itertools.islice(heapq.merge(*runs), count - taken):
            counts[i] += 1
        return counts

    def _weight_sum(self, n: int, count: int, p: float) -> float:
        """sum over m < count of ((y + lam)(y + lam2))^(-p/2) at y = n + m + 1.

        With c and d the mean and half-difference of the shifts, the term is
        ((y + c)^2 - d^2)^(-p/2) = sum_k ((p/2)_k / k!) d^(2k) (y + c)^(-p-2k),
        a series of Hurwitz sums that converges since both shifts exceed -1.
        The terms with y + c below max(24, 4|d|), at most count (an infinite
        bound included) and within the work limit, are summed directly, each
        as the power p of the two square roots of inverse_weight that _value
        multiplies, so no product of the shifts overflows; then the series
        gains a factor 16 or more per step.  d = 0 leaves one Hurwitz sum.
        """
        lam, lam2 = self.lam, self.lam2
        c, d = 0.5 * (lam + lam2), 0.5 * (lam - lam2)
        q = n + 1.0 + c
        head = math.ceil(min(count, max(0.0, max(24.0, 4.0 * abs(d)) - q))) if d else 0
        check_work(head, "the direct head of a split weight sum")
        series, scale, k = [], 1.0, 0
        while count > head and scale != 0.0:
            series.append(scale * hurwitz_sum(p + 2.0 * k, q + head, count - head))
            if k and abs(series[-1]) <= 1e-17 * abs(series[0]):
                break
            scale *= (0.5 * p + k) / (k + 1.0) * d * d
            k += 1
        return math.fsum(itertools.chain(series, (
            (math.sqrt(inverse_weight(n + m, lam)) * math.sqrt(inverse_weight(n + m, lam2))) ** p
            for m in range(head))))

    def partial_sum(self, count: int) -> float:
        """sigma_N of the first N = count values: a_n times a Hurwitz sum per level."""
        return math.fsum(a * self._weight_sum(n, k, 1.0)
                         for (n, a), k in zip(self.levels, self._leading_counts(count)) if k)

    def power_sum(self, p: float) -> float:
        """sum |v|^p over the retained values, level by level, refused past the largest double."""
        try:
            return math.fsum(abs(a) ** p * self._weight_sum(n, self.m_max + 1, p)
                             for n, a in self.levels)
        except OverflowError:
            raise RangeError("the level spectrum's power sum passes the largest double") from None


class ShellSpectrum(Record):
    """Whole-shell spectrum of q_power(s, lam): shell e >= 1 holds (e + lam)^(-s) e times.

    len() and `reliable` are shells(shells+1)/2, and nothing sized by the
    shells is stored.  By e (e + lam)^(-t) = (e + lam)^(1-t) - lam (e + lam)^(-t)
    partial sums are finite Hurwitz sums, within 2e-15 relative of math.fsum
    for s in [0.5, 3] and |lam| <= 10 (1e-11 at lam = 100, where the two
    cancel), and power sums are Hurwitz zeta values.
    """

    s: float
    lam: float
    shells: int
    kind = "singular"

    @property
    def reliable(self) -> int:
        return self.shells * (self.shells + 1) // 2

    def __len__(self) -> int:
        return self.reliable

    def partial_sum(self, count: int) -> float:
        """sigma_N of the first N = count values: complete shells, then part of the next."""
        e = completed_shells(count)
        q = 1.0 + self.lam
        total = hurwitz_sum(self.s - 1.0, q, e) - self.lam * hurwitz_sum(self.s, q, e)
        return total + (count - e * (e + 1) // 2) * (q + e) ** (-self.s)

    def power_sum(self, p: float) -> float:
        """sum mu^p over every shell, beyond the truncation too; it needs s*p > 2."""
        q = 1.0 + self.lam
        return hurwitz_zeta(self.s * p - 1.0, q) - self.lam * hurwitz_zeta(self.s * p, q)


def shell_spectrum(weight: DiagonalWeight, shells: int) -> ShellSpectrum:
    """Whole-shell spectrum of a q_power weight over `shells` >= 1 complete shells.

    Complete shells make every checkpoint N = e(e+1)/2 comparable, and the
    Tauberian route sums the shells beyond them exactly, in closed form.
    """
    check_positive_int(shells, "the shell count")
    return ShellSpectrum(weight.s, weight.lam, int(shells))


def _check_count(spectrum, count: int, minimum: int = 1) -> None:
    if count < minimum:
        raise DomainError("partial sums need at least %d terms" % minimum)
    if count > len(spectrum):
        raise RangeError("requested %d values but only %d are retained"
                         % (count, len(spectrum)))


def sigma_p(spectrum, count: int) -> float:
    """Partial sum sigma_N of the first N = `count` >= 1 values, as a real number."""
    _check_count(spectrum, count)
    return spectrum.partial_sum(int(count))


def gamma(spectrum, count: int) -> float:
    """Dixmier quotient sigma_N / log N at N = count >= 2."""
    _check_count(spectrum, count, minimum=2)
    return sigma_p(spectrum, count) / math.log(count)


def calderon_norm(spectrum) -> float:
    """sup over N >= 2 of sigma_N / log N on the retained singular values.

    One pass reads the values in runs of 2048, each summed in order behind
    the total of the runs before it, which gives numpy's in-order cumsum
    bit for bit, and divided by math.log.  No sigma_M exceeds the total of
    every value, so once total / log N falls to the running supremum no
    later quotient can raise it and the pass ends.  The margin 1e-8 covers
    the rounding of the in-order sum, at most N 2^-52 relative: 3.5e-9 at
    the 15.8 M values that collect_spectrum admits densely.
    """
    if isinstance(spectrum, ShellSpectrum):
        raise DomainError("the Calderon norm needs a materialized spectrum, not shells")
    if spectrum.kind != "singular":
        raise DomainError("the Calderon norm is defined on singular values")
    if len(spectrum) < 2:
        raise DomainError("the Calderon quotient needs at least two values")
    if isinstance(spectrum, LevelSpectrum):
        # the pass holds one run, but takes a step per value: it admits
        # the level spectra whose values and quotients, 40 bytes each, would
        # fit in the memory limit, so it answers wherever listing them could
        check_memory(40 * len(spectrum), "the Calderon quotients")
    bound = spectrum.power_sum(1.0) * (1.0 + 1e-8)
    values, step = iter(spectrum), BLOCK_SLAB_BYTES // 32
    total, count, best = next(values), 1, -math.inf
    while run := list(itertools.islice(values, step)):
        sums = list(itertools.accumulate(run, initial=total))
        # sums[i] is sigma_N at N = count + i
        counts = range(count + 1, count + len(run) + 1)
        best = max(best, max(map(operator.truediv, sums[1:], map(math.log, counts))))
        total, count = sums[-1], counts[-1]
        if bound <= best * math.log(count):
            break
    return best


def _geometric_ladder(low: int, top: int, points: int) -> list[int]:
    """Distinct integer parts of `points` geometric steps from low to top.

    The steps are numpy.geomspace's, in its arithmetic: 10 ** (k * step +
    log10(low)) with step = (log10(top) - log10(low)) / (points - 1), the
    ends set to low and top.  numpy's SIMD log10 and power may round
    differently from the C library's, which can move an integer part only
    where a step lands within rounding of an integer.
    """
    if points < 2:
        return [low] if points == 1 else []
    start = math.log10(low)
    step = (math.log10(top) - start) / (points - 1)
    inner = (int(10.0 ** (k * step + start)) for k in range(1, points - 1))
    return sorted({low, top, *inner})


def checkpoint_ladder(spectrum, points: int = 6, minimum: float = math.inf) -> list[int]:
    """Geometric ladder of checkpoint counts from max(2, min(minimum, top // 8)) to top.

    top is the length of the reliable prefix.  Partial sums at low counts
    carry a 1/log^2 curvature that the linear-in-1/log model cannot absorb,
    which biases the extrapolated trace, so by default the ladder starts at
    the top eighth.
    """
    top = min(spectrum.reliable, len(spectrum))
    if top < 4:
        raise DomainError("spectrum too short for a checkpoint ladder")
    return _geometric_ladder(max(2, min(minimum, top // 8)), top, points)


def shell_checkpoints(shells: int, points: int = 6, min_shell: int = 8) -> list[int]:
    """Checkpoints N = e(e+1)/2 at a geometric ladder of complete shells (integers >= 1)."""
    check_positive_int(shells, "the shell count")
    check_positive_int(points, "the number of checkpoints")
    check_positive_int(min_shell, "the lowest checkpoint shell")
    if shells < min_shell:
        raise DomainError("need at least %d shells for checkpoints" % min_shell)
    return [e * (e + 1) // 2 for e in _geometric_ladder(min_shell, shells, points)]


def dixmier_estimate(spectrum, checkpoints) -> ConvergenceTable:
    """Extrapolated Dixmier trace from partial sums at the checkpoints.

    Rows hold (N, sigma_N / log N); the limit is fitted under the
    log_inverse model.  The checkpoints obey traces.checked_n_grid
    (distinct integers, each at least 2), and there must be at least
    three of them.  Eigenvalue sequences are summed with their signs.
    No exception is raised for slow or absent convergence.  The residual
    is the fit's rms, which can understate the error: a dense 16x16 source
    at 512 shells reads 2.99 for 3.30 and still `converged`.
    """
    ns = checked_n_grid(checkpoints)
    if len(ns) < 3:
        raise DomainError("the Dixmier estimator needs at least three checkpoints")
    _check_count(spectrum, ns[-1])
    return log_inverse_table(ns, [spectrum.partial_sum(n) / math.log(n) for n in ns])


def tauberian_zeta(spectrum, x: float) -> float:
    """zeta_T(x) = sum |mu|^(1+x): the retained values, or every shell of a ShellSpectrum."""
    if x <= 0.0:
        raise DomainError("the Tauberian zeta needs x > 0")
    return spectrum.power_sum(1.0 + x)


def tauberian_residue(spectrum, x_grid) -> ConvergenceTable:
    """Residue of the spectral zeta: x * zeta_T(x) extrapolated to x = 0.

    Matching this limit against the Dixmier estimate is the measurability
    evidence: for Tauberian operators the two routes agree.
    """
    return richardson_table(x_grid, lambda x: tauberian_zeta(spectrum, x))

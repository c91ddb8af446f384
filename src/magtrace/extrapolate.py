"""Convergence tables and the two extrapolation models used throughout.

Every limit computed in this package is reported as a ConvergenceTable:
the raw sequence of estimates, an optional accelerated column, the
extrapolated limit, and a residual quantifying how well the declared
model fits.  Model "richardson_x" removes polynomial error terms in a
small parameter x -> 0+ by Neville elimination; "log_inverse" fits
value(N) = L + c / log N by least squares.

Two builders make every table: richardson_table for samples in x -> 0+
and log_inverse_table for sequences in a truncation N -> infinity.
Estimators hand them their raw (and accelerated) columns only, so the
grid rule, the fit, the value types and the model name are decided here.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

MODELS = ("richardson_x", "log_inverse", "none")


@dataclass(frozen=True)
class ConvergenceTable:
    params: tuple[float, ...]
    raw: tuple[complex, ...]
    accelerated: tuple[complex, ...] | None
    extrapolated: complex
    residual: float
    model: str

    def __post_init__(self):
        if self.model not in MODELS:
            raise DomainError("unknown convergence model %r" % (self.model,))
        if len(self.raw) != len(self.params):
            raise DomainError("raw column length must match the parameter column")
        if self.accelerated is not None and len(self.accelerated) != len(self.params):
            raise DomainError("accelerated column length must match the parameter column")

    def rows(self):
        acc = self.accelerated or (None,) * len(self.params)
        return list(zip(self.params, self.raw, acc))

    @property
    def converged(self) -> bool:
        """Heuristic flag: the fit residual is small on the scale of the limit."""
        return self.residual <= 0.05 * (1.0 + abs(self.extrapolated))


def richardson_zero(xs, ys) -> tuple[complex, float]:
    """Neville extrapolation of samples (x_i, y_i) to x = 0.

    Returns the full-order extrapolant and a residual given by its distance
    from the order-reduced extrapolant (last column dropped).  Requires at
    least two distinct positive abscissae; values may be complex.
    """
    xs = [float(x) for x in xs]
    table = [complex(y) for y in ys]
    count = len(xs)
    if count < 2:
        raise DomainError("Richardson extrapolation needs at least two samples")
    if len(set(xs)) != count:
        raise DomainError("Richardson abscissae must be distinct")
    previous = table[0]
    for k in range(1, count):
        for i in range(count - k):
            table[i] = (xs[i] * table[i + 1] - xs[i + k] * table[i]) / (xs[i] - xs[i + k])
        if k == count - 2:
            previous = table[0]
    return table[0], abs(table[0] - previous)


def log_inverse_fit(params, values) -> tuple[complex, complex, float]:
    """Least-squares fit of value = L + c / log(param); returns (L, c, rms)."""
    p = np.asarray([float(x) for x in params], dtype=float)
    v = np.asarray([complex(y) for y in values], dtype=complex)
    if p.size < 2:
        raise DomainError("log-inverse fit needs at least two rows")
    if np.any(p <= 1.0):
        raise DomainError("log-inverse fit needs parameters above 1")
    design = np.column_stack([np.ones_like(p), 1.0 / np.log(p)])
    coef, *_ = np.linalg.lstsq(design.astype(complex), v, rcond=None)
    fit = design @ coef
    rms = float(np.sqrt(np.mean(np.abs(fit - v) ** 2)))
    return complex(coef[0]), complex(coef[1]), rms


def _column(values) -> tuple:
    """Values as Python numbers: float where real, complex otherwise."""
    return tuple(float(v) if isinstance(v, numbers.Real) else complex(v) for v in values)


def _table(params, raw, accelerated, limit, residual, model) -> ConvergenceTable:
    # The limit is real exactly when every raw value is.
    if all(isinstance(v, float) for v in raw):
        limit = limit.real
    return ConvergenceTable(params=tuple(float(p) for p in params), raw=raw,
                            accelerated=None if accelerated is None else _column(accelerated),
                            extrapolated=limit, residual=float(residual), model=model)


def richardson_table(x_grid, fn) -> ConvergenceTable:
    """x * fn(x) over x_grid, extrapolated to x = 0 under model "richardson_x".

    The grid needs at least three samples, all positive and distinct
    (duplicates are rejected, not merged); rows run in descending x.
    """
    xs = [float(x) for x in x_grid]
    if len(xs) < 3:
        raise DomainError("the residue route needs at least three x samples")
    if not all(x > 0.0 for x in xs):
        raise DomainError("residue samples must be positive")
    if len(set(xs)) != len(xs):
        raise DomainError("residue samples must be distinct")
    xs.sort(reverse=True)
    raw = _column(x * fn(x) for x in xs)
    limit, residual = richardson_zero(xs, raw)
    return _table(xs, raw, None, limit, residual, "richardson_x")


def log_inverse_table(params, raw, accelerated=None) -> ConvergenceTable:
    """Table of raw values at truncations params under model "log_inverse".

    Two or more rows are fitted by log_inverse_fit; a single row cannot be
    fitted, so its value is reported as is under model "none" with an
    infinite residual, which reads as not converged.
    """
    raw = _column(raw)
    if len(raw) < 2:
        return _table(params, raw, accelerated, complex(raw[0]), float("inf"), "none")
    limit, _, residual = log_inverse_fit(params, raw)
    return _table(params, raw, accelerated, limit, residual, "log_inverse")

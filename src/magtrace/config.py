"""Shared configuration: the magnetic length and its derived constants."""

from __future__ import annotations

import math

from .errors import DomainError, Record


class MagneticConfig(Record):
    """Length scale `ell` together with the two constants derived from it.

    omega_ell is the area pi*(2*ell)**2 of the disk of radius 2*ell and
    idos_scale is 1/(2*pi*ell**2), the weight converting state counts into
    an integrated density of states.  Their product is 2 by construction.
    """

    ell: float
    omega_ell: float
    idos_scale: float


def make_config(ell: float = 1.0) -> MagneticConfig:
    if not isinstance(ell, (int, float)) or isinstance(ell, bool):
        raise DomainError("magnetic length must be a real number")
    ell = float(ell)
    if not math.isfinite(ell) or ell <= 0.0:
        raise DomainError("magnetic length must be positive and finite")
    try:
        omega_ell = math.pi * (2.0 * ell) ** 2
        idos_scale = 1.0 / (2.0 * math.pi * ell * ell)
    except (OverflowError, ZeroDivisionError):
        omega_ell = idos_scale = 0.0
    if not all(0.0 < v < math.inf for v in (omega_ell, idos_scale)):
        raise DomainError("magnetic length %g is out of range: omega_ell and idos_scale "
                          "must be finite and positive" % ell)
    cfg = MagneticConfig(ell=ell, omega_ell=omega_ell, idos_scale=idos_scale)
    # the two derived constants must stay consistent to rounding
    assert abs(cfg.idos_scale * cfg.omega_ell - 2.0) < 1e-12
    return cfg

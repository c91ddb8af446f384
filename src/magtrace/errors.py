"""Exception types shared across the package, its memory budget and count check.

Every raised condition falls into one of three buckets so the command line
front end can map failures onto stable exit codes.
"""

import numbers

# Largest allocation, in bytes, that one step sized by its input may make.
MEMORY_LIMIT_BYTES = 256 * 2 ** 20


class CalculusError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CalculusError, ValueError):
    """A parameter lies outside the mathematical domain of the operation."""


class RangeError(CalculusError, ValueError):
    """A request exceeds what the stored truncation can faithfully represent."""


class ResourceError(CalculusError, RuntimeError):
    """A computation would exceed the configured numerical budget."""


def check_memory(size: int, what: str) -> None:
    """Raise ResourceError when `what` would need more than MEMORY_LIMIT_BYTES.

    Callers pass the bytes a step will hold at once and call this before
    allocating any of them, so an oversized request fails at once.
    """
    if size > MEMORY_LIMIT_BYTES:
        raise ResourceError("%s needs %d bytes, over the limit of %d"
                            % (what, size, MEMORY_LIMIT_BYTES))


def check_positive_int(value, what: str) -> None:
    """Refuse anything but an integer of at least 1; booleans are not integers here."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise DomainError("%s must be an integer of at least 1, not %r" % (what, value))

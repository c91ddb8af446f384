"""Exception types shared across the package, its memory and work limits, count check and records.

Every raised condition falls into one of three buckets so the command line
front end can map failures onto stable exit codes.  Record is the frozen
value type of every module; it is built here, without dataclasses, so that
no command pays for importing them.
"""

import numbers
import sys

# Largest allocation, in bytes, that one step sized by its input may make.
MEMORY_LIMIT_BYTES = 256 * 2 ** 20
# Most steps that one loop sized by its input, which allocates nothing, may
# run.  The Laguerre recurrence of psi at a point takes 0.07 s at this
# limit, and about 4 ns per step and point on arrays (a 2-core x86 host).
WORK_LIMIT_STEPS = 100_000


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


def check_work(steps: int, what: str) -> None:
    """Raise ResourceError when `what` would run more than WORK_LIMIT_STEPS steps.

    Callers pass the step count of a loop that the memory limit cannot
    bound, because it allocates nothing sized by its input, and call this
    before the loop starts.
    """
    if steps > WORK_LIMIT_STEPS:
        raise ResourceError("%s needs %d steps, over the limit of %d"
                            % (what, steps, WORK_LIMIT_STEPS))


def check_positive_int(value, what: str) -> None:
    """Refuse anything but an integer of at least 1; booleans are not integers here."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise DomainError("%s must be an integer of at least 1, not %r" % (what, value))


class _DataclassFields:
    """A record class's __dataclass_fields__, where the caller has loaded dataclasses.

    dataclasses.fields and dataclasses.replace then walk records as they
    walk dataclasses (magbench/selfcheck.py perturbs results that way);
    nothing here imports dataclasses.
    """

    def __get__(self, record, cls):
        dataclasses = sys.modules.get("dataclasses")
        if dataclasses is None:
            raise AttributeError("__dataclass_fields__")
        return dataclasses.make_dataclass(cls.__name__, cls._fields).__dataclass_fields__


class Record:
    """Frozen record: its fields are the class's annotations, its class attributes the defaults.

    A record is built from its fields by position or keyword and then runs
    __post_init__, which may set a field through object.__setattr__.  No
    field can be assigned or deleted after that; replace(**changes) builds
    a new record.  Records compare and hash field by field, unless the
    class is declared with eq=False, which keeps object identity.  There
    are no __slots__, so functools.cached_property works on records.
    """

    _fields = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        cls = type(self)
        values = dict(zip(cls._fields, args))
        if len(values) < len(args) or values.keys() & kwargs.keys():
            raise TypeError("%s got too many or repeated fields" % cls.__name__)
        values.update(kwargs)
        for name in cls._fields:
            if name not in values and name not in cls.__dict__:
                raise TypeError("%s needs the field %r" % (cls.__name__, name))
            object.__setattr__(self, name, values.pop(name, cls.__dict__.get(name)))
        if values:
            raise TypeError("%s has no field %r" % (cls.__name__, next(iter(values))))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to %r of a frozen %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r of a frozen %s" % (name, type(self).__name__))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def replace(self, **changes):
        """A new record with these fields changed, built and checked as any other."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

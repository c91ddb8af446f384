import math
from functools import cached_property

import pytest

from magtrace import DomainError, make_config
from magtrace.errors import Record


def test_default_config_values():
    cfg = make_config()
    assert cfg.ell == 1.0
    assert cfg.omega_ell == pytest.approx(4.0 * math.pi, abs=1e-15)
    assert cfg.idos_scale == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)


def test_scale_product_invariant():
    # idos_scale * omega_ell = 2 for every magnetic length
    for ell in (0.25, 1.0, 3.7, 11.0, 3e153, 1e-154):
        cfg = make_config(ell)
        assert cfg.idos_scale * cfg.omega_ell == pytest.approx(2.0, abs=1e-12)


def test_area_scales_like_ell_squared():
    a = make_config(1.0)
    b = make_config(2.0)
    assert b.omega_ell == pytest.approx(4.0 * a.omega_ell, rel=1e-15, abs=0.0)
    assert b.idos_scale == pytest.approx(a.idos_scale / 4.0, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan"), 1e170, 1e-170,
                                 5e153, 1e-160])
def test_invalid_length_rejected(bad):
    with pytest.raises(DomainError):
        make_config(bad)


def test_out_of_range_length_names_the_constants():
    # the length is finite, but omega_ell overflows or idos_scale divides by zero
    for ell in (1e170, 1e-170):
        with pytest.raises(DomainError, match="omega_ell and idos_scale"):
            make_config(ell)


def test_non_numeric_length_rejected():
    with pytest.raises(DomainError):
        make_config(True)


class _Pair(Record):
    left: float
    right: float = 2.0

    @cached_property
    def total(self):
        return self.left + self.right


class _Handle(Record, eq=False):
    name: str


def test_records_are_frozen_and_compare_by_field():
    pair = _Pair(1.0)
    assert (pair.left, pair.right, pair.total) == (1.0, 2.0, 3.0)
    assert pair == _Pair(left=1.0, right=2.0) and hash(pair) == hash(_Pair(1.0, 2.0))
    assert pair != _Pair(1.0, 3.0)
    assert repr(pair) == "_Pair(left=1.0, right=2.0)"
    with pytest.raises(AttributeError):
        pair.left = 5.0
    with pytest.raises(AttributeError):
        del pair.right
    moved = pair.replace(right=4.0)
    assert moved == _Pair(1.0, 4.0) and moved is not pair and moved.total == 5.0
    assert pair.replace() == pair and pair.replace() is not pair
    for args, kwargs in [((), {}), ((1.0, 2.0, 3.0), {}), ((1.0,), {"left": 1.0}),
                         ((1.0,), {"other": 0.0})]:
        with pytest.raises(TypeError):
            _Pair(*args, **kwargs)


def test_records_declared_without_eq_compare_by_identity():
    first, second = _Handle("a"), _Handle("a")
    assert first == first and first != second
    assert len({first, second}) == 2


def test_records_answer_the_dataclasses_helpers():
    # magbench/selfcheck.py walks results with these, having loaded dataclasses
    import dataclasses

    pair = _Pair(1.0)
    assert dataclasses.is_dataclass(pair)
    assert [field.name for field in dataclasses.fields(pair)] == ["left", "right"]
    assert dataclasses.replace(pair, left=0.5) == _Pair(0.5, 2.0)

import math

import pytest

from magtrace import DomainError, make_config


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
    assert b.omega_ell == pytest.approx(4.0 * a.omega_ell, rel=1e-15)
    assert b.idos_scale == pytest.approx(a.idos_scale / 4.0, rel=1e-15)


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

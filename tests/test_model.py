import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milstab.model import (
    BOUNDARY_TOL,
    InitialDatum,
    ModelParams,
    Sense,
    StabilityClass,
    as_boundary_epsilon,
    classify,
    continuum_as_exponent,
    continuum_ms_exponent,
)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_continuum_exponents_reference_point():
    p = ModelParams(lam=8.0, epsilon=2.0, sigma=4.0)
    assert continuum_ms_exponent(p) == pytest.approx(18.0, abs=1e-14)
    assert continuum_as_exponent(p) == pytest.approx(2.0, abs=1e-14)
    q = ModelParams(lam=6.0, epsilon=0.5, sigma=4.0)
    assert continuum_ms_exponent(q) == pytest.approx(14.125, abs=1e-14)
    assert continuum_as_exponent(q) == pytest.approx(-1.875, abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(finite, finite, finite)
def test_exponent_duality(lam, eps, sig):
    # the two exponents differ by exactly sigma^2
    p = ModelParams(lam=lam, epsilon=eps, sigma=sig)
    gap = continuum_ms_exponent(p) - continuum_as_exponent(p)
    assert gap == pytest.approx(sig * sig, rel=1e-12, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(lam=math.nan, epsilon=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        ModelParams(lam=0.0, epsilon=math.inf, sigma=1.0)
    p = ModelParams(lam=1.0, epsilon=2.0, sigma=3.0)
    with pytest.raises(AttributeError, match="^cannot assign to field 'lam'$"):
        p.lam = 2.0


def test_initial_datum():
    d = InitialDatum(3.0, 4.0)
    assert d.squared_modulus() == pytest.approx(25.0)
    with pytest.raises(ValueError):
        InitialDatum(0.0, 0.0)
    with pytest.raises(ValueError):
        InitialDatum(math.nan, 1.0)


@pytest.mark.parametrize(
    "x0, y0, expected",
    [
        (1.0, 0.0, 0.0),
        (3.0, 4.0, 0.5 * math.log(25.0)),  # the bits of 0.5*log(x0^2 + y0^2)
        (1e-200, 0.0, math.log(1e-200)),  # x0^2 underflows to 0
        (3e-160, 4e-160, math.log(5e-160)),  # ... to a subnormal
        (1e200, 1e200, math.log(math.hypot(1e200, 1e200))),  # overflows
        (-1.7976931348623157e308, 1.0, math.log(1.7976931348623157e308)),
    ],
)
def test_log_modulus(x0, y0, expected):
    assert InitialDatum(x0, y0).log_modulus() == expected


class TestClassify:
    def test_reference_classes(self):
        p = ModelParams(lam=8.0, epsilon=2.0, sigma=4.0)
        assert classify(p, Sense.ALMOST_SURE).class_ is StabilityClass.BLOW_UP
        q = ModelParams(lam=6.0, epsilon=0.5, sigma=4.0)
        assert classify(q, Sense.ALMOST_SURE).class_ is StabilityClass.STABLE
        assert classify(q, Sense.MEAN_SQUARE).class_ is StabilityClass.BLOW_UP

    def test_boundary_band(self):
        # lam chosen so the almost-sure exponent is exactly zero
        p = ModelParams(lam=8.0, epsilon=0.0, sigma=4.0)
        assert classify(p, Sense.ALMOST_SURE).class_ is StabilityClass.BOUNDARY

    def test_tolerance_band_edges(self):
        base = 4.0 * 4.0 / 2.0
        inside = ModelParams(lam=base + 0.25 * BOUNDARY_TOL, epsilon=0.0, sigma=4.0)
        assert classify(inside, Sense.ALMOST_SURE).class_ is StabilityClass.BOUNDARY
        above = ModelParams(lam=base + 1e-9, epsilon=0.0, sigma=4.0)
        assert classify(above, Sense.ALMOST_SURE).class_ is StabilityClass.BLOW_UP
        below = ModelParams(lam=base - 1e-9, epsilon=0.0, sigma=4.0)
        assert classify(below, Sense.ALMOST_SURE).class_ is StabilityClass.STABLE

    def test_sense_tagged(self):
        p = ModelParams(lam=0.0, epsilon=0.0, sigma=1.0)
        r = classify(p, Sense.MEAN_SQUARE)
        assert r.sense is Sense.MEAN_SQUARE


class TestBoundary:
    def test_no_boundary(self):
        assert as_boundary_epsilon(8.0, 3.0) == ()

    def test_tangent_point(self):
        assert as_boundary_epsilon(8.0, 4.0) == (0.0,)

    def test_symmetric_pair(self):
        minus, plus = as_boundary_epsilon(0.0, 3.0)
        assert minus == -3.0 and plus == 3.0

    @pytest.mark.parametrize(
        "lam, sigma",
        [(-1e308, 0.0), (-1e308, 1.0), (0.0, 1e200), (1e308, 1e200), (-1e300, 1e160),
         (-1.7976931348623157e308, 1.7976931348623157e308), (1e308, 1e150)],
    )
    def test_overflowing_discriminant(self, lam, sigma):
        # sigma^2 or 2*lam overflows, the root does not: it is the correctly
        # rounded sqrt(sigma^2 - 2*lam), or no root where that is negative
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            disc = mp.mpf(sigma) ** 2 - 2 * mp.mpf(lam)
            root = float(mp.sqrt(disc)) if disc > 0 else None
        assert as_boundary_epsilon(lam, sigma) == (() if root is None else (-root, root))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(0.0, 1e154))
    def test_finite_discriminant_keeps_its_bits(self, lam, sigma):
        disc = sigma * sigma - 2.0 * lam
        if math.isfinite(disc):
            root = math.sqrt(disc) if disc > 0.0 else None
            expected = (-root, root) if root else () if disc < 0.0 else (0.0,)
            assert as_boundary_epsilon(lam, sigma) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-20.0, max_value=20.0), st.floats(min_value=0.0, max_value=10.0))
    def test_boundary_roots_close_exponent(self, lam, sig):
        for eps in as_boundary_epsilon(lam, sig):
            p = ModelParams(lam=lam, epsilon=eps, sigma=sig)
            assert abs(continuum_as_exponent(p)) <= 1e-12 * max(1.0, sig * sig)

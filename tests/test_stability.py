from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from p3walls.chern import ChernCharacter, ChernTruncation, curve_ideal_ch, line_bundle_ch
from p3walls.stability import (
    INFINITY,
    BridgelandParams,
    TiltPoint,
    bmt_form,
    bridgeland_charge,
    lambda_slope,
    mu_beta,
    nu,
    tilt_charge,
    wall_admissible,
)

V = ChernCharacter(1, 0, -6, 15)
LINE_MEMBER = curve_ideal_ch(1, 0).twist(1)
PLANAR_MEMBER = V - LINE_MEMBER

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
positive_rationals = st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=12)


def points():
    return st.builds(TiltPoint, rationals, positive_rationals)


def test_tilt_point_requires_positive_alpha_sq():
    with pytest.raises(ValueError):
        TiltPoint(0, 0)
    with pytest.raises(ValueError):
        TiltPoint(-4, Fraction(-1, 2))


def test_bridgeland_params_require_positive_s():
    point = TiltPoint(-4, 4)
    with pytest.raises(ValueError):
        BridgelandParams(point, 0)
    BridgelandParams(point, Fraction(1, 3))


def test_infinity_ordering():
    assert INFINITY is math.inf
    assert INFINITY > Fraction(10**9)
    assert not INFINITY < Fraction(-5)
    assert INFINITY == INFINITY
    assert not INFINITY > INFINITY
    assert sorted([INFINITY, Fraction(3), Fraction(-1)]) == [Fraction(-1), Fraction(3), INFINITY]


@given(st.one_of(st.fractions(), st.builds(Fraction, st.integers(-10**400, 10**400),
                                            st.integers(1, 10**50))))
def test_every_rational_is_below_infinity(x):
    assert x < INFINITY
    assert not INFINITY < x
    assert x != INFINITY


def test_twisted_slope_values():
    assert mu_beta(V, -4) == 4
    assert mu_beta(line_bundle_ch(-2), -4) == 2
    assert mu_beta(PLANAR_MEMBER, 0) is INFINITY


def test_nu_vanishes_at_hyperbola_top():
    assert nu(V, TiltPoint(-4, 4)) == 0
    assert nu(V, TiltPoint(Fraction(-9, 2), Fraction(33, 4))) == 0


def test_nu_infinite_when_twisted_degree_vanishes():
    assert nu(V, TiltPoint(0, 1)) is INFINITY  # ch1^0 of the total vanishes
    assert nu(V, TiltPoint(-1, 1)) == -6
    assert nu(ChernTruncation(0, 0, 1), TiltPoint(-3, 5)) is INFINITY


def test_nu_equality_along_line_plane_wall():
    center, radius_sq = Fraction(-11, 2), Fraction(73, 4)
    for j in range(20):
        beta = center + Fraction(j - 10, 5)
        alpha_sq = radius_sq - (beta - center) ** 2
        point = TiltPoint(beta, alpha_sq)
        assert nu(LINE_MEMBER, point) == nu(V, point) == nu(PLANAR_MEMBER, point)


@given(points(), st.integers(min_value=1, max_value=5))
def test_nu_scale_invariant(point, scale):
    value = nu(V, point)
    assert nu(scale * V, point) == value


@given(points())
def test_tilt_charge_additive(point):
    a, b = LINE_MEMBER, PLANAR_MEMBER
    total = tilt_charge(a + b, point)
    pa, pb = tilt_charge(a, point), tilt_charge(b, point)
    assert total.re == pa.re + pb.re
    assert total.im == pa.im + pb.im


@given(points())
def test_bmt_form_closed_form_for_total_class(point):
    expected = 12 * point.alpha_sq + 12 * point.beta**2 + 90 * point.beta + 144
    assert bmt_form(V, point) == expected


@given(st.integers(min_value=-6, max_value=6), points())
def test_bmt_form_vanishes_on_line_bundles(twist, point):
    assert bmt_form(line_bundle_ch(twist), point) == 0


def test_bmt_form_at_innermost_wall_top():
    assert bmt_form(V, TiltPoint(-4, 4)) == 24


def test_lambda_slope_on_wall_interior_point():
    params = BridgelandParams(TiltPoint(-4, 16), Fraction(1, 3))
    assert lambda_slope(LINE_MEMBER, params) == Fraction(43, 9)
    assert lambda_slope(PLANAR_MEMBER, params) == Fraction(53, 9)
    assert lambda_slope(PLANAR_MEMBER, params) - lambda_slope(LINE_MEMBER, params) == Fraction(10, 9)


def test_lambda_slope_infinite_at_wall_top():
    top = TiltPoint(Fraction(-11, 2), Fraction(73, 4))
    for s in (Fraction(1, 3), Fraction(1), Fraction(7, 2)):
        params = BridgelandParams(top, s)
        assert lambda_slope(LINE_MEMBER, params) is INFINITY
        assert lambda_slope(PLANAR_MEMBER, params) is INFINITY
        assert bridgeland_charge(V, params).im == 0


def test_wall_admissible_at_tops():
    tops = [
        TiltPoint(Fraction(-13, 2), Fraction(121, 4)),
        TiltPoint(Fraction(-11, 2), Fraction(73, 4)),
        TiltPoint(Fraction(-9, 2), Fraction(33, 4)),
        TiltPoint(-4, 4),
    ]
    for top in tops:
        assert wall_admissible(LINE_MEMBER, V, top)
    top = tops[1]
    assert not wall_admissible(V, V, top)
    assert not wall_admissible(2 * V, V, top)

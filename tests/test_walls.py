from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from p3walls.chern import (
    ChernCharacter,
    ChernTruncation,
    curve_ideal_ch,
    line_bundle_ch,
)
from p3walls.stability import TiltPoint, bmt_form, nu, wall_admissible
from p3walls import walls as walls_module
from p3walls.walls import (
    Circle,
    Empty,
    Everywhere,
    NestedRelation,
    Region,
    SearchBounds,
    VerticalLine,
    WallSearchError,
    bmt_zero_circle,
    brute_force_walls,
    circle_meets_region,
    enumerate_tilt_walls,
    hyperbola_alpha_sq,
    nested,
    on_hyperbola,
    tilt_wall_locus,
    wall_to_dict,
    wall_top,
)

V = ChernCharacter(1, 0, -6, 15)
REGION = Region(-12, 0, 64)
EXPECTED_CIRCLES = [
    Circle(Fraction(-13, 2), Fraction(121, 4)),
    Circle(Fraction(-11, 2), Fraction(73, 4)),
    Circle(Fraction(-9, 2), Fraction(33, 4)),
    Circle(Fraction(-4), Fraction(4)),
]


def test_wall_locus_circles():
    assert tilt_wall_locus(V, line_bundle_ch(-2)) == Circle(-4, 4)
    assert tilt_wall_locus(V, curve_ideal_ch(2, 0).twist(1)) == Circle(
        Fraction(-9, 2), Fraction(33, 4)
    )
    assert tilt_wall_locus(V, curve_ideal_ch(1, 0).twist(1)) == Circle(
        Fraction(-11, 2), Fraction(73, 4)
    )
    assert tilt_wall_locus(V, ChernTruncation(1, -1, Fraction(1, 2))) == Circle(
        Fraction(-13, 2), Fraction(121, 4)
    )


def test_wall_locus_degenerate_cases():
    assert tilt_wall_locus(V, ChernTruncation(0, 0, 1)) == VerticalLine(0)
    assert tilt_wall_locus(V, 2 * V) == Everywhere()
    assert tilt_wall_locus(V, ChernTruncation(1, 1, -3)) == Empty()


def test_wall_locus_symmetric():
    w = curve_ideal_ch(1, 0).twist(1)
    assert tilt_wall_locus(V, w) == tilt_wall_locus(w, V)


def test_wall_top():
    assert wall_top(Circle(-4, 4)) == TiltPoint(-4, 4)
    with pytest.raises(ValueError):
        wall_top(VerticalLine(0))


def test_hyperbola_heights():
    assert hyperbola_alpha_sq(V, -4) == 4
    assert hyperbola_alpha_sq(V, Fraction(-9, 2)) == Fraction(33, 4)
    assert hyperbola_alpha_sq(V, -3) is None
    with pytest.raises(ValueError):
        hyperbola_alpha_sq(ChernTruncation(0, 1, Fraction(-11, 2)), -4)


@given(st.fractions(min_value=-50, max_value=-4, max_denominator=16))
def test_hyperbola_points_satisfy_nu_zero(beta):
    alpha_sq = hyperbola_alpha_sq(V, beta)
    assume(alpha_sq is not None and alpha_sq > 0)
    point = TiltPoint(beta, alpha_sq)
    assert on_hyperbola(V, point)
    assert nu(V, point) == 0


def test_nested_relations():
    a = Circle(-4, 4)
    assert nested(a, a) == NestedRelation.EQUAL
    assert nested(Circle(-4, 1), Circle(-4, 4)) == NestedRelation.FIRST_INSIDE_SECOND
    assert nested(Circle(-4, 4), Circle(-4, 1)) == NestedRelation.SECOND_INSIDE_FIRST
    assert nested(Circle(0, 1), Circle(10, 1)) == NestedRelation.DISJOINT
    assert nested(Circle(0, 4), Circle(3, 4)) == NestedRelation.CROSSING


def test_bmt_zero_circle():
    circle = bmt_zero_circle(V)
    assert circle == Circle(Fraction(-15, 4), Fraction(33, 16))
    assert bmt_zero_circle(line_bundle_ch(0)) is None  # discriminant zero
    top = wall_top(circle)
    assert bmt_form(V, top) == 0


def test_circle_meets_region():
    assert circle_meets_region(Circle(-4, 4), REGION)
    assert not circle_meets_region(Circle(10, 1), REGION)
    # ground point inside the strip: meets no matter how low the cap
    assert circle_meets_region(Circle(2, 16), Region(-12, -1, Fraction(1, 100)))
    # strip strictly between the ground points: the lowest arc height decides
    assert circle_meets_region(Circle(0, 16), Region(-2, -1, 12))
    assert not circle_meets_region(Circle(0, 16), Region(-2, -1, Fraction(23, 2)))


def test_region_validation():
    with pytest.raises(ValueError):
        Region(0, 0, 1)
    with pytest.raises(ValueError):
        Region(-1, 0, 0)


def test_circle_requires_positive_radius_sq():
    with pytest.raises(ValueError):
        Circle(0, 0)
    with pytest.raises(ValueError):
        Circle(0, -1)


def test_enumerate_walls_for_sextic_class():
    walls = enumerate_tilt_walls(V, REGION)
    assert [w.circle for w in walls] == EXPECTED_CIRCLES
    assert [(str(w.sub), str(w.quotient)) for w in walls] == [
        ("1,-1,1/2", "0,1,-13/2"),
        ("1,-1,-1/2", "0,1,-11/2"),
        ("1,-1,-3/2", "0,1,-9/2"),
        ("1,-2,2", "0,2,-8"),
    ]
    for w in walls:
        assert w.total() == V.truncation()
        assert w.sub.is_primitive() and w.quotient.is_primitive()
        assert wall_admissible(w.sub, V, w.top)
        assert on_hyperbola(V, w.top)


def test_enumerate_is_deterministic():
    assert enumerate_tilt_walls(V, REGION) == enumerate_tilt_walls(V, REGION)


def test_walls_form_nested_chain():
    walls = enumerate_tilt_walls(V, REGION)
    for i in range(len(walls)):
        for j in range(i + 1, len(walls)):
            assert nested(walls[j].circle, walls[i].circle) == NestedRelation.FIRST_INSIDE_SECOND


def test_spurious_positivity_violating_circle_absent():
    walls = enumerate_tilt_walls(V, REGION)
    assert Circle(Fraction(-7, 2), Fraction(1, 4)) not in [w.circle for w in walls]
    bmt = bmt_zero_circle(V)
    assert nested(Circle(Fraction(-7, 2), Fraction(1, 4)), bmt) == NestedRelation.FIRST_INSIDE_SECOND


def test_line_ideal_single_wall():
    walls = enumerate_tilt_walls(ChernCharacter(1, 0, -1, 1), REGION)
    assert len(walls) == 1
    (wall,) = walls
    assert wall.circle == Circle(Fraction(-3, 2), Fraction(1, 4))
    assert (str(wall.sub), str(wall.quotient)) == ("1,-1,1/2", "0,1,-3/2")


def test_structure_sheaf_has_no_walls():
    assert enumerate_tilt_walls(ChernCharacter(1, 0, 0, 0), REGION) == []


def test_negative_discriminant_has_no_walls():
    assert enumerate_tilt_walls(ChernCharacter(2, 0, 1, 0), REGION) == []


def test_doubled_line_ideal_walls():
    walls = enumerate_tilt_walls(ChernCharacter(2, 0, -2, 2), REGION)
    assert {w.circle for w in walls} == {Circle(Fraction(-3, 2), Fraction(1, 4))}
    pairs = {(str(w.sub), str(w.quotient)) for w in walls}
    assert pairs == {
        ("1,-1,1/2", "1,1,-5/2"),
        ("2,-1,-1/2", "0,1,-3/2"),
        ("3,-2,0", "-1,2,-2"),
    }


def test_imprimitive_pair_is_not_reported_twice():
    walls = enumerate_tilt_walls(ChernCharacter(2, 0, -2, 2), REGION)
    reported = {(str(w.sub), str(w.quotient)) for w in walls}
    assert ("2,-2,1", "0,2,-3") not in reported


def test_plane_structure_sheaf_single_wall():
    plane = ChernCharacter(0, 1, Fraction(-1, 2), Fraction(1, 6))
    walls = enumerate_tilt_walls(plane, REGION)
    assert len(walls) == 1
    assert walls[0].circle == Circle(Fraction(-1, 2), Fraction(1, 4))
    assert (str(walls[0].sub), str(walls[0].quotient)) == ("1,0,0", "-1,1,-1/2")


def test_unbounded_search_raises():
    with pytest.raises(WallSearchError, match="cannot certify termination"):
        enumerate_tilt_walls(ChernCharacter(1, 0, -6, 0), REGION)
    # rank-zero classes without a positivity disc have walls accumulating
    # at their center and are refused as well
    with pytest.raises(WallSearchError, match="rank-zero"):
        enumerate_tilt_walls(
            ChernCharacter(0, 1, Fraction(-11, 2), Fraction(79, 6)), REGION
        )
    # an explicit box always works
    walls = enumerate_tilt_walls(
        ChernCharacter(1, 0, -6, 0), REGION, SearchBounds(2, 8, 30)
    )
    assert walls == brute_force_walls(
        ChernCharacter(1, 0, -6, 0), REGION, SearchBounds(2, 8, 30)
    )


ORACLE_TOTALS = [
    ChernCharacter(1, 0, -6, 15),
    ChernCharacter(1, 0, -1, 1),
    ChernCharacter(1, 0, 0, 0),
    ChernCharacter(2, 0, -2, 2),
    ChernCharacter(2, -1, Fraction(-5, 2), Fraction(29, 6)),
    ChernCharacter(3, -2, -1, Fraction(8, 3)),
    ChernCharacter(1, -3, Fraction(-3, 2), Fraction(57, 2)),  # V twisted by 3
]


@pytest.mark.parametrize("total", ORACLE_TOTALS, ids=str)
def test_oracle_equivalence(total):
    bounds = SearchBounds(5, 20, 100)
    assert enumerate_tilt_walls(total, REGION) == brute_force_walls(total, REGION, bounds)


def _reference_meets_region(circle: Circle, region: Region) -> bool:
    """The region test as it stood on Fractions, before it moved to integers."""

    def ge_sqrt(a: Fraction, x: Fraction) -> bool:
        return a >= 0 and a * a >= x

    c, rho_sq = circle.center, circle.radius_sq
    if ge_sqrt(region.beta_min - c, rho_sq) or ge_sqrt(c - region.beta_max, rho_sq):
        return False
    if ge_sqrt(c - region.beta_min, rho_sq) or ge_sqrt(region.beta_max - c, rho_sq):
        return True
    lowest = rho_sq - max((region.beta_min - c) ** 2, (region.beta_max - c) ** 2)
    return lowest <= region.alpha_sq_max


def _reference_reaches_nonnegative(total: ChernCharacter, circle: Circle) -> bool:
    """The positivity test as it stood on Fractions: the form restricted to
    the circle is affine in beta, so its maximum sits at center -/+ rho."""
    delta = total.discriminant()
    g1 = -2 * total.c * total.d + 6 * total.r * total.e
    g0 = 4 * total.d * total.d - 6 * total.c * total.e
    slope = 2 * delta * circle.center + g1
    const = delta * circle.radius_sq - delta * circle.center ** 2 + g0
    peak = slope * circle.center + const
    if peak >= 0:
        return True
    return peak * peak <= slope * slope * circle.radius_sq


def _reference_candidate(
    ctx: walls_module._WallContext, r: int, c: int, D: int
) -> Optional[walls_module.WallCandidate]:
    """The wall predicate as it stood before any integer test: admissibility,
    region and positivity are checked on Fractions."""
    if (D - c) % 2:
        return None
    ru, cu, Du = ctx.rv - r, ctx.cv - c, ctx.Dv - D
    if (r, c, D) == (0, 0, 0) or (ru, cu, Du) == (0, 0, 0):
        return None
    k1 = ctx.rv * c - r * ctx.cv
    if k1 == 0:
        return None
    if c * c - r * D < 0 or cu * cu - ru * Du < 0:
        return None
    K2 = ctx.rv * D - r * ctx.Dv
    K3 = ctx.cv * D - c * ctx.Dv
    quarter = K2 * K2 - 4 * k1 * K3
    if quarter <= 0:
        return None
    if math.gcd(r, c, (D - c) // 2) != 1:
        return None
    if math.gcd(ru, cu, (Du - cu) // 2) != 1:
        return None
    circle = Circle(Fraction(K2, 2 * k1), Fraction(quarter, 4 * k1 * k1))
    w_tr = ChernTruncation(r, c, Fraction(D, 2))
    if not wall_admissible(w_tr, ctx.v_tr, TiltPoint(circle.center, circle.radius_sq)):
        return None
    if not _reference_meets_region(circle, ctx.region):
        return None
    if not _reference_reaches_nonnegative(ctx.v, circle):
        return None
    u_tr = ChernTruncation(ru, cu, Fraction(Du, 2))
    sub, quotient = walls_module._orient_pair(w_tr, u_tr)
    return walls_module.WallCandidate(circle, sub, quotient)


def _assert_row_matches(ctx: walls_module._WallContext, r: int, c: int, Ds: range) -> int:
    """Assert that one row keeps exactly the reference's walls; return how many.

    Two triples of one row never share a pair key (that would force
    2r = r_v and 2c = c_v, so k1 = 0), so the row's sink holds every
    survivor, in the order of its D range.
    """
    sink: dict = {}
    walls_module._row_walls(ctx, sink, r, c, Ds)
    expected = [_reference_candidate(ctx, r, c, D) for D in Ds]
    expected = [w for w in expected if w is not None]
    assert list(sink.values()) == expected, (r, c, ctx.region)
    return len(expected)


DIFFERENTIAL_TOTALS = [
    ChernCharacter(-3, 4, 1, 0),
    ChernCharacter(-2, 3, Fraction(5, 2), 0),
    ChernCharacter(-1, 2, 4, 0),
    ChernCharacter(0, 1, Fraction(-1, 2), Fraction(1, 6)),
    ChernCharacter(0, 2, -3, 1),
    ChernCharacter(1, 0, -6, 0),
    ChernCharacter(1, 0, -6, 15),
    ChernCharacter(2, -1, Fraction(-5, 2), Fraction(29, 6)),
    ChernCharacter(3, -2, -1, Fraction(8, 3)),
    # g0 and g1 of the positivity form are not integers; in the last two the
    # positivity filter decides rows of the box
    ChernCharacter(1, 0, -6, Fraction(15, 7)),
    ChernCharacter(2, -1, Fraction(-5, 2), Fraction(3, 5)),
    ChernCharacter(1, 0, -6, Fraction(104, 7)),
    ChernCharacter(2, -1, Fraction(-5, 2), Fraction(24, 5)),
]

#: The default window, and windows whose edges have a common denominator
#: q > 1 (twice with a fractional height cap), one of them straddling 0.
DIFFERENTIAL_REGIONS = [
    REGION,
    Region(Fraction(-23, 2), Fraction(-1, 3), Fraction(37, 4)),
    Region(Fraction(-9, 4), Fraction(5, 3), Fraction(1, 5)),
    Region(-5, -4, Fraction(3, 2)),
]


@pytest.mark.parametrize("total", DIFFERENTIAL_TOTALS, ids=str)
def test_predicate_matches_fraction_reference(total):
    bounds = SearchBounds(3, 8, 24)
    Ds = range(-bounds.two_d_max, bounds.two_d_max + 1)
    kept = 0
    for region in DIFFERENTIAL_REGIONS:
        ctx = walls_module._WallContext(total, region)
        for r in range(-bounds.r_max, bounds.r_max + 1):
            for c in range(-bounds.c_max, bounds.c_max + 1):
                kept += _assert_row_matches(ctx, r, c, Ds)
    assert kept > 0


@st.composite
def rational_totals(draw) -> ChernCharacter:
    """Lattice truncations with an arbitrary rational ch_3."""
    r = draw(st.integers(min_value=-3, max_value=3))
    c = draw(st.integers(min_value=-4, max_value=4))
    k = draw(st.integers(min_value=-6, max_value=6))
    e = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 12)))
    return ChernCharacter(r, c, Fraction(c, 2) + k, e)


@st.composite
def regions(draw) -> Region:
    lo = Fraction(draw(st.integers(-80, 20)), draw(st.integers(1, 6)))
    width = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 6)))
    cap = Fraction(draw(st.integers(1, 400)), draw(st.integers(1, 8)))
    return Region(lo, lo + width, cap)


@given(rational_totals(), regions(), st.integers(-3, 3), st.integers(-10, 2))
@settings(max_examples=60, deadline=None)
def test_predicate_matches_fraction_reference_on_random_rows(total, region, r0, c0):
    ctx = walls_module._WallContext(total, region)
    for r in range(r0 - 1, r0 + 2):
        for c in range(c0, c0 + 9):
            _assert_row_matches(ctx, r, c, range(-30, 31))


@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=Fraction(1, 12), max_value=60, max_denominator=12),
    regions(),
)
# tangent to the span from the right and from the left, a ground point on
# either edge, and a lowest arc point exactly at the height cap
@example(Fraction(0), Fraction(4), Region(2, 5, 1))
@example(Fraction(0), Fraction(4), Region(-5, -2, 1))
@example(Fraction(0), Fraction(4), Region(-2, 1, Fraction(1, 100)))
@example(Fraction(0), Fraction(4), Region(-1, 2, Fraction(1, 100)))
@example(Fraction(0), Fraction(16), Region(-2, -1, 12))
@settings(max_examples=200, deadline=None)
def test_circle_meets_region_matches_fraction_reference(center, radius_sq, region):
    circle = Circle(center, radius_sq)
    assert circle_meets_region(circle, region) == _reference_meets_region(circle, region)


#: Classes the derived-bound search refuses: no positivity disc for a rank-one
#: class, a rank-two class of the higher-rank benchmark universe (Chern
#: classes 2, -1, 3, 1) and a rank-zero class.
REFUSED_TOTALS = [
    ChernCharacter(1, 0, -6, 0),
    ChernCharacter(2, -1, Fraction(-5, 2), Fraction(11, 6)),
    ChernCharacter(0, 1, Fraction(-11, 2), Fraction(79, 6)),
]


@pytest.mark.parametrize("total", REFUSED_TOTALS, ids=str)
def test_refusal_comes_before_any_scan(total, monkeypatch):
    def no_scan(*args):
        raise AssertionError("a row was scanned before the refusal")

    monkeypatch.setattr(walls_module, "_row_walls", no_scan)
    with pytest.raises(WallSearchError, match="cannot certify"):
        enumerate_tilt_walls(total, REGION)


def _walls_as_set(total: ChernCharacter, region: Region):
    """Walls as ``(center, radius_sq, {sub, quotient})``, or ``None`` when refused."""
    try:
        walls = enumerate_tilt_walls(total, region)
    except WallSearchError:
        return None
    return {
        (w.circle.center, w.circle.radius_sq, frozenset((w.sub, w.quotient)))
        for w in walls
    }


TWIST_TOTALS = list(dict.fromkeys(ORACLE_TOTALS + DIFFERENTIAL_TOTALS))


@pytest.mark.parametrize("n", [-3, -1, 1, 2])
@pytest.mark.parametrize("total", TWIST_TOTALS, ids=str)
def test_walls_are_twist_equivariant(total, n):
    # Twisting by n shifts every tilt slope by n in beta, so the walls of the
    # twisted class over the shifted region are the twisted walls.  Sets,
    # because twisting may flip which member _orient_pair calls the sub.
    region = Region(-6, 0, 16)
    shifted = Region(region.beta_min - n, region.beta_max - n, region.alpha_sq_max)
    expected = _walls_as_set(total, region)
    if expected is not None:
        expected = {
            (center - n, radius_sq, frozenset(m.twist(n) for m in pair))
            for center, radius_sq, pair in expected
        }
    assert _walls_as_set(total.twist(n), shifted) == expected


def test_wall_to_dict():
    wall = enumerate_tilt_walls(V, REGION)[0]
    payload = wall_to_dict(wall)
    assert payload == {
        "center": "-13/2",
        "radius_sq": "121/4",
        "sub": "1,-1,1/2",
        "quotient": "0,1,-13/2",
        "admissible_top": "beta=-13/2,alpha2=121/4",
    }


@st.composite
def small_totals(draw) -> ChernCharacter:
    r = draw(st.integers(min_value=-3, max_value=3))
    c = draw(st.integers(min_value=-4, max_value=4))
    k = draw(st.integers(min_value=-6, max_value=6))
    t = draw(st.integers(min_value=-4, max_value=4))
    d = Fraction(c, 2) + k
    e = t - 2 * d - Fraction(11, 6) * c - r
    return ChernCharacter(r, c, d, e)


@given(small_totals())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_enumerated_walls_satisfy_invariants(total):
    region = Region(-6, 0, 16)
    try:
        walls = enumerate_tilt_walls(total, region)
    except WallSearchError:
        assume(False)
    for w in walls:
        assert w.total() == total.truncation()
        assert w.sub.is_primitive() and w.quotient.is_primitive()
        assert wall_admissible(w.sub, total, w.top)
        assert circle_meets_region(w.circle, region)


@given(small_totals())
@example(ChernCharacter(0, -1, Fraction(11, 2), Fraction(-79, 6)))  # c_v < 0: no tops, []
@example(REFUSED_TOTALS[0])
@example(REFUSED_TOTALS[1])
@example(REFUSED_TOTALS[2])
@settings(max_examples=40, deadline=None)
def test_refusal_is_decided_by_the_vacuity_certificate(total):
    region = Region(-6, 0, 16)
    ctx = walls_module._WallContext(total, region)
    uncertified = ctx.delta > 0 and walls_module._vacuity_radius_cap(ctx) <= 0
    expect_refusal = uncertified and (ctx.rv != 0 or ctx.cv > 0)
    try:
        enumerate_tilt_walls(total, region)
    except WallSearchError:
        assert expect_refusal
    else:
        assert not expect_refusal


@given(small_totals())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_box_restriction_of_smart_search_matches_brute_force(total):
    region = Region(-6, 0, 16)
    bounds = SearchBounds(3, 8, 30)
    try:
        smart = enumerate_tilt_walls(total, region)
    except WallSearchError:
        assume(False)

    def in_box(tr: ChernTruncation) -> bool:
        return (
            abs(tr.r) <= bounds.r_max
            and abs(tr.c) <= bounds.c_max
            and abs(2 * tr.d) <= bounds.two_d_max
        )

    # the box scan visits one member and derives the other, so a wall is
    # found whenever either member fits the box
    restricted = [w for w in smart if in_box(w.sub) or in_box(w.quotient)]
    assert restricted == brute_force_walls(total, region, bounds)


def _reference_sqrt_bounds(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    scale = 1 << bits
    root = math.isqrt(x.numerator * x.denominator * scale * scale)
    q = x.denominator * scale
    return Fraction(root, q), Fraction(root + 1, q)


def _reference_vacuity_cap(ctx: walls_module._WallContext) -> Fraction:
    """The vacuity cap as it stood before the center hull: each bisection step
    retries a 32/64/192-bit ladder, taking both roundings of ``C(0)`` and
    ``C(t)`` as four separate endpoints."""
    if ctx.bmt_radius_sq is None:
        return Fraction(0)

    def certified(t: Fraction) -> bool:
        for bits in (32, 64, 192):
            worst = Fraction(0)
            for tt in (Fraction(0), t) if ctx.rv else (Fraction(0),):
                if ctx.rv:
                    mu = Fraction(ctx.cv, ctx.rv)
                    base = Fraction(ctx.delta, ctx.rv * ctx.rv)
                    lo, hi = _reference_sqrt_bounds(base + tt, bits)
                    if ctx.rv > 0:
                        ends = (mu - hi - ctx.bmt_center, mu - lo - ctx.bmt_center)
                    else:
                        ends = (mu + lo - ctx.bmt_center, mu + hi - ctx.bmt_center)
                else:
                    fixed = ctx.d_v / ctx.v_tr.c - ctx.bmt_center
                    ends = (fixed, fixed)
                worst = max(worst, abs(ends[0]), abs(ends[1]))
            reach = worst + _reference_sqrt_bounds(t, bits)[1]
            if reach * reach < ctx.bmt_radius_sq:
                return True
        return False

    if not certified(Fraction(0)):
        return Fraction(0)
    lo, hi = Fraction(0), ctx.bmt_radius_sq
    for _ in range(48):
        mid = (lo + hi) / 2
        if certified(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _assert_cap_matches_reference(total: ChernCharacter) -> Fraction:
    ctx = walls_module._WallContext(total, Region(-6, 0, 16))
    t_stop = walls_module._vacuity_radius_cap(ctx)
    assert t_stop == _reference_vacuity_cap(ctx)
    return t_stop


@given(small_totals())
@settings(max_examples=40, deadline=None)
def test_vacuity_cap_matches_reference_on_small_totals(total):
    _assert_cap_matches_reference(total)


@pytest.mark.parametrize("total", DIFFERENTIAL_TOTALS, ids=str)
def test_vacuity_cap_matches_reference_on_differential_totals(total):
    _assert_cap_matches_reference(total)


@pytest.mark.parametrize("n", [-3, 0, 2])
def test_vacuity_cap_matches_reference_on_curve_classes(n):
    certified = 0
    for degree in range(1, 12):
        for genus in range(20):
            certified += _assert_cap_matches_reference(curve_ideal_ch(degree, genus).twist(n)) > 0
    assert certified > 0


@pytest.mark.parametrize(
    "total, t, centers",
    [
        # C(t) = -sqrt(4 + t): C(0) = -2 and C(5) = -3
        (ChernCharacter(1, 0, -2, 0), 5, (-3, -2)),
        # C(t) = +sqrt(4 + t) for negative rank
        (ChernCharacter(-1, 0, 2, 0), 5, (2, 3)),
        # rank zero: every circle is centered at d_v / c_v
        (ChernCharacter(0, 1, Fraction(-1, 2), Fraction(1, 6)), 7, (Fraction(-1, 2),)),
    ],
    ids=["rank-one", "negative-rank", "rank-zero"],
)
def test_center_hull_contains_exact_centers(total, t, centers):
    ctx = walls_module._WallContext(total, REGION)
    lo, hi = walls_module._center_hull(ctx, Fraction(t))
    assert lo <= min(centers) and max(centers) <= hi
    if total.r == 0:
        assert lo == hi == centers[0]


@pytest.mark.parametrize("total", ORACLE_TOTALS, ids=str)
def test_center_hull_contains_every_oracle_wall(total):
    ctx = walls_module._WallContext(total, REGION)
    walls = brute_force_walls(total, REGION, SearchBounds(5, 20, 100))
    for w in walls:
        lo, hi = walls_module._center_hull(ctx, w.circle.radius_sq)
        assert lo <= w.circle.center <= hi, w

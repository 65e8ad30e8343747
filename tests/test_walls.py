from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction
from pathlib import Path
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
WIDE_REGION = Region(-40, 40, 1600)
GOLDEN = Path(__file__).parent / "golden"
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
    # external tangency is disjointness, internal tangency is nesting
    assert nested(Circle(0, 1), Circle(2, 1)) == NestedRelation.DISJOINT
    assert nested(Circle(0, 4), Circle(3, 1)) == NestedRelation.DISJOINT
    assert nested(Circle(3, 1), Circle(0, 4)) == NestedRelation.DISJOINT
    assert nested(Circle(0, Fraction(1, 4)), Circle(Fraction(-3, 2), 1)) == NestedRelation.DISJOINT
    assert nested(Circle(0, 4), Circle(1, 1)) == NestedRelation.SECOND_INSIDE_FIRST
    assert nested(Circle(1, 1), Circle(0, 4)) == NestedRelation.FIRST_INSIDE_SECOND


def _reference_nested(a: tuple, b: tuple) -> NestedRelation:
    """The relation of two circles given as ``(center, radius)``."""
    (ca, ra), (cb, rb) = a, b
    gap = abs(ca - cb)
    if (ca, ra) == (cb, rb):
        return NestedRelation.EQUAL
    if gap >= ra + rb:
        return NestedRelation.DISJOINT
    if gap <= rb - ra:
        return NestedRelation.FIRST_INSIDE_SECOND
    if gap <= ra - rb:
        return NestedRelation.SECOND_INSIDE_FIRST
    return NestedRelation.CROSSING


_circle_data = st.tuples(
    st.fractions(-4, 4, max_denominator=3), st.fractions(0, 4, max_denominator=3).filter(bool)
)


@given(_circle_data, _circle_data)
@example((Fraction(0), Fraction(1)), (Fraction(2), Fraction(1)))  # external tangency
@example((Fraction(0), Fraction(2)), (Fraction(1), Fraction(1)))  # internal tangency
@settings(max_examples=300, deadline=None)
def test_nested_matches_reference_on_rational_radii(a, b):
    circles = [Circle(center, radius * radius) for center, radius in (a, b)]
    assert nested(*circles) == _reference_nested(a, b)


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


def _assert_nested_chain(circles: list) -> int:
    """Assert that each circle of a sorted wall list lies inside every
    earlier one, or is an earlier circle carried by another pair (numerical
    walls of one class are nested); return how many pairs were compared."""
    for i, outer in enumerate(circles):
        for inner in circles[i + 1:]:
            relation = nested(inner, outer)
            assert relation in (NestedRelation.FIRST_INSIDE_SECOND, NestedRelation.EQUAL), (
                inner, outer, relation)
    return len(circles) * (len(circles) - 1) // 2


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("walls_*.json")))
def test_golden_walls_form_nested_chain(name):
    walls = json.loads((GOLDEN / name).read_text())["walls"]
    circles = [Circle(Fraction(w["center"]), Fraction(w["radius_sq"])) for w in walls]
    assert _assert_nested_chain(circles) > 0


@pytest.mark.parametrize("n", [-3, 0, 2])
def test_curve_class_walls_form_nested_chain(n):
    # The curve ideals of degree d <= 11 and genus g < 20, twisted by n, over
    # a window holding their walls at every twist.
    pairs = 0
    for degree in range(1, 12):
        for genus in range(20):
            try:
                walls = enumerate_tilt_walls(curve_ideal_ch(degree, genus).twist(n), WIDE_REGION)
            except WallSearchError:
                continue
            pairs += _assert_nested_chain([w.circle for w in walls])
    assert pairs > 0


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
    # its derived dual is refused through that class, with the same message
    with pytest.raises(WallSearchError) as refused:
        enumerate_tilt_walls(ChernCharacter(-1, 0, 6, 0), REGION)
    assert str(refused.value) == (
        "cannot certify termination for this class (no vacuity disc below the"
        " candidate circles); pass explicit SearchBounds"
    )
    # rank-zero classes without a positivity disc have walls accumulating
    # at their center and are refused as well
    with pytest.raises(WallSearchError, match="rank-zero"):
        enumerate_tilt_walls(
            ChernCharacter(0, 1, Fraction(-11, 2), Fraction(79, 6)), REGION
        )
    # an explicit box always works, through the oracle's own entry: the
    # derived search takes no box
    with pytest.raises(TypeError):
        enumerate_tilt_walls(ChernCharacter(1, 0, -6, 0), REGION, SearchBounds(2, 8, 30))
    walls = brute_force_walls(ChernCharacter(1, 0, -6, 0), REGION, SearchBounds(2, 8, 30))
    assert [(w.circle, str(w.sub), str(w.quotient)) for w in walls] == [
        (Circle(Fraction(-13, 2), Fraction(121, 4)), "1,-1,1/2", "0,1,-13/2"),
        (Circle(Fraction(-11, 2), Fraction(73, 4)), "1,-1,-1/2", "0,1,-11/2"),
        (Circle(Fraction(-9, 2), Fraction(33, 4)), "1,-1,-3/2", "0,1,-9/2"),
        (Circle(-4, 4), "1,-2,2", "0,2,-8"),
        (Circle(Fraction(-7, 2), Fraction(1, 4)), "1,-1,-5/2", "0,1,-7/2"),
        (Circle(Fraction(-7, 2), Fraction(1, 4)), "2,-5,11/2", "-1,5,-23/2"),
    ]


#: Ranks 4 and 5 whose middle-rank caps lie far above their walls: the hull
#: windows of the derived search hold tens of millions of triples, the
#: walked windows a few hundred.  The oracle box (5, 20, 100) holds a member
#: of each of their 86, 85, 131 and 0 walls over REGION.
HIGH_RANK_TOTALS = [
    ChernCharacter(4, 9, Fraction(-41, 2), 44),
    ChernCharacter(-4, 9, Fraction(43, 2), 69),
    ChernCharacter(5, 9, Fraction(-39, 2), Fraction(98, 3)),
    ChernCharacter(-5, -2, 21, 141),
]

ORACLE_TOTALS = [
    ChernCharacter(1, 0, -6, 15),
    ChernCharacter(1, 0, -1, 1),
    ChernCharacter(1, 0, 0, 0),
    ChernCharacter(2, 0, -2, 2),
    ChernCharacter(2, -1, Fraction(-5, 2), Fraction(29, 6)),
    ChernCharacter(3, -2, -1, Fraction(8, 3)),
    ChernCharacter(1, -3, Fraction(-3, 2), Fraction(57, 2)),  # V twisted by 3
    *HIGH_RANK_TOTALS,
]


@pytest.mark.parametrize("total", ORACLE_TOTALS, ids=str)
def test_oracle_equivalence(total):
    bounds = SearchBounds(5, 20, 100)
    walls = enumerate_tilt_walls(total, REGION)
    assert walls == brute_force_walls(total, REGION, bounds)
    # the oracle's clip loses no wall of its box
    assert walls == _whole_row_walls(total, REGION, bounds)
    _assert_nested_chain([w.circle for w in walls])


#: Boxes with odd and even ``two_d_max``, including ``two_d_max = 0``; every
#: box holds rows of negative ``c``.
LATTICE_BOXES = [
    (V, SearchBounds(2, 5, 7)),
    (V, SearchBounds(3, 4, 10)),
    (ChernCharacter(-2, -6, -3, 19), SearchBounds(1, 3, 0)),
    (ChernCharacter(0, 6, -9, 7), SearchBounds(0, 6, 1)),
    (ChernCharacter(0, 6, -9, 7), SearchBounds(2, 6, 30)),
    (HIGH_RANK_TOTALS[0], SearchBounds(4, 9, 24)),
    (ChernCharacter(1, 0, 1, 0), SearchBounds(2, 4, 9)),  # disc(v) = -2
]


def _box_rows(bounds: SearchBounds) -> list:
    return [
        (r, c) for r in range(-bounds.r_max, bounds.r_max + 1)
        for c in range(-bounds.c_max, bounds.c_max + 1)
    ]


def _whole_row_walls(total: ChernCharacter, region: Region, bounds: SearchBounds) -> list:
    """The box's walls from whole step-1 rows, no clip: the predicate itself
    rejects each off-lattice triple and each triple failing a linear test or
    the circle test."""
    ctx, whole = walls_module._WallContext(total, region), set()
    Ds = range(-bounds.two_d_max, bounds.two_d_max + 1)
    for r, c in _box_rows(bounds):
        walls_module._row_walls(ctx, whole, r, c, Ds)
    return walls_module._build_walls(ctx, whole)


@pytest.mark.parametrize("total, bounds", LATTICE_BOXES, ids=str)
def test_oracle_visits_only_the_lattice(total, bounds):
    # Every row of the box whose window |2d| <= two_d_max holds a lattice
    # point that passes the linear tests and the circle test (the Fraction
    # reference clip) reaches the predicate once, in box order, with exactly
    # those points as one step-2 range; every other row of the box is
    # skipped, its reference clip empty.
    rows: list = []
    row_walls = walls_module._row_walls

    def record(ctx, sink, r, c, Ds):
        rows.append((r, c, Ds))
        row_walls(ctx, sink, r, c, Ds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walls_module, "_row_walls", record)
        walls = brute_force_walls(total, REGION, bounds)
    ctx, t = walls_module._WallContext(total, REGION), bounds.two_d_max
    reference = [(r, c, _reference_clip(ctx, r, c, range(-t, t + 1))) for r, c in _box_rows(bounds)]
    assert _joined_rows(rows) == [row for row in reference if row[2]]
    assert all(Ds and Ds.step == 2 for _, _, Ds in rows)
    assert len(rows) < len(reference)
    assert walls == _whole_row_walls(total, REGION, bounds)


def _joined_rows(pieces: list) -> list:
    """``(r, c, Ds)`` as handed to the predicate, as ``(r, c, [2d, ...])``;
    asserts that no row is handed over twice: the circle test's gap cuts a
    window from one side only."""
    assert len({(r, c) for r, c, _ in pieces}) == len(pieces)
    return [(r, c, list(Ds)) for r, c, Ds in pieces]


def _count_built(monkeypatch) -> list:
    built = [0]
    candidate = walls_module.WallCandidate

    def counting(*args):
        built[0] += 1
        return candidate(*args)

    monkeypatch.setattr(walls_module, "WallCandidate", counting)
    return built


@pytest.mark.parametrize("total", ORACLE_TOTALS, ids=str)
def test_each_oracle_wall_is_built_once(total, monkeypatch):
    # Both members of a pair often lie in the box; the second one found is
    # skipped before its wall is built.
    built = _count_built(monkeypatch)
    walls = brute_force_walls(total, REGION, SearchBounds(5, 20, 100))
    assert built[0] == len(walls)


@pytest.mark.parametrize("total", [t for t in ORACLE_TOTALS if t.r > 0], ids=str)
def test_each_derived_wall_is_built_once(total, monkeypatch):
    # The outside-rank loop scans the complementary ranks r_v + n and -n.
    built = _count_built(monkeypatch)
    walls = enumerate_tilt_walls(total, REGION)
    assert built[0] == len(walls)


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
    total: ChernCharacter, region: Region, r: int, c: int, D: int
) -> Optional[walls_module.WallCandidate]:
    """The wall predicate as it stood before any integer test: admissibility,
    region and positivity are checked on Fractions."""
    v_tr = total.truncation()
    rv, cv, Dv = int(v_tr.r), int(v_tr.c), int(2 * v_tr.d)
    if (D - c) % 2:
        return None
    ru, cu, Du = rv - r, cv - c, Dv - D
    if (r, c, D) == (0, 0, 0) or (ru, cu, Du) == (0, 0, 0):
        return None
    k1 = rv * c - r * cv
    if k1 == 0:
        return None
    if c * c - r * D < 0 or cu * cu - ru * Du < 0:
        return None
    K2 = rv * D - r * Dv
    K3 = cv * D - c * Dv
    quarter = K2 * K2 - 4 * k1 * K3
    if quarter <= 0:
        return None
    if math.gcd(r, c, (D - c) // 2) != 1:
        return None
    if math.gcd(ru, cu, (Du - cu) // 2) != 1:
        return None
    circle = Circle(Fraction(K2, 2 * k1), Fraction(quarter, 4 * k1 * k1))
    w_tr = ChernTruncation(r, c, Fraction(D, 2))
    if not wall_admissible(w_tr, v_tr, TiltPoint(circle.center, circle.radius_sq)):
        return None
    if not _reference_meets_region(circle, region):
        return None
    if not _reference_reaches_nonnegative(total, circle):
        return None
    u_tr = ChernTruncation(ru, cu, Fraction(Du, 2))
    return walls_module.WallCandidate(circle, *_reference_orient(w_tr, u_tr))


def _reference_orient(a: ChernTruncation, b: ChernTruncation) -> tuple:
    """The documented ``(sub, quotient)`` of :class:`walls.WallCandidate`, on
    truncations: the member of positive rank when exactly one has it,
    otherwise the lexicographically smaller."""
    if (a.r > 0) != (b.r > 0):
        return (a, b) if a.r > 0 else (b, a)
    return (a, b) if (a.r, a.c, a.d) <= (b.r, b.c, b.d) else (b, a)


def _assert_row_matches(
    total: ChernCharacter, region: Region, ctx: walls_module._WallContext, r: int, c: int, Ds: range
) -> int:
    """Assert that one row keeps exactly the reference's walls, built from
    the row's integer sink; return how many.

    Two triples of one row never share a pair (that would force 2r = r_v
    and 2c = c_v, so k1 = 0), so the row's sink holds every survivor.
    """
    sink: set = set()
    walls_module._row_walls(ctx, sink, r, c, Ds)
    expected = [_reference_candidate(total, region, r, c, D) for D in Ds]
    expected = [w for w in expected if w is not None]
    expected.sort(key=lambda w: (-w.circle.radius_sq, w.sub.r, w.sub.c, w.sub.d))
    assert walls_module._build_walls(ctx, sink) == expected, (r, c, region)
    assert len(sink) == len(expected)
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
    # a quintic of genus 2: its rank-zero row c = 1 clips to three 2d
    ChernCharacter(1, 0, -5, 11),
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
                kept += _assert_row_matches(total, region, ctx, r, c, Ds)
    assert kept > 0


@pytest.mark.parametrize("total", DIFFERENTIAL_TOTALS, ids=str)
def test_oracle_matches_whole_row_scan(total):
    bounds = SearchBounds(3, 8, 24)
    for region in DIFFERENTIAL_REGIONS:
        oracle = brute_force_walls(total, region, bounds)
        assert oracle == _whole_row_walls(total, region, bounds), region


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


@st.composite
def pair_sets(draw) -> tuple[ChernCharacter, list]:
    """A total and a shuffled list of pairs ``(sub, total - sub)`` as
    integers ``(r, c, 2d)``, each sub with a circle.  Each sub ``w`` comes
    with ``w' = a w + b v`` for an ``a`` in 2..3, whose circle is the same
    and whose ``k1`` is ``a k1``, so equal radii come from different ``k1``."""
    total = draw(rational_totals())
    rv, cv, Dv = int(total.r), int(total.c), int(2 * total.d)
    pairs = {}
    for r, c, j, a, b, twin in draw(st.lists(st.tuples(
            st.integers(-4, 4), st.integers(-12, 12), st.integers(-20, 20),
            st.integers(2, 3), st.integers(-2, 2), st.booleans()), max_size=30)):
        D = c + 2 * j
        for w in [(r, c, D)] + twin * [(a * r + b * rv, a * c + b * cv, a * D + b * Dv)]:
            k1, K2 = rv * w[1] - w[0] * cv, rv * w[2] - w[0] * Dv
            if k1 and K2 * K2 - 4 * k1 * (cv * w[2] - w[1] * Dv) > 0:
                pairs[w] = (w, (rv - w[0], cv - w[1], Dv - w[2]))
    return total, draw(st.permutations(list(pairs.values())))


@given(pair_sets())
# w = (0, 1, -11) of V and 2 w + v = (1, 2, -34) share the circle of squared
# radius 73/4, with k1 = 1 and 2; (1, -1, 1) has the larger 121/4.
@example((V, [((1, 2, -34), (0, -2, 22)), ((0, 1, -11), (1, -1, -1)), ((1, -1, 1), (0, 1, -13))]))
@settings(max_examples=200, deadline=None)
def test_build_walls_sorts_like_fractions(total_pairs):
    # The integer sort key of walls._build_walls against Fraction radii:
    # descending squared radius, then ascending sub, on shuffled pairs.
    total, pairs = total_pairs
    v = ChernTruncation(total.r, total.c, total.d)
    reference = []
    for (r, c, D), (rq, cq, Dq) in pairs:
        w = ChernTruncation(r, c, Fraction(D, 2))
        circle = tilt_wall_locus(v, w)
        reference.append(((-circle.radius_sq, (r, c, D)), walls_module.WallCandidate(
            circle, w, ChernTruncation(rq, cq, Fraction(Dq, 2)))))
    reference.sort(key=lambda keyed: keyed[0])
    ctx = walls_module._WallContext(total, REGION)
    assert walls_module._build_walls(ctx, pairs) == [wall for _, wall in reference]


@given(
    rational_totals(), rational_totals(),
    st.fractions(min_value=-50, max_value=50, max_denominator=16),
    st.fractions(min_value=Fraction(1, 16), max_value=100, max_denominator=16),
)
@example(V, line_bundle_ch(-2), Fraction(-4), Fraction(1))
def test_character_and_truncation_give_the_same_geometry(ch, other, beta, alpha_sq):
    """The locus and slope-zero queries read only ``r``, ``c`` and ``d``: a
    character and its truncation answer alike, in either argument position."""
    t, u = ch.truncation(), other.truncation()
    for a in (ch, t):
        for b in (other, u):
            assert tilt_wall_locus(a, b) == tilt_wall_locus(t, u)
            assert tilt_wall_locus(b, a) == tilt_wall_locus(u, t)
    points = [TiltPoint(beta, alpha_sq)]
    if ch.r:
        height = hyperbola_alpha_sq(t, beta)
        assert hyperbola_alpha_sq(ch, beta) == height
        if height is not None:
            points.append(TiltPoint(beta, height))
    for point in points:
        assert on_hyperbola(ch, point) == on_hyperbola(t, point)


@given(rational_totals(), regions(), st.integers(-3, 3), st.integers(-10, 2))
@settings(max_examples=60, deadline=None)
def test_predicate_matches_fraction_reference_on_random_rows(total, region, r0, c0):
    ctx = walls_module._WallContext(total, region)
    for r in range(r0 - 1, r0 + 2):
        for c in range(c0, c0 + 9):
            _assert_row_matches(total, region, ctx, r, c, range(-30, 31))


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


#: Every way to build a Fraction, compute on one or compare one;
#: ``_from_coprime_ints`` (Python 3.12+) and ``__int__`` (3.11+) where they exist.
FRACTION_WORK = (
    "__new__", "_from_coprime_ints",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__divmod__", "__rdivmod__", "__mod__", "__rmod__", "__pow__", "__rpow__",
    "__pos__", "__neg__", "__abs__", "__int__", "__trunc__", "__floor__", "__ceil__", "__round__",
    "__eq__", "__lt__", "__gt__", "__le__", "__ge__", "__bool__",
)


@pytest.mark.parametrize("total", REFUSED_TOTALS + [-v.dual() for v in REFUSED_TOTALS], ids=str)
def test_refusal_comes_before_any_scan(total, monkeypatch):
    # These classes and their derived duals have no positivity zero circle,
    # so the refusal is decided on integers: no rational circle and no square
    # root bound is built, and once the class and the region exist no
    # Fraction is built, computed on or compared, for a negative rank either.
    def fail(what):
        def call(*args, **kwargs):
            raise AssertionError(f"{what} before the refusal")

        return call

    monkeypatch.setattr(walls_module, "_row_walls", fail("a row was scanned"))
    monkeypatch.setattr(walls_module, "bmt_zero_circle", fail("the zero circle was built"))
    monkeypatch.setattr(walls_module, "_sqrt_bounds", fail("a square root was bounded"))
    with monkeypatch.context() as patch:
        for name in FRACTION_WORK:
            if hasattr(Fraction, name):
                patch.setattr(Fraction, name, fail(f"Fraction.{name} ran"))
        with pytest.raises(WallSearchError, match="cannot certify"):
            enumerate_tilt_walls(total, REGION)


def test_rank_zero_exits_are_decided_before_the_scan(monkeypatch):
    def fail(*args):
        raise AssertionError("scanned or certified a class decided without either")

    monkeypatch.setattr(walls_module, "_scan_rank", fail)
    with pytest.raises(WallSearchError, match="rank-zero"):
        enumerate_tilt_walls(REFUSED_TOTALS[2], REGION)
    # c_v < 0 leaves no admissible top: no certificate is computed either
    monkeypatch.setattr(walls_module, "_vacuity_radius_cap", fail)
    assert enumerate_tilt_walls(-REFUSED_TOTALS[2], REGION) == []


def _reference_zero_circle(v: ChernCharacter) -> Optional[Circle]:
    """The zero circle of the positivity form on Fractions: ``Q`` vanishes
    on the circle ``disc(v) (beta^2 + alpha^2) + g1 beta + g0 = 0``, with
    ``g1 = -2 c d + 6 r e`` and ``g0 = 4 d^2 - 6 c e``."""
    delta = v.discriminant()
    if delta <= 0:
        return None
    g1 = -2 * v.c * v.d + 6 * v.r * v.e
    g0 = 4 * v.d * v.d - 6 * v.c * v.e
    center = -g1 / (2 * delta)
    radius_sq = center * center - g0 / delta
    if radius_sq <= 0:
        return None
    return Circle(center, radius_sq)


@st.composite
def off_lattice_totals(draw) -> ChernCharacter:
    """Rational classes with small denominators, mostly off the lattice."""
    return ChernCharacter(*(Fraction(draw(st.integers(-24, 24)), draw(st.integers(1, 6)))
                            for _ in range(4)))


@given(st.one_of(rational_totals(), off_lattice_totals()))
@example(ChernCharacter(2, 0, 1, 0))  # disc(v) < 0
@example(ChernCharacter(1, 0, 0, 0))  # disc(v) = 0
@example(ChernCharacter(1, 0, -2, Fraction(8, 3)))  # G1^2 = 4 G0 delta_g: radius zero
@example(ChernCharacter(1, 0, -2, Fraction(-8, 3)))
@example(V)
@example(Fraction(1, 3) * V)  # off the lattice, with V's circle
@example(ChernCharacter(Fraction(1, 2), Fraction(-1, 3), Fraction(-5, 4), 2))
@settings(max_examples=200, deadline=None)
def test_zero_circle_of_the_context_matches_bmt_zero_circle(total):
    # bmt_zero_circle reads an off-lattice class as a lattice multiple; the
    # search reads the circle its context builds.  Both are the reference's.
    circle = _reference_zero_circle(total)
    assert bmt_zero_circle(total) == circle
    if not total.is_lattice():
        return
    ctx = walls_module._WallContext(total, REGION)
    # the integers the context reads from numerators and denominators
    assert (ctx.rv, ctx.cv, ctx.Dv) == (int(total.r), int(total.c), int(2 * total.d))
    assert type(ctx.rv) is type(ctx.cv) is type(ctx.Dv) is int
    assert ctx.zero_circle == circle


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


def _dual(total: ChernCharacter) -> ChernCharacter:
    """The derived dual ``ch(E^v[1]) = (-r, c, -d, e)``."""
    return ChernCharacter(-total.r, total.c, -total.d, total.e)


def _mirror(region: Region) -> Region:
    """The region reflected by ``beta -> -beta``."""
    return Region(-region.beta_max, -region.beta_min, region.alpha_sq_max)


def _canonical(total: ChernCharacter, region: Region) -> tuple[ChernCharacter, Region]:
    """The class and region the derived search runs on: a class of negative
    rank is searched as its derived dual over the mirrored region."""
    return (_dual(total), _mirror(region)) if total.r < 0 else (total, region)


def _assert_walls_are_dual_equivariant(total: ChernCharacter, bounds: SearchBounds) -> None:
    # The derived dual with beta -> -beta is an exact symmetry of the wall
    # predicate: each circle is reflected (center negated, radius kept) and
    # each member is mapped by the same involution.  The derived search sends
    # negative rank through this map, so it is pinned on the exhaustive scan,
    # which never takes it: the box is symmetric under (r, 2d) -> (-r, -2d),
    # and REGION is not symmetric about beta = 0.
    def as_set(total: ChernCharacter, region: Region) -> set:
        return {
            (w.circle.center, w.circle.radius_sq, frozenset((w.sub, w.quotient)))
            for w in brute_force_walls(total, region, bounds)
        }

    expected = {
        (-center, radius_sq, frozenset(ChernTruncation(-m.r, m.c, -m.d) for m in pair))
        for center, radius_sq, pair in as_set(total, REGION)
    }
    assert as_set(_dual(total), _mirror(REGION)) == expected


@pytest.mark.parametrize("total", TWIST_TOTALS, ids=str)
def test_walls_are_derived_dual_equivariant(total):
    _assert_walls_are_dual_equivariant(total, SearchBounds(5, 20, 100))


@st.composite
def twisted_curve_classes(draw) -> ChernCharacter:
    degree, genus = draw(st.integers(1, 8)), draw(st.integers(-3, 12))
    return curve_ideal_ch(degree, genus).twist(draw(st.integers(-3, 5)))


# Most rational_totals are refused or wall-free over the window; the curve
# classes carry walls through it.
@given(st.one_of(rational_totals(), twisted_curve_classes()))
@example(ChernCharacter(2, 0, -50, 300))
@example(ChernCharacter(-2, -6, -3, 19))
@settings(max_examples=150, deadline=None)
def test_walls_are_derived_dual_equivariant_on_random_classes(total):
    _assert_walls_are_dual_equivariant(total, SearchBounds(3, 8, 30))


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
def small_totals(draw, max_rank: int = 3) -> ChernCharacter:
    r = draw(st.integers(min_value=-max_rank, max_value=max_rank))
    c = draw(st.integers(min_value=-4, max_value=4))
    k = draw(st.integers(min_value=-6, max_value=6))
    t = draw(st.integers(min_value=-4, max_value=4))
    d = Fraction(c, 2) + k
    e = t - 2 * d - Fraction(11, 6) * c - r
    return ChernCharacter(r, c, d, e)


@given(small_totals())
@example(V)  # its four walls have rank-zero quotients, the outermost at the torsion bound
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_enumerated_walls_satisfy_invariants(total):
    region = Region(-6, 0, 16)
    try:
        walls = enumerate_tilt_walls(total, region)
    except WallSearchError:
        assume(False)
    delta = total.discriminant()
    for w in walls:
        assert w.total() == total.truncation()
        assert w.sub.is_primitive() and w.quotient.is_primitive()
        assert wall_admissible(w.sub, total, w.top)
        assert circle_meets_region(w.circle, region)
        for member in (w.sub, w.quotient):
            if member.r == 0:
                # the torsion bound c^2 < disc(v), rho <= (disc(v) - c^2) / (2 c r_v),
                # under which rank zero shares the middle-rank cap
                c = member.c
                assert c * c < delta
                assert (2 * c * total.r) ** 2 * w.circle.radius_sq <= (delta - c * c) ** 2


def _certificate_refuses(total: ChernCharacter, region: Region) -> bool:
    """Whether the search must refuse: a positive discriminant, no certified
    vacuity radius, and for rank zero some admissible top (``c_v > 0``).  The
    certificate is taken on the class the search runs on (:func:`_canonical`)."""
    ctx = walls_module._WallContext(*_canonical(total, region))
    uncertified = ctx.delta > 0 and walls_module._vacuity_radius_cap(ctx) <= 0
    return uncertified and (ctx.rv != 0 or ctx.cv > 0)


@given(small_totals())
@example(ChernCharacter(0, -1, Fraction(11, 2), Fraction(-79, 6)))  # c_v < 0: no tops, []
@example(REFUSED_TOTALS[0])
@example(REFUSED_TOTALS[1])
@example(REFUSED_TOTALS[2])
@settings(max_examples=40, deadline=None)
def test_refusal_is_decided_by_the_vacuity_certificate(total):
    region = Region(-6, 0, 16)
    expect_refusal = _certificate_refuses(total, region)
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


@given(small_totals(max_rank=5))
@example(REFUSED_TOTALS[0])
@example(REFUSED_TOTALS[2])
@example(ChernCharacter(-2, -6, -3, 19))
@example(ChernCharacter(0, 6, -9, 7))
@example(HIGH_RANK_TOTALS[0])
@example(HIGH_RANK_TOTALS[2])
@settings(max_examples=150, deadline=None)
def test_oracle_equivalence_on_random_classes(total):
    # Refusals are checked against the certificate; every other class must
    # equal the oracle over a box strictly containing every scanned row: the
    # hull windows handed to the per-rank walker, or, when their box holds
    # over 10^7 triples (some classes of rank 4 and 5 reach 2 * 10^8), the
    # walked windows the predicate is handed.
    region = Region(-6, 0, 16)
    expect_refusal = _certificate_refuses(total, region)
    hull: list = []
    rows: list = []
    row_walls = walls_module._row_walls

    def record(ctx, sink, r, c, Ds):
        rows.append((r, c, Ds))
        row_walls(ctx, sink, r, c, Ds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walls_module, "_walk_rank", _recording_walk_rank(hull, walk=True))
        mp.setattr(walls_module, "_row_walls", record)
        try:
            smart = enumerate_tilt_walls(total, region)
        except WallSearchError:
            assert expect_refusal and not rows
            return
    assert not expect_refusal

    def box(scanned: list) -> SearchBounds:
        return SearchBounds(
            max((abs(r) for r, _, _ in scanned), default=0) + 2,
            max((abs(c) for _, c, _ in scanned), default=0) + 4,
            max((max(-Ds[0], Ds[-1]) for _, _, Ds in scanned if Ds), default=0) + 8,
        )

    bounds = box(hull)
    if math.prod(2 * bound + 1 for bound in bounds) > 10**7:
        bounds = box(rows)
    assert smart == brute_force_walls(total, region, bounds)
    _assert_nested_chain([w.circle for w in smart])


def _reference_sqrt_bounds(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    scale = 1 << bits
    root = math.isqrt(x.numerator * x.denominator * scale * scale)
    q = x.denominator * scale
    return Fraction(root, q), Fraction(root + 1, q)


def _reference_vacuity_cap(ctx: walls_module._WallContext) -> Fraction:
    """The vacuity cap as it stood before the center hull: each bisection step
    retries a 32/64/192-bit ladder, taking both roundings of ``C(0)`` and
    ``C(t)`` as four separate endpoints."""
    zero = ctx.zero_circle
    if zero is None:
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
                        ends = (mu - hi - zero.center, mu - lo - zero.center)
                    else:
                        ends = (mu + lo - zero.center, mu + hi - zero.center)
                else:
                    fixed = Fraction(ctx.Dv, 2 * ctx.cv) - zero.center
                    ends = (fixed, fixed)
                worst = max(worst, abs(ends[0]), abs(ends[1]))
            reach = worst + _reference_sqrt_bounds(t, bits)[1]
            if reach * reach < zero.radius_sq:
                return True
        return False

    if not certified(Fraction(0)):
        return Fraction(0)
    lo, hi = Fraction(0), zero.radius_sq
    for _ in range(48):
        mid = (lo + hi) / 2
        if certified(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _assert_cap_matches_reference(total: ChernCharacter) -> Fraction:
    # The search certifies the class it runs on; the reference certifies the
    # class as given, on its own branch for negative rank.
    region = Region(-6, 0, 16)
    searched = walls_module._WallContext(*_canonical(total, region))
    t_stop = walls_module._vacuity_radius_cap(searched)
    assert t_stop == _reference_vacuity_cap(walls_module._WallContext(total, region))
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


@pytest.mark.parametrize("n", [-3, 0, 2])
def test_vacuity_cap_bounds_few_square_roots(n, monkeypatch):
    # The hull end C(0) is bounded once per class; each of the 49 steps
    # bounds sqrt(disc(v)/r_v^2 + t) and sqrt(t): 99 bounds, not 147.
    calls = [0]
    sqrt_bounds = walls_module._sqrt_bounds

    def counting(x):
        calls[0] += 1
        return sqrt_bounds(x)

    monkeypatch.setattr(walls_module, "_sqrt_bounds", counting)
    curves = (curve_ideal_ch(d, g).twist(n) for d in range(1, 12) for g in range(20))
    certified = 0
    for total in (V, *curves):
        calls[0] = 0
        ctx = walls_module._WallContext(*_canonical(total, Region(-6, 0, 16)))
        if walls_module._vacuity_radius_cap(ctx) > 0:
            certified += 1
            assert calls[0] <= 100, total
    assert certified > 0


@pytest.mark.parametrize(
    "total, t, centers",
    [
        # C(t) = -sqrt(4 + t): C(0) = -2 and C(5) = -3
        (ChernCharacter(1, 0, -2, 0), 5, (-3, -2)),
        # rank zero: every circle is centered at D_v / (2 c_v)
        (ChernCharacter(0, 1, Fraction(-1, 2), Fraction(1, 6)), 7, (Fraction(-1, 2),)),
    ],
    ids=["rank-one", "rank-zero"],
)
def test_center_hull_contains_exact_centers(total, t, centers):
    ctx = walls_module._WallContext(total, REGION)
    lo, hi = walls_module._center_hull(ctx, Fraction(t))
    assert lo <= min(centers) and max(centers) <= hi
    if total.r == 0:
        assert lo == hi == centers[0]


@pytest.mark.parametrize("total", ORACLE_TOTALS, ids=str)
def test_center_hull_contains_every_oracle_wall(total):
    total, region = _canonical(total, REGION)
    ctx = walls_module._WallContext(total, region)
    walls = brute_force_walls(total, region, SearchBounds(5, 20, 100))
    for w in walls:
        lo, hi = walls_module._center_hull(ctx, w.circle.radius_sq)
        assert lo <= w.circle.center <= hi, w


def _reference_scan_rank(
    ctx: walls_module._WallContext, sink: set, r: int, t_hi: Fraction, torsion_cap: bool = True
) -> None:
    """The rank scan with Fraction windows; with ``torsion_cap``, the rows
    of rank zero stop at the torsion bound ``c^2 < disc(v)``."""
    rv = ctx.rv
    if rv == 0:
        return _reference_scan_rank_zero_total(ctx, sink, r, t_hi)
    window = walls_module._center_hull(ctx, t_hi)
    im_hi = max(ctx.cv - rv * C for C in window)
    ends = (window[0] * r, window[1] * r)
    for c in range(math.ceil(min(ends)), math.floor(max(ends) + im_hi) + 1):
        if torsion_cap and r == 0 and c * c >= ctx.delta:
            break
        k1 = rv * c - r * ctx.cv
        d_ends = [(C * k1 + r * Fraction(ctx.Dv, 2)) / rv for C in window]
        Ds = range(math.ceil(2 * min(d_ends)), math.floor(2 * max(d_ends)) + 1)
        walls_module._row_walls(ctx, sink, r, c, Ds)


def _reference_scan_rank_zero_total(
    ctx: walls_module._WallContext, sink: set, r: int, t_hi: Fraction
) -> None:
    """One rank of a rank-zero total's scan on Fractions.

    Every circle has the center ``C = d_v / c_v``, which no hull computes
    here.  Admissibility at the top is ``C r < c < C r + c_v``, and from
    ``rho^2 = C^2 - (c_v D - c D_v) / k1`` a row's ``2d``-window runs
    between ``(c D_v + k1 (C^2 - rho^2)) / c_v`` at ``rho^2 = 0`` and
    ``t_hi``, with ``k1 = -r c_v``.
    """
    cv = ctx.cv
    center = Fraction(ctx.Dv, 2 * cv)
    k1 = -r * cv
    for c in range(math.ceil(center * r), math.floor(center * r + cv) + 1):
        d_ends = [(c * ctx.Dv + k1 * (center * center - t)) / cv for t in (Fraction(0), t_hi)]
        Ds = range(math.ceil(min(d_ends)), math.floor(max(d_ends)) + 1)
        walls_module._row_walls(ctx, sink, r, c, Ds)


def _recording_walk_rank(hull: list, walk: bool):
    """A :func:`walls._walk_rank` that first appends the window of each row
    it is handed to ``hull`` as ``(r, c, range(lo, hi + 1))``, empty or not,
    and then walks the rows, or, with ``walk=False``, hands the predicate
    nothing."""
    walk_rank = walls_module._walk_rank

    def recording(ctx, sink, r, cs, ends, den):
        for c in cs:
            hull.append((r, c, _window(c, ends, den)))
        if walk:
            walk_rank(ctx, sink, r, cs, ends, den)

    return recording


def _scanned_rows(total: ChernCharacter, reference: bool) -> list:
    """Every ``(r, c, start, stop)`` of the hull windows the derived search
    computes, in order, ending in ``"refused"`` when the class is refused.

    The scans hand every hull window, empty or not, to the per-rank walker,
    which records it and hands the predicate nothing (the walker has its
    own tests); the Fraction reference scans hand every hull window to the
    predicate, which records it.  The recorders keep no walls, which the
    scans never read back.
    """
    hull: list = []
    refused: list = []
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(walls_module, "_scan_rank", _reference_scan_rank)
            mp.setattr(walls_module, "_row_walls", lambda ctx, sink, r, c, Ds: hull.append((r, c, Ds)))
        else:
            mp.setattr(walls_module, "_walk_rank", _recording_walk_rank(hull, walk=False))
        try:
            enumerate_tilt_walls(total, REGION)
        except WallSearchError:
            refused.append("refused")
    return [(r, c, Ds.start, Ds.stop) for r, c, Ds in hull] + refused


def _assert_windows_match_reference(total: ChernCharacter) -> int:
    """Assert the scans hand the reference's rows to the predicate; return
    how many rows were scanned."""
    rows = _scanned_rows(total, reference=False)
    assert rows == _scanned_rows(total, reference=True), total
    return sum(row != "refused" for row in rows)


@given(small_totals())
@settings(max_examples=60, deadline=None)
def test_scan_windows_match_fraction_reference_on_small_totals(total):
    _assert_windows_match_reference(total)


@given(rational_totals())
@settings(max_examples=60, deadline=None)
def test_scan_windows_match_fraction_reference_on_rational_totals(total):
    _assert_windows_match_reference(total)


#: Negative-rank and rank-zero totals with walls over a wide window: classes
#: the search runs through the derived dual, and the fixed rank-zero center
#: ``D_v / (2 c_v)`` with ``c_v`` even and odd.
SIGNED_TOTALS = [
    ChernCharacter(-3, -5, Fraction(1, 2), Fraction(67, 6)),
    ChernCharacter(-2, -6, -3, 19),
    ChernCharacter(-2, 5, Fraction(-3, 2), Fraction(5, 6)),
    ChernCharacter(-1, 6, -3, 1),
    ChernCharacter(-1, 5, Fraction(-5, 2), Fraction(5, 6)),
    ChernCharacter(0, 6, -9, 7),
    ChernCharacter(0, 6, -3, 1),
    ChernCharacter(0, 5, Fraction(-5, 2), Fraction(5, 6)),
    ChernCharacter(0, 1, Fraction(-1, 2), Fraction(1, 6)),
]


def _assert_dual_context_matches(total: ChernCharacter, region: Region) -> None:
    # The context read from the caller's numerators with sign -1 is the
    # derived dual's over the mirrored region, built from Fractions: for a
    # negative rank, that of the class and region the search runs on
    # (_canonical).  Its zero circle is the caller's, reflected.
    dual = walls_module._WallContext(total, region, -1)
    expected = walls_module._WallContext(_dual(total), _mirror(region))
    fields = ("rv", "cv", "Dv", "delta", "G1", "G0", "delta_g", "region_ints", "zero_circle")
    assert [getattr(dual, f) for f in fields] == [getattr(expected, f) for f in fields]
    circle = walls_module._WallContext(total, region).zero_circle
    assert dual.zero_circle == (circle and Circle(-circle.center, circle.radius_sq))


@given(rational_totals().filter(lambda v: v.r < 0), regions())
@settings(max_examples=100, deadline=None)
def test_dual_context_matches_the_canonical_context(total, region):
    _assert_dual_context_matches(total, region)


@pytest.mark.parametrize("total", SIGNED_TOTALS, ids=str)
def test_dual_context_matches_the_canonical_context_on_signed_totals(total):
    _assert_dual_context_matches(total, Region(-100, Fraction(7, 3), 10000))


@pytest.mark.parametrize("total", DIFFERENTIAL_TOTALS, ids=str)
def test_scan_windows_match_fraction_reference(total):
    _assert_windows_match_reference(total)


@pytest.mark.parametrize("total", SIGNED_TOTALS, ids=str)
def test_scan_windows_match_fraction_reference_on_signed_totals(total):
    assert _assert_windows_match_reference(total) > 0
    assert enumerate_tilt_walls(total, Region(-100, 100, 10000))


@pytest.mark.parametrize("n", [-3, 0, 2])
def test_scan_windows_match_fraction_reference_on_curve_classes(n):
    rows = 0
    for degree in range(1, 12):
        for genus in range(20):
            rows += _assert_windows_match_reference(curve_ideal_ch(degree, genus).twist(n))
    assert rows > 0


def _reference_hull_rows(total: ChernCharacter, torsion_cap: bool) -> list:
    """Every ``(ctx, r, c, Ds)`` hull window of the Fraction reference scans
    over REGION, in order, with or without the torsion cap on rank zero."""
    rows: list = []
    scan = functools.partial(_reference_scan_rank, torsion_cap=torsion_cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walls_module, "_scan_rank", scan)
        mp.setattr(walls_module, "_row_walls", lambda ctx, sink, r, c, Ds: rows.append((ctx, r, c, Ds)))
        try:
            enumerate_tilt_walls(total, REGION)
        except WallSearchError:
            pass
    return rows


@pytest.mark.parametrize("n", [-3, 0, 2])
def test_torsion_cap_drops_only_empty_rows(n):
    # The derived scan stops the rank-zero rows at c^2 < disc(v), as the
    # capped reference does (the window tests above).  Every row the cap
    # drops from the uncapped reference holds no lattice point that passes
    # the admissibility and discriminant tests, even without the circle test.
    dropped = 0
    for degree in range(1, 12):
        for genus in range(20):
            total = curve_ideal_ch(degree, genus).twist(n)
            capped = _reference_hull_rows(total, torsion_cap=True)
            uncapped = _reference_hull_rows(total, torsion_cap=False)
            past = [row for row in uncapped if row[1] == 0 and row[2] ** 2 >= row[0].delta]
            rows = [row[1:] for row in uncapped if row not in past]
            assert [row[1:] for row in capped] == rows, total
            for ctx, r, c, Ds in past:
                assert _reference_clip(ctx, r, c, Ds, circle=False) == [], (total, c)
            dropped += len(past)
    assert dropped > 0


@pytest.mark.parametrize("total", REFUSED_TOTALS, ids=str)
def test_refused_class_builds_no_search_state(total, monkeypatch):
    # The region's integers and the slope mu are built when a scan or the
    # certificate first reads them, so a class refused for want of a
    # positivity disc builds neither; a certified search builds both.
    contexts: list = []

    class Recording(walls_module._WallContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    monkeypatch.setattr(walls_module, "_WallContext", Recording)
    with pytest.raises(WallSearchError):
        enumerate_tilt_walls(total, REGION)
    assert contexts and not any({"region_ints", "mu"} & set(vars(ctx)) for ctx in contexts)
    contexts.clear()
    assert enumerate_tilt_walls(V, REGION)
    assert {"region_ints", "mu"} <= set(vars(contexts[0]))


def _reference_rank_sequence(total: ChernCharacter) -> list:
    """Every ``(r, t_hi)`` the derived search should hand to the rank scan,
    in order, recomputed on Fractions from the derived bounds, ending in
    ``"refused"`` when the class is refused.

    One member rank of each complementary pair is scanned.  The ranks
    ``0 <= k <= r_v / 2`` come first (none for ``r_v = 0``), each at
    ``(disc(v) / (2 r_v gap))^2`` with ``gap`` the distance from
    ``k c_v / r_v`` to the nearest other integer, and ``gap = 1`` for
    ``k = 0``.  Then the outside ranks ``-e`` follow at
    ``disc(v) / (n^2 - r_v^2)``, ``n = r_v + 2 e``, for as long as that cap
    exceeds the reference vacuity radius.
    """
    total, region = _canonical(total, REGION)
    rv, cv, disc = int(total.r), int(total.c), total.discriminant()
    if disc <= 0 or (rv == 0 and cv <= 0):
        return []
    t_stop = _reference_vacuity_cap(walls_module._WallContext(total, region))
    if t_stop <= 0:
        return ["refused"]
    ranks = []
    for k in range(rv // 2 + 1) if rv else ():
        x = Fraction(k * cv, rv)
        gap = min(x - math.floor(x), math.ceil(x) - x) or 1
        ranks.append((k, (disc / (2 * rv * gap)) ** 2))
    e = 1
    while (cap := disc / ((rv + 2 * e) ** 2 - rv * rv)) > t_stop:
        ranks.append((-e, cap))
        e += 1
    return ranks


def _scanned_ranks(total: ChernCharacter) -> list:
    """Every ``(r, t_hi)`` handed to the rank scan, in order, ending in
    ``"refused"`` when the class is refused."""
    ranks: list = []
    scan_rank = walls_module._scan_rank

    def record(ctx, sink, r, t_hi):
        ranks.append((r, t_hi))
        scan_rank(ctx, sink, r, t_hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walls_module, "_scan_rank", record)
        try:
            enumerate_tilt_walls(total, REGION)
        except WallSearchError:
            ranks.append("refused")
    return ranks


@pytest.mark.parametrize("n", ["signed", -3, 0, 2])
def test_rank_sequence_matches_fraction_reference(n):
    # The stop rank is checked here, not by the window tests, whose reference
    # runs inside the search's own rank loop.
    if n == "signed":
        totals = SIGNED_TOTALS
    else:
        totals = [curve_ideal_ch(d, g).twist(n) for d in range(1, 12) for g in range(20)]
    sequences = [_scanned_ranks(total) for total in totals]
    for total, ranks in zip(totals, sequences):
        assert ranks == _reference_rank_sequence(total), total
    assert any(ranks and ranks[-1] != "refused" for ranks in sequences)


def _complementary_scans(total: ChernCharacter) -> tuple[set, set]:
    """The derived search's sink, and a second sink holding what the ranks it
    skips find: each scanned rank ``r`` scanned again as its complement
    ``r_v - r`` (``r_v - k`` and ``r_v + e``), at the same cap."""
    calls: list = []
    scan_rank = walls_module._scan_rank

    def record(ctx, sink, r, t_hi):
        calls.append((ctx, sink, r, t_hi))
        scan_rank(ctx, sink, r, t_hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walls_module, "_scan_rank", record)
        try:
            enumerate_tilt_walls(total, REGION)
        except WallSearchError:
            return set(), set()
    found = calls[0][1] if calls else set()
    skipped: set = set()
    for ctx, _, r, t_hi in calls:
        scan_rank(ctx, skipped, ctx.rv - r, t_hi)
    return found, skipped


@pytest.mark.parametrize("n", ["differential", "signed", "high-rank", -3, 0, 2])
def test_complementary_ranks_add_no_wall(n):
    # Metamorphic: the predicate, the circle and the orientation are
    # symmetric under w <-> v - w, and complementary ranks share their cap,
    # so the ranks the search skips find only pairs it already holds,
    # oriented alike.
    totals = {"differential": DIFFERENTIAL_TOTALS, "signed": SIGNED_TOTALS,
              "high-rank": HIGH_RANK_TOTALS}.get(n)
    if totals is None:
        totals = [curve_ideal_ch(d, g).twist(n) for d in range(1, 12) for g in range(20)]
    refound = 0
    for total in totals:
        found, skipped = _complementary_scans(total)
        assert skipped <= found, total
        refound += len(skipped)
    assert refound > 0


def _reference_clip(
    ctx: walls_module._WallContext, r: int, c: int, Ds: range, circle: bool = True
) -> list:
    """The walker on Fractions, one ``2d`` at a time: the lattice points of
    ``Ds`` whose pair is admissible at the top ``beta = k2 / k1`` of its
    circle, whose members both have nonnegative discriminant and, with
    ``circle``, whose locus :func:`tilt_wall_locus` is a :class:`Circle`."""
    v = ChernTruncation(ctx.rv, ctx.cv, Fraction(ctx.Dv, 2))
    k1 = v.r * c - r * v.c
    if k1 == 0:
        return []
    kept = []
    for D in Ds:
        if (D - c) % 2:
            continue
        w = ChernTruncation(r, c, Fraction(D, 2))
        u = v - w
        beta = (v.r * w.d - r * v.d) / k1
        if not 0 < w.twist(beta).c < v.twist(beta).c:
            continue
        if w.discriminant() < 0 or u.discriminant() < 0:
            continue
        if not circle or isinstance(tilt_wall_locus(v, w), Circle):
            kept.append(D)
    return kept


def _walked(ctx: walls_module._WallContext, r: int, cs: range, ends: tuple, den: int) -> list:
    """Every ``(r, c, Ds)`` the walker of rank ``r`` hands the predicate on
    the rows ``cs``, in order; the recorder keeps no walls."""
    pieces: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walls_module, "_row_walls", lambda ctx, sink, r, c, Ds: pieces.append((r, c, Ds)))
        walls_module._walk_rank(ctx, set(), r, cs, ends, den)
    assert all(Ds and Ds.step == 2 for _, _, Ds in pieces)
    return pieces


def _window(c: int, ends: tuple, den: int) -> range:
    """The window the walker reads for row ``c`` from ``ends`` over ``den``."""
    (e0, f0), (e1, f1) = ends
    x0, x1 = e0 * c + f0, e1 * c + f1
    return range(-(-min(x0, x1) // den), max(x0, x1) // den + 1)


def _row_kinds(ctx: walls_module._WallContext, r: int, c: int, Ds: range) -> set:
    """The kinds of a walked row, for the coverage asserts: how many ``2d``
    it keeps, whether a constant test fails, and what the circle test did."""
    kept = _reference_clip(ctx, r, c, Ds)
    n = len(kept)
    kinds = {"empty" if n == 0 else "single" if n == 1 else "odd" if n % 2 else "even"}
    if r == 0:
        kinds.add("r = 0")
    if r == ctx.rv:
        kinds.add("r = r_v")
    # a coefficient of a test vanishes on this row, and its constant fails;
    # the four linear tests as the half-lines a 2d >= b of walls._walk_rank
    rv, cv, Dv = ctx.rv, ctx.cv, ctx.Dv
    ru, cu, k1 = rv - r, cv - c, rv * c - r * cv
    s = 1 if k1 > 0 else -1
    a = (-s * rv * r, -s * rv * ru, -r, ru)
    b = (1 - s * (2 * k1 * c + r * r * Dv), 1 - s * (2 * k1 * cu + r * ru * Dv),
         -c * c, ru * Dv - cu * cu)
    if k1 and any(x == 0 and y > 0 for x, y in zip(a, b)):
        kinds.add("constant fails")
    linear = _reference_clip(ctx, r, c, Ds, circle=False)
    if linear != kept:
        kinds.add("gap cuts the window" if ctx.rv else "rank-zero half-line cuts")
    if linear and not kept:
        kinds.add("gap covers the window")
    if ctx.rv and ctx.delta < 0 and Ds:
        kinds.add("negative root discriminant")
    return kinds


def _assert_clip_matches_reference(
    ctx: walls_module._WallContext, r: int, c: int, Ds: range
) -> set:
    """Assert that the walker keeps exactly the reference's ``2d`` of the
    step-1 window ``Ds`` on the row ``c`` and loses no wall of the full
    window; return the kinds of row this was.  The window is handed as the
    ends ``2 lo - 1`` and ``2 hi + 1`` over ``den = 2``, so an empty ``Ds``
    is an empty window."""
    lo = Ds.start
    hi = max(Ds.stop - 1, lo - 1)
    pieces = _walked(ctx, r, range(c, c + 1), ((0, 2 * lo - 1), (0, 2 * hi + 1)), 2)
    rows = _joined_rows(pieces)
    assert (rows[0][2] if rows else []) == _reference_clip(ctx, r, c, Ds), (r, c, Ds)
    full: set = set()
    walls_module._row_walls(ctx, full, r, c, Ds)
    cut: set = set()
    for _, _, piece in pieces:
        walls_module._row_walls(ctx, cut, r, c, piece)
    assert cut == full, (r, c, Ds)
    return _row_kinds(ctx, r, c, Ds)


@pytest.mark.parametrize("totals", [DIFFERENTIAL_TOTALS, SIGNED_TOTALS],
                         ids=["differential", "signed"])
def test_clip_matches_fraction_reference_on_scanned_rows(totals):
    # Every hull window the derived search computes for these classes, on the
    # class it runs on.  These windows hold circles of squared radius
    # between 0 and the rank's cap, so the circle test cuts none of them.
    kinds: set = set()
    for total in totals:
        ctx = walls_module._WallContext(*_canonical(total, REGION))
        for row in _scanned_rows(total, reference=False):
            if row != "refused":
                r, c, start, stop = row
                kinds |= _assert_clip_matches_reference(ctx, r, c, range(start, stop))
    assert {"empty", "single", "odd", "even", "r = 0"} <= kinds


def test_clip_matches_fraction_reference_on_oracle_rows():
    # Every row of LATTICE_BOXES as the oracle walks it: rows of negative c,
    # ranks outside [0, r_v] and classes of rank r_v <= 0, which no derived
    # scan walks, and a class of negative discriminant, whose rows have no
    # gap.
    kinds: set = set()
    for total, bounds in LATTICE_BOXES:
        ctx, t = walls_module._WallContext(total, REGION), bounds.two_d_max
        for r, c in _box_rows(bounds):
            row_kinds = _assert_clip_matches_reference(ctx, r, c, range(-t, t + 1))
            kinds |= row_kinds
            if "empty" not in row_kinds and c < 0:
                kinds.add("kept with c < 0")
            if "empty" not in row_kinds and not min(0, ctx.rv) <= r <= max(0, ctx.rv):
                kinds.add("kept outside [0, r_v]")
    assert {"empty", "single", "odd", "even", "r = 0", "r = r_v", "constant fails",
            "kept with c < 0", "kept outside [0, r_v]", "gap cuts the window",
            "gap covers the window", "rank-zero half-line cuts",
            "negative root discriminant"} <= kinds


#: Rows of V where a zero coefficient leaves a constant test: ``r = 0`` with
#: ``c < 0`` fails im(w) > 0, ``r = r_v`` with ``c > c_v`` fails im(u) > 0,
#: and the rest pass theirs.
@pytest.mark.parametrize("r, c", [(0, -2), (0, 2), (1, 3), (1, -3), (1, 0), (0, 0)])
def test_clip_matches_fraction_reference_on_zero_coefficients(r, c):
    ctx = walls_module._WallContext(V, REGION)
    kinds = _assert_clip_matches_reference(ctx, r, c, range(-41, 40))
    assert ("constant fails" in kinds) == ((r, c) in [(0, -2), (1, 3)])


@given(
    rational_totals(),
    st.one_of(st.integers(-6, 6), st.sampled_from(["r = 0", "r = r_v"])),
    st.integers(-12, 12),
    st.integers(-80, 80),
    st.integers(-1, 60),
)
@example(ChernCharacter(1, 0, 1, 0), 0, 1, -20, 41)  # disc(v) = -2: no gap
@example(ChernCharacter(0, 6, -9, 7), 1, 1, -40, 80)  # rank zero: a half-line
@settings(max_examples=300, deadline=None)
def test_clip_matches_fraction_reference_on_random_rows(total, r, c, start, length):
    ctx = walls_module._WallContext(total, REGION)
    r = {"r = 0": 0, "r = r_v": ctx.rv}.get(r, r)
    _assert_clip_matches_reference(ctx, r, c, range(start, start + length))


#: Totals of rank -4..5 with c_v odd and even and D_v of both signs.  Over
#: the member ranks -5..5 and the rows |c| <= 5 they meet both signs of
#: k1 = r_v c - r c_v, and k1 = 0.
RANK_CLIP_TOTALS = [
    ChernCharacter(rv, cv, Fraction(cv, 2) + k, 0)
    for rv, cv, k in [(-4, 3, 8), (-3, 4, 7), (-2, 3, 7), (-1, 4, 4), (0, 3, -2),
                      (1, 4, -8), (2, 3, -8), (3, -1, -8), (4, 0, -8), (5, -2, -8)]
]


def _assert_rank_clip_matches_reference(
    ctx: walls_module._WallContext, r: int, cs: range, windows: list
) -> set:
    """Assert that one walk of rank ``r`` over the rows ``cs`` equals the
    Fraction reference on every row, for each window ``(ends, den)``;
    return the kinds of row seen."""
    kinds = set()
    for ends, den in windows:
        walked = {c: kept for _, c, kept in _joined_rows(_walked(ctx, r, cs, ends, den))}
        for c in cs:
            k1 = ctx.rv * c - r * ctx.cv
            sign = "k1 > 0" if k1 > 0 else "k1 < 0" if k1 < 0 else "k1 = 0"
            window = _window(c, ends, den)
            kept = walked.get(c, [])
            assert kept == _reference_clip(ctx, r, c, window), (r, c, window)
            kinds |= {sign, f"kept with {sign}" if kept else "empty"}
            if not window:
                kinds.add("empty window")
    if r == 0:
        kinds.add("r = 0")
    if r == ctx.rv:
        kinds.add("r = r_v")
    return kinds


def test_rank_clip_matches_fraction_reference():
    # One walk per rank serves every row of that rank: its sides are sorted
    # once for each sign of k1, and each row brings only its b's.  Windows
    # wide and narrow around c, one whose ends have opposite slopes, and one
    # over den = 3 that is empty on every third row.  Every member rank meets
    # rows of both signs of k1 and of k1 = 0 and keeps some 2d; ranks -3..4
    # keep 2d on both sides of k1 = 0.
    windows = [(((1, -24), (1, 24)), 1), (((1, -3), (1, 6)), 1),
               (((2, -7), (-1, 9)), 2), (((1, 0), (1, 1)), 3)]
    contexts = [walls_module._WallContext(total, REGION) for total in RANK_CLIP_TOTALS]
    seen: set = set()
    for r in range(-5, 6):
        kinds: set = set()
        for ctx in contexts:
            kinds |= _assert_rank_clip_matches_reference(ctx, r, range(-5, 6), windows)
        assert {"k1 > 0", "k1 < 0", "k1 = 0", "empty", "empty window"} <= kinds, r
        kept = {"kept with k1 > 0", "kept with k1 < 0"} & kinds
        assert len(kept) == (2 if -3 <= r <= 4 else 1), r
        seen |= kinds
    assert {"r = 0", "r = r_v"} <= seen


@given(
    st.integers(-4, 5),
    st.integers(-6, 6),
    st.integers(-8, 8),
    st.one_of(st.integers(-5, 5), st.just("r = r_v")),
    st.integers(-12, 12),
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_rank_clip_matches_fraction_reference_on_random_rows(rv, cv, k, r, c0, lo, hi, den):
    # Eight rows share one walk, each with the window between c + lo - c0
    # and c + hi - c0 over den; lo and hi are drawn independently, so either
    # end may be the lower one.
    ctx = walls_module._WallContext(ChernCharacter(rv, cv, Fraction(cv, 2) + k, 0), REGION)
    r = rv if r == "r = r_v" else r
    ends = ((1, lo - c0), (1, hi - c0))
    _assert_rank_clip_matches_reference(ctx, r, range(c0, c0 + 8), [(ends, den)])


def _assert_dropped_rows_are_empty(
    ctx: walls_module._WallContext, r: int, cs: range, Ds: range
) -> int:
    """Assert that ``walls._admissible_rows`` keeps two step-1 ranges of
    ``cs``, rows with ``k1 < 0`` and rows with ``k1 > 0``, and that no row of
    ``cs`` it drops holds a ``2d`` of ``Ds`` that passes the reference's
    admissibility and discriminant tests; return how many rows with
    ``k1 != 0`` were dropped."""
    below, above = walls_module._admissible_rows(ctx, r, cs)
    for kept, sign in ((below, -1), (above, 1)):
        assert kept.step == 1 and (not kept or cs.start <= kept.start <= kept[-1] < cs.stop)
        assert all((ctx.rv * c - r * ctx.cv) * sign > 0 for c in kept), (r, kept, sign)
    dropped = [c for c in cs if c not in below and c not in above and ctx.rv * c - r * ctx.cv]
    for c in dropped:
        assert _reference_clip(ctx, r, c, Ds, circle=False) == [], (r, c)
    return len(dropped)


#: Totals of rank -4..4, c_v of both parities and signs, D_v of both signs.
SIDE_TOTALS = [
    ChernCharacter(rv, cv, Fraction(cv, 2) + k, 0)
    for rv in range(-4, 5) for cv in (-3, 0, 2, 5) for k in (-4, 3)
]


def test_dropped_rows_hold_no_admissible_pair():
    # Every row the walker skips, over the oracle's test boxes and over member
    # ranks -4..4 of totals of rank -4..4: none holds a 2d admissible at its
    # top whose members have discriminant >= 0.  Rows are dropped for totals
    # of each sign of r_v, for r = 0 and r = r_v (r_v != 0), and for rank-zero
    # totals, every rank of which keeps at most one window of rows.
    dropped = {-1: 0, 0: 0, 1: 0, "r = 0": 0, "r = r_v": 0}

    def check(ctx, r, cs, Ds):
        n = _assert_dropped_rows_are_empty(ctx, r, cs, Ds)
        dropped[(ctx.rv > 0) - (ctx.rv < 0)] += n
        if ctx.rv and r in (0, ctx.rv):
            dropped["r = 0" if r == 0 else "r = r_v"] += n

    for total, bounds in LATTICE_BOXES:
        ctx, t = walls_module._WallContext(total, REGION), bounds.two_d_max
        for r in range(-bounds.r_max, bounds.r_max + 1):
            check(ctx, r, range(-bounds.c_max, bounds.c_max + 1), range(-t, t + 1))
    for total in SIDE_TOTALS:
        ctx = walls_module._WallContext(total, REGION)
        for r in range(-4, 5):
            check(ctx, r, range(-8, 9), range(-20, 21))
    assert dropped[1] and dropped[-1] and dropped[0] > 0, dropped
    assert dropped["r = 0"] and dropped["r = r_v"], dropped


@given(
    rational_totals(),
    st.integers(-5, 5),
    st.integers(-12, 12),
    st.integers(-40, 40),
    st.integers(0, 40),
)
@settings(max_examples=100, deadline=None)
def test_dropped_rows_hold_no_admissible_pair_on_random_totals(total, r, c0, start, length):
    ctx = walls_module._WallContext(total, REGION)
    _assert_dropped_rows_are_empty(ctx, r, range(c0, c0 + 8), range(start, start + length))


#: Totals with disc(v) < 0, of rank -3..3.
NEGATIVE_DISC_TOTALS = [
    ChernCharacter(rv, cv, Fraction(cv, 2) + k, e)
    for rv in range(-3, 4) for cv in (-2, 1, 4) for k in (-3, 2, 9) for e in (0, Fraction(5, 3))
    if cv * cv < rv * (cv + 2 * k)
]


#: Every class the wall-free gate marks: disc(v) < 0, disc(v) = 0 (ranks 1,
#: 2, -1, 3) and rank zero with c_v <= 0.
WALL_FREE_TOTALS = NEGATIVE_DISC_TOTALS + [
    ChernCharacter(1, 0, 0, 0),
    ChernCharacter(2, 2, 1, Fraction(1, 3)),
    ChernCharacter(-1, 0, 0, 0),
    ChernCharacter(3, -3, Fraction(3, 2), 0),
    ChernCharacter(0, -1, Fraction(1, 2), 0),
    ChernCharacter(0, -2, -3, 0),
    ChernCharacter(0, 0, 1, 0),
]


@pytest.mark.parametrize("total", WALL_FREE_TOTALS, ids=str)
def test_negative_discriminant_box_walks_no_rank(total, monkeypatch):
    # both searches read the wall-free gate before walking any rank
    def walk_rank(*args):
        raise AssertionError("walked a rank of a wall-free class")

    monkeypatch.setattr(walls_module, "_walk_rank", walk_rank)
    assert walls_module._WallContext(total, REGION).wall_free
    assert brute_force_walls(total, REGION, SearchBounds(3, 8, 30)) == []
    assert brute_force_walls(total, WIDE_REGION, SearchBounds(3, 8, 30)) == []
    assert enumerate_tilt_walls(total, REGION) == []
    assert enumerate_tilt_walls(total, WIDE_REGION) == []


def test_negative_discriminant_whole_rows_keep_nothing():
    # The predicate alone, on whole step-1 rows no walker clipped.
    assert len(NEGATIVE_DISC_TOTALS) > 20
    for total in WALL_FREE_TOTALS:
        assert _whole_row_walls(total, WIDE_REGION, SearchBounds(3, 8, 40)) == [], total


def _triples_handed_to_the_predicate(total: ChernCharacter) -> tuple[int, int]:
    """``(triples, walls)`` of the derived search over REGION."""
    triples = 0
    row_walls = walls_module._row_walls

    def count(ctx, sink, r, c, Ds):
        nonlocal triples
        triples += len(Ds)
        row_walls(ctx, sink, r, c, Ds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walls_module, "_row_walls", count)
        walls = enumerate_tilt_walls(total, REGION)
    return triples, len(walls)


@pytest.mark.parametrize(
    "total, count", zip(HIGH_RANK_TOTALS, [86, 85, 131, 0]), ids=map(str, HIGH_RANK_TOTALS)
)
def test_derived_search_work_is_bounded_at_high_rank(total, count):
    # The hull windows of these classes hold 77 to 188 million triples.
    triples, walls = _triples_handed_to_the_predicate(total)
    assert walls == count
    assert triples <= 10**4


SEARCH_INTERNALS = (
    "_center_hull",
    "_vacuity_radius_cap",
    "_scan_rank",
)


@pytest.mark.parametrize(
    "total", SIGNED_TOTALS + [v for v in HIGH_RANK_TOTALS if v.r < 0], ids=str
)
def test_search_internals_only_see_nonnegative_rank(total, monkeypatch):
    # A class of negative rank reaches the certificate and the scans only as
    # its derived dual, so none of them keeps a branch for r_v < 0.
    seen: list = []
    for name in SEARCH_INTERNALS:
        def spy(ctx, *args, _name=name, _call=getattr(walls_module, name)):
            seen.append((_name, ctx.rv))
            return _call(ctx, *args)

        monkeypatch.setattr(walls_module, name, spy)
    assert enumerate_tilt_walls(total, Region(-100, 100, 10000))
    assert {"_center_hull", "_vacuity_radius_cap", "_scan_rank"} <= {name for name, _ in seen}
    assert all(rv >= 0 for _, rv in seen)


def test_off_lattice_negative_rank_class_is_named_as_given():
    total = ChernCharacter(-1, 0, Fraction(1, 2), 0)
    with pytest.raises(ValueError, match=re.escape(f"lattice: {total}") + "$"):
        enumerate_tilt_walls(total, REGION)

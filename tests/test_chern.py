from __future__ import annotations

import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from p3walls.chern import (
    ChernCharacter,
    ChernTruncation,
    curve_ideal_ch,
    euler_pairing,
    from_resolution,
    line_bundle_ch,
    parse_chern,
    product,
)
from p3walls.stability import INFINITY, TiltPoint
from p3walls.walls import Region

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
small_ints = st.integers(min_value=-9, max_value=9)


@st.composite
def characters(draw) -> ChernCharacter:
    return ChernCharacter(*(draw(rationals) for _ in range(4)))


@st.composite
def truncations(draw) -> ChernTruncation:
    return ChernTruncation(*(draw(rationals) for _ in range(3)))


@st.composite
def integral_characters(draw) -> ChernCharacter:
    """Integral classes via the coordinates (rank, degree, twisted ch2, chi)."""
    r = draw(small_ints)
    c = draw(small_ints)
    k = draw(small_ints)
    t = draw(small_ints)
    d = Fraction(c, 2) + k
    e = t - 2 * d - Fraction(11, 6) * c - r
    return ChernCharacter(r, c, d, e)


def test_complete_intersection_class():
    ch = from_resolution([(-2, 1), (-3, 1), (-5, -1)])
    assert ch == curve_ideal_ch(6, 4)
    assert ch == ChernCharacter(1, 0, -6, 15)
    assert str(ch) == "1,0,-6,15"


def test_line_bundle_values():
    assert line_bundle_ch(0) == ChernCharacter(1, 0, 0, 0)
    assert line_bundle_ch(-2) == ChernCharacter(1, -2, 2, Fraction(-4, 3))
    assert line_bundle_ch(-1) == ChernCharacter(1, -1, Fraction(1, 2), Fraction(-1, 6))


def test_known_twist():
    assert str(parse_chern("1,0,-6,15").twist(-4)) == "1,4,2,5/3"


def test_twist_of_line_bundle_is_line_bundle():
    for t in range(-6, 7):
        for b in range(-4, 5):
            assert line_bundle_ch(t).twist(b) == line_bundle_ch(t - b)


def test_product_of_line_bundles():
    for a in range(-5, 6):
        for b in range(-5, 6):
            assert product(line_bundle_ch(a), line_bundle_ch(b)) == line_bundle_ch(a + b)


@given(characters(), rationals, rationals)
def test_twist_additivity(ch, b1, b2):
    assert ch.twist(b1).twist(b2) == ch.twist(b1 + b2)


@given(characters(), rationals)
def test_discriminant_twist_invariant(ch, beta):
    assert ch.twist(beta).discriminant() == ch.discriminant()


@given(characters())
def test_dual_involution(ch):
    assert ch.dual().dual() == ch


@given(characters(), rationals)
def test_dual_reverses_twist(ch, beta):
    assert ch.twist(beta).dual() == ch.dual().twist(-beta)


@given(characters(), characters(), characters())
def test_euler_pairing_biadditive(a, b, c):
    assert euler_pairing(a + b, c) == euler_pairing(a, c) + euler_pairing(b, c)
    assert euler_pairing(a, b + c) == euler_pairing(a, b) + euler_pairing(a, c)


@given(integral_characters(), integral_characters())
def test_euler_pairing_integral_on_lattice(a, b):
    assert a.is_integral() and b.is_integral()
    assert euler_pairing(a, b).denominator == 1


@given(integral_characters(), integral_characters())
def test_euler_pairing_serre_symmetry(a, b):
    twisted = product(b, line_bundle_ch(-4))
    assert euler_pairing(b, a) == -euler_pairing(a, twisted)


def test_sections_of_line_bundles():
    for t, expected in [(0, 1), (1, 4), (2, 10), (3, 20), (-1, 0), (-3, 0), (-4, -1)]:
        assert euler_pairing(line_bundle_ch(0), line_bundle_ch(t)) == expected


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=-3, max_value=10))
def test_curve_ideal_euler_characteristic_is_genus(degree, genus):
    ch = curve_ideal_ch(degree, genus)
    assert euler_pairing(line_bundle_ch(0), ch) == genus


def test_truncation_lattice_coords():
    tr = ChernTruncation(1, -1, Fraction(1, 2))
    assert tr.is_lattice()
    assert tr.lattice_coords() == (1, -1, 1)
    assert tr.is_primitive()
    assert not ChernTruncation(2, -2, 1).is_primitive()
    with pytest.raises(ValueError):
        ChernTruncation(1, 1, Fraction(1, 3)).lattice_coords()


def test_truncation_parity():
    assert not ChernTruncation(0, 1, 1).is_lattice()  # 2*ch2 must match ch1 mod 2
    assert ChernTruncation(0, 1, Fraction(-11, 2)).is_lattice()


def test_with_ch3_round_trip():
    tr = ChernTruncation(0, 1, Fraction(-11, 2))
    assert tr.with_ch3(Fraction(79, 6)) == ChernCharacter(0, 1, Fraction(-11, 2), Fraction(79, 6))


@given(integral_characters())
def test_parse_format_round_trip(ch):
    assert parse_chern(str(ch)) == ch


def test_parse_rejects_wrong_arity():
    with pytest.raises(ValueError, match="4 comma-separated"):
        parse_chern("1,0,-6")


def test_parse_reports_bad_component_position():
    with pytest.raises(ValueError, match="component 3.*'x'"):
        parse_chern("1,0,x,15")


def test_parse_rejects_decimals():
    with pytest.raises(ValueError, match="component 4"):
        parse_chern("1,0,-6,1.5")


def test_integrality_predicate():
    assert ChernCharacter(1, 0, -6, 15).is_integral()
    assert ChernCharacter(0, 1, Fraction(-11, 2), Fraction(79, 6)).is_integral()
    # chi against the structure sheaf must be an integer
    assert not ChernCharacter(1, 0, -6, Fraction(1, 2)).is_integral()
    # half-integer ch2 requires odd ch1
    assert not ChernCharacter(1, 0, Fraction(1, 2), 0).is_integral()


@given(st.one_of(characters(), integral_characters()))
def test_integrality_reads_the_todd_class(ch):
    # the literal chi(O, ch) test that is_integral used before it read TODD
    literal = (
        ch.is_lattice()
        and (6 * ch.e).denominator == 1
        and (ch.e + 2 * ch.d + Fraction(11, 6) * ch.c + ch.r).denominator == 1
    )
    assert ch.is_integral() == literal


RATIONAL_TAKERS = {
    "ChernCharacter": lambda x: ChernCharacter(x, 0, 0, 0).r,
    "Region": lambda x: Region(x, 10, 1).beta_min,
    "TiltPoint": lambda x: TiltPoint(x, 1).beta,
    "twist": lambda x: -line_bundle_ch(0).twist(x).c,
    "line_bundle_ch": lambda x: line_bundle_ch(x).c,
}


@pytest.mark.parametrize(
    "text",
    ["1e2000000", "0.5", "1_0", " 2", "\u0661\u0662"],
    ids=["huge-exponent", "decimal", "underscore", "space", "non-ascii-digits"],
)
@pytest.mark.parametrize("take", list(RATIONAL_TAKERS.values()), ids=list(RATIONAL_TAKERS))
def test_library_rationals_use_the_cli_grammar(take, text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="invalid rational"):
        take(text)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "value",
    [0.1, INFINITY, float("nan"), Decimal("0.5")],
    ids=["float", "infinity", "nan", "decimal"],
)
@pytest.mark.parametrize("take", list(RATIONAL_TAKERS.values()), ids=list(RATIONAL_TAKERS))
def test_library_rationals_refuse_other_types(take, value):
    # only a RationalInput (Fraction, int or str) is read; a float is never converted
    with pytest.raises(ValueError, match="not a rational input"):
        take(value)
    assert take(3) == 3
    assert take(Fraction(-7, 2)) == Fraction(-7, 2)


@pytest.mark.parametrize("take", list(RATIONAL_TAKERS.values()), ids=list(RATIONAL_TAKERS))
def test_library_rationals_accept_p_and_p_over_q(take):
    assert take("3") == 3
    assert take("-7/2") == Fraction(-7, 2)


def test_parse_keeps_whitespace_out_of_components():
    with pytest.raises(ValueError, match="component 2 at position 2: invalid rational ' 0'"):
        parse_chern("1, 0, -6, 15")


def test_arithmetic_and_scalar_multiple():
    a = curve_ideal_ch(1, 0).twist(1)
    b = ChernCharacter(1, 0, -6, 15) - a
    assert a + b == ChernCharacter(1, 0, -6, 15)
    assert 2 * a == a + a
    assert -a == a * -1


def _components(x: ChernTruncation) -> list[Fraction]:
    return [x.r, x.c, x.d] + ([x.e] if isinstance(x, ChernCharacter) else [])


@given(st.sampled_from([truncations, characters]).flatmap(lambda kind: st.tuples(kind(), kind())),
       rationals)
def test_arithmetic_is_componentwise_and_keeps_the_left_type(pair, s):
    x, y = pair
    results = {
        "add": (x + y, [a + b for a, b in zip(_components(x), _components(y))]),
        "sub": (x - y, [a - b for a, b in zip(_components(x), _components(y))]),
        "neg": (-x, [-a for a in _components(x)]),
        "mul": (x * s, [s * a for a in _components(x)]),
        "rmul": (s * x, [s * a for a in _components(x)]),
    }
    for name, (result, expected) in results.items():
        assert type(result) is type(x), name
        assert _components(result) == expected, name
    assert x.discriminant() == x.c * x.c - 2 * x.r * x.d


@given(truncations(), characters(), rationals)
def test_a_character_is_a_truncation_with_ch3(tr, ch, beta):
    assert isinstance(ch, ChernTruncation)
    assert ChernTruncation.twist(ch, beta) == ch.truncation().twist(beta)
    assert ch.discriminant() == ch.truncation().discriminant()
    assert ch.is_lattice() == ch.truncation().is_lattice()
    # equality compares the class: a truncation never equals a character
    assert ch != ch.truncation()
    assert tr + ch == tr + ch.truncation()
    assert tr - ch == tr - ch.truncation()
    with pytest.raises(TypeError):
        ch + tr
    with pytest.raises(TypeError):
        ch - tr

from __future__ import annotations

import dataclasses
import itertools
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
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
from p3walls.walls import Circle, Region

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
    [0.1, INFINITY, float("nan"), Decimal("0.5"), None],
    ids=["float", "infinity", "nan", "decimal", "none"],
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


class _Rational(Fraction):
    """A Fraction subclass: every value type keeps it as given, as :func:`_rat` does."""


#: Each value type with valid field values, all integral and not all integral.
VALUE_TYPES = {
    "ChernTruncation": (ChernTruncation, (2, -1, -3), (2, -1, Fraction(-5, 2))),
    "ChernCharacter": (ChernCharacter, (2, -1, -3, 4), (2, -1, Fraction(-5, 2), Fraction(11, 6))),
    "Circle": (Circle, (-5, 4), (Fraction(-11, 2), Fraction(73, 4))),
    "TiltPoint": (TiltPoint, (-5, 4), (Fraction(-11, 2), Fraction(73, 4))),
    "Region": (Region, (-3, 5, 4), (Fraction(5, 4), Fraction(4, 3), Fraction(3, 4))),
}
#: How each kind of input spells a list of Fraction values.
INPUT_KINDS = {
    "int": lambda xs: [int(x) for x in xs],
    "str": lambda xs: [str(x) for x in xs],
    "Fraction": list,
    "subclass": lambda xs: [_Rational(x) for x in xs],
    "mixed": lambda xs: xs[:1] + [str(x) for x in xs[1:]],
}


@pytest.mark.parametrize("kind", list(INPUT_KINDS))
@pytest.mark.parametrize("make, integral, rational", VALUE_TYPES.values(), ids=list(VALUE_TYPES))
def test_value_types_keep_fractions_and_convert_the_rest(make, integral, rational, kind):
    values = [Fraction(x) for x in (integral if kind == "int" else rational)]
    given_values = INPUT_KINDS[kind](values)
    built = make(*given_values)
    fields = [getattr(built, field.name) for field in dataclasses.fields(built)]
    assert fields == values
    for field, value in zip(fields, given_values):
        if isinstance(value, Fraction):
            assert field is value  # kept as given, a subclass too
        else:
            assert type(field) is Fraction


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), None], ids=["float", "decimal", "none"])
@pytest.mark.parametrize("make, integral, rational", VALUE_TYPES.values(), ids=list(VALUE_TYPES))
def test_value_types_refuse_other_types_in_every_field(make, integral, rational, bad):
    for index in range(len(rational)):
        for others in (list(rational), [str(x) for x in rational]):
            values = others[:index] + [bad] + others[index + 1:]
            with pytest.raises(ValueError, match="not a rational input"):
                make(*values)


def _spellings(x: Fraction) -> list:
    """``x`` as a Fraction, as a string, and as an int when it is one."""
    return [x, str(x)] + ([int(x)] if x.denominator == 1 else [])


signed_rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@given(signed_rationals, signed_rationals, signed_rationals)
@example(Fraction(2), Fraction(2), Fraction(1))  # equal edges
@example(Fraction(3), Fraction(2), Fraction(1))  # reversed edges
@example(Fraction(-3), Fraction(2), Fraction(0))  # zero cap
@example(Fraction(-3), Fraction(2), Fraction(-1))  # negative cap
@example(Fraction(1, 3), Fraction(1, 3), Fraction(1, 7))
@example(Fraction(5, 4), Fraction(4, 3), Fraction(1, 7))  # larger numerator, smaller edge
@example(Fraction(4, 3), Fraction(5, 4), Fraction(1, 7))
@example(Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 7))
def test_region_refuses_what_the_fraction_order_refuses(lo, hi, cap):
    # the edges and the cap are compared on numerators; the reference is the
    # Fraction order, beta_min < beta_max and alpha_sq_max > 0
    for spelled in itertools.product(*map(_spellings, (lo, hi, cap))):
        if lo < hi and cap > 0:
            assert dataclasses.astuple(Region(*spelled)) == (lo, hi, cap)
        else:
            with pytest.raises(ValueError, match="beta_min must be smaller|alpha_sq_max must be positive"):
                Region(*spelled)


@given(signed_rationals, signed_rationals)
@example(Fraction(-4), Fraction(0))
@example(Fraction(-4), Fraction(-1))
@example(Fraction(1, 3), Fraction(-1, 12))
def test_tilt_point_refuses_what_the_fraction_order_refuses(beta, alpha_sq):
    for spelled in itertools.product(*map(_spellings, (beta, alpha_sq))):
        if alpha_sq > 0:
            assert dataclasses.astuple(TiltPoint(*spelled)) == (beta, alpha_sq)
        else:
            with pytest.raises(ValueError, match="alpha_sq must be positive"):
                TiltPoint(*spelled)


def _doubled_d_is_lattice(tr: ChernTruncation) -> bool:
    """The reference: :meth:`ChernTruncation.is_lattice` by the Fraction ``2 d``."""
    if tr.r.denominator != 1 or tr.c.denominator != 1:
        return False
    two_d = 2 * tr.d
    return two_d.denominator == 1 and (two_d.numerator - tr.c.numerator) % 2 == 0


# mostly integers and halves, so that about half of the draws are on the lattice
lattice_rationals = st.builds(
    Fraction, st.integers(-40, 40), st.one_of(st.just(1), st.just(2), st.integers(1, 12))
)


@given(st.builds(ChernTruncation, lattice_rationals, lattice_rationals, lattice_rationals))
@example(ChernTruncation(0, 1, Fraction(-11, 2)))
@example(ChernTruncation(0, 1, 1))
@example(ChernTruncation(-2, -3, Fraction(-1, 2)))
@example(ChernTruncation(1, 0, Fraction(-1, 2)))
def test_is_lattice_matches_the_doubled_d_formula(tr):
    assert tr.is_lattice() == _doubled_d_is_lattice(tr)
    assert tr.with_ch3(0).is_lattice() == tr.is_lattice()


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

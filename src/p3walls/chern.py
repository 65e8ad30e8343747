"""Exact Chern character arithmetic on projective 3-space.

A character is stored as the quadruple ``(r, c, d, e)`` of rational numbers
obtained by pairing each graded piece with the complementary power of the
hyperplane class ``H``::

    r = ch_0        c = ch_1 . H^2        d = ch_2 . H        e = ch_3

Every field is a :class:`fractions.Fraction` and all operations are exact;
nothing in this module ever touches a float.  Two facts carry the rest of the
package:

* multiplication of characters is polynomial multiplication in ``H``
  truncated above degree three, because ``H^4 = 0``;
* the Euler pairing ``chi(a, b) = chi(a^* . b)`` is Riemann-Roch against the
  Todd class ``(1, 2, 11/6, 1)`` of projective 3-space.

Characters of actual sheaves land in a lattice: ``r`` and ``c`` are integers,
``2d`` is an integer of the same parity as ``c`` (Riemann-Roch on a surface
section), ``6e`` is an integer, and the Euler characteristic against the
structure sheaf is an integer.  :meth:`ChernCharacter.is_integral` tests
exactly these conditions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, TypeVar

RationalInput = Fraction | int | str
_T = TypeVar("_T", bound="ChernTruncation")

#: Todd class of projective 3-space, degree 0 through 3.
TODD = (Fraction(1), Fraction(2), Fraction(11, 6), Fraction(1))


def _rat(value: RationalInput) -> Fraction:
    """``value`` as a Fraction; a string must be ``p`` or ``p/q`` (:func:`_parse_rational`),
    and anything but a :data:`RationalInput` is a :class:`ValueError`."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_rational(value)
    raise ValueError(f"not a rational input (Fraction, int or str): {value!r}")


@dataclass(frozen=True)
class ChernTruncation:
    """The degree ``<= 2`` part ``(r, c, d)`` of a character.

    Tilt stability only ever sees these three components, so wall machinery
    works with truncations and the missing ``ch_3`` stays honestly unknown
    instead of being zero-filled.

    Sums, differences, negatives and scalar multiples are componentwise and
    return the type of their left operand: a truncation plus a character is
    a truncation, while a character plus a truncation is a :class:`TypeError`.
    """

    r: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _rat(self.r))
        object.__setattr__(self, "c", _rat(self.c))
        object.__setattr__(self, "d", _rat(self.d))

    def _parts(self) -> tuple[Fraction, ...]:
        return self.r, self.c, self.d

    def __add__(self: _T, other: ChernTruncation) -> _T:
        return type(self)(*map(operator.add, self._parts(), other._parts()))

    def __sub__(self: _T, other: ChernTruncation) -> _T:
        return type(self)(*map(operator.sub, self._parts(), other._parts()))

    def __neg__(self: _T) -> _T:
        return type(self)(*map(operator.neg, self._parts()))

    def __mul__(self: _T, scalar: RationalInput) -> _T:
        return type(self)(*map(_rat(scalar).__mul__, self._parts()))

    __rmul__ = __mul__

    def twist(self, beta: RationalInput) -> "ChernTruncation":
        """Multiply by ``exp(-beta H)``, truncated: the ``ch^beta`` data."""
        b = _rat(beta)
        return ChernTruncation(
            self.r,
            self.c - b * self.r,
            self.d - b * self.c + b * b / 2 * self.r,
        )

    def discriminant(self) -> Fraction:
        """``c^2 - 2 r d``; invariant under twists, integral on lattice classes."""
        return self.c * self.c - 2 * self.r * self.d

    def is_lattice(self) -> bool:
        """Whether ``(r, c, d)`` can be the truncation of a sheaf character."""
        if self.r.denominator != 1 or self.c.denominator != 1:
            return False
        two_d = 2 * self.d
        if two_d.denominator != 1:
            return False
        return (two_d.numerator - self.c.numerator) % 2 == 0

    def lattice_coords(self) -> tuple[int, int, int]:
        """Integer coordinates ``(r, c, d - c/2)`` on the truncation lattice.

        The map is a bijection between lattice truncations and ``Z^3``, which
        makes divisibility questions (primitivity) well posed.
        """
        if not self.is_lattice():
            raise ValueError(f"not a lattice truncation: {self}")
        return (int(self.r), int(self.c), int(self.d - self.c / 2))

    def is_primitive(self) -> bool:
        """Whether the class is not a proper integer multiple of another."""
        return math.gcd(*self.lattice_coords()) == 1

    def with_ch3(self, e: RationalInput) -> "ChernCharacter":
        return ChernCharacter(self.r, self.c, self.d, e)

    def __str__(self) -> str:
        return ",".join(map(str, self._parts()))


@dataclass(frozen=True)
class ChernCharacter(ChernTruncation):
    """A full rational character ``(r, c, d, e)``: a truncation with ``ch_3``."""

    e: Fraction

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "e", _rat(self.e))

    def _parts(self) -> tuple[Fraction, ...]:
        return self.r, self.c, self.d, self.e

    def truncation(self) -> ChernTruncation:
        return ChernTruncation(self.r, self.c, self.d)

    def twist(self, beta: RationalInput) -> "ChernCharacter":
        """Multiply by ``exp(-beta H)``: the twisted character ``ch^beta``."""
        b = _rat(beta)
        return ChernCharacter(
            self.r,
            self.c - b * self.r,
            self.d - b * self.c + b * b / 2 * self.r,
            self.e - b * self.d + b * b / 2 * self.c - b * b * b / 6 * self.r,
        )

    def dual(self) -> "ChernCharacter":
        """The character of the derived dual: odd components change sign."""
        return ChernCharacter(self.r, -self.c, self.d, -self.e)

    def is_integral(self) -> bool:
        """Whether the character can come from a sheaf (lattice membership)."""
        if not self.is_lattice():
            return False
        if (6 * self.e).denominator != 1:
            return False
        chi_against_structure = self.e + TODD[1] * self.d + TODD[2] * self.c + TODD[3] * self.r
        return chi_against_structure.denominator == 1


def line_bundle_ch(t: RationalInput) -> ChernCharacter:
    """Character ``(1, t, t^2/2, t^3/6)`` of the line bundle of degree ``t``."""
    b = _rat(t)
    return ChernCharacter(1, b, b * b / 2, b * b * b / 6)


def curve_ideal_ch(degree: int, genus: int) -> ChernCharacter:
    """Character of the ideal sheaf of a curve of given degree and genus.

    From Riemann-Roch on the curve: ``(1, 0, -degree, 2*degree + genus - 1)``.
    """
    return ChernCharacter(1, 0, -degree, 2 * degree + genus - 1)


def from_resolution(terms: Iterable[tuple[RationalInput, int]]) -> ChernCharacter:
    """Character of a complex of line bundles, given ``(twist, coefficient)`` pairs.

    Each term contributes ``coefficient * line_bundle_ch(twist)``; a length-two
    resolution ``0 -> O(a) -> O(b) -> F -> 0`` is ``[(b, +1), (a, -1)]``.
    """
    total = ChernCharacter(0, 0, 0, 0)
    for twist, coefficient in terms:
        total = total + coefficient * line_bundle_ch(twist)
    return total


def product(a: ChernCharacter, b: ChernCharacter) -> ChernCharacter:
    """Ring product of characters: convolution truncated above degree 3."""
    return ChernCharacter(
        a.r * b.r,
        a.r * b.c + a.c * b.r,
        a.r * b.d + a.c * b.c + a.d * b.r,
        a.r * b.e + a.c * b.d + a.d * b.c + a.e * b.r,
    )


def euler_pairing(a: ChernCharacter, b: ChernCharacter) -> Fraction:
    """The Euler pairing ``chi(a, b) = sum_i (-1)^i dim Ext^i(a, b)``.

    Computed by Riemann-Roch: integrate ``a^* . b`` against the Todd class,
    i.e. ``p_3 + 2 p_2 + 11/6 p_1 + p_0`` where ``p = product(dual(a), b)``.
    The result is an integer whenever both arguments are integral.
    """
    p = product(a.dual(), b)
    return p.e + TODD[1] * p.d + TODD[2] * p.c + TODD[3] * p.r


def parse_chern(text: str) -> ChernCharacter:
    """Parse the ``"r,c,d,e"`` serialization that ``str`` of a character writes.

    Each component is ``p`` or ``p/q`` in the grammar of
    :func:`_parse_rational`, with no surrounding whitespace.  Raises
    :class:`ValueError` whose message points at the first offending component
    and its character offset within ``text``.
    """
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated components, got {len(parts)}: {text!r}")
    values = []
    offset = 0
    for index, part in enumerate(parts):
        try:
            values.append(_parse_rational(part))
        except ValueError:
            raise ValueError(
                f"component {index + 1} at position {offset}: "
                f"invalid rational {part!r}"
            ) from None
        offset += len(part) + 1
    return ChernCharacter(*values)


def _parse_integer(text: str) -> int:
    """Parse ``[+-]?digits`` in ASCII; reject anything else."""
    body = text[1:] if text[:1] in ("+", "-") else text
    # isdigit and int also accept other scripts' digits, and int underscores
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q``, with an optional sign on ``p`` only and
    ``q > 0``; reject anything else."""
    num, slash, den = text.partition("/")
    try:
        p = _parse_integer(num)
        q = _parse_integer(den) if slash else 1
    except ValueError:
        q = 0
    if q == 0 or den[:1] in ("+", "-"):
        raise ValueError(f"invalid rational {text!r}")
    return Fraction(p, q)

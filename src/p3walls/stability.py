"""Tilt and Bridgeland stability functions on the ``(beta, alpha^2)`` half-plane.

The tilt slope at ``(beta, alpha)`` of a class with twisted components
``(r^b, c^b, d^b) = ch^beta`` is::

    nu = (d^b - alpha^2/2 * r^b) / c^b            (+infinity when c^b = 0)

Parameterizing by ``alpha^2`` rather than ``alpha`` keeps every locus in this
package algebraic over the rationals, so equality of slopes is decidable
exactly.  A point of the parameter space is a :class:`TiltPoint` with
``alpha_sq > 0``.

On top of a tilt point, a Bridgeland-type central charge needs one more
rational parameter ``s > 0``::

    Z = (-e^b + (s + 1/6) alpha^2 c^b)  +  i (d^b - alpha^2/2 * r^b)

and the associated slope is ``lambda = -Re Z / Im Z`` (again ``+infinity``
when the imaginary part vanishes).

Slope functions return either a :class:`fractions.Fraction` or the one
object :data:`INFINITY` ``= math.inf``, which compares strictly greater than
every rational: :class:`~fractions.Fraction` compares with an infinite float
exactly, without rounding the rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .chern import ChernCharacter, ChernTruncation, RationalInput, _rat

#: The infinite slope; the slope functions return this one object.
INFINITY = math.inf

ExtendedRational = Fraction | float


@dataclass(frozen=True)
class TiltPoint:
    """A point ``(beta, alpha^2)`` of the parameter half-plane, ``alpha^2 > 0``."""

    beta: Fraction
    alpha_sq: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _rat(self.beta))
        object.__setattr__(self, "alpha_sq", _rat(self.alpha_sq))
        if self.alpha_sq <= 0:
            raise ValueError(f"alpha_sq must be positive, got {self.alpha_sq}")

    def __str__(self) -> str:
        return f"beta={self.beta},alpha2={self.alpha_sq}"


@dataclass(frozen=True)
class BridgelandParams:
    """A tilt point together with the extra slope parameter ``s > 0``."""

    point: TiltPoint
    s: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _rat(self.s))
        if self.s <= 0:
            raise ValueError(f"s must be positive, got {self.s}")


class ChargeValue(NamedTuple):
    """Real and imaginary part of a central charge, both exact."""

    re: Fraction
    im: Fraction


def mu_beta(ch: ChernTruncation, beta: RationalInput) -> ExtendedRational:
    """Twisted Mumford slope ``(c - beta r) / r``; ``+infinity`` for rank 0."""
    if ch.r == 0:
        return INFINITY
    return (ch.c - _rat(beta) * ch.r) / ch.r


def tilt_charge(ch: ChernTruncation, point: TiltPoint) -> ChargeValue:
    """Central charge of tilt stability: ``-d^b + alpha^2/2 r^b + i c^b``."""
    tw = ChernTruncation.twist(ch, point.beta)
    return ChargeValue(-tw.d + point.alpha_sq / 2 * tw.r, tw.c)


def nu(ch: ChernTruncation, point: TiltPoint) -> ExtendedRational:
    """Tilt slope at ``point``; ``+infinity`` when the twisted ``c`` vanishes."""
    re, im = tilt_charge(ch, point)
    if im == 0:
        return INFINITY
    return -re / im


def bridgeland_charge(ch: ChernCharacter, params: BridgelandParams) -> ChargeValue:
    """Central charge of the second tilt; needs the full character."""
    tw = ch.twist(params.point.beta)
    alpha_sq = params.point.alpha_sq
    re = -tw.e + (params.s + Fraction(1, 6)) * alpha_sq * tw.c
    im = tw.d - alpha_sq / 2 * tw.r
    return ChargeValue(re, im)


def lambda_slope(ch: ChernCharacter, params: BridgelandParams) -> ExtendedRational:
    """Slope ``-Re/Im`` of :func:`bridgeland_charge`; ``+infinity`` on ``Im = 0``.

    The vanishing locus of the imaginary part is exactly the tilt-slope-zero
    locus of ``ch``, so classes sitting at the top of one of their own
    numerical walls have infinite slope there for every ``s``.
    """
    re, im = bridgeland_charge(ch, params)
    if im == 0:
        return INFINITY
    return -re / im


def bmt_form(ch: ChernCharacter, point: TiltPoint) -> Fraction:
    """The quadratic form ``alpha^2 (c^2 - 2 r d) + 4 (d^b)^2 - 6 c^b e^b``.

    Nonnegative on every tilt-semistable class; its zero locus along a fixed
    class cuts the region below which no semistable object with that class
    exists.  Line bundle characters make it vanish identically.
    """
    tw = ch.twist(point.beta)
    return (
        point.alpha_sq * ch.discriminant()
        + 4 * tw.d * tw.d
        - 6 * tw.c * tw.e
    )


def wall_admissible(sub: ChernTruncation, total: ChernTruncation, point: TiltPoint) -> bool:
    """Whether ``sub`` can numerically destabilize ``total`` at ``point``.

    Requires both charge imaginary parts on the correct side: ``0 < Im
    Z(sub) < Im Z(total)``, so that sub and quotient lie in the tilted heart
    with neither degenerating.
    """
    im_sub = tilt_charge(sub, point).im
    im_total = tilt_charge(total, point).im
    return 0 < im_sub < im_total

"""Numerical walls for tilt stability in the ``(beta, alpha^2)`` half-plane.

For a fixed class ``v`` the locus where some other class ``w`` has the same
tilt slope is controlled by three cross-products of truncations::

    k1 = r_v c_w - r_w c_v      k2 = r_v d_w - r_w d_v      k3 = c_v d_w - c_w d_v

Expanding ``nu(v) = nu(w)`` gives ``k3 - beta k2 + (beta^2 + alpha^2)/2 k1 = 0``,
so the locus is a circle with center ``k2/k1`` and squared radius
``(k2/k1)^2 - 2 k3/k1`` when ``k1 != 0``, a vertical line ``beta = k3/k2``
when only ``k2 != 0``, everywhere when all three vanish, and empty otherwise.

A circle is reported as an actual wall for ``v`` over a search region when a
destabilizing pair survives every numerical test:

* ``{w, v - w}`` both have nonnegative discriminant and both are primitive
  in the truncation lattice;
* the pair is admissible at the top of the circle (both charge imaginary
  parts strictly between 0 and that of ``v``);
* the circle meets the region;
* the quadratic form of :func:`p3walls.stability.bmt_form` is nonnegative
  somewhere on the circle.  Restricted to any slope-equality circle of ``v``
  the form is affine in ``beta`` (the ``beta^2`` terms cancel against the
  discriminant), so this has an exact test.

All of these are decided on integers: the circle of a triple has center
``K2 / m`` and squared radius ``quarter / m^2`` with ``m = 2 k1``, and each
test, multiplied through by a positive power of ``m`` and by the fixed
denominators of the region and of the positivity form, becomes a sign or
square comparison of integers.  Rationals (the circle and the member
truncations) are built only for triples that are kept as walls.

The last filter removes circles lying entirely in the part of the
half-plane where no semistable object with class ``v`` exists; without it
the reported chamber structure would include spurious circles of tiny
radius carried by imprimitive or torsion classes near the slope-zero locus.

Every circle wall of ``v`` has its top on the slope-zero locus of ``v``
(the exact identity ``k1 d_v - c_v k2 + r_v k3 = 0`` holds for any ``w``),
which pins the center of a candidate circle as a function of its radius and
is what makes a finite, certified enumeration possible; see
:func:`enumerate_tilt_walls` for the derived search bounds.

Both searches decide the predicate one row ``(r, c)`` at a time, computing
what depends only on the row once (:func:`_row_walls`), and both first clip
each row's window to the lattice points that pass the predicate's tests
linear in ``2d``.  The clip is set up once per member rank
(:class:`_RankLines`): the tests' coefficients of ``2d`` depend on the row
only through the sign of ``k1``, so a row costs its right-hand sides and at
most four divisions, and a row whose clipped window is empty never reaches
the predicate.  The searches differ only in which rows they clip: the
derived search visits each unordered pair ``{w, v - w}`` from one member.
A class whose search cannot be certified finite is refused before any row
is scanned; :func:`brute_force_walls` (``p3walls walls --brute-force``)
scans an explicit box for it instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .chern import ChernCharacter, ChernTruncation, RationalInput, _rat
# walls.wall_admissible and walls.nu stay bound: perfbench/tracer.py wraps them by name.
from .stability import TiltPoint, nu, wall_admissible  # noqa: F401


class NestedRelation(enum.Enum):
    """Mutual position of two wall circles; tangency counts as nesting."""

    EQUAL = "equal"
    FIRST_INSIDE_SECOND = "first_inside_second"
    SECOND_INSIDE_FIRST = "second_inside_first"
    DISJOINT = "disjoint"
    CROSSING = "crossing"


@dataclass(frozen=True)
class Circle:
    """Semicircular wall: center on the beta-axis and squared radius."""

    center: Fraction
    radius_sq: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _rat(self.center))
        object.__setattr__(self, "radius_sq", _rat(self.radius_sq))
        if self.radius_sq <= 0:
            raise ValueError(f"radius_sq must be positive, got {self.radius_sq}")


@dataclass(frozen=True)
class VerticalLine:
    """Wall of constant ``beta``."""

    beta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _rat(self.beta))


@dataclass(frozen=True)
class Everywhere:
    """Degenerate locus: the two classes have equal slope at every point."""


@dataclass(frozen=True)
class Empty:
    """The two slopes agree nowhere."""


WallLocus = Circle | VerticalLine | Everywhere | Empty


@dataclass(frozen=True)
class Region:
    """Closed beta-strip with a height cap: ``[beta_min, beta_max] x (0, alpha_sq_max]``."""

    beta_min: Fraction
    beta_max: Fraction
    alpha_sq_max: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta_min", _rat(self.beta_min))
        object.__setattr__(self, "beta_max", _rat(self.beta_max))
        object.__setattr__(self, "alpha_sq_max", _rat(self.alpha_sq_max))
        if self.beta_min >= self.beta_max:
            raise ValueError("beta_min must be smaller than beta_max")
        if self.alpha_sq_max <= 0:
            raise ValueError("alpha_sq_max must be positive")


#: The search window used throughout: every wall of ``(1, 0, -6, 15)`` lives here.
DEFAULT_REGION = Region(-12, 0, 64)
#: Version tag of every JSON document the package prints.
SCHEMA = "p3walls/1"


@dataclass(frozen=True)
class WallCandidate:
    """A circle wall together with one destabilizing pair found on it.

    Away from the wall either member of the pair may play the role of the
    subobject; ``sub`` is the member of positive rank when exactly one has
    positive rank, otherwise the lexicographically smaller member.  The
    third character components of the members are not determined by wall
    geometry, so the pair is stored as truncations.
    """

    circle: Circle
    sub: ChernTruncation
    quotient: ChernTruncation

    @property
    def top(self) -> TiltPoint:
        return TiltPoint(self.circle.center, self.circle.radius_sq)

    def total(self) -> ChernTruncation:
        return self.sub + self.quotient


class SearchBounds(NamedTuple):
    """Box for the exhaustive scan: ``|r| <= r_max``, ``|c| <= c_max``, ``|2d| <= two_d_max``."""

    r_max: int
    c_max: int
    two_d_max: int


class WallSearchError(RuntimeError):
    """Raised when the derived enumeration bounds cannot certify termination;
    :func:`brute_force_walls` (``p3walls walls --brute-force``) scans a box instead."""


def tilt_wall_locus(v: ChernTruncation, w: ChernTruncation) -> WallLocus:
    """Locus of tilt-slope equality of ``v`` and ``w``; see the module docstring."""
    k1 = v.r * w.c - w.r * v.c
    k2 = v.r * w.d - w.r * v.d
    k3 = v.c * w.d - w.c * v.d
    if k1 != 0:
        center = k2 / k1
        radius_sq = center * center - 2 * k3 / k1
        if radius_sq > 0:
            return Circle(center, radius_sq)
        return Empty()
    if k2 != 0:
        return VerticalLine(k3 / k2)
    return Everywhere() if k3 == 0 else Empty()


def wall_top(locus: WallLocus) -> TiltPoint:
    """Highest point of a circle wall; other locus kinds have no top."""
    if not isinstance(locus, Circle):
        raise ValueError(f"only circle walls have a top, got {locus!r}")
    return TiltPoint(locus.center, locus.radius_sq)


def hyperbola_alpha_sq(v: ChernTruncation, beta: RationalInput) -> Optional[Fraction]:
    """Height ``alpha^2`` of the slope-zero locus of ``v`` over ``beta``.

    Returns ``None`` where the locus has no point of positive height.  For
    rank zero the locus is a vertical line and a height function over
    ``beta`` makes no sense, so that case is rejected.
    """
    if v.r == 0:
        raise ValueError("slope-zero locus of a rank-zero class is a vertical line")
    b = _rat(beta)
    value = 2 * (v.d - b * v.c + b * b / 2 * v.r) / v.r
    return value if value > 0 else None


def on_hyperbola(v: ChernTruncation, point: TiltPoint) -> bool:
    """Whether ``point`` lies on the slope-zero locus of ``v``."""
    return nu(v, point) == 0


def _region_ints(region: Region) -> tuple[int, int, int, int, int]:
    """``(q, B_min, B_max, a_num, a_den)``: the edges over their common
    denominator ``q`` are ``B_min / q`` and ``B_max / q``, the height cap is
    ``a_num / a_den``."""
    lo, hi, cap = region.beta_min, region.beta_max, region.alpha_sq_max
    q = math.lcm(lo.denominator, hi.denominator)
    B_min = lo.numerator * (q // lo.denominator)
    B_max = hi.numerator * (q // hi.denominator)
    return q, B_min, B_max, cap.numerator, cap.denominator


def _meets_region(reg: tuple, K2: int, quarter: int, m: int) -> bool:
    """:func:`circle_meets_region` for the circle with center ``C = K2 / m``
    and squared radius ``quarter / m^2`` (``m != 0``), on integers, with the
    region given by :func:`_region_ints`.

    For an edge ``b = B / q`` the number ``B m - K2 q`` is ``(b - C) q m``:
    its sign times ``sign(m)`` is the sign of ``b - C``, and
    ``(b - C)^2 >= rho^2`` reads ``(B m - K2 q)^2 >= quarter q^2``.
    """
    q, B_min, B_max, a_num, a_den = reg
    lo = B_min * m - K2 * q
    hi = B_max * m - K2 * q
    if m < 0:
        lo, hi = -lo, -hi  # now (b - C) q |m| for each edge
    reach = quarter * q * q
    lo2, hi2 = lo * lo, hi * hi
    if lo >= 0 and lo2 >= reach:  # strip right of the span
        return False
    if hi <= 0 and hi2 >= reach:  # strip left of the span
        return False
    # A ground point of the circle interior to the strip means the arc comes
    # down to arbitrarily small positive heights inside the region.
    if lo <= 0 and lo2 >= reach:
        return True
    if hi >= 0 and hi2 >= reach:
        return True
    # Both strip edges are strictly inside the span: the lowest arc point
    # over the strip, rho^2 - max (b - C)^2, sits above one of the edges.
    return a_den * (reach - max(lo2, hi2)) <= a_num * m * m * q * q


def circle_meets_region(circle: Circle, region: Region) -> bool:
    """Exact test for whether the open upper semicircle meets the region.

    The circle is written as ``C = K2 / m``, ``rho^2 = quarter / m^2`` with
    ``m = den(C) den(rho^2)`` and decided by the same integer test the wall
    predicate runs on every candidate.
    """
    c, rho_sq = circle.center, circle.radius_sq
    m = c.denominator * rho_sq.denominator
    K2 = c.numerator * rho_sq.denominator
    quarter = rho_sq.numerator * (m // rho_sq.denominator) * m
    return _meets_region(_region_ints(region), K2, quarter, m)


def nested(a: Circle, b: Circle) -> NestedRelation:
    """Exact mutual position of two wall circles.

    Internal tangency is reported as nesting and external tangency as
    disjointness, matching how the chambers they bound behave.

    With ``g`` the distance of the centers and ``x``, ``y`` the squared
    radii, the circles cross exactly when
    ``|sqrt(x) - sqrt(y)| < g < sqrt(x) + sqrt(y)``, which squares to
    ``L^2 < 4 x y`` for ``L = x + y - g^2``.  Otherwise ``L <= 0`` means
    ``g >= sqrt(x) + sqrt(y)`` (disjoint), and ``L > 0`` means
    ``g <= |sqrt(x) - sqrt(y)|``: the circle of smaller radius is inside.
    """
    if a == b:
        return NestedRelation.EQUAL
    x, y = a.radius_sq, b.radius_sq
    gap = a.center - b.center
    L = x + y - gap * gap
    if L * L < 4 * x * y:
        return NestedRelation.CROSSING
    if L <= 0:
        return NestedRelation.DISJOINT
    return NestedRelation.FIRST_INSIDE_SECOND if x < y else NestedRelation.SECOND_INSIDE_FIRST


# ---------------------------------------------------------------------------
# The positivity filter.
#
# Restricted to a slope-equality circle of v, the quadratic form
#     Q(beta, y) = y * disc(v) + g(beta),   g(beta) = disc(v) beta^2 + g1 beta + g0
# with g1 = -2 c_v d_v + 6 r_v e_v and g0 = 4 d_v^2 - 6 c_v e_v becomes
# affine in beta, because y = rho^2 - (beta - C)^2 on the circle and the
# beta^2 coefficients cancel.  Maximizing an affine function over the closed
# arc is exact; :func:`_row_walls` does it on integers.
# ---------------------------------------------------------------------------


def bmt_zero_circle(v: ChernCharacter) -> Optional[Circle]:
    """Zero circle of the positivity form of ``v``: the form is negative at
    ``(beta, alpha^2)`` exactly when the point lies strictly inside it.

    No semistable object of class ``v`` exists below this circle.  Returns
    ``None`` when the discriminant is not positive or the zero set has no
    points of positive height.
    """
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


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------


class _WallContext:
    """Precomputed integer data for one total class and search region.

    Whether the zero circle of the positivity form (:func:`bmt_zero_circle`)
    exists is decided on integers: ``g1^2 > 4 g0 disc(v)`` with
    ``disc(v) > 0`` reads ``G1^2 > 4 G0 delta_g``.  Its rational center and
    radius are built only when it exists, so a class refused for want of it
    costs integer work only.
    """

    def __init__(self, v: ChernCharacter, region: Region):
        if not v.is_lattice():
            raise ValueError(f"total class is not on the truncation lattice: {v}")
        self.region_ints = _region_ints(region)
        self.rv = int(v.r)
        self.cv = int(v.c)
        self.Dv = int(2 * v.d)
        self.delta = self.cv * self.cv - self.rv * self.Dv  # integer discriminant
        # g1 = -2 c_v d_v + 6 r_v e_v and g0 = 4 d_v^2 - 6 c_v e_v over their
        # least common denominator g: g1 = G1 / g, g0 = G0 / g.
        e_num, e_den = v.e.numerator, v.e.denominator
        G1 = 6 * self.rv * e_num - self.cv * self.Dv * e_den
        G0 = self.Dv * self.Dv * e_den - 6 * self.cv * e_num
        h = math.gcd(G0, G1, e_den)
        self.G1, self.G0, self.delta_g = G1 // h, G0 // h, self.delta * (e_den // h)
        self.mu = Fraction(self.cv, self.rv) if self.rv else None
        # bmt_zero_circle(v): center -G1 / (2 delta_g), squared radius
        # (G1^2 - 4 G0 delta_g) / (2 delta_g)^2.
        self.bmt_center = self.bmt_radius_sq = None
        if self.delta > 0 and self.G1 * self.G1 > 4 * self.G0 * self.delta_g:
            self.bmt_center = Fraction(-self.G1, 2 * self.delta_g)
            self.bmt_radius_sq = Fraction(
                self.G1 * self.G1 - 4 * self.G0 * self.delta_g, 4 * self.delta_g * self.delta_g
            )
        self._lines: dict = {}

    def lines(self, r: int) -> _RankLines:
        """The linear tests of member rank ``r`` (:class:`_RankLines`), built
        once per rank and shared by the clip and the predicate."""
        lines = self._lines.get(r)
        if lines is None:
            lines = self._lines[r] = _RankLines(self, r)
        return lines

    @cached_property
    def hull_hi(self) -> Fraction:
        """The fixed end ``C(0)`` of :func:`_center_hull`, rounded up, bounded
        once per class; for rank zero, ``D_v / (2 c_v)``, every circle's center."""
        if not self.rv:
            return Fraction(self.Dv, 2 * self.cv)
        return self.mu - _sqrt_bounds(Fraction(self.delta, self.rv * self.rv))[0]


class _RankLines:
    """The four tests of the wall predicate that are linear in ``D = 2d``, on
    the rows ``(r, c)`` of one member rank ``r``, as half-lines ``a D >= b``.

    On a row with ``k1 = r_v c - r c_v != 0`` the top of the circle is
    ``beta = K2 / m`` with ``m = 2 k1`` and ``K2 = r_v D - r D_v``.  Scaled by
    ``|m| > 0``, the imaginary part there of a member ``x`` is
    ``|m| c_x - s r_x K2``, ``s = sign(k1)``, affine in ``D``, and
    admissibility ``0 < im(w) < im(v)`` is ``im(w) > 0`` and ``im(u) > 0``
    for ``w = (r, c, D/2)`` and ``u = v - w`` (strict, so ``b`` carries a
    ``+ 1``).  The member discriminants are ``c^2 - r D >= 0`` and
    ``c_u^2 - r_u (D_v - D) >= 0``.  So the coefficients
    ``a = (-s r_v r, -s r_v r_u, -r, r_u)`` depend on the row only through
    ``s`` and are kept for both signs (:attr:`a`, indexed by ``k1 > 0``),
    and the right-hand sides (:meth:`b`) cost a few products per row.  The
    predicate (:func:`_row_walls`) and the clip (:meth:`clip`) both read the
    tests from here; :meth:`_WallContext.lines` builds one per rank.
    """

    __slots__ = ("rv", "cv", "rcv", "h0", "h1", "h3", "a", "sides")

    def __init__(self, ctx: _WallContext, r: int):
        rv, Dv = ctx.rv, ctx.Dv
        ru = rv - r
        self.rv, self.cv, self.rcv = rv, ctx.cv, r * ctx.cv
        self.h0, self.h1, self.h3 = r * r * Dv, r * ru * Dv, ru * Dv
        a = (-rv * r, -rv * ru, -r, ru)  # k1 > 0; k1 < 0 flips the first two
        self.a = ((-a[0], -a[1], a[2], a[3]), a)  # indexed by k1 > 0
        # Per sign of k1: the tests bounding D from below (a > 0), from above
        # (a < 0, kept as -a) and those whose a vanishes.
        self.sides = tuple(
            (
                tuple((i, x) for i, x in enumerate(a) if x > 0),
                tuple((i, -x) for i, x in enumerate(a) if x < 0),
                tuple(i for i, x in enumerate(a) if x == 0),
            )
            for a in self.a
        )

    def b(self, c: int, k1: int) -> tuple:
        """The right-hand sides on the row ``c`` with ``k1 != 0``:
        ``1 - s (2 k1 c + r^2 D_v)``, ``1 - s (2 k1 c_u + r r_u D_v)``,
        ``-c^2`` and ``r_u D_v - c_u^2``."""
        cu = self.cv - c
        x0, x1 = 2 * k1 * c + self.h0, 2 * k1 * cu + self.h1
        if k1 < 0:
            x0, x1 = -x0, -x1
        return 1 - x0, 1 - x1, -c * c, self.h3 - cu * cu

    def clip(self, c: int, lo: int, hi: int) -> range:
        """The ``2d`` of the window ``lo <= 2d <= hi`` on the row ``c`` that
        pass the four tests and lie on the lattice (``2d = c`` mod 2), as a
        step-2 range.

        Each half-line is one floor or ceiling division; a zero ``a`` leaves
        a constant test, which empties the window when it fails, as does
        ``k1 = 0``, where the predicate rejects the whole row.  The result
        holds every triple of the window that :func:`_row_walls` could keep;
        the scans hand it to the predicate only when it is not empty, and the
        predicate still runs every test on each triple.
        """
        k1 = self.rv * c - self.rcv
        if not k1:
            return range(0)
        b = self.b(c, k1)
        lower, upper, fixed = self.sides[k1 > 0]
        for i in fixed:
            if b[i] > 0:
                return range(0)
        for i, a in lower:
            x = -(-b[i] // a)
            if x > lo:
                lo = x
        for i, a in upper:
            x = -b[i] // a
            if x < hi:
                hi = x
        lo += (lo - c) % 2
        return range(lo, hi + 1, 2)


def _row_walls(ctx: _WallContext, sink: dict, r: int, c: int, Ds: range) -> None:
    """The full wall predicate on each integer triple ``(r, c, 2d)``, ``2d`` in ``Ds``.

    This is the single definition of "is a wall" shared by the derived-bound
    enumeration and the exhaustive scan; the two strategies differ only in
    which rows they feed it.  Every test is on integers and runs on every
    triple, whatever window it is handed; survivors go into ``sink`` under
    their pair key, the first one found winning.  A survivor whose pair is
    already kept is skipped before its circle and members are built, so each
    wall is built once.
    """
    rv, cv, Dv = ctx.rv, ctx.cv, ctx.Dv
    k1 = rv * c - r * cv
    if k1 == 0 or not Ds:
        return  # vertical or everywhere (also the zero member and complement), or no triple
    ru, cu = rv - r, cv - c
    # The circle has center C = K2 / m and squared radius quarter / m^2.
    m = 2 * k1
    mm = m * m
    lines = ctx.lines(r)
    a0, a1, a2, a3 = lines.a[k1 > 0]
    b0, b1, b2, b3 = lines.b(c, k1)
    # Positivity: on the circle the form is affine in beta, with value
    # P / (g m^2) at the top and slope S / (g m), where
    # P = dg (K2^2 + quarter) + G1 K2 m + G0 m^2 and S = 2 dg K2 + G1 m; it
    # is >= 0 somewhere on the arc iff P >= 0 or P^2 <= S^2 quarter.
    dg, G1m, G0mm = ctx.delta_g, ctx.G1 * m, ctx.G0 * mm
    reg = ctx.region_ints
    for D in Ds:
        if (D - c) % 2:
            continue  # off the truncation lattice
        if a0 * D < b0 or a1 * D < b1:
            continue  # not admissible at the top
        if a2 * D < b2 or a3 * D < b3:
            continue  # a member would violate the discriminant inequality
        Du = Dv - D
        K2 = rv * D - r * Dv  # twice k2
        K3 = cv * D - c * Dv  # twice k3
        quarter = K2 * K2 - 4 * k1 * K3  # (2 k1 rho)^2
        if quarter <= 0:
            continue
        if math.gcd(r, c, (D - c) // 2) != 1:
            continue
        if math.gcd(ru, cu, (Du - cu) // 2) != 1:
            continue
        if not _meets_region(reg, K2, quarter, m):
            continue
        at_top = dg * (K2 * K2 + quarter) + G1m * K2 + G0mm
        if at_top < 0:
            slope = 2 * dg * K2 + G1m
            if at_top * at_top > slope * slope * quarter:
                continue
        key = _pair_key(ctx, r, c, D)
        if key in sink:
            continue  # this pair's wall is already kept
        circle = Circle(Fraction(K2, m), Fraction(quarter, mm))
        sub, quotient = _orient_pair(
            ChernTruncation(r, c, Fraction(D, 2)), ChernTruncation(ru, cu, Fraction(Du, 2))
        )
        sink[key] = WallCandidate(circle, sub, quotient)


def _orient_pair(
    a: ChernTruncation, b: ChernTruncation
) -> tuple[ChernTruncation, ChernTruncation]:
    if (a.r > 0) != (b.r > 0):
        return (a, b) if a.r > 0 else (b, a)
    return (a, b) if (a.r, a.c, a.d) <= (b.r, b.c, b.d) else (b, a)


def _pair_key(ctx: _WallContext, r: int, c: int, D: int):
    member = (r, c, D)
    other = (ctx.rv - r, ctx.cv - c, ctx.Dv - D)
    return (member, other) if member <= other else (other, member)


def _sorted_walls(walls: Iterable[WallCandidate]) -> list[WallCandidate]:
    return sorted(
        walls,
        key=lambda w: (-w.circle.radius_sq, w.sub.r, w.sub.c, w.sub.d),
    )


def brute_force_walls(
    v: ChernCharacter, region: Region, bounds: SearchBounds
) -> list[WallCandidate]:
    """Exhaustive oracle: every row of the box, with no derived bound.

    Applies exactly the same wall predicate as :func:`enumerate_tilt_walls`
    to every lattice triple ``(r, c, 2d)`` with ``|r| <= r_max``,
    ``|c| <= c_max`` and ``|2d| <= two_d_max`` that could be a wall, and
    reports the deduplicated, sorted walls.  Each row ``(r, c)`` of the box
    has its window ``|2d| <= two_d_max`` clipped by :meth:`_RankLines.clip`,
    one clip per rank, the path of the derived scans, and goes to the
    predicate when the clipped window is not empty: the clip drops only
    off-lattice points and points that fail one of the predicate's linear
    tests, so the oracle's walls are those of the whole box.  The oracle
    takes none of the derived search's rank, ``c`` or radius bounds.
    """
    ctx = _WallContext(v, region)
    found: dict = {}
    t = bounds.two_d_max
    for r in range(-bounds.r_max, bounds.r_max + 1):
        clip = ctx.lines(r).clip
        for c in range(-bounds.c_max, bounds.c_max + 1):
            Ds = clip(c, -t, t)
            if Ds:
                _row_walls(ctx, found, r, c, Ds)
    return _sorted_walls(found.values())


_SQRT_BITS = 192


def _sqrt_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """Outer rational bounds ``lo <= sqrt(x) <= hi``, ``2^-192 / den(x)`` apart."""
    if x < 0:
        raise ValueError("negative radicand")
    scale = 1 << _SQRT_BITS
    root = math.isqrt(x.numerator * x.denominator * scale * scale)
    q = x.denominator * scale
    return Fraction(root, q), Fraction(root + 1, q)


def _center_hull(ctx: _WallContext, t: Fraction) -> tuple[Fraction, Fraction]:
    """Interval holding the center of every candidate circle with ``rho^2 <= t``.

    A candidate's top lies on the slope-zero locus of ``v``, so its center is
    ``C(rho^2)`` with ``C(t) = mu - sqrt(disc(v)/r_v^2 + t)`` (admissible
    branch, ``r_v > 0``), decreasing; the hull runs from ``C(t)`` to
    ``C(0)`` (:attr:`_WallContext.hull_hi`), rounded outward.  For rank zero
    every center is ``D_v / (2 c_v)``.
    """
    if not ctx.rv:
        return ctx.hull_hi, ctx.hull_hi
    return ctx.mu - _sqrt_bounds(Fraction(ctx.delta, ctx.rv * ctx.rv) + t)[1], ctx.hull_hi


def _vacuity_radius_cap(ctx: _WallContext) -> Fraction:
    """Largest certified ``t`` such that every candidate circle with
    ``rho^2 <= t`` fails the positivity filter.

    A circle strictly inside the open disc bounded by :func:`bmt_zero_circle`
    has the positivity form strictly negative on it.  A candidate with
    ``rho^2 <= t`` is centered in ``_center_hull(ctx, t)`` and ``|x - C_B|``
    is convex, so the farther hull end plus ``sqrt(t)``, rounded up, bounds
    its reach from the disc center ``C_B``.  The hull end ``C(0)`` does not
    depend on ``t``, so its distance from ``C_B`` is computed once per class;
    each bisection step bounds only ``sqrt(disc(v) / r_v^2 + t)``, against
    ``mu - C_B``, and ``sqrt(t)``, on the grid of :func:`_center_hull`.  The
    result, found by bisection, is a conservative lower bound for the true
    threshold; undershooting is harmless (the search merely inspects more
    ranks).
    """
    if ctx.bmt_radius_sq is None:
        return Fraction(0)
    gap0 = abs(ctx.hull_hi - ctx.bmt_center)  # |C(0) - C_B|, C(0) rounded up
    if ctx.rv:
        base = Fraction(ctx.delta, ctx.rv * ctx.rv)
        shift = ctx.mu - ctx.bmt_center

    def certified(t: Fraction) -> bool:
        gap = max(gap0, abs(shift - _sqrt_bounds(base + t)[1])) if ctx.rv else gap0
        reach = gap + _sqrt_bounds(t)[1]
        return reach * reach < ctx.bmt_radius_sq

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


def _scan_rank(ctx: _WallContext, sink: dict, r: int, t_hi: Fraction) -> None:
    """All candidates of member rank ``r`` with squared radius at most ``t_hi``
    (``r != 0`` for a rank-zero total, whose rank-zero members are vertical).

    The center lies in :func:`_center_hull`; admissibility pins ``c`` into
    ``(C r, C r + im_v(top))``; and for fixed ``(r, c)`` the center is an
    injective affine function of ``d``; for a rank-zero total, whose circles
    all have the center ``C = D_v / (2 c_v)``, the squared radius is.
    Windows are rounded outward and the exact predicate does all the
    rejection.

    The windows are decided on integers: each hull end is written ``n / q``
    over one denominator once per rank, and a row's ``2d``-window runs
    between two numerators affine in ``c`` over one positive denominator,
    so each row costs two products and two floor divisions.  With
    ``k1 = r_v c - r c_v``, the ends are ``(2 n k1 + r D_v q) / (r_v q)``
    for the two hull ends when ``r_v > 0``; for rank zero, from
    ``rho^2 = C^2 - (c_v D - c D_v) / k1``, they are
    ``(c D_v + k1 (C^2 - rho^2)) / c_v`` at ``rho^2 = 0`` and ``t_hi``.

    The hull window of a row can be far wider than its walls: the middle-rank
    cap ``disc(v) / (2 r_v gap)`` exceeds a hundred for some small classes
    of rank 4 and 5, and their windows then hold tens of millions of
    triples.  So each window is clipped by the rank's
    :meth:`_RankLines.clip` to the lattice points that pass the predicate's
    four tests linear in ``2d``, a few per row, and only a row left with
    some of them reaches the predicate.
    """
    rv, cv, Dv = ctx.rv, ctx.cv, ctx.Dv
    lo, hi = _center_hull(ctx, t_hi)
    q = math.lcm(lo.denominator, hi.denominator)
    ends = (lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator))
    # Admissibility at the top: C r < c < C r + c_v - r_v C, over q.
    rn = (r * ends[0], r * ends[1])
    im_hi = max(cv * q - rv * n for n in ends)
    if rv:
        (a0, b0), (a1, b1) = ((2 * n * rv, r * (Dv * q - 2 * n * cv)) for n in ends)
        den = rv * q
    else:
        # Over c_v q^2 t_d, with t_hi = t_n / t_d and k1 = -r c_v.
        n, tn, td = ends[0], t_hi.numerator, t_hi.denominator
        a0 = a1 = Dv * q * q * td
        b0 = -r * cv * n * n * td
        b1 = b0 + r * cv * q * q * tn
        den = cv * q * q * td
    clip = ctx.lines(r).clip
    for c in range(-(-min(rn) // q), (max(rn) + im_hi) // q + 1):
        x0, x1 = a0 * c + b0, a1 * c + b1
        Ds = clip(c, -(-min(x0, x1) // den), max(x0, x1) // den)
        if Ds:
            _row_walls(ctx, sink, r, c, Ds)


def enumerate_tilt_walls(v: ChernCharacter, region: Region) -> list[WallCandidate]:
    """All circle walls of ``v`` meeting the region, outermost first.

    Walls are deduplicated by locus and unordered destabilizing pair, then
    sorted by descending squared radius and by the sub member.  The search
    runs on derived bounds, each a consequence of evaluating the wall data
    at the top of a candidate circle, where every participating slope
    vanishes.  For ``r_v >= 0``, one member per pair:

    * a member rank ``0 <= r <= r_v`` satisfies
      ``|c - r c_v / r_v| <= disc(v) / (2 r_v rho)``, which caps the radius
      because the integer ``c`` keeps a fixed distance from that center line;
    * ranks outside ``[0, r_v]`` obey ``rho^2 <= disc(v) / (n^2 - r_v^2)``
      with ``n = |r| + |r_v - r| > r_v``, a cap decreasing to zero, and the
      rank loop stops once it falls below the certified vacuity radius of
      :func:`_vacuity_radius_cap`.  For a rank-zero total every member
      rank is outside, ``n = 2 |r|`` and the cap reads ``2 |r| rho <= c_v``;
      all its circles share the center ``D_v / (2 c_v)``;
    * each pair ``{w, v - w}`` is searched from one member
      (:func:`_derived_walls`), so ranks ``r_v - k`` and ``r_v + e`` are not.

    A class of negative rank is searched as its derived dual
    ``ch(E^v[1]) = (-r, c, -d, e)`` over the region mirrored by ``beta -> -beta``,
    an exact symmetry of the predicate, and its walls are mapped back
    (:func:`_mirror_wall`); the oracle takes no such step.

    When no vacuity disc exists the outside-rank loop has no certified stop,
    and a :class:`WallSearchError`, raised before any scan, asks for an
    explicit box instead of guessing: :func:`brute_force_walls`, or
    ``p3walls walls --brute-force``.  A nonpositive discriminant admits
    no circle walls at all (negative is incompatible with discriminant
    additivity; zero forces any equal-slope pair onto a vertical locus), so
    those return ``[]`` at once, as does a rank-zero class with ``c_v <= 0``.
    """
    ctx = _WallContext(v, region)  # a class off the lattice is named as given
    if ctx.rv < 0:
        mirror = Region(-region.beta_max, -region.beta_min, region.alpha_sq_max)
        return _sorted_walls(map(_mirror_wall, _derived_walls(_WallContext(-v.dual(), mirror))))
    return _derived_walls(ctx)


def _mirror_wall(wall: WallCandidate) -> WallCandidate:
    """``wall`` under the derived dual: ``beta -> -beta``, ``(r, c, d) -> (-r, c, -d)``."""
    sub, quotient = (ChernTruncation(-m.r, m.c, -m.d) for m in (wall.sub, wall.quotient))
    circle = Circle(-wall.circle.center, wall.circle.radius_sq)
    return WallCandidate(circle, *_orient_pair(sub, quotient))


def _derived_walls(ctx: _WallContext) -> list[WallCandidate]:
    """The derived-bound search of :func:`enumerate_tilt_walls` for ``r_v >= 0``.

    One member per pair: the ranks ``k = 0 .. r_v // 2`` at the middle cap
    ``(disc(v) / (2 g))^2``, ``g = r_v gap``, then the outside ranks ``-e``.

    * *Complements.*  :func:`_pair_key`, the circle and :func:`_orient_pair`
      are symmetric under ``w <-> v - w``.  Complementary ranks get the same
      cap (``g(k) = g(r_v - k)``, and ``n`` is the same for ``r_v + e`` and
      ``-e``), the same hull and the same admissibility windows, rounded
      outward.
    * *Torsion.*  For ``w = (0, c, d)`` at the top of its circle,
      ``disc(v) = c^2 + disc(u) + 2 c c_u^C`` with
      ``c_u^C = sqrt(disc(v) + r_v^2 rho^2) - c > 0``, so ``c^2 < disc(v)``
      and ``rho <= (disc(v) - c^2) / (2 c r_v) < disc(v) / (2 r_v)``: the
      cap at ``k = 0``, where ``g = r_v``.
    """
    if ctx.delta <= 0:
        return []
    if ctx.rv == 0 and ctx.cv <= 0:
        return []  # the imaginary part of v is c_v everywhere: no admissible tops
    t_stop = _vacuity_radius_cap(ctx)
    if t_stop <= 0:
        if ctx.rv == 0:
            reason = "cannot certify a finite search for this rank-zero class (no vacuity disc)"
        else:
            reason = ("cannot certify termination for this class (no vacuity disc below"
                      " the candidate circles)")
        raise WallSearchError(f"{reason}; pass explicit SearchBounds")
    found: dict = {}
    for k in range(ctx.rv // 2 + 1) if ctx.rv else ():  # and not r_v - k
        g = min(k * ctx.cv % ctx.rv, -k * ctx.cv % ctx.rv) or ctx.rv  # r_v * gap
        _scan_rank(ctx, found, k, Fraction(ctx.delta, 2 * g) ** 2)
    excess = 1
    while True:
        # n = r_v + 2 excess, so n^2 - r_v^2 = 4 excess (r_v + excess)
        cap_sq = Fraction(ctx.delta, 4 * excess * (ctx.rv + excess))
        if cap_sq <= t_stop:
            break
        _scan_rank(ctx, found, -excess, cap_sq)  # and not its complement r_v + excess
        excess += 1
    return _sorted_walls(found.values())


def wall_to_dict(candidate: WallCandidate) -> dict:
    """JSON-ready mapping with every rational rendered exactly."""
    return {
        "center": str(candidate.circle.center),
        "radius_sq": str(candidate.circle.radius_sq),
        "sub": str(candidate.sub),
        "quotient": str(candidate.quotient),
        "admissible_top": str(candidate.top),
    }

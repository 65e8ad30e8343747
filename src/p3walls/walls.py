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
square comparison of integers.  A search keeps each wall as the integers
of its pair, and rationals (the circle and the member truncations) are
built once per wall, after the search.

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
what depends only on the row once (:func:`_row_walls`), and both walk each
member rank's rows once (:func:`_walk_rank`), clipping each row's window to
the lattice points that pass five of the predicate's tests: the four linear
in ``2d`` and the circle test.  The walker skips the side of ``k1 = 0`` on
which the two admissibility tests cannot both hold
(:func:`_admissible_rows`), and sets the tests up once per rank as
half-lines and a gap in ``2d``, so a row costs at most five divisions and
one integer square root, and a row whose clipped window is empty never
reaches the predicate.  The predicate decides the same tests from their
definitions, on every triple it is handed, and reads nothing the walker
builds.  The searches differ only in which rows they walk: the derived
search visits each unordered pair ``{w, v - w}`` from one member.
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
        if self.radius_sq.numerator <= 0:
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
        return wall_top(self.circle)

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
    radius are built only when it exists, and the region's integers and the
    slope ``mu`` only when a scan or the certificate first reads them, so a
    class refused for want of the circle costs integer work only.
    """

    def __init__(self, v: ChernCharacter, region: Region):
        if not v.is_lattice():
            raise ValueError(f"total class is not on the truncation lattice: {v}")
        self.region = region
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
        # bmt_zero_circle(v): center -G1 / (2 delta_g), squared radius
        # (G1^2 - 4 G0 delta_g) / (2 delta_g)^2.
        self.bmt_center = self.bmt_radius_sq = None
        if self.delta > 0 and self.G1 * self.G1 > 4 * self.G0 * self.delta_g:
            self.bmt_center = Fraction(-self.G1, 2 * self.delta_g)
            self.bmt_radius_sq = Fraction(
                self.G1 * self.G1 - 4 * self.G0 * self.delta_g, 4 * self.delta_g * self.delta_g
            )

    @cached_property
    def region_ints(self) -> tuple[int, int, int, int, int]:
        """:func:`_region_ints` of the search region, read by the predicate."""
        return _region_ints(self.region)

    @cached_property
    def mu(self) -> Fraction:
        """The slope ``c_v / r_v`` (``r_v != 0``), read by the certificate and the hull."""
        return Fraction(self.cv, self.rv)

    @cached_property
    def hull_hi(self) -> Fraction:
        """The fixed end ``C(0)`` of :func:`_center_hull`, rounded up, bounded
        once per class; for rank zero, ``D_v / (2 c_v)``, every circle's center."""
        if not self.rv:
            return Fraction(self.Dv, 2 * self.cv)
        return self.mu - _sqrt_bounds(Fraction(self.delta, self.rv * self.rv))[0]


def _admissible_rows(ctx: _WallContext, r: int, cs: range) -> range:
    """The rows of ``cs`` (a step-1 range) of member rank ``r`` that can hold
    an admissible pair: all of them, less one side of ``k1 = 0``
    (``k1 = r_v c - r c_v``) when ``r_v != 0`` and ``r`` is outside
    ``[0, r_v]``.

    At every ``beta`` the imaginary parts ``im(x) = c_x - r_x beta`` of
    ``w = (r, c, d)`` and ``u = v - w`` satisfy
    ``r_u im(w) - r im(u) = r_u c - r c_u = k1``, whatever ``d``.
    Admissibility asks both to be positive at the top of the circle.  When
    ``r`` and ``r_u = r_v - r`` have opposite signs, ``r_u im(w) - r im(u)``
    then has the sign of ``r_u``, so no row whose ``k1`` has the sign of
    ``r`` holds an admissible ``2d``: its window is empty, and the walker
    hands the predicate exactly what it would without the cut.  That side
    is one end of ``cs``, cut off at ``c = r c_v / r_v``.  The identity also
    empties one side of ``r = 0``, of ``r = r_v`` and, for ``r_v = 0``, of
    every rank; those rows are walked, and a constant test skips each.

    In the walker's terms the two admissibility half-lines bound ``2d``
    from opposite ends there, and they meet only where
    ``q(c) = a_l b_u(c) - a_u b_l(c) <= 0``; on the side of the sign of
    ``r``, ``q(c) = |r_v| (2 k1^2 + |r| + |r_u|) > 0``.
    """
    rv, rcv = ctx.rv, r * ctx.cv
    if not rv or r * (rv - r) >= 0:
        return cs
    if r * rv < 0:  # drop c < r c_v / r_v, where k1 has the sign of -r_v, that of r
        return range(max(cs.start, -(-rcv // rv)), cs.stop)
    return range(cs.start, min(cs.stop, rcv // rv + 1))  # drop c > r c_v / r_v


def _walk_rank(ctx: _WallContext, sink: set, r: int, cs: range, ends: tuple, den: int) -> None:
    """Hand :func:`_row_walls` the survivors of every row ``c`` in ``cs`` (a
    step-1 range) of member rank ``r``, walking each row once.

    Only the rows :func:`_admissible_rows` keeps are walked.  The window of
    row ``c`` runs from ``ceil(min(x) / den)`` to ``floor(max(x) / den)``
    over ``x = e c + f`` for the two ``(e, f)`` of ``ends``, ``den > 0``.
    It is clipped to the ``D = 2d`` that pass five of the predicate's
    tests, set up once at the top for the whole rank.

    *Linear tests.*  On a row with ``k1 = r_v c - r c_v != 0`` the top of the
    circle is ``beta = K2 / m`` with ``m = 2 k1`` and ``K2 = r_v D - r D_v``.
    Scaled by ``|m| > 0``, the imaginary part there of a member ``x`` is
    ``|m| c_x - s r_x K2``, ``s = sign(k1)``, affine in ``D``, and
    admissibility ``0 < im(w) < im(v)`` is ``im(w) > 0`` and ``im(u) > 0``
    for ``w = (r, c, D/2)`` and ``u = v - w`` (strict, so ``b`` carries a
    ``+ 1``).  The member discriminants are ``c^2 - r D >= 0`` and
    ``c_u^2 - r_u (D_v - D) >= 0``.  These four are half-lines ``a D >= b``
    with ``a = (-s r_v r, -s r_v r_u, -r, r_u)``, which depends on the row
    only through ``s``, so the half-lines bounding ``D`` from below, from
    above and those whose ``a`` vanishes are sorted once for each sign.  The
    right-hand sides ``1 - s (2 k1 c + r^2 D_v)``, ``1 - s (2 k1 c_u + r r_u
    D_v)``, ``-c^2`` and ``r_u D_v - c_u^2`` cost a few products per row.
    Each half-line is one floor or ceiling division; a zero ``a`` leaves a
    constant test, which skips the row when it fails, as does ``k1 = 0``,
    where the predicate rejects the whole row.

    *The circle test* ``quarter = K2^2 - 4 k1 K3 > 0``, ``K3 = c_v D - c D_v``.
    For ``r_v = 0`` it is linear, ``4 r c_v^2 D > r D_v (4 c c_v - r D_v)``,
    a fifth half-line, the same for both signs of ``k1``.  For ``r_v != 0``
    it is quadratic: ``r_v^2 quarter = (r_v^2 D - p)^2 - 4 k1^2 disc(v)``
    with ``p = 2 r_v c_v c + r (r_v D_v - 2 c_v^2)``, so the ``D`` failing
    it, the row's gap, are the integers ``x`` with ``|r_v^2 x - p| <= s``
    for ``s = sqrt(4 k1^2 disc(v))``, none when ``disc(v) < 0``.  An integer
    has absolute value at most ``sqrt(n)`` exactly when it has at most
    ``isqrt(n)``, so rounding ``s`` down with :func:`math.isqrt` gives
    exactly the gap.  A gap could cut a window into two ranges, but it cuts
    it from one side only: the top ``beta = K2 / m`` lies on the slope-zero
    locus of ``v``, which reads ``r_v^2 quarter / m^2 = (r_v beta - c_v)^2 -
    disc(v)``, and ``im(v) = im(w) + im(u) > 0`` puts ``r_v beta - c_v < 0``
    at every ``D`` the admissibility tests keep.  As ``r_v beta - c_v``
    grows with ``D`` when ``k1 > 0`` and falls when ``k1 < 0``, the ``D``
    that pass lie under the gap when ``k1 > 0`` and over it when
    ``k1 < 0``: the gap is one more bound, one division after one ``isqrt``.

    What is left is cut to the lattice (``2d = c`` mod 2).  A row left with
    some lattice point goes to the predicate as one step-2 range, and the
    predicate still runs every test on each triple.
    """
    rv, cv, Dv = ctx.rv, ctx.cv, ctx.Dv
    ru, rcv = rv - r, r * cv
    h0, h1, h3, h4 = r * r * Dv, r * ru * Dv, ru * Dv, r * Dv
    # For r_v = 0 the circle test is a fifth half-line; otherwise the gap
    # |A D - p| <= isqrt(sq k1^2), p = p1 c + p0, when disc(v) >= 0.
    circle = () if rv else (4 * r * cv * cv,)
    sq = 4 * ctx.delta if rv and ctx.delta >= 0 else None
    A, p1, p0 = rv * rv, 2 * rv * cv, r * (rv * Dv - 2 * cv * cv)
    # Per sign s of k1, a = (-s r_v r, -s r_v r_u, -r, r_u): the tests bounding
    # D from below (a > 0), from above (a < 0, kept as -a) and those whose a
    # vanishes.
    sides = []
    for a in ((rv * r, rv * ru, -r, ru) + circle, (-rv * r, -rv * ru, -r, ru) + circle):
        lower, upper, fixed = [], [], []
        for i, x in enumerate(a):
            if x > 0:
                lower.append((i, x))
            elif x < 0:
                upper.append((i, -x))
            else:
                fixed.append(i)
        sides.append((lower, upper, fixed))
    below_zero, above_zero = sides
    (e0, f0), (e1, f1) = ends
    for c in _admissible_rows(ctx, r, cs):
        k1 = rv * c - rcv
        if not k1:
            continue
        x0, x1 = e0 * c + f0, e1 * c + f1
        if x0 > x1:
            x0, x1 = x1, x0
        lo, hi = -(-x0 // den), x1 // den
        # the right-hand sides, and for r_v = 0 the circle test's half-line
        cu = cv - c
        y0, y1 = 2 * k1 * c + h0, 2 * k1 * cu + h1
        if k1 > 0:
            b = (1 - y0, 1 - y1, -c * c, h3 - cu * cu)
            lower, upper, fixed = above_zero
        else:
            b = (1 + y0, 1 + y1, -c * c, h3 - cu * cu)
            lower, upper, fixed = below_zero
        if not rv:
            b += (1 + h4 * (4 * c * cv - h4),)
        if fixed and any(b[i] > 0 for i in fixed):
            continue
        for i, a in lower:
            x = -(-b[i] // a)
            if x > lo:
                lo = x
        for i, a in upper:
            x = -b[i] // a
            if x < hi:
                hi = x
        if lo > hi:
            continue
        if sq is not None:
            s = math.isqrt(sq * k1 * k1)
            p = p1 * c + p0
            if k1 > 0:
                x = -((s - p) // A) - 1  # the last D under the gap
                if x < hi:
                    hi = x
            else:
                x = (p + s) // A + 1  # the first D over it
                if x > lo:
                    lo = x
        lo += (lo - c) % 2
        if lo <= hi:
            _row_walls(ctx, sink, r, c, range(lo, hi + 1, 2))


def _row_walls(ctx: _WallContext, sink: set, r: int, c: int, Ds: range) -> None:
    """The full wall predicate on each integer triple ``(r, c, 2d)``, ``2d`` in ``Ds``.

    This is the single definition of "is a wall" shared by the derived-bound
    enumeration and the exhaustive scan; the two strategies differ only in
    which rows they feed it.  Every test is on integers and runs on every
    triple, whatever window it is handed; the tests :func:`_walk_rank`
    clips by are decided here from their definitions, with nothing the
    walker builds, so a fault in the walker cannot also hide in the
    predicate.  A survivor's pair goes into ``sink`` as its members'
    integers ``(r, c, 2d)``, ordered by :func:`_orient_pair`, so a pair
    found from both members is kept once; :func:`_build_walls` builds the
    walls after the scan.
    """
    rv, cv, Dv = ctx.rv, ctx.cv, ctx.Dv
    k1 = rv * c - r * cv
    if k1 == 0 or not Ds:
        return  # vertical or everywhere (also the zero member and complement), or no triple
    ru, cu = rv - r, cv - c
    # The circle has center C = K2 / m and squared radius quarter / m^2; at
    # its top the imaginary parts of the members, times m, are m c - r K2
    # and m c_u - r_u K2.
    m = 2 * k1
    mm = m * m
    mc, mcu = m * c, m * cu
    # Positivity: on the circle the form is affine in beta, with value
    # P / (g m^2) at the top and slope S / (g m), where
    # P = dg (K2^2 + quarter) + G1 K2 m + G0 m^2 and S = 2 dg K2 + G1 m; it
    # is >= 0 somewhere on the arc iff P >= 0 or P^2 <= S^2 quarter.
    dg, G1m, G0mm = ctx.delta_g, ctx.G1 * m, ctx.G0 * mm
    reg = ctx.region_ints
    for D in Ds:
        if (D - c) % 2:
            continue  # off the truncation lattice
        K2 = rv * D - r * Dv  # twice k2
        if (mc - r * K2) * k1 <= 0 or (mcu - ru * K2) * k1 <= 0:
            continue  # not admissible at the top
        Du = Dv - D
        if c * c < r * D or cu * cu < ru * Du:
            continue  # a member would violate the discriminant inequality
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
        sink.add(_orient_pair((r, c, D), (ru, cu, Du)))


def _orient_pair(a: tuple, b: tuple) -> tuple:
    """The pair ``(sub, quotient)`` of two members given as ``(r, c, 2d)``:
    the member of positive rank first when exactly one has positive rank,
    otherwise the lexicographically smaller (``2d`` orders as ``d`` does)."""
    if (a[0] > 0) != (b[0] > 0):
        return (a, b) if a[0] > 0 else (b, a)
    return (a, b) if a <= b else (b, a)


def _build_walls(ctx: _WallContext, pairs: Iterable) -> list[WallCandidate]:
    """The walls of the kept pairs of :func:`_row_walls`, outermost first.

    Each is built once, after the scan, from the integers of its sub and of
    the total: the circle is the sub's (the complement's is the same).  The
    walls are sorted by descending squared radius, then by the sub's
    ``(r, c, 2d)``; no two kept pairs share both.
    """
    rv, cv, Dv = ctx.rv, ctx.cv, ctx.Dv
    keyed = []
    for sub, quotient in pairs:
        r, c, D = sub
        k1 = rv * c - r * cv
        K2 = rv * D - r * Dv
        m = 2 * k1
        radius_sq = Fraction(K2 * K2 - 4 * k1 * (cv * D - c * Dv), m * m)
        keyed.append((radius_sq, (-r, -c, -D), sub, quotient, K2, m))
    keyed.sort(reverse=True)  # descending rho^2, then ascending sub
    return [
        WallCandidate(Circle(Fraction(K2, m), radius_sq),
                      ChernTruncation(Fraction(r), Fraction(c), Fraction(D, 2)),
                      ChernTruncation(Fraction(rq), Fraction(cq), Fraction(Dq, 2)))
        for radius_sq, _, (r, c, D), (rq, cq, Dq), K2, m in keyed
    ]


def brute_force_walls(
    v: ChernCharacter, region: Region, bounds: SearchBounds
) -> list[WallCandidate]:
    """Exhaustive oracle: the whole box, with no derived bound.

    Applies exactly the same wall predicate as :func:`enumerate_tilt_walls`
    to every lattice triple ``(r, c, 2d)`` with ``|r| <= r_max``,
    ``|c| <= c_max`` and ``|2d| <= two_d_max`` that could be a wall, and
    reports the deduplicated, sorted walls.  Each rank's rows walk the
    window ``|2d| <= two_d_max`` through :func:`_walk_rank`, the path of
    the derived scans: the walker drops only rows on which the two
    admissibility tests cannot both hold (:func:`_admissible_rows`),
    off-lattice points and points that fail one of the predicate's linear
    tests or its circle test, so the oracle's walls are those of the whole
    box.  The
    oracle takes none of the derived search's rank, ``c`` or radius bounds.

    A class with ``disc(v) < 0`` has no wall, so no row is walked.  At the
    top ``(beta, alpha)``, ``alpha > 0``, of a wall both members have
    ``nu = 0``, so ``disc(x) = (c_x^beta)^2 - r_x^2 alpha^2`` for
    ``x = w, u`` and for ``v = w + u``.  Admissibility (``c_x^beta > 0``)
    and ``disc(x) >= 0`` give ``c_x^beta >= |r_x| alpha``, so
    ``disc(v) >= ((|r_w| + |r_u|)^2 - (r_w + r_u)^2) alpha^2 >= 0``.
    """
    ctx = _WallContext(v, region)
    if ctx.delta < 0:
        return []
    found: set = set()
    t = bounds.two_d_max
    cs = range(-bounds.c_max, bounds.c_max + 1)
    for r in range(-bounds.r_max, bounds.r_max + 1):
        _walk_rank(ctx, found, r, cs, ((0, -t), (0, t)), 1)
    return _build_walls(ctx, found)


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


def _scan_rank(ctx: _WallContext, sink: set, r: int, t_hi: Fraction) -> None:
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
    triples.  So the rank's rows walk their windows through
    :func:`_walk_rank`, which keeps the lattice points that pass the
    predicate's four tests linear in ``2d`` and its circle test, a few per
    row, and hands only those to the predicate.  The rank-zero rows stop at
    the torsion bound ``c^2 < disc(v)`` of :func:`_derived_walls`: past it
    no lattice point passes the two admissibility tests and ``disc(u) >= 0``.
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
    stop = (max(rn) + im_hi) // q + 1
    if not r:
        stop = min(stop, math.isqrt(ctx.delta - 1) + 1)  # the torsion bound c^2 < disc(v)
    cs = range(-(-min(rn) // q), stop)
    _walk_rank(ctx, sink, r, cs, ((a0, b0), (a1, b1)), den)


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
    no circle walls at all, so those return ``[]`` at once, as does a
    rank-zero class with ``c_v <= 0``.  Zero forces any equal-slope pair
    onto a vertical locus.  Negative cannot hold at a wall's top
    ``(beta, alpha)``: there every member ``x`` has ``nu = 0``, so
    ``disc(x) = (c_x^beta)^2 - r_x^2 alpha^2``, and admissibility with
    ``disc(x) >= 0`` gives ``c_x^beta >= |r_x| alpha``, hence
    ``disc(v) >= ((|r_w| + |r_u|)^2 - (r_w + r_u)^2) alpha^2 >= 0``.
    """
    ctx = _WallContext(v, region)  # a class off the lattice is named as given
    if ctx.rv < 0:
        mirror = Region(-region.beta_max, -region.beta_min, region.alpha_sq_max)
        return _build_walls(ctx, map(_mirror_wall, _derived_walls(_WallContext(-v.dual(), mirror))))
    return _build_walls(ctx, _derived_walls(ctx))


def _mirror_wall(pair: tuple) -> tuple:
    """A kept pair under the derived dual, ``(r, c, 2d) -> (-r, c, -2d)``,
    ordered by :func:`_orient_pair`.  Built with the integers of the
    caller's class, whose circle is the dual's reflected by ``beta -> -beta``
    (``K2`` and ``quarter`` are unchanged and ``k1`` changes sign)."""
    (r, c, D), (ru, cu, Du) = pair
    return _orient_pair((-r, c, -D), (-ru, cu, -Du))


def _derived_walls(ctx: _WallContext) -> set:
    """The derived-bound search of :func:`enumerate_tilt_walls` for ``r_v >= 0``:
    the kept pairs of :func:`_row_walls`.

    One member per pair: the ranks ``k = 0 .. r_v // 2`` at the middle cap
    ``(disc(v) / (2 g))^2``, ``g = r_v gap``, then the outside ranks ``-e``.

    * *Complements.*  The predicate, the circle and :func:`_orient_pair`
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
    found: set = set()
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
    return found


def wall_to_dict(candidate: WallCandidate) -> dict:
    """JSON-ready mapping with every rational rendered exactly."""
    return {
        "center": str(candidate.circle.center),
        "radius_sq": str(candidate.circle.radius_sq),
        "sub": str(candidate.sub),
        "quotient": str(candidate.quotient),
        "admissible_top": str(candidate.top),
    }

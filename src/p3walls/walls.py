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
what depends only on the row once (:func:`_row_walls`).  A class whose
search cannot be certified finite is refused before any row is scanned.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

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
    """Raised when the derived enumeration bounds cannot certify termination."""


def _truncation(ch: ChernCharacter | ChernTruncation) -> ChernTruncation:
    if isinstance(ch, ChernCharacter):
        return ch.truncation()
    return ch


def tilt_wall_locus(
    v: ChernCharacter | ChernTruncation,
    w: ChernCharacter | ChernTruncation,
) -> WallLocus:
    """Locus of tilt-slope equality of ``v`` and ``w``; see the module docstring."""
    a, b = _truncation(v), _truncation(w)
    k1 = a.r * b.c - b.r * a.c
    k2 = a.r * b.d - b.r * a.d
    k3 = a.c * b.d - b.c * a.d
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


def hyperbola_alpha_sq(
    v: ChernCharacter | ChernTruncation, beta: RationalInput
) -> Optional[Fraction]:
    """Height ``alpha^2`` of the slope-zero locus of ``v`` over ``beta``.

    Returns ``None`` where the locus has no point of positive height.  For
    rank zero the locus is a vertical line and a height function over
    ``beta`` makes no sense, so that case is rejected.
    """
    t = _truncation(v)
    if t.r == 0:
        raise ValueError("slope-zero locus of a rank-zero class is a vertical line")
    b = _rat(beta)
    value = 2 * (t.d - b * t.c + b * b / 2 * t.r) / t.r
    return value if value > 0 else None


def on_hyperbola(v: ChernCharacter | ChernTruncation, point: TiltPoint) -> bool:
    """Whether ``point`` lies on the slope-zero locus of ``v``."""
    return nu(_truncation(v), point) == 0


def _ge_sqrt(a: Fraction, x: Fraction) -> bool:
    """Exact test ``a >= sqrt(x)`` for ``x >= 0``."""
    return a >= 0 and a * a >= x


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


def _le_sum_of_sqrts(q: Fraction, x: Fraction, y: Fraction) -> bool:
    """Exact test ``q <= sqrt(x) + sqrt(y)`` for ``x, y >= 0``."""
    if q <= 0:
        return True
    lhs = q * q - x - y
    if lhs <= 0:
        return True
    return lhs * lhs <= 4 * x * y


def _plus_sqrt_le_sqrt(q: Fraction, x: Fraction, y: Fraction) -> bool:
    """Exact test ``q + sqrt(x) <= sqrt(y)`` for ``x, y >= 0``."""
    if q <= 0:
        if _ge_sqrt(-q, x):
            return True  # left side is <= 0
        # left side positive: sqrt(x) <= sqrt(y) + |q|
        spill = x - y - q * q
        return spill <= 0 or spill * spill <= 4 * q * q * y
    # q > 0: square once; 2 q sqrt(x) <= y - q^2 - x
    room = y - q * q - x
    if room < 0:
        return False
    return 4 * q * q * x <= room * room


def nested(a: Circle, b: Circle) -> NestedRelation:
    """Exact mutual position of two wall circles.

    Internal tangency is reported as nesting and external tangency as
    disjointness, matching how the chambers they bound behave.
    """
    if a == b:
        return NestedRelation.EQUAL
    gap = abs(a.center - b.center)
    if _plus_sqrt_le_sqrt(gap, a.radius_sq, b.radius_sq):
        return NestedRelation.FIRST_INSIDE_SECOND
    if _plus_sqrt_le_sqrt(gap, b.radius_sq, a.radius_sq):
        return NestedRelation.SECOND_INSIDE_FIRST
    if not _le_sum_of_sqrts(gap, a.radius_sq, b.radius_sq):
        return NestedRelation.DISJOINT
    return NestedRelation.CROSSING


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
    """Precomputed integer data for one total class and search region."""

    def __init__(self, v: ChernCharacter, region: Region):
        tr = v.truncation()
        if not tr.is_lattice():
            raise ValueError(f"total class is not on the truncation lattice: {v}")
        self.v = v
        self.v_tr = tr
        self.region = region
        self.region_ints = _region_ints(region)
        self.rv = int(tr.r)
        self.cv = int(tr.c)
        self.Dv = int(2 * tr.d)
        self.d_v = tr.d
        self.delta = self.cv * self.cv - self.rv * self.Dv  # integer discriminant
        # g1 = -2 c_v d_v + 6 r_v e_v and g0 = 4 d_v^2 - 6 c_v e_v over their
        # least common denominator g: g1 = G1 / g, g0 = G0 / g.
        e_num, e_den = v.e.numerator, v.e.denominator
        G1 = 6 * self.rv * e_num - self.cv * self.Dv * e_den
        G0 = self.Dv * self.Dv * e_den - 6 * self.cv * e_num
        h = math.gcd(G0, G1, e_den)
        self.G1, self.G0, self.delta_g = G1 // h, G0 // h, self.delta * (e_den // h)
        self.mu = Fraction(self.cv, self.rv) if self.rv else None
        bmt = bmt_zero_circle(v)
        self.bmt_center = bmt.center if bmt else None
        self.bmt_radius_sq = bmt.radius_sq if bmt else None


def _row_walls(ctx: _WallContext, sink: dict, r: int, c: int, Ds: range) -> None:
    """The full wall predicate on each integer triple ``(r, c, 2d)``, ``2d`` in ``Ds``.

    This is the single definition of "is a wall" shared by the derived-bound
    enumeration and the exhaustive scan; the two strategies differ only in
    which rows they feed it.  Every test is on integers; survivors go into
    ``sink`` under their pair key, the first one found winning.
    """
    rv, cv, Dv = ctx.rv, ctx.cv, ctx.Dv
    k1 = rv * c - r * cv
    if k1 == 0:
        return  # vertical or everywhere; also the zero member and complement
    s = 1 if k1 > 0 else -1
    ru, cu = rv - r, cv - c
    cc, cucu = c * c, cu * cu
    # The circle has center C = K2 / m and squared radius quarter / m^2.
    m = 2 * k1
    mm = m * m
    # Admissibility at the top beta = K2 / m, scaled by |m| > 0:
    # 0 < c - beta r < c_v - beta r_v is 0 < w0 - w1 D < v0 - v1 D.
    w0, w1 = s * (m * c + r * r * Dv), s * r * rv
    v0, v1 = s * (m * cv + r * rv * Dv), s * rv * rv
    # Positivity: on the circle the form is affine in beta, with value
    # P / (g m^2) at the top and slope S / (g m), where
    # P = dg (K2^2 + quarter) + G1 K2 m + G0 m^2 and S = 2 dg K2 + G1 m; it
    # is >= 0 somewhere on the arc iff P >= 0 or P^2 <= S^2 quarter.
    dg, G1m, G0mm = ctx.delta_g, ctx.G1 * m, ctx.G0 * mm
    reg = ctx.region_ints
    for D in Ds:
        if (D - c) % 2:
            continue  # off the truncation lattice
        im_w = w0 - w1 * D
        if im_w <= 0 or im_w >= v0 - v1 * D:
            continue
        Du = Dv - D
        if cc - r * D < 0 or cucu - ru * Du < 0:
            continue  # a member would violate the discriminant inequality
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
        circle = Circle(Fraction(K2, m), Fraction(quarter, mm))
        sub, quotient = _orient_pair(
            ChernTruncation(r, c, Fraction(D, 2)), ChernTruncation(ru, cu, Fraction(Du, 2))
        )
        sink.setdefault(_pair_key(ctx, r, c, D), WallCandidate(circle, sub, quotient))


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


def _sorted_walls(found: dict) -> list[WallCandidate]:
    return sorted(
        found.values(),
        key=lambda w: (-w.circle.radius_sq, w.sub.r, w.sub.c, w.sub.d),
    )


def brute_force_walls(
    v: ChernCharacter, region: Region, bounds: SearchBounds
) -> list[WallCandidate]:
    """Exhaustive oracle: test every lattice triple in the box, no pruning.

    Applies exactly the same wall predicate as :func:`enumerate_tilt_walls`
    to every ``(r, c, 2d)`` with ``|r| <= r_max``, ``|c| <= c_max``,
    ``|2d| <= two_d_max``, and reports the deduplicated, sorted walls.
    """
    ctx = _WallContext(v, region)
    found: dict = {}
    Ds = range(-bounds.two_d_max, bounds.two_d_max + 1)
    for r in range(-bounds.r_max, bounds.r_max + 1):
        for c in range(-bounds.c_max, bounds.c_max + 1):
            _row_walls(ctx, found, r, c, Ds)
    return _sorted_walls(found)


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
    ``C(rho^2)`` with ``C(t) = mu -/+ sqrt(disc(v)/r_v^2 + t)`` (admissible
    branch), monotone; the hull runs from ``C(0)`` to ``C(t)``, rounded
    outward.  For rank zero every center is ``d_v / c_v``.
    """
    if not ctx.rv:
        center = ctx.d_v / ctx.v_tr.c
        return center, center
    base = Fraction(ctx.delta, ctx.rv * ctx.rv)
    near, far = _sqrt_bounds(base)[0], _sqrt_bounds(base + t)[1]
    if ctx.rv > 0:
        return ctx.mu - far, ctx.mu - near
    return ctx.mu + near, ctx.mu + far


def _vacuity_radius_cap(ctx: _WallContext) -> Fraction:
    """Largest certified ``t`` such that every candidate circle with
    ``rho^2 <= t`` fails the positivity filter.

    A circle strictly inside the open disc bounded by :func:`bmt_zero_circle`
    has the positivity form strictly negative on it.  A candidate with
    ``rho^2 <= t`` is centered in ``_center_hull(ctx, t)`` and ``|x - C_B|``
    is convex, so the farther hull end plus ``sqrt(t)``, rounded up, bounds
    its reach from the disc center ``C_B``.  The result, found by bisection,
    is a conservative lower bound for the true threshold; undershooting is
    harmless (the search merely inspects more ranks).
    """
    if ctx.bmt_radius_sq is None:
        return Fraction(0)

    def certified(t: Fraction) -> bool:
        lo, hi = _center_hull(ctx, t)
        reach = max(abs(lo - ctx.bmt_center), abs(hi - ctx.bmt_center)) + _sqrt_bounds(t)[1]
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


def _scan_torsion_members(ctx: _WallContext, sink: dict) -> None:
    """Pairs with a rank-zero member (total rank nonzero).

    The rank-zero member has ``c > 0`` and discriminant ``c^2``, and
    discriminant additivity forces ``c^2 < disc(v)``.  For each ``c`` the
    ``d``-window is closed by the quotient discriminant on one side and by
    admissibility of the quotient at the top on the other.
    """
    rv, cv = ctx.rv, ctx.cv
    if ctx.delta < 1:
        return
    for c in range(1, math.isqrt(ctx.delta - 1) + 1):
        disc_side = ctx.d_v - Fraction((cv - c) ** 2, 2 * rv)
        adm_side = Fraction(c * (cv - c), rv)
        lo, hi = (disc_side, adm_side) if rv > 0 else (adm_side, disc_side)
        _row_walls(ctx, sink, 0, c, range(math.ceil(2 * lo), math.floor(2 * hi) + 1))


def _scan_rank(ctx: _WallContext, sink: dict, r: int, t_hi: Fraction) -> None:
    """All candidates of member rank ``r != 0`` with squared radius at most ``t_hi``.

    The center lies in :func:`_center_hull`; admissibility pins ``c`` into
    ``(C r, C r + im_v(top))``; and for fixed ``(r, c)`` the center is an
    injective affine function of ``d``.  Windows are rounded outward and the
    exact predicate does all the rejection.
    """
    rv = ctx.rv
    window = _center_hull(ctx, t_hi)
    im_hi = max(ctx.cv - rv * C for C in window)
    ends = (window[0] * r, window[1] * r)
    for c in range(math.ceil(min(ends)), math.floor(max(ends) + im_hi) + 1):
        k1 = rv * c - r * ctx.cv
        d_ends = [(C * k1 + r * ctx.d_v) / rv for C in window]
        Ds = range(math.ceil(2 * min(d_ends)), math.floor(2 * max(d_ends)) + 1)
        _row_walls(ctx, sink, r, c, Ds)


def _scan_rank_zero_total(ctx: _WallContext, sink: dict, t_stop: Fraction) -> None:
    """Enumeration for a rank-zero total class.

    All slope-equality circles share the center ``d_v / c_v``, and a member
    of rank ``r`` forces ``2 |r| rho <= c_v``, so the rank loop is closed by
    the certified vacuity radius alone.
    """
    cv = ctx.cv
    if cv <= 0:
        return  # the imaginary part of v is c_v everywhere: no admissible tops
    if t_stop <= 0:
        raise WallSearchError(
            "cannot certify a finite search for this rank-zero class "
            "(no vacuity disc); pass explicit SearchBounds"
        )
    center = _center_hull(ctx, t_stop)[0]
    r = 1
    while Fraction(cv * cv, 4 * r * r) > t_stop:
        t_hi = Fraction(cv * cv, 4 * r * r)
        for rr in (r, -r):
            for c in range(math.floor(center * rr), math.ceil(center * rr + cv) + 1):
                k1 = -rr * cv
                # rho^2 = center^2 - (cv D - c Dv) / k1 is affine in D
                d_ends = [
                    (c * ctx.Dv + k1 * (center * center - t)) / cv
                    for t in (Fraction(0), t_hi)
                ]
                Ds = range(math.ceil(min(d_ends)), math.floor(max(d_ends)) + 1)
                _row_walls(ctx, sink, rr, c, Ds)
        r += 1


def enumerate_tilt_walls(
    v: ChernCharacter,
    region: Region,
    bounds: Optional[SearchBounds] = None,
) -> list[WallCandidate]:
    """All circle walls of ``v`` meeting the region, outermost first.

    Walls are deduplicated by locus and unordered destabilizing pair, then
    sorted by descending squared radius and by the sub member.  When
    ``bounds`` is given the search delegates to :func:`brute_force_walls`
    over that box.

    Otherwise the search runs on derived bounds, each a consequence of
    evaluating the wall data at the top of a candidate circle, where every
    participating slope vanishes:

    * discriminants of an admissible pair obey
      ``disc(w) + disc(v-w) <= disc(v)``, so a rank-zero member has
      ``0 < c < sqrt(disc(v))``, finitely many values with closed
      ``d``-windows;
    * a member rank strictly between ``0`` and ``r_v`` satisfies
      ``|c - r c_v / r_v| <= disc(v) / (2 |r_v| rho)``, which caps the radius
      because the integer ``c`` keeps a fixed distance from the excluded
      center line;
    * ranks outside ``[0, r_v]`` obey ``rho^2 <= disc(v) / (n^2 - r_v^2)``
      with ``n = |r| + |r_v - r| > |r_v|``, a cap decreasing to zero, and the
      rank loop stops once it falls below the certified vacuity radius of
      :func:`_vacuity_radius_cap`.

    When no vacuity disc exists the outside-rank loop has no certified stop,
    and a :class:`WallSearchError`, raised before any scan, asks for
    explicit bounds instead of guessing.  A nonpositive discriminant admits
    no circle walls at all (negative is incompatible with discriminant
    additivity; zero forces any equal-slope pair onto a vertical locus), so
    those return ``[]`` at once.
    """
    if bounds is not None:
        return brute_force_walls(v, region, bounds)
    ctx = _WallContext(v, region)
    if ctx.delta <= 0:
        return []
    found: dict = {}
    t_stop = _vacuity_radius_cap(ctx)
    if ctx.rv == 0:
        _scan_rank_zero_total(ctx, found, t_stop)
        return _sorted_walls(found)
    if t_stop <= 0:
        raise WallSearchError(
            "cannot certify termination for this class (no vacuity disc below "
            "the candidate circles); pass explicit SearchBounds"
        )
    _scan_torsion_members(ctx, found)
    sign = 1 if ctx.rv > 0 else -1
    for k in range(1, abs(ctx.rv)):  # member ranks strictly between 0 and r_v
        r_mu = Fraction(sign * k * ctx.cv, ctx.rv)
        if r_mu.denominator == 1:
            gap = Fraction(1)
        else:
            gap = min(r_mu - math.floor(r_mu), math.ceil(r_mu) - r_mu)
        cap = Fraction(ctx.delta, 2 * abs(ctx.rv)) / gap
        _scan_rank(ctx, found, sign * k, cap * cap)
    excess = 1
    while True:
        n = abs(ctx.rv) + 2 * excess
        cap_sq = Fraction(ctx.delta, n * n - ctx.rv * ctx.rv)
        if cap_sq <= t_stop:
            break
        for r in (sign * (abs(ctx.rv) + excess), -sign * excess):
            _scan_rank(ctx, found, r, cap_sq)
        excess += 1
    return _sorted_walls(found)


def wall_to_dict(candidate: WallCandidate) -> dict:
    """JSON-ready mapping with every rational rendered exactly."""
    return {
        "center": str(candidate.circle.center),
        "radius_sq": str(candidate.circle.radius_sq),
        "sub": str(candidate.sub),
        "quotient": str(candidate.quotient),
        "admissible_top": str(candidate.top),
    }

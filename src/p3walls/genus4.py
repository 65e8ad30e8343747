"""Chamber bookkeeping for the class of degree-6, genus-4 space curves.

The fixed total class is the character ``(1, 0, -6, 15)`` of the ideal sheaf
of a smooth curve of degree 6 and genus 4 in projective 3-space — the
classical example of a curve that is a complete intersection of a quadric
and a cubic.  Everything this module reports is numerical: wall loci and
destabilizing pairs from :mod:`p3walls.walls`, Euler pairings, and the
dimension arithmetic of the moduli spaces attached to the chambers.  Where
an input cannot be derived from character arithmetic (an actual cohomology
dimension, say) the report carries it tagged ``recorded`` and keeps every
consequence computed from it tagged ``computed``, so the provenance of each
number stays visible.  Each recorded number is written once: the Ext
dimensions in :data:`EXT_ASSUMPTIONS`, every other one in
:data:`RECORDED_DIMENSIONS`.  Everything else is derived from those two
tables, from sections of line bundles, from Euler pairings and from the
degrees :data:`QUADRIC`, :data:`CUBIC` and :data:`CONIC`.

Two factors dominate the story, the members of the destabilizing pair on
the second-largest wall:

* the *twisted line ideal* factor ``(1, -1, -1/2, 11/6)``, the
  degree-1-twist of the ideal sheaf of a line;
* the *planar sheaf* factor ``(0, 1, -11/2, 79/6)``, a torsion sheaf
  supported on a plane.

The pair admits finitely many integral refinements, obtained by moving
points of the planar factor to the line; :func:`line_plane_refinements`
lists them exactly.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chern import (
    ChernCharacter,
    curve_ideal_ch,
    euler_pairing,
    from_resolution,
    line_bundle_ch,
)
from .walls import DEFAULT_REGION, SCHEMA, WallCandidate, enumerate_tilt_walls, wall_to_dict

#: Keys naming the two factors in Euler and Ext tables.
LINE_FACTOR = "twisted_line_ideal"
PLANAR_FACTOR = "planar_sheaf"

#: Degrees of the quadric and the cubic that cut out the curve.
QUADRIC = 2
CUBIC = 3
#: Degree of the conic whose ideal, twisted, destabilizes on the ``33/4`` wall.
CONIC = 2


@functools.lru_cache(maxsize=None)
def canonical_class() -> ChernCharacter:
    """The total class ``(1, 0, -6, 15)``, built from its Koszul-type resolution.

    A complete intersection of a quadric and a cubic has ideal sheaf resolved
    by ``0 -> O(-5) -> O(-2) + O(-3) -> I -> 0``.  The character is immutable,
    so it is built once per process.
    """
    return from_resolution([(-QUADRIC, 1), (-CUBIC, 1), (-(QUADRIC + CUBIC), -1)])


@functools.lru_cache(maxsize=None)
def canonical_walls() -> tuple[WallCandidate, ...]:
    """The walls of the canonical class over ``DEFAULT_REGION``, outermost first.

    The class and the window are fixed, so the certified search runs once
    per process; the tuple keeps callers from editing the shared result.
    Everything else in :func:`report` is rebuilt on every call.
    """
    return tuple(enumerate_tilt_walls(canonical_class(), DEFAULT_REGION))


def third_wall_factors() -> tuple[ChernCharacter, ChernCharacter]:
    """Full characters of the pair on the wall of squared radius ``73/4``.

    The rank-one member is the 1-twist of a line's ideal sheaf; the
    complementary rank-zero member is forced by subtraction.
    """
    line = curve_ideal_ch(1, 0).twist(1)
    return line, canonical_class() - line


def destabilizing_pairs() -> dict[Fraction, tuple[ChernCharacter, ChernCharacter]]:
    """Full-character pairs, keyed by squared wall radius, where determined.

    Only three of the four walls carry a pair whose third components are
    pinned by geometry accessible to this module: the innermost wall is a
    line-bundle wall, the next one comes from the 1-twist of a conic's ideal
    sheaf, and the ``73/4`` wall carries :func:`third_wall_factors`.  The
    outermost wall's pair is reported by truncation only.
    """
    total = canonical_class()
    inner_sub = line_bundle_ch(-2)
    conic_sub = curve_ideal_ch(CONIC, 0).twist(1)
    line_sub = third_wall_factors()[0]
    return {
        Fraction(4): (inner_sub, total - inner_sub),
        Fraction(33, 4): (conic_sub, total - conic_sub),
        Fraction(73, 4): (line_sub, total - line_sub),
    }


def planar_point_count(plane_twist: int, e: Fraction | int) -> Fraction:
    """Number of point modifications carried by a planar factor.

    A plane sheaf that is the twist by ``-plane_twist`` of an ideal of
    points pushes forward with third component
    ``plane_twist (plane_twist + 1)/2 + 1/6 - count``; solve for the count.
    """
    i = plane_twist
    return Fraction(i * (i + 1), 2) + Fraction(1, 6) - Fraction(e)


def _plane_twist(planar: ChernCharacter) -> int:
    """The ``plane_twist`` of a planar factor: its second component is ``-plane_twist - 1/2``."""
    twist = -planar.d - Fraction(1, 2)
    if twist.denominator != 1:
        raise ArithmeticError(f"{planar} is not a twisted ideal of points on a plane")
    return int(twist)


@dataclass(frozen=True)
class Refinement:
    """One integral refinement of the line/plane pair on the ``73/4`` wall."""

    line_ch: ChernCharacter
    planar_ch: ChernCharacter
    line_points: int
    planar_points: int


def line_plane_refinements() -> list[Refinement]:
    """All integral refinements of the pair on the ``73/4`` wall.

    Wall geometry fixes both truncations; only the third components may
    slide, by whole points.  The pure line carries no points and the pure
    planar factor carries ``n``, so moving ``k`` of them to the line, for
    ``k = n .. 0``, gives every split with both counts nonnegative, ordered
    by the third component of the rank-one member.
    """
    line, planar = third_wall_factors()
    n = planar_point_count(_plane_twist(planar), planar.e)
    if n.denominator != 1 or n < 0:
        raise ArithmeticError(f"the planar factor {planar} carries {n} points")
    point = ChernCharacter(0, 0, 0, 1)
    return [Refinement(line - k * point, planar + k * point, k, int(n) - k)
            for k in range(int(n), -1, -1)]


class Stratum(enum.Enum):
    """Incidence strata of the supports of the two factors.

    Ordered by degeneracy of the incidence between the line supporting the
    rank-one factor and the length-two subscheme carried by the planar
    factor; the incidence defect feeds the Ext tables.
    """

    DISJOINT = "disjoint"
    MEETS_NOT_SPANNED = "meets_not_spanned"
    SPANNED = "spanned"

    @property
    def incidence_defect(self) -> int:
        return {"disjoint": 0, "meets_not_spanned": 1, "spanned": 2}[self.value]


@dataclass(frozen=True)
class ExtProfile:
    """Dimensions ``hom, ext1, ext2, ext3`` for an ordered pair of factors.

    ``None`` marks a dimension not individually determined; the alternating
    sum then only constrains a difference.
    """

    hom: int
    ext1: int
    ext2: Optional[int]
    ext3: Optional[int]

    def alternating_sum(self) -> Optional[int]:
        if self.ext2 is None or self.ext3 is None:
            return None
        return self.hom - self.ext1 + self.ext2 - self.ext3


#: Declared vanishing/normalization inputs for the Ext tables, all recorded:
#: simple factors, no maps between distinct ones, and top-degree vanishing.
EXT_ASSUMPTIONS = (
    (LINE_FACTOR, LINE_FACTOR, "hom", 1),
    (PLANAR_FACTOR, PLANAR_FACTOR, "hom", 1),
    (LINE_FACTOR, PLANAR_FACTOR, "hom", 0),
    (PLANAR_FACTOR, LINE_FACTOR, "hom", 0),
    (LINE_FACTOR, LINE_FACTOR, "ext3", 0),
    (PLANAR_FACTOR, PLANAR_FACTOR, "ext3", 0),
    (PLANAR_FACTOR, LINE_FACTOR, "ext3", 0),
    (LINE_FACTOR, LINE_FACTOR, "ext1", 4),
    (PLANAR_FACTOR, PLANAR_FACTOR, "ext1", 7),
    (PLANAR_FACTOR, LINE_FACTOR, "ext1", 18),
)

#: Every other recorded input of :func:`exceptional_ledger`, as
#: ``(name, dim, note)``: numbers this module cannot derive.  The first four
#: are ledger entries themselves; the rest are operands of computed entries.
RECORDED_DIMENSIONS = (
    ("conic_extension_space_dim", 13, "ext1 from the planar factor to the conic factor"),
    ("restriction_rank_meets", 4, "rank of the restriction map on the meets stratum"),
    ("restriction_rank_spanned", 8, "rank of the restriction map on the spanned stratum"),
    ("wall_sensitive_locus_dim", 10,
     "objects whose stability changes at the wall; contains the contracted locus"),
    ("conic_planar_ext1", 1, "ext1 from the conic factor to the planar factor"),
    ("singular_fiber_dim", 13, "fibers of the singular intersection"),
    ("singular_stratum_dim", 10, "stratum under the singular intersection"),
    ("rank_one_matrix_rows", 2, "rows of the matrices whose rank-one locus is the cone's base"),
    ("rank_one_matrix_cols", 4, "columns of those matrices"),
    ("degenerate_bundle_base_dim", 10, "bundle base in the degenerate_base_dim note, as stated;"
     " second_moduli_dim's base is line_family_dim + planar_factor_moduli_dim"),
)


def euler_table() -> dict[tuple[str, str], int]:
    """Euler pairings of the two factors in both orders, computed exactly."""
    line, planar = third_wall_factors()
    named = {LINE_FACTOR: line, PLANAR_FACTOR: planar}
    table = {}
    for a_name, a in named.items():
        for b_name, b in named.items():
            value = euler_pairing(a, b)
            if value.denominator != 1:
                raise ArithmeticError(f"chi({a_name}, {b_name}) = {value} is not an integer")
            table[(a_name, b_name)] = int(value)
    return table


def ext_table(
    stratum: Stratum, chi: dict[tuple[str, str], int]
) -> dict[tuple[str, str], ExtProfile]:
    """Ext dimension table for one incidence stratum, given :func:`euler_table`.

    Every ``hom``, ``ext3`` and ``ext1`` entry except the stratum-dependent
    one is read from :data:`EXT_ASSUMPTIONS`, the only place the recorded
    Ext dimensions live (a factor's ``ext1`` with itself is the dimension of
    its family, ``line_family_dim`` and ``planar_factor_moduli_dim`` in
    :func:`exceptional_ledger`).  Each complete entry's
    ``ext2`` is then forced by its Euler pairing in ``chi``.  The
    ``(line, planar)`` entry has the incidence defect as ``ext1`` and keeps
    ``ext2`` and ``ext3`` undetermined: only ``ext2 - ext3`` is pinned, see
    :func:`validate_ext_table`.
    """
    recorded = {(a, b, group): dim for a, b, group, dim in EXT_ASSUMPTIONS}
    table = {}
    for key in ((LINE_FACTOR, LINE_FACTOR), (PLANAR_FACTOR, PLANAR_FACTOR),
                (PLANAR_FACTOR, LINE_FACTOR)):
        hom, ext1, ext3 = (recorded[(*key, group)] for group in ("hom", "ext1", "ext3"))
        ext2 = chi[key] - hom + ext1 + ext3
        if ext2 < 0:
            raise ArithmeticError(f"forced ext2{key} = {ext2} is negative")
        table[key] = ExtProfile(hom, ext1, ext2, ext3)
    line_planar = (LINE_FACTOR, PLANAR_FACTOR)
    table[line_planar] = ExtProfile(
        recorded[(*line_planar, "hom")], stratum.incidence_defect, None, None
    )
    return table


def validate_ext_table(
    table: dict[tuple[str, str], ExtProfile], chi: dict[tuple[str, str], int]
) -> list[dict]:
    """Check every profile against its exact Euler pairing in ``chi``.

    Complete profiles must reproduce the pairing by alternating sum; for
    incomplete ones the pairing pins the difference ``ext2 - ext3``, which
    is reported as an inferred relation rather than silently dropped.
    """
    results = []
    for key, profile in table.items():
        expected = chi[key]
        total = profile.alternating_sum()
        if total is not None:
            results.append(
                {
                    "pair": list(key),
                    "kind": "alternating_sum",
                    "expected": expected,
                    "value": total,
                    "ok": total == expected,
                }
            )
        else:
            results.append(
                {
                    "pair": list(key),
                    "kind": "inferred_relation",
                    "relation": "ext2 - ext3 = "
                    + str(expected - profile.hom + profile.ext1),
                    "ok": True,
                }
            )
    return results


def proj_bundle_dim(base_dim: int, fiber_space_dim: int) -> int:
    """Dimension of a projective bundle: base plus projectivized fiber."""
    return base_dim + fiber_space_dim - 1


def extension_ext1_bound(sub_sub: int, quot_quot: int, sub_quot: int, quot_sub: int) -> int:
    """Upper bound for ``ext1`` of a nonsplit extension from the four corners.

    The long exact sequences give at most the sum of the four ``ext1``
    dimensions; nonsplitting removes one parameter.
    """
    return sub_sub + quot_quot + sub_quot + quot_sub - 1


@dataclass(frozen=True)
class LedgerEntry:
    """One named dimension, tagged with how it was obtained."""

    name: str
    value: int
    how: str  # "computed" | "recorded"
    note: str


@functools.lru_cache(maxsize=None)
def _h0(twist: int) -> int:
    """Sections of a line bundle on projective 3-space, via the Euler pairing."""
    value = euler_pairing(line_bundle_ch(0), line_bundle_ch(twist))
    if value.denominator != 1:
        raise ArithmeticError(f"h0(O({twist})) = {value} is not an integer")
    return int(value)


def exceptional_ledger() -> list[LedgerEntry]:
    """Every dimension count in the two-contraction story, with provenance.

    The first moduli space is a projective bundle of cubic systems over the
    quadrics; blowing up the conic locus produces the exceptional divisor;
    the second space is a projective bundle of extensions over the
    line-plus-planar-sheaf moduli; its singular strata and the degenerate
    cone geometry account for the remaining numbers.

    Recorded values are read from :data:`EXT_ASSUMPTIONS` (the ``ext1``
    dimensions) and :data:`RECORDED_DIMENSIONS` (all others).  Computed values
    come from those, from :func:`_h0`, from Euler pairings and from the
    degrees of the quadric, cubic and conic, and every note that states a
    number is formatted from the values it explains.
    """
    recorded = {name: LedgerEntry(name, dim, "recorded", note)
                for name, dim, note in RECORDED_DIMENSIONS}
    dims = {name: entry.value for name, entry in recorded.items()}
    ext1 = {(a, b): dim for a, b, group, dim in EXT_ASSUMPTIONS if group == "ext1"}
    ext_line, ext_planar, ext_cross = (
        ext1[(LINE_FACTOR, LINE_FACTOR)], ext1[(PLANAR_FACTOR, PLANAR_FACTOR)],
        ext1[(PLANAR_FACTOR, LINE_FACTOR)])
    # projective 3-space, and its dual: the planes; a plane, and its dual: its lines
    space = _h0(1) - 1
    plane = space - 1
    quadrics = _h0(QUADRIC) - 1
    cubics_on_quadric = _h0(CUBIC) - _h0(CUBIC - QUADRIC)
    first = proj_bundle_dim(quadrics, cubics_on_quadric)
    chi_vv = euler_pairing(canonical_class(), canonical_class())
    if chi_vv.denominator != 1:
        raise ArithmeticError(f"chi(v, v) = {chi_vv} is not an integer")
    smooth_moduli = 1 - int(chi_vv)
    conics_in_plane = _h0(CONIC) - _h0(CONIC - 1) - 1  # sections on a plane, projectivized
    conics = space + conics_in_plane
    center = conics + space  # the residual factor is a twisted plane
    conic_ext = dims["conic_extension_space_dim"]
    planar_factor = third_wall_factors()[1]
    # length-n subschemes: dimension 2n on a plane, n on a line
    points = int(planar_point_count(_plane_twist(planar_factor), planar_factor.e))
    planar = space + points * plane
    # the diagonal corners are the tangent dimensions of the factors' families
    conic_corners = (conics, space, dims["conic_planar_ext1"], conic_ext)
    meets_rank, spanned_rank = dims["restriction_rank_meets"], dims["restriction_rank_spanned"]
    spanned_kernel = ext_cross - spanned_rank
    vertex = spanned_kernel - 1
    rows, cols = dims["rank_one_matrix_rows"], dims["rank_one_matrix_cols"]
    segre = (rows - 1) + (cols - 1)
    fiber, stratum = dims["singular_fiber_dim"], dims["singular_stratum_dim"]
    nested_config = space + plane + points  # plane, line in it, subscheme on the line

    def entry(name: str, value: int, note: str) -> LedgerEntry:
        return LedgerEntry(name, value, "computed", note)

    def ext1_bound(name: str, *corners: int) -> LedgerEntry:
        return entry(name, extension_ext1_bound(*corners), " + ".join(map(str, corners)) + " - 1")

    return [
        entry("quadric_family_dim", quadrics, f"h0(O({QUADRIC})) - 1 = {_h0(QUADRIC)} - 1"),
        entry("cubic_system_dim", cubics_on_quadric,
              f"h0(O({CUBIC})) - h0(O({CUBIC - QUADRIC}))"
              f" = {_h0(CUBIC)} - {_h0(CUBIC - QUADRIC)} on the quadric"),
        entry("first_moduli_dim", first,
              f"projective bundle: {quadrics} + ({cubics_on_quadric} - 1)"),
        entry("wall_side_moduli_dim", smooth_moduli,
              "1 - chi(v, v) for a smooth moduli of simple objects;"
              " agrees with the bundle picture"),
        entry("conic_family_dim", conics,
              f"plane choice {space} + conics in the plane {conics_in_plane}"),
        entry("blowup_center_dim", center,
              f"conic family {conics} + residual plane twist family {space}"),
        recorded["conic_extension_space_dim"],
        entry("exceptional_divisor_dim", proj_bundle_dim(center, conic_ext),
              f"fiber ({conic_ext} - 1) over the {center}-dimensional center"),
        entry("divisor_check", first - 1,
              f"codimension one in the {first}-dimensional space: {first - 1}"),
        LedgerEntry("line_family_dim", ext_line, "recorded", f"lines in projective {space}-space"),
        entry("planar_factor_moduli_dim", planar,
              f"plane choice {space} + two points in the plane {points * plane}"),
        LedgerEntry("extension_space_dim", ext_cross, "recorded",
                    "ext1 from the planar factor to the twisted line ideal"),
        entry("second_moduli_dim", proj_bundle_dim(ext_line + planar, ext_cross),
              f"projective bundle: ({ext_line} + {planar}) + ({ext_cross} - 1)"),
        ext1_bound("ext1_bound_conic_wall", *conic_corners),
        ext1_bound("ext1_bound_line_plane_wall",
                   ext_line, ext_planar, Stratum.SPANNED.incidence_defect, ext_cross),
        *(ext1_bound(f"stratum_ext1_defect{s.incidence_defect}",
                     ext_line, ext_planar, s.incidence_defect, ext_cross) for s in Stratum),
        recorded["restriction_rank_meets"],
        recorded["restriction_rank_spanned"],
        entry("kernel_meets_dim", ext_cross - meets_rank, f"{ext_cross} - {meets_rank}"),
        entry("kernel_spanned_dim", spanned_kernel, f"{ext_cross} - {spanned_rank}"),
        entry("singular_intersection_dim", fiber + stratum,
              f"{fiber}-dimensional fibers over the {stratum}-dimensional stratum"),
        recorded["wall_sensitive_locus_dim"],
        entry("small_locus_image_dim", nested_config,
              f"plane {space} + line in the plane {plane} + length-two subscheme"
              f" on the line {points}"),
        entry("small_locus_dim", 1 + nested_config,
              "a projective line's worth of extensions over the"
              f" {nested_config}-dimensional configuration image"),
        entry("cone_vertex_dim", vertex,
              f"projectivized {spanned_kernel}-dimensional kernel: {vertex}"),
        entry("rank_one_locus_dim", segre,
              f"projectivized rank-one {rows}-by-{cols} matrices:"
              f" a line's worth times a {cols - 1}-space's worth"),
        entry("cone_fiber_dim", vertex + segre + 1,
              f"join of the {vertex}-dimensional vertex and {segre}-dimensional base"),
        entry("degenerate_base_dim", nested_config,
              "the same nested configurations, inside the"
              f" {dims['degenerate_bundle_base_dim']}-dimensional bundle base"),
    ]


def narrative(ledger: list[LedgerEntry]) -> list[dict]:
    """The geometric conclusions, each tagged by how it is supported here.

    Dimension arithmetic distinguishes a divisorial contraction from a small
    one; the failure of Q-factoriality is a recorded input that the numbers
    are consistent with but do not prove.  The dimensions are read from
    ``ledger``, as built by :func:`exceptional_ledger`.
    """
    dims = {entry.name: entry.value for entry in ledger}
    moduli = dims["wall_side_moduli_dim"]
    exceptional = dims["exceptional_divisor_dim"]
    small_locus = dims["small_locus_dim"]
    return [
        {
            "statement": "divisorial contraction (ψ)",
            "status": "computed",
            "note": f"exceptional locus dimension {exceptional} = {moduli} - 1:"
            " codimension one",
        },
        {
            "statement": "small contraction (φ)",
            "status": "computed",
            "note": f"contracted locus dimension {small_locus} in the"
            f" {moduli}-dimensional wall-side moduli:"
            f" codimension {moduli - small_locus} >= 2",
        },
        {
            "statement": "is not Q-factorial",
            "status": "recorded",
            "note": "property of the target of the small contraction;"
            " consistent with, but not provable from, the dimension ledger",
        },
    ]


def cohomology_consistency() -> dict:
    """Cross-check: the total class is two points short of a genus-6 class.

    The ideal of a degree-6 genus-6 curve has character
    ``(1, 0, -6, 17)``; subtracting the class of two points lands exactly on
    the canonical class.
    """
    shifted = curve_ideal_ch(6, 6) - ChernCharacter(0, 0, 0, 2)
    return {
        "genus6_class": str(curve_ideal_ch(6, 6)),
        "point_correction": "0,0,0,2",
        "result": str(shifted),
        "matches_total": shifted == canonical_class(),
    }


def _report_data() -> dict:
    """Every section of the report, computed once, as a JSON-ready mapping."""
    pairs = {r: [str(sub), str(quot)] for r, (sub, quot) in destabilizing_pairs().items()}
    chi = euler_table()
    ledger = exceptional_ledger()
    tables = {s.value: ext_table(s, chi) for s in Stratum}
    return {
        "schema": SCHEMA,
        "class": str(canonical_class()),
        "walls": [
            {**wall_to_dict(w), "full_pair": pairs.get(w.circle.radius_sq)}
            for w in canonical_walls()
        ],
        "refinements": [
            {"line": str(ref.line_ch), "planar": str(ref.planar_ch),
             "line_points": ref.line_points, "planar_points": ref.planar_points}
            for ref in line_plane_refinements()
        ],
        "euler_table": {f"{a}|{b}": value for (a, b), value in chi.items()},
        "ext_tables": {
            name: {f"{a}|{b}": vars(profile) for (a, b), profile in table.items()}
            for name, table in tables.items()
        },
        "ext_assumptions": [
            {"pair": [a, b], "group": group, "dim": dim} for a, b, group, dim in EXT_ASSUMPTIONS
        ],
        "ext_validations": {name: validate_ext_table(t, chi) for name, t in tables.items()},
        "ledger": [vars(entry) for entry in ledger],
        "narrative": narrative(ledger),
        "consistency": cohomology_consistency(),
    }


def _render_text(data: dict) -> str:
    """Human-readable rendering of the mapping built by :func:`_report_data`."""
    region = DEFAULT_REGION
    lines = [
        f"total class: {data['class']}",
        f"region: beta in [{region.beta_min}, {region.beta_max}],"
        f" alpha^2 <= {region.alpha_sq_max}",
        "",
        f"walls ({len(data['walls'])}, outermost first):",
    ]
    for wall in data["walls"]:
        line = "  center {center}, radius^2 {radius_sq}: pair {sub} / {quotient}".format(**wall)
        if wall["full_pair"]:
            line += "  [full: {} / {}]".format(*wall["full_pair"])
        lines.append(line)
    lines += ["", "integral refinements on the 73/4 wall:"]
    lines += ["  line {line} ({line_points} pts) + planar {planar} ({planar_points} pts)"
              .format(**ref) for ref in data["refinements"]]
    lines += ["", "euler pairings:"]
    lines += ["  chi({}, {}) = {}".format(*key.split("|"), value)
              for key, value in sorted(data["euler_table"].items())]
    lines += ["", "ext tables by incidence stratum (hom, ext1, ext2, ext3):"]
    for name, table in data["ext_tables"].items():
        lines.append(f"  {name}:")
        for key, dims in table.items():
            shown = ", ".join("?" if dim is None else str(dim) for dim in dims.values())
            lines.append("    ({}, {}): {}".format(*key.split("|"), shown))
        lines += ["    inferred for ({}, {}): {}".format(*check["pair"], check["relation"])
                  for check in data["ext_validations"][name]
                  if check["kind"] == "inferred_relation"]
    lines += ["", "declared ext assumptions (recorded):"]
    lines += ["  {}({}, {}) = {}".format(item["group"], *item["pair"], item["dim"])
              for item in data["ext_assumptions"]]
    lines += ["", "dimension ledger:"]
    lines += ["  {name} = {value}  [{how}]  ({note})".format(**entry) for entry in data["ledger"]]
    lines += ["", "conclusions:"]
    lines += ["  {statement}  [{status}]  ({note})".format(**item) for item in data["narrative"]]
    lines += ["", "consistency: {genus6_class} - {point_correction} = {result}"
              " matches total: {matches_total}".format(**data["consistency"])]
    return "\n".join(lines)


def report(fmt: str = "text") -> str:
    """Full numerical report, as human-readable text or deterministic JSON.

    Both formats render the same mapping, built once by :func:`_report_data`.
    """
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown report format: {fmt!r}")
    data = _report_data()
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True)
    return _render_text(data)

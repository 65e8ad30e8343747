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
number stays visible.

Two factors dominate the story, the members of the destabilizing pair on
the second-largest wall:

* the *twisted line ideal* factor ``(1, -1, -1/2, 11/6)``, the
  degree-1-twist of the ideal sheaf of a line;
* the *planar sheaf* factor ``(0, 1, -11/2, 79/6)``, a torsion sheaf
  supported on a plane.

The pair admits finitely many integral refinements obtained by sliding
points between the two members; :func:`line_plane_refinements` enumerates
them exactly.
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
from .walls import DEFAULT_REGION, Region, WallCandidate, enumerate_tilt_walls, wall_to_dict

#: Keys naming the two factors in Euler and Ext tables.
LINE_FACTOR = "twisted_line_ideal"
PLANAR_FACTOR = "planar_sheaf"


@functools.lru_cache(maxsize=None)
def canonical_class() -> ChernCharacter:
    """The total class ``(1, 0, -6, 15)``, built from its Koszul-type resolution.

    A complete intersection of a quadric and a cubic has ideal sheaf resolved
    by ``0 -> O(-5) -> O(-2) + O(-3) -> I -> 0``.  The character is immutable,
    so it is built once per process.
    """
    return from_resolution([(-2, 1), (-3, 1), (-5, -1)])


def canonical_walls(region: Region = DEFAULT_REGION) -> list[WallCandidate]:
    """The walls of the canonical class over the window, outermost first."""
    return enumerate_tilt_walls(canonical_class(), region)


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
    conic_sub = curve_ideal_ch(2, 0).twist(1)
    line_sub = third_wall_factors()[0]
    return {
        Fraction(4): (inner_sub, total - inner_sub),
        Fraction(33, 4): (conic_sub, total - conic_sub),
        Fraction(73, 4): (line_sub, total - line_sub),
    }


def rank_one_point_count(degree: int, e: Fraction | int) -> Fraction:
    """Number of point modifications carried by a rank-one factor.

    The 1-twist of the ideal sheaf of a genus-0 curve of the given degree
    has third component ``3*degree - 7/6``; each point subtracted from the
    sheaf lowers it by one, so the count is ``3*degree - 7/6 - e``.  A value
    outside the nonnegative integers means no such sheaf exists.
    """
    return 3 * degree - Fraction(7, 6) - Fraction(e)


def planar_point_count(plane_twist: int, e: Fraction | int) -> Fraction:
    """Number of point modifications carried by a planar factor.

    A plane sheaf that is the twist by ``-plane_twist`` of an ideal of
    points pushes forward with third component
    ``plane_twist (plane_twist + 1)/2 + 1/6 - count``; solve for the count.
    """
    i = plane_twist
    return Fraction(i * (i + 1), 2) + Fraction(1, 6) - Fraction(e)


@dataclass(frozen=True)
class Refinement:
    """One integral refinement of the line/plane pair on the ``73/4`` wall."""

    line_ch: ChernCharacter
    planar_ch: ChernCharacter
    line_points: int
    planar_points: int


def line_plane_refinements() -> list[Refinement]:
    """All integral refinements of the pair on the ``73/4`` wall.

    Wall geometry fixes both truncations; the third components may slide as
    long as they sum to the total and both point counts stay nonnegative
    integers.  That leaves finitely many values, enumerated exactly, ordered
    by the third component of the rank-one member.
    """
    total = canonical_class()
    pure_line = third_wall_factors()[0]
    out = []
    k = 0
    while True:
        e = pure_line.e - k
        line_ch = ChernCharacter(pure_line.r, pure_line.c, pure_line.d, e)
        planar_ch = total - line_ch
        line_pts = rank_one_point_count(1, e)
        planar_pts = planar_point_count(5, planar_ch.e)
        if planar_pts < 0:
            break
        if not (line_ch.is_integral() and planar_ch.is_integral()):
            raise ArithmeticError(f"refinement {k} is not integral: {line_ch}, {planar_ch}")
        if line_pts != k or planar_pts.denominator != 1:
            raise ArithmeticError(f"refinement {k} has point counts {line_pts}, {planar_pts}")
        out.append(Refinement(line_ch, planar_ch, int(line_pts), int(planar_pts)))
        k += 1
    return sorted(out, key=lambda ref: ref.line_ch.e)


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


def ext_table(stratum: Stratum) -> dict[tuple[str, str], ExtProfile]:
    """Ext dimension table for one incidence stratum.

    Every ``hom``, ``ext3`` and ``ext1`` entry except the stratum-dependent
    one is read from :data:`EXT_ASSUMPTIONS`, the only place the recorded
    dimensions live (lines have a 4-parameter family; a plane plus a
    length-two planar subscheme has ``3 + 4 = 7``).  Each complete entry's
    ``ext2`` is then forced by the computed Euler pairing.  The
    ``(line, planar)`` entry has the incidence defect as ``ext1`` and keeps
    ``ext2`` and ``ext3`` undetermined: only ``ext2 - ext3`` is pinned, see
    :func:`validate_ext_table`.
    """
    return _ext_table(stratum, euler_table())


def _ext_table(
    stratum: Stratum, chi: dict[tuple[str, str], int]
) -> dict[tuple[str, str], ExtProfile]:
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


def validate_ext_table(table: dict[tuple[str, str], ExtProfile]) -> list[dict]:
    """Check every profile against the exact Euler pairing.

    Complete profiles must reproduce the pairing by alternating sum; for
    incomplete ones the pairing pins the difference ``ext2 - ext3``, which
    is reported as an inferred relation rather than silently dropped.
    """
    return _validate_ext_table(table, euler_table())


def _validate_ext_table(
    table: dict[tuple[str, str], ExtProfile], chi: dict[tuple[str, str], int]
) -> list[dict]:
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


def stratum_ext1_dim(incidence_defect: int) -> int:
    """Total ``ext1(E, E)`` dimension over the stratum with the given defect.

    The four corners contribute ``4 + 7 + defect + 18``, minus one for the
    projectivized extension; only defects 0, 1, 2 occur.
    """
    if incidence_defect not in (0, 1, 2):
        raise ValueError(f"incidence defect must be 0, 1 or 2, got {incidence_defect}")
    return extension_ext1_bound(4, 7, incidence_defect, 18)


@dataclass(frozen=True)
class LedgerEntry:
    """One named dimension, tagged with how it was obtained."""

    name: str
    value: int
    how: str  # "computed" | "recorded"
    note: str


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
    """
    quadrics = _h0(2) - 1
    cubics_on_quadric = _h0(3) - _h0(1)
    first = proj_bundle_dim(quadrics, cubics_on_quadric)
    chi_vv = euler_pairing(canonical_class(), canonical_class())
    if chi_vv.denominator != 1:
        raise ArithmeticError(f"chi(v, v) = {chi_vv} is not an integer")
    smooth_moduli = 1 - int(chi_vv)
    conics = 3 + (6 - 1)  # plane choice + conics within the plane
    center = conics + 3
    exc_fiber = 13 - 1
    exceptional = exc_fiber + center
    lines = 4
    planar = 3 + 4
    base = lines + planar
    second = proj_bundle_dim(base, 18)
    spanned_kernel = 18 - 8
    meets_kernel = 18 - 4
    vertex = spanned_kernel - 1
    segre = 1 + 3
    cone_fiber = vertex + segre + 1
    intersection = 13 + 10
    nested_config = 3 + 2 + 2  # plane, line in it, length-two subscheme on the line
    entries = [
        LedgerEntry("quadric_family_dim", quadrics, "computed",
                    "h0(O(2)) - 1 = 10 - 1"),
        LedgerEntry("cubic_system_dim", cubics_on_quadric, "computed",
                    "h0(O(3)) - h0(O(1)) = 20 - 4 on the quadric"),
        LedgerEntry("first_moduli_dim", first, "computed",
                    "projective bundle: 9 + (16 - 1)"),
        LedgerEntry("wall_side_moduli_dim", smooth_moduli, "computed",
                    "1 - chi(v, v) for a smooth moduli of simple objects;"
                    " agrees with the bundle picture"),
        LedgerEntry("conic_family_dim", conics, "computed",
                    "plane choice 3 + conics in the plane 5"),
        LedgerEntry("blowup_center_dim", center, "computed",
                    "conic family 8 + residual plane twist family 3"),
        LedgerEntry("conic_extension_space_dim", 13, "recorded",
                    "ext1 from the planar factor to the conic factor"),
        LedgerEntry("exceptional_divisor_dim", exceptional, "computed",
                    "fiber (13 - 1) over the 11-dimensional center"),
        LedgerEntry("divisor_check", first - 1, "computed",
                    "codimension one in the 24-dimensional space: 23"),
        LedgerEntry("line_family_dim", lines, "recorded",
                    "lines in projective 3-space"),
        LedgerEntry("planar_factor_moduli_dim", planar, "computed",
                    "plane choice 3 + two points in the plane 4"),
        LedgerEntry("extension_space_dim", 18, "recorded",
                    "ext1 from the planar factor to the twisted line ideal"),
        LedgerEntry("second_moduli_dim", second, "computed",
                    "projective bundle: (4 + 7) + (18 - 1)"),
        LedgerEntry("ext1_bound_conic_wall", extension_ext1_bound(8, 3, 1, 13),
                    "computed", "8 + 3 + 1 + 13 - 1"),
        LedgerEntry("ext1_bound_line_plane_wall", extension_ext1_bound(4, 7, 2, 18),
                    "computed", "4 + 7 + 2 + 18 - 1"),
        LedgerEntry("stratum_ext1_defect0", stratum_ext1_dim(0), "computed",
                    "4 + 7 + 0 + 18 - 1"),
        LedgerEntry("stratum_ext1_defect1", stratum_ext1_dim(1), "computed",
                    "4 + 7 + 1 + 18 - 1"),
        LedgerEntry("stratum_ext1_defect2", stratum_ext1_dim(2), "computed",
                    "4 + 7 + 2 + 18 - 1"),
        LedgerEntry("restriction_rank_meets", 4, "recorded",
                    "rank of the restriction map on the meets stratum"),
        LedgerEntry("restriction_rank_spanned", 8, "recorded",
                    "rank of the restriction map on the spanned stratum"),
        LedgerEntry("kernel_meets_dim", meets_kernel, "computed", "18 - 4"),
        LedgerEntry("kernel_spanned_dim", spanned_kernel, "computed", "18 - 8"),
        LedgerEntry("singular_intersection_dim", intersection, "computed",
                    "13-dimensional fibers over the 10-dimensional stratum"),
        LedgerEntry("wall_sensitive_locus_dim", 10, "recorded",
                    "objects whose stability changes at the wall;"
                    " contains the contracted locus"),
        LedgerEntry("small_locus_image_dim", nested_config, "computed",
                    "plane 3 + line in the plane 2 + length-two subscheme"
                    " on the line 2"),
        LedgerEntry("small_locus_dim", 1 + nested_config, "computed",
                    "a projective line's worth of extensions over the"
                    " 7-dimensional configuration image"),
        LedgerEntry("cone_vertex_dim", vertex, "computed",
                    "projectivized 10-dimensional kernel: 9"),
        LedgerEntry("rank_one_locus_dim", segre, "computed",
                    "projectivized rank-one 2-by-4 matrices:"
                    " a line's worth times a 3-space's worth"),
        LedgerEntry("cone_fiber_dim", cone_fiber, "computed",
                    "join of the 9-dimensional vertex and 4-dimensional base"),
        LedgerEntry("degenerate_base_dim", nested_config, "computed",
                    "the same nested configurations, inside the 10-dimensional"
                    " bundle base"),
    ]
    return entries


def narrative() -> list[dict]:
    """The geometric conclusions, each tagged by how it is supported here.

    Dimension arithmetic distinguishes a divisorial contraction from a small
    one; the failure of Q-factoriality is a recorded input that the numbers
    are consistent with but do not prove.  The dimensions are read from
    :func:`exceptional_ledger`.
    """
    return _narrative(exceptional_ledger())


def _narrative(ledger: list[LedgerEntry]) -> list[dict]:
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
    tables = {s.value: _ext_table(s, chi) for s in Stratum}
    return {
        "schema": "p3walls/1",
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
        "ext_validations": {name: _validate_ext_table(t, chi) for name, t in tables.items()},
        "ledger": [vars(entry) for entry in ledger],
        "narrative": _narrative(ledger),
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

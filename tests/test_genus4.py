from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from p3walls import genus4
from p3walls.chern import ChernCharacter, curve_ideal_ch, euler_pairing
from p3walls.walls import DEFAULT_REGION, Circle, enumerate_tilt_walls

GOLDEN = Path(__file__).parent / "golden"


def test_canonical_class():
    assert genus4.canonical_class() == ChernCharacter(1, 0, -6, 15)
    assert genus4.canonical_class() == curve_ideal_ch(6, 4)


def test_canonical_walls():
    walls = genus4.canonical_walls()
    assert [w.circle for w in walls] == [
        Circle(Fraction(-13, 2), Fraction(121, 4)),
        Circle(Fraction(-11, 2), Fraction(73, 4)),
        Circle(Fraction(-9, 2), Fraction(33, 4)),
        Circle(Fraction(-4), Fraction(4)),
    ]


def test_canonical_walls_are_searched_once():
    walls = genus4.canonical_walls()
    assert isinstance(walls, tuple)
    assert genus4.canonical_walls() is walls
    assert walls == tuple(enumerate_tilt_walls(genus4.canonical_class(), DEFAULT_REGION))


@pytest.mark.parametrize("fmt, name", [("text", "genus4_report.txt"), ("json", "genus4_report.json")])
def test_report_reuses_the_cached_walls(fmt, name, monkeypatch):
    genus4.report()

    def fail(*args):
        raise AssertionError("the canonical walls were searched again")

    monkeypatch.setattr(genus4, "enumerate_tilt_walls", fail)
    assert (genus4.report(fmt) + "\n").encode("utf-8") == (GOLDEN / name).read_bytes()


def test_destabilizing_pairs_sum_to_total():
    total = genus4.canonical_class()
    pairs = genus4.destabilizing_pairs()
    assert set(pairs) == {Fraction(4), Fraction(33, 4), Fraction(73, 4)}
    for sub, quotient in pairs.values():
        assert sub + quotient == total
    assert str(pairs[Fraction(4)][0]) == "1,-2,2,-4/3"
    assert str(pairs[Fraction(4)][1]) == "0,2,-8,49/3"
    assert str(pairs[Fraction(33, 4)][0]) == "1,-1,-3/2,29/6"
    assert str(pairs[Fraction(73, 4)][0]) == "1,-1,-1/2,11/6"


def test_third_wall_factors():
    line, planar = genus4.third_wall_factors()
    assert str(line) == "1,-1,-1/2,11/6"
    assert str(planar) == "0,1,-11/2,79/6"


def test_point_counts():
    assert genus4.planar_point_count(5, Fraction(79, 6)) == 2
    assert genus4.planar_point_count(5, Fraction(85, 6)) == 1
    assert genus4.planar_point_count(0, Fraction(1, 6)) == 0


def test_line_plane_refinements():
    refs = genus4.line_plane_refinements()
    assert [ref.line_ch.e for ref in refs] == [
        Fraction(-1, 6),
        Fraction(5, 6),
        Fraction(11, 6),
    ]
    assert [(ref.line_points, ref.planar_points) for ref in refs] == [(2, 0), (1, 1), (0, 2)]
    total = genus4.canonical_class()
    for ref in refs:
        assert ref.line_ch + ref.planar_ch == total
        assert ref.line_ch.is_integral() and ref.planar_ch.is_integral()


def _searched_refinements() -> list[genus4.Refinement]:
    """The search loop that ``line_plane_refinements`` replaced: take points
    off the pure line one at a time, with the rank-one count
    ``3 deg - 7/6 - e`` for a degree-1 curve, until the planar count goes
    negative."""
    total = genus4.canonical_class()
    pure_line, pure_planar = genus4.third_wall_factors()
    plane_twist = genus4._plane_twist(pure_planar)
    out = []
    k = 0
    while True:
        e = pure_line.e - k
        line_ch = ChernCharacter(pure_line.r, pure_line.c, pure_line.d, e)
        planar_ch = total - line_ch
        line_pts = 3 * 1 - Fraction(7, 6) - e
        planar_pts = genus4.planar_point_count(plane_twist, planar_ch.e)
        if planar_pts < 0:
            break
        assert line_ch.is_integral() and planar_ch.is_integral()
        assert line_pts == k and planar_pts.denominator == 1
        out.append(genus4.Refinement(line_ch, planar_ch, int(line_pts), int(planar_pts)))
        k += 1
    return sorted(out, key=lambda ref: ref.line_ch.e)


def test_line_plane_refinements_match_the_search_loop():
    assert genus4.line_plane_refinements() == _searched_refinements()


@pytest.mark.parametrize("extra_e", [Fraction(1, 2), Fraction(3)], ids=["fractional", "negative"])
def test_line_plane_refinements_reject_a_bad_point_count(monkeypatch, extra_e):
    line, planar = genus4.third_wall_factors()
    bad = (line, planar + ChernCharacter(0, 0, 0, extra_e))
    monkeypatch.setattr(genus4, "third_wall_factors", lambda: bad)
    with pytest.raises(ArithmeticError, match="carries"):
        genus4.line_plane_refinements()


def test_euler_table():
    table = genus4.euler_table()
    L, P = genus4.LINE_FACTOR, genus4.PLANAR_FACTOR
    assert table[(L, L)] == -3
    assert table[(P, P)] == -2
    assert table[(P, L)] == -18
    assert table[(L, P)] == 0


def test_euler_table_rejects_non_integral_pairing(monkeypatch):
    monkeypatch.setattr(genus4, "euler_pairing", lambda a, b: Fraction(1, 2))
    with pytest.raises(ArithmeticError, match="not an integer"):
        genus4.euler_table()


def test_ext_tables_match_euler_pairings():
    L, P = genus4.LINE_FACTOR, genus4.PLANAR_FACTOR
    chi = genus4.euler_table()
    for stratum in genus4.Stratum:
        table = genus4.ext_table(stratum, chi)
        assert table[(L, L)].ext1 == 4
        assert table[(P, P)].ext1 == 7
        assert table[(P, L)].ext1 == 18
        assert table[(P, P)].ext2 == 4
        assert table[(L, P)].ext1 == stratum.incidence_defect
        assert table[(L, P)].ext2 is None and table[(L, P)].ext3 is None
        checks = genus4.validate_ext_table(table, chi)
        assert all(check["ok"] for check in checks)
        relations = [c for c in checks if c["kind"] == "inferred_relation"]
        assert len(relations) == 1
        assert relations[0]["relation"] == f"ext2 - ext3 = {stratum.incidence_defect}"


@pytest.mark.parametrize("stratum", list(genus4.Stratum), ids=lambda s: s.value)
def test_ext_table_reads_every_recorded_dimension(stratum):
    table = genus4.ext_table(stratum, genus4.euler_table())
    for a, b, group, dim in genus4.EXT_ASSUMPTIONS:
        assert getattr(table[(a, b)], group) == dim, (a, b, group)


def test_ext_table_follows_edited_assumptions(monkeypatch):
    L = genus4.LINE_FACTOR
    edited = tuple(
        (a, b, group, 5 if (a, b, group) == (L, L, "ext1") else dim)
        for a, b, group, dim in genus4.EXT_ASSUMPTIONS
    )
    monkeypatch.setattr(genus4, "EXT_ASSUMPTIONS", edited)
    profile = genus4.ext_table(genus4.Stratum.DISJOINT, genus4.euler_table())[(L, L)]
    assert (profile.hom, profile.ext1, profile.ext2, profile.ext3) == (1, 5, 1, 0)


def test_validate_ext_table_flags_wrong_entry():
    chi = genus4.euler_table()
    table = genus4.ext_table(genus4.Stratum.DISJOINT, chi)
    L = genus4.LINE_FACTOR
    table[(L, L)] = genus4.ExtProfile(1, 5, 0, 0)
    checks = genus4.validate_ext_table(table, chi)
    bad = [c for c in checks if not c["ok"]]
    assert len(bad) == 1 and bad[0]["pair"] == [L, L]


def test_dimension_helpers():
    assert genus4.proj_bundle_dim(9, 16) == 24
    assert genus4.proj_bundle_dim(11, 18) == 28
    assert genus4.extension_ext1_bound(8, 3, 1, 13) == 24
    assert genus4.extension_ext1_bound(4, 7, 2, 18) == 30


def test_exceptional_ledger_values():
    ledger = {entry.name: entry for entry in genus4.exceptional_ledger()}
    expected = {
        "quadric_family_dim": 9,
        "cubic_system_dim": 16,
        "first_moduli_dim": 24,
        "wall_side_moduli_dim": 24,
        "conic_family_dim": 8,
        "blowup_center_dim": 11,
        "exceptional_divisor_dim": 23,
        "divisor_check": 23,
        "line_family_dim": 4,
        "planar_factor_moduli_dim": 7,
        "second_moduli_dim": 28,
        "ext1_bound_conic_wall": 24,
        "ext1_bound_line_plane_wall": 30,
        "stratum_ext1_defect0": 28,
        "stratum_ext1_defect1": 29,
        "stratum_ext1_defect2": 30,
        "kernel_meets_dim": 14,
        "kernel_spanned_dim": 10,
        "singular_intersection_dim": 23,
        "wall_sensitive_locus_dim": 10,
        "small_locus_image_dim": 7,
        "small_locus_dim": 8,
        "cone_vertex_dim": 9,
        "rank_one_locus_dim": 4,
        "cone_fiber_dim": 14,
        "degenerate_base_dim": 7,
    }
    for name, value in expected.items():
        assert ledger[name].value == value, name
        assert ledger[name].how in ("computed", "recorded")
    # the two independent routes to the moduli dimension agree
    assert ledger["first_moduli_dim"].value == ledger["wall_side_moduli_dim"].value
    v = genus4.canonical_class()
    assert 1 - euler_pairing(v, v) == 24


def test_narrative_statements():
    story = genus4.narrative(genus4.exceptional_ledger())
    statements = {item["statement"]: item["status"] for item in story}
    assert statements == {
        "divisorial contraction (ψ)": "computed",
        "small contraction (φ)": "computed",
        "is not Q-factorial": "recorded",
    }


def test_narrative_reads_the_ledger():
    ledger = [
        dataclasses.replace(entry, value=entry.value + 1)
        if entry.name == "small_locus_dim" else entry
        for entry in genus4.exceptional_ledger()
    ]
    notes = {item["statement"]: item["note"] for item in genus4.narrative(ledger)}
    assert notes["small contraction (φ)"] == (
        "contracted locus dimension 9 in the 24-dimensional wall-side moduli:"
        " codimension 15 >= 2"
    )
    assert notes["divisorial contraction (ψ)"].startswith("exceptional locus dimension 23 = 24 - 1")


def test_cohomology_consistency():
    check = genus4.cohomology_consistency()
    assert check["matches_total"] is True
    assert check["genus6_class"] == "1,0,-6,17"


def test_report_text():
    text = genus4.report("text")
    assert text.startswith("total class: 1,0,-6,15")
    assert "center -4, radius^2 4" in text
    assert "is not Q-factorial" in text
    assert "ext2 - ext3 = " in text
    with pytest.raises(ValueError):
        genus4.report("yaml")


def test_report_json():
    payload = json.loads(genus4.report("json"))
    assert payload["schema"] == "p3walls/1"
    assert payload["class"] == "1,0,-6,15"
    assert len(payload["walls"]) == 4
    assert payload["walls"][0]["full_pair"] is None
    assert payload["walls"][1]["full_pair"] == ["1,-1,-1/2,11/6", "0,1,-11/2,79/6"]
    assert payload["walls"][3]["full_pair"] == ["1,-2,2,-4/3", "0,2,-8,49/3"]
    assert [ref["line"] for ref in payload["refinements"]] == [
        "1,-1,-1/2,-1/6",
        "1,-1,-1/2,5/6",
        "1,-1,-1/2,11/6",
    ]
    assert payload["euler_table"][f"{genus4.PLANAR_FACTOR}|{genus4.LINE_FACTOR}"] == -18
    assert {item["statement"] for item in payload["narrative"]} == {
        "divisorial contraction (ψ)",
        "small contraction (φ)",
        "is not Q-factorial",
    }
    names = {entry["name"] for entry in payload["ledger"]}
    assert "second_moduli_dim" in names and "cone_fiber_dim" in names
    assert payload["consistency"]["matches_total"] is True
    # deterministic serialization
    assert genus4.report("json") == genus4.report("json")


@pytest.mark.parametrize("fmt, name", [("text", "genus4_report.txt"), ("json", "genus4_report.json")])
def test_report_matches_golden(fmt, name):
    assert (genus4.report(fmt) + "\n").encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_builds_euler_table_and_ledger_once(fmt, monkeypatch):
    calls = {"euler_table": 0, "exceptional_ledger": 0}
    for name in calls:
        original = getattr(genus4, name)

        def counted(original=original, name=name):
            calls[name] += 1
            return original()

        monkeypatch.setattr(genus4, name, counted)
    genus4.report(fmt)
    assert calls == {"euler_table": 1, "exceptional_ledger": 1}


L, P = genus4.LINE_FACTOR, genus4.PLANAR_FACTOR

#: Ledger entries that must move when one recorded ``ext1`` is raised by one.
EXT1_DEPENDENTS = {
    (L, L): {"line_family_dim", "second_moduli_dim", "ext1_bound_line_plane_wall",
             "stratum_ext1_defect0", "stratum_ext1_defect1", "stratum_ext1_defect2"},
    (P, P): {"ext1_bound_line_plane_wall",
             "stratum_ext1_defect0", "stratum_ext1_defect1", "stratum_ext1_defect2"},
    (P, L): {"extension_space_dim", "second_moduli_dim", "ext1_bound_line_plane_wall",
             "stratum_ext1_defect0", "stratum_ext1_defect1", "stratum_ext1_defect2",
             "kernel_meets_dim", "kernel_spanned_dim", "cone_vertex_dim", "cone_fiber_dim"},
}

#: Ledger entries that must move when one row of ``RECORDED_DIMENSIONS`` is
#: raised by one; the bundle base of the last row appears only in a note.
RECORDED_DEPENDENTS = {
    "conic_extension_space_dim": {"conic_extension_space_dim", "exceptional_divisor_dim",
                                  "ext1_bound_conic_wall"},
    "restriction_rank_meets": {"restriction_rank_meets", "kernel_meets_dim"},
    "restriction_rank_spanned": {"restriction_rank_spanned", "kernel_spanned_dim",
                                 "cone_vertex_dim", "cone_fiber_dim"},
    "wall_sensitive_locus_dim": {"wall_sensitive_locus_dim"},
    "conic_planar_ext1": {"ext1_bound_conic_wall"},
    "singular_fiber_dim": {"singular_intersection_dim"},
    "singular_stratum_dim": {"singular_intersection_dim"},
    "rank_one_matrix_rows": {"rank_one_locus_dim", "cone_fiber_dim"},
    "rank_one_matrix_cols": {"rank_one_locus_dim", "cone_fiber_dim"},
    "degenerate_bundle_base_dim": {"degenerate_base_dim"},
}


def _moved_entries(before: list, after: list) -> tuple[set, set]:
    """Names whose entry changed at all, and names whose value changed."""
    assert [entry.name for entry in before] == [entry.name for entry in after]
    pairs = list(zip(before, after))
    return ({a.name for a, b in pairs if a != b},
            {a.name for a, b in pairs if a.value != b.value})


@pytest.mark.parametrize("pair", list(EXT1_DEPENDENTS), ids="|".join)
def test_ledger_follows_each_recorded_ext1(pair, monkeypatch):
    before = genus4.exceptional_ledger()
    edited = tuple(
        (a, b, group, dim + 1 if (a, b, group) == (*pair, "ext1") else dim)
        for a, b, group, dim in genus4.EXT_ASSUMPTIONS
    )
    monkeypatch.setattr(genus4, "EXT_ASSUMPTIONS", edited)
    moved, moved_values = _moved_entries(before, genus4.exceptional_ledger())
    assert moved == moved_values == EXT1_DEPENDENTS[pair]


def test_every_recorded_input_has_dependents():
    ext1_pairs = {(a, b) for a, b, group, _ in genus4.EXT_ASSUMPTIONS if group == "ext1"}
    assert ext1_pairs == set(EXT1_DEPENDENTS)
    assert [name for name, _, _ in genus4.RECORDED_DIMENSIONS] == list(RECORDED_DEPENDENTS)


@pytest.mark.parametrize("name", list(RECORDED_DEPENDENTS))
def test_ledger_follows_each_recorded_dimension(name, monkeypatch):
    before = genus4.exceptional_ledger()
    edited = tuple(
        (row, dim + 1 if row == name else dim, note)
        for row, dim, note in genus4.RECORDED_DIMENSIONS
    )
    monkeypatch.setattr(genus4, "RECORDED_DIMENSIONS", edited)
    moved, moved_values = _moved_entries(before, genus4.exceptional_ledger())
    assert moved == RECORDED_DEPENDENTS[name]
    # the one note-only input: the value stays the nested configuration count
    assert moved_values == (set() if name == "degenerate_bundle_base_dim" else moved)


def test_recorded_ledger_entries_read_their_table_row():
    ledger = {entry.name: entry for entry in genus4.exceptional_ledger()}
    recorded = {name for name, entry in ledger.items() if entry.how == "recorded"}
    rows = {name: (dim, note) for name, dim, note in genus4.RECORDED_DIMENSIONS}
    ext1 = {(a, b): dim for a, b, group, dim in genus4.EXT_ASSUMPTIONS if group == "ext1"}
    assert recorded == {name for name in rows if name in ledger} | {
        "line_family_dim", "extension_space_dim"}
    for name in recorded & set(rows):
        assert (ledger[name].value, ledger[name].note) == rows[name]
    assert ledger["line_family_dim"].value == ext1[(L, L)]
    assert ledger["extension_space_dim"].value == ext1[(P, L)]
    # the computed family of the planar factor is the recorded tangent dimension
    assert ledger["planar_factor_moduli_dim"].value == ext1[(P, P)]


def test_ledger_notes_follow_the_degrees(monkeypatch):
    # a hypothetical quartic in place of the cubic: the notes show the new h0;
    # the cached total class is built from the true degrees first
    genus4.canonical_class()
    monkeypatch.setattr(genus4, "CUBIC", 4)
    ledger = {entry.name: entry for entry in genus4.exceptional_ledger()}
    assert ledger["cubic_system_dim"].value == 35 - 10
    assert ledger["cubic_system_dim"].note == "h0(O(4)) - h0(O(2)) = 35 - 10 on the quadric"
    assert ledger["first_moduli_dim"].note == "projective bundle: 9 + (25 - 1)"


def _literals_above_one(function) -> list[int]:
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return [
        node.value for node in ast.walk(tree.body[0])
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value > 1
    ]


@pytest.mark.parametrize("name", ["exceptional_ledger"])
def test_no_recorded_number_is_typed_into_the_ledger(name):
    assert _literals_above_one(getattr(genus4, name)) == []

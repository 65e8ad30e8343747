"""Acceptance suite: each test is one pass/fail line for one shipped claim.

Run with ``pytest tests/test_acceptance.py -v`` to see the ten criteria
individually.  Timing limits are generous for CI noise but tight enough to
catch an accidental complexity regression; numeric comparisons are exact
except where a stated float tolerance is part of the criterion itself.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from p3walls import genus4
from p3walls.chern import ChernCharacter, curve_ideal_ch, from_resolution
from p3walls.stability import TiltPoint, nu
from p3walls.walls import (
    Circle,
    Region,
    SearchBounds,
    bmt_zero_circle,
    brute_force_walls,
    enumerate_tilt_walls,
)

V = ChernCharacter(1, 0, -6, 15)
REGION = Region(-12, 0, 64)
GOLDEN = Path(__file__).parent / "golden" / "sextic_genus4_walls.svg"


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "p3walls.cli", *argv],
        capture_output=True,
        text=True,
        check=False,
    )


def test_criterion_01_wall_list_reproduction():
    started = time.perf_counter()
    result = _cli("walls", "--v", "1,0,-6,15", "--format", "json")
    elapsed = time.perf_counter() - started
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert [(w["center"], w["radius_sq"]) for w in payload["walls"]] == [
        ("-13/2", "121/4"),
        ("-11/2", "73/4"),
        ("-9/2", "33/4"),
        ("-4", "4"),
    ]
    walls = enumerate_tilt_walls(V, REGION)
    assert all(wall.sub.r > 0 for wall in walls)
    twisted = {(tw.r, tw.c, tw.d) for tw in (wall.sub.twist(-4) for wall in walls)}
    assert twisted == {
        (1, 2, 2),
        (1, 3, Fraction(5, 2)),
        (1, 3, Fraction(7, 2)),
        (1, 3, Fraction(9, 2)),
    }
    assert elapsed < 5.0


def test_criterion_02_wall_tops_lie_on_hyperbola():
    for wall in enumerate_tilt_walls(V, REGION):
        assert wall.circle.center**2 - wall.circle.radius_sq == 12


def test_criterion_03_bmt_zero_circle():
    circle = bmt_zero_circle(V)
    assert circle == Circle(Fraction(-15, 4), Fraction(33, 16))
    assert abs(float(Fraction(33, 16)) - 2.06) <= 0.01
    assert float(circle.center) == -3.75


def test_criterion_04_class_from_resolution():
    assert from_resolution([(-2, 1), (-3, 1), (-5, -1)]) == curve_ideal_ch(6, 4)
    assert curve_ideal_ch(6, 4) == ChernCharacter(1, 0, -6, 15)


def test_criterion_05_euler_table_and_ext_validation():
    table = genus4.euler_table()
    L, P = genus4.LINE_FACTOR, genus4.PLANAR_FACTOR
    assert table[(L, L)] == -3
    assert table[(P, P)] == -2
    assert table[(P, L)] == -18
    assert table[(L, P)] == 0
    recorded = {(a, b, g): dim for a, b, g, dim in genus4.EXT_ASSUMPTIONS}
    assert recorded[(L, L, "ext1")] == 4
    assert recorded[(P, P, "ext1")] == 7
    assert recorded[(P, L, "ext1")] == 18
    for stratum in genus4.Stratum:
        ext = genus4.ext_table(stratum, table)
        assert ext[(L, P)].ext1 == stratum.incidence_defect  # stratified 0/1/2
        assert ext[(P, P)].ext2 == 4
        assert all(check["ok"] for check in genus4.validate_ext_table(ext, table))


def test_criterion_06_refinement_enumeration():
    refinements = genus4.line_plane_refinements()
    assert {ref.line_ch.e for ref in refinements} == {
        Fraction(-1, 6),
        Fraction(5, 6),
        Fraction(11, 6),
    }
    pure = [ref for ref in refinements if ref.line_ch.e == Fraction(11, 6)]
    assert len(pure) == 1
    assert pure[0].line_ch + pure[0].planar_ch == V


def test_criterion_07_dimension_ledger():
    ledger = {entry.name: entry.value for entry in genus4.exceptional_ledger()}
    assert ledger["first_moduli_dim"] == 24
    assert ledger["wall_side_moduli_dim"] == 24
    assert ledger["second_moduli_dim"] == 28 == 17 + 4 + 7
    assert ledger["exceptional_divisor_dim"] == 23
    assert ledger["singular_intersection_dim"] == 23 == 13 + 10
    assert ledger["ext1_bound_conic_wall"] == 24 == 8 + 3 + 1 + 13 - 1
    assert ledger["ext1_bound_line_plane_wall"] == 30 == 4 + 7 + 2 + 18 - 1
    assert (
        ledger["stratum_ext1_defect0"],
        ledger["stratum_ext1_defect1"],
        ledger["stratum_ext1_defect2"],
    ) == (28, 29, 30)
    assert ledger["kernel_meets_dim"] == 14
    assert ledger["kernel_spanned_dim"] == 10
    assert ledger["wall_sensitive_locus_dim"] == 10
    assert ledger["small_locus_dim"] == 8
    assert ledger["cone_fiber_dim"] == 14
    assert ledger["cone_vertex_dim"] == 9
    assert ledger["degenerate_base_dim"] == 7


def test_criterion_08_oracle_equivalence():
    bounds = SearchBounds(5, 20, 100)
    cases = [
        (V, None),
        (ChernCharacter(1, 0, -1, 1), [Circle(Fraction(-3, 2), Fraction(1, 4))]),
        (ChernCharacter(1, 0, 0, 0), []),
    ]
    started = time.perf_counter()
    for total, expected_circles in cases:
        smart = enumerate_tilt_walls(total, REGION)
        assert smart == brute_force_walls(total, REGION, bounds)
        if expected_circles is not None:
            assert [w.circle for w in smart] == expected_circles
    assert time.perf_counter() - started < 60.0


def test_criterion_09_slope_equality_and_twist_properties():
    rng = random.Random(20260814)
    for wall in enumerate_tilt_walls(V, REGION):
        center, radius_sq = wall.circle.center, wall.circle.radius_sq
        for _ in range(20):
            beta = center + Fraction(rng.randint(-1999, 1999), 1000)
            alpha_sq = radius_sq - (beta - center) ** 2
            assert alpha_sq > 0  # every circle here has radius at least 2
            point = TiltPoint(beta, alpha_sq)
            assert nu(wall.sub, point) == nu(V, point) == nu(wall.quotient, point)

    def rand_rational() -> Fraction:
        return Fraction(rng.randint(-120, 120), rng.randint(1, 12))

    for _ in range(1000):
        ch = ChernCharacter(*(rand_rational() for _ in range(4)))
        b1, b2 = rand_rational(), rand_rational()
        assert ch.twist(b1).twist(b2) == ch.twist(b1 + b2)
        assert ch.twist(b1).discriminant() == ch.discriminant()


def test_criterion_10_svg_golden(tmp_path):
    out = tmp_path / "walls.svg"
    result = _cli("plot", "--v", "1,0,-6,15", "--out", str(out))
    assert result.returncode == 0
    produced = out.read_bytes()
    assert produced == GOLDEN.read_bytes()
    text = produced.decode("utf-8")
    assert text.count('id="wall-') == 4
    assert 'id="hyperbola"' in text
    assert 'id="bmt"' in text

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from p3walls.chern import ChernCharacter
from p3walls.plotting import build_scene, render_svg
from p3walls.walls import Region

GOLDEN = Path(__file__).parent / "golden" / "sextic_genus4_walls.svg"
V = ChernCharacter(1, 0, -6, 15)


def test_render_matches_golden_file():
    scene = build_scene(V)
    assert render_svg(scene) == GOLDEN.read_bytes()


def test_render_is_deterministic():
    scene = build_scene(V)
    assert render_svg(scene) == render_svg(scene)


def test_scene_contents():
    scene = build_scene(V)
    assert len(scene.walls) == 4
    assert scene.hyperbola == V
    assert scene.bmt is not None
    assert scene.caption == "tilt walls for 1,0,-6,15"


def test_svg_structure():
    text = render_svg(build_scene(V)).decode("utf-8")
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert text.count('id="wall-') == 4
    assert 'id="hyperbola"' in text
    assert 'id="bmt"' in text
    assert "center=-13/2 radius_sq=121/4" in text
    assert "center=-4 radius_sq=4" in text
    assert text.rstrip().endswith("</svg>")


def test_caption_records_extra_parameter():
    scene = build_scene(V, s=Fraction(1, 3))
    assert scene.caption.endswith("s = 1/3")
    assert b"s = 1/3" in render_svg(scene)


def test_rank_zero_scene_has_no_hyperbola():
    plane = ChernCharacter(0, 1, Fraction(-1, 2), Fraction(1, 6))
    scene = build_scene(plane, Region(-12, 0, 16))
    assert scene.hyperbola is None
    assert len(scene.walls) == 1
    text = render_svg(scene).decode("utf-8")
    assert 'id="hyperbola"' not in text
    assert text.rstrip().endswith("</svg>")


def test_scene_without_walls_renders():
    scene = build_scene(ChernCharacter(1, 0, 0, 0))
    assert scene.walls == ()
    text = render_svg(scene).decode("utf-8")
    assert 'id="wall-' not in text


def test_wide_window_draws_few_ticks():
    # One tick per integer would write about 190 bytes per unit of width.
    text = render_svg(build_scene(V, Region(-10**9, 10**9, 64))).decode("utf-8")
    ticks = re.findall(r'text-anchor="middle">(-?\d+)</text>', text)
    assert ticks == [str(b) for b in range(-10**9, 10**9 + 1, 2 * 10**8)]
    assert len(text) < 20_000

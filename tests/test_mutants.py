"""Standing mutants of ``p3walls.walls``: each must be caught by the checks
named beside it.

A mutant is one substring of ``walls.py``, which must occur there exactly
once, and its replacement.  The mutated source runs as a fresh module of the
package, so ``p3walls.walls`` itself is untouched.  A check records what a
module computes on fixed inputs, and catches a mutant whose record differs
from that of ``p3walls.walls``, which the other test modules hold to the
Fraction references and the goldens.  A fresh copy of the unmutated source
must give the same record, so a check that differs on every copy catches
nothing.
"""

from __future__ import annotations

import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from p3walls import walls as walls_module
from p3walls.chern import ChernCharacter, curve_ideal_ch

SOURCE = Path(walls_module.__file__).read_text()

V = ChernCharacter(1, 0, -6, 15)
RANK_ZERO = ChernCharacter(0, 6, -9, 7)
REGION = walls_module.Region(-12, 0, 64)

#: Derived searches: the headline class, curve classes and a twist with walls
#: of every member rank, ranks 2 to 4, a negative rank, a rank-zero class and
#: a refused class.
DERIVED = [
    V,
    *(curve_ideal_ch(d, g) for d, g in [(3, 1), (4, 0), (5, 2), (6, 4), (7, 5)]),
    ChernCharacter(1, -3, Fraction(-3, 2), Fraction(57, 2)),
    ChernCharacter(2, -1, Fraction(-5, 2), Fraction(29, 6)),
    ChernCharacter(3, -2, -1, Fraction(8, 3)),
    ChernCharacter(4, 9, Fraction(-41, 2), 44),
    ChernCharacter(-2, -6, -3, 19),
    RANK_ZERO,
    ChernCharacter(1, 0, -6, 0),
]

#: Box scans: the headline class, the rank-zero golden's box, the planar
#: factor of the headline class (rank zero, disc(v) = c_v = 1, one wall of
#: squared radius 1/4, refused by the derived search) and a negative rank.
ORACLE = [
    (V, walls_module.SearchBounds(3, 10, 40)),
    (RANK_ZERO, walls_module.SearchBounds(5, 20, 100)),
    (ChernCharacter(0, 1, Fraction(-11, 2), Fraction(79, 6)), walls_module.SearchBounds(5, 20, 100)),
    (ChernCharacter(-2, -6, -3, 19), walls_module.SearchBounds(3, 8, 30)),
    (ChernCharacter(3, -2, -1, Fraction(8, 3)), walls_module.SearchBounds(3, 8, 30)),
]

#: Walked rows: ranks -5..5, rows |c| <= 8, a fixed window and one whose ends
#: have opposite slopes, over classes of rank -2..4 (one of them rank zero).
#: For ``4,-1,-1/2,0`` the rows of ranks -1 and 5 next to the cut at
#: ``k1 = 0`` each keep a ``2d``: ``c = 1`` and ``c = -2``.
WALKED = [V, RANK_ZERO, ChernCharacter(4, 9, Fraction(-41, 2), 44),
          ChernCharacter(-2, -6, -3, 19), ChernCharacter(2, -1, Fraction(-5, 2), Fraction(29, 6)),
          ChernCharacter(4, -1, Fraction(-1, 2), 0)]
WINDOWS = [(((0, -40), (0, 40)), 1), (((1, -9), (-2, 17)), 2)]


def _load(source: str) -> types.ModuleType:
    """``source`` run as a module of the package, registered only while it runs."""
    name = "p3walls._mutant_walls"
    module = types.ModuleType(name)
    module.__package__ = "p3walls"
    sys.modules[name] = module
    try:
        exec(compile(source, walls_module.__file__, "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


def _listed(call) -> object:
    """The walls of ``call()`` as JSON mappings, or the refusal's message."""
    try:
        return [walls_module.wall_to_dict(w) for w in call()]
    except RuntimeError as exc:  # WallSearchError of either module
        return str(exc)


def _derived(module) -> list:
    return [_listed(lambda: module.enumerate_tilt_walls(v, REGION)) for v in DERIVED]


def _oracle(module) -> list:
    return [_listed(lambda: module.brute_force_walls(v, REGION, box)) for v, box in ORACLE]


def _walked(module) -> list:
    """Every row each walker hands the predicate, as ``(r, c, 2d...)``."""
    rows: list = []
    row_walls = module._row_walls
    module._row_walls = lambda ctx, sink, r, c, Ds: rows.append((r, c, *Ds))
    try:
        for v in WALKED:
            ctx = module._WallContext(v, REGION)
            for r in range(-5, 6):
                for ends, den in WINDOWS:
                    module._walk_rank(ctx, set(), r, range(-8, 9), ends, den)
    finally:
        module._row_walls = row_walls
    return rows


def _whole_rows(module) -> list:
    """The pairs the predicate keeps on each whole step-1 row, which no walker
    has clipped, as ``(r, c, pairs)``: ranks -3..3, rows |c| <= 8 and 2d in
    -40..40."""
    kept: list = []
    for v in WALKED:
        ctx = module._WallContext(v, REGION)
        for r in range(-3, 4):
            for c in range(-8, 9):
                sink: set = set()
                module._row_walls(ctx, sink, r, c, range(-40, 41))
                if sink:
                    kept.append((r, c, sorted(sink)))
    return kept


def _scanned(module) -> list:
    """Every call the derived scans make to the walker: rank, rows and window."""
    calls: list = []
    walk_rank = module._walk_rank

    def record(ctx, sink, r, cs, ends, den):
        calls.append((r, cs, ends, den))
        walk_rank(ctx, sink, r, cs, ends, den)

    module._walk_rank = record
    try:
        _derived(module)
    finally:
        module._walk_rank = walk_rank
    return calls


CHECKS = {
    "derived walls": _derived,
    "oracle walls": _oracle,
    "walked rows": _walked,
    "whole rows": _whole_rows,
    "scanned windows": _scanned,
}
EXPECTED = {name: check(walls_module) for name, check in CHECKS.items()}

#: ``(name, substring of walls.py, replacement, checks that must fail)``.
#:
#: No mutant makes either admissibility test of the predicate non-strict: both
#: are equivalent mutants.  The top of a circle lies on the slope-zero locus
#: of ``v``, so if ``im(w) = 0`` there while ``im(u) > 0`` the slope equality
#: forces ``Z(w) = 0`` at a point of positive height; with ``disc(w) >= 0``
#: that means ``w = (0, 0, d)``, which has ``k1 = 0``.  Nor does one turn
#: ``quarter <= 0`` into ``quarter < 0``: that changes the predicate alone
#: only on point circles, whose top at height 0 needs a square ``disc(v)``,
#: and both walkers cut ``quarter = 0`` by strict tests first, so no search
#: can see it.
MUTANTS = [
    # the wall-free gate, widened to classes that have walls
    ("gate widened to disc(v) = 1",
     "self.delta <= 0 or", "self.delta <= 1 or",
     ["oracle walls"]),
    ("rank-zero gate widened to c_v = 1",
     "not self.rv and self.cv <= 0", "not self.rv and self.cv <= 1",
     ["oracle walls"]),
    # the circle test of the row walker
    ("gap root rounded outward",
     "math.isqrt(sq * k * k)", "math.isqrt(sq * k * k) + 1",
     ["walked rows", "derived walls"]),
    ("gap ends swapped",
     "math.isqrt(sq * k * k) - q1 * c - q0", "-s * math.isqrt(sq * k * k) - q1 * c - q0",
     ["walked rows"]),
    ("rank-zero half-line sign flipped",
     "((A,), ()) if s < 0 else", "((A,), ()) if (s < 0) == (rv != 0) else",
     ["walked rows", "oracle walls", "derived walls"]),
    ("torsion cap one row short",
     "stop = min(stop, math.isqrt(ctx.delta - 1) + 1)", "stop = min(stop, math.isqrt(ctx.delta - 1))",
     ["scanned windows"]),
    # the rows a rank walks: one side of k1 = 0 holds no admissible pair
    ("row cut on the wrong side of k1 = 0",
     "(below if r > 0 or ru < 0 else none), (above if ru > 0 or r < 0 else none)",
     "(below if ru > 0 or r < 0 else none), (above if r > 0 or ru < 0 else none)",
     ["walked rows", "derived walls"]),
    ("row cut on both sides of an outside rank",
     "    return (below if", "    if r * ru < 0:\n        return none, none\n    return (below if",
     ["walked rows", "derived walls"]),
    ("row cut rounded inward above k1 = 0",
     "max(cs.start, r * cv // rv + 1)", "max(cs.start, r * cv // rv + 2)",
     ["walked rows"]),
    ("row cut rounded inward below k1 = 0",
     "min(cs.stop, -(-r * cv // rv))", "min(cs.stop, -(-r * cv // rv) - 1)",
     ["walked rows"]),
    ("r = 0 starting at c = 2",
     "max(cs.start, r * cv // rv + 1)", "max(cs.start, r * cv // rv + 1 + (r == 0))",
     ["walked rows", "derived walls"]),
    ("r = r_v keeping rows only up to c_v - 2",
     "min(cs.stop, -(-r * cv // rv))", "min(cs.stop, -(-r * cv // rv) - (r == rv))",
     ["walked rows"]),
    ("rank-zero window starting one row inward",
     "rD // cc + 1", "rD // cc + 2",
     ["walked rows", "oracle walls"]),
    ("rank-zero window stopping one row inward",
     "cv - (-rD // cc)", "cv - (-rD // cc) - 1",
     ["walked rows", "oracle walls"]),
    # the five half-lines, sorted once per side of k1 = 0
    ("sides swapped at k1 < 0",
     "zip((-1, 1), _admissible_rows", "zip((1, 1), _admissible_rows",
     ["walked rows", "derived walls"]),
    ("the two sides' signs swapped",
     "zip((-1, 1), _admissible_rows", "zip((1, -1), _admissible_rows",
     ["walked rows", "oracle walls", "derived walls"]),
    ("disc(w) half-line dropped at k1 > 0",
     "-c * c, h3 - cu * cu)", "-c * c if s < 0 else -10**9, h3 - cu * cu)",
     ["walked rows"]),
    ("disc(u) half-line dropped at k1 < 0",
     "-c * c, h3 - cu * cu)", "-c * c, h3 - cu * cu if s > 0 else -10**9)",
     ["walked rows"]),
    ("ceiling turned into a floor",
     "x = -(-b[i] // a)", "x = b[i] // a",
     ["walked rows"]),
    # the predicate on its own, whose rows no walker clipped
    ("predicate drops disc(u)",
     "if c * c < r * D or cu * cu < ru * Du:", "if c * c < r * D:",
     ["whole rows"]),
    ("predicate drops the lattice parity",
     "if (D - c) % 2:\n            continue  # off the truncation lattice", "if False:\n            continue",
     ["whole rows"]),
    ("predicate drops the complement's primitivity",
     "if math.gcd(ru, cu, (Du - cu) // 2) != 1:", "if False:",
     ["whole rows", "oracle walls", "derived walls"]),
    ("scan window shifted by one",
     "(2 * n * rv, r * (Dv * q - 2 * n * cv))", "(2 * n * rv, r * (Dv * q - 2 * n * cv) + rv * q)",
     ["scanned windows", "derived walls"]),
    # the derived dual's context, read from the caller's numerators
    ("dual's region edges left unmirrored",
     "B_min, B_max = -B_max, -B_min", "B_min, B_max = B_min, B_max",
     ["derived walls"]),
    ("dual's D_v left unnegated",
     "self.Dv = sign * v.d.numerator", "self.Dv = v.d.numerator",
     ["derived walls"]),
    # one member per destabilizing pair
    ("middle ranks stop one short",
     "for k in range(ctx.rv // 2 + 1) if ctx.rv else ():",
     "for k in range(ctx.rv // 2) if ctx.rv else ():",
     ["scanned windows", "derived walls"]),
    ("middle ranks skip rank zero",
     "for k in range(ctx.rv // 2 + 1) if ctx.rv else ():",
     "for k in range(1, ctx.rv // 2 + 1) if ctx.rv else ():",
     ["scanned windows", "derived walls"]),
    ("outside ranks shifted",
     "_scan_rank(ctx, found, -excess, cap_sq)", "_scan_rank(ctx, found, -excess - 1, cap_sq)",
     ["scanned windows", "derived walls"]),
]


@pytest.mark.parametrize("name", CHECKS)
def test_check_passes_on_the_unmutated_source(name):
    assert CHECKS[name](_load(SOURCE)) == EXPECTED[name]


@pytest.mark.parametrize("old, new, checks", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutant_is_caught(old, new, checks):
    assert SOURCE.count(old) == 1, old
    mutant = _load(SOURCE.replace(old, new))
    for name in checks:
        assert CHECKS[name](mutant) != EXPECTED[name], f"{name} missed the mutant"

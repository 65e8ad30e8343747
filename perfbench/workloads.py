"""Seeded inputs, operations and output checks for the four benchmark workloads.

Each workload is a closed loop with one client: operation ``i`` is sent only
after operation ``i - 1`` has returned.  Inputs come from :class:`Workload.spec`,
a pure function of ``(seed, i)`` built from plain integers and fractions; the
library sees them only when :meth:`Workload.run` turns a spec into a call.

Operation sequences are made of *epochs*.  An epoch visits every element of
the workload's input universe once, in a seeded order, so two seeds differ in
order, twists and rationals but not in the mix of work, and per-seed medians
stay comparable.  On the sweeps an element is twisted by a different integer in
each of the first ``len(TWISTS)`` epochs, so no class repeats within a run of
that length.

Checks are independent of the call being measured: wall invariants through
:func:`p3walls.walls.on_hyperbola` and :func:`p3walls.stability.nu`, the
expected refusal set stored in ``reference.json``, closed-form re-computation
of the CLI point queries in plain :class:`fractions.Fraction` arithmetic, the
golden SVG, and stored digests of constant outputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SVG = ROOT / "tests" / "golden" / "sextic_genus4_walls.svg"
#: Relative to the checkout root, which ``run.py`` makes the working
#: directory, so the CLI's "wrote ..." line is the same in every checkout.
PLOT_OUT = ".bench_out/plot.svg"

#: Search window of the sweeps and the oracle: wide enough that every twist
#: in ``TWISTS`` keeps the walls of the curve classes inside it.
WIDE_REGION = (Fraction(-40), Fraction(40), Fraction(1600))
TWISTS = tuple(range(-12, 13))

HEADLINE_CLASS = (Fraction(1), Fraction(0), Fraction(-6), Fraction(15))
#: The four walls of ``(1, 0, -6, 15)`` over the default window, outermost
#: first, as ``(center, radius_sq, sub, quotient)``.
HEADLINE_WALLS = [
    ("-13/2", "121/4", "1,-1,1/2", "0,1,-13/2"),
    ("-11/2", "73/4", "1,-1,-1/2", "0,1,-11/2"),
    ("-9/2", "33/4", "1,-1,-3/2", "0,1,-9/2"),
    ("-4", "4", "1,-2,2", "0,2,-8"),
]
HEADLINE_CAPTION = b"tilt walls for 1,0,-6,15"


# ---------------------------------------------------------------------------
# Character arithmetic of the benchmark's own, used to build inputs and to
# re-derive the CLI's answers.  Characters are tuples (r, c, d, e).
# ---------------------------------------------------------------------------


def twist(ch, t):
    """``ch . exp(-t H)``, truncated above degree three."""
    r, c, d, e = ch
    t = Fraction(t)
    return (
        r,
        c - t * r,
        d - t * c + t * t / 2 * r,
        e - t * d + t * t / 2 * c - t * t * t / 6 * r,
    )


def curve_class(degree, genus):
    return (Fraction(1), Fraction(0), Fraction(-degree), Fraction(2 * degree + genus - 1))


def line_bundle(t):
    return twist((Fraction(1), Fraction(0), Fraction(0), Fraction(0)), -t)


def euler(a, b):
    """Hirzebruch-Riemann-Roch: ``chi(a, b)`` against the Todd class of P^3."""
    ar, ac, ad, ae = a[0], -a[1], a[2], -a[3]  # dual
    br, bc, bd, be = b
    p0 = ar * br
    p1 = ar * bc + ac * br
    p2 = ar * bd + ac * bc + ad * br
    p3 = ar * be + ac * bd + ad * bc + ae * br
    return p3 + 2 * p2 + Fraction(11, 6) * p1 + p0


def fmt(ch):
    return ",".join(str(x) for x in ch)


def is_integral(ch):
    r, c, d, e = ch
    if r.denominator != 1 or c.denominator != 1 or (2 * d).denominator != 1:
        return False
    if (int(2 * d) - int(c)) % 2 or (6 * e).denominator != 1:
        return False
    return (e + 2 * d + Fraction(11, 6) * c + r).denominator == 1


def discriminant(ch):
    return ch[1] * ch[1] - 2 * ch[0] * ch[2]


def reflexive_class(rank, c1, c2, c3):
    """Character of a rank-``rank`` sheaf with Chern classes ``c1, c2, c3``."""
    return (
        Fraction(rank),
        Fraction(c1),
        Fraction(c1 * c1 - 2 * c2, 2),
        Fraction(c1 ** 3 - 3 * c1 * c2 + 3 * c3, 6),
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in ("p3walls-bench",) + parts))


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Workload:
    """One seeded operation stream: ``spec`` makes inputs, ``run`` calls the
    library, ``check`` validates an output, ``digest`` canonicalizes it."""

    name = ""

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference
        self.universe = self.make_universe()
        self._epoch = (-1, None)

    def make_universe(self) -> list:
        raise NotImplementedError

    def epoch_order(self, k: int) -> list:
        if self._epoch[0] != k:
            order = list(range(len(self.universe)))
            _rng(self.name, self.seed, "epoch", k).shuffle(order)
            self._epoch = (k, order)
        return self._epoch[1]

    def spec(self, i: int):
        k, pos = divmod(i, len(self.universe))
        return self.make_spec(self.epoch_order(k)[pos], k)

    def make_spec(self, j: int, k: int):
        raise NotImplementedError

    def warmup_spec(self):
        raise NotImplementedError


def _region(lib, bounds):
    return lib.walls.Region(*bounds)


def wall_rows(walls) -> list:
    return [
        (str(w.circle.center), str(w.circle.radius_sq), str(w.sub), str(w.quotient))
        for w in walls
    ]


def check_wall_rows(lib, total, rows) -> bool:
    """Per-wall invariants: walls come outermost first, ``sub + quotient`` is
    the truncation of the total, the top lies on the slope-zero hyperbola,
    and both members have equal tilt slope there."""
    radii = [Fraction(row[1]) for row in rows]
    if any(outer < inner for outer, inner in zip(radii, radii[1:])):
        return False
    trunc = lib.chern.ChernTruncation(*total[:3])
    v = lib.chern.ChernCharacter(*total)
    for center, radius_sq, sub, quotient in rows:
        top = lib.stability.TiltPoint(Fraction(center), Fraction(radius_sq))
        a = lib.chern.ChernTruncation(*(Fraction(x) for x in sub.split(",")))
        b = lib.chern.ChernTruncation(*(Fraction(x) for x in quotient.split(",")))
        if a + b != trunc:
            return False
        if not lib.walls.on_hyperbola(v, top):
            return False
        if lib.stability.nu(a, top) != lib.stability.nu(b, top):
            return False
    return True


class _Sweep(Workload):
    """Derived-bound enumeration over a universe of classes, each twisted by a
    seeded integer that changes from epoch to epoch."""

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        rng = _rng(self.name, seed, "twist")
        self.twist_base = [rng.randrange(len(TWISTS)) for _ in self.universe]
        self.refused = set(reference.get("refused", {}).get(self.name, []))

    def make_spec(self, j, k):
        t = TWISTS[(self.twist_base[j] + k) % len(TWISTS)]
        return (j, t, twist(self.universe[j][1], t))

    def run(self, lib, spec):
        v = lib.chern.ChernCharacter(*spec[2])
        try:
            return "ok", lib.walls.enumerate_tilt_walls(v, _region(lib, WIDE_REGION))
        except lib.walls.WallSearchError:
            return "refused", None

    def check(self, lib, spec, status, output) -> bool:
        expect_refused = self.universe[spec[0]][0] in self.refused
        if status == "refused":
            return expect_refused
        return not expect_refused and check_wall_rows(lib, spec[2], wall_rows(output))

    def digest(self, spec, status, output) -> str:
        if status == "refused":
            return digest("refused")
        return digest(";".join(" ".join(row) for row in wall_rows(output)))


class CurveSweep(_Sweep):
    """Curve-ideal classes of degree ``1..11`` and genus ``0..19``."""

    name = "curve-sweep"

    def make_universe(self):
        return [(f"{d},{g}", curve_class(d, g)) for d in range(1, 12) for g in range(0, 20)]

    def warmup_spec(self):
        index = [key for key, _ in self.universe].index("6,4")
        return (index, 0, curve_class(6, 4))


class HigherRank(_Sweep):
    """Rank-2 and rank-3 classes with Chern classes ``c1`` in ``(-rank, 0]``,
    ``0 <= c3 <= 9`` and discriminant in ``[8, 20]``: 65 classes."""

    name = "higher-rank"

    def make_universe(self):
        found = []
        for rank in (2, 3):
            for c1 in range(-(rank - 1), 1):
                for c2 in range(0, 12):
                    for c3 in range(0, 10):
                        if rank == 2 and (c3 - c1 * c2) % 2:
                            continue
                        ch = reflexive_class(rank, c1, c2, c3)
                        if is_integral(ch) and 8 <= discriminant(ch) <= 20:
                            found.append((f"{rank},{c1},{c2},{c3}", ch))
        return found

    def warmup_spec(self):
        return (0, 0, self.universe[0][1])


class OracleBox(Workload):
    """Brute-force scans: every box shape meets every curve degree and twist
    once per epoch; the genus is seeded per operation."""

    name = "oracle-box"
    BOXES = [(2, 8, 24), (2, 10, 32), (3, 10, 32), (3, 12, 40), (4, 12, 40)]

    def make_universe(self):
        return [
            (box, degree, t)
            for box in self.BOXES
            for degree in range(5, 12)
            for t in (-1, 0, 1)
        ]

    def make_spec(self, j, k):
        box, degree, t = self.universe[j]
        genus = _rng(self.name, self.seed, "op", k, j).randrange(20)
        return (box, twist(curve_class(degree, genus), t))

    def warmup_spec(self):
        return ((3, 12, 40), curve_class(6, 4))

    def run(self, lib, spec):
        box, ch = spec
        v = lib.chern.ChernCharacter(*ch)
        bounds = lib.walls.SearchBounds(*box)
        return "ok", lib.walls.brute_force_walls(v, _region(lib, WIDE_REGION), bounds)

    def check(self, lib, spec, status, output) -> bool:
        box, ch = spec
        rows = wall_rows(output)
        for w in output:
            members = [(m.r, m.c, 2 * m.d) for m in (w.sub, w.quotient)]
            if not any(abs(r) <= box[0] and abs(c) <= box[1] and abs(dd) <= box[2]
                       for r, c, dd in members):
                return False
        return status == "ok" and check_wall_rows(lib, ch, rows)

    def digest(self, spec, status, output) -> str:
        return digest(";".join(" ".join(row) for row in wall_rows(output)))


def _rational(rng, lo, hi, den):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


#: One headline epoch: request kind and how many of it.  Almost every walls
#: request repeats the headline class over the default window.
HEADLINE_MIX = [
    ("walls-headline-table", 6),
    ("walls-headline-json", 4),
    ("walls-other", 1),
    ("walls-refused", 1),
    ("genus4-text", 2),
    ("genus4-json", 2),
    ("plot", 1),
    ("plot-s", 1),
    ("euler", 8),
    ("bmt", 8),
    ("hyperbola", 7),
    ("hyperbola-rank0", 1),
    ("chern-twist", 6),
    ("chern-resolve", 6),
]
#: Curve classes for the non-headline walls requests: the first certify over
#: the default window, the second are refused.
CERTIFIED_CURVES = [(1, 0), (2, 0), (3, 1), (4, 3), (5, 6), (6, 4), (7, 6)]
REFUSED_CURVES = [(4, 0), (5, 1), (6, 2), (7, 3)]
RANK_ZERO = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 6))


class Headline(Workload):
    """A seeded mix of CLI requests through ``p3walls.cli.run`` in-process."""

    name = "headline"

    def make_universe(self):
        return [kind for kind, count in HEADLINE_MIX for _ in range(count)]

    def make_spec(self, j, k):
        kind = self.universe[j]
        rng = _rng(self.name, self.seed, "op", k, j)
        return self.request(kind, rng)

    def warmup_spec(self):
        return ("walls-headline-table", ["walls", "--v", fmt(HEADLINE_CLASS)], None)

    @staticmethod
    def request(kind, rng):
        """``(kind, argv, expected)``; ``expected`` is what the check needs."""
        seeded_curve = twist(curve_class(rng.randint(1, 11), rng.randrange(20)), rng.randint(-4, 4))
        if kind == "walls-headline-table":
            return kind, ["walls", "--v", fmt(HEADLINE_CLASS)], None
        if kind == "walls-headline-json":
            return kind, ["walls", "--v", fmt(HEADLINE_CLASS), "--format", "json"], None
        if kind in ("walls-other", "walls-refused"):
            pool = CERTIFIED_CURVES if kind == "walls-other" else REFUSED_CURVES
            ch = curve_class(*rng.choice(pool))
            return kind, ["walls", "--v", fmt(ch), "--format", "json"], ch
        if kind == "genus4-text":
            return kind, ["genus4"], None
        if kind == "genus4-json":
            return kind, ["genus4", "--format", "json"], None
        if kind == "plot":
            return kind, ["plot", "--v", fmt(HEADLINE_CLASS), "--out", PLOT_OUT], None
        if kind == "plot-s":
            s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            argv = ["plot", "--v", fmt(HEADLINE_CLASS), f"--s={s}", "--out", PLOT_OUT]
            return kind, argv, s
        if kind == "euler":
            b = line_bundle(rng.randint(-6, 4)) if rng.random() < 0.5 else twist(RANK_ZERO, rng.randint(-6, 0))
            return kind, ["euler", "--a", fmt(seeded_curve), "--b", fmt(b)], (seeded_curve, b)
        if kind == "bmt":
            beta, alpha2 = _rational(rng, -60, 12, 6), _rational(rng, 1, 80, 4)
            argv = ["bmt", "--v", fmt(seeded_curve), f"--beta={beta}", f"--alpha2={alpha2}"]
            return kind, argv, (seeded_curve, beta, alpha2)
        if kind == "hyperbola":
            beta = _rational(rng, -60, 12, 6)
            return kind, ["hyperbola", "--v", fmt(seeded_curve), f"--beta={beta}"], (seeded_curve, beta)
        if kind == "hyperbola-rank0":
            beta = _rational(rng, -60, 12, 6)
            return kind, ["hyperbola", "--v", fmt(RANK_ZERO), f"--beta={beta}"], None
        if kind == "chern-twist":
            beta = _rational(rng, -60, 12, 6)
            return kind, ["chern", "twist", "--ch", fmt(seeded_curve), f"--beta={beta}"], (seeded_curve, beta)
        if kind == "chern-resolve":
            terms = [(rng.randint(-6, 3), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(2, 4))]
            argv = ["chern", "resolve"] + [f"--term={t}:{n}" for t, n in terms]
            return kind, argv, terms
        raise ValueError(f"unknown request kind {kind!r}")

    def run(self, lib, spec):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.run(spec[1])
        status = "refused" if code == 1 and spec[0] in ("walls-refused", "hyperbola-rank0") else "ok"
        return status, (code, out.getvalue(), err.getvalue())

    def check(self, lib, spec, status, output) -> bool:
        kind, _, expected = spec
        code, out, err = output
        if kind in ("walls-refused", "hyperbola-rank0"):
            return status == "refused" and err.startswith("error: ") and not out
        if code != 0 or err:
            return False
        if kind == "walls-headline-table":
            lines = out.splitlines()
            return [tuple(line.split()) for line in lines[1:]] == HEADLINE_WALLS
        if kind in ("walls-headline-json", "walls-other"):
            total = HEADLINE_CLASS if expected is None else expected
            payload = json.loads(out)
            rows = [(w["center"], w["radius_sq"], w["sub"], w["quotient"]) for w in payload["walls"]]
            if expected is None and rows != HEADLINE_WALLS:
                return False
            return payload["count"] == len(rows) and check_wall_rows(lib, total, rows)
        if kind in ("genus4-text", "genus4-json"):
            return digest(out) == self.reference["genus4"][kind]
        if kind in ("plot", "plot-s"):
            golden = GOLDEN_SVG.read_bytes()
            if kind == "plot-s":
                golden = golden.replace(HEADLINE_CAPTION + b"<", HEADLINE_CAPTION + f", s = {expected}<".encode())
            return out == f"wrote {PLOT_OUT}\n" and (ROOT / PLOT_OUT).read_bytes() == golden
        if kind == "euler":
            return out == f"{euler(*expected)}\n"
        if kind == "bmt":
            ch, beta, alpha2 = expected
            tr, tc, td, te = twist(ch, beta)
            value = alpha2 * discriminant(ch) + 4 * td * td - 6 * tc * te
            return out == f"{value}\n"
        if kind == "hyperbola":
            ch, beta = expected
            value = 2 * (ch[2] - beta * ch[1] + beta * beta / 2 * ch[0]) / ch[0]
            return out == ("none\n" if value <= 0 else f"{value}\n")
        if kind == "chern-twist":
            return out == fmt(twist(*expected)) + "\n"
        if kind == "chern-resolve":
            total = (Fraction(0),) * 4
            for t, n in expected:
                total = tuple(x + n * y for x, y in zip(total, line_bundle(t)))
            return out == fmt(total) + "\n"
        return False

    def digest(self, spec, status, output) -> str:
        code, out, err = output
        text = f"{code}\0{out}\0{err}"
        if spec[0] in ("plot", "plot-s"):
            text += hashlib.sha256((ROOT / PLOT_OUT).read_bytes()).hexdigest()
        return digest(text)


WORKLOADS = {w.name: w for w in (CurveSweep, HigherRank, OracleBox, Headline)}


def import_library():
    """Import the package layers from ``src`` and return them as a namespace."""
    import importlib

    return SimpleNamespace(
        **{
            name: importlib.import_module(f"p3walls.{name}")
            for name in ("chern", "stability", "walls", "genus4", "plotting", "cli")
        }
    )

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from p3walls import genus4, plotting
from p3walls import walls as walls_module
from p3walls.chern import from_resolution, parse_chern
from p3walls.cli import build_parser, run
from p3walls.plotting import build_scene
from p3walls.walls import DEFAULT_REGION, Region

GOLDEN = Path(__file__).parent / "golden"


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chern_twist(capsys):
    code, out, err = invoke(capsys, "chern", "twist", "--ch", "1,0,-6,15", "--beta=-4")
    assert (code, out.strip(), err) == (0, "1,4,2,5/3", "")


def test_chern_dual(capsys):
    code, out, _ = invoke(capsys, "chern", "dual", "--ch", "1,-1,-1/2,11/6")
    assert (code, out.strip()) == (0, "1,1,-1/2,-11/6")


def test_chern_resolve(capsys):
    code, out, _ = invoke(
        capsys, "chern", "resolve", "--term=-2:1", "--term=-3:1", "--term=-5:-1"
    )
    assert (code, out.strip()) == (0, "1,0,-6,15")


def test_euler(capsys):
    code, out, _ = invoke(capsys, "euler", "--a", "0,1,-11/2,79/6", "--b", "1,-1,-1/2,11/6")
    assert (code, out.strip()) == (0, "-18")


def test_walls_table(capsys):
    code, out, err = invoke(capsys, "walls", "--v", "1,0,-6,15")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].split() == ["center", "radius_sq", "sub", "quotient"]
    assert len(lines) == 5
    assert lines[1].split() == ["-13/2", "121/4", "1,-1,1/2", "0,1,-13/2"]
    assert lines[4].split() == ["-4", "4", "1,-2,2", "0,2,-8"]


def test_walls_json(capsys):
    code, out, _ = invoke(capsys, "walls", "--v", "1,0,-6,15", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "p3walls/1"
    assert payload["total"] == "1,0,-6,15"
    assert payload["count"] == 4
    assert payload["region"] == {
        "beta_min": "-12",
        "beta_max": "0",
        "alpha_sq_max": "64",
    }
    assert payload["walls"][0] == {
        "center": "-13/2",
        "radius_sq": "121/4",
        "sub": "1,-1,1/2",
        "quotient": "0,1,-13/2",
        "admissible_top": "beta=-13/2,alpha2=121/4",
    }


def test_walls_brute_force_route(capsys):
    code, out, _ = invoke(
        capsys,
        "walls", "--v", "1,0,-6,15", "--brute-force",
        "--r-max", "3", "--c-max", "12", "--two-d-max", "40",
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["count"] == 4


def test_refused_class_goes_through_brute_force(capsys, monkeypatch):
    # the refusal's advice: the box scan takes no certificate
    def uncertified(ctx):
        raise AssertionError("--brute-force reached the derived search's certificate")

    monkeypatch.setattr(walls_module, "_vacuity_radius_cap", uncertified)
    code, out, err = invoke(
        capsys,
        "walls", "--v", "1,0,-6,0", "--brute-force",
        "--r-max", "2", "--c-max", "8", "--two-d-max", "30",
        "--format", "json",
    )
    assert code == 0 and err == "" and json.loads(out)["count"] == 6


def test_negative_discriminant_thin_box_is_answered_at_once(capsys):
    # the largest accepted thin box: a class with disc(v) < 0 walks none of its rows
    start = time.perf_counter()
    code, out, err = invoke(
        capsys,
        "walls", "--v=1,0,1,0", "--brute-force",
        "--r-max", "49", "--c-max", "5050", "--two-d-max", "0",
    )
    elapsed = time.perf_counter() - start
    assert (code, out.strip(), err) == (0, "(no walls)", "")
    assert elapsed < 0.1


def test_walls_empty(capsys):
    code, out, _ = invoke(capsys, "walls", "--v", "1,0,0,0")
    assert (code, out.strip()) == (0, "(no walls)")


def test_walls_custom_region(capsys):
    code, out, _ = invoke(
        capsys, "walls", "--v", "1,0,-6,15", "--beta-max=-7", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3  # the innermost circle stays right of this window
    assert [w["center"] for w in payload["walls"]] == ["-13/2", "-11/2", "-9/2"]


@pytest.mark.parametrize(
    "bounds",
    [("--r-max=-3",), ("--r-max", "100000", "--c-max", "100000"), ("--r-max=\u0661",),
     ("--r-max=1_0",), ("--r-max=+",),
     # 9,900,099 triples, under MAX_BOX_TRIPLES, but as many rows
     ("--r-max", "49", "--c-max", "50000", "--two-d-max", "0")],
    ids=["negative", "oversized", "non-ascii", "underscore", "sign-only", "thin"],
)
def test_brute_force_box_is_bounded(capsys, bounds):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "walls", "--v", "1,0,-6,15", "--brute-force", *bounds)
    elapsed = time.perf_counter() - start
    assert code == 2 and out == "" and "error" in err
    assert elapsed < 0.1


def test_box_bounds_take_the_integer_grammar(capsys):
    # the grammar of --term: an explicit sign is allowed, a negative value is not
    code, out, _ = invoke(
        capsys,
        "walls", "--v", "1,0,-6,15", "--brute-force",
        "--r-max=+3", "--c-max", "12", "--two-d-max", "40",
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["count"] == 4


def test_brute_force_default_box(capsys):
    code, out, _ = invoke(capsys, "walls", "--v", "1,0,-6,15", "--brute-force")
    assert code == 0 and len(out.splitlines()) == 5


def test_region_defaults_are_the_library_default():
    for command in ("walls", "plot --out x.svg"):
        args = build_parser().parse_args([*command.split(), "--v", "1,0,-6,15"])
        assert Region(args.beta_min, args.beta_max, args.alpha2_max) == DEFAULT_REGION
    assert inspect.signature(build_scene).parameters["region"].default == DEFAULT_REGION
    assert genus4.DEFAULT_REGION == DEFAULT_REGION


def test_unbounded_search_reports_domain_error(capsys):
    code, out, err = invoke(capsys, "walls", "--v", "1,0,-6,0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_hyperbola(capsys):
    code, out, _ = invoke(capsys, "hyperbola", "--v", "1,0,-6,15", "--beta=-9/2")
    assert (code, out.strip()) == (0, "33/4")
    code, out, _ = invoke(capsys, "hyperbola", "--v", "1,0,-6,15", "--beta=-3")
    assert (code, out.strip()) == (0, "none")


def test_hyperbola_rank_zero_is_domain_error(capsys):
    code, out, err = invoke(capsys, "hyperbola", "--v", "0,1,-11/2,79/6", "--beta=-3")
    assert code == 1 and out == "" and err.startswith("error:")


def test_bmt(capsys):
    code, out, _ = invoke(capsys, "bmt", "--v", "1,0,-6,15", "--beta=-4", "--alpha2", "4")
    assert (code, out.strip()) == (0, "24")


def test_genus4_text(capsys):
    code, out, _ = invoke(capsys, "genus4")
    assert code == 0 and out.startswith("total class: 1,0,-6,15")


def test_genus4_json(capsys):
    code, out, _ = invoke(capsys, "genus4", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["schema"] == "p3walls/1"


@pytest.mark.parametrize(
    "argv, name",
    [((), "genus4_report.txt"), (("--format", "json"), "genus4_report.json")],
    ids=["text", "json"],
)
def test_genus4_matches_golden(capsys, argv, name):
    code, out, err = invoke(capsys, "genus4", *argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


WIDE_WINDOW = ("--beta-min=-100", "--beta-max", "100", "--alpha2-max", "10000")

#: Derived-bound searches through every scan: ranks 2 and 3, two negative
#: ranks (searched through the derived dual) and a rank-zero class, over a
#: wide window or the default one.
WALLS_GOLDENS = [
    ("2,0,-50,300", "walls_rank2.json", 125, WIDE_WINDOW),
    ("3,0,-40,200", "walls_rank3.json", 102, WIDE_WINDOW),
    ("-2,-6,-3,19", "walls_rank_minus2.json", 12, WIDE_WINDOW),
    ("-4,9,43/2,69", "walls_rank_minus4.json", 85, ()),
    ("0,6,-9,7", "walls_rank0.json", 20, WIDE_WINDOW),
]


@pytest.mark.parametrize(
    "v, name, count, window", WALLS_GOLDENS, ids=[g[1] for g in WALLS_GOLDENS]
)
def test_walls_match_golden(capsys, v, name, count, window):
    code, out, err = invoke(capsys, "walls", f"--v={v}", "--format", "json", *window)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
    assert json.loads(out)["count"] == count


def test_brute_force_walls_match_golden(capsys):
    # The oracle's box scan of the headline class, pinned as printed.
    box = ("--r-max", "5", "--c-max", "20", "--two-d-max", "100")
    code, out, err = invoke(
        capsys, "walls", "--v", "1,0,-6,15", "--brute-force", *box, "--format", "json"
    )
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "walls_bruteforce_headline.json").read_bytes()
    assert json.loads(out)["count"] == 4


def test_rank_four_brute_force_walls_match_golden(capsys):
    # The oracle's box holds a member of each of the class's 86 walls.
    box = ("--r-max", "5", "--c-max", "20", "--two-d-max", "100")
    code, out, err = invoke(
        capsys, "walls", "--v=4,9,-41/2,44", "--brute-force", *box, "--format", "json"
    )
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "walls_bruteforce_rank4.json").read_bytes()
    assert json.loads(out)["count"] == 86


def test_rank_zero_brute_force_walls_match_golden(capsys):
    # A rank-zero class, where the walker's circle test is a fifth half-line
    # of every row; the golden was printed before that test was added.
    box = ("--r-max", "5", "--c-max", "20", "--two-d-max", "100")
    code, out, err = invoke(
        capsys, "walls", "--v=0,6,-9,7", "--brute-force", *box, "--format", "json"
    )
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "walls_bruteforce_rank0.json").read_bytes()
    assert json.loads(out)["count"] == 20


def test_negative_rank_brute_force_walls_match_golden(capsys):
    # Only the oracle walks the rows of a total of negative rank; the derived
    # search mirrors it through the dual.  Both list the same walls.
    box = ("--r-max", "5", "--c-max", "20", "--two-d-max", "100")
    code, out, err = invoke(
        capsys, "walls", "--v=-4,9,43/2,69", "--brute-force", *box, "--format", "json"
    )
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "walls_bruteforce_rank_minus4.json").read_bytes()
    derived = json.loads((GOLDEN / "walls_rank_minus4.json").read_text())
    assert json.loads(out)["walls"] == derived["walls"]
    assert json.loads(out)["count"] == 85


def test_rank_four_walls_match_golden(capsys):
    # The hull windows of this class hold 77,165,808 triples; the walked
    # windows hold 434.
    start = time.perf_counter()
    code, out, err = invoke(capsys, "walls", "--v=4,9,-41/2,44", "--format", "json")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "walls_rank4.json").read_bytes()
    assert json.loads(out)["count"] == 86
    assert elapsed < 1


def test_malformed_character_is_usage_error(capsys):
    code, out, err = invoke(capsys, "walls", "--v", "1,0,x,15")
    assert code == 2 and out == ""
    assert "invalid rational" in err


def test_wrong_arity_is_usage_error(capsys):
    code, out, err = invoke(capsys, "walls", "--v", "1,0,-6")
    assert code == 2 and "4 comma-separated" in err


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = invoke(capsys, "chern")
    assert code == 2 and "usage" in err


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0 and "walls" in out


@pytest.mark.parametrize("flag", ["--beta-min", "--alpha2-max"])
def test_bad_region_rational_is_usage_error(capsys, flag):
    code, _, err = invoke(capsys, "walls", "--v", "1,0,-6,15", flag, "abc")
    assert code == 2 and "invalid rational" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("hyperbola", "--v", "1,0,-6,15", "--beta=1e2000000"),
        ("bmt", "--v", "1,0,-6,15", "--beta=-4", "--alpha2", "1e3"),
        ("chern", "twist", "--ch", "1,0,-6,15", "--beta=0.5"),
        ("chern", "twist", "--ch", "1,0,-6,15", "--beta=\u0661\u0662"),
        ("walls", "--v=1, 0, -6, 15"),
    ],
    ids=["huge-exponent", "exponent", "decimal", "non-ascii-digits", "spaced-character"],
)
def test_rationals_outside_p_over_q_are_usage_errors(capsys, argv):
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert code == 2 and out == "" and "invalid rational" in err
    assert elapsed < 0.1


@pytest.mark.parametrize(
    "term",
    ["--term=\u0661:1", "--term=1_0:1", "--term= 2:1", "--term=2:\u0661", "--term=1/2:1",
     "--term=4/2:1", "--term=2:-0/5"],
    ids=["non-ascii-twist", "underscore", "space", "non-ascii-coeff", "fraction",
         "integral-fraction", "zero-fraction"],
)
def test_resolution_terms_outside_the_integer_grammar_are_usage_errors(capsys, term):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "chern", "resolve", term)
    elapsed = time.perf_counter() - start
    assert code == 2 and out == "" and "bad term" in err
    assert elapsed < 0.1


def test_resolution_terms_keep_their_values(capsys):
    # every term the headline benchmark sends, plus explicit signs
    for twist in range(-6, 4):
        for coeff in (-2, -1, 1, 2):
            code, out, _ = invoke(capsys, "chern", "resolve", f"--term={twist}:{coeff}")
            assert (code, out.strip()) == (0, str(from_resolution([(twist, coeff)])))
    code, out, _ = invoke(capsys, "chern", "resolve", "--term=-6:-2", "--term=+3:+2")
    assert (code, out.strip()) == (0, "0,18,-27,81")


def test_plot_writes_deterministic_svg(tmp_path, capsys):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    code, out, _ = invoke(capsys, "plot", "--v", "1,0,-6,15", "--out", str(first))
    assert code == 0 and out.strip() == f"wrote {first}"
    code, _, _ = invoke(capsys, "plot", "--v", "1,0,-6,15", "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b'<?xml version="1.0"')


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_appended_terms(capsys):
    code, out, _ = invoke(capsys, "chern", "resolve", "--term=-2:1", "--term=-3:1")
    assert (code, out.strip()) == (0, "2,-5,13/2,-35/6")
    code, out, _ = invoke(capsys, "chern", "resolve", "--term=-5:-1")
    assert (code, out.strip()) == (0, "-1,5,-25/2,125/6")


def test_reused_parser_drops_previous_s(tmp_path, capsys):
    with_s = tmp_path / "with_s.svg"
    without_s = tmp_path / "without_s.svg"
    code, _, _ = invoke(capsys, "plot", "--v", "1,0,-6,15", "--s=1/2", "--out", str(with_s))
    assert code == 0 and b"s = 1/2" in with_s.read_bytes()
    code, _, _ = invoke(capsys, "plot", "--v", "1,0,-6,15", "--out", str(without_s))
    assert code == 0
    assert without_s.read_bytes() == (GOLDEN / "sextic_genus4_walls.svg").read_bytes()


def test_reused_parser_recovers_after_usage_error(capsys):
    code, out, _ = invoke(capsys, "walls", "--v", "1,0,-6,15", "--format", "yaml")
    assert code == 2 and out == ""
    code, out, err = invoke(capsys, "walls", "--v", "1,0,-6,15")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 5
    assert out.splitlines()[4].split() == ["-4", "4", "1,-2,2", "0,2,-8"]


def test_plot_unwritable_path_is_domain_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.svg"
    code, out, err = invoke(capsys, "plot", "--v", "1,0,-6,15", "--out", str(target))
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "window",
    [[f"--beta-max={10**400}"], [f"--alpha2-max={10**400}"], [f"--alpha2-max=1/{10**400}"],
     ["--beta-min", "0", f"--beta-max=1/{10**400}"],
     # a float width that overflows, or whose scale does
     [f"--beta-min=-{10**308}", f"--beta-max={10**308}"],
     ["--beta-min", "0", f"--beta-max=1/{10**320}"]],
    ids=["wide", "tall", "flat", "narrow", "wide-span", "sliver"],
)
def test_plot_window_without_float_image_is_domain_error(tmp_path, capsys, monkeypatch, window):
    def search(*args):
        raise AssertionError("the window is refused before the search")

    monkeypatch.setattr(plotting, "enumerate_tilt_walls", search)
    target = tmp_path / "out.svg"
    code, out, err = invoke(capsys, "plot", "--v", "1,0,-6,15", *window, "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize(
    "v",
    [f"{10**400},0,0,0", str(parse_chern("1,0,-6,15").twist(10**400)),
     str(parse_chern("1,0,-6,15").twist(-5 * 10**306))],
    ids=["huge-rank", "twist-overflows", "twist-scales-to-infinity"],
)
def test_plot_class_without_float_image_is_domain_error(tmp_path, capsys, v):
    target = tmp_path / "out.svg"
    code, out, err = invoke(capsys, "plot", f"--v={v}", "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def _rationals(bound: int, max_denominator: int = 6):
    return st.fractions(-bound, bound, max_denominator=max_denominator).map(str)


@st.composite
def characters(draw) -> str:
    """``r,c,d,e`` with ``|r| <= 6``, ``|c| <= 20`` and ``|2d| <= 200``, now
    and then off the truncation lattice (a domain error); ``e`` is an
    arbitrary rational or one that makes the Euler characteristic with ``O``
    an integer, as for sheaves."""
    r = draw(st.integers(-6, 6))
    c = draw(st.integers(-20, 20))
    two_d = draw(st.integers(-200, 200))
    if draw(st.integers(0, 7)):
        two_d += (two_d - c) % 2 * (1 if two_d < 200 else -1)
    d = Fraction(two_d, 2)
    if draw(st.booleans()):
        e = draw(st.fractions(-500, 500, max_denominator=6))
    else:
        e = draw(st.integers(-200, 200)) - 2 * d - Fraction(11, 6) * c - r
    return f"{r},{c},{d},{e}"


@st.composite
def window_options(draw) -> list[str]:
    """Nothing (the default window), or a window with ``|beta| <= 100`` and
    ``alpha^2 <= 10^4``, empty or of zero height now and then."""
    if draw(st.booleans()):
        return []
    lo = draw(st.integers(-600, 599))  # in sixths
    hi = lo if draw(st.integers(0, 9)) == 0 else draw(st.integers(lo + 1, 600))
    lo, hi = Fraction(lo, 6), Fraction(hi, 6)
    cap = Fraction(draw(st.integers(0, 6 * 10**4)), 6)
    return [f"--beta-min={lo}", f"--beta-max={hi}", f"--alpha2-max={cap}"]


@st.composite
def twisted_characters(draw) -> str:
    """A class of :func:`characters` twisted by ``+-10^k`` for ``k <= 400``:
    entries beyond the float range, but the discriminant, and so the wall
    search, of a small class."""
    beta = draw(st.sampled_from([1, -1])) * 10 ** draw(st.integers(0, 400))
    return str(parse_chern(draw(characters())).twist(beta))


def _extreme_rationals():
    """A rational of ``|x| <= 100``, or ``+-10^k`` or ``+-1/10^k`` for
    ``k <= 400``: beyond the float range, or rounding to zero, past ``k = 308``."""
    powers = st.builds(
        lambda sign, k, reciprocal: f"{sign}1/{10**k}" if reciprocal else f"{sign}{10**k}",
        st.sampled_from(["", "-"]), st.integers(0, 400), st.booleans(),
    )
    return st.one_of(_rationals(100), powers)


@st.composite
def plot_argv(draw) -> list[str]:
    """A plot of a small or a :func:`twisted_characters` class over a window
    of :func:`window_options`, or over one whose given bounds are
    :func:`_extreme_rationals`."""
    if draw(st.booleans()):
        window = draw(window_options())
    else:
        names = [name for name in ("beta-min", "beta-max", "alpha2-max") if draw(st.booleans())]
        window = [f"--{name}={draw(_extreme_rationals())}" for name in names]
    v = draw(st.one_of(characters(), twisted_characters()))
    return ["plot", f"--v={v}", *window, f"--out={os.devnull}"]


@st.composite
def walls_argv(draw) -> list[str]:
    argv = ["walls", f"--v={draw(characters())}", *draw(window_options())]
    if draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(['table', 'json']))}")
    if draw(st.integers(0, 7)) == 0:
        # small boxes run; boxes over MAX_BOX_TRIPLES are refused before the scan
        low, high = draw(st.sampled_from([(0, 16), (300, 10**4)]))
        argv += ["--brute-force", *(
            f"--{name}={draw(st.integers(low, high))}" for name in ("r-max", "c-max", "two-d-max")
        )]
    return argv


def _other_argv():
    ch = characters()
    # huge classes only as twists: a twist keeps the discriminant, which
    # bounds the wall search
    ch_or_twist = st.one_of(ch, twisted_characters())
    return st.one_of(
        st.tuples(st.just("hyperbola"), ch_or_twist.map("--v={}".format),
                  _rationals(100).map("--beta={}".format)),
        st.tuples(st.just("bmt"), ch_or_twist.map("--v={}".format),
                  _rationals(100).map("--beta={}".format),
                  _rationals(10**4).map("--alpha2={}".format)),
        st.tuples(st.just("chern"), st.just("twist"), ch_or_twist.map("--ch={}".format),
                  _rationals(100).map("--beta={}".format)),
        st.tuples(st.just("chern"), st.just("dual"), ch.map("--ch={}".format)),
        st.tuples(st.just("euler"), ch.map("--a={}".format), ch.map("--b={}".format)),
        st.lists(st.tuples(st.integers(-20, 20), st.integers(-5, 5)), min_size=1, max_size=4)
        .map(lambda terms: ("chern", "resolve", *(f"--term={t}:{k}" for t, k in terms))),
        plot_argv(),
    ).map(list)


@st.composite
def cli_argv(draw) -> list[str]:
    """An invocation that follows the CLI grammar, one token of it replaced
    by junk now and then (a usage error)."""
    argv = draw(st.one_of(walls_argv(), walls_argv(), _other_argv()))
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(argv) - 1))
        assume(not argv[at].startswith("--out="))  # "--out=--" would write a file
        flag, sep, _ = argv[at].partition("=")
        junk = draw(st.sampled_from(["1/0", "x", "", "1.5", "--", "1,2"]))
        argv[at] = f"{flag}={junk}" if sep else junk
    return argv


@given(cli_argv())
@example(["walls", "--v=4,9,-41/2,44"])
@example(["bmt", "--v=--", "--beta=0", "--alpha2=1"])
@example(["walls", "--v=1,0,-6,15", "--format=--"])
@example(["chern", "resolve", "--term=-2:1", "--term=--"])
@example(["walls", "--v=5,9,-39/2,98/3", "--format=json"])
@example(["walls", "--v=-5,-2,21,141", "--beta-min=-100", "--beta-max=100",
          "--alpha2-max=10000"])
@example(["plot", "--v=1,0,-6,15", f"--alpha2-max=1/{10**400}", f"--out={os.devnull}"])
@example(["plot", f"--v={10**400},0,0,0", f"--out={os.devnull}"])
@settings(max_examples=200, deadline=None)
def test_every_invocation_exits_with_a_documented_code_in_bounded_time(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), argv
    assert elapsed < 5, argv
    if code:
        assert out.getvalue() == "" and err.getvalue(), argv
    else:
        assert err.getvalue() == "", argv

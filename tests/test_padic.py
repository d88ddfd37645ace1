import ast
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import padic_reference
from padic_reference import factorial_valuation, nu
from period_lab.characters import SenInput
from period_lab.cyclotomic import CyclotomicContext
from period_lab.padic import (
    INF,
    Prime,
    SchemaError,
    centered,
    format_rational,
    lower_hull,
    parse_int,
    parse_number,
    parse_rational,
    rational_valuation,
    residue,
)
from period_lab.padic_poly import poly_newton_polygon
from period_lab.tilt import FqElement, TiltExpr, VflatResult

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "period_lab"


def brute_factorial_valuation(i, p):
    # count factors of p in i! one factor at a time
    count = 0
    for j in range(2, i + 1):
        while j % p == 0:
            j //= p
            count += 1
    return count


def legendre_sum(n, p):
    # independent closed form: sum of floor(n / p^k)
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


def brute_nu(i, p):
    if i >= 0:
        return 0
    n = 0
    while legendre_sum(n, p) < -i:
        n += 1
    return n


def test_prime_validation():
    Prime(2)
    Prime(97)
    with pytest.raises(ValueError):
        Prime(1)
    with pytest.raises(ValueError):
        Prime(91)  # 7 * 13


def test_valuation_examples():
    assert rational_valuation(12, 2) == 2
    assert rational_valuation(0, 5) is INF
    assert rational_valuation(F(10, 9), 3) == -2
    assert type(rational_valuation(F(10, 9), 3)) is F


def test_valuation_arithmetic_properties():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(200):
            x = F(rng.randrange(-50, 51) or 1, rng.randrange(1, 40))
            y = F(rng.randrange(-50, 51) or 1, rng.randrange(1, 40))
            vx, vy = rational_valuation(x, p), rational_valuation(y, p)
            assert rational_valuation(x * y, p) == vx + vy
            vs = rational_valuation(x + y, p)
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)


# -- the residue and centered maps ----------------------------------------------

primes = st.sampled_from([2, 3, 5, 7, 11])
rationals = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**6))


@settings(max_examples=300, deadline=None)
@given(rationals, primes, st.integers(0, 12), st.integers(0, 6))
def test_residue_is_the_class_mod_p_power(x, p, N, k):
    r = residue(x, p, N)
    assert (r is None) == (x.denominator % p == 0)
    if r is None:
        return
    assert 0 <= r < p**N
    assert (x.denominator * r - x.numerator) % p**N == 0
    assert residue(x, p, N + k) % p**N == r


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**30, 10**30), primes, st.integers(0, 12))
def test_centered_is_congruent_and_in_the_half_open_range(x, p, N):
    m = p**N
    c = centered(x, m)
    assert (c - x) % m == 0
    assert -m < 2 * c <= m


def test_modular_inverses_only_in_the_reduction_layers():
    """pow(x, -1, m) appears only in padic (the residue map) and
    padic_poly (the F_p toolkit and Hensel steps): a new reduction of a
    rational goes through ``residue``."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "pow"
                and len(node.args) == 3
                and isinstance(node.args[1], ast.UnaryOp)
                and isinstance(node.args[1].op, ast.USub)
            ):
                found.add(f"{path.name}:{node.lineno}")
    files = {site.split(":")[0] for site in found}
    assert "padic.py" in files  # the guard sees the residue map itself
    assert files <= {"padic.py", "padic_poly.py"}, sorted(found)


def test_no_module_imports_a_name_it_does_not_use():
    """Every name a module of the package imports is read somewhere in
    it, so a change that leaves an import orphaned fails here."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_no_module_imports_a_private_name():
    """What a module of the package takes from another has a public name:
    no ``_name`` is imported from a sibling module or read off one."""
    siblings = {path.stem for path in PACKAGE.glob("*.py")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in siblings:
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.startswith("_")]
    assert not found, found


@pytest.mark.parametrize(
    "module, words",
    [
        # matrices and Q[x]
        ("linalg", r"mod_p|padic|qp_|hensel|newton|valuations|irreducible|prime"),
        # modules, the scan and the verdicts; no polynomial routine
        ("filtered_phi", r"mod_p|padic|hensel|newton|valuations|poly|root|factor|square|irreducible"),
    ],
)
def test_polynomials_mod_p_and_over_qp_live_in_padic_poly(module, words):
    """Neither linalg nor filtered_phi reduces a rational modulo a prime
    power (``residue``, ``centered``) or defines a function that
    padic_poly defines or whose name says it works mod p, over Z_p or
    over Q_p (for filtered_phi, on polynomials at all)."""
    home = {node.name for node in ast.parse((PACKAGE / "padic_poly.py").read_text()).body
            if isinstance(node, ast.FunctionDef)}
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    reductions = sorted({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                        & {"residue", "centered"})
    assert not reductions, reductions
    defined = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert not [n for n in defined if n.lstrip("_") in home or re.search(words, n)]


def test_no_module_imports_dataclasses_or_typing():
    """Every command is one process that imports the package, and
    dataclasses (with the inspect, dis, ast and tokenize it loads), its
    class generation and typing were most of what that import cost.
    ``padic.Record`` gives the immutable values, and annotations need no
    import under ``from __future__ import annotations``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("dataclasses", "typing")]
    assert not found, found


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # -S: no site hooks, since a .pth file can load typing before the
    # import and hide a module of the package that loads it again; the
    # command line is read from cli's own tables, without argparse and the
    # gettext it loads
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, period_lab.cli; "
         "print(*[m for m in ('dataclasses', 'inspect', 'typing', 'argparse', 'gettext') "
         "if m in sys.modules])"],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_records_compare_by_class_and_fields_and_stay_immutable():
    assert Prime(5) == Prime(5) and hash(Prime(5)) == hash(Prime(5))
    assert Prime(5) != Prime(7) and Prime(5) != 5
    assert CyclotomicContext(5, 0) != CyclotomicContext(5, 1)
    a, b = SenInput(3, 1, [[4, 3], [0, 1]]), SenInput(3, 1, [[F(4), F(3)], [F(0), F(1)]])
    assert a == b and hash(a) == hash(b) and a is not b
    assert repr(CyclotomicContext(5, 1)) == "CyclotomicContext(p=5, N=1)"
    with pytest.raises(AttributeError):
        a.level = 2
    with pytest.raises(AttributeError):
        del a.matrix
    assert a.level == 1 and a.matrix == b.matrix
    # TiltExpr is a record too: its checking constructor merges the terms
    x = TiltExpr(3, [(1, 0, 0, FqElement.one(3), 0), (1, 0, 0, FqElement.one(3), 0)])
    y = TiltExpr(Prime(3), [(2, F(0), F(0), FqElement.one(3), 0)])
    assert x == y and hash(x) == hash(y) and x is not y
    assert x != TiltExpr.one(3) and x != TiltExpr(5, x.terms[:0]) and x != x.terms
    with pytest.raises(AttributeError):
        x.terms = ()
    with pytest.raises(AttributeError):
        del x.prime
    assert x.terms == y.terms
    # a record that only stores takes exactly its fields, in slot order
    assert VflatResult([1], True, True, 1).value == 1
    for fields in ((), ([1], True, True), ([1], True, True, 1, None)):
        with pytest.raises(TypeError, match=r"^VflatResult takes the 4 fields \(values, "):
            VflatResult(*fields)


def test_scalar_serialization_roundtrip():
    x = F(-22, 7)
    assert format_rational(x) == "-22/7"
    assert parse_rational(format_rational(x)) == x
    assert format_rational(5) == "5"


def _format_through_fraction(x) -> str:
    """format_rational as it was before it read ints and Fractions as they are."""
    x = F(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.just(0),
    st.just(F(0)),
    st.integers(-10**40, 10**40),
    st.fractions(),
    st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
))
def test_format_rational_matches_the_fraction_formatter(x):
    assert format_rational(x) == _format_through_fraction(x)
    assert format_rational(-x) == _format_through_fraction(-x)


def test_parse_int_takes_integers_and_integer_strings_only():
    assert parse_int(7) == 7 and parse_int("-12", "e") == -12
    for bad in (True, 2.9, 2.0, "2.5", "1/1", None, [1]):
        with pytest.raises(SchemaError, match="'e' must be an integer"):
            parse_int(bad, "e")


@pytest.mark.parametrize("text", ["1_009", "-1_0", " 1_1 ", "+2_2", "1__0", "_1", "1_"])
def test_both_parsers_refuse_an_underscore(text):
    """Python 3.10's int takes "1_009" and its Fraction does not, 3.11's
    takes both: the parsers refuse an underscore on every version."""
    with pytest.raises(SchemaError, match="'e' must be an integer"):
        parse_int(text, "e")
    for literal in (text, text + "/3", text + ".5", text + "e2"):
        with pytest.raises(ValueError, match="^Invalid literal for Fraction: "):
            parse_rational(literal)


@pytest.mark.parametrize("bad", ["1/0", " -3/0 ", True, 1.5, None])
def test_parse_rational_rejects_with_value_error(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def _fraction_parse(text):
    """The string path of parse_rational without its integer shortcut:
    Fraction's parser on the stripped text, a zero denominator reworded,
    and an underscore refused as Python 3.10's parser refuses it."""
    if "_" in text.strip():
        raise ValueError(f"Invalid literal for Fraction: {text.strip()!r}")
    try:
        return F(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# pieces of rational literals and of near misses: signs, spaces (ASCII and
# not), underscores, non-ASCII digits, fractions, decimals, exponents, junk
_LITERAL_PIECES = st.sampled_from(
    ["", "+", "-", "--", " ", "\t", "\u00a0", "\u2003", "_", "1_000", "0", "7", "12", "007",
     "\u0661\u0662", "\uff13", "\u00b2", "/", "/3", "/0", "1/0", ".", ".5", "2.", "e", "E-2",
     "e+3", "x", "abc", "nan", "inf", "0x1f", "\n"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_LITERAL_PIECES, st.integers(-10**30, 10**30).map(str)), max_size=4).map("".join))
@example("-" + "9" * 4301)
@example(" +" + "1" * 4301 + " ")
def test_parse_rational_matches_the_fraction_parser(text):
    # Fraction's parser expands an exponent to 10^exponent digits (past
    # 4,300 digits parse_rational refuses first, tested below)
    assume(not re.search(r"[eE][-+]?[\d_]{4}", text))
    try:
        want = _fraction_parse(text)
    except ValueError as error:
        with pytest.raises(ValueError) as got:
            parse_rational(text)
        assert str(got.value) == str(error)
    else:
        got = parse_rational(text)
        assert got == want and type(got) is F


# ASCII "n/d" literals, the shape parse_number reads without Fraction's
# parser: signs, leading zeros, zero numerators and denominators, spaces
_SLASHED = st.builds(
    "{}{}{}{}/{}{}".format,
    st.sampled_from(["", " ", "\t", "\u00a0"]),
    st.sampled_from(["", "+", "-"]),
    st.sampled_from(["", "0", "00"]),
    st.integers(0, 10**30).map(str),
    st.one_of(st.integers(0, 10**30).map(str), st.sampled_from(["0", "00", "007", "1"])),
    st.sampled_from(["", " ", "\n"]),
)


@settings(max_examples=400, deadline=None)
@given(_SLASHED)
@example("-0/5")
@example(" +007/010 ")
@example("-" + "9" * 4301 + "/3")
@example("1/" + "9" * 4301)
@example("1/0")
@example("-3/000")
@example("1_0/3")
@example("\u0661/\u0662")
@example("3/\u00b2")
@example("1/2/3")
@example("/3")
@example("3/")
def test_parse_number_reads_n_over_d_as_the_fraction_parser(text):
    """The n/d shortcut gives Fraction's value, and any string it passes
    on (a zero denominator, an underscore, a non-ASCII digit, which
    Fraction reads) gets that parser's value or message."""
    try:
        want = _fraction_parse(text)
    except ValueError as error:
        with pytest.raises(ValueError) as got:
            parse_number(text)
        assert str(got.value) == str(error)
    else:
        got = parse_number(text)
        assert got == want and type(got) is F


def _nearby_points():
    """Rational points from a small grid, so that abscissas repeat and
    runs of points are collinear."""
    coordinate = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))
    return st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=25)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _nearby_points(),
    _nearby_points().map(lambda pts: [(F(x.numerator), y) for x, y in pts]),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=12),
    st.tuples(st.fractions(), st.fractions()).map(lambda pt: [pt]),
    st.lists(st.integers(-4, 4), min_size=1, max_size=9).map(
        lambda xs: [(x, 2 * x + 1) for x in xs] + [(F(1, 2), F(2))]),
))
def test_lower_hull_matches_the_fraction_chain(points):
    """The chain on integers gives the Fraction chain's vertices, as
    Fraction pairs, on points with repeated abscissas, duplicates,
    collinear runs and single points."""
    got = lower_hull(points)
    assert got == padic_reference.lower_hull(points)
    assert all(type(x) is F and type(y) is F for x, y in got)
    assert lower_hull(points + points[:3]) == got


def test_exponent_literals_are_refused_past_the_digit_cap():
    assert parse_rational("2.5e-3") == F(1, 400)
    assert parse_rational("1e3") == 1000
    assert parse_rational(" 1E+4299") == 10**4299  # 4,300 digits
    for text in ("1e3000000", "1e4300", "-2.5e-4299", "1e1_000_000", "7e" + "9" * 5000):
        with pytest.raises(ValueError) as err:
            parse_rational(text)
        assert repr(text) in str(err.value) and "4,300-digit cap" in str(err.value)


def test_factorial_valuation_examples():
    assert factorial_valuation(10, 3) == 4
    assert factorial_valuation(0, 7) == 0
    for p in (2, 3, 5, 7):
        assert factorial_valuation(p, p) == 1


def test_factorial_valuation_against_brute_force():
    for p in (2, 3, 5, 7):
        for i in range(0, 2001, 7):
            assert factorial_valuation(i, p) == brute_factorial_valuation(i, p)
        # and densely on a small prefix
        for i in range(120):
            assert factorial_valuation(i, p) == brute_factorial_valuation(i, p)


def test_nu_examples():
    assert nu(3, 5) == 0
    assert nu(-1, 2) == 2
    assert nu(-2, 3) == 6


def test_nu_against_scan():
    for p in (2, 3, 5):
        for i in range(0, -60, -1):
            assert nu(i, p) == brute_nu(i, p)


def test_nu_bracket():
    # -i (p-1) <= nu(i), with overshoot at most logarithmic
    import math

    for p in (2, 3, 5):
        for i in range(-1, -10_001, -97):
            n = nu(i, p)
            lower = -i * (p - 1)
            assert lower <= n
            slack = (p - 1) * (math.ceil(math.log(-i * (p - 1) + 1, p)) + 1)
            assert n <= lower + slack, (p, i, n)


def test_nu_is_fast_at_large_inputs():
    # a binary search on v_p(n!): a linear scan needs minutes for i = -10^9
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", "from padic_reference import nu; print(nu(-10**9, 2))"],
        capture_output=True, text=True, timeout=2,
        env={**os.environ, "PYTHONPATH": str(tests)},
    )
    assert proc.returncode == 0, proc.stderr
    n = int(proc.stdout)
    assert factorial_valuation(n, 2) >= 10**9 > factorial_valuation(n - 1, 2)


def test_poly_newton_polygon_examples():
    assert poly_newton_polygon([(0, 3), (1, 1), (2, 0)]) == [(F(-2), 1), (F(-1), 1)]
    assert poly_newton_polygon([(0, 0), (1, 0)]) == [(F(0), 1)]
    # a zero coefficient (INF) is skipped; collinear points make one segment
    assert poly_newton_polygon([(0, 2), (1, INF), (2, 0)]) == [(F(-1), 2)]
    assert poly_newton_polygon([(0, 2), (1, 1), (2, 0)]) == [(F(-1), 2)]


def test_poly_newton_polygon_normal_form_slope():
    # char poly of the two-by-two normal form with v(b) < 0 has a slope
    # strictly below r (an eigenvalue of small valuation)
    r, s, vb = 1, 3, -2
    slopes = [slope for slope, _ in poly_newton_polygon([(0, r + s), (1, r + vb), (2, 0)])]
    assert min(-slope for slope in slopes) < r


def test_poly_newton_polygon_monomial_shift_invariance():
    rng = random.Random(5)
    for _ in range(50):
        deg = rng.randrange(1, 6)
        vals = [(i, F(rng.randrange(0, 12))) for i in range(deg + 1)]
        base = poly_newton_polygon(vals)
        shift = rng.randrange(1, 4)
        shifted = poly_newton_polygon([(i + shift, v) for i, v in vals])
        assert base == shifted


def test_poly_profile_rejects_bad_input():
    # no finite point, no polygon
    with pytest.raises(ValueError):
        poly_newton_polygon([])
    with pytest.raises(ValueError):
        poly_newton_polygon([(0, INF), (1, INF)])


def test_fresh_import_leaves_nothing_pinned():
    # a typing alias such as Union[Fraction, _Infinity] is memoized in
    # typing's cache, which then keeps the classes (and through their
    # methods the module globals) of every import of padic alive
    import gc
    import importlib
    import sys
    import weakref

    def drop():
        for name in [n for n in sys.modules if n.split(".")[0] == "period_lab"]:
            del sys.modules[name]

    saved = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "period_lab"}
    try:
        drop()
        importlib.import_module("period_lab.cli")
        old = sys.modules["period_lab.padic"]
        refs = [weakref.ref(old), weakref.ref(old._Infinity)]
        del old
        drop()
        importlib.import_module("period_lab.cli")
        gc.collect()
        assert [r() for r in refs] == [None, None]
    finally:
        drop()
        sys.modules.update(saved)

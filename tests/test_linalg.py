import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from functools import lru_cache
from math import gcd, lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import admissibility_reference
import linalg_reference as ref
import period_lab
import sen_reference
from period_lab import filtered_phi
from period_lab.filtered_phi import FilteredPhiModule, _matrix_inverse
from period_lab.linalg import (
    CERTIFYING_PRIMES,
    BaseFieldK,
    _monic_integer,
    char_poly,
    clear_denominators,
    det,
    extend_echelon,
    factor_over_q,
    integer_kernel,
    intersect_rowspaces,
    is_squarefree,
    mat_mul,
    nullspace,
    poly_eval_matrix,
    rank,
    rational_roots,
    restrict_scalars,
    restricted_kernel,
    rref,
    squarefree_certificate,
)
from period_lab.padic import rational_valuation
from period_lab.padic_poly import (
    hensel_integer_roots,
    is_squarefree_mod_p,
    poly_eval,
    poly_trim,
    roots_mod_p,
)

# ---------------------------------------------------------------------------
# oracle: the rational root theorem by trial division, deflating as roots
# are found (the search rational_roots replaced; its order is the contract)
# ---------------------------------------------------------------------------


def _divisors(n):
    n = abs(n)
    return sorted(d for k in range(1, int(n**0.5) + 2) if n % k == 0 for d in (k, n // k))


def _eval(ai, x):
    acc = F(0)
    for c in reversed(ai):
        acc = acc * x + c
    return acc


def _find_root(ai):
    for q in _divisors(ai[-1]):
        for num in _divisors(ai[0]):
            for sign in (1, -1):
                if _eval(ai, F(sign * num, q)) == 0:
                    return F(sign * num, q)
    return None


def _deflate(ai, root):
    out, acc = [], F(0)
    for c in reversed(ai[1:]):
        acc = acc * root + c
        out.append(acc)
    out.reverse()
    m = lcm(*[c.denominator for c in out])
    return [int(c * m) for c in out]


def trial_division_roots(coeffs):
    a = [F(c) for c in coeffs]
    while a[-1] == 0:
        a.pop()
    roots = []
    while a[0] == 0:
        roots.append(F(0))
        a = a[1:]
    m = lcm(*[c.denominator for c in a])
    ai = [int(c * m) for c in a]
    while len(ai) > 1:
        root = _find_root(ai)
        if root is None:
            break
        roots.append(root)
        ai = _deflate(ai, root)
    return roots


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# a polynomial with known rational roots (repeats allowed), a factor that
# may have none, and a non-monic lead
rational_root = st.builds(
    F, st.integers(-12, 12), st.integers(1, 6)
)
polynomials = st.builds(
    lambda roots, extra, lead: [
        c * lead
        for c in _product([[-r, F(1)] for r in roots] + [extra])
    ],
    st.lists(rational_root, max_size=5),
    st.lists(st.integers(-9, 9).map(F), min_size=1, max_size=4).filter(lambda c: c[-1] != 0),
    st.sampled_from([F(1), F(-1), F(2), F(-6), F(35, 4), F(1, 9)]),
)


def _product(factors):
    out = [F(1)]
    for f in factors:
        out = poly_mul(out, f)
    return out


def _order_key(x):
    return (x != 0, x.denominator, abs(x.numerator), x < 0)


@settings(max_examples=100, deadline=None)
@given(polynomials)
def test_rational_roots_match_trial_division(coeffs):
    assert rational_roots(coeffs) == trial_division_roots(coeffs)


@settings(max_examples=100, deadline=None)
@given(polynomials)
def test_rational_roots_match_sympy(coeffs):
    x = sympy.Symbol("x")
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x
    )
    expected = []
    for root, mult in sympy.roots(poly, filter="Q").items():
        expected.extend([F(int(root.p), int(root.q))] * mult)
    got = rational_roots(coeffs)
    assert sorted(got) == sorted(expected)
    assert got == sorted(got, key=_order_key)


def test_rational_roots_edge_cases():
    assert rational_roots([F(5)]) == []
    assert rational_roots([0, 0, 1]) == [0, 0]
    assert rational_roots([F(-1, 4), 0, 1]) == [F(1, 2), F(-1, 2)]
    with pytest.raises(ValueError):
        rational_roots([0, 0])


def test_rational_roots_of_large_coefficients():
    big = 1234567890123456789013
    coeffs = _product([[-big, 1], [-1, 1], [-2, 1], [F(3, big), 1]])
    assert rational_roots(coeffs) == [F(1), F(2), F(big), F(-3, big)]


def test_rational_roots_when_every_small_prime_merges_two_roots():
    # 29# = 2 * 3 * 5 * ... * 29: the roots 3 and 3 + 29# meet mod every
    # prime below 30, so the roots are lifted mod a power of 31
    primorial = 6469693230
    coeffs = _product([[-3, 1], [-3 - primorial, 1], [5, 1], [1, 1, 1]])
    ints = [int(c) for c in coeffs]
    assert not any(is_squarefree_mod_p(ints, ell) for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
    assert is_squarefree_mod_p(ints, 31)
    expected = [F(3), F(-5), F(3 + primorial)]
    assert rational_roots(coeffs) == trial_division_roots(coeffs) == expected
    x = sympy.Symbol("x")
    poly = sympy.Poly(ints[::-1], x)
    assert sorted(sympy.roots(poly, filter="Q")) == sorted(expected)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
    st.sampled_from([1, -1, 2, 6, 35]),
    st.sampled_from([2, 3, 5, 7, 13, 31]),
    st.integers(1, 12),
)
def test_hensel_lifts_at_every_prime_the_squarefree_test_accepts(coeffs, lead, p, precision):
    f = coeffs + [lead]
    assume(is_squarefree_mod_p(f, p))
    assert hensel_integer_roots(f, p, precision) is not None


PRIMORIAL_29 = 6469693230  # 2 * 3 * 5 * ... * 29


@st.composite
def certificate_cases(draw):
    """Rational polynomials for the squarefree certificate: random ones,
    ones with a repeated root, ones with two roots 29# apart (so every
    prime of CERTIFYING_PRIMES divides the discriminant), each with a
    leading coefficient that small primes may divide."""
    kind = draw(st.sampled_from(["random", "repeated", "primorial"]))
    lead = draw(st.sampled_from([1, -1, 2, 6, 30, -210, 667, PRIMORIAL_29]))
    small = st.integers(-30, 30)
    if kind == "random":
        coeffs = draw(st.lists(st.builds(F, small, st.integers(1, 4)), min_size=1, max_size=7))
        return coeffs + [F(lead)]
    roots = draw(st.lists(st.builds(F, small, st.sampled_from([1, 1, 2, 3])), min_size=1, max_size=4))
    if kind == "repeated":
        roots.append(draw(st.sampled_from(roots)))
    else:
        roots.append(roots[0] + PRIMORIAL_29)
    extra = draw(st.sampled_from([[], [1, 0, 1], [-2, 0, 1], [3, 1, 1]]))
    factors = [[-r, 1] for r in roots] + ([[F(c) for c in extra]] if extra else [])
    return [lead * c for c in _product(factors)]


def _sympy_poly(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      sympy.Symbol("x"))


def _sympy_rational_roots(coeffs):
    out = []
    for root, mult in sympy.roots(_sympy_poly(coeffs), filter="Q").items():
        out.extend([F(int(root.p), int(root.q))] * mult)
    return sorted(out)


@settings(max_examples=150, deadline=None)
@given(certificate_cases())
def test_squarefree_certificate_agrees_with_the_exact_gcd(a):
    ell = squarefree_certificate(a)
    exact = is_squarefree(a)
    assert exact == (_sympy_poly(a).discriminant() != 0)
    if a[0]:
        # the monic integer form is certified exactly at the primes that
        # do not divide its discriminant, and the least of them is taken
        g = _monic_integer(a)[0]
        disc = int(_sympy_poly([F(c) for c in g]).discriminant())
        assert ell == next((q for q in CERTIFYING_PRIMES if disc % q), None)
    else:
        assert ell is None
    if ell is not None:
        assert exact
    roots = rational_roots(a, ell)
    assert roots == rational_roots(a)
    assert sorted(roots) == _sympy_rational_roots(a)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=4, unique=True),
       st.sampled_from([1, 2, 6, 30]))
def test_roots_29_primorial_apart_need_the_exact_gcd(roots, lead):
    # r and r + 29# meet mod every prime below 30, so no prime certifies
    roots = roots + [roots[0] + PRIMORIAL_29]
    a = [lead * c for c in _product([[-r, 1] for r in roots])]
    assert squarefree_certificate(a) is None
    assert is_squarefree(a)
    assert sorted(rational_roots(a)) == _sympy_rational_roots(a) == sorted(map(F, roots))


# ---------------------------------------------------------------------------
# induced Hodge numbers against the Zassenhaus intersection of the
# restricted rows (the reference takes its ranks over K)
# ---------------------------------------------------------------------------


def random_module(rng, e):
    p = rng.choice([2, 3, 5])
    base = BaseFieldK(p, [-p] + [0] * (e - 1) + [1])
    d = rng.randrange(2, 5)
    while True:
        frob = [[F(rng.randrange(-4, 5)) for _ in range(d)] for _ in range(d)]
        basis = [[[rng.randrange(-3, 4) for _ in range(e)] for _ in range(d)] for _ in range(d)]
        if rank(frob) == d and ref.rank([[ref.KElement(base, x) for x in v] for v in basis]) == d:
            break
    cuts = sorted(rng.sample(range(1, d), rng.randrange(0, d - 1)))
    jumps = sorted(rng.sample(range(-3, 4), len(cuts) + 1))
    steps = [(jumps[0], basis)] + [(j, basis[c:]) for j, c in zip(jumps[1:], cuts)]
    return FilteredPhiModule(base, frob, steps)


def zassenhaus_hodge_number(D, rows):
    E, e = D.base.eisenstein, D.base.e
    W = restrict_scalars([[(x,) for x in r] for r in rows], E)
    dims = [
        rank(intersect_rowspaces(W, restrict_scalars(vecs, E))) // e
        for _, vecs in D.filtration
    ] + [0]
    return sum(j * (dims[i] - dims[i + 1]) for i, (j, _) in enumerate(D.filtration))


@pytest.mark.parametrize("e", [1, 2, 3])
def test_induced_hodge_number_matches_zassenhaus(e):
    rng = random.Random(e)
    for _ in range(25):
        D = random_module(rng, e)
        for _ in range(4):
            rows = [
                [F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(D.dim)]
                for _ in range(rng.randrange(1, D.dim + 1))
            ]
            dims = admissibility_reference.intersection_dims(D, rows)
            assert D.induced_hodge_number(dims) == zassenhaus_hodge_number(D, rows)


# ---------------------------------------------------------------------------
# the integer factorization of the Frobenius against the Fraction pipeline
# it replaced (admissibility_reference, the parent's word for word)
# ---------------------------------------------------------------------------

# eigenvalues of admissibility seed 23 phimod-49, a direct sum of a rank-2
# block (-7, 24) and four rank-1 pieces: every prime of CERTIFYING_PRIMES
# divides a difference of two of them, so no prime <= 29 certifies it
UNCERTIFIED = (-7, 24, -90, 11, 48, -126)


@st.composite
def frobenius_draws(draw):
    """(p, Frobenius, kind) with Frobenius = P diag(blocks) P^-1: rank 3
    to 7; rational eigenvalues with integer or rational values (so the
    monic integer form has lead > 1, and ordering the roots by x differs
    from ordering them by y = lead x), a repeated one, or an irreducible
    quadratic, cubic or quartic block; P with entries of up to 256 bits,
    or the direct-sum shape of seed 23 phimod-49 (a conjugated rank-2
    block beside rank-1 pieces) with the eigenvalues of ``UNCERTIFIED``
    scaled by a rational unit."""
    kind = draw(st.sampled_from(["integer", "rational", "repeated", "block", "uncertified"]))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    bits = draw(st.sampled_from([2, 16, 256]))
    # entries of about ``bits`` bits, or zero
    entry = st.one_of(st.just(0), st.integers(2 ** (bits - 1), 2**bits),
                      st.integers(-(2**bits), -(2 ** (bits - 1))))
    if kind == "uncertified":
        scale = draw(st.builds(F, st.sampled_from([1, -1, 5, 7]), st.sampled_from([1, 1, 2, 9])))
        lam = [scale * x for x in UNCERTIFIED]
        while True:
            P2 = draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2))
            if P2[0][0] * P2[1][1] != P2[0][1] * P2[1][0]:
                break
        P2 = [[F(x) for x in row] for row in P2]
        top = mat_mul(mat_mul(P2, [[lam[0], 0], [0, lam[1]]]), _matrix_inverse(P2))
        n = len(lam)
        frob = [[F(0)] * n for _ in range(n)]
        for i in range(2):
            frob[i][:2] = top[i]
        for i in range(2, n):
            frob[i][i] = lam[i]
        return p, frob, kind
    n = draw(st.integers(3, 7))
    den = st.sampled_from([1]) if kind == "integer" else st.sampled_from([1, 1, 2, 3, 4, 6, 9])
    value = st.builds(F, st.integers(-40, 40).filter(bool), den)
    blocks = []
    if kind == "block":
        # x^2 - c, x^3 - c or x^4 - c, none of them with a rational root
        k = draw(st.integers(2, min(4, n)))
        c = draw(st.sampled_from([2, 3, -5, 6, 7, 10]))
        blocks.append([[F(0)] * (k - 1) + [F(c)]] + [[F(int(i == j)) for j in range(k)] for i in range(k - 1)])
    roots = draw(st.lists(value, min_size=n - sum(map(len, blocks)), max_size=n - sum(map(len, blocks)),
                          unique=True))
    if kind == "repeated" and len(roots) > 1:
        roots[-1] = roots[0]
    blocks += [[[x]] for x in roots]
    B = [[F(0)] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            B[at + i][at:at + len(row)] = row
        at += len(block)
    while True:
        P = [[F(x) for x in row] for row in
             draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))]
        if rank(P) == n:
            break
    return p, mat_mul(mat_mul(P, B), _matrix_inverse(P)), kind


@settings(max_examples=100, deadline=None)
@given(frobenius_draws())
def test_the_integer_factorization_matches_the_fraction_pipeline(draw):
    """char_poly, squarefree_certificate, factor_over_q, the primary
    components and their t_N against the parent's pipeline: the same
    characteristic polynomial and squarefree verdict, the same factors in
    the same order (each a factor h in y = lead x, read as the monic
    h(lead x) / lead^k), the same integer kernels and the same t_N."""
    p, frob, kind = draw
    n = len(frob)
    D = FilteredPhiModule(BaseFieldK.qp(p), frob, [(0, [[int(i == j) for j in range(n)] for i in range(n)])])
    B, den = D._frobenius_cleared
    cp, want_cp = D.frobenius_char_poly, admissibility_reference.char_poly(frob)
    assert cp == want_cp
    ell = squarefree_certificate(cp)
    squarefree = ell is not None or is_squarefree(cp)
    assert squarefree == (squarefree_certificate(want_cp) is not None or is_squarefree(want_cp))
    assert squarefree == (kind != "repeated")
    if kind == "uncertified":
        assert ell is None
    if not squarefree:
        return
    got, want = factor_over_q(cp, ell), admissibility_reference.factor_over_q(want_cp, ell)
    assert (got is None) == (want is None)
    if want is None:
        assert kind == "block"  # a quartic block: no rational root, degree 4
        return
    lead, factors = got
    assert all(type(c) is int for h in factors for c in h)
    assert [[F(c, lead ** (len(h) - 1 - i)) for i, c in enumerate(h)] for h in factors] == want
    components, newton = filtered_phi._primary_components(D, lead, factors)
    assert components == [
        integer_kernel(admissibility_reference.poly_eval_cleared(f, B, den)[0]) for f in want
    ]
    assert newton == [int(rational_valuation(f[0], p)) for f in want]


# ---------------------------------------------------------------------------
# bounded work on large entries
# ---------------------------------------------------------------------------


def test_large_entries_decide_within_budget(tmp_path):
    # trial division would run to the square root of 1.2e21
    module = {
        "p": 3,
        "eisenstein": [-3, 1],
        "dim": 3,
        "frobenius": [["1234567890123456789013", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]],
        "filtration": [
            {"jump": 0, "basis": [[["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]], [["0"], ["0"], ["1"]]]}
        ],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(module))
    src = str(Path(period_lab.__file__).resolve().parents[1])
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from period_lab.cli import main; sys.exit(main(sys.argv[1:]))",
         "phimod", "--input", str(path)],
        capture_output=True, text=True, timeout=2, env={"PYTHONPATH": src},
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verdict"]["status"] == "admissible"


# ---------------------------------------------------------------------------
# characteristic polynomials in ints against sympy
# ---------------------------------------------------------------------------


def sympy_char_poly(A):
    M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in A])
    coeffs = M.charpoly(sympy.Symbol("x")).all_coeffs()
    return [F(int(c.p), int(c.q)) for c in reversed(coeffs)]


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 6))
    entry = st.builds(F, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 4, 7, 9, 12]))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_char_poly_matches_sympy(A):
    got = char_poly(A)
    assert got == sympy_char_poly(A)
    assert all(type(c) is F for c in got)
    assert det(A) == got[0] * (-1) ** len(A)


def test_char_poly_of_int_and_phimod_matrices():
    assert char_poly([[1, 2], [3, 4]]) == [F(-2), F(-5), F(1)]
    assert char_poly([]) == [F(1)]
    rng = random.Random(11)
    modules = [random_module(rng, 1) for _ in range(20)]
    # the D1 repro: companion of x^2 + x + 9, plus the eigenvalue 2
    modules.append(FilteredPhiModule.from_json({
        "p": 3, "eisenstein": [-3, 1],
        "frobenius": [["0", "-9", "0"], ["1", "-1", "0"], ["0", "0", "2"]],
        "filtration": [{"jump": 0, "basis": [[["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]], [["0"], ["0"], ["1"]]]}],
    }))
    for D in modules:
        expected = sympy_char_poly(D.frobenius)
        assert D.frobenius_char_poly == expected
        assert D.frobenius_det == det(D.frobenius)


def test_int_matrices_stay_int():
    A = [[1, 2], [3, 4]]
    assert mat_mul(A, A) == [[7, 10], [15, 22]]
    assert all(type(x) is int for row in mat_mul(A, A) for x in row)
    assert all(type(x) is F for row in mat_mul(A, [[F(1), F(0)], [F(0), F(1)]]) for x in row)


def test_rref_and_nullspace_of_int_rows_as_of_fraction_rows():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n + 1)] for _ in range(n)]
        as_fractions = [[F(x) for x in row] for row in rows]
        for fn in (rref, nullspace):
            got, want = fn(rows), fn(as_fractions)
            assert got == want
            assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# roots mod p by Cantor-Zassenhaus, against a scan of every residue
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
# below 128 roots_mod_p is the scan itself; 131 and 1009 reach the splitting
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 101, 131, 1009]), st.lists(st.integers(0, 10**6), min_size=1, max_size=9))
def test_roots_mod_p_match_scan(p, coeffs):
    f = poly_trim(c % p for c in coeffs)
    assume(f)
    assert roots_mod_p(f, p) == [r for r in range(p) if poly_eval(f, r) % p == 0]


@settings(max_examples=100, deadline=None)
@given(polynomials, st.sampled_from([2, 3, 5, 7, 13]), st.integers(0, 12))
def test_hensel_integer_roots_match_residue_scan(coeffs, p, precision):
    assert hensel_integer_roots(coeffs, p, precision) == sen_reference.hensel_integer_roots(
        coeffs, p, precision
    )


def test_sen_with_a_large_prime_finishes(tmp_path):
    # a scan of every residue mod p = 10^9 + 7 would take minutes
    path = tmp_path / "sen.json"
    path.write_text(json.dumps({"p": 10**9 + 7, "matrix": [[str(10**9 + 8), "0"], ["0", "1"]], "precision": 5}))
    src = str(Path(period_lab.__file__).resolve().parents[1])
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from period_lab.cli import main; sys.exit(main(sys.argv[1:]))",
         "sen", "--input", str(path)],
        capture_output=True, text=True, timeout=2, env={"PYTHONPATH": src},
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["operator"]["precision"] == 4
    assert report["hodge_tate"]["status"] == "hodge-tate"


# ---------------------------------------------------------------------------
# arithmetic over a ramified K, against sympy
# ---------------------------------------------------------------------------


@st.composite
def eisenstein_fields(draw, degrees=(2, 3, 4)):
    p = draw(st.sampled_from([2, 3, 5]))
    e = draw(st.sampled_from(degrees))
    unit = draw(st.integers(-4, 4).filter(lambda u: u % p))
    middle = [p * draw(st.integers(-2, 2)) for _ in range(e - 1)]
    return BaseFieldK(p, [p * unit] + middle + [1])


def k_elements(field, nonzero=False):
    coord = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    elements = st.lists(coord, min_size=field.e, max_size=field.e).map(lambda c: ref.KElement(field, c))
    return elements.filter(bool) if nonzero else elements


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_k_inverse_and_division_match_sympy(data):
    K = data.draw(eisenstein_fields())
    x, y = data.draw(k_elements(K, nonzero=True)), data.draw(k_elements(K, nonzero=True))
    s = sympy.Symbol("s")
    E = sympy.Poly(K.eisenstein[::-1], s)
    xs = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in x.coords[::-1]], s)
    expected = [F(int(c.p), int(c.q)) for c in sympy.invert(xs, E).all_coeffs()[::-1]]
    inv = x.inverse()
    assert list(inv.coords) == expected
    assert F(1) / x == inv
    assert (x / y) * y == x
    assert x * inv == 1


def _restriction_of_scalars(K, rows):
    """The Q-rows of the K-span of rows: v pi^j for j < e, each entry
    written in the basis 1, pi, ..., pi^(e-1)."""
    out = []
    for v in rows:
        for j in range(K.e):
            pi_j = ref.KElement(K, [0] * j + [1])
            row = []
            for x in v:
                c = list((x * pi_j).coords)
                row.extend(c + [F(0)] * (K.e - len(c)))
            out.append(row)
    return out


# ---------------------------------------------------------------------------
# the fraction-free elimination against the Fraction one it replaced and
# against sympy
# ---------------------------------------------------------------------------


def same(got, want):
    """Equal values and equal entry types (repr shows Fraction against
    int)."""
    assert got == want
    assert repr(got) == repr(want)


@st.composite
def degenerate(draw, rows, m, zero):
    """rows with some rows and columns zeroed and some rows replaced by
    combinations of others, so the rank drops."""
    n = len(rows)
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        rows[i] = [zero] * m
    for j in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        for row in rows:
            row[j] = zero
    for target in draw(st.sets(st.integers(0, n - 1), max_size=n // 2)):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        ca, cb = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[target] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
    return rows


@st.composite
def q_matrices(draw, max_size=7, square=False):
    """Int, Fraction or mixed matrices up to max_size x max_size."""
    n = draw(st.integers(1, max_size))
    m = n if square else draw(st.integers(1, max_size))
    ints = st.one_of(st.integers(-9, 9), st.integers(-10**12, 10**12))
    fractions = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
    kind = draw(st.sampled_from(["int", "fraction", "mixed"]))
    entry = {"int": ints, "fraction": fractions, "mixed": st.one_of(ints, fractions)}[kind]
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    if square:
        return rows
    return draw(degenerate(rows, m, 0 if kind == "int" else F(0)))


def to_sympy(A):
    return sympy.Matrix([[sympy.Rational(F(x).numerator, F(x).denominator) for x in row] for row in A])


def from_sympy(v):
    return [F(int(x.p), int(x.q)) for x in v]


@settings(max_examples=150, deadline=None)
@given(q_matrices())
def test_rref_rank_nullspace_match_reference_and_sympy(A):
    got = rref(A)
    same(got, ref.rref(A))
    same(nullspace(A), ref.nullspace(A))
    assert rank(A) == ref.rank(A)
    # an echelon grown in two parts has the rank of all the rows
    ints = clear_denominators(A)[0]
    half = len(ints) // 2
    assert len(extend_echelon(extend_echelon([], ints[:half]), ints[half:])) == rank(A)
    R, pivots = to_sympy(A).rref()
    assert got[1] == list(pivots)
    assert got[0] == [from_sympy(R.row(i)) for i in range(len(pivots))]
    assert rank(A) == to_sympy(A).rank()
    assert nullspace(A) == [from_sympy(v) for v in to_sympy(A).nullspace()]


@settings(max_examples=150, deadline=None)
@given(q_matrices())
def test_integer_kernel_normalizes_to_the_reference_and_sympy(A):
    basis, free = integer_kernel(A)
    want = ref.nullspace(A)
    assert len(basis) == len(free) == len(want)
    for v, c in zip(basis, free):
        # primitive, positive at its free column, zero at the others
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1 and v[c] > 0
        assert all(v[f] == 0 for f in free if f != c)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)
    normalized = [[F(x, v[c]) for x in v] for v, c in zip(basis, free)]
    assert normalized == want
    assert normalized == [from_sympy(v) for v in to_sympy(A).nullspace()]


@settings(max_examples=100, deadline=None)
@given(q_matrices(square=True), st.lists(st.builds(F, st.integers(-20, 20), st.integers(1, 6)), max_size=8))
def test_poly_eval_matrix_matches_reference(A, coeffs):
    same(poly_eval_matrix(coeffs, A), ref.poly_eval_matrix(coeffs, A))


# ---------------------------------------------------------------------------
# restriction of scalars from K to Q against the elimination over K
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restriction_of_scalars_ranks_and_annihilates(data):
    K = data.draw(eisenstein_fields())
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(k_elements(K), min_size=m, max_size=m), min_size=n, max_size=n))
    A = data.draw(degenerate(rows, m, ref.KElement(K, ())))
    k_rank = ref.rank(A)
    restricted = restrict_scalars([[x.coords for x in row] for row in A], K.eisenstein)
    assert all(type(x) is int for row in restricted for x in row)
    assert rank(restricted) == K.e * k_rank
    # sympy's rank of the K-span written as the Q-rows v pi^j
    assert to_sympy(_restriction_of_scalars(K, A)).rank() == K.e * k_rank
    basis = restricted_kernel(extend_echelon([], restricted), m, K.e)
    assert len(basis) == m - k_rank
    vectors = [[ref.KElement(K, v[i * K.e:(i + 1) * K.e]) for i in range(m)] for v, _ in basis]
    for row in A:
        for v in vectors:
            assert not sum((a * b for a, b in zip(row, v)), ref.KElement(K, ()))
    # divided by its entry at its column, the basis of rref over K
    normalized = [[ref.KElement(K, [F(x, v[c]) for x in v[i * K.e:(i + 1) * K.e]]) for i in range(m)]
                  for v, c in basis]
    assert normalized == ref.nullspace(A)


# ---------------------------------------------------------------------------
# restriction of scalars past Eisenstein moduli: K = Q[x]/(g) for any monic
# irreducible g, against sympy's rank over the number field itself
# ---------------------------------------------------------------------------

# x^2 + 1 and x^3 - x - 1 (no Eisenstein prime), x^2 - 2 and x^3 - 3
MODULI = [(1, 0, 1), (-1, -1, 0, 1), (-2, 0, 1), (-3, 0, 0, 1)]


@lru_cache(maxsize=None)
def sympy_number_field(g):
    """sympy's Q(theta) for the first root theta of g, its elements
    written on 1, theta, ..., theta^(e-1) like the coordinate tuples."""
    K = sympy.QQ.algebraic_field(sympy.CRootOf(sympy.Poly(g[::-1], sympy.Symbol("x")), 0))
    assert K.mod.to_list() == [sympy.QQ(c) for c in g[::-1]]
    return K


def to_sympy_field(K, coords):
    return K([sympy.QQ(c.numerator, c.denominator) for c in reversed(coords)])


@st.composite
def k_matrices(draw, g):
    """Coordinate tuples of an n x m matrix over Q[x]/(g), some rows
    replaced by K-combinations of others so that the K-rank drops."""
    field = SimpleNamespace(eisenstein=g)
    e = len(g) - 1
    elements = st.lists(st.integers(-4, 4), min_size=e, max_size=e).map(lambda c: ref.KElement(field, c))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(elements, min_size=m, max_size=m), min_size=n, max_size=n))
    for target in draw(st.sets(st.integers(0, n - 1), max_size=n // 2 + 1)):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        ka, kb = draw(elements), draw(elements)
        rows[target] = [ka * x + kb * y for x, y in zip(rows[a], rows[b])]
    return [[x.coords for x in row] for row in rows]


@pytest.mark.parametrize("g", MODULI)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_restriction_of_scalars_past_eisenstein_moduli(g, data):
    A = data.draw(k_matrices(g))
    e, m = len(g) - 1, len(A[0])
    K = sympy_number_field(g)
    A_K = [[to_sympy_field(K, x) for x in row] for row in A]
    k_rank = DomainMatrix(A_K, (len(A), m), K).rank()
    restricted = restrict_scalars(A, g)
    assert rank(restricted) == e * k_rank
    basis = restricted_kernel(extend_echelon([], restricted), m, e)
    assert len(basis) == m - k_rank
    for v, _ in basis:
        n = [to_sympy_field(K, v[i * e:(i + 1) * e]) for i in range(m)]
        for row in A_K:
            assert sum((a * b for a, b in zip(row, n)), K.zero) == K.zero

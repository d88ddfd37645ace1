import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import sen_reference

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
import oracles  # noqa: E402

from period_lab.characters import (
    CharacterTriple,
    SenInput,
    SenOperator,
    _log_coefficients,
    _log_margin,
    _series,
    classify,
    hodge_tate_via_sen,
    is_trivial_via_sen,
    log_series_length,
    matrix_exp_truncated,
    sen_operator,
)
from period_lab.cli import main
from period_lab.linalg import char_poly, clear_denominators, mat_mul
from period_lab.padic import centered, format_rational, int_valuation, rational_valuation
from period_lab.padic_poly import hensel_integer_roots


def random_triple(rng, p):
    while True:
        num, den = rng.randrange(1, 40), rng.randrange(1, 40)
        if num % p and den % p:
            lam = F(num, den)
            break
    a_den = rng.choice([d for d in range(1, 10) if d % p])
    a = F(rng.randrange(-6, 7), a_den)
    if rng.random() < 0.5:
        a = F(rng.randrange(-6, 7))  # integral half the time
    return CharacterTriple(p, lam, a, rng.randrange(0, p - 1))


# ---------------------------------------------------------------------------
# classification table
# ---------------------------------------------------------------------------


def test_cyclotomic_character():
    flags = classify(CharacterTriple(5, 1, 1, 0))
    assert flags.crystalline and flags.de_rham and flags.hodge_tate
    assert flags.hodge_tate_weight == 1
    assert not flags.unramified and not flags.cp_admissible


def test_tame_character_not_crystalline():
    flags = classify(CharacterTriple(5, 1, 0, 1))
    assert flags.cp_admissible and flags.de_rham and flags.hodge_tate
    assert not flags.crystalline and not flags.unramified


def test_unramified_is_crystalline():
    flags = classify(CharacterTriple(5, 2, 0, 0))
    assert flags.unramified and flags.crystalline and flags.cp_admissible


def test_non_integral_exponent_not_hodge_tate():
    flags = classify(CharacterTriple(5, 1, F(1, 2), 0))
    assert not flags.hodge_tate and not flags.de_rham and not flags.crystalline


def test_implication_chain():
    rng = random.Random(127)
    for p in (3, 5, 7):
        for _ in range(100):
            flags = classify(random_triple(rng, p))
            if flags.crystalline:
                assert flags.de_rham
            if flags.de_rham:
                assert flags.hodge_tate
            if flags.unramified:
                assert flags.crystalline and flags.cp_admissible
            # crystalline plus C_p-admissible collapses to unramified
            if flags.crystalline and flags.cp_admissible:
                assert flags.unramified


def test_multiplication():
    chi = CharacterTriple(5, 1, 1, 0)
    omega = CharacterTriple(5, 1, 0, 1)
    prod = chi.multiply(omega)
    assert (prod.lam, prod.a, prod.b) == (1, 1, 1)
    assert chi.multiply(CharacterTriple(5, 1, -1, 0)) == CharacterTriple(5, 1, 0, 0)
    rng = random.Random(131)
    for _ in range(50):
        x, y, z = (random_triple(rng, 5) for _ in range(3))
        assert x.multiply(y).to_json() == y.multiply(x).to_json()
        assert x.multiply(y).multiply(z).to_json() == x.multiply(y.multiply(z)).to_json()
        # crystalline closed under products
        if classify(x).crystalline and classify(y).crystalline:
            assert classify(x.multiply(y)).crystalline


def test_b_reduces_mod_p_minus_one():
    t = CharacterTriple(5, 1, 0, 9)
    assert t.b == 1
    assert classify(CharacterTriple(5, 1, 0, 4)).crystalline


def test_triple_validation():
    with pytest.raises(ValueError):
        CharacterTriple(2, 1, 0, 0)  # p = 2 excluded
    with pytest.raises(ValueError):
        CharacterTriple(5, 5, 0, 0)  # not a unit
    with pytest.raises(ValueError):
        CharacterTriple(5, 1, F(1, 5), 0)  # exponent not p-integral


def test_json_roundtrip():
    t = CharacterTriple(7, F(3, 2), F(-5, 3), 4)
    assert CharacterTriple.from_json(t.to_json()) == t


# ---------------------------------------------------------------------------
# Sen operators
# ---------------------------------------------------------------------------


def test_unipotent_example():
    op = sen_operator(SenInput(3, 1, [[1, 3], [0, 1]]))
    assert op.matrix == ((0, 1), (0, 0))
    assert not is_trivial_via_sen(op)
    verdict = hodge_tate_via_sen(op)
    assert verdict.status == "not-hodge-tate"
    assert verdict.integer_weights == (0, 0)


def test_identity_gives_zero_operator():
    op = sen_operator(SenInput(5, 2, [[1, 0], [0, 1]]))
    assert is_trivial_via_sen(op)
    verdict = hodge_tate_via_sen(op)
    assert verdict.status == "hodge-tate" and verdict.integer_weights == (0, 0)


def test_margin_enforced():
    with pytest.raises(ValueError):
        SenInput(3, 0, [[1, F(1, 3)], [0, 1]])
    with pytest.raises(ValueError):
        SenInput(2, 0, [[1, 2], [0, 1]])  # p = 2 needs valuation >= 2
    SenInput(2, 0, [[1, 4], [0, 1]])


@st.composite
def near_identity_matrices(draw):
    """(p, A) with each entry of A - I zero or of valuation v in
    {-1, 0, margin - 1, margin, margin + 3}, over a p-free denominator
    (so v = -1 is a denominator divisible by p)."""
    p = draw(st.sampled_from([2, 2, 3, 5, 7]))
    margin = _log_margin(p)
    d = draw(st.integers(1, 3))
    unit = st.integers(-50, 50).filter(lambda u: u % p)
    den = st.sampled_from([1, 1, 2, 3, 5, 7, 11]).filter(lambda q: q % p)

    def entry():
        v = draw(st.sampled_from([None, None, -1, 0, margin - 1, margin, margin + 3]))
        if v is None:
            return F(0)
        return F(draw(unit), draw(den)) * F(p) ** v

    return p, [[entry() + (i == j) for j in range(d)] for i in range(d)]


@settings(max_examples=150, deadline=None)
@given(near_identity_matrices())
def test_input_check_matches_the_valuation_rule(case):
    """SenInput accepts exactly the matrices the rational-valuation rule
    accepts, with the same error text; in a batch a rejected line fails
    alone and the batch exits 2."""
    p, A = case
    try:
        sen_reference.check_close_to_identity(p, A)
        expected = None
    except ValueError as exc:
        expected = str(exc)
    try:
        SenInput(p, 0, A)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == expected
    if expected is None:
        return
    good = {"command": "sen", "p": p, "level": 0, "matrix": [["1"]], "precision": 5}
    bad = dict(good, matrix=[[format_rational(x) for x in row] for row in A])
    code, out = batch_cli([good, bad, good])
    report = json.loads(out)
    assert code == 2
    assert [r["status"] for r in report["results"]] == ["ok", "error", "ok"]
    assert report["results"][1]["message"] == expected


# ---------------------------------------------------------------------------
# the series reduced mod the characteristic polynomial, against the
# power-by-power reference
# ---------------------------------------------------------------------------


@st.composite
def series_cases(draw):
    """(N, terms, modulus): N a d x d integer matrix, d <= 6, entries up to
    10^12 (or strictly upper triangular, or zero); terms (i, c) with
    distinct ascending i, fewer or more than d of them; modulus p^M for
    p in {2, 3, 5, 7}, or None."""
    d = draw(st.integers(1, 6))
    big = st.integers(-(10**12), 10**12)
    N = draw(st.lists(st.lists(big, min_size=d, max_size=d), min_size=d, max_size=d))
    shape = draw(st.sampled_from(["dense", "nilpotent", "zero"]))
    if shape == "nilpotent":
        N = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(N)]
    elif shape == "zero":
        N = [[0] * d for _ in range(d)]
    indices = draw(st.lists(st.integers(0, 3 * d + 6), max_size=2 * d + 4, unique=True))
    terms = [(i, draw(big)) for i in sorted(indices)]
    modulus = None
    if draw(st.booleans()):
        modulus = draw(st.sampled_from([2, 3, 5, 7])) ** draw(st.integers(1, 60))
        N = [[x % modulus for x in row] for row in N]
    return N, terms, modulus


@settings(max_examples=200, deadline=None)
@given(series_cases())
def test_series_matches_the_power_by_power_reference(case):
    N, terms, modulus = case
    chi = [c.numerator for c in char_poly(N)]
    if modulus:
        chi = [c % modulus for c in chi]
    assert _series(N, terms, chi, modulus) == sen_reference._series(N, terms, modulus)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.integers(0, 30), st.data())
def test_exp_matches_the_power_by_power_reference(p, d, precision, data):
    margin = _log_margin(p)
    den = st.sampled_from([1, 1, 2, 3, 7]).filter(lambda q: q % p)
    M = [[F(p**margin * data.draw(st.integers(-9, 9)), data.draw(den)) for _ in range(d)]
         for _ in range(d)]
    if data.draw(st.booleans()):
        M = [[x if j > i else F(0) for j, x in enumerate(row)] for i, row in enumerate(M)]
    assert matrix_exp_truncated(p, M, precision) == sen_reference.matrix_exp_truncated(p, M, precision)


def test_log_exp_roundtrip():
    rng = random.Random(137)
    for p in (2, 3, 5):
        for _ in range(10):
            d = rng.choice([1, 2])
            M = [
                [F(rng.randrange(-4, 5), rng.choice([1, 2, 3][: 1 if p != 2 else 1])) for _ in range(d)]
                for _ in range(d)
            ]
            r = rng.randrange(1, 3)
            margin = 2 if p == 2 else 1
            scaled = [[x * F(p) ** (r + margin) for x in row] for row in M]
            A = matrix_exp_truncated(p, scaled, 30)
            op = sen_operator(SenInput(p, r, A), 30)
            target = [[x * F(p) ** margin for x in row] for row in M]
            for i in range(d):
                for j in range(d):
                    diff = op.matrix[i][j] - target[i][j]
                    assert diff == 0 or rational_valuation(diff, p) >= op.precision - 5


def test_level_shift_relation():
    # the operator from (r, A) agrees with the one from (r+1, A^p)
    p, r = 3, 1
    M = [[F(3), F(9)], [F(0), F(-3)]]
    A = matrix_exp_truncated(p, [[x * F(p) ** r for x in row] for row in M], 30)
    Ap = A
    for _ in range(p - 1):
        Ap = mat_mul(Ap, A)
    op_low = sen_operator(SenInput(p, r, A), 30)
    op_high = sen_operator(SenInput(p, r + 1, Ap), 30)
    cutoff = min(op_low.precision, op_high.precision) - 5
    for i in range(2):
        for j in range(2):
            diff = op_low.matrix[i][j] - op_high.matrix[i][j]
            assert diff == 0 or rational_valuation(diff, p) >= cutoff


def test_integer_weights_from_exponential_construction():
    A = matrix_exp_truncated(5, [[F(5), 0], [0, F(10)]], 25)
    op = sen_operator(SenInput(5, 1, A), 25)
    verdict = hodge_tate_via_sen(op)
    assert verdict.status == "hodge-tate"
    assert verdict.integer_weights == (1, 2)


@pytest.mark.parametrize(
    "payload",
    [
        # 3^30 above the diagonal: the operator is 0 mod 3^20, but the
        # exact 0-part is a Jordan block
        {"p": 3, "level": 1, "matrix": [["1", "205891132094649"], ["0", "1"]], "precision": 20},
        # log(65) has 2-adic valuation 6, the stated precision
        {"p": 2, "level": 0, "matrix": [["65"]], "precision": 6},
    ],
)
def test_trivial_only_when_the_matrix_is_the_identity(payload):
    code, out = sen_cli(payload)
    report = json.loads(out)
    assert all(x == "0" for row in report["operator"]["matrix"] for x in row)
    assert report["is_trivial"] is False
    if payload["p"] == 3:
        assert code == 0 and report["hodge_tate"]["status"] == "not-hodge-tate"


def test_log_coefficient_table_matches_the_fraction_table():
    """The one-inverse table of sen_operator against the Fraction-and-
    residue table it replaced, for precision 1 to 200; and at level 0, 1
    and 2, the operator of [[1 + x]] against the sum of that table's
    terms c_i x^i, centered mod p^(precision + V) over p^(V + level)."""
    for p in (2, 3, 5, 7):
        x = 2 * p ** _log_margin(p)
        for precision in range(1, 201):
            n, V, want = sen_reference.log_coefficients(p, precision)
            assert log_series_length(p, precision) == (n, V)
            modulus = p ** (precision + V)
            assert _log_coefficients(p, n, V, precision + V) == want, (p, precision)
            series = sum(c * pow(x, i, modulus) for i, c in want)
            for level in range(min(precision, 3)):
                op = sen_operator(SenInput(p, level, [[1 + x]]), precision)
                assert op.matrix == ((F(centered(series, modulus), p ** (V + level)),),)


def test_trivial_iff_exp_of_zero():
    p = 5
    A = matrix_exp_truncated(p, [[F(0), F(0)], [F(0), F(0)]], 20)
    op = sen_operator(SenInput(p, 1, A), 20)
    assert is_trivial_via_sen(op)


def test_indeterminate_on_unliftable_weights():
    # eigenvalues 1 and 6 collide mod 5: the residue root is not simple,
    # so integral weights cannot be certified
    A = matrix_exp_truncated(5, [[F(5), 0], [0, F(30)]], 20)
    op = sen_operator(SenInput(5, 1, A), 20)
    assert hodge_tate_via_sen(op).status == "indeterminate"


def test_operator_json():
    op = sen_operator(SenInput(3, 1, [[1, 3], [0, 1]]))
    js = op.to_json()
    assert js["matrix"] == [["0", "1"], ["0", "0"]]
    assert js["precision"] == op.precision


# ---------------------------------------------------------------------------
# the exponential's stated precision, against a longer series (D2)
# ---------------------------------------------------------------------------


def long_exp(M, terms):
    d = len(M)
    acc = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    term = [row[:] for row in acc]
    for k in range(1, terms):
        term = [[x / k for x in row] for row in mat_mul(term, M)]
        acc = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(acc, term)]
    return acc


def exp_error_valuation(p, M, precision):
    got = matrix_exp_truncated(p, M, precision)
    ref = long_exp(M, 4 * precision + 20)
    return min(
        (rational_valuation(a - b, p) for ra, rb in zip(got, ref) for a, b in zip(ra, rb) if a != b),
        default=None,
    )


def test_exp_precision_covers_the_terms_at_p_powers():
    # term 27 of exp(3) has valuation 27 - v_3(27!) = 14, below 15; a stop
    # at the first term above 15 (i = 26) left it out
    assert exp_error_valuation(3, [[F(3)]], 15) >= 15
    assert exp_error_valuation(2, [[F(4)]], 28) >= 28


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exp_meets_its_precision(p):
    margin = 2 if p == 2 else 1
    M = [[F(p**margin), F(p ** (margin + 1), 7)], [F(0), F(-(p**margin))]]
    for precision in range(1, 40):
        v = exp_error_valuation(p, M, precision)
        assert v is None or v >= precision


# ---------------------------------------------------------------------------
# the sen command against the Fraction reference and a longer series
# ---------------------------------------------------------------------------


def stdin_cli(command, text) -> tuple:
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = main([command, "--input", "-"])
    finally:
        sys.stdin = stdin
    return code, buf.getvalue()


def sen_cli(payload) -> tuple:
    return stdin_cli("sen", json.dumps(payload))


def batch_cli(lines) -> tuple:
    return stdin_cli("batch", "".join(json.dumps(x) + "\n" for x in lines))


@st.composite
def sen_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    margin = 2 if p == 2 else 1
    d = draw(st.integers(1, 3))
    level = draw(st.integers(0, 2))
    precision = draw(st.integers(0, 45))
    square = st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=d, max_size=d)
    if draw(st.booleans()):
        # A - I with entries of valuation >= margin and p-free denominators
        den = st.sampled_from([1, 1, 1, 2, 3, 5, 7, 9]).filter(lambda q: q % p)
        delta = draw(st.lists(st.lists(st.builds(F, st.integers(-20, 20), den), min_size=d, max_size=d),
                              min_size=d, max_size=d))
        A = [[p**margin * x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(delta)]
    else:
        # exp(p^s S): integer or repeated eigenvalues, and unipotent parts
        S = draw(square)
        if draw(st.booleans()):
            S = [[x if j >= i else 0 for j, x in enumerate(row)] for i, row in enumerate(S)]
        s = max(level, margin)
        A = matrix_exp_truncated(p, [[F(p**s * x) for x in row] for row in S], precision + s + 3)
    return p, level, A, precision


def ilog(n, p):
    """floor(log_p n), in ints."""
    k = 0
    while p ** (k + 1) <= n:
        k += 1
    return k


def log_mod(p, A, target):
    """log(A) mod p^target by the plain series, every power reduced mod
    p^(target + log_p n): A - I = N/D with D a p-unit, v_p(N) >= 1, so
    term i has valuation at least i - log_p i."""
    d = len(A)
    N, D = clear_denominators([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(A)])
    n = 1
    while n + 1 - ilog(n + 1, p) < target:
        n += 1
    modulus = p ** (target + ilog(n, p) + 1)
    X = [[x * pow(D, -1, modulus) % modulus for x in row] for row in N]
    acc = [[F(0)] * d for _ in range(d)]
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    for i in range(1, n + 1):
        power = [[x % modulus for x in row] for row in mat_mul(power, X)]
        for a in range(d):
            for b in range(d):
                acc[a][b] += F((-1) ** (i - 1) * power[a][b], i)
    return acc


def d2_bound(p, level, precision):
    """The least valuation bound margin*i - v_p(i) of a dropped term, less
    the level: below the stated precision only where ROADMAP D2 bites."""
    margin = 2 if p == 2 else 1
    vals = [margin * i - int_valuation(i, p) for i in range(1, 4 * precision + 20)]
    n = next(i for i, v in enumerate(vals) if v > precision)
    return min(vals[n:]) - level


@settings(max_examples=80, deadline=None)
@given(sen_inputs())
def test_sen_json_matches_fraction_reference(inp):
    """The operator is congruent to the reference mod p^(stated precision)
    and within it of a longer series (D2 aside); at stated precision >= 6
    with a p-integral operator the verdict equals the reference's."""
    p, level, A, precision = inp
    payload = {"p": p, "level": level, "matrix": [[format_rational(x) for x in row] for row in A],
               "precision": precision}
    code, out = sen_cli(payload)
    report = json.loads(out)
    stated = precision - level
    if stated < 1:
        assert code == 2 and "must exceed the level" in report["error"]
        return
    got = [[F(x) for x in row] for row in report["operator"]["matrix"]]
    assert report["operator"]["precision"] == stated
    # the centered representative m/p^k, -p^(s+k)/2 < m <= p^(s+k)/2
    assert all(-(x.denominator * p**stated) < 2 * x.numerator <= x.denominator * p**stated
               for row in got for x in row)
    ref = sen_reference.sen_operator(SenInput(p, level, A), precision)
    assert all(x == y or rational_valuation(x - y, p) >= stated
               for row, ref_row in zip(got, ref.matrix) for x, y in zip(row, ref_row))
    longer = log_mod(p, A, precision + 12)
    floor = min(stated, d2_bound(p, level, precision))
    assert all(x * p**level == y or rational_valuation(x * p**level - y, p) - level >= floor
               for row, long_row in zip(got, longer) for x, y in zip(row, long_row))
    assert code == (3 if report["hodge_tate"]["status"] == "indeterminate" else 0)
    # log(A) = 0 iff A = I, exactly: the reference's entrywise test mod
    # p^stated is not, e.g. for A = [[65]], p = 2, precision 6
    assert report["is_trivial"] is all(x == (i == j) for i, row in enumerate(A) for j, x in enumerate(row))
    if stated >= 6 and all(x == 0 or rational_valuation(x, p) >= 0 for row in ref.matrix for x in row):
        assert report["hodge_tate"] == sen_reference.hodge_tate_via_sen(ref).to_json()


# ---------------------------------------------------------------------------
# weights of a non-integral operator, and inputs at high precision
# ---------------------------------------------------------------------------


def test_weights_of_a_non_integral_operator_stop_at_the_loss():
    # entries of valuation -1 at d = 2: the class of the operator mod 3^30
    # fixes its characteristic polynomial, and so the weights, mod 3^29 only
    inp = SenInput(3, 2, [[-29, -3], [57, -23]])
    op = sen_operator(inp, 32)
    assert op.precision == 30
    assert min(rational_valuation(x, 3) for row in op.matrix for x in row if x) == -1
    B, D = op.numerators, op.denominator
    moved = SenOperator(op.prime, ((B[0][0] + 3**30 * D, B[0][1]), B[1]), D,
                        op.precision, op.zero_part)
    assert moved.matrix == ((op.matrix[0][0] + 3**30, op.matrix[0][1]), op.matrix[1])
    lifts = [sorted(hensel_integer_roots(char_poly(A.matrix), 3, 30)) for A in (op, moved)]
    assert lifts[0] != lifts[1]
    verdict = hodge_tate_via_sen(op)
    assert hodge_tate_via_sen(moved) == verdict
    assert all(abs(w) <= 3**29 // 2 for w in verdict.integer_weights)
    high = hodge_tate_via_sen(sen_operator(inp, 90)).integer_weights
    assert sorted(w % 3**29 for w in verdict.integer_weights) == sorted(w % 3**29 for w in high)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(2, 3), st.data())
def test_weights_of_a_non_integral_operator_are_true_to_their_lift(p, d, data):
    """exp(p^2 M) at level 2 for M = P Q J Q^-1 P^-1, J upper triangular
    with eigenvalues distinct mod p, Q = diag(1, p, ..., p), P unimodular:
    the operator is M, with entries of negative valuation, and every
    weight it reports is an eigenvalue of J mod p^(s - (d-1) max(0, -v))."""
    eig = data.draw(st.lists(st.integers(-3 * p, 3 * p), min_size=d, max_size=d)
                    .filter(lambda e: len({x % p for x in e}) == d))
    J = [[eig[i] if i == j else (data.draw(st.integers(-4, 4)) if j > i else 0) for j in range(d)]
         for i in range(d)]
    M = [[F(x) * (p if i and not j else 1) / (p if j and not i else 1) for j, x in enumerate(row)]
         for i, row in enumerate(J)]
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.sampled_from([(i, j) for i in range(d) for j in range(d) if i != j]))
        c = data.draw(st.integers(-2, 2))
        # M <- E_ij(c) M E_ij(-c)
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        for row in M:
            row[j] -= c * row[i]
    precision = data.draw(st.integers(8, 30))
    A = matrix_exp_truncated(p, [[p**2 * x for x in row] for row in M], precision + 12)
    op = sen_operator(SenInput(p, 2, A), precision)
    verdict = hodge_tate_via_sen(op)
    vmin = min(rational_valuation(x, p) for row in op.matrix for x in row if x)
    lift = op.precision - (d - 1) * max(0, -vmin)
    if verdict.integer_weights is None:
        assert lift < 1 or any(rational_valuation(c, p) < 0 for c in char_poly(op.matrix) if c)
        return
    assert sorted(w % p**lift for w in verdict.integer_weights) == sorted(w % p**lift for w in eig)


def exp_mod(p, X, N):
    """exp(X) mod p^N as centered integers, for an integer matrix X whose
    entries have valuation >= 1 (>= 2 when p = 2); every division by k
    costs v_p(k) digits, so the terms run mod p^(N + v_p(K!))."""
    d = len(X)
    margin = 2 if p == 2 else 1
    K = 1
    while (p - 1) * margin * K - (K - 1) <= (p - 1) * N:
        K += 1
    modulus = p ** (N + sum(int_valuation(k, p) for k in range(1, K)))
    term = [[int(i == j) for j in range(d)] for i in range(d)]
    acc = [row[:] for row in term]
    for k in range(1, K):
        v = int_valuation(k, p)
        unit = pow(k // p**v, -1, modulus)
        term = [[x // p**v * unit % modulus for x in row] for row in mat_mul(term, X)]
        acc = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(acc, term)]
    top = p**N
    return [[x % top - top * (x % top > top // 2) for x in row] for row in acc]


def sen_line_input(seed, p, d, precision, r=1):
    """A ``workloads.sen_line``-shaped input: exp(p^r S) mod p^(precision + r + 5)
    for S = P diag(0..d-1) P^-1 with P unimodular; (payload, eigenvalues)."""
    rng = random.Random(seed)
    eig = list(range(d))
    rng.shuffle(eig)
    P = [[int(i == j) for j in range(d)] for i in range(d)]
    Pinv = [row[:] for row in P]
    for _ in range(4 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.randint(-2, 2)
        for row in P:
            row[j] += c * row[i]
        Pinv[i] = [a - c * b for a, b in zip(Pinv[i], Pinv[j])]
    S = mat_mul(mat_mul(P, [[eig[i] * (i == j) for j in range(d)] for i in range(d)]), Pinv)
    A = exp_mod(p, [[p**r * x for x in row] for row in S], precision + r + 5)
    payload = {"p": p, "level": r, "matrix": [[str(x) for x in row] for row in A], "precision": precision}
    return payload, eig


def test_the_4300_digit_repro_is_answered():
    # the exact truncated series once had entries past CPython's
    # 4,300-digit int -> str limit here, and the command exited 2
    S = [[4, -3, 2], [1, 4, -4], [-2, 3, 3]]
    A = matrix_exp_truncated(3, [[F(3 * x) for x in row] for row in S], 49)
    payload = {"p": 3, "level": 1, "matrix": [[format_rational(x) for x in row] for row in A], "precision": 45}
    assert len(json.dumps(payload)) > 2000
    code, out = sen_cli(payload)
    assert code in (0, 3)
    assert json.loads(out)["operator"]["precision"] == 44


@pytest.mark.parametrize("d, precision", [(2, 150), (3, 100), (4, 120)])
def test_high_precision_sen_lines_pass_the_benchmark_oracle(d, precision):
    payload, eig = sen_line_input(d, 5, d, precision)
    code, out = sen_cli(payload)
    assert code == 0
    assert oracles.check_sen(payload, json.loads(out), code, {"eigenvalues": eig}) is None


def test_dim_6_precision_400_takes_under_a_second():
    payload, eig = sen_line_input(6, 7, 6, 400)
    src = Path(__file__).resolve().parents[1] / "src"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "period_lab.cli", "sen", "--input", "-"],
        input=json.dumps(payload), capture_output=True, text=True, timeout=5,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0
    assert json.loads(done.stdout)["hodge_tate"]["integer_weights"] == sorted(eig)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# semisimplicity with repeated eigenvalues, against sympy
# ---------------------------------------------------------------------------


@st.composite
def repeated_eigenvalue_matrices(draw):
    """P J P^-1 for an integer Jordan-type J with a repeated eigenvalue,
    P unimodular, so every entry stays an integer."""
    d = draw(st.integers(2, 4))
    values = draw(st.lists(st.integers(-5, 5), min_size=d - 1, max_size=d - 1))
    values = sorted(values + [values[0]])
    J = [[values[i] if i == j else 0 for j in range(d)] for i in range(d)]
    for i in range(d - 1):
        if values[i] == values[i + 1] and draw(st.booleans()):
            J[i][i + 1] = 1
    P = [[int(i == j) for j in range(d)] for i in range(d)]
    Pinv = [row[:] for row in P]
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        c = draw(st.integers(-2, 2))
        if i != j:
            # P <- P E_ij(c), P^-1 <- E_ij(-c) P^-1
            for row in P:
                row[j] += c * row[i]
            Pinv[i] = [a - c * b for a, b in zip(Pinv[i], Pinv[j])]
    return mat_mul(mat_mul(P, J), Pinv)


@settings(max_examples=150, deadline=None)
@given(repeated_eigenvalue_matrices(), st.sampled_from([2, 3, 5, 7]), st.integers(0, 2))
def test_semisimplicity_with_repeated_eigenvalues_matches_sympy(A, p, level):
    """M = A - lambda I for a repeated eigenvalue lambda of A, and the
    input I + p^margin M: eigenvalue 0 of the operator has the algebraic
    multiplicity of 0 in M, and its part is semi-simple iff that equals
    the geometric multiplicity."""
    d = len(A)
    lam = min(v for v, k in sympy.Matrix(A).eigenvals().items() if k > 1)
    M = [[x - lam * (i == j) for j, x in enumerate(row)] for i, row in enumerate(A)]
    step = p ** _log_margin(p)
    op = sen_operator(SenInput(p, level, [[(i == j) + step * x for j, x in enumerate(row)]
                                          for i, row in enumerate(M)]))
    algebraic = sympy.Matrix(M).eigenvals()[0]
    geometric = d - sympy.Matrix(M).rank()
    assert op.zero_part == (algebraic, algebraic == geometric)
    assert is_trivial_via_sen(op) is (not any(any(row) for row in M))
    # the other weights are simple or the verdict is indeterminate, so a
    # decided verdict rests on the 0-part alone
    expected = "hodge-tate" if algebraic == geometric else "not-hodge-tate"
    assert hodge_tate_via_sen(op).status in (expected, "indeterminate")

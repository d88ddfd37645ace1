import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import sen_reference

from period_lab.characters import (
    CharacterTriple,
    SenInput,
    SenOperator,
    classify,
    hodge_tate_via_sen,
    is_trivial_via_sen,
    matrix_exp_truncated,
    sen_operator,
)
from period_lab.cli import main
from period_lab.linalg import mat_mul
from period_lab.padic import Prime, format_rational, rational_valuation


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
    assert chi.multiply(chi.inverse()).is_trivial()
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
# the sen command against the Fraction reference, byte for byte
# ---------------------------------------------------------------------------


def sen_cli(payload) -> tuple:
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(payload))
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = main(["sen", "--input", "-"])
    finally:
        sys.stdin = stdin
    return code, buf.getvalue()


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


@settings(max_examples=80, deadline=None)
@given(sen_inputs())
def test_sen_json_matches_fraction_reference(inp):
    p, level, A, precision = inp
    payload = {"p": p, "level": level, "matrix": [[format_rational(x) for x in row] for row in A],
               "precision": precision}
    code, out = sen_cli(payload)
    try:
        expected = sen_reference.sen_report(p, level, A, precision)
    except ValueError as exc:
        # an entry too long for int -> str: the same error, as exit 2
        assert (code, json.loads(out)["error"]) == (2, str(exc))
        return
    assert out == expected
    assert code == (3 if '"indeterminate"' in expected else 0)


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
@given(repeated_eigenvalue_matrices(), st.sampled_from([3, 5, 7]))
def test_semisimplicity_with_repeated_eigenvalues_matches_sympy(A, p):
    op = SenOperator(Prime(p), tuple(tuple(F(x) for x in row) for row in A), 10)
    verdict = hodge_tate_via_sen(op)
    expected = "hodge-tate" if sympy.Matrix(A).is_diagonalizable() else "not-hodge-tate"
    assert verdict.status == expected
    assert verdict == sen_reference.hodge_tate_via_sen(op)

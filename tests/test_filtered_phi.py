import random
import sys
import time
from fractions import Fraction as F
from math import isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import admissibility_reference
import linalg_reference as ref
from admissibility_reference import direct_sum, dual, filtration, matrix_inverse, tensor

from period_lab import filtered_phi
from period_lab.characters import classify
from period_lab.filtered_phi import (
    FilteredPhiModule,
    _qp_eigenvalue_below,
    dim1_correspondence,
    dim1_module,
    dim2_module,
    is_admissible,
)
from period_lab.linalg import (
    BaseFieldK,
    certify_squarefree,
    char_poly,
    det,
    factor_over_q,
    mat_mul,
    monic_integer,
    rational_roots,
)
from period_lab.padic import rational_valuation
from period_lab.padic_poly import is_padic_square

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
import modules  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# independent oracle: subspace Hodge and Newton numbers by plain elimination
# ---------------------------------------------------------------------------


def oracle_rank(rows):
    rows = [[F(x) for x in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def oracle_intersection_dim(A, B):
    # dim(A) + dim(B) - dim(A + B)
    return oracle_rank(A) + oracle_rank(B) - oracle_rank(A + B)


def _value(x):
    """The rational an entry over Q_p stands for: its one coordinate, or
    0 for the empty tuple."""
    assert len(x) <= 1
    return x[0] if x else F(0)


def oracle_subspace_numbers(module, rows):
    """(t_H, t_N) of a stable rational subspace, recomputed from scratch."""
    # t_H: intersection dimensions against each filtration step
    dims = []
    for _, vecs in filtration(module):
        k_rows = [[_value(x) for x in v] for v in vecs]
        dims.append(oracle_intersection_dim([list(r) for r in rows], k_rows))
    dims.append(0)
    t_h = sum(
        j * (dims[i] - dims[i + 1]) for i, (j, _) in enumerate(filtration(module))
    )
    # t_N: determinant of the restriction in a solved basis
    import itertools

    n = len(rows)
    images = []
    for w in rows:
        img = [
            sum(module.frobenius[i][j] * w[j] for j in range(len(w)))
            for i in range(len(w))
        ]
        images.append(img)
    # solve img = sum coords * rows for each image
    coords = []
    for img in images:
        aug = [[rows[k][j] for k in range(n)] + [img[j]] for j in range(len(img))]
        sol = _oracle_solve(aug, n)
        coords.append(sol)
    d = _oracle_det([[coords[i][j] for j in range(n)] for i in range(n)])
    return t_h, rational_valuation(d, module.base.p)


def _oracle_solve(aug, n):
    rows = [r[:] for r in aug]
    r = 0
    piv_cols = []
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
    sol = [F(0)] * n
    for row, c in zip(rows, piv_cols):
        sol[c] = row[-1]
    return sol


def _oracle_det(M):
    M = [r[:] for r in M]
    n = len(M)
    out = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if M[i][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            out = -out
        out *= M[c][c]
        inv = 1 / M[c][c]
        for i in range(c + 1, n):
            if M[i][c]:
                f = M[i][c] * inv
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return out


def oracle_dim3_verdict(module, factors_roots):
    """Brute force over all sums of eigenlines (squarefree split case)."""
    import itertools

    t_h, t_n = module.hodge_number(), module.newton_number()
    if t_h != t_n:
        return "not-admissible"
    lines = factors_roots  # list of (eigenvector rows)
    k = len(lines)
    for size in range(1, k):
        for combo in itertools.combinations(range(k), size):
            rows = []
            for i in combo:
                rows.extend(lines[i])
            sub_th, sub_tn = oracle_subspace_numbers(module, rows)
            if sub_th > sub_tn:
                return "not-admissible"
    return "admissible"


# ---------------------------------------------------------------------------
# dimension 1
# ---------------------------------------------------------------------------


def test_dim1_grid():
    for p in (3, 5):
        for unit in (1, 2, 7):
            for k in range(-3, 4):
                for r in range(-3, 4):
                    D = dim1_module(p, F(unit) * F(p) ** k, r)
                    v = is_admissible(D)
                    assert (v.status == "admissible") == (k == r)
                    assert v.hodge_number == r and v.newton_number == k


def test_dim1_examples():
    assert is_admissible(dim1_module(3, 9, 2)).status == "admissible"
    assert is_admissible(dim1_module(3, 3, 0)).status == "not-admissible"


def test_dim1_correspondence():
    t = dim1_correspondence(5, 5, 1)
    assert (t.lam, t.a, t.b) == (1, -1, 0)
    t2 = dim1_correspondence(5, 2 * 25, 2)
    assert (t2.lam, t2.a, t2.b) == (F(1, 2), -2, 0)
    t3 = dim1_correspondence(5, 1, 0)
    assert (t3.lam, t3.a, t3.b) == (1, 0, 0)
    with pytest.raises(ValueError):
        dim1_correspondence(5, 5, 0)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.fractions(min_value=-60, max_value=60, max_denominator=20).filter(bool),
    st.integers(-4, 4),
    st.integers(-4, 4),
)
def test_dim1_correspondence_agrees_with_classify_and_is_admissible(p, u, k, r):
    # lambda = u p^k with u a p-adic unit (any sign), and one jump r: the
    # rank-1 module is admissible exactly when the dictionary gives a
    # character, and that character is crystalline of the module's one
    # Hodge-Tate weight, -r
    assume(rational_valuation(u, p) == 0)
    lam = u * F(p) ** k
    verdict = is_admissible(dim1_module(p, lam, r))
    try:
        chi = dim1_correspondence(p, lam, r)
    except ValueError:
        assert verdict.status == "not-admissible"
        return
    assert verdict.status == "admissible"
    flags = classify(chi)
    assert flags.crystalline
    assert flags.hodge_tate_weight == -r
    assert dim1_module(p, lam, r).hodge_tate_weights() == [-r]


# ---------------------------------------------------------------------------
# dimension 2
# ---------------------------------------------------------------------------


def normal_form(p, r, s, a, b):
    return [
        [F(0), F(p) ** r * a],
        [F(p) ** s, F(p) ** r * b],
    ]


def test_dim2_normal_form_closed_criterion():
    rng = random.Random(97)
    p = 5
    agree = 0
    for _ in range(200):
        r = rng.randrange(-2, 3)
        s = r + rng.randrange(1, 4)
        va = rng.randrange(-2, 3)
        vb = rng.randrange(-2, 4)
        a = F(p) ** va * rng.choice([1, 2, 3, 4, 6])
        b = F(p) ** vb * rng.choice([1, 2, 3, 4, 6])
        D = dim2_module(p, normal_form(p, r, s, a, b), r, s, line=[1, 0])
        verdict = is_admissible(D).status
        expected = "admissible" if (va == 0 and vb >= 0) else "not-admissible"
        assert verdict == expected, (r, s, a, b, verdict)
        agree += 1
    assert agree == 200


def test_dim2_stable_line_criterion():
    rng = random.Random(101)
    p = 3
    for _ in range(200):
        r = rng.randrange(-2, 2)
        s = r + rng.randrange(1, 4)
        va = rng.choice([r, s, r + 1, s - 1, s + 1])
        vb = rng.choice([r, s, r - 1, r + 1])
        alpha = F(p) ** va * rng.choice([1, 2, 4])
        beta = F(p) ** vb * rng.choice([1, 2, 4])
        if alpha == beta:
            continue
        # diagonal Frobenius, filtration line = first eigenline
        D = dim2_module(p, [[alpha, F(0)], [F(0), beta]], r, s, line=[1, 0])
        verdict = is_admissible(D).status
        expected = "admissible" if (va == s and vb == r) else "not-admissible"
        assert verdict == expected, (r, s, alpha, beta, verdict)


def test_dim2_irreducible_example():
    # unit a, positive-valuation b: admissible and irreducible
    D = dim2_module(5, normal_form(5, 0, 1, F(2), F(5)), 0, 1, line=[1, 0])
    assert is_admissible(D).status == "admissible"


def test_dim2_single_jump():
    p = 5
    # r = s: admissible iff t_N = 2r and no stable line of valuation < r;
    # scalar Frobenius with v = r works
    D = dim2_module(p, [[F(p), F(0)], [F(0), F(p)]], 1, 1)
    assert is_admissible(D).status == "admissible"
    # eigenvalues of valuations 0 and 2: the 0-line violates
    D2 = dim2_module(p, [[F(1), F(0)], [F(0), F(p * p)]], 1, 1)
    assert is_admissible(D2).status == "not-admissible"
    # irrational over Q_p of valuation 1 each: no stable lines, admissible
    # char poly X^2 - p^2 * 2, disc = 8 p^2: 2 is not a square mod 5
    D3 = dim2_module(p, [[F(0), F(2 * p)], [F(p), F(0)]], 1, 1)
    assert is_admissible(D3).status == "admissible"


def test_dim2_scalar_with_two_jumps_never_admissible():
    # scalar Frobenius fixes every line, including the filtration line
    # whose induced jump is s > (r + s)/2
    p = 3
    D = dim2_module(p, [[F(p), F(0)], [F(0), F(p)]], 0, 2, line=[1, 1])
    assert is_admissible(D).status == "not-admissible"


def test_dim2_nondiagonalizable_stable_line():
    # Jordan block with the line stable: single eigenvalue valuation
    # (r+s)/2 < s, so never admissible
    p = 5
    Phi = [[F(p), F(1)], [F(0), F(p)]]
    D = dim2_module(p, Phi, 0, 2, line=[1, 0])
    assert is_admissible(D).status == "not-admissible"


def test_padic_square():
    assert is_padic_square(F(4), 5)
    assert is_padic_square(F(-1), 5)  # -1 is a QR mod 5
    assert not is_padic_square(F(5), 5)
    assert not is_padic_square(F(2), 5)
    assert is_padic_square(F(25 * 6 + 0) - F(150) + F(9), 5)  # 9
    assert is_padic_square(F(17), 2)  # 17 = 1 mod 8
    assert not is_padic_square(F(3), 2)
    assert not is_padic_square(F(8), 2)


@st.composite
def padic_number(draw, p, v):
    """A nonzero rational of p-adic valuation v, with a unit part of small
    height of either sign."""
    num = draw(st.integers(1, 40).filter(lambda n: n % p))
    den = draw(st.integers(1, 12).filter(lambda n: n % p))
    return draw(st.sampled_from((1, -1))) * F(num, den) * F(p) ** v


@st.composite
def monic_quadratic(draw):
    """(cp, p): x^2 + c1 x + c0 with c0 != 0, drawn as a product of two
    rational linear factors (square discriminant, root valuations equal or
    not), a square of one (discriminant 0), x^2 - d (half-integral root
    valuations when v(d) is odd, square or nonsquare d otherwise), or two
    free coefficients."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    vals = st.integers(-3, 3)
    kind = draw(st.sampled_from(("split", "double", "pure", "free")))
    if kind == "split":
        r1, r2 = draw(padic_number(p, draw(vals))), draw(padic_number(p, draw(vals)))
        return [r1 * r2, -(r1 + r2), F(1)], p
    if kind == "double":
        r = draw(padic_number(p, draw(vals)))
        return [r * r, -2 * r, F(1)], p
    if kind == "pure":
        return [-draw(padic_number(p, draw(vals))), F(0), F(1)], p
    c1 = draw(st.one_of(st.just(F(0)), padic_number(p, draw(vals))))
    return [draw(padic_number(p, draw(vals))), c1, F(1)], p


@settings(max_examples=400, deadline=None)
@given(monic_quadratic(), st.integers(-3, 3))
@example(([F(-3), F(0), F(1)], 3), 1)  # x^2 - 3: half-integral valuations
@example(([F(-2), F(0), F(1)], 5), 1)  # x^2 - 2 at 5: nonsquare unit discriminant
@example(([F(5), F(-6), F(1)], 5), 1)  # (x - 1)(x - 5): unequal valuations
@example(([F(1), F(-2), F(1)], 7), 1)  # (x - 1)^2: discriminant 0
def test_rank2_eigenvalue_test_matches_its_case_analysis(case, threshold):
    cp, p = case
    assert _qp_eigenvalue_below(cp, p, F(threshold)) == (
        admissibility_reference.qp_eigenvalue_below(cp, p, F(threshold))
    )


def rank2_module(spec) -> FilteredPhiModule:
    """The rank-2 module of a spec (p, E, r, s, alpha, beta, jordan, v, w,
    basis): Frobenius P J P^-1 for P = (v | w) and J = [[alpha, jordan],
    [0, beta]], so that v spans a stable line of eigenvalue alpha, and
    jumps r <= s with the middle line spanned by the vectors of ``basis``
    (coordinate lists on 1, pi, ..., not yet reduced by E) when r < s."""
    p, E, r, s, alpha, beta, jordan, v, w, basis = spec
    P = [[v[0], w[0]], [v[1], w[1]]]
    frob = mat_mul(mat_mul(P, [[F(alpha), F(jordan)], [F(0), F(beta)]]), matrix_inverse(P))
    filtration = [(r, [[1, 0], [0, 1]])] + ([(s, basis)] if r < s else [])
    return FilteredPhiModule(BaseFieldK(p, E), frob, filtration)


@st.composite
def rank2_spec(draw):
    """A spec for ``rank2_module`` with t_H = t_N: p in {2, 3, 5, 7}, e in
    {1, 2}, eigenvalue valuations with v(alpha) + v(beta) = r + s, equal
    eigenvalues (scalar or a Jordan block) when the valuations allow, and
    the middle line the eigenline of alpha or of beta, another rational
    line or a line over K, each times a nonzero scalar of K, and sometimes
    listed beside a K-multiple of it (zero among them), in either order."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    unit = st.integers(1, 20).filter(lambda n: n % p)
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        E = [-p, 1]
    else:
        E = [-p * draw(unit), p * draw(small), 1]
    r = draw(st.integers(-2, 2))
    s = r + draw(st.integers(0, 3))
    va = draw(st.integers(r - 1, s + 1))

    def eigenvalue(v):
        return draw(st.sampled_from((1, -1))) * F(draw(unit), draw(unit)) * F(p) ** v

    alpha = eigenvalue(va)
    equal = 2 * va == r + s and draw(st.booleans())
    beta = alpha if equal else eigenvalue(r + s - va)
    jordan = int(equal and draw(st.booleans()))
    v, w = [draw(small), draw(small)], [draw(small), draw(small)]
    assume(v[0] * w[1] != v[1] * w[0])
    kind = draw(st.sampled_from(("alpha", "beta", "rational", "K")))
    if kind == "K":
        entries = [[draw(small)], [0, draw(small)]]  # x + y pi, over Q only when e = 1
    else:
        entries = [[x] for x in {"alpha": v, "beta": w, "rational": [draw(small), draw(small)]}[kind]]
    assume(any(any(x) for x in entries))
    def times(c, vector):
        # c * vector, as polynomials in pi (the module reduces by E)
        return [[sum(c[i] * x[k - i] for i in range(len(c)) if 0 <= k - i < len(x))
                 for k in range(len(c) + len(x) - 1)] for x in vector]

    line = times([draw(st.integers(1, 3))] + ([draw(small)] if len(E) == 3 else []), entries)
    basis = [line]
    if draw(st.booleans()):
        # any scalar of K, pi = p when e = 1
        basis.insert(draw(st.integers(0, 1)), times([draw(small), draw(small)], line))
    return p, E, r, s, alpha, beta, jordan, v, w, basis


# a stable middle line (the eigenline of alpha) at p = 3 with jumps 0 < 2,
# for each outcome of the old stable-line case: v(alpha) = 1 < s, a
# subobject; v(alpha) = 3 > s, so v(beta) = -1 < r; v(alpha) = s, admissible
STABLE_LINE_CASES = [
    ((3, [-3, 1], 0, 2, F(3), F(6), 0, [1, 0], [0, 1], [[[1], [0]]]), "subobject"),
    ((3, [-3, 1], 0, 2, F(27), F(2, 3), 0, [1, 1], [0, 1], [[[2], [2]]]), "padic_eigenvalue"),
    ((3, [-6, 3, 1], 0, 2, F(9), F(2), 0, [1, 2], [1, 0], [[[1, 1], [2, 2]]]), None),
]


@pytest.mark.parametrize("spec, witness", STABLE_LINE_CASES)
def test_the_rank2_oracle_reaches_each_stable_line_outcome(spec, witness):
    D = rank2_module(spec)
    tH, tN = D.hodge_number(), D.newton_number()
    alpha = spec[4]
    assert tH == tN
    verdict = admissibility_reference.dim2_stable_line(D, tH, tN, 0, 2, spec[7], alpha)
    assert (verdict.witness or {}).get("type") == witness
    assert admissibility_reference.is_admissible(D) == verdict


@settings(max_examples=400, deadline=None)
@given(rank2_spec())
@example(STABLE_LINE_CASES[0][0])
@example(STABLE_LINE_CASES[1][0])
@example(STABLE_LINE_CASES[2][0])
@example((5, [-5, 1], 1, 1, F(5), F(5), 1, [1, 0], [0, 1], [[[1]]]))  # one jump, a Jordan block
@example((2, [-2, 1], 0, 2, F(2), F(2), 0, [1, 0], [0, 1], [[[1], [1]]]))  # scalar: every line stable
# the stable line beside a zero vector, and pi times the line at e = 2
@example((3, [-3, 1], 0, 2, F(3), F(6), 0, [1, 0], [0, 1], [[[0], [0]], [[1], [0]]]))
@example((3, [-6, 3, 1], 0, 2, F(9), F(2), 0, [1, 2], [1, 0], [[[1, 1], [2, 2]], [[0, 1, 1], [0, 2, 2]]]))
def test_rank2_verdict_matches_the_stable_line_oracle(spec):
    D = rank2_module(spec)
    assert D.hodge_number() == D.newton_number()
    assert is_admissible(D).to_json() == admissibility_reference.is_admissible(D).to_json()


# ---------------------------------------------------------------------------
# dimension 3: scan against the brute-force oracle
# ---------------------------------------------------------------------------


def random_dim3_instance(rng, p):
    base = BaseFieldK.qp(p)
    while True:
        # diagonalizable over Q with distinct eigenvalues, then conjugated
        vals = rng.sample(range(-2, 4), 3)
        units = [rng.choice([1, 2, 3]) for _ in range(3)]
        eigs = [F(p) ** v * u for v, u in zip(vals, units)]
        if len(set(eigs)) < 3:
            continue
        P = [
            [F(rng.randrange(-3, 4)) for _ in range(3)]
            for _ in range(3)
        ]
        if _oracle_det(P) == 0:
            continue
        Pinv_frob = None
        D0 = [[eigs[i] if i == j else F(0) for j in range(3)] for i in range(3)]
        # Phi = P D0 P^{-1}
        from period_lab.linalg import mat_mul

        Phi = mat_mul(mat_mul(P, D0), matrix_inverse(P))
        jumps = sorted(rng.sample(range(-2, 4), rng.choice([2, 3])))
        # random strictly decreasing filtration subspaces over Q
        full = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        v1 = [F(rng.randrange(-3, 4)) for _ in range(3)]
        v2 = [F(rng.randrange(-3, 4)) for _ in range(3)]
        if oracle_rank([v1, v2]) < 2:
            continue
        plane = [v1, v2]
        line = [v1]
        if len(jumps) == 3:
            filtration = [(jumps[0], full), (jumps[1], plane), (jumps[2], line)]
        else:
            filtration = [(jumps[0], full), (jumps[1], rng.choice([plane, line]))]
        try:
            D = FilteredPhiModule(base, Phi, filtration)
        except ValueError:
            continue
        eigenlines = []
        cp = char_poly(Phi)
        for lam in sorted(set(rational_roots(cp))):
            from period_lab.linalg import nullspace, poly_eval_matrix

            ker = nullspace(
                [[Phi[i][j] - (lam if i == j else 0) for j in range(3)] for i in range(3)]
            )
            eigenlines.append([[F(x) for x in v] for v in ker])
        if sum(len(l) for l in eigenlines) != 3:
            continue
        return D, eigenlines


def test_dim3_scan_against_brute_force():
    rng = random.Random(103)
    admissible_seen = not_seen = 0
    for _ in range(100):
        D, eigenlines = random_dim3_instance(rng, 3)
        verdict = is_admissible(D)
        assert verdict.status in ("admissible", "not-admissible")
        expected = oracle_dim3_verdict(D, eigenlines)
        assert verdict.status == expected
        if verdict.status == "admissible":
            admissible_seen += 1
        else:
            not_seen += 1
    assert not_seen > 0  # the sample genuinely exercises both branches


def test_dim3_with_irreducible_quadratic_factor():
    # Frobenius = companion(X^2 - 2) plus the scalar 5: stable subspaces
    # are the plane, the line, and their sum
    base = BaseFieldK.qp(5)
    frob = [[F(0), F(1), F(0)], [F(2), F(0), F(0)], [F(0), F(0), F(5)]]
    full = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    e1 = [[1, 0, 0]]
    e3 = [[0, 0, 1]]
    # t_H = 1 via a single extra jump on the scalar line: admissible
    D = FilteredPhiModule(base, frob, [(0, full), (1, e3)])
    assert is_admissible(D).status == "admissible"
    # the same numbers but the extra jump on a line inside the plane:
    # the plane subobject then has t_H = 1 > t_N = v(-2) = 0
    Dbad = FilteredPhiModule(base, frob, [(0, full), (1, e1)])
    verdict = is_admissible(Dbad)
    assert verdict.status == "not-admissible"
    assert verdict.witness["type"] == "subobject"


def test_dim3_undecided_on_repeated_eigenvalues():
    base = BaseFieldK.qp(5)
    full = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    e3 = [[0, 0, 1]]
    plane = [[0, 1, 0], [0, 0, 1]]
    frob = [[F(5), F(1), F(0)], [F(0), F(5), F(0)], [F(0), F(0), F(5) ** 4]]
    D = FilteredPhiModule(base, frob, [(1, full), (2, plane), (3, e3)])
    assert is_admissible(D).status == "undecided"


def _rank_module(p, frob, *steps):
    """Module over Q_p with rational filtration steps (jump, rows)."""
    return FilteredPhiModule(BaseFieldK.qp(p), [[F(x) for x in row] for row in frob], list(steps))


_I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "p, frob, fil1",
    [
        # x^2 + x + 9 (+) 2 at p = 3: x^2 + x + 9 has a unit root in Q_3
        # whose eigenline lies in Fil^1, so t_H = 1 > t_N = 0 on it
        (3, [[0, -9, 0], [1, -1, 0], [0, 0, 2]], [[1, 0, 0], [0, 1, 0]]),
        (5, [[0, -25, 0], [1, -1, 0], [0, 0, 2]], [[1, 0, 0], [0, 1, 0]]),
        (
            3,
            [[0, -9, 0, 0], [1, -1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        ),
    ],
)
def test_qp_split_quadratic_is_not_declared_admissible(p, frob, fil1):
    d = len(frob)
    full = [[int(i == j) for j in range(d)] for i in range(d)]
    verdict = is_admissible(_rank_module(p, frob, (0, full), (1, fil1)))
    assert verdict.status == "undecided"
    assert verdict.witness["type"] == "padically_reducible_factor"


def test_nonsquare_discriminant_stays_decided():
    # x^2 + x + 2 at p = 3: discriminant -7 = 2 mod 3, not a square in Q_3
    frob = [[0, -2, 0], [1, -1, 0], [0, 0, 3]]
    D = _rank_module(3, frob, (0, _I3), (1, [[0, 0, 1]]))
    assert is_admissible(D).status == "admissible"
    bad = _rank_module(3, frob, (0, _I3), (1, [[1, 0, 0]]))
    verdict = is_admissible(bad)
    assert verdict.status == "not-admissible"
    assert verdict.witness["type"] == "subobject"


@pytest.mark.parametrize(
    "p, c0, status",
    [
        (3, 3, "admissible"),  # x^3 - 3: one Newton slope 1/3
        (7, 2, "admissible"),  # x^3 - 2: no cube root of 2 mod 7
        (5, 2, "undecided"),  # x^3 - 2: 3 = cube root of 2 mod 5 lifts to Q_5
    ],
)
def test_cubic_factor_certification(p, c0, status):
    # companion of x^3 - c0 (+) lam with t_N = 1, and Fil^1 a line that
    # meets neither Q-rational stable subspace: admissible over Q
    lam = p ** (1 - rational_valuation(F(c0), p))
    frob = [[0, 0, c0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, lam]]
    full = [[int(i == j) for j in range(4)] for i in range(4)]
    D = _rank_module(p, frob, (0, full), (1, [[1, 0, 0, 1]]))
    assert D.hodge_number() == D.newton_number()
    assert is_admissible(D).status == status


# ---------------------------------------------------------------------------
# tannakian structure
# ---------------------------------------------------------------------------


def random_module(rng, p):
    if rng.random() < 0.5:
        return dim1_module(p, F(p) ** rng.randrange(-2, 3) * rng.choice([1, 2, 3]), rng.randrange(-2, 3))
    r = rng.randrange(-2, 2)
    s = r + rng.randrange(0, 3)
    Phi = None
    while Phi is None:
        cand = [[F(rng.randrange(-6, 7)) for _ in range(2)] for _ in range(2)]
        if _oracle_det(cand) != 0:
            Phi = cand
    if r == s:
        return dim2_module(p, Phi, r, s)
    line = [rng.randrange(-3, 4), rng.randrange(-3, 4)]
    if line == [0, 0]:
        line = [1, 0]
    return dim2_module(p, Phi, r, s, line=line)


def test_tensor_and_dual_numbers():
    rng = random.Random(107)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        D1, D2 = random_module(rng, p), random_module(rng, p)
        T = tensor(D1, D2)
        assert T.hodge_number() == D2.dim * D1.hodge_number() + D1.dim * D2.hodge_number()
        assert T.newton_number() == D2.dim * D1.newton_number() + D1.dim * D2.newton_number()
        Dd = dual(D1)
        assert Dd.hodge_number() == -D1.hodge_number()
        assert Dd.newton_number() == -D1.newton_number()


def test_tensor_with_unit_object():
    p = 5
    unit = dim1_module(p, 1, 0)
    D = dim2_module(p, normal_form(p, 0, 1, F(2), F(5)), 0, 1, line=[1, 0])
    T = tensor(D, unit)
    assert T.hodge_number() == D.hodge_number()
    assert T.newton_number() == D.newton_number()
    assert sorted(T.hodge_tate_weights()) == sorted(D.hodge_tate_weights())


def test_direct_sum_numbers_and_admissibility():
    rng = random.Random(109)
    for _ in range(50):
        p = rng.choice([3, 5])
        k1, k2 = rng.randrange(-2, 3), rng.randrange(-2, 3)
        D1, D2 = dim1_module(p, F(p) ** k1, k1), dim1_module(p, F(p) ** k2, k2)
        S = direct_sum(D1, D2)
        assert S.hodge_number() == k1 + k2
        assert S.newton_number() == k1 + k2
        v = is_admissible(S)
        if v.status != "undecided":
            assert v.status == "admissible"


def change_of_basis(D: FilteredPhiModule, P) -> FilteredPhiModule:
    """Transport the module along an invertible rational matrix P (new
    coordinates = P^{-1} old): conjugated Frobenius, transformed bases."""
    P = [[F(x) for x in row] for row in P]
    Pinv = matrix_inverse(P)
    frob = mat_mul(Pinv, mat_mul(D.frobenius, P))
    # a row v of a step's basis becomes (P^{-1} v)^T = v^T (P^{-1})^T
    steps = [
        (j, mat_mul([[_value(x) for x in v] for v in vecs], list(zip(*Pinv))))
        for j, vecs in filtration(D)
    ]
    return FilteredPhiModule(D.base, frob, steps)


def test_basis_invariance_of_numbers():
    rng = random.Random(113)
    for _ in range(50):
        p = rng.choice([3, 5])
        D = random_module(rng, p)
        P = None
        while P is None:
            cand = [[F(rng.randrange(-3, 4)) for _ in range(D.dim)] for _ in range(D.dim)]
            if _oracle_det(cand) != 0:
                P = cand
        Dc = change_of_basis(D, P)
        assert Dc.hodge_number() == D.hodge_number()
        assert Dc.newton_number() == D.newton_number()
        assert Dc.hodge_tate_weights() == D.hodge_tate_weights()


def test_hodge_tate_weights():
    assert dim1_module(5, 25, 2).hodge_tate_weights() == [-2]
    D = dim2_module(5, normal_form(5, 0, 1, F(2), F(5)), 0, 1, line=[1, 0])
    assert D.hodge_tate_weights() == [-1, 0]
    D2 = dim2_module(5, [[F(5), F(0)], [F(0), F(5)]], 1, 1)
    assert D2.hodge_tate_weights() == [-1, -1]


def test_module_json_roundtrip():
    D = dim2_module(5, normal_form(5, 0, 1, F(2), F(5)), 0, 1, line=[1, 0])
    js = admissibility_reference.module_to_json(D)
    D2 = FilteredPhiModule.from_json(js)
    assert admissibility_reference.module_to_json(D2) == js
    assert is_admissible(D2).status == is_admissible(D).status


def test_filtration_validation():
    base = BaseFieldK.qp(5)
    full = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        FilteredPhiModule(base, [[F(1), F(0)], [F(0), F(0)]], [(0, full)])  # singular
    with pytest.raises(ValueError):
        FilteredPhiModule(base, [[F(1), F(0)], [F(0), F(1)]], [(0, [[1, 0]])])  # not full
    with pytest.raises(ValueError):
        FilteredPhiModule(
            base,
            [[F(1), F(0)], [F(0), F(1)]],
            [(0, full), (0, [[1, 0]])],  # jump repeats
        )
    with pytest.raises(ValueError):
        FilteredPhiModule(
            base,
            [[F(1), F(0)], [F(0), F(1)]],
            [(0, full), (1, full)],  # not strictly decreasing
        )
    # a last step spanned by the zero vector: graded_dims would list (1, 0)
    with pytest.raises(ValueError, match="filtration subspaces must be nonzero"):
        FilteredPhiModule(base, [[F(1), F(0)], [F(0), F(1)]], [(0, full), (1, [[0, 0]])])


def test_ramified_base_field_dim2():
    # K = Q_5(sqrt 5): a filtration line that is not Q_p-rational
    K = BaseFieldK(5, (-5, 0, 1))
    full = [[1, 0], [0, 1]]
    Phi = [[F(0), F(2)], [F(5), F(25)]]
    D = FilteredPhiModule(K, Phi, [(0, full), (1, [[1, [0, 1]]])])
    # char poly X^2 - 25X - 10: Newton slopes 1/2 each, non-integral, so
    # no Q_p-stable lines and the numeric equality decides
    assert is_admissible(D).status == "admissible"
    # same module with a rational stable line of too-small valuation
    D2 = FilteredPhiModule(
        K,
        [[F(1), F(0)], [F(0), F(10)]],
        [(0, full), (1, [[1, 0]])],
    )
    assert is_admissible(D2).status == "not-admissible"


# ---------------------------------------------------------------------------
# the rank-2 stable-line test against the brute force of perfbench/oracles
# ---------------------------------------------------------------------------


@st.composite
def rank2_line_modules(draw):
    """The JSON of a rank-2 module with Frobenius P diag(l1, l2) P^-1 over
    K of degree 1 or 2, jumps r < s with r + s = v(l1 l2), so t_H = t_N,
    and a middle line that is an eigenvector of Frobenius (times a scalar
    of K), a random rational vector, or a random vector over K."""
    p = draw(st.sampled_from([2, 3, 5]))
    e = draw(st.sampled_from([1, 2]))
    # k p + j with 0 < j < p: a unit at p
    units = st.builds(lambda k, j: k * p + j, st.integers(-3, 3), st.integers(1, p - 1))
    unit = draw(units)
    E = [-p * unit, 1] if e == 1 else [-p * unit, 0, 1]
    a, b = draw(st.integers(-1, 2)), draw(st.integers(-1, 2))
    l1, l2 = draw(units) * F(p) ** a, draw(units) * F(p) ** b
    assume(l1 != l2)
    P = draw(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2))
    assume(P[0][0] * P[1][1] != P[0][1] * P[1][0])
    frob = mat_mul(mat_mul(P, [[l1, 0], [0, l2]]), matrix_inverse(P))
    coords = st.lists(st.integers(-3, 3), min_size=e, max_size=e)
    kind = draw(st.sampled_from(["eigenvector", "rational", "over K"]))
    if kind == "eigenvector":
        c = draw(coords)
        c[0] += not any(c)
        line = [[x * y for y in c] for x in modules.column(P, draw(st.integers(0, 1)))]
    elif kind == "rational":
        line = [[x] for x in draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))]
    else:
        line = [draw(coords), draw(coords)]
    assume(any(any(x) for x in line))
    r = draw(st.integers((a + b) // 2 - 2, (a + b - 1) // 2))
    steps = [(r, [[[1], [0]], [[0], [1]]]), (a + b - r, [line])]
    return modules.module(p, E, frob, steps)


@settings(max_examples=200, deadline=None)
@given(rank2_line_modules())
def test_rank2_stable_line_matches_brute_force(obj):
    verdict = is_admissible(FilteredPhiModule.from_json(obj))
    truth = oracles.phimod_truth(obj)
    assert verdict.hodge_number == truth["t_H"] and verdict.newton_number == truth["t_N"]
    if truth["status"] != "unknown":
        assert verdict.status == truth["status"], truth["why"]
    witness = verdict.witness or {}
    if witness.get("type") == "subobject":
        assert oracles._witness_ok(obj, witness["basis"])


# ---------------------------------------------------------------------------
# the depth-first subset scan against the per-mask reference, and its scale
# ---------------------------------------------------------------------------


def _unimodular_moves(draw, d):
    """An integer matrix of determinant 1: the identity after up to 3 d
    random row additions."""
    P = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    moves = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.sampled_from([-2, -1, 1, 2]))
    for i, j, c in draw(st.lists(moves, max_size=3 * d)):
        if i != j:
            P[i] = [a + c * b for a, b in zip(P[i], P[j])]
    return P


@st.composite
def scanned_modules(draw, primes=(2, 3, 5), degrees=(1, 2, 3), ranks=range(3, 9)):
    """A module of rank 3-8 over K of degree 1-3 (or of the given primes,
    degrees and ranks) that reaches the subset scan.  Frobenius is
    P B P^-1, with B diagonal of distinct rational
    eigenvalues plus at most one irreducible quadratic block and P an
    integer matrix of determinant 1, so the columns of P are eigenvectors.
    The filtration is Fil^j = span{v_i : h_i >= j} over a random K-basis
    v, and the eigenvalue valuations are chosen so that t_H = t_N.  A
    planted module has an eigenline of valuation below the top weight as
    its last basis vector, with the top weight, which destabilizes many
    subsets at once, so the least one is the one the scan must report."""
    p = draw(st.sampled_from(primes))
    e = draw(st.sampled_from(degrees))
    d = draw(st.sampled_from(ranks))
    quadratic = draw(st.booleans())
    n_lin = d - 2 if quadratic else d
    planted = n_lin >= 2 and draw(st.booleans())
    # top = 1 keeps weights and most valuations in {0, 1}, which makes
    # admissible modules likely
    top = draw(st.sampled_from([1, 2]))
    weights = draw(st.lists(st.integers(0, top), min_size=d, max_size=d))
    # valuations of the rational eigenvalues; the first is set below so
    # that t_H = t_N
    vals = draw(st.lists(st.integers(top - 2, top), min_size=n_lin, max_size=n_lin))
    if planted:
        line = draw(st.integers(1, n_lin - 1))
        weights[-1] = top
        vals[line] = min(vals[line], top - 1)
    units = draw(
        st.lists(st.integers(1, 40).filter(lambda u: u % p), min_size=n_lin, max_size=n_lin, unique=True)
    )
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n_lin, max_size=n_lin))
    vq = 0
    if quadratic:
        # x^2 + c1 x + c0, irreducible over Q: its discriminant is no square
        c0 = draw(st.sampled_from([1, -1, 2, -2, 7])) * F(p) ** draw(st.integers(-1, 2))
        c1 = F(draw(st.integers(-5, 5)))
        disc = c1 * c1 - 4 * c0
        assume(disc < 0 or isqrt(disc.numerator) ** 2 != disc.numerator
               or isqrt(disc.denominator) ** 2 != disc.denominator)
        vq = rational_valuation(c0, p)
    vals[0] = sum(weights) - sum(vals[1:]) - vq
    B = [[F(0)] * d for _ in range(d)]
    for i in range(n_lin):
        B[i][i] = signs[i] * units[i] * F(p) ** vals[i]
    if quadratic:
        B[d - 2][d - 1], B[d - 1][d - 2], B[d - 1][d - 1] = -c0, F(1), -c1
    P = _unimodular_moves(draw, d)
    frob = mat_mul(mat_mul(P, B), matrix_inverse(P))
    base = BaseFieldK(p, [-p] + [0] * (e - 1) + [1])
    coords = st.lists(st.integers(-3, 3), min_size=e, max_size=e)
    basis = [[draw(coords) for _ in range(d)] for _ in range(d)]
    if planted:
        basis[-1] = [row[line] for row in P]
    steps = [
        (j, [v for v, h in zip(basis, weights) if h >= j]) for j in sorted(set(weights))
    ]
    try:
        return FilteredPhiModule(base, frob, steps)
    except ValueError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(scanned_modules())
def test_depth_first_scan_matches_per_mask_reference(D):
    verdict = is_admissible(D)
    assert verdict.hodge_number == verdict.newton_number
    assert verdict.witness is None or verdict.witness["type"] in (
        "subobject",
        "padically_reducible_factor",
    )
    assert verdict.to_json() == admissibility_reference.is_admissible(D).to_json()


@st.composite
def filtrations_over_k(draw):
    """A module of rank 2-6 over K of degree 1-3, identity Frobenius, with
    Fil^j = span{v_i : h_i >= j} over a random K-basis v."""
    p = draw(st.sampled_from((2, 3, 5)))
    e = draw(st.sampled_from((1, 2, 3)))
    d = draw(st.integers(2, 6))
    coords = st.lists(st.integers(-3, 3), min_size=e, max_size=e)
    basis = [[draw(coords) for _ in range(d)] for _ in range(d)]
    weights = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    steps = [(j, [v for v, h in zip(basis, weights) if h >= j]) for j in sorted(set(weights))]
    base = BaseFieldK(p, [-p] + [0] * (e - 1) + [1])
    try:
        return FilteredPhiModule(base, [[int(i == j) for j in range(d)] for i in range(d)], steps)
    except ValueError:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(filtrations_over_k())
def test_annihilators_match_the_reference_elimination_over_k(D):
    """Each step's annihilator, read off the back substitution of the
    constructor's echelon, is the basis that the reference rref over K
    gives once each vector is divided by its entry at its column."""
    d, e = D.dim, D.base.e
    normalized = [
        [[ref.KElement(D.base, [F(x, v[c]) for x in v[i * e:(i + 1) * e]]) for i in range(d)] for v, c in ann]
        for ann in D._annihilators
    ]
    assert normalized == admissibility_reference.k_annihilators(D)


# ---------------------------------------------------------------------------
# duals, twists and direct sums over a ramified K, whose ranks are taken on
# restricted rows
# ---------------------------------------------------------------------------

ramified_modules = scanned_modules(degrees=(2, 3), ranks=range(3, 6))


def _agree_where_decided(a, b):
    """Both verdicts admissible or both not, unless one is undecided."""
    statuses = (is_admissible(a).status, is_admissible(b).status)
    if "undecided" not in statuses:
        assert statuses[0] == statuses[1]


@settings(max_examples=30, deadline=None)
@given(ramified_modules)
def test_double_dual_and_dual_admissibility_over_ramified_k(D):
    DD = dual(dual(D))
    assert DD.frobenius == D.frobenius
    assert DD._jumps == D._jumps
    assert DD.graded_dims() == D.graded_dims()
    # each step spans the K-space it spanned, by the reference elimination
    for (_, old), (_, new) in zip(filtration(D), filtration(DD)):
        old, new = ([[ref.KElement(D.base, x) for x in v] for v in vecs] for vecs in (old, new))
        assert ref.rank(old) == ref.rank(new) == ref.rank(old + new)
    _agree_where_decided(D, dual(D))


@settings(max_examples=30, deadline=None)
@given(ramified_modules, st.integers(41, 60), st.integers(-1, 2))
def test_direct_sum_and_twist_by_an_admissible_line_over_ramified_k(D, unit, r):
    # L: eigenvalue unit p^r, jump r, admissible; unit > 40 keeps its
    # eigenvalue off those of D, whose units are at most 40
    assume(unit % D.base.p)
    L = FilteredPhiModule(D.base, [[unit * F(D.base.p) ** r]], [(r, [[1]])])
    S, T = direct_sum(D, L), tensor(D, L)
    assert S.hodge_tate_weights() == sorted(D.hodge_tate_weights() + [-r])
    assert T.graded_dims() == [(j + r, g) for j, g in D.graded_dims()]
    # D + L and D (x) L are admissible exactly when D is
    _agree_where_decided(S, D)
    _agree_where_decided(T, D)
    # a product whose candidate steps come from several pairs of jumps
    M = direct_sum(L, dual(L))
    P = tensor(D, M)
    weights = sorted(a + b for a in D.hodge_tate_weights() for b in M.hodge_tate_weights())
    assert P.hodge_tate_weights() == weights
    assert P.newton_number() == 2 * D.newton_number() + D.dim * M.newton_number()


def test_rank_13_direct_sum_decides_within_budget():
    # the rank series of perfbench/scaling.py: eigenvalue 3^(k mod 3) u_k
    # with jump k mod 3 on e_k, for units u_k = 2, 4, 5, 7, ...; the scan
    # meets all 2^13 - 2 proper subsets
    d = 13
    units = [u for u in range(2, 30) if u % 3][:d]
    vals = [k % 3 for k in range(d)]
    base = BaseFieldK.qp(3)
    frob = [[3 ** vals[i] * units[i] if i == j else 0 for j in range(d)] for i in range(d)]
    steps = [
        (j, [[int(i == k) for i in range(d)] for k in range(d) if vals[k] >= j])
        for j in sorted(set(vals))
    ]
    D = FilteredPhiModule(base, frob, steps)
    start = time.perf_counter()
    verdict = is_admissible(D)
    assert time.perf_counter() - start < 1.5
    assert verdict.status == "admissible"


# ---------------------------------------------------------------------------
# the split into direct summands before the walk
# ---------------------------------------------------------------------------


@st.composite
def conjugated_direct_sums(draw):
    """A direct sum of rank 3-10 over K of degree 1 or 2 whose parts, of
    rank 1-4, are built as ``scanned_modules`` builds a module: distinct
    rational eigenvalues (their units distinct over all parts), at most
    one irreducible quadratic block in all, t_H = t_N in each part, and a
    planted eigenline of valuation below the part's top weight in some.
    The sum is then conjugated by a random integer P of determinant 1, so
    that its summands do not show in the coordinates."""
    p = draw(st.sampled_from((2, 3, 5)))
    e = draw(st.sampled_from((1, 2)))
    ranks = []
    while len(ranks) < 2 or sum(ranks) < 3 or (sum(ranks) < 10 and draw(st.booleans())):
        ranks.append(draw(st.integers(1, min(4, 10 - sum(ranks)))))
    d = sum(ranks)
    quadratic = draw(st.sampled_from([None] + [q for q, r in enumerate(ranks) if r >= 3]))
    n_lin = d - 2 * (quadratic is not None)
    units = draw(
        st.lists(st.integers(1, 60).filter(lambda u: u % p), min_size=n_lin, max_size=n_lin, unique=True)
    )
    coords = st.lists(st.integers(-3, 3), min_size=e, max_size=e)
    frob = [[F(0)] * d for _ in range(d)]
    basis, weights = [], []
    offset = 0
    for q, r in enumerate(ranks):
        lin = r - 2 if q == quadratic else r
        planted = lin >= 2 and draw(st.booleans())
        top = draw(st.sampled_from([1, 2]))
        part_weights = draw(st.lists(st.integers(0, top), min_size=r, max_size=r))
        vals = draw(st.lists(st.integers(top - 2, top), min_size=lin, max_size=lin))
        if planted:
            line = draw(st.integers(1, lin - 1))
            part_weights[-1] = top
            vals[line] = min(vals[line], top - 1)
        vq = 0
        B = [[F(0)] * r for _ in range(r)]
        if q == quadratic:
            c0 = draw(st.sampled_from([1, -1, 2, -2, 7])) * F(p) ** draw(st.integers(-1, 2))
            c1 = F(draw(st.integers(-5, 5)))
            disc = c1 * c1 - 4 * c0
            assume(disc < 0 or isqrt(disc.numerator) ** 2 != disc.numerator
                   or isqrt(disc.denominator) ** 2 != disc.denominator)
            vq = rational_valuation(c0, p)
            B[r - 2][r - 1], B[r - 1][r - 2], B[r - 1][r - 1] = -c0, F(1), -c1
        vals[0] = sum(part_weights) - sum(vals[1:]) - vq
        for i in range(lin):
            B[i][i] = draw(st.sampled_from([1, -1])) * units.pop() * F(p) ** vals[i]
        P = _unimodular_moves(draw, r)
        block = mat_mul(mat_mul(P, B), matrix_inverse(P))
        for i in range(r):
            frob[offset + i][offset:offset + r] = block[i]
        part_basis = [[draw(coords) for _ in range(r)] for _ in range(r)]
        if planted:
            part_basis[-1] = [[int(x)] + [0] * (e - 1) for x in (row[line] for row in P)]
        zero = [0] * e
        basis += [[zero] * offset + v + [zero] * (d - offset - r) for v in part_basis]
        weights += part_weights
        offset += r
    Q = _unimodular_moves(draw, d)
    frob = mat_mul(mat_mul(Q, frob), matrix_inverse(Q))
    basis = [
        [[sum(int(a) * x[l] for a, x in zip(row, v)) for l in range(e)] for row in Q] for v in basis
    ]
    steps = [(j, [v for v, h in zip(basis, weights) if h >= j]) for j in sorted(set(weights))]
    try:
        return FilteredPhiModule(BaseFieldK(p, [-p] + [0] * (e - 1) + [1]), frob, steps)
    except ValueError:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(conjugated_direct_sums())
def test_split_walk_matches_the_unsplit_reference(D):
    verdict = is_admissible(D).to_json()
    unsplit = admissibility_reference.least_destabilizing
    with mock.patch.object(filtered_phi, "_least_destabilizing", unsplit):
        assert verdict == is_admissible(D).to_json()


def _split_components(D):
    """(blocks, parts): the primary components that ``is_admissible``
    walks, and their split."""
    cp = D.frobenius_char_poly
    form = monic_integer(cp)
    lead, factors = factor_over_q(cp, certify_squarefree(cp, form), form)
    blocks = [c for c, _ in filtered_phi._primary_components(D, lead, factors)[0]]
    return blocks, filtered_phi._split(filtered_phi._block_products(D, blocks))


def test_the_split_finds_the_planted_summands():
    # the CI frontier payload: 16 rank-1 summands, 16 parts of one block
    rng = random.Random(1)
    lam = [rng.choice((1, -1)) * 3 ** (i % 3) * (3 * i + 1) for i in range(16)]
    summands = [modules.module(3, [-3, 1], [[x]], [(i % 3, [modules.rational_vec([1])])])
                for i, x in enumerate(lam)]
    D = FilteredPhiModule.from_json(modules.direct_sum(summands))
    assert _split_components(D)[1] == [[b] for b in range(16)]
    # the benchmark's large direct sums: the generic filtration line of the
    # rank-2 summand (on the first two coordinates) keeps its two
    # eigenlines in one part, and every rank-1 summand is a part alone
    rng = random.Random(2)
    for d, target in workloads.LARGE_SLOTS:
        D = FilteredPhiModule.from_json(workloads.large_direct_sum(rng, d, target))
        blocks, parts = _split_components(D)
        two = [b for b, block in enumerate(blocks) if not any(x for v in block for x in v[2:])]
        assert len(two) == 2
        assert sorted(parts) == sorted([two] + [[b] for b in range(d) if b not in two])
        assert is_admissible(D).status == "admissible"


def test_the_split_finds_the_summands_in_any_basis():
    # rank-2 summands (eigenbasis (1, 1), (1, 2), the line (1, 0) at jump
    # 1) and rank-1 summands, conjugated by an integer P of determinant
    # +-1: the parts are the summands, and the sum is admissible
    rng = random.Random(3)
    summands = []
    for i in range(7):
        if i % 2:
            summands.append(modules.module(3, [-3, 1], [[3 ** (i % 3) * (3 * i + 1)]],
                                           [(i % 3, [modules.rational_vec([1])])]))
        else:
            frob = modules.conjugate([[1, 1], [1, 2]], [[-(3 * i + 1), 0], [0, 3 * (3 * i + 2)]])
            summands.append(modules.module(3, [-3, 1], frob, modules.hodge_filtration(
                [modules.rational_vec([1, 0]), modules.rational_vec([0, 1])], [1, 0])))
    p, E, frob, steps = modules.parse_module(modules.direct_sum(summands))
    d = len(frob)
    P = modules.unimodular(rng, d, moves=2 * d)
    steps = [(j, [modules.rational_vec([sum(a * x for a, (x,) in zip(row, v)) for row in P])
                  for v in vecs]) for j, vecs in steps]
    D = FilteredPhiModule.from_json(modules.module(p, E, modules.conjugate(P, frob), steps))
    blocks, parts = _split_components(D)
    assert sorted(map(len, parts)) == [1, 1, 1, 2, 2, 2, 2]
    assert is_admissible(D).status == "admissible"


# ---------------------------------------------------------------------------
# reading a module over K = Q_p: rational values against KElements
# ---------------------------------------------------------------------------


@st.composite
def qp_module_json(draw):
    """The JSON of a module over Q_p of rank 1-5 whose basis entries are
    coordinate lists of length 0-3 (["a", "b"] is a + b pi, pi = -E(0)),
    so that both one-coordinate and multi-coordinate entries occur."""
    p = draw(st.sampled_from([2, 3, 5]))
    pi = p * draw(st.sampled_from([1, -1, 2, -4]).filter(lambda u: u % p))
    d = draw(st.integers(1, 5))
    rational = st.builds(F, st.integers(-9, 9), st.integers(1, 4)).map(str)
    frob = draw(st.lists(st.lists(rational, min_size=d, max_size=d), min_size=d, max_size=d))
    entry = st.lists(rational, max_size=3)
    basis = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    weights = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    steps = [
        {"jump": j, "basis": [v for v, h in zip(basis, weights) if h >= j]}
        for j in sorted(set(weights))
    ]
    return {"p": p, "eisenstein": [-pi, 1], "frobenius": frob, "filtration": steps}


@settings(max_examples=150, deadline=None)
@given(qp_module_json())
def test_qp_from_json_matches_the_kelement_path(obj):
    base = BaseFieldK(obj["p"], obj["eisenstein"])
    steps = [
        (s["jump"], [[ref.KElement(base, [F(c) for c in x]).coords for x in v] for v in s["basis"]])
        for s in obj["filtration"]
    ]
    try:
        via_k = FilteredPhiModule(base, [[F(x) for x in row] for row in obj["frobenius"]], steps)
    except ValueError:
        with pytest.raises(ValueError):
            FilteredPhiModule.from_json(obj)
        return
    D = FilteredPhiModule.from_json(obj)
    to_json = admissibility_reference.module_to_json
    assert to_json(D) == to_json(via_k)
    assert is_admissible(D).to_json() == is_admissible(via_k).to_json()
    # each entry is sum c_i pi^i, computed apart from both paths
    pi = -obj["eisenstein"][0]
    for (_, vecs), step in zip(filtration(D), obj["filtration"]):
        for vec, raw in zip(vecs, step["basis"]):
            assert [_value(x) for x in vec] == [
                sum(F(c) * pi**i for i, c in enumerate(coords)) for coords in raw
            ]

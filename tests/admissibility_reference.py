"""Reference admissibility scan for the tests: the per-mask scan that the
depth-first walk of ``period_lab.filtered_phi`` replaced, kept word for
word in what it computes.  Every subset of primary components is
rebuilt, its denominators cleared, and each filtration step's
intersection dimension taken from one rank from scratch, over K with the
Fraction and KElement elimination of ``linalg_reference`` on KElements
built from the module's coordinate tuples, so that it shares nothing
with the restriction of scalars the module's scan runs on.  The oracle
tests compare its verdict and witness with ``is_admissible``.

``qp_eigenvalue_below`` is the rank-2 eigenvalue test as it read before
it was reduced to ``qp_irreducible``: it decides with its own slope and
discriminant cases whether the quadratic splits over Q_p.  The rank-2
verdict (``dim2_admissible``) is the one of ``filtered_phi`` before its
stable-line case was folded into the eigenvalue test: a rational
Frobenius-stable middle line is decided on its own
(``dim2_stable_line``), from both eigenvalues, and whether the middle
line is defined over Q_p is read off the coordinates of a vector listed
for it (``line_is_rational``), not off its annihilator.

``module_to_json`` writes a module as the object that
``FilteredPhiModule.from_json`` reads, for the round-trip tests; no
command prints one.

``char_poly``, ``poly_eval_cleared``, ``rational_roots`` and
``factor_over_q`` are the Fraction pipeline of the rank >= 3 scan that
the integer factorization of ``period_lab.linalg`` replaced, word for
word: the scan here factors with them, and the tests compare the
integer factors, components and t_N with theirs.  A module keeps int
coordinates as ints, so the rank-2 verdict converts the coordinates it
reads with ``Fraction`` before dividing them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

import linalg_reference as ref
from period_lab.filtered_phi import (
    ADMISSIBLE,
    NOT_ADMISSIBLE,
    UNDECIDED,
    AdmissibilityVerdict,
)
from period_lab.linalg import (
    _monic_integer,
    clear_denominators,
    is_squarefree,
    mat_mul,
    nullspace,
    poly_deflate,
    poly_eval_matrix,
    squarefree_certificate,
    squarefree_part,
)
from period_lab.padic import format_rational, is_probable_prime, rational_valuation
from period_lab.padic_poly import (
    hensel_integer_roots,
    is_padic_square,
    is_squarefree_mod_p,
    poly_eval,
    qp_irreducible,
    root_valuations,
)


def qp_eigenvalue_below(cp, p, threshold) -> Optional[dict]:
    """A witness that some Q_p-rational eigenvalue of the quadratic cp has
    valuation < threshold, or None."""
    c0, c1 = cp[0], cp[1]
    v_small, v_large = root_valuations(cp, p)
    if v_small >= threshold:
        return None
    if v_small != v_large:
        # two distinct integer slopes: the polynomial splits over Q_p
        return {"type": "padic_eigenvalue", "valuation": format_rational(v_small)}
    # equal valuations: roots live in Q_p iff the discriminant is a square
    if v_small.denominator != 1:
        return None  # non-integral valuation: no Q_p roots at all
    disc = c1 * c1 - 4 * c0
    if disc == 0 or is_padic_square(disc, p):
        return {"type": "padic_eigenvalue", "valuation": format_rational(v_small)}
    return None


def line_is_rational(vecs) -> Optional[list]:
    """A rational direction vector of a K-line, or None, read off the
    coordinates of the first nonzero vector listed for it.

    Valid because the uniformizer powers are a Q_p-basis of K: the line
    descends to Q_p iff every entry is a rational multiple q of a nonzero
    entry (the pivot), that is iff its coordinates are q times the
    pivot's, and then (q) spans it.
    """
    w = next(v for v in vecs if any(v))
    pivot = next(x for x in w if x)
    k = len(pivot) - 1  # the pivot's last coordinate is nonzero
    scaled = []
    for x in w:
        q = (x[k] if len(x) > k else 0) / pivot[k]
        if [*x, *[0] * (len(pivot) - len(x))] != [q * c for c in pivot]:
            return None
        scaled.append(q)
    return scaled


def dim2_admissible(D, tH, tN) -> AdmissibilityVerdict:
    p = D.base.p
    cp = D.frobenius_char_poly
    jumps = D.graded_dims()
    if len(jumps) == 1:
        r = s = jumps[0][0]
    else:
        (r, _), (s, _) = jumps
        # the module keeps int coordinates as ints, which / would make floats
        line_vec = line_is_rational([[tuple(map(Fraction, x)) for x in v] for v in D._vectors[1]])
        if line_vec is not None:
            # the (rational) filtration line v is Frobenius-stable iff
            # Phi v = alpha v, alpha read at the first nonzero entry of v
            img = [y for (y,) in mat_mul(D.frobenius, [[x] for x in line_vec])]
            k = next(i for i, x in enumerate(line_vec) if x)
            alpha = img[k] / line_vec[k]
            if img == [alpha * x for x in line_vec]:
                return dim2_stable_line(D, tH, tN, r, s, line_vec, alpha)
    # every Q_p-stable line carries induced jump r (none can equal the
    # middle line), so the only constraint is on eigenvalue valuations
    witness = qp_eigenvalue_below(cp, p, Fraction(r))
    if witness is not None:
        return AdmissibilityVerdict(NOT_ADMISSIBLE, tH, tN, witness)
    return AdmissibilityVerdict(ADMISSIBLE, tH, tN)


def dim2_stable_line(D, tH, tN, r, s, line_vec, alpha) -> AdmissibilityVerdict:
    """The filtration line is rational and Frobenius-stable with rational
    eigenvalue alpha; the complementary eigenvalue is det/alpha."""
    p = D.base.p
    va = rational_valuation(alpha, p)
    beta = D.frobenius_det / alpha
    vb = rational_valuation(beta, p)
    if va < s:
        # also when alpha = beta: t_N = 2 v(alpha) = r + s < 2s
        witness = {"type": "subobject", "basis": [[format_rational(x) for x in line_vec]]}
        return AdmissibilityVerdict(NOT_ADMISSIBLE, tH, tN, witness)
    if vb < r:
        return AdmissibilityVerdict(
            NOT_ADMISSIBLE,
            tH,
            tN,
            {"type": "padic_eigenvalue", "valuation": format_rational(Fraction(vb))},
        )
    # with t_H = t_N these force v(alpha) = s, v(beta) = r exactly
    assert va == s and vb == r
    return AdmissibilityVerdict(ADMISSIBLE, tH, tN)


@lru_cache(maxsize=16)
def k_annihilators(D) -> list:
    """Per filtration step, a K-basis of its annihilator, by the reference
    elimination over K on the step's basis as reference KElements."""
    return [
        ref.nullspace([[ref.KElement(D.base, x) for x in v] for v in vecs])
        for vecs in D._vectors
    ]


def intersection_dims(D, subspace_rows) -> list:
    """dim(W_K ∩ F) for each filtration step F, W the span of the
    rational rows.  For a step F with annihilator basis N over K, the map
    w -> (w . n)_n on W_K has kernel W_K ∩ F, so dim(W_K ∩ F) is dim W -
    rank_K(W N)."""
    W, _ = clear_denominators(subspace_rows)
    dim_w = ref.rank(W)
    zero = ref.KElement(D.base, ())
    return [
        dim_w - ref.rank([[sum((a * x for a, x in zip(w, n)), zero) for n in ann] for w in W])
        for ann in k_annihilators(D)
    ]


def is_admissible(D) -> AdmissibilityVerdict:
    tH = D.hodge_number()
    tN = D.newton_number()
    if tH != tN:
        return AdmissibilityVerdict(NOT_ADMISSIBLE, tH, tN, {"type": "hodge_newton_mismatch"})
    d = D.dim
    if d == 1:
        return AdmissibilityVerdict(ADMISSIBLE, tH, tN)
    if d == 2:
        return dim2_admissible(D, tH, tN)
    cp = D.frobenius_char_poly
    if not is_squarefree(cp):
        return AdmissibilityVerdict(UNDECIDED, tH, tN, {"type": "repeated_eigenvalues"})
    factors = factor_over_q(cp)
    if factors is None:
        return AdmissibilityVerdict(
            UNDECIDED, tH, tN, {"type": "unfactored_characteristic_polynomial"}
        )
    components = [nullspace(poly_eval_matrix(f, D.frobenius)) for f in factors]
    integral = [clear_denominators(c)[0] for c in components]
    newton = [rational_valuation(f[0], D.base.p) for f in factors]
    k = len(components)
    for mask in range(1, 2**k - 1):
        chosen = [i for i in range(k) if mask >> i & 1]
        rows = [row for i in chosen for row in integral[i]]
        sub_tH = D.induced_hodge_number(intersection_dims(D, rows))
        if sub_tH > sum(newton[i] for i in chosen):
            rows = [row for i in chosen for row in components[i]]
            return AdmissibilityVerdict(
                NOT_ADMISSIBLE,
                tH,
                tN,
                {
                    "type": "subobject",
                    "basis": [[format_rational(x) for x in row] for row in rows],
                },
            )
    for f in factors:
        if not qp_irreducible(f, D.base.p):
            return AdmissibilityVerdict(
                UNDECIDED,
                tH,
                tN,
                {
                    "type": "padically_reducible_factor",
                    "factor": [format_rational(c) for c in f],
                },
            )
    return AdmissibilityVerdict(ADMISSIBLE, tH, tN)


def module_to_json(D) -> dict:
    """A filtered phi-module as JSON; each basis entry lists its
    coordinates on 1, pi, pi^2, ..."""

    def k_json(x: tuple):
        return [format_rational(c) for c in x] or ["0"]

    return {
        "p": D.base.p,
        "eisenstein": list(D.base.eisenstein),
        "dim": D.dim,
        "frobenius": [[format_rational(x) for x in row] for row in D.frobenius],
        "filtration": [
            {"jump": j, "basis": [[*map(k_json, vec)] for vec in vecs]}
            for j, vecs in D.filtration
        ],
    }


# ---------------------------------------------------------------------------
# the Fraction pipeline of the rank >= 3 scan that the integer one of
# period_lab.linalg replaced, word for word: the characteristic polynomial
# from the product B I on, the rational roots deflated out of the
# polynomial over Fractions, Horner's rule from c_k I, and the factors as
# monic rational polynomials
# ---------------------------------------------------------------------------


def char_poly(A, D: int = 1) -> list:
    """Characteristic polynomial det(XI - A / D) of a rational matrix A
    (or of the pair that ``clear_denominators`` returns), monic, lowest
    degree first, by the Faddeev-LeVerrier recurrence.

    With A / D = B / D' for an integer matrix B, the recurrence runs on B
    in ints, where its divisions by k are exact, and the coefficient of
    X^k is the one of B divided by D'^(n-k)."""
    n = len(A)
    B, scale = clear_denominators(A)
    D *= scale
    c = [0] * (n + 1)
    c[n] = 1
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += c[n - k + 1]
        M = mat_mul(B, M)
        c[n - k] = -sum(M[i][i] for i in range(n)) // k
    return [Fraction(ck, D ** (n - k)) for k, ck in enumerate(c)]


def poly_eval_cleared(coeffs, B, D):
    """(C, den) with coeffs(B / D) = C / den, for an integer matrix B and
    an integer D > 0 (the pair of ``clear_denominators``) and C an
    integer matrix.

    With coeffs = c / L for integers, coeffs(B / D) is sum c_j D^(k-j)
    B^j over L D^k (k the degree), and the sum is run by Horner's rule on
    B in ints."""
    n = len(B)
    (c,), L = clear_denominators([coeffs])
    k = len(c) - 1
    acc = [[0] * n for _ in range(n)]
    for j in range(k, -1, -1):
        if j < k:
            acc = mat_mul(acc, B)
        term = c[j] * D ** (k - j)
        for i in range(n):
            acc[i][i] += term
    return acc, L * D ** max(k, 0)


def rational_roots(coeffs, ell: int | None = None) -> list:
    """All rational roots (with multiplicity) of a rational polynomial.

    Zeros come first; the other roots follow sorted by (denominator,
    |numerator|, positive first), equal roots adjacent.  That is the
    order in which a search over the candidates p/q of the rational root
    theorem meets them, and it fixes the order of the primary components
    in the admissibility scan.

    Hensel lifting with an exact check (von zur Gathen-Gerhard, *Modern
    Computer Algebra*, ch. 15) instead of a search over divisors, so the
    work is polynomial in the bit-size of the coefficients: with y =
    lead * x the integer polynomial becomes monic (``_monic_integer``),
    whose rational roots are integers dividing its constant term.  It is
    taken modulo a prime l at which it is squarefree, so every residue
    root is simple: ``ell``, the ``squarefree_certificate`` the caller
    may pass, else that of a, else the least prime at which the
    squarefree part over Q (one exact gcd with the derivative) stays
    squarefree, and then multiplicities come from deflating a.  The
    roots are lifted to l^k > 2 |constant term| and checked exactly.
    """
    a = [Fraction(c) for c in coeffs]
    while a and a[-1] == 0:
        a.pop()
    if not a:
        raise ValueError("zero polynomial")
    zeros = next(i for i, c in enumerate(a) if c)
    a = a[zeros:]
    if len(a) == 1:
        return [Fraction(0)] * zeros
    monic, lead = _monic_integer(a)
    if ell is None:
        ell = squarefree_certificate(a)
    squarefree = ell is not None
    if not squarefree:
        monic = [int(c) for c in squarefree_part([Fraction(c) for c in monic])]
        ell = 2
        while not (is_probable_prime(ell) and is_squarefree_mod_p(monic, ell)):
            ell += 1
    # every integer root divides monic[0], which is nonzero
    k = 1
    while ell**k <= 2 * abs(monic[0]):
        k += 1
    found = []
    for y in hensel_integer_roots(monic, ell, k):
        if poly_eval(monic, y) == 0:
            x = Fraction(y, lead)
            found.append(x)
            # a root of the squarefree part may be a multiple root of a
            while not squarefree and poly_eval(a := poly_deflate(a, x), x) == 0:
                found.append(x)
    found.sort(key=lambda x: (x.denominator, abs(x.numerator), x < 0))
    return [Fraction(0)] * zeros + found


def factor_over_q(cp, ell=None) -> list | None:
    """Monic irreducible factors over Q (lowest degree first), or None when
    the elementary method (root deflation + 'degree <= 3 without rational
    roots is irreducible') cannot certify the factorization.  ``ell`` is
    the squarefree certificate of cp, or None."""
    work = [Fraction(c) for c in cp]
    factors = []
    for root in rational_roots(work, ell):
        factors.append([-root, Fraction(1)])
        work = poly_deflate(work, root)
    deg = len(work) - 1
    if deg == 0:
        return factors
    if deg <= 3:
        lead = work[-1]
        factors.append([c / lead for c in work])
        return factors
    return None

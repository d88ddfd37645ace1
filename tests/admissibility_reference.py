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
    clear_denominators,
    factor_over_q,
    is_squarefree,
    mat_mul,
    nullspace,
    poly_eval_matrix,
)
from period_lab.padic import format_rational, rational_valuation
from period_lab.padic_poly import is_padic_square, qp_irreducible, root_valuations


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
        line_vec = line_is_rational(D._vectors[1])
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

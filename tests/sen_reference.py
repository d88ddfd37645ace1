"""Reference Sen path for the tests: the Fraction-per-scalar code that the
integer implementations in ``linalg`` and ``characters`` replaced, kept
word for word in what it computes: the operator as the exact truncated
series, its Hodge-Tate verdict, and Hensel roots found by a scan of every
residue.  The tests compare the package's operator with it mod p^s, and
the package's verdicts with its verdicts.

Helpers that the integer rewrite left unchanged (rational gcd, squarefree
test, valuations, the operator and verdict dataclasses) come from the
package.
"""

from __future__ import annotations

from fractions import Fraction

from period_lab.characters import (
    HodgeTateVerdict,
    SenInput,
    SenOperator,
    _log_margin,
)
from period_lab.linalg import _poly_divmod_q, is_squarefree, poly_derivative, poly_gcd_q
from period_lab.padic import rational_valuation


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [
        [sum((A[i][t] * B[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def char_poly(A) -> list:
    """Faddeev-LeVerrier over Fractions."""
    n = len(A)
    c = [Fraction(0)] * (n + 1)
    c[n] = Fraction(1)
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += c[n - k + 1]
        M = mat_mul(A, M)
        tr = sum((M[i][i] for i in range(n)), Fraction(0))
        c[n - k] = -tr / Fraction(k)
    return c


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deflate(coeffs, root):
    out = []
    acc = Fraction(0)
    for c in reversed(coeffs[1:]):
        acc = acc * root + c
        out.append(acc)
    out.reverse()
    return out


def poly_eval_matrix(coeffs, A):
    n = len(A)
    out = [[Fraction(0)] * n for _ in range(n)]
    power = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k, ck in enumerate(coeffs):
        if ck:
            for i in range(n):
                for j in range(n):
                    out[i][j] += ck * power[i][j]
        if k + 1 < len(coeffs):
            power = mat_mul(power, A)
    return out


def hensel_integer_roots(coeffs, p, precision):
    """Residue roots by a scan of every residue in range(p)."""
    if any(rational_valuation(c, p) < 0 for c in coeffs if c):
        return None
    modulus = p ** max(precision, 1)
    ints = [c.numerator * pow(c.denominator, -1, modulus) % modulus for c in coeffs]
    deriv = [(i * c) % modulus for i, c in enumerate(ints)][1:]

    def ev(poly, x, mod):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % mod
        return acc

    roots = []
    for r in range(p):
        if ev(ints, r, p) != 0:
            continue
        if ev(deriv, r, p) == 0:
            return None
        x, mod = r, p
        while mod < modulus:
            mod = min(mod * mod, modulus)
            fx = ev(ints, x, mod)
            dx = ev(deriv, x, mod)
            x = (x - fx * pow(dx, -1, mod)) % mod
        roots.append(x if x <= modulus // 2 else x - modulus)
    return roots


def sen_operator(inp: SenInput, precision: int = 20) -> SenOperator:
    p = inp.p
    r = inp.level
    margin = _log_margin(p)
    d = inp.dim
    delta = [
        [inp.matrix[i][j] - (1 if i == j else 0) for j in range(d)]
        for i in range(d)
    ]
    acc = [[Fraction(0)] * d for _ in range(d)]
    power = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    i = 0
    while True:
        i += 1
        tail_bound = margin * i - rational_valuation(Fraction(i), p)
        if tail_bound > precision:
            break
        power = mat_mul(power, delta)
        if all(x == 0 for row in power for x in row):
            break
        coeff = Fraction((-1) ** (i - 1), i)
        for a in range(d):
            for b in range(d):
                acc[a][b] += coeff * power[a][b]
    scale = Fraction(1, p**r)
    out = tuple(tuple(x * scale for x in row) for row in acc)
    return SenOperator(inp.prime, out, precision - r)


def _minimal_polynomial(A) -> list:
    m = list(char_poly(A))
    while True:
        g = poly_gcd_q(m, poly_derivative(m))
        if len(g) <= 1:
            break
        candidate, rem = _poly_divmod_q(m, g)
        if rem:
            break
        zero = poly_eval_matrix(candidate, A)
        if all(x == 0 for row in zero for x in row):
            m = candidate
        else:
            break
    return m


def hodge_tate_via_sen(op: SenOperator) -> HodgeTateVerdict:
    A = [list(row) for row in op.matrix]
    d = len(A)
    cp = char_poly(A)
    exact_roots = []
    work = list(cp)
    found = True
    while found and len(work) > 1:
        found = False
        for m in range(-64, 65):
            if poly_eval(work, Fraction(m)) == 0:
                exact_roots.append(Fraction(m))
                work = poly_deflate(work, Fraction(m))
                found = True
                break
    weights = [int(r) for r in exact_roots]
    if len(work) > 1:
        lifted = hensel_integer_roots(work, op.p, op.precision)
        if lifted is None or len(lifted) != len(work) - 1:
            return HodgeTateVerdict("indeterminate", None, None)
        weights.extend(lifted)
    if len(weights) != d:
        return HodgeTateVerdict("indeterminate", None, None)
    if exact_roots and len(set(exact_roots)) < len(exact_roots):
        semisimple = is_squarefree(_minimal_polynomial(A))
    else:
        semisimple = True
    status = "hodge-tate" if semisimple else "not-hodge-tate"
    generalized = tuple(exact_roots) if len(exact_roots) == d else None
    return HodgeTateVerdict(status, generalized, tuple(sorted(weights)))


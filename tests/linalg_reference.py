"""Reference elimination for the tests: the Gaussian elimination over
Fractions (and KElements) that the fraction-free one in ``period_lab.linalg``
replaced, kept word for word in what it computes, with the functions built
on it.  The oracle tests run both on the same inputs and compare values
and entry types.
"""

from __future__ import annotations

from fractions import Fraction

from period_lab.linalg import mat_mul


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def solve_right(A, b):
    """One solution x of A x = b, or None."""
    n, m = len(A), len(A[0])
    aug = [list(A[i]) + [b[i]] for i in range(n)]
    echelon, pivots = rref(aug)
    if m in pivots:
        return None
    x = [Fraction(0) * A[0][0]] * m
    for row, pivot in zip(echelon, pivots):
        x[pivot] = row[-1]
    return x


def poly_eval_matrix(coeffs, A):
    """coeffs(A) for a rational polynomial, lowest degree first."""
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


def nullspace(A) -> list:
    """Basis of the right kernel (works over Q and over K)."""
    m = len(A[0]) if A else 0
    echelon, pivots = rref(A)
    zero = Fraction(0) * A[0][0] if A else Fraction(0)
    one = zero + 1
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * m
        v[fc] = one
        for row, pivot in zip(echelon, pivots):
            v[pivot] = -row[fc]
        basis.append(v)
    return basis

"""Reference elimination for the tests: the Gaussian elimination over
Fractions (and KElements) that the fraction-free one in ``period_lab.linalg``
replaced, kept word for word in what it computes, with the functions built
on it.  The oracle tests run both on the same inputs and compare values
and entry types.

``KElement`` is the reference scalar type of K = Q[pi]/(E): the element
arithmetic that ``period_lab`` replaced by coordinate tuples and
restriction of scalars.  It reduces by E itself, so an oracle built on it
shares no code with ``period_lab.linalg.restrict_scalars``.
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


class KElement:
    """A polynomial in the uniformizer of ``field`` (anything with the
    integer coefficients ``eisenstein`` of a monic E, lowest degree first),
    reduced to degree < e with trailing zeros dropped."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        E = field.eisenstein
        e = len(E) - 1
        coords = [c if type(c) is Fraction else Fraction(c) for c in coords]
        while len(coords) > e:
            top = coords.pop()
            if top:
                for i, c in enumerate(E[:-1]):
                    coords[len(coords) - e + i] -= top * c
        while coords and not coords[-1]:
            coords.pop()
        self.coords = tuple(coords)

    def __bool__(self) -> bool:
        return bool(self.coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = KElement(self.field, (other,))
        if not isinstance(other, KElement):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def _coerce(self, other) -> "KElement":
        if isinstance(other, KElement):
            if other.field != self.field:
                raise ValueError("mixed base fields")
            return other
        return KElement(self.field, (other,))

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coords), len(other.coords))
        a = list(self.coords) + [Fraction(0)] * (n - len(self.coords))
        for i, c in enumerate(other.coords):
            a[i] += c
        return KElement(self.field, a)

    __radd__ = __add__

    def __neg__(self):
        return KElement(self.field, [-c for c in self.coords])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, KElement):
            # a rational scalar scales the coordinates
            return KElement(self.field, [c * other for c in self.coords])
        if other.field != self.field:
            raise ValueError("mixed base fields")
        if not (self and other):
            return KElement(self.field, ())
        out = [Fraction(0)] * (len(self.coords) + len(other.coords) - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    out[i + j] += a * b
        return KElement(self.field, out)

    __rmul__ = __mul__

    def inverse(self) -> "KElement":
        """The y with x y = 1: one e x e system, whose columns are the
        coordinates of x pi^j (E is irreducible, so it is invertible)."""
        if not self:
            raise ZeroDivisionError("zero has no inverse")
        if len(self.coords) == 1:
            return KElement(self.field, (1 / self.coords[0],))
        e = len(self.field.eisenstein) - 1
        cols = [KElement(self.field, [0] * j + list(self.coords)).coords for j in range(e)]
        M = [[c[i] if i < len(c) else Fraction(0) for c in cols] for i in range(e)]
        return KElement(self.field, solve_right(M, [Fraction(1)] + [Fraction(0)] * (e - 1)))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        # other is a rational scalar, as in 1 / x
        return self.inverse() * other

    def __repr__(self):
        return "K(" + ", ".join(map(str, self.coords)) + ")"

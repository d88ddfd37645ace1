"""Exact linear algebra for the benchmark's input builders and oracles.

Written apart from period_lab on purpose: an oracle that reused the
program's own row reduction would agree with the program's bugs.  Entries
are ``fractions.Fraction`` or ``NumberFieldElement``; every routine uses
only +, -, *, / and truth testing, so both kinds work.
"""

from __future__ import annotations

from fractions import Fraction


def vp(x, p: int):
    """p-adic valuation of a nonzero rational (None for zero)."""
    x = Fraction(x)
    if not x:
        return None
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def echelon(rows):
    """Reduced row echelon form: (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
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
    return len(echelon(rows)[0]) if rows else 0


def nullspace(rows, ncols: int, one=Fraction(1)):
    """Basis of {v : rows . v = 0}."""
    if not rows:
        return [[one if i == j else one * 0 for j in range(ncols)] for i in range(ncols)]
    ech, pivots = echelon(rows)
    zero = one * 0
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[free] = one
        for row, pc in zip(ech, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def mat_mul(A, B):
    return [
        [sum((A[i][k] * B[k][j] for k in range(len(B))), A[i][0] * 0) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def mat_vec(A, v):
    return [sum((a * x for a, x in zip(row, v)), v[0] * 0) for row in A]


def transpose(A):
    return [list(c) for c in zip(*A)]


def identity(n: int):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def inverse(A):
    n = len(A)
    aug = [list(A[i]) + identity(n)[i] for i in range(n)]
    ech, pivots = echelon(aug)
    if pivots[:n] != list(range(n)) or len(ech) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in ech]


def det(A) -> Fraction:
    """Determinant by Gaussian elimination with row swaps."""
    M = [list(map(Fraction, r)) for r in A]
    n = len(M)
    out = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if M[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            out = -out
        out *= M[c][c]
        for i in range(c + 1, n):
            if M[i][c]:
                f = M[i][c] / M[c][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return out


def solve(A, b):
    """One x with A x = b, or None."""
    aug = [list(A[i]) + [b[i]] for i in range(len(A))]
    ech, pivots = echelon(aug)
    m = len(A[0])
    if m in pivots:
        return None
    x = [b[0] * 0] * m
    for row, pc in zip(ech, pivots):
        x[pc] = row[-1]
    return x


def kron(A, B):
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = Fraction(x)
        at += len(b)
    return out


# ---------------------------------------------------------------------------
# polynomials (lowest degree first) and simple number fields Q[x]/(g)
# ---------------------------------------------------------------------------


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(coeffs, x):
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mat_eval(coeffs, A):
    """coeffs(A) for a square matrix A."""
    n = len(A)
    out = [[Fraction(0)] * n for _ in range(n)]
    power = identity(n)
    for c in coeffs:
        out = [[o + c * x for o, x in zip(ro, rx)] for ro, rx in zip(out, power)]
        power = mat_mul(power, A)
    return out


class NumberField:
    """Q[x]/(g) for a monic irreducible g over Q (lowest degree first)."""

    def __init__(self, modulus):
        self.modulus = tuple(Fraction(c) for c in modulus)
        self.degree = len(self.modulus) - 1

    def element(self, coords):
        return NumberFieldElement(self, coords)

    def generator(self):
        return self.element([0, 1])


class NumberFieldElement:
    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        c = [Fraction(x) for x in coords]
        g, n = field.modulus, field.degree
        while len(c) > n:
            top = c.pop()
            if top:
                for i in range(n):
                    c[len(c) - n + i] -= top * g[i]
        while c and not c[-1]:
            c.pop()
        self.field = field
        self.coords = tuple(c)

    def _lift(self, other):
        if isinstance(other, NumberFieldElement):
            return other
        return NumberFieldElement(self.field, [other])

    def __bool__(self):
        return bool(self.coords)

    def __add__(self, other):
        other = self._lift(other)
        n = max(len(self.coords), len(other.coords))
        a = list(self.coords) + [0] * (n - len(self.coords))
        b = list(other.coords) + [0] * (n - len(other.coords))
        return NumberFieldElement(self.field, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, [-x for x in self.coords])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        if not self.coords or not other.coords:
            return NumberFieldElement(self.field, [])
        return NumberFieldElement(self.field, poly_mul(self.coords, other.coords))

    __rmul__ = __mul__

    def inverse(self):
        """Extended Euclid against the modulus."""
        if not self.coords:
            raise ZeroDivisionError("zero in a number field")
        r0, r1 = list(self.field.modulus), list(self.coords)
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, poly_mul(q, s1) if s1 and q else [])
        return NumberFieldElement(self.field, [c / r1[0] for c in s1])

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __eq__(self, other):
        return not (self - other)

    __hash__ = None


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        coef = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] -= coef * bc
        a.pop()
        while a and not a[-1]:
            a.pop()
    return q, a


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    out = [x - y for x, y in zip(a, b)]
    while out and not out[-1]:
        out.pop()
    return out

"""Exact linear algebra over Q and over the model field Q[x]/(E).

The base field K of a filtered Frobenius module is presented by a monic
integer polynomial E of degree e, Eisenstein at p (degree 1 gives K = Q_p
itself, modeled by Q).  An element of K is the tuple of its Fraction
coordinates on the Q_p-basis 1, pi, ..., pi^(e-1), pi the uniformizer,
reduced by E with trailing zeros dropped (``reduce_mod``): zero is (),
and an element lies in Q_p exactly when it has at most one coordinate.
There is no element type: ``reduce_mod`` and ``restrict_scalars`` are
the only code that reduces by E.

Matrices are plain lists of lists of ints or Fractions, and a product
of int matrices stays int.  One elimination serves them all: rational
rows are scaled to integers, and ``extend_echelon`` clears each row at
the pivots of the rows before it, a step replacing row_i by a row_i -
b row_r and dividing out the gcd of the new row.  The rank is the
length of that forward echelon, and it grows by further rows for the
ranks of a family of nested row spaces.  A kernel or rref first clears
each echelon row, from the last up, at the pivots after it (back
substitution), so a kernel comes out as primitive integer vectors
(``integer_kernel``) and no Fraction is formed unless a normalized
basis or rref is asked for.  Characteristic polynomials come from the
Faddeev-LeVerrier recurrence, and polynomials of a matrix from Horner's
rule, both run on the integer matrix left after clearing denominators
once.

K-vectors reach that elimination by restriction of scalars
(``restrict_scalars``): f in K^d becomes the e rows of the Q-matrix of
n -> f . n on K^d = Q^(d e), so a K-span of rank r restricts to rows of
rank e r whose kernel is its annihilator (``restricted_kernel``).

Polynomials over Q are coefficient lists, lowest degree first: gcd,
squarefree test (a certificate mod a small prime first, the exact gcd
only without one), deflation, Hensel lifting of simple roots modulo a
prime power (shared with the Sen weights in ``characters``), and
rational roots by Hensel lifting with an exact check, in time
polynomial in the bit-size of the coefficients.  Polynomials over F_p
are tuples of residues, lowest degree first (shared with the finite
fields of ``tilt``): products and powers modulo a polynomial, gcd,
irreducibility, and roots by Cantor-Zassenhaus, in time polynomial in
log p (below p = 128 each residue is tried).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .padic import Record, _is_probable_prime, centered, residue


class BaseFieldK(Record):
    """A totally ramified extension of Q_p presented by an Eisenstein
    polynomial (monic, integer coefficients; degree 1 means K = Q_p)."""

    __slots__ = ("p", "eisenstein")

    def __init__(self, p: int, eisenstein):
        coeffs = tuple(int(c) for c in eisenstein)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError("need a monic polynomial of degree >= 1")
        if any(c % p for c in coeffs[:-1]):
            raise ValueError("non-leading coefficients must be divisible by p")
        if coeffs[0] % (p * p) == 0:
            raise ValueError("constant term must not be divisible by p^2")
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "eisenstein", coeffs)

    @classmethod
    def qp(cls, p: int) -> "BaseFieldK":
        return cls(p, (-p, 1))

    @property
    def e(self) -> int:
        return len(self.eisenstein) - 1


def reduce_mod(coords, eisenstein) -> tuple:
    """The Fraction coordinates on 1, pi, ..., pi^(e-1) of the polynomial
    in pi with rational coefficients ``coords``, reduced by pi^e =
    -(lower terms of E), trailing zeros dropped: at e = 1 its value."""
    coords = [c if type(c) is Fraction else Fraction(c) for c in coords]
    e = len(eisenstein) - 1
    while len(coords) > e:
        top = coords.pop()
        if top:
            for i, c in enumerate(eisenstein[:-1]):
                coords[len(coords) - e + i] -= top * c
    while coords and not coords[-1]:
        coords.pop()
    return tuple(coords)


def restrict_scalars(vectors, eisenstein) -> list:
    """The integer rows of K-vectors, their entries given as reduced
    coordinate sequences: each vector f, scaled to integer coordinates,
    becomes the e rows of the Q-matrix of n -> f . n, row k holding the
    k-th coordinate of f_i pi^l at column i e + l."""
    e = len(eisenstein) - 1
    rows = []
    for f in vectors:
        scale = lcm(*(c.denominator for x in f for c in x))
        shifts = []
        for x in f:
            x = [c.numerator * (scale // c.denominator) for c in x] + [0] * (e - len(x))
            shifts.append([x])
            for _ in range(e - 1):  # x -> pi x, as pi^e = -(lower terms of E)
                top = x[-1]
                x = [-top * eisenstein[0], *(a - top * b for a, b in zip(x, eisenstein[1:-1]))]
                shifts[-1].append(x)
        rows += ([s[k] for xs in shifts for s in xs] for k in range(e))
    return rows


def restricted_kernel(echelon, d: int, e: int) -> list:
    """A K-basis of the annihilator in K^d of a K-span, from the forward
    echelon (``extend_echelon``) of its restricted rows: the (integer
    kernel vector, free column) pairs at the first column of each block
    of e free columns (they come in whole blocks); each divided by its
    entry there is the basis rref over K gives.  d is passed because the
    echelon of the zero span is empty."""
    return [(v, c) for v, c in zip(*_kernel(echelon, d * e)) if c % e == 0]


def _poly_divmod_q(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        coef = a[-1] * inv
        deg = len(a) - len(b)
        q[deg] = coef
        for i, bc in enumerate(b):
            a[deg + i] -= coef * bc
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return q, a


# ---------------------------------------------------------------------------
# matrices over Q (int or Fraction entries)
# ---------------------------------------------------------------------------


def mat_mul(A, B):
    """The product AB; a product of int matrices stays int."""
    cols = list(zip(*B))
    return [[sum(map(mul, row, col), 0) for col in cols] for row in A]


def _clear_entry(row, top, c):
    """The step of the elimination, which makes the integer row zero at
    column c: a row - b top with a = top[c] and b = row[c], divided by
    the gcd of its entries (fraction free, as Bareiss, Math. Comp. 1968,
    with the row content divided out in place of his exact division)."""
    a, b = top[c], row[c]
    g = gcd(a, b)
    row = [a // g * x - b // g * y for x, y in zip(row, top)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def extend_echelon(echelon, rows) -> list:
    """A forward echelon extended by more integer rows.

    ``echelon`` is a list of (pivot column, row) in which every row is
    zero at the pivots of the rows before it; its length is the rank of
    the rows it was built from.  Each new row is cleared at every pivot
    in turn by ``_clear_entry`` and appended, with its first nonzero
    column as pivot, unless it vanishes.  The result is a new list and
    ``echelon`` is left as it was, so one echelon can be extended in
    several ways."""
    out = list(echelon)
    for row in rows:
        for c, top in out:
            if row[c]:
                row = _clear_entry(row, top, c)
        c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            out.append((c, row))
    return out


def _back_substitute(echelon) -> list:
    """The reduced echelon of a forward echelon, sorted by pivot column:
    each row, from the last up, is cleared at the pivots of the rows after
    it, which are reduced by then, so every row ends zero at every pivot
    but its own."""
    out = []
    for c, row in reversed(echelon):
        for pc, top in out:
            if row[pc]:
                row = _clear_entry(row, top, pc)
        out.append((c, row))
    return sorted(out, key=lambda entry: entry[0])


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices).

    Each integer row of the reduced echelon is divided by its pivot once,
    at the end, so the entries are Fractions."""
    reduced = _back_substitute(extend_echelon([], clear_denominators(rows)[0]))
    return [[Fraction(x, row[c]) for x in row] for c, row in reduced], [c for c, _ in reduced]


def rank(rows) -> int:
    """The rank: the length of the forward echelon."""
    return len(extend_echelon([], clear_denominators(rows)[0]))


def intersect_rowspaces(A, B):
    """Basis of rowspace(A) ∩ rowspace(B) (Zassenhaus)."""
    if not A or not B:
        return []
    n = len(A[0])
    stacked = [list(a) + list(a) for a in A] + [list(b) + [0] * n for b in B]
    echelon, pivots = rref(stacked)
    return [row[n:] for row, pivot in zip(echelon, pivots) if pivot >= n]


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


def clear_denominators(A):
    """(B, D) with A = B / D: B a matrix of ints, D > 0 the lcm of the
    denominators of A's rational entries."""
    D = lcm(*(x.denominator for row in A for x in row))
    return [[x.numerator * (D // x.denominator) for x in row] for row in A], D


def det(A) -> Fraction:
    return char_poly(A)[0] * (-1) ** len(A)


def poly_eval_matrix(coeffs, A):
    """coeffs(A) for a rational polynomial, lowest degree first."""
    C, den = poly_eval_cleared(coeffs, *clear_denominators(A))
    return [[Fraction(x, den) for x in row] for row in C]


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


def nullspace(A) -> list:
    """Basis of the right kernel, one vector per free column c with a 1
    at c and 0 at the other free columns: the integer kernel, each vector
    divided by its entry at c."""
    basis, free = integer_kernel(A)
    return [[Fraction(x, v[c]) for x in v] for v, c in zip(basis, free)]


def integer_kernel(rows):
    """The right kernel of rational rows as primitive integer vectors;
    returns (vectors, free columns).  There is one vector per free column
    c, positive at c and zero at the other free columns, so ``nullspace``
    is each divided by its entry at c."""
    return _kernel(extend_echelon([], clear_denominators(rows)[0]), len(rows[0]) if rows else 0)


def _kernel(echelon, m: int):
    """``integer_kernel`` read off the back substitution of a forward
    echelon of rows of width m."""
    reduced = _back_substitute(echelon)
    pivots = {c for c, _ in reduced}
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        used = [(c, row) for c, row in reduced if row[fc]]
        scale = lcm(*(row[c] for c, row in used))
        v = [0] * m
        v[fc] = scale
        for c, row in used:
            v[c] = -row[fc] * (scale // row[c])
        g = gcd(*v)
        basis.append([x // g for x in v])
    return basis, free


def poly_gcd_q(a, b) -> list:
    """Monic gcd of rational polynomials (lowest degree first)."""
    a, b = list(a), list(b)
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        _, r = _poly_divmod_q(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_derivative(a) -> list:
    return [c * i for i, c in enumerate(a)][1:]


def is_squarefree(a) -> bool:
    return len(poly_gcd_q(a, poly_derivative(a))) <= 1


def squarefree_part(a) -> list:
    """a / gcd(a, a'): the product of the distinct irreducible factors of
    a rational polynomial, with a's leading coefficient."""
    return _poly_divmod_q(a, poly_gcd_q(a, poly_derivative(a)))[0]


# the primes tried for a squarefree certificate; a polynomial whose
# discriminant all of them divide goes to the exact gcd
CERTIFYING_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _monic_integer(a):
    """(g, lead) for a rational polynomial a of degree n >= 1: with f the
    integer multiple of a by the lcm of its denominators and lead its
    leading coefficient, the monic integer g(y) = lead^(n-1) f(y / lead)."""
    n = len(a) - 1
    denom = lcm(*(c.denominator for c in a))
    ints = [c.numerator * (denom // c.denominator) for c in a]
    lead = ints[-1]
    return [c * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1], lead


def squarefree_certificate(a) -> int | None:
    """The least prime l in ``CERTIFYING_PRIMES`` modulo which the monic
    form (``_monic_integer``) of a rational polynomial a is squarefree,
    which proves a squarefree over Q, or None (also when a(0) = 0)."""
    if len(a) < 2 or not a[0] or not a[-1]:
        return None
    g = _monic_integer(a)[0]
    return next((ell for ell in CERTIFYING_PRIMES if _is_squarefree_mod_p(g, ell)), None)


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
        while not (_is_probable_prime(ell) and _is_squarefree_mod_p(monic, ell)):
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


def poly_eval(coeffs, x):
    """coeffs(x) by Horner, lowest degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deflate(coeffs, root) -> list:
    """The quotient of coeffs by (x - root), by synthetic division (in
    ints when coeffs and root are ints)."""
    out = []
    acc = 0
    for c in reversed(coeffs[1:]):
        acc = acc * root + c
        out.append(acc)
    out.reverse()
    return out


def hensel_integer_roots(coeffs, p: int, precision: int) -> list | None:
    """Centered integer representatives of the simple Z_p-roots of a
    p-integral polynomial, certified to p^precision by Hensel lifting,
    in the ascending order of their residues mod p.

    Returns None when the coefficients are not p-integral or some residue
    root mod p is not simple (no certification possible there)."""
    precision = max(precision, 1)
    ints = [residue(c, p, precision) for c in coeffs]
    if None in ints:
        return None
    modulus = p**precision
    deriv = [(i * c) % modulus for i, c in enumerate(ints)][1:]
    residues = _poly_trim(c % p for c in ints)
    if not residues:
        return None  # every residue is a root, and a multiple one

    def ev(poly, x, mod):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % mod
        return acc

    roots = []
    for r in _roots_mod_p(residues, p):
        if ev(deriv, r, p) == 0:
            return None  # multiple residue root: cannot lift simply
        x, mod = r, p
        while mod < modulus:
            mod = min(mod * mod, modulus)
            fx = ev(ints, x, mod)
            dx = ev(deriv, x, mod)
            x = (x - fx * pow(dx, -1, mod)) % mod
        roots.append(centered(x, modulus))
    return roots


# ---------------------------------------------------------------------------
# polynomials over F_p: tuples of residues, lowest degree first
# ---------------------------------------------------------------------------


def _poly_trim(v):
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    return tuple(v)


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_rem(out, mod, p)


def _poly_rem(a, mod, p):
    """The remainder of a on division by mod."""
    a = list(a)
    d = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, d - 1, -1):
        if a[i]:
            q = a[i] * inv_lead % p
            for j, m in enumerate(mod):
                a[i - d + j] = (a[i - d + j] - q * m) % p
    return _poly_trim(a[:d])


def _poly_quo(a, b, p):
    """The quotient of a on division by b."""
    a = list(a)
    d = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    q = [0] * (len(a) - d)
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = a[i + d] * inv_lead % p
        if c:
            for j, m in enumerate(b):
                a[i + j] = (a[i + j] - c * m) % p
    return _poly_trim(q)


def _poly_powmod(base, n, mod, p):
    result = (1,)
    base = _poly_rem(base, mod, p)
    while n:
        if n & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        n >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _x_power_minus_x(n, mod, p):
    """x^n - x modulo mod."""
    probe = list(_poly_powmod((0, 1), n, mod, p)) + [0, 0]
    probe[1] = (probe[1] - 1) % p
    return _poly_trim(probe)


def _roots_mod_p(f, p) -> list:
    """The distinct roots in F_p of a nonzero f, ascending.

    They are the roots of g = gcd(f, x^p - x), a product of distinct
    linear factors, which Cantor-Zassenhaus splits with the shifts
    (x + a)^((p-1)/2) - 1 for a = 0, 1, ... in turn (Cantor-Zassenhaus,
    Math. Comp. 1981).  Two distinct roots are told apart by (p - 1)/2 of
    the p shifts, so a splitting shift always exists and is usually among
    the first few; each costs time polynomial in log p.  Below p = 128,
    where trying each residue costs less (a quarter of the time at
    p = 31 and degree 8), the residues are tried instead."""
    if p < 128:
        return [r for r in range(p) if poly_eval(f, r) % p == 0]
    g = _poly_gcd(f, _x_power_minus_x(p, f, p), p)
    roots = []
    pending = [g]
    while pending:
        g = pending.pop()
        if len(g) < 2:
            continue
        if len(g) == 2:
            roots.append(-g[0] * pow(g[1], -1, p) % p)
            continue
        a = 0
        while True:
            half = list(_poly_powmod((a, 1), (p - 1) // 2, g, p)) or [0]
            half[0] -= 1
            h = _poly_gcd(g, [c % p for c in half], p)
            if 1 < len(h) < len(g):
                pending += [h, _poly_quo(g, h, p)]
                break
            a += 1
    return sorted(roots)


def _is_squarefree_mod_p(f, p) -> bool:
    """True when the integer polynomial f keeps its degree mod p and is
    squarefree there: gcd(f, f') = 1 over F_p, so that every root of f
    mod p is simple."""
    residues = _poly_trim(c % p for c in f)
    if len(residues) != len(f):
        return False
    deriv = [i * c % p for i, c in enumerate(residues)][1:]
    return len(_poly_gcd(residues, deriv, p)) == 1


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _is_irreducible(poly, p):
    f = len(poly) - 1
    x = (0, 1)
    if _poly_powmod(x, p**f, poly, p) != _poly_rem(x, poly, p):
        return False
    for q in _prime_factors(f):
        if len(_poly_gcd(_x_power_minus_x(p ** (f // q), poly, p), poly, p)) > 1:
            return False
    return True

"""Polynomials modulo p, over Z_p and over Q_p: coefficient sequences,
lowest degree first.

Over F_p a polynomial is a tuple of residues (shared with the finite
fields of ``tilt``): products and powers modulo a polynomial, gcd,
irreducibility, and roots by Cantor-Zassenhaus, in time polynomial in
log p (below p = 128 each residue is tried).  Over Z_p, simple roots
are lifted modulo a prime power by Hensel's lemma (shared by the Sen
weights in ``characters`` and the rational roots in ``linalg``).  Over
Q_p, the Newton slopes, read off ``padic.lower_hull``, give the root
valuations, and with them, an exact square test on the discriminant or
an irreducible reduction mod p certify a factor irreducible.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import INF, centered, lower_hull, rational_valuation, residue


def poly_eval(coeffs, x):
    """coeffs(x) by Horner, lowest degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# polynomials over F_p: tuples of residues, lowest degree first
# ---------------------------------------------------------------------------


def poly_trim(v):
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    return tuple(v)


def poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_rem(out, mod, p)


def poly_rem(a, mod, p):
    """The remainder of a on division by mod."""
    a = list(a)
    d = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, d - 1, -1):
        if a[i]:
            q = a[i] * inv_lead % p
            for j, m in enumerate(mod):
                a[i - d + j] = (a[i - d + j] - q * m) % p
    return poly_trim(a[:d])


def poly_quo(a, b, p):
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
    return poly_trim(q)


def poly_powmod(base, n, mod, p):
    result = (1,)
    base = poly_rem(base, mod, p)
    while n:
        if n & 1:
            result = poly_mulmod(result, base, mod, p)
        base = poly_mulmod(base, base, mod, p)
        n >>= 1
    return result


def poly_gcd(a, b, p):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_rem(a, b, p)
    return a


def x_power_minus_x(n, mod, p):
    """x^n - x modulo mod."""
    probe = list(poly_powmod((0, 1), n, mod, p)) + [0, 0]
    probe[1] = (probe[1] - 1) % p
    return poly_trim(probe)


def roots_mod_p(f, p) -> list:
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
    g = poly_gcd(f, x_power_minus_x(p, f, p), p)
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
            half = list(poly_powmod((a, 1), (p - 1) // 2, g, p)) or [0]
            half[0] -= 1
            h = poly_gcd(g, [c % p for c in half], p)
            if 1 < len(h) < len(g):
                pending += [h, poly_quo(g, h, p)]
                break
            a += 1
    return sorted(roots)


def is_squarefree_mod_p(f, p) -> bool:
    """True when the integer polynomial f keeps its degree mod p and is
    squarefree there: gcd(f, f') = 1 over F_p, so that every root of f
    mod p is simple."""
    residues = poly_trim(c % p for c in f)
    if len(residues) != len(f):
        return False
    deriv = [i * c % p for i, c in enumerate(residues)][1:]
    return len(poly_gcd(residues, deriv, p)) == 1


def prime_factors(n):
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


def is_irreducible_mod_p(poly, p):
    f = len(poly) - 1
    x = (0, 1)
    if poly_powmod(x, p**f, poly, p) != poly_rem(x, poly, p):
        return False
    for q in prime_factors(f):
        if len(poly_gcd(x_power_minus_x(p ** (f // q), poly, p), poly, p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# over Z_p: Hensel lifting of simple roots
# ---------------------------------------------------------------------------


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
    residues = poly_trim(c % p for c in ints)
    if not residues:
        return None  # every residue is a root, and a multiple one

    def ev(poly, x, mod):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % mod
        return acc

    roots = []
    for r in roots_mod_p(residues, p):
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
# over Q_p: Newton slopes, squares and irreducibility
# ---------------------------------------------------------------------------


def poly_newton_polygon(coeff_valuations) -> list:
    """Slopes-with-multiplicities of a polynomial's Newton polygon, from
    its (index, valuation) pairs; INF marks a zero coefficient.

    Returns [(slope, length)] in increasing slope order; the slopes are
    the negatives of the root valuations, lengths count roots.  The hull
    keeps no collinear vertex, so no two segments share a slope.
    """
    points = [(i, v) for i, v in coeff_valuations if v is not INF]
    if not points:
        raise ValueError("no finite valuation")
    hull = lower_hull(points)
    return [
        ((y2 - y1) / (x2 - x1), int(x2 - x1))
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    ]


def is_padic_square(x: Fraction, p: int) -> bool:
    """Exact test for x being a square in Q_p (x != 0)."""
    x = Fraction(x)
    if x == 0:
        return True
    v = rational_valuation(x, p)
    if v % 2:
        return False
    unit = x / Fraction(p) ** int(v)
    if p == 2:
        return residue(unit, 2, 3) == 1
    return pow(residue(unit, p, 1), (p - 1) // 2, p) == 1


def root_valuations(f, p) -> list:
    """Root valuations of a monic rational polynomial, ascending, off its
    Newton polygon."""
    points = [(i, rational_valuation(c, p)) for i, c in enumerate(f)]
    return sorted(-slope for slope, n in poly_newton_polygon(points) for _ in range(n))


def qp_irreducible(f, p) -> bool:
    """True when a monic Q-irreducible factor is certified irreducible over
    Q_p; False means only "not certified".

    Degree 2: exactly when the discriminant is not a square in Q_p.
    Otherwise: one Newton slope whose denominator is the degree (every root
    generates a totally ramified extension of that degree), or p-integral
    coefficients with an irreducible reduction mod p (Gauss's lemma)."""
    deg = len(f) - 1
    if deg == 1:
        return True
    if deg == 2:
        return not is_padic_square(f[1] * f[1] - 4 * f[0], p)
    vals = root_valuations(f, p)
    if vals[0] == vals[-1] and vals[0].denominator == deg:
        return True
    residues = tuple(residue(c, p, 1) for c in f)
    return None not in residues and is_irreducible_mod_p(residues, p)

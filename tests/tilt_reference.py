"""Reference tilt evaluation for the tests: theta's and v_flat's graded
pieces computed term by term and, for v_flat, depth by depth in Fractions,
the computation that the per-expression integer rows of
``period_lab.tilt`` replaced.

It shares no helper with the code it checks: root exponents go through
``padic.residue``, Teichmueller parts are read here, and the inverse
Frobenius u^(p^-n) is u^(p^(f - n mod f)), formed by repeated
``FqElement`` multiplication.  Each term is added into its piece by
``CycElt`` addition.

Two readers of a theta value that only the tests use live here too:
``single_cyclotomic`` and ``substitute_root``.
"""

from __future__ import annotations

from fractions import Fraction

from period_lab.cyclotomic import CyclotomicContext
from period_lab.padic import INF, multiplicity, residue
from period_lab.tilt import GradedThetaValue, InexactTeichmullerError


def teichmuller_part(u):
    """(sign, key) of [u]: u = 1 and (p odd) u = -1 are exact signs; any
    other u is carried as the formal key (f, poly)."""
    if u.poly == (1,):
        return 1, None
    if u.f == 1 and u.p != 2 and u.poly == (u.p - 1,):
        return -1, None
    return 1, (u.f, u.poly)


def inverse_frobenius(u, n: int):
    """u^(p^-n) = u^(p^(f - n mod f)): f - (n mod f) p-th powers, each
    taken by p - 1 multiplications."""
    out = u
    for _ in range(u.f - n % u.f):
        power = out
        for _ in range(u.p - 1):
            power = power * out
        out = power
    return out


def root_exponent(a: Fraction, p: int, N: int) -> int:
    """p^N a mod p^N; ValueError when a is finer than level N."""
    E = residue(a * Fraction(p) ** N, p, N)
    if E is None:
        raise ValueError(f"exponent {a} is finer than level {N}")
    return E


def theta_pieces(x, N: int) -> dict:
    """theta(x) at level N: {(fractional p-exponent, key): CycElt}."""
    ctx = CyclotomicContext(x.p, N)
    pieces = {}
    for coeff, a, c, u, i in x.terms:
        E = root_exponent(a, x.p, N)
        frac = c - int(c)
        sign, key = teichmuller_part(u)
        scale = Fraction(coeff * sign) * Fraction(x.p) ** (int(c) + i)
        cur = pieces.get((frac, key), ctx.zero())
        pieces[(frac, key)] = cur + ctx.root_power(E).scale(scale)
    return pieces


def component_pieces(x, n: int) -> dict:
    """The graded pieces of the depth-n component of a p-power-index-0
    expression: eps^a (pflat)^c [u] contributes z^(p^M a/p^n) with z of
    order p^M, M = n + k_max, times p^(c/p^n) times [u^(p^-n)]."""
    p = x.p
    k_max = max((multiplicity(a.denominator, p) for _, a, _, _, _ in x.terms), default=0)
    M = n + k_max
    ctx = CyclotomicContext(p, M)
    pieces = {}
    for coeff, a, c, u, _ in x.terms:
        E = root_exponent(a / Fraction(p) ** n, p, M)
        scale_exp = c / Fraction(p) ** n
        frac = scale_exp - int(scale_exp)
        sign, key = teichmuller_part(inverse_frobenius(u, n))
        scale = Fraction(coeff * sign) * Fraction(p) ** int(scale_exp)
        cur = pieces.get((frac, key), ctx.zero())
        pieces[(frac, key)] = cur + ctx.root_power(E).scale(scale)
    return pieces


def component_value(x, n: int):
    """(p^n v_p of the depth-n component, conclusive): the unique least
    piece valuation below 1, INF when none is below 1, inconclusive on a
    tie or a formal Teichmueller key at the minimum."""
    candidates = []
    for (frac, key), elt in component_pieces(x, n).items():
        v = elt.vp()
        if v is not INF and v + frac < 1:
            candidates.append((v + frac, key))
    if not candidates:
        return INF, True
    candidates.sort(key=lambda t: t[0])
    best_v, best_key = candidates[0]
    tied = len(candidates) > 1 and candidates[1][0] == best_v
    return Fraction(x.p) ** n * best_v, (not tied) and best_key is None


def single_cyclotomic(value):
    """A theta value as one cyclotomic number, when it has no Kummer or
    formal Teichmueller part."""
    live = {k: v for k, v in value.pieces.items() if not v.is_zero()}
    if not live:
        return value.context.zero()
    if set(live) != {(Fraction(0), None)}:
        raise InexactTeichmullerError("value has Kummer or formal Teichmueller pieces")
    return live[(Fraction(0), None)]


def substitute_root(value, m: int):
    """z -> z^m on every piece of a theta value (the Galois action on
    values)."""
    return GradedThetaValue(
        value.context, {k: v.substitute(m) for k, v in value.pieces.items()}, value.exact
    )

"""Exact arithmetic in the p^N-th cyclotomic field (internal plumbing).

Elements are sparse polynomials in a fixed primitive p^N-th root of unity
z, reduced modulo the cyclotomic polynomial

    Phi_{p^N}(x) = 1 + x^{p^{N-1}} + x^{2 p^{N-1}} + ... + x^{(p-1) p^{N-1}}

so exponents live in [0, phi(p^N)).  Two operations matter downstream:

* exact zero test (coefficient-wise after reduction),
* the exact p-adic valuation.

The valuation uses that z - 1 is a uniformizer with v_p(z - 1) =
1/phi(p^N): writing g(z) = sum b_i (z-1)^i with rational b_i and
i < phi(p^N), the candidate valuations v_p(b_i) + i/phi(p^N) are pairwise
distinct (integer part vs fractional part), so the ultrametric minimum is
attained uniquely and

    v_p(g(z)) = min_i ( v_p(b_i) + i/phi(p^N) )

holds exactly, with no cancellation analysis needed.

Coefficients are ints, or Fractions where a caller's scale has a
negative p-power or a denominator; ``_reduce`` keeps whichever it is
given (an int and the equal Fraction compare and hash alike).  ``vp``
works in plain ints: it scales every coefficient to the lcm L of their
denominators, forms the integers L b_i for i = 0, 1, ... and compares
candidates as phi(p^N) v_p(L b_i) + i, stopping at the first i that no
later candidate can beat, so that one Fraction is formed at the end.
Callers that add many terms (theta and v_flat in ``tilt``) gather each
exponent's coefficient first and build one element, reducing once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .padic import INF, Record, Valuation, multiplicity


class CyclotomicContext(Record):
    """Fixed prime p and level N >= 0; the field Q(z), z of order p^N.

    ``order`` (p^N), ``degree`` (phi(p^N), 1 when N = 0: the field is Q)
    and ``block`` (p^(N-1), 1 when N = 0) are formed once, from one
    power, here; they are read off p and N, so equality, the hash and the
    repr leave them out."""

    __slots__ = ("p", "N", "order", "degree", "block")

    def __init__(self, p: int, N: int):
        if N < 0:
            raise ValueError("level must be nonnegative")
        block = p ** (N - 1) if N > 0 else 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "order", block * p if N > 0 else 1)
        object.__setattr__(self, "degree", block * (p - 1) if N > 0 else 1)
        object.__setattr__(self, "block", block)

    def _key(self) -> tuple:
        return self.p, self.N

    def __repr__(self):
        return f"CyclotomicContext(p={self.p!r}, N={self.N!r})"

    def zero(self) -> "CycElt":
        return CycElt(self, {})

    def rational(self, q) -> "CycElt":
        q = Fraction(q)
        return CycElt(self, {0: q} if q else {})

    def root_power(self, k: int) -> "CycElt":
        """z^k (k any integer; reduced mod p^N)."""
        return CycElt(self, {k % self.order: Fraction(1)})


class CycElt:
    """A reduced element of Q(z); immutable in practice."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CyclotomicContext, coeffs: dict):
        self.ctx = ctx
        self.coeffs = _reduce(ctx, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, CycElt):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other: "CycElt") -> "CycElt":
        assert self.ctx == other.ctx
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return CycElt(self.ctx, out)

    def __neg__(self) -> "CycElt":
        return CycElt(self.ctx, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "CycElt") -> "CycElt":
        return self + (-other)

    def vp(self) -> Valuation:
        """Exact p-adic valuation via the (z-1)-adic expansion."""
        if not self.coeffs:
            return INF
        p, e = self.ctx.p, self.ctx.degree
        den = lcm(*(c.denominator for c in self.coeffs.values()))
        # column i holds den * c_m * C(m, i) for each support exponent
        # m >= i, and den * b_i is its sum; every candidate e * v_p(den *
        # b_j) + j of a later column is >= j, so the scan stops once the
        # best candidate is <= i
        column = [(m, c.numerator * (den // c.denominator)) for m, c in self.coeffs.items()]
        best = None
        i = 0
        while column and (best is None or best > i):
            bi = sum(a for _, a in column)
            if bi:
                cand = e * multiplicity(bi, p) + i
                if best is None or cand < best:
                    best = cand
            # C(m, i + 1) = C(m, i) (m - i) / (i + 1), exactly
            column = [(m, a * (m - i) // (i + 1)) for m, a in column if m > i]
            i += 1
        return Fraction(best, e) - multiplicity(den, p)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [
            (f"{v}" if k == 0 else f"{v}*z^{k}")
            for k, v in sorted(self.coeffs.items())
        ]
        return " + ".join(parts)


def _reduce(ctx: CyclotomicContext, coeffs: dict) -> dict:
    """Reduce exponents mod p^N, then through the Phi relation into
    [0, phi(p^N)), dropping zero coefficients."""
    order, degree, block = ctx.order, ctx.degree, ctx.block
    out: dict = {}
    for k, v in coeffs.items():
        if not v:
            continue
        k %= order
        if k < degree:
            out[k] = out.get(k, 0) + v
        else:
            # x^{(p-1) p^{N-1}} = -(1 + x^{p^{N-1}} + ... + x^{(p-2) p^{N-1}})
            base = k - (ctx.p - 1) * block
            for j in range(ctx.p - 1):
                kk = base + j * block  # < degree since k < p^N
                out[kk] = out.get(kk, 0) - v
    return {k: v for k, v in out.items() if v}

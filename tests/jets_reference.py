"""Reference jet algebra for the tests: the Fraction-per-coefficient
``JetContext``, ``JetElement`` and series that the integer implementation
in ``period_lab.jets`` replaced, kept word for word in what they compute.
The oracle tests run both on the same inputs and compare coefficient maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from period_lab.padic import Prime, rational_valuation
from period_lab.tilt import GaloisElement


@dataclass(frozen=True)
class JetContext:
    """Prime and truncation order; monomials of total degree >= order vanish.

    Any order works for the identities in scope (they hold degree-wise);
    the default 6 keeps expansions small.
    """

    prime: Prime
    order: int = 6

    def __init__(self, prime, order: int = 6):
        if isinstance(prime, int):
            prime = Prime(prime)
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "order", int(order))

    @property
    def p(self) -> int:
        return self.prime.p

    def zero(self) -> "JetElement":
        return JetElement(self, {})

    def one(self) -> "JetElement":
        return JetElement(self, {(0, 0): Fraction(1)})

    def rational(self, q) -> "JetElement":
        q = Fraction(q)
        return JetElement(self, {(0, 0): q} if q else {})

    def u(self) -> "JetElement":
        return JetElement(self, {(1, 0): Fraction(1)})

    def w(self) -> "JetElement":
        return JetElement(self, {(0, 1): Fraction(1)})

    def t(self) -> "JetElement":
        """The cyclotomic period log(1 + u)."""
        return log1p(self.u())

    def log_p_flat(self) -> "JetElement":
        """log [pflat] under the convention log p = 0: log(1 - w)."""
        return log1p(-self.w())


class JetElement:
    """Coefficient map {(i, j): rational} for monomials u^i w^j, i+j < order."""

    __slots__ = ("context", "coeffs")

    def __init__(self, context: JetContext, coeffs: dict):
        self.context = context
        m = context.order
        self.coeffs = {
            k: Fraction(v)
            for k, v in coeffs.items()
            if v and k[0] + k[1] < m
        }

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0, 0), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "JetElement"):
        if other.context != self.context:
            raise ValueError("mixed jet contexts")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.rational(other)
        if not isinstance(other, JetElement):
            return NotImplemented
        return self.context == other.context and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.context, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.rational(other)
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return JetElement(self.context, out)

    __radd__ = __add__

    def __neg__(self):
        return JetElement(self.context, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return JetElement(
                self.context, {k: v * other for k, v in self.coeffs.items()}
            )
        self._check(other)
        m = self.context.order
        out: dict = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j < m:
                    k = (i, j)
                    out[k] = out.get(k, Fraction(0)) + v1 * v2
        return JetElement(self.context, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "JetElement":
        if n < 0:
            raise ValueError("negative powers need explicit inversion")
        result = self.context.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def min_total_degree(self) -> int:
        if not self.coeffs:
            return self.context.order
        return min(i + j for i, j in self.coeffs)

    def substitute(self, u_image: "JetElement", w_image: "JetElement") -> "JetElement":
        """The algebra homomorphism sending u, w to the given jets."""
        out = self.context.zero()
        # Horner-style by u-degree would complicate the two-variable case;
        # expansion sizes are tiny at the default order, so evaluate directly
        u_pows = _powers(u_image, max((i for i, _ in self.coeffs), default=0))
        w_pows = _powers(w_image, max((j for _, j in self.coeffs), default=0))
        for (i, j), v in self.coeffs.items():
            out = out + u_pows[i] * w_pows[j] * v
        return out


def _powers(x: JetElement, n: int) -> list:
    out = [x.context.one()]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def log1p(x: JetElement) -> JetElement:
    """log(1 + x) = sum_{1 <= i < order} (-1)^(i-1) x^i / i.

    Requires zero constant term (x in the first filtration step)."""
    if x.constant_term() != 0:
        raise ValueError("log1p needs a zero constant term")
    m = x.context.order
    out = x.context.zero()
    power = x.context.one()
    for i in range(1, m):
        power = power * x
        if power.is_zero():
            break
        out = out + power * Fraction((-1) ** (i - 1), i)
    return out


def exp(x: JetElement) -> JetElement:
    """exp(x) = sum_{i < order} x^i / i!, zero constant term required."""
    if x.constant_term() != 0:
        raise ValueError("exp needs a zero constant term")
    m = x.context.order
    out = x.context.one()
    power = x.context.one()
    fact = 1
    for i in range(1, m):
        power = power * x
        fact *= i
        if power.is_zero():
            break
        out = out + power * Fraction(1, fact)
    return out


def binomial_pow(x: JetElement, exponent) -> JetElement:
    """(1 + x)^exponent for a rational exponent with p-free denominator.

    Each generalized binomial coefficient C(exponent, i) is checked to be
    p-integral before use (true for p-adically integral exponents)."""
    exponent = Fraction(exponent)
    p = x.context.p
    if exponent.denominator % p == 0:
        raise ValueError("exponent denominator must be prime to p")
    if x.constant_term() != 0:
        raise ValueError("binomial_pow expands around 1; x needs zero constant term")
    m = x.context.order
    out = x.context.one()
    power = x.context.one()
    binom = Fraction(1)
    for i in range(1, m):
        power = power * x
        binom = binom * (exponent - (i - 1)) / i
        if rational_valuation(binom, p) < 0 and binom != 0:
            raise ArithmeticError(
                f"binomial coefficient C({exponent}, {i}) is not p-integral"
            )
        if power.is_zero() or binom == 0:
            break
        out = out + power * binom
    return out


# ---------------------------------------------------------------------------
# semilinear actions
# ---------------------------------------------------------------------------


def galois_act_jet(g: GaloisElement, x: JetElement) -> JetElement:
    """Substitution action: u -> (1+u)^chi - 1, w -> 1 - (1+u)^c (1-w)."""
    ctx = x.context
    u_img = binomial_pow(ctx.u(), g.chi) - 1
    w_img = ctx.one() - binomial_pow(ctx.u(), g.c) * (ctx.one() - ctx.w())
    return x.substitute(u_img, w_img)


def frobenius_jet(x: JetElement) -> JetElement:
    """Substitution u -> (1+u)^p - 1, w -> 1 - p^(p-1) (1-w)^p, applied to
    the polynomial representative of x.

    The w-image has constant term 1 - p^(p-1) != 0: the evaluation kernel
    is not Frobenius-stable, so Frobenius does not descend to the order-m
    quotient and this operation is representative-level by design.  On the
    u-subalgebra (where the image has zero constant term) it is an honest
    quotient endomorphism."""
    ctx = x.context
    p = ctx.p
    u_img = binomial_pow(ctx.u(), p) - 1
    w_img = ctx.one() - (ctx.one() - ctx.w()) ** p * Fraction(p) ** (p - 1)
    return x.substitute(u_img, w_img)


def frobenius_galois_commute(g: GaloisElement, context: JetContext) -> bool:
    """Check that Frobenius and the Galois action commute as substitution
    maps, i.e. on the generators u and w.

    Because the w-Frobenius carries a constant term, iterating the two
    element-level operations through an order-m intermediate loses tail
    terms that Frobenius would resurrect at low degree; the law that is
    actually true upstairs is the equality of the composed substitutions.
    Both composites are therefore evaluated with internal degree headroom
    and compared below the context order, where they are exact."""
    work = JetContext(context.prime, context.order + context.p + 2)
    p = work.p
    u, w, one = work.u(), work.w(), work.one()
    phi_u = binomial_pow(u, p) - 1
    phi_w = one - (one - w) ** p * Fraction(p) ** (p - 1)
    g_u = binomial_pow(u, g.chi) - 1
    g_w = one - binomial_pow(u, g.c) * (one - w)
    for gen in (u, w):
        g_gen = gen.substitute(g_u, g_w)
        phi_gen = gen.substitute(phi_u, phi_w)
        lhs = g_gen.substitute(phi_u, phi_w)   # phi after g
        rhs = phi_gen.substitute(g_u, g_w)     # g after phi
        if _retruncate(lhs, context) != _retruncate(rhs, context):
            return False
    return True


def _retruncate(x: JetElement, context: JetContext) -> JetElement:
    return JetElement(context, x.coeffs)


# ---------------------------------------------------------------------------
# the identities
# ---------------------------------------------------------------------------


def verify_cocycle(g: GaloisElement, context: JetContext) -> bool:
    """Check g(log[pflat]) = log[pflat] + c(g) * t exactly in the jets.

    With y = log1p(-w) and t = log1p(u), the left side expands through
    g(w) = 1 - (1+u)^c (1-w); equality holds because log(AB) = log A +
    log B is a formal identity in the truncated free algebra."""
    if context.order < 2:
        raise ValueError("the cocycle needs order >= 2")
    y = context.log_p_flat()
    t = context.t()
    return galois_act_jet(g, y) == y + g.c * t

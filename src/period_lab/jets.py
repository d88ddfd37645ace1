"""Truncated free commutative algebra modeling the de Rham completion.

Working modulo the m-th filtration step, computations happen in the free
algebra Q[u, w] truncated at total degree m, where the generators model

    u  =  [eps] - 1          (Galois: u -> (1+u)^chi - 1)
    w  =  1 - [pflat]/p      (Galois: w -> 1 - (1+u)^(c(g)) (1-w))

with Frobenius u -> (1+u)^p - 1 and w -> 1 - p^(p-1) (1-w)^p.  The model
is one-sided: the true ring relates u and w by a unit not finitely
presentable here, so jet equality implies equality downstairs (there is an
evaluation homomorphism) while jet inequality is inconclusive.  Every
identity this package needs is an equality, so the model decides them.

Frobenius images may carry a nonzero constant term; that is the model
reflecting that the evaluation kernel is not Frobenius-stable.

Series: log1p is the usual truncated series; binomial_pow raises
1 + x to any rational exponent with p-free denominator, and checks on the
fly that the generalized binomial coefficients are p-integral (they are,
for p-adically integral exponents; the check guards the caller's input).
The convention log p = 0 is wired in: log[pflat] is modeled by
log1p(-w) = log((1/p)[pflat]).

Representation: a jet stores integer numerators over one common
denominator, ``nums`` {(i, j): int} and ``den`` > 0, reduced by one gcd
after every operation (zero is {} over 1), so equal jets have equal
(nums, den).  Products only visit pairs of total degree below the order:
the smaller factor is sorted by degree and the scan over it breaks early.
Sums, substitution and the series accumulate every term over the lcm of
the denominators in one pass.  ``coeffs`` reads the same map as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .padic import Prime, Record, rational_valuation
from .tilt import GaloisElement


class JetContext(Record):
    """Prime and truncation order; monomials of total degree >= order vanish.

    Any order works for the identities in scope (they hold degree-wise);
    the default 6 keeps expansions small.
    """

    __slots__ = ("prime", "order")

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
        return _jet(self, {}, 1)

    def one(self) -> "JetElement":
        return _jet(self, {(0, 0): 1}, 1)

    def rational(self, q) -> "JetElement":
        q = Fraction(q)
        return _jet(self, {(0, 0): q.numerator} if q else {}, q.denominator)

    def u(self) -> "JetElement":
        return _jet(self, {(1, 0): 1}, 1)

    def w(self) -> "JetElement":
        return _jet(self, {(0, 1): 1}, 1)

    def t(self) -> "JetElement":
        """The cyclotomic period log(1 + u)."""
        return log1p(self.u())

    def log_p_flat(self) -> "JetElement":
        """log [pflat] under the convention log p = 0: log(1 - w)."""
        return log1p(-self.w())


class JetElement:
    """Monomials u^i w^j, i+j < order, with rational coefficients held as
    integer numerators ``nums`` over the common denominator ``den``."""

    __slots__ = ("context", "nums", "den")

    def __init__(self, context: JetContext, coeffs: dict):
        m = context.order
        coeffs = {k: Fraction(v) for k, v in coeffs.items() if k[0] + k[1] < m}
        den = lcm(*(v.denominator for v in coeffs.values()))
        self.context = context
        self.nums = {k: v.numerator * (den // v.denominator) for k, v in coeffs.items()}
        self.den = den
        _reduce(self)

    @property
    def coeffs(self) -> dict:
        """The coefficient map {(i, j): Fraction}."""
        return {k: Fraction(v, self.den) for k, v in self.nums.items()}

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0, 0), 0), self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def _check(self, other: "JetElement"):
        if other.context != self.context:
            raise ValueError("mixed jet contexts")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.rational(other)
        if not isinstance(other, JetElement):
            return NotImplemented
        return (
            self.context == other.context
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.context, self.den, tuple(sorted(self.nums.items()))))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.rational(other)
        self._check(other)
        return _combine(self.context, ((self, 1, 1), (other, 1, 1)))

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.context, {k: -v for k, v in self.nums.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.rational(other)
        self._check(other)
        return _combine(self.context, ((self, 1, 1), (other, -1, 1)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _combine(self.context, ((self, other.numerator, other.denominator),))
        self._check(other)
        a, b = self.nums, other.nums
        if len(a) < len(b):
            a, b = b, a
        if b == _ONE:  # a constant 1/den: only the denominator changes
            return _jet(self.context, dict(a), self.den * other.den)
        room = self.context.order
        inner = sorted((i + j, i, j, v) for (i, j), v in b.items())
        out: dict = {}
        get = out.get
        for (i1, j1), v1 in a.items():
            left = room - i1 - j1
            for d, i2, j2, v2 in inner:
                if d >= left:
                    break
                k = (i1 + i2, j1 + j2)
                out[k] = get(k, 0) + v1 * v2
        return _jet(self.context, out, self.den * other.den)

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
        if not self.nums:
            return self.context.order
        return min(i + j for i, j in self.nums)

    def substitute(self, u_image: "JetElement", w_image: "JetElement") -> "JetElement":
        """The algebra homomorphism sending u, w to the given jets."""
        self._check(u_image)
        self._check(w_image)
        u_pows = _powers(u_image, max((i for i, _ in self.nums), default=0))
        w_pows = _powers(w_image, max((j for _, j in self.nums), default=0))
        return _combine(
            self.context,
            ((u_pows[i] * w_pows[j], v, self.den) for (i, j), v in self.nums.items()),
        )

    def __repr__(self):
        if not self.nums:
            return "Jet(0)"
        bits = []
        for (i, j), v in sorted(self.coeffs.items()):
            mono = ("" if not i else f"u^{i}") + ("" if not j else f" w^{j}")
            bits.append(f"{v}{' ' + mono.strip() if mono.strip() else ''}")
        return "Jet(" + " + ".join(bits) + ")"


_ONE = {(0, 0): 1}


def _reduce(x: JetElement) -> JetElement:
    """Drop zero numerators and divide out the gcd of numerators and
    denominator, in place."""
    nums = {k: v for k, v in x.nums.items() if v}
    g = gcd(x.den, *nums.values())
    if g != 1:
        nums = {k: v // g for k, v in nums.items()}
    x.nums, x.den = nums, x.den // g
    return x


def _jet(context: JetContext, nums: dict, den: int) -> JetElement:
    """The jet sum nums[k]/den u^i w^j; every key below the order, den > 0."""
    x = object.__new__(JetElement)
    x.context, x.nums, x.den = context, nums, den
    return _reduce(x)


def _combine(context: JetContext, terms) -> JetElement:
    """sum (a / b) x over the (x, a, b) in ``terms`` (b > 0), accumulated
    in one pass over the lcm of the denominators."""
    terms = [(x, a, b) for x, a, b in terms if a and x.nums]
    den = lcm(*(x.den * b for x, _, b in terms))
    out: dict = {}
    for x, a, b in terms:
        scale = a * (den // (x.den * b))
        for k, v in x.nums.items():
            out[k] = out.get(k, 0) + v * scale
    return _jet(context, out, den)


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
    terms = []
    power = x.context.one()
    for i in range(1, x.context.order):
        power = power * x
        if power.is_zero():
            break
        terms.append((power, (-1) ** (i - 1), i))
    return _combine(x.context, terms)


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
    power = x.context.one()
    terms = [(power, 1, 1)]
    binom = Fraction(1)
    for i in range(1, x.context.order):
        power = power * x
        binom = binom * (exponent - (i - 1)) / i
        if rational_valuation(binom, p) < 0 and binom != 0:
            raise ArithmeticError(
                f"binomial coefficient C({exponent}, {i}) is not p-integral"
            )
        if power.is_zero() or binom == 0:
            break
        terms.append((power, binom.numerator, binom.denominator))
    return _combine(x.context, terms)


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


def gr_generator_check(m: int, p) -> bool:
    """Check, in order m + 1, that t^m = u^m + (degree > m terms): the
    class of t^m generates the m-th graded piece (for m = 0 the graded
    piece is the residue field and there is nothing to check)."""
    if m < 0:
        raise ValueError("negative filtration order")
    if m == 0:
        return True
    ctx = JetContext(p, m + 1)
    tm = ctx.t() ** m
    residual = tm - ctx.u() ** m
    return (
        tm.coeffs.get((m, 0)) == 1
        and (residual.is_zero() or residual.min_total_degree() > m)
    )

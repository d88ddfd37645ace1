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

Series: log1p is the truncated series sum (-1)^(i-1) x^i / i, computed
not from the powers of x but degree by degree from one series division
(Brent and Kung, J. ACM 1978): the Euler derivation u d/du + w d/dw
multiplies the part of total degree d by d and takes log(1 + x) to
E(x) / (1 + x).  binomial_pow raises 1 + x to any rational exponent with
p-free denominator, and checks on the fly that the generalized binomial
coefficients are p-integral (they are, for p-adically integral
exponents; the check guards the caller's input).  The convention
log p = 0 is wired in: log[pflat] is modeled by log1p(-w) =
log((1/p)[pflat]), so the cocycle's g(log[pflat]) is log1p(-g(w)) and
needs no substitution.

Representation: a jet stores integer numerators over one common
denominator, ``nums`` {(i, j): int} and ``den`` > 0, reduced by one gcd
after every operation (zero is {} over 1), so equal jets have equal
(nums, den).  Products only visit pairs of total degree below a bound,
the order or less: the smaller factor is sorted by degree and the scan
over it breaks early.  A power of a jet without constant term bounds each
partial product by what the factors still to come leave room for.  Sums,
substitution and binomial_pow accumulate every term over the lcm of the
denominators in one pass.  ``coeffs`` reads the same map as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .padic import Prime, Record
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
        return _product(self, other, self.context.order)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "JetElement":
        """Binary powering.  Every partial product is x^e for some e <= n,
        and the factors still to come have total degree at least (n - e) v,
        v the lowest total degree of x; so x^e is needed only below total
        degree order - (n - e) v, which for x without constant term (v >= 1)
        drops the terms that could only land past the order."""
        if n < 0:
            raise ValueError("negative powers need explicit inversion")
        ctx = self.context
        if n == 0:
            return ctx.one()
        v = self.min_total_degree()
        if n * v >= ctx.order:
            return ctx.zero()
        result, r = None, 0
        base, e = self, 1
        while True:
            if n & e:
                r += e
                result = base if result is None else _product(
                    result, base, ctx.order - (n - r) * v
                )
            if r == n:
                return result
            e *= 2
            base = _product(base, base, ctx.order - (n - e) * v)

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


def _product(x: JetElement, y: JetElement, room: int) -> JetElement:
    """x * y without the monomials of total degree >= room (at most the
    order): the smaller factor is sorted by degree, and the scan over it
    stops at the first term that would reach the room."""
    a, b = x.nums, y.nums
    if len(a) < len(b):
        a, b = b, a
    if b == _ONE:  # a constant 1/den: only the denominator changes
        out = {k: v for k, v in a.items() if k[0] + k[1] < room}
        return _jet(x.context, out, x.den * y.den)
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
    return _jet(x.context, out, x.den * y.den)


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
    """log(1 + x), solved degree by degree in integers.

    The Euler derivation E = u d/du + w d/dw multiplies the part of total
    degree d by d, and E log(1 + x) = E(x) / (1 + x); so the degree-d part
    of the log is the degree-d part Q_d of that one quotient, divided by d.
    With x = X / D and X_d the degree-d part of X,

        Q_d = d X_d / D - sum_{1 <= k < d} X_k Q_(d-k) / D,

    which is kept as integer numerators R_d over one denominator E_d,
    reduced by their gcd at each degree so that no power of D builds up.

    Requires zero constant term (x in the first filtration step)."""
    if x.constant_term() != 0:
        raise ValueError("log1p needs a zero constant term")
    D = x.den
    parts: dict = {}  # degree k -> [(i, numerator of u^i w^(k-i) in X)]
    for (i, j), v in x.nums.items():
        parts.setdefault(i + j, []).append((i, v))
    low = sorted(parts.items())
    R, E = [[]], [1]  # Q_d = R_d / E_d, R_d as [(i, numerator of u^i w^(d-i))]
    for d in range(1, x.context.order):
        terms, Ed = [], D
        for k, X in low:
            if k >= d:
                break
            if R[d - k]:
                De = D * E[d - k]
                terms.append((X, R[d - k], De))
                if Ed % De:
                    Ed = lcm(Ed, De)
        acc: dict = {}
        get = acc.get
        for i, v in parts.get(d, ()):
            acc[i] = d * v * (Ed // D)
        for X, r, De in terms:
            scale = Ed // De
            for i1, v1 in X:
                v1 *= scale
                for i2, v2 in r:
                    acc[i1 + i2] = get(i1 + i2, 0) - v1 * v2
        g = gcd(Ed, *acc.values()) if Ed != 1 else 1
        R.append([(i, v // g) for i, v in acc.items() if v])
        E.append(Ed // g)
    # the degree-d part of the log is R_d / (d E_d)
    den = lcm(*[d * e for d, e in enumerate(E) if d])
    nums = {}
    for d in range(1, len(R)):
        scale = den // (d * E[d])
        for i, v in R[d]:
            nums[(i, d - i)] = v * scale
    return _jet(x.context, nums, den)


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
        if binom.denominator % p == 0:
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


def galois_w(g: GaloisElement, context: JetContext) -> JetElement:
    """The image of w under g: 1 - (1+u)^c (1-w)."""
    one = context.one()
    return one - binomial_pow(context.u(), g.c) * (one - context.w())


def galois_act_jet(g: GaloisElement, x: JetElement) -> JetElement:
    """Substitution action: u -> (1+u)^chi - 1, w -> 1 - (1+u)^c (1-w)."""
    ctx = x.context
    return x.substitute(binomial_pow(ctx.u(), g.chi) - 1, galois_w(g, ctx))


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

    With y = log1p(-w) and t = log1p(u), the left side is log1p(-g(w)),
    g(w) = 1 - (1+u)^c (1-w): y has no u, so substituting g(w) for w in
    it gives the same truncated sum of -g(w)^j / j.  Equality holds
    because log(AB) = log A + log B is a formal identity in the truncated
    free algebra."""
    if context.order < 2:
        raise ValueError("the cocycle needs order >= 2")
    y = context.log_p_flat()
    return log1p(-galois_w(g, context)) == y + g.c * context.t()


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

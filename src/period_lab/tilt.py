"""Formal model of distinguished elements of the tilt and its Witt ring.

An expression is a finite integer combination of terms

    coeff * eps^a * (pflat)^c * [u] * p^i

where eps is the pinned compatible system of p-power roots of unity
(depth-n component a primitive p^n-th root, so v_p(component_n - 1) =
1/(p^{n-1}(p-1)), the standard normalization), pflat is one pinned
compatible system of p-power roots of p, and [u] is the Teichmueller part
of an element of a finite field F_{p^f}.  Sums are FORMAL: Witt-vector
addition with carries is deliberately not modeled, which is enough for all
the identities handled here (the degree-one generator omega, the infinite
product factorizations, the evaluation map theta and the tilt valuation).

A term is the flat tuple (coeff, a, c, u, i), and ``TiltExpr.__init__`` is
the one place that checks and merges terms, on an integer key (the
numerators and denominators of a and c): hashing and comparing Fractions
cost more than the rest of the constructor.  Exponent domains: ``a`` is
any exact rational (the Galois action sends a to chi*a + c(g)*c, and chi
may carry a prime-to-p denominator); ``c`` is a nonnegative rational with
p-power denominator; ``u`` is a nonzero element of characteristic p.
Evaluation stays exact because prime-to-p denominators are invertible
modulo p^N.

theta sends eps^a (pflat)^c [u] p^i to z^(p^N a) * p^(c+i) * [u] with z a
primitive p^N-th root of unity.  Values live in a graded module keyed by
the fractional part of the p-exponent: distinct fractional p-powers of p
are linearly independent over the cyclotomic field (Kummer theory), so the
per-piece zero test is sound and complete.  Teichmueller parts are exactly
representable only for u in {0, 1, -1}; any other u is carried as a formal
key and poisons definiteness (reported, never silently asserted) — the
(p-1)-st roots of unity of order > 2 do not lie in the p^N-th cyclotomic
field.

One evaluation serves every reader: theta(phi^s(x)) at level N, from the
terms read once per expression.  theta is s = 0, the kernel orbit probe
runs s = 0, 1, ..., and the depth-n component that v_flat values is
theta(phi^-n(x)) at level n + k_max, k_max the largest p-exponent of an
eps-exponent's denominator.  The rows that evaluation reads hold
p^k_max a as an int when it is one, from one integer divmod.  A term
contributes p^(c p^s + i), and a power past p^MAX_P_EXPONENT, which has
more than ``padic.MAX_DIGITS`` digits at every p, is refused with a
ValueError before it is formed: otherwise a large pflat exponent or
p-power index, or the growth of c p^n in the probe, would form integers
of any size.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycElt, CyclotomicContext
from .padic import (
    INF,
    MAX_DIGITS,
    Prime,
    Record,
    SchemaError,
    as_fraction,
    multiplicity,
    parse_int,
    parse_list,
    parse_number,
    rational_valuation,
    require,
    residue,
)
from .padic_poly import is_irreducible_mod_p, poly_mulmod, poly_powmod, poly_rem


class InexactTeichmullerError(ValueError):
    """A zero test touched a Teichmueller part with no exact model."""


class ExponentTooFineError(ValueError):
    """A term's eps-exponent has p-part finer than the evaluation level."""


# ---------------------------------------------------------------------------
# finite fields F_{p^f} (Teichmueller parts)
# ---------------------------------------------------------------------------


_MODULUS_CACHE: dict = {}
# Bounds on the search for a modulus of degree f > 1: the field has at
# most 2^_MAX_FIELD_BITS elements, and at most _MAX_MODULUS_CANDIDATES
# polynomials are tested.  One test costs O(f^3 log p) operations mod p,
# and the canonical modulus can lie about p candidates in (every x^4 + c
# is reducible when p = 3 mod 4).
_MAX_FIELD_BITS = 32
_MAX_MODULUS_CANDIDATES = 1000


def field_modulus(p: int, f: int) -> tuple:
    """The canonical irreducible of degree f over F_p (smallest by the
    integer encoding of its non-leading coefficients).

    Raises ValueError past the bounds above."""
    key = (p, f)
    if key in _MODULUS_CACHE:
        return _MODULUS_CACHE[key]
    if f == 1:
        mod = (0, 1)
    else:
        # p >= 2, so f > _MAX_FIELD_BITS is too large before p^f is formed
        if f > _MAX_FIELD_BITS or p**f > 2**_MAX_FIELD_BITS:
            raise ValueError(
                f"a field of {p}^{f} elements is past the cap of "
                f"2^{_MAX_FIELD_BITS} on a Teichmueller part's field"
            )
        for code in range(_MAX_MODULUS_CANDIDATES):
            coeffs = []
            c = code
            for _ in range(f):
                c, r = divmod(c, p)
                coeffs.append(r)
            cand = tuple(coeffs) + (1,)
            if is_irreducible_mod_p(cand, p):
                mod = cand
                break
        else:
            raise ValueError(
                f"no irreducible of degree {f} over F_{p} among the first "
                f"{_MAX_MODULUS_CANDIDATES} candidates"
            )
    _MODULUS_CACHE[key] = mod
    return mod


class FqElement(Record):
    """An element of F_{p^f}, as a reduced polynomial representative."""

    __slots__ = ("p", "f", "poly")

    def __init__(self, p: int, f: int, poly):
        p, f = int(p), int(f)
        if f < 1:
            raise ValueError("field degree must be >= 1")
        mod = field_modulus(p, f)
        red = poly_rem(tuple(int(x) % p for x in poly), mod, p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "poly", red)

    @classmethod
    def one(cls, p: int, f: int = 1) -> "FqElement":
        return cls(p, f, (1,))

    def is_zero(self) -> bool:
        return not self.poly

    def is_one(self) -> bool:
        return self.poly == (1,)

    def __mul__(self, other: "FqElement") -> "FqElement":
        if (self.p, self.f) != (other.p, other.f):
            raise ValueError("mixed finite fields")
        mod = field_modulus(self.p, self.f)
        return FqElement(
            self.p, self.f, poly_mulmod(self.poly or (0,), other.poly or (0,), mod, self.p)
        )

    def power(self, n: int) -> "FqElement":
        """u^n for any integer n (negative allowed on nonzero elements)."""
        if self.is_zero():
            if n <= 0:
                raise ZeroDivisionError("0 has no nonpositive powers")
            return self
        group = self.p**self.f - 1
        n %= group
        mod = field_modulus(self.p, self.f)
        return FqElement(self.p, self.f, poly_powmod(self.poly, n, mod, self.p))

    def frobenius(self, n: int = 1) -> "FqElement":
        """u -> u^(p^n); negative n inverts (Frobenius is bijective here).
        Frobenius has order f, so n = 0 mod f (every n when f = 1) returns
        the element itself."""
        if self.is_zero() or n % self.f == 0:
            return self
        group = self.p**self.f - 1
        exp = pow(self.p, n % self.f, group) if group > 1 else 1
        return self.power(exp)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


class GaloisElement(Record):
    """(chi, c, frob): the cyclotomic-character value (a rational p-adic
    unit), the Kummer cocycle value (rational with p-free denominator) and
    a power of the residue Frobenius."""

    __slots__ = ("chi", "c", "frob")

    def __init__(self, chi, c, frob=0, *, p: int | None = None):
        chi, c = Fraction(chi), Fraction(c)
        if p is not None:
            if rational_valuation(chi, p) != 0:
                raise ValueError("chi must be a p-adic unit")
            if c != 0 and rational_valuation(c, p) < 0:
                raise ValueError("cocycle value must be p-integral")
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "frob", int(frob))

    def compose(self, other: "GaloisElement") -> "GaloisElement":
        """Group law: chi multiplies, the cocycle law
        c(gh) = c(g) + chi(g) c(h), Frobenius powers add."""
        return GaloisElement(
            self.chi * other.chi,
            self.c + self.chi * other.c,
            self.frob + other.frob,
        )


class TiltExpr(Record):
    """A finite formal integer combination of terms eps^a (pflat)^c [u] p^i.

    ``terms`` is a sorted tuple of flat terms (coeff, a, c, u, i): a
    nonzero int coefficient, the eps-exponent a and the pflat exponent c
    as Fractions, the Teichmueller part u as an ``FqElement`` and the
    p-power index i.  The constructor is the one place that checks a term
    (c >= 0 with p-power denominator, u nonzero of characteristic p) and
    merges terms with the same (i, a, c, u), dropping those that cancel.
    Terms are merged and sorted on the integer key (i, numerator and
    denominator of a, of c, u's reduced polynomial, u's degree): a
    canonical order, though not the order of a as a rational.
    The index i must be >= 0 for expressions asserted to be integral
    (checked by the operations that need integrality, not here).
    """

    __slots__ = ("prime", "terms")

    def __init__(self, prime, terms):
        if isinstance(prime, int):
            prime = Prime(prime)
        p = prime.p
        # keyed and sorted on integers: hashing and comparing Fractions
        # cost more than the rest of the constructor
        merged: dict = {}
        for coeff, a, c, u, i in terms:
            a, c = as_fraction(a), as_fraction(c)
            if c.numerator < 0:
                raise ValueError("pflat exponent must be nonnegative")
            if not _is_p_power(c.denominator, p):
                raise ValueError("pflat exponent denominator must be a power of p")
            if u.is_zero():
                raise ValueError("Teichmueller part must be nonzero")
            if u.p != p:
                raise ValueError("monomial field characteristic mismatch")
            key = (i, a.numerator, a.denominator, c.numerator, c.denominator, u.poly, u.f)
            prev = merged.get(key)
            merged[key] = (int(coeff) + prev[0], a, c, u) if prev else (int(coeff), a, c, u)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "terms", tuple(
            (coeff, a, c, u, key[0])
            for key, (coeff, a, c, u) in sorted(merged.items())
            if coeff
        ))

    @property
    def p(self) -> int:
        return self.prime.p

    # -- constructors -------------------------------------------------------

    @classmethod
    def _term(cls, p, a=0, c=0, i=0) -> "TiltExpr":
        """The one-term expression eps^a (pflat)^c p^i."""
        return cls(p, [(1, a, c, FqElement.one(int(p)), i)])

    @classmethod
    def one(cls, p) -> "TiltExpr":
        return cls._term(p)

    @classmethod
    def epsilon_power(cls, p, a) -> "TiltExpr":
        """[eps^a] as a one-term expression."""
        return cls._term(p, a=a)

    @classmethod
    def p_flat_power(cls, p, c=1) -> "TiltExpr":
        """[(pflat)^c]."""
        return cls._term(p, c=c)

    @classmethod
    def p_scalar(cls, p, i=1) -> "TiltExpr":
        """p^i as an expression (i >= 0)."""
        return cls._term(p, i=i)

    @classmethod
    def epsilon_minus_one(cls, p) -> "TiltExpr":
        return cls.epsilon_power(p, 1) - cls.one(p)

    @classmethod
    def p_flat_minus_p(cls, p) -> "TiltExpr":
        """The simplest degree-one generator of the evaluation kernel."""
        return cls.p_flat_power(p, 1) - cls.p_scalar(p, 1)

    @classmethod
    def omega(cls, p) -> "TiltExpr":
        """omega = ([eps]-1)/([eps^{1/p}]-1) = sum_{j<p} [eps^{j/p}]."""
        p_int = int(p)
        one = FqElement.one(p_int)
        return cls(p, [(1, Fraction(j, p_int), 0, one, 0) for j in range(p_int)])

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: "TiltExpr") -> "TiltExpr":
        self._check(other)
        return TiltExpr(self.prime, self.terms + other.terms)

    def __neg__(self) -> "TiltExpr":
        return TiltExpr(self.prime, [(-coeff, a, c, u, i) for coeff, a, c, u, i in self.terms])

    def __sub__(self, other: "TiltExpr") -> "TiltExpr":
        return self + (-other)

    def __mul__(self, other: "TiltExpr") -> "TiltExpr":
        self._check(other)
        return TiltExpr(
            self.prime,
            [
                (k1 * k2, a1 + a2, c1 + c2, u1 * u2, i1 + i2)
                for k1, a1, c1, u1, i1 in self.terms
                for k2, a2, c2, u2, i2 in other.terms
            ],
        )

    def _check(self, other):
        if not isinstance(other, TiltExpr) or other.prime != self.prime:
            raise ValueError("mixed expressions")

    def __repr__(self):
        if not self.terms:
            return "TiltExpr(0)"
        bits = []
        for coeff, a, c, u, i in self.terms:
            part = f"{coeff}"
            if a:
                part += f"*eps^{a}"
            if c:
                part += f"*pflat^{c}"
            if not u.is_one():
                part += f"*[{list(u.poly)}]"
            if i:
                part += f"*p^{i}"
            bits.append(part)
        return "TiltExpr(" + " + ".join(bits) + ")"

    # -- semilinear structure -----------------------------------------------

    def frobenius(self, n: int = 1) -> "TiltExpr":
        """Witt Frobenius: multiplies both exponents by p^n, raises the
        Teichmueller part to the p^n, fixes the p-power index."""
        scale = Fraction(self.p) ** n
        return TiltExpr(
            self.prime,
            [(coeff, a * scale, c * scale, u.frobenius(n), i) for coeff, a, c, u, i in self.terms],
        )

    def galois_act(self, g: GaloisElement) -> "TiltExpr":
        """g(eps^a (pflat)^c [u]) = eps^(chi a + c(g) c) (pflat)^c [Frob^k u]."""
        return TiltExpr(
            self.prime,
            [
                (coeff, g.chi * a + g.c * c, c, u.frobenius(g.frob), i)
                for coeff, a, c, u, i in self.terms
            ],
        )

    # -- serialization --------------------------------------------------------

    @classmethod
    def from_json(cls, p, items) -> "TiltExpr":
        """The expression of a JSON term list; each term is parsed and then
        checked by the constructor before the next one is parsed."""
        return cls(p, _parse_terms(int(p), parse_list(items, "expr")))


def _parse_terms(p: int, items):
    """(coeff, a, c, u, i) of each JSON term in turn."""
    one = FqElement.one(p)
    for n, it in enumerate(items):
        if not isinstance(it, dict):
            raise SchemaError(f"each term of 'expr' must be a JSON object, got {it!r}")
        u = it.get("u")
        if u is not None:
            poly = parse_list(require(u, "poly", f"expr[{n}].u"), "poly")
            poly = [parse_int(x, "poly") for x in poly]
            u = FqElement(p, parse_int(require(u, "f", f"expr[{n}].u"), "f"), poly)
        else:
            u = one
        # a field is read directly; ``require`` runs only to name a missing
        # one, and ``a`` and ``c`` become Fractions in the constructor
        yield (
            parse_int(it["coeff"] if "coeff" in it else require(it, "coeff", f"expr[{n}]"),
                      "coeff"),
            parse_number(it["a"] if "a" in it else require(it, "a", f"expr[{n}]")),
            parse_number(it["c"] if "c" in it else require(it, "c", f"expr[{n}]")),
            u,
            parse_int(it.get("p_power", 0), "p_power"),
        )


# ---------------------------------------------------------------------------
# evaluation (theta) and the graded value model
# ---------------------------------------------------------------------------


class GradedThetaValue(Record):
    """theta value in the Kummer-graded cyclotomic module.

    ``pieces`` maps (fractional p-exponent, teich key) to an exact
    cyclotomic element; integer p-powers are folded into the coefficients.
    The teich key is None when the Teichmueller part was exactly
    representable (u in {1, -1}); otherwise it is the reduced finite-field
    data and the value is only formally graded (``exact`` is False).
    """

    __slots__ = ("context", "pieces", "exact")

    def _nonzero_pieces(self):
        return {k: v for k, v in self.pieces.items() if not v.is_zero()}

    def is_zero(self) -> bool:
        live = self._nonzero_pieces()
        if any(key[1] is not None for key in live):
            raise InexactTeichmullerError(
                "zero test with inexactly represented Teichmueller parts"
            )
        return not live

    def equals_rational(self, q) -> bool:
        diff = dict(self._nonzero_pieces())
        key = (Fraction(0), None)
        diff[key] = diff.get(key, self.context.zero()) - self.context.rational(q)
        return GradedThetaValue(self.context, diff, self.exact).is_zero()


def _teich_contribution(u: FqElement):
    """(sign, key): exact sign for u = +-1, else a formal key."""
    if u.is_one():
        return 1, None
    if u.f == 1 and u.poly == ((u.p - 1),) and u.p != 2:
        return -1, None
    return 1, (u.f, u.poly)


def _theta_rows(x: TiltExpr):
    """(p, k_max, rows): each term as the evaluation reads it, once per
    expression.  k_max is the largest p-exponent of an eps-exponent's
    denominator.  A row is (scale, a, c_num, c_den, teich, i): coeff times
    the Teichmueller sign; the eps-exponent times p^k_max, p-integral, as
    an int when it is one; the pflat exponent c = c_num/c_den; the piece
    key of the Teichmueller part, or the FqElement itself when that key
    moves under Frobenius (f > 1 and u != 1); and the p-power index.
    """
    p = x.p
    k_max = max((multiplicity(a.denominator, p) for _, a, _, _, _ in x.terms), default=0)
    scale = p**k_max
    rows = []
    for coeff, a, c, u, i in x.terms:
        # a p^k_max in one integer divmod; a Fraction only when it is not
        # an integer
        a_num = a.numerator * scale
        q, r = divmod(a_num, a.denominator)
        sign, key = _teich_contribution(u)
        rows.append((
            coeff * sign,
            Fraction(a_num, a.denominator) if r else q,
            c.numerator,
            c.denominator,
            u if key is not None and u.f > 1 else key,
            i,
        ))
    return p, k_max, rows


# the largest e with 2^e below 10^MAX_DIGITS: at every p, a power p^e with
# |e| past it has more than MAX_DIGITS digits.  theta refuses to form one:
# the p-exponent c p^s + i of a term grows with the pflat exponent c, the
# p-power index i and, in the kernel orbit probe, as p^n
MAX_P_EXPONENT = (10**MAX_DIGITS).bit_length() - 1


def _theta_shifted(p: int, k_max: int, rows, N: int, s: int) -> GradedThetaValue:
    """theta(phi^s(x)) at level N from the rows of x, for any integer s.

    eps^a (pflat)^c [u] p^i contributes z^E, z of order p^N and E =
    (p^k_max a) p^(N + s - k_max) mod p^N; times p^(c p^s + i), one divmod
    of c p^s (none when c = 0) giving the integer power and the fractional
    part that keys the Kummer piece; times [u^(p^s)], which moves only
    when f > 1 and u != 1.  Each piece's exponent -> coefficient map is
    summed in one pass, then reduced once.
    """
    if N < 0:
        raise ValueError(f"level must be nonnegative, got {N}")
    t = N + s - k_max
    ctx = CyclotomicContext(p, N)
    modulus = ctx.order
    # p^t mod p^N, which is 0 once t >= N, so that E stays below p^N;
    # None: a goes through residue
    lift = None if t < 0 else p**t if t < N else 0
    up, down = (p**s, 1) if s >= 0 else (1, p**-s)
    gathered: dict = {}
    for scale, a, c_num, c_den, teich, i in rows:
        if lift is not None:
            # a is p-integral: its denominator is prime to p
            E = (a if type(a) is int else residue(a, p, N)) * lift % modulus
        else:
            E = residue(a * Fraction(p) ** t, p, N)
            if E is None:
                raise ExponentTooFineError(
                    f"exponent {Fraction(a, p**k_max)} is finer than the evaluation level {N}"
                )
        if c_num:
            e, r = divmod(c_num * up, c_den * down)
            frac = Fraction(r, c_den * down) if r else 0
            e += i
        else:
            frac, e = 0, i
        if isinstance(teich, FqElement):
            teich = _teich_contribution(teich.frobenius(s))[1]
        if not -MAX_P_EXPONENT <= e <= MAX_P_EXPONENT:
            raise ValueError(
                f"theta would form a power of p past p^{MAX_P_EXPONENT:,}, "
                f"which has more than {MAX_DIGITS:,} digits"
            )
        key = (frac, teich)
        coeffs = gathered.get(key)
        if coeffs is None:
            coeffs = gathered[key] = {}
        coeffs[E] = coeffs.get(E, 0) + (scale * p**e if e >= 0 else Fraction(scale, p**-e))
    pieces = {key: CycElt(ctx, c) for key, c in gathered.items()}
    return GradedThetaValue(ctx, pieces, all(teich is None for _, teich in pieces))


def theta(x: TiltExpr, N: int) -> GradedThetaValue:
    """Evaluate at level N: the term eps^a (pflat)^c [u] p^i contributes
    z^(p^N a) p^(c+i) [u] with z of order p^N.

    Rejects eps-exponents finer than p^N; flags Teichmueller parts without
    an exact cyclotomic image.
    """
    return _theta_shifted(*_theta_rows(x), N, 0)


def ker_theta_orbit_probe(x: TiltExpr, N: int, n_max: int) -> list:
    """[theta(phi^n(x)) == 0 for n = 0..n_max], from x's rows read once."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    rows = _theta_rows(x)
    return [_theta_shifted(*rows, N, n).is_zero() for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# the tilt valuation of formal sums
# ---------------------------------------------------------------------------


class VflatResult(Record):
    """Depth-indexed values p^n v_p(component_n) with a stabilization flag.

    ``values[n]`` is the exact value at depth n (INF for a vanishing
    component), or None when that depth was inconclusive (a valuation tie
    across independent graded pieces, or a formal Teichmueller part on the
    minimal piece).  ``stabilized`` means the last two depths agree and are
    conclusive; only then does ``value`` assert v_flat.
    """

    __slots__ = ("values", "conclusive", "stabilized", "value")


def _component_value(value: GradedThetaValue, n: int):
    """(value, conclusive) for p^n * v_p of the depth-n component, whose
    graded value is ``value``: the least piece valuation below 1, INF when
    none is (a lift valuation >= 1 means the component vanishes mod p, as
    the residue ring truncates there).  A piece's valuation plus its
    fractional p-exponent is kept as an integer pair (num, den), and pairs
    compare by cross-multiplication."""
    best = None  # (num, den, key) of the least candidate
    tied = False
    for (frac, key), elt in value.pieces.items():
        v = elt.vp()
        if v is INF:
            continue
        vd, fd = v.denominator, frac.denominator
        num, den = v.numerator * fd + frac.numerator * vd, vd * fd
        if num >= den:
            continue
        if best is None or num * best[1] < best[0] * den:
            best, tied = (num, den, key), False
        elif num * best[1] == best[0] * den:
            tied = True
    if best is None:
        return INF, True
    num, den, key = best
    return Fraction(value.context.p**n * num, den), not tied and key is None


def vflat_sum(x: TiltExpr, depth: int) -> VflatResult:
    """Exact tilt valuation of a formal sum with p-power index 0, evaluated
    depth by depth.

    The depth-n component is theta(phi^-n(x)) at level n + k_max, k_max
    the largest p-exponent of an eps-exponent's denominator.  Each term's
    exponents and Teichmueller part are read once (``_theta_rows``); each
    depth then costs a root exponent mod p^(n + k_max), one divmod for the
    pflat exponent and, for f > 1, a Frobenius power per term
    (``_theta_shifted``).  That component is an exact element of the
    cyclotomic-Kummer graded model; its valuation is the
    unique minimum over graded pieces when that minimum is unique (always
    true within a piece).  Ties across pieces are reported as
    inconclusive, never resolved by fiat.
    """
    if any(i != 0 for _, _, _, _, i in x.terms):
        raise ValueError("v_flat applies to expressions with p-power index 0")
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    p, k_max, rows = _theta_rows(x)
    values = []
    all_ok = True
    for n in range(depth + 1):
        v, ok = _component_value(_theta_shifted(p, k_max, rows, n + k_max, -n), n)
        values.append(v if ok else None)
        all_ok = all_ok and ok
    stabilized = (
        len(values) >= 2
        and values[-1] is not None
        and values[-2] is not None
        and values[-1] == values[-2]
    )
    value = values[-1] if stabilized else None
    return VflatResult(values, all_ok, stabilized, value)


# ---------------------------------------------------------------------------
# generator condition
# ---------------------------------------------------------------------------


class GeneratorReport(Record):
    """Checks for 'z generates the evaluation kernel': theta(z) = 0 and
    v_flat(z mod p) = 1."""

    __slots__ = ("theta_is_zero", "vflat", "vflat_is_one")

    @property
    def passes(self) -> bool | None:
        if self.vflat_is_one is None:
            return None if self.theta_is_zero else False
        return self.theta_is_zero and self.vflat_is_one


def generator_condition_check(x: TiltExpr, N: int, depth: int) -> GeneratorReport:
    """Both conditions of the degree-one-generator criterion, exactly.

    The mod-p reduction of x is its p-power-index-0 part (formal sums do
    not carry Witt addition, so dropping the p multiples is the reduction).
    """
    t_zero = theta(x, N).is_zero()
    reduced = TiltExpr(x.prime, [term for term in x.terms if term[4] == 0])
    vf = vflat_sum(reduced, depth)
    v_one = (vf.value == 1) if vf.stabilized else None
    return GeneratorReport(t_zero, vf, v_one)

"""Characters of the absolute Galois group of Q_p, and Sen operators.

For p > 2 a character decomposes uniquely as an unramified part (sending
Frobenius to a unit lambda), an exact-exponent power of the cyclotomic
character, and a finite-order tame twist with exponent mod p - 1.  The
triple (lambda, a, b) carries the whole admissibility classification:

    unramified       a = 0 and b = 0
    C_p-admissible   a = 0
    Hodge-Tate       a integral   (weight a)
    de Rham          a integral   (1-dimensional: same as Hodge-Tate)
    crystalline      a integral and b = 0

so crystalline implies de Rham implies Hodge-Tate structurally, and a
character that is both crystalline and C_p-admissible is unramified by
pure triple algebra.

The "a integral" test is decidable because exponents here are exact
rationals with p-free denominator (callers approximate arbitrary p-adic
exponents by rationals of their choosing).

Sen operators: for a matrix A giving the action of the level-r generator
of the Z_p-quotient (A close enough to the identity for the logarithm),
the operator is log(A)/p^r, computed by the truncated matrix-log series
as its class modulo p^s, s = precision - r the stated precision, which
must be at least 1.  Each entry is printed as the centered representative
of its class: the rational m/p^k with the least k >= 0 and m in
(-p^(s+k)/2, p^(s+k)/2].  Its eigenvalues are the generalized weights;
the representation is trivial iff the operator vanishes, and Hodge-Tate
iff the operator is semi-simple with integer eigenvalues (semi-simple
read for the classical phrasing "semi-stable", which this module
interprets as squarefree minimal polynomial).

The verdict rests on exact facts of the input where the class mod p^s
cannot carry them: with A - I = N/D, N an integer matrix and D a p-unit,
the operator is N times an invertible matrix that commutes with N, so
eigenvalue 0 has the multiplicity m of 0 in char_poly(N) and its part is
semi-simple iff d - rank(N) = m.  The other weights are Hensel-lifted
roots of the operator's characteristic polynomial, from its class mod
p^s.  An operator with an entry of valuation v < 0 knows that polynomial
only mod p^(s - (d-1)(-v)), so the weights are lifted that far only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .linalg import char_poly, clear_denominators, mat_mul, rank
from .padic import (
    Prime,
    Record,
    as_fraction,
    centered,
    format_ratio,
    format_rational,
    multiplicity,
    parse_int,
    parse_rational,
    rational_valuation,
    require,
    residue,
)
from .padic_poly import hensel_integer_roots


class CharacterTriple(Record):
    """(lambda, a, b): unramified part, cyclotomic exponent, tame exponent.

    lambda is a rational p-adic unit; a has p-free denominator; b is a
    residue mod p - 1.  Requires p > 2 (the unit group splits only then).
    """

    __slots__ = ("prime", "lam", "a", "b")

    def __init__(self, prime, lam, a, b):
        if isinstance(prime, int):
            prime = Prime(prime)
        if prime.p == 2:
            raise ValueError("character triples need p > 2")
        lam, a = Fraction(lam), Fraction(a)
        if rational_valuation(lam, prime.p) != 0:
            raise ValueError("unramified part must be a p-adic unit")
        if a.denominator % prime.p == 0:
            raise ValueError("cyclotomic exponent must be p-integral")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", int(b) % (prime.p - 1))

    @property
    def p(self) -> int:
        return self.prime.p

    def multiply(self, other: "CharacterTriple") -> "CharacterTriple":
        if other.prime != self.prime:
            raise ValueError("mixed primes")
        return CharacterTriple(
            self.prime, self.lam * other.lam, self.a + other.a, self.b + other.b
        )

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "lambda": format_rational(self.lam),
            "a": format_rational(self.a),
            "b": self.b,
        }

    @classmethod
    def from_json(cls, obj: dict, where: str = "") -> "CharacterTriple":
        """The character of a JSON object; ``where`` names the object in
        the error for a missing field ("factors[1]")."""
        return cls(
            parse_int(require(obj, "p", where), "p"),
            parse_rational(require(obj, "lambda", where)),
            parse_rational(require(obj, "a", where)),
            parse_int(obj.get("b", 0), "b"),
        )


class ClassificationFlags(Record):
    __slots__ = ("unramified", "cp_admissible", "hodge_tate", "de_rham", "crystalline",
                 "hodge_tate_weight")

    def to_json(self) -> dict:
        out = {
            "unramified": self.unramified,
            "cp_admissible": self.cp_admissible,
            "hodge_tate": self.hodge_tate,
            "de_rham": self.de_rham,
            "crystalline": self.crystalline,
        }
        if self.hodge_tate_weight is not None:
            out["hodge_tate_weight"] = format_rational(self.hodge_tate_weight)
        return out


def classify(chi: CharacterTriple) -> ClassificationFlags:
    """The admissibility flags of a character triple.

    The implication chain crystalline => de Rham => Hodge-Tate and
    unramified => crystalline and C_p-admissible holds by construction;
    conversely crystalline plus C_p-admissible collapses to unramified
    identically in the triple coordinates.
    """
    a_integral = chi.a.denominator == 1
    b_zero = chi.b == 0
    # unramified, cp_admissible, hodge_tate, de_rham, crystalline, hodge_tate_weight
    return ClassificationFlags(
        chi.a == 0 and b_zero,
        chi.a == 0,
        a_integral,
        a_integral,
        a_integral and b_zero,
        chi.a if a_integral else None,
    )


# ---------------------------------------------------------------------------
# Sen operators
# ---------------------------------------------------------------------------


def _log_margin(p: int) -> int:
    # the series for log converges for v(A - I) > 1/(p-1); the integral
    # margin floor(1/(p-1)) + 1 is the classical sufficient bound
    return (1 // (p - 1)) + 1


def log_series_length(p: int, precision: int) -> tuple:
    """(n, V): ``sen_operator`` at this precision sums the log series over
    the indices 1..n, and V = floor(log_p n) is the largest v_p of one of
    them (0 when n = 0).  n is the last index before the first i with
    margin*i - v_p(i) above the precision; every i up to precision //
    margin passes, so the search starts there."""
    margin = _log_margin(p)
    n = max(precision // margin, 0)
    while margin * (n + 1) - multiplicity(n + 1, p) <= precision:
        n += 1
    V = 0
    while p ** (V + 1) <= n:
        V += 1
    return n, V


def _minus_identity(A):
    """(N, D) with A - I = N / D: N a tuple of int rows, D > 0 the lcm of
    the denominators of A's entries (which are those of A - I)."""
    B, D = clear_denominators(A)
    return tuple(tuple(x - D * (i == j) for j, x in enumerate(row)) for i, row in enumerate(B)), D


class SenInput(Record):
    """Level r and the exact matrix A by which the level-r generator acts.

    ``minus_identity`` is (N, D) with A - I = N / D, N an int matrix and
    D > 0 (``_minus_identity``): the closeness check computes it, and
    ``sen_operator`` sums its series on it.  It is read off ``matrix``,
    so equality and the hash leave it out."""

    __slots__ = ("prime", "level", "matrix", "minus_identity")

    def __init__(self, prime, level: int, matrix):
        if isinstance(prime, int):
            prime = Prime(prime)
        if level < 0:
            raise ValueError("level must be nonnegative")
        # an int entry stays an int: the closeness check reads only
        # numerators and denominators
        mat = tuple(
            tuple(x if type(x) is int else as_fraction(x) for x in row) for row in matrix
        )
        d = len(mat)
        if any(len(row) != d for row in mat):
            raise ValueError("matrix must be square")
        margin = _log_margin(prime.p)
        # with A - I = N / D, v_p(A - I) >= margin entrywise iff p^margin
        # divides N: when p | D, the entry of A - I with the most p in its
        # denominator gives an entry of N prime to p
        N, D = _minus_identity(mat)
        step = prime.p**margin
        if any(x % step for row in N for x in row):
            raise ValueError(
                "matrix is not close enough to the identity for the "
                f"logarithm (need entrywise valuation >= {margin})"
            )
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "level", int(level))
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "minus_identity", (N, D))

    def _key(self) -> tuple:
        return self.prime, self.level, self.matrix

    @property
    def p(self) -> int:
        return self.prime.p

    @property
    def dim(self) -> int:
        return len(self.matrix)


class SenOperator(Record):
    """log(A)/p^level to its stated p-adic precision.

    The operator is ``numerators`` / ``denominator``: an int matrix over
    the least common denominator of its entries, which ``matrix`` reads
    back as Fractions.  ``zero_part`` holds the exact facts on eigenvalue
    0 that an approximant cannot carry: (multiplicity, whether that part
    is semi-simple)."""

    __slots__ = ("prime", "numerators", "denominator", "precision", "zero_part")

    @property
    def p(self) -> int:
        return self.prime.p

    @property
    def dim(self) -> int:
        return len(self.numerators)

    @property
    def matrix(self) -> tuple:
        D = self.denominator
        return tuple(tuple(Fraction(x, D) for x in row) for row in self.numerators)

    def to_json(self) -> dict:
        D = self.denominator
        return {
            "p": self.p,
            "matrix": [[format_ratio(x, D) for x in row] for row in self.numerators],
            "precision": self.precision,
        }


def sen_operator(inp: SenInput, precision: int = 20) -> SenOperator:
    """log(A)/p^r by the truncated series sum (-1)^(i-1) (A-I)^i / i, as
    its class mod p^(precision - r), the stated precision.

    Terms are included until margin*i - v_p(i) exceeds the working
    precision (``log_series_length``).  A dropped term whose index is
    divisible by a power of p can still fall below the working precision
    (for A = [[4]], p = 3, precision 25, term 27 has valuation 24), so the
    stated precision can be too high by a few units (ROADMAP D2).

    With A - I = N / D for an integer matrix N and a p-unit D (kept by
    ``SenInput``), term i is (-1)^(i-1) (N/D)^i / i.  Times p^V, V the
    largest v_p(i) of a summed index, every term is p-integral, so the
    sum runs in Z/p^(precision+V) and the division by p^(V+r) leaves the
    class mod p^(precision - r).  The coefficient table takes one inverse
    per call: with L = lcm(1..n), v_p(L) = V and L / p^V is a p-unit, so
    c_i = (-1)^(i-1) p^V / i is (-1)^(i-1) (L / i) u mod p^(precision+V)
    for u the inverse of L / p^V (``_log_coefficients``).  There N/D is
    X = u N, u the inverse of D, and the characteristic
    polynomial chi_X is sum cp_k u^(d-k) x^k, cp that of N.  ``_series``
    reduces the sum mod chi_X and evaluates the remainder at X with
    d - 1 products: O(n d) scalar steps plus O(d^4) for n terms, where
    a product per term took O(n d^3).  Each entry is its centered
    representative (module docstring), and the operator is kept as those
    integers over p^(V+r), reduced by their one gcd.
    """
    p = inp.p
    r = inp.level
    if precision - r < 1:
        raise ValueError(
            f"precision {precision} must exceed the level {r}: the stated "
            "precision, precision - level, must be at least 1"
        )
    n, V = log_series_length(p, precision)
    N, D = inp.minus_identity
    d = inp.dim
    cp = char_poly(N, 1)
    modulus = p ** (precision + V)
    unit = residue(Fraction(1, D), p, precision + V)
    X = [[x * unit % modulus for x in row] for row in N]
    chi = [c * pow(unit, d - k, modulus) % modulus for k, c in enumerate(cp)]
    acc = _series(X, _log_coefficients(p, n, V, precision + V), chi, modulus)
    acc = [[centered(x, modulus) for x in row] for row in acc]
    g = gcd(p ** (V + r), *(x for row in acc for x in row))
    out = tuple(tuple(x // g for x in row) for row in acc)
    m = next(k for k, c in enumerate(cp) if c)
    # m <= 1 leaves no room for a Jordan block at 0
    return SenOperator(
        inp.prime, out, p ** (V + r) // g, precision - r, (m, m < 2 or d - rank(N) == m)
    )


def _log_coefficients(p: int, n: int, V: int, N: int) -> list:
    """(i, (-1)^(i-1) p^V / i mod p^N) for i = 1..n and V = v_p(lcm(1..n)):
    (-1)^(i-1) (L / i) u for L = lcm(1..n) and u the inverse of the p-unit
    L / p^V."""
    L = lcm(*range(1, n + 1))
    u = residue(Fraction(1, L // p**V), p, N)
    modulus = p**N
    return [(i, (L // i * u if i % 2 else -(L // i) * u) % modulus) for i in range(1, n + 1)]


def _series(N, terms, chi, modulus) -> list:
    """sum of c N^i over the (i, c) in terms, mod modulus; the i distinct.
    chi is the characteristic polynomial of N, monic, lowest degree
    first; N and chi are reduced by the modulus, and so is the sum.

    By Cayley-Hamilton the sum is r(N) for r the polynomial sum c x^i
    reduced mod chi.  r is d ints, built by Horner's rule from the top
    term down: each step is x r + c_i, a shift plus one subtraction of
    top * chi.  r is then evaluated at N by Horner's rule, with d - 1
    matrix products."""
    d = len(N)
    if not d:
        return []
    coeffs = dict(terms)
    low = chi[:d]
    rem = [0] * d
    for i in range(max(coeffs, default=0), -1, -1):
        # x rem + c_i - top chi, the x^d terms cancelling
        top = rem[-1]
        rem = [(a - top * b) % modulus for a, b in zip((coeffs.get(i, 0), *rem), low)]
    out = [[0] * d for _ in range(d)]
    for k, coef in enumerate(reversed(rem)):
        if k:
            out = mat_mul(out, N)
        for a in range(d):
            out[a][a] += coef
        out = [[x % modulus for x in row] for row in out]
    return out


def is_trivial_via_sen(op: SenOperator) -> bool:
    """True iff the operator vanishes; decides triviality of the underlying
    semilinear representation, exactly: log(A) = 0 iff N = D(A - I) = 0,
    i.e. eigenvalue 0 of full multiplicity on a semi-simple part."""
    return op.zero_part == (op.dim, True)


class HodgeTateVerdict(Record):
    """Generalized weights plus the integrality/semisimplicity verdict.

    ``status`` is "hodge-tate", "not-hodge-tate" or "indeterminate";
    ``generalized_weights`` are the exact eigenvalues when computable."""

    __slots__ = ("status", "generalized_weights", "integer_weights")

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.generalized_weights is not None:
            out["generalized_weights"] = [
                format_rational(w) for w in self.generalized_weights
            ]
        if self.integer_weights is not None:
            out["integer_weights"] = list(self.integer_weights)
        return out


def hodge_tate_via_sen(op: SenOperator) -> HodgeTateVerdict:
    """Eigenvalue analysis of the operator (see the module docstring).

    Eigenvalue 0 and the semi-simplicity of its part come exactly from
    ``op.zero_part``; the other weights are the Hensel-lifted simple roots
    of the characteristic polynomial less its factor X^m, to the stated
    precision less (d-1)*max(0, -v), v the least valuation of an entry.
    Weights that cannot be lifted give 'indeterminate'.
    """
    m, semisimple = op.zero_part
    d = op.dim
    weights = [0] * m
    if m < d:
        # max(0, -v) is the p-power of the common denominator D
        B, D = op.numerators, op.denominator
        lift = op.precision - (d - 1) * multiplicity(D, op.p)
        lifted = hensel_integer_roots(char_poly(B, D)[m:], op.p, lift) if lift >= 1 else None
        if lifted is None or len(lifted) != d - m:
            return HodgeTateVerdict("indeterminate", None, None)
        weights.extend(lifted)
    status = "hodge-tate" if semisimple else "not-hodge-tate"
    generalized = (Fraction(0),) * d if m == d else None
    return HodgeTateVerdict(status, generalized, tuple(sorted(weights)))


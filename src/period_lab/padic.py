"""Exact p-adic valuations on rational numbers.

Everything in this package is built on exact rationals: ``Fraction`` at
the API boundary, integers over a common denominator on the hot paths,
and the p-adic valuation (normalized by v_p(p) = 1) of each is derivable
exactly.  There is no floating point anywhere.  The distinguished value
+infinity (valuation of zero) is the module-level singleton ``INF``.

Besides valuations, this module provides the two arithmetic functions
that control convergence of divided-power series:

* ``factorial_valuation(i, p)`` = v_p(i!) = (i - s_p(i)) / (p - 1) where
  s_p(i) is the digit sum of i in radix p, and
* ``nu(i, p)``, the smallest n with v_p(n!) + i >= 0 (and 0 for i >= 0),
  which has the erratic O(log|i|) overshoot over -i(p-1) that makes these
  computations worth automating.

Finally, ``lower_hull`` is the one lower-convex-hull routine of the
package: ``polygons`` builds on it, and ``padic_poly`` reads a
polynomial's Newton slopes off it.  It runs its chain on integers, the
coordinates scaled over the lcm of their denominators.

Every reduction of a p-integral rational modulo a power of p goes through
``residue`` (its class in [0, p^N)) and ``centered`` (the representative
in (-m/2, m/2] of a class mod m), which are used by the Sen operator,
Hensel lifting, theta's root exponents and the Q_p square and
irreducibility tests.

``Record`` is the base of the package's immutable values (primes,
contexts, verdicts), a plain ``__slots__`` class with one storing
constructor: every command is one process that imports the package, and
``dataclasses`` would add its own import and its class generation to
each start.  ``require``, ``parse_int`` and ``parse_list`` read the
fields of JSON input, each with a SchemaError that names the field.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm


class _Infinity:
    """The single +infinity used for valuations of zero.

    Compares strictly greater than every Fraction/int and equal only to
    itself; it has no arithmetic, so a caller tests for it before adding.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("period-lab-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


INF = _Infinity()

#: A valuation: exact rational or +infinity.
Valuation = Fraction | _Infinity


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the witness set covers all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Record:
    """Base of the package's immutable values.

    A subclass names its fields in ``__slots__``.  ``Record.__init__``
    stores its arguments in that order, so a subclass that only stores
    defines no constructor; one that checks or converts its input keeps
    its own and stores with ``object.__setattr__``.  Any later assignment
    raises.  Two records are equal when they are of the same class with
    equal fields (``_key``), and equal records hash alike.  Equality
    tests identity first: contexts and primes are compared on hot paths,
    and there they are mostly the same object.
    """

    __slots__ = ()

    def __init__(self, *fields):
        names = self.__slots__
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes the {len(names)} fields "
                            f"({', '.join(names)}), got {len(fields)}")
        for name, value in zip(names, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Prime(Record):
    """A verified prime number; the residue characteristic of everything."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_probable_prime(p):
            raise ValueError(f"{p!r} is not a prime")
        object.__setattr__(self, "p", p)

    def __int__(self):
        return self.p

    def __repr__(self):
        return f"Prime({self.p})"


def int_valuation(n: int, p: int) -> Valuation:
    """v_p of a plain integer (INF for 0)."""
    if n == 0:
        return INF
    return Fraction(multiplicity(n, p))


def multiplicity(n: int, p: int) -> int:
    """v_p of a nonzero integer, as a plain int."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(x, p: int) -> Valuation:
    """v_p of an exact rational, normalized by v_p(p) = 1."""
    x = Fraction(x)
    if x == 0:
        return INF
    return Fraction(multiplicity(x.numerator, p) - multiplicity(x.denominator, p))


def residue(x, p: int, N: int) -> int | None:
    """The class of a rational x mod p^N, in [0, p^N); None when x is not
    p-integral."""
    if x.denominator % p == 0:
        return None
    modulus = p**N
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def centered(x: int, modulus: int) -> int:
    """The representative of x mod modulus in (-modulus/2, modulus/2]."""
    x %= modulus
    return x - modulus if x > modulus // 2 else x


def as_fraction(x) -> Fraction:
    """x as a Fraction; a Fraction is returned as it is (``Fraction(x)``
    costs about 40 times a type test on one)."""
    return x if type(x) is Fraction else Fraction(x)


def format_rational(x) -> str:
    """"n" or "n/d" for the rational x; an int or a Fraction is read as it
    is, anything else goes through ``Fraction``."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def format_ratio(n: int, d: int) -> str:
    """``format_rational`` of n / d for ints n and d > 0, by one gcd."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class SchemaError(Exception):
    """An input object that does not match its documented schema."""


# CPython converts no int of more than 4,300 digits between int and str
# (its default limit); this cap is fixed here, whatever limit the
# interpreter is set to
MAX_DIGITS = 4_300

# the exponent of a decimal literal, as Fraction's parser reads it
_EXPONENT = re.compile(r"[eE]([-+]?)(\d+(?:_\d+)*)\Z")


def _check_exponent(literal: str, text) -> None:
    """Refuse a literal like "1e300000" before Fraction expands it: the
    expansion has about (mantissa digits + |exponent|) digits."""
    match = _EXPONENT.search(literal)
    if match is None:
        return
    exponent = match.group(2).replace("_", "").lstrip("0")
    mantissa = sum(ch.isdigit() for ch in literal[: match.start()])
    if len(exponent) > len(str(MAX_DIGITS)) or int(exponent or 0) + mantissa > MAX_DIGITS:
        raise ValueError(f"the exponent of {text!r} expands past the {MAX_DIGITS:,}-digit cap")


def parse_number(text) -> int | Fraction:
    """A JSON rational as ``parse_rational`` reads it, but an int when it
    is a plain integer: a JSON integer or a string of ASCII digits with an
    optional sign.  A string with an underscore is refused, as Python 3.10's
    ``Fraction`` refuses it and later versions do not.

    Two shapes skip ``Fraction``'s regular-expression parser: a plain
    ASCII integer, and an ASCII "n/d" (optional sign, digits, a slash,
    digits) with a nonzero denominator, which is ``Fraction(n, d)``.  Any
    other string (a zero denominator, an underscore, an exponent, a
    non-ASCII digit) takes the general path, so what is accepted and
    every message are those of that path."""
    # strings first: an isinstance test against Fraction, an abstract
    # base class's subclass, costs about as much as the integer path
    if isinstance(text, str):
        literal = text.strip()
        digits = literal[1:] if literal[:1] in ("+", "-") else literal
        if digits.isascii():
            if digits.isdigit():
                return int(literal)
            num, slash, den = digits.partition("/")
            if slash and num.isdigit() and den.isdigit() and den.strip("0"):
                num = int(num)
                return Fraction(-num if literal[0] == "-" else num, int(den))
        _check_exponent(literal, text)
        if "_" in literal:
            raise ValueError(f"Invalid literal for Fraction: {literal!r}")
        try:
            return Fraction(literal)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    if isinstance(text, (int, Fraction)) and not isinstance(text, bool):
        return text
    raise ValueError(f"cannot parse rational from {text!r}")


def parse_rational(text) -> Fraction:
    x = parse_number(text)
    return x if type(x) is Fraction else Fraction(x)


def require(obj: dict, key: str, where: str = ""):
    """The field ``key`` of a JSON object, or a SchemaError naming it and,
    given ``where``, the object it was looked for in ("expr[2]"); also a
    SchemaError when that is not an object."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where or 'the input'} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise SchemaError(f"missing required field {key!r}" + (f" in {where}" if where else ""))
    return obj[key]


def parse_int(value, name: str = "value") -> int:
    """An integer field: a JSON integer (not a bool) or an integer string
    without underscores, which ``parse_number`` refuses too."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and "_" not in value:
        try:
            return int(value)
        except ValueError:
            pass
    raise SchemaError(f"field {name!r} must be an integer, got {value!r}")


def parse_list(value, name: str) -> list:
    """A list field, or a SchemaError naming the field: a string would
    otherwise be read character by character."""
    if not isinstance(value, list):
        raise SchemaError(f"field {name!r} must be a list, got {value!r}")
    return value


def digit_sum(i: int, p: int) -> int:
    s = 0
    while i:
        i, r = divmod(i, p)
        s += r
    return s


def factorial_valuation(i: int, p) -> int:
    """v_p(i!) = (i - s_p(i)) / (p - 1), an exact nonnegative integer."""
    if i < 0:
        raise ValueError("factorial of a negative integer")
    p = int(p)
    num = i - digit_sum(i, p)
    assert num % (p - 1) == 0
    return num // (p - 1)


def nu(i: int, p) -> int:
    """Smallest n with v_p(n!) + i >= 0; zero for i >= 0.

    Computed by binary search on the nondecreasing v_p(n!), not by a
    closed form: the overshoot above -i(p-1) genuinely oscillates on the
    scale of (p-1) log_p|i| and is not bounded.  v_p((p|i|)!) >= |i|
    brackets the answer.
    """
    if i >= 0:
        return 0
    p = int(p)
    lo, hi = 0, -i * p  # v_p(lo!) < -i <= v_p(hi!)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if factorial_valuation(mid, p) + i >= 0:
            hi = mid
        else:
            lo = mid
    return hi


def lower_hull(points: Iterable) -> list:
    """Lower convex hull of finite points, by Andrew's monotone chain.

    Points are (x, y) with exact rational coordinates (ints or
    Fractions); the result is the vertex chain left to right with
    strictly increasing slopes, each vertex an (x, y) pair of Fractions.
    The chain runs on integers: x and y are scaled by the lcm of their
    denominators, which keeps the order of abscissas and the sign of
    every cross product, and only the lowest point of each abscissa is
    kept.
    """
    pts = [(as_fraction(x), as_fraction(y)) for x, y in points]
    dx = lcm(*(x.denominator for x, _ in pts))
    dy = lcm(*(y.denominator for _, y in pts))
    # integer abscissa -> (integer ordinate, the point)
    lowest: dict = {}
    for pt in pts:
        x, y = pt
        X = x.numerator * (dx // x.denominator)
        Y = y.numerator * (dy // y.denominator)
        prev = lowest.get(X)
        if prev is None or Y < prev[0]:
            lowest[X] = (Y, pt)
    hull = []
    for X in sorted(lowest):
        Y, pt = lowest[X]
        while len(hull) >= 2:
            (X1, Y1, _), (X2, Y2, _) = hull[-2], hull[-1]
            # drop the middle point if it lies on or above the segment
            # from the one before it to this one
            if (Y2 - Y1) * (X - X1) >= (Y - Y1) * (X2 - X1):
                hull.pop()
            else:
                break
        hull.append((X, Y, pt))
    return [pt for _, _, pt in hull]

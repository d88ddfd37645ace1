"""Exact p-adic valuations on rational numbers.

Everything in this package is built on exact rationals: a scalar is a
``fractions.Fraction`` together with a prime p, and its p-adic valuation
(normalized by v_p(p) = 1) is always derivable exactly.  There is no
floating point anywhere.  The distinguished value +infinity (valuation of
zero) is the module-level singleton ``INF``.

Besides valuations, this module provides the two arithmetic functions
that control convergence of divided-power series:

* ``factorial_valuation(i, p)`` = v_p(i!) = (i - s_p(i)) / (p - 1) where
  s_p(i) is the digit sum of i in radix p, and
* ``nu(i, p)``, the smallest n with v_p(n!) + i >= 0 (and 0 for i >= 0),
  which has the erratic O(log|i|) overshoot over -i(p-1) that makes these
  computations worth automating.

Finally, ``lower_hull`` is the one lower-convex-hull routine of the
package (``polygons`` builds on it), and ``poly_newton_polygon`` reads a
polynomial's Newton slopes straight off it, from the (index, valuation
of coefficient) pairs; the slope multiset is the negative of the
root-valuation multiset.

Every reduction of a p-integral rational modulo a power of p goes through
``residue`` (its class in [0, p^N)) and ``centered`` (the representative
in (-m/2, m/2] of a class mod m), which are used by the Sen operator,
Hensel lifting, theta's root exponents and the Q_p square and
irreducibility tests.

``Record`` is the base of the package's immutable values (primes,
contexts, verdicts), a plain ``__slots__`` class: every command is one
process that imports the package, and ``dataclasses`` would add its own
import and its class generation to each start.  ``require``, ``parse_int`` and ``parse_list`` read the fields of
JSON input, each with a SchemaError that names the field.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction


class _Infinity:
    """The single +infinity used for valuations of zero.

    Compares strictly greater than every Fraction/int, is absorbing for
    addition, and equal only to itself.
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

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __neg__(self):
        raise ArithmeticError("negative infinity is not a valuation here")


INF = _Infinity()

#: A valuation: exact rational or +infinity.
Valuation = Fraction | _Infinity


def _is_probable_prime(n: int) -> bool:
    # deterministic Miller-Rabin; the witness set covers all n < 3.3 * 10^24
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

    A subclass names its fields in ``__slots__``, and its ``__init__``
    sets them with ``object.__setattr__``; any later assignment raises.
    Two records are equal when they are of the same class with equal
    fields (``_key``), and equal records hash alike.  Equality tests
    identity first: contexts and primes are compared on hot paths, and
    there they are mostly the same object.
    """

    __slots__ = ()

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
        if not isinstance(p, int) or not _is_probable_prime(p):
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
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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


def parse_rational(text) -> Fraction:
    if isinstance(text, (int, Fraction)) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        literal = text.strip()
        # a plain ASCII integer skips Fraction's string parser; the rest,
        # "1_000" among them (rejected on Python 3.10), still goes to it
        digits = literal[1:] if literal[:1] in ("+", "-") else literal
        if digits.isascii() and digits.isdigit():
            return Fraction(int(literal))
        _check_exponent(literal, text)
        try:
            return Fraction(literal)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    raise ValueError(f"cannot parse rational from {text!r}")


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
    """An integer field: a JSON integer (not a bool) or an integer string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
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

    Points are (x, y) with exact rational coordinates; the result is the
    vertex chain left to right with strictly increasing slopes.
    """
    pts = sorted(set((Fraction(x), Fraction(y)) for x, y in points))
    # keep only the lowest point for each abscissa
    best = {}
    for x, y in pts:
        if x not in best or y < best[x]:
            best[x] = y
    pts = sorted(best.items())
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop x2 if it lies on or above the segment x1 -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


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

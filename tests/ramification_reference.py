"""Herbrand-function helpers that only the tests use: a reader of the
JSON that ``herbrand`` prints for a piecewise-linear function, the
identity test on one, psi_r as one, and the Hasse-Arf flag on a tower
profile.

It also keeps the Fraction implementation of ``PLFunction``,
``herbrand_phi`` and ``different_valuation`` that the integer one in
``period_lab.ramification`` replaced, as the oracle the tests compare it
with: every coordinate and slope a Fraction, breakpoints pruned by
comparing Fraction slopes, and phi built from one breakpoint per order.
"""

from __future__ import annotations

from fractions import Fraction

from period_lab import ramification
from period_lab.padic import Record, format_rational, parse_rational, require
from period_lab.ramification import ZpExtensionProfile, psi_r


def plfunction_from_json(obj: dict) -> ramification.PLFunction:
    """The function of what ``PLFunction.to_json`` prints."""
    pts = [(parse_rational(x), parse_rational(y)) for x, y in require(obj, "breakpoints")]
    return ramification.PLFunction(pts, parse_rational(require(obj, "final_slope")))


def is_identity(f: ramification.PLFunction) -> bool:
    return not f.breakpoints and f.final_slope == 1


def psi_r_function(r: int, p) -> ramification.PLFunction:
    """psi_r as a PLFunction (breaks at 1..r, slopes 1, p, ..., p^r)."""
    p = int(p)
    pts = [(Fraction(j), psi_r(r, j, p)) for j in range(1, r + 1)]
    return ramification.PLFunction(pts, Fraction(p**r))


def a_is_integral(profile: ZpExtensionProfile) -> bool:
    return profile.a.denominator == 1


class PLFunction(Record):
    """A continuous strictly increasing piecewise-linear bijection of R+.

    The graph starts at (0, 0), passes through ``breakpoints`` (sorted by
    abscissa), and continues with ``final_slope`` to the right of the last
    breakpoint.  All coordinates and slopes are exact rationals.
    """

    __slots__ = ("breakpoints", "final_slope")

    def __init__(self, breakpoints, final_slope):
        pts = [(Fraction(x), Fraction(y)) for x, y in breakpoints]
        pts.sort()
        cleaned = []
        prev = (Fraction(0), Fraction(0))
        for x, y in pts:
            if (x, y) == prev:
                continue
            if x <= prev[0] or y <= prev[1]:
                raise ValueError("breakpoints must be strictly increasing")
            cleaned.append((x, y))
            prev = (x, y)
        final_slope = Fraction(final_slope)
        if final_slope <= 0:
            raise ValueError("final slope must be positive")
        # drop breakpoints that do not change the slope
        pruned = []
        for i, (x, y) in enumerate(cleaned):
            before = _slope_between((0, 0) if not pruned else pruned[-1], (x, y))
            nxt = cleaned[i + 1] if i + 1 < len(cleaned) else None
            after = _slope_between((x, y), nxt) if nxt else final_slope
            if before != after:
                pruned.append((x, y))
        object.__setattr__(self, "breakpoints", tuple(pruned))
        object.__setattr__(self, "final_slope", final_slope)

    @classmethod
    def identity(cls) -> "PLFunction":
        return cls((), 1)

    def segments(self):
        """Yield (x_start, y_start, slope) for each linear piece."""
        prev = (Fraction(0), Fraction(0))
        for x, y in self.breakpoints:
            yield prev[0], prev[1], _slope_between(prev, (x, y))
            prev = (x, y)
        yield prev[0], prev[1], self.final_slope

    def __call__(self, u) -> Fraction:
        u = Fraction(u)
        if u < 0:
            raise ValueError("Herbrand functions live on the nonnegative reals")
        value = Fraction(0)
        prev = (Fraction(0), Fraction(0))
        for x, y in self.breakpoints:
            if u <= x:
                return prev[1] + _slope_between(prev, (x, y)) * (u - prev[0])
            prev = (x, y)
        return prev[1] + self.final_slope * (u - prev[0])

    def inverse(self) -> "PLFunction":
        return PLFunction(
            tuple((y, x) for x, y in self.breakpoints), 1 / self.final_slope
        )

    def compose(self, inner: "PLFunction") -> "PLFunction":
        """Exact composition self o inner."""
        xs = {x for x, _ in inner.breakpoints}
        inv = inner.inverse()
        xs.update(inv(bx) for bx, _ in self.breakpoints)
        pts = tuple((x, self(inner(x))) for x in sorted(xs))
        final = self.final_slope * inner.final_slope
        return PLFunction(pts, final)

    def to_json(self) -> dict:
        return {
            "breakpoints": [[format_rational(x), format_rational(y)]
                            for x, y in self.breakpoints],
            "final_slope": format_rational(self.final_slope),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PLFunction":
        pts = [(parse_rational(x), parse_rational(y))
               for x, y in require(obj, "breakpoints")]
        return cls(pts, parse_rational(require(obj, "final_slope")))


def _slope_between(a, b) -> Fraction:
    return Fraction(b[1] - a[1]) / (b[0] - a[0])


def herbrand_phi(data: ramification.RamificationData) -> PLFunction:
    """phi(u) = (1/e) int_0^u Card G_t dt, Card G_t = g_i on [i, i+1)."""
    e = Fraction(data.e)
    pts = []
    y = Fraction(0)
    for i, g in enumerate(data.orders):
        y += Fraction(g) / e
        pts.append((Fraction(i + 1), y))
    return PLFunction(pts, Fraction(1) / e)


def different_valuation(data: ramification.RamificationData) -> Fraction:
    """v_F(D) = (1/e) sum_i (Card G_i - 1), cross-checked against phi.

    The asymptotic form lim_t (phi(t) - t/e) is read off the final segment
    of the Herbrand function and must agree exactly under the module's
    integration convention.
    """
    direct = Fraction(sum(g - 1 for g in data.orders), data.e)
    phi = herbrand_phi(data)
    if phi.breakpoints:
        x, y = phi.breakpoints[-1]
        asymptotic = y - x / Fraction(data.e)
    else:
        asymptotic = Fraction(0)
    assert direct == asymptotic, "integration convention violated"
    return direct

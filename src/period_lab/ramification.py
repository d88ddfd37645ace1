"""Piecewise-linear Herbrand calculus for higher ramification data.

A totally ramified Galois step is described by the orders g_0 >= g_1 >= ...
of its higher ramification groups in lower numbering (g_i = 1 beyond the
list, g_0 = e).  The increasing reindexing function is

    phi(u) = (1/e) * integral_0^u Card G_t dt

computed with the convention that Card G_t is constant equal to g_i on
[i, i+1).  This convention is the one consistent with the different
formula

    v_F(D) = (1/e) * sum_i (g_i - 1) = lim_t (phi(t) - t/e);

the alternative convention Card G_t = Card G_{ceil(t)} fails that identity
already on the tame example orders = [p-1] and is therefore not used (the
discrepancy is asserted against in the tests).

The module also carries the explicit machinery of ramified Z_p-towers:
the normalized jump function psi_r, the exact different of an
intermediate step of the tower, and the trace-decay / additive-Hilbert-90
constants exhibited from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import format_rational, parse_rational


@dataclass(frozen=True)
class PLFunction:
    """A continuous strictly increasing piecewise-linear bijection of R+.

    The graph starts at (0, 0), passes through ``breakpoints`` (sorted by
    abscissa), and continues with ``final_slope`` to the right of the last
    breakpoint.  All coordinates and slopes are exact rationals.
    """

    breakpoints: tuple
    final_slope: Fraction

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

    def is_identity(self) -> bool:
        return not self.breakpoints and self.final_slope == 1

    def to_json(self) -> dict:
        return {
            "breakpoints": [[format_rational(x), format_rational(y)]
                            for x, y in self.breakpoints],
            "final_slope": format_rational(self.final_slope),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PLFunction":
        pts = [(parse_rational(x), parse_rational(y))
               for x, y in obj["breakpoints"]]
        return cls(pts, parse_rational(obj["final_slope"]))


def _slope_between(a, b) -> Fraction:
    return Fraction(b[1] - a[1]) / (b[0] - a[0])


@dataclass(frozen=True)
class RamificationData:
    """Lower-numbering orders of the higher ramification groups.

    ``orders[i]`` is Card G_i; the list is nonincreasing, entries are >= 1
    and the sequence is implicitly 1 beyond the list.  Only totally
    ramified steps are modeled: e = orders[0] (unramified parts contribute
    trivially to phi and belong to the caller).  For i >= 1 consecutive
    orders must divide (the G_i are nested p-groups there); G_0/G_1 is
    merely cyclic prime-to-p, so divisibility is not required at i = 0.
    """

    e: int
    orders: tuple

    def __init__(self, e: int, orders):
        orders = tuple(int(g) for g in orders)
        # normalize away trailing trivial groups
        while orders and orders[-1] == 1:
            orders = orders[:-1]
        if e < 1:
            raise ValueError("ramification index must be >= 1")
        if orders and orders[0] != e:
            raise ValueError("totally ramified model requires g_0 = e")
        if not orders and e != 1:
            raise ValueError("totally ramified model requires g_0 = e")
        for a, b in zip(orders, orders[1:]):
            if b > a:
                raise ValueError("orders must be nonincreasing")
        for i in range(1, len(orders) - 1):
            if orders[i] % orders[i + 1] != 0:
                raise ValueError("Card G_{i+1} must divide Card G_i for i >= 1")
        if any(g < 1 for g in orders):
            raise ValueError("group orders are >= 1")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "orders", orders)


def herbrand_phi(data: RamificationData) -> PLFunction:
    """phi(u) = (1/e) int_0^u Card G_t dt, Card G_t = g_i on [i, i+1)."""
    e = Fraction(data.e)
    pts = []
    y = Fraction(0)
    for i, g in enumerate(data.orders):
        y += Fraction(g) / e
        pts.append((Fraction(i + 1), y))
    return PLFunction(pts, Fraction(1) / e)


def herbrand_psi(phi: PLFunction) -> PLFunction:
    """Exact piecewise-linear inverse of an increasing PL bijection."""
    return phi.inverse()


def compose_towers(outer: PLFunction, inner: PLFunction) -> PLFunction:
    """Exact composition outer o inner.

    For a tower F subset L1 subset L2 the transitivity law reads
    phi_{L2/F} = compose(phi_{L1/F}, phi_{L2/L1}) and, on the inverses,
    psi_{L2/F} = compose(psi_{L2/L1}, psi_{L1/F}).
    """
    return outer.compose(inner)


def different_valuation(data: RamificationData) -> Fraction:
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


def psi_r(r: int, u, p) -> Fraction:
    """The normalized jump function of a ramified Z_p-tower at level r.

    psi_r(u) = u on [0, 1), p^{j}(u - j) + (1 + p + ... + p^{j-1}) on
    [j, j+1) for j < r, and p^r(u - r) + (1 + ... + p^{r-1}) for u >= r.
    """
    u = Fraction(u)
    p = int(p)
    if u < 0:
        raise ValueError("psi_r is defined on the nonnegative reals")
    if r < 0:
        raise ValueError("level must be nonnegative")
    j = min(int(u), r)
    geom = Fraction(p**j - 1, p - 1)  # 1 + p + ... + p^{j-1}
    return p**j * (u - j) + geom


def psi_r_function(r: int, p) -> PLFunction:
    """psi_r as a PLFunction (breaks at 1..r, slopes 1, p, ..., p^r)."""
    p = int(p)
    pts = [(Fraction(j), psi_r(r, j, p)) for j in range(1, r + 1)]
    return PLFunction(pts, Fraction(p**r))


@dataclass(frozen=True)
class ZpExtensionProfile:
    """Constants (e_F, a, b) normalizing a ramified Z_p-tower.

    The tower's jump functions are psi_{F_r/F}(u) = e_F psi_r((u-a)/e_F) + b
    for u large.  The shift a is an integer whenever Hasse-Arf applies;
    rational a is accepted and merely flagged, not rejected.
    """

    e_F: int
    a: Fraction
    b: Fraction

    def __init__(self, e_F: int, a, b):
        if e_F < 1:
            raise ValueError("absolute ramification index must be >= 1")
        object.__setattr__(self, "e_F", int(e_F))
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    @property
    def a_is_integral(self) -> bool:
        return self.a.denominator == 1


def _different_term(profile: ZpExtensionProfile, p: int, x: int) -> Fraction:
    return (
        -profile.b / (Fraction(p) ** x * profile.e_F)
        + Fraction(p**x - 1, p**x * (p - 1))
    )


def trace_decay_bound(profile: ZpExtensionProfile, p, r: int, s: int) -> Fraction:
    """Exact v_p of the different of the tower step F_s / F_r (0 <= r <= s).

    v_p(D) = (s - r) - b/(p^s e_F) + b/(p^r e_F)
             + (p^s - 1)/(p^s (p - 1)) - (p^r - 1)/(p^r (p - 1)).

    Traces down the tower decrease valuations by at most (s - r) minus a
    bounded defect; see ``trace_decay_defect`` for that defect.
    """
    p = int(p)
    if not 0 <= r <= s:
        raise ValueError("need 0 <= r <= s")
    return (
        Fraction(s - r)
        + _different_term(profile, p, s)
        - _different_term(profile, p, r)
    )


def trace_decay_defect(profile: ZpExtensionProfile, p, r: int, s: int) -> Fraction:
    """(s - r) - v_p(D_{F_s/F_r}); uniformly bounded by |b/e_F + 1/(p-1)|."""
    return Fraction(s - r) - trace_decay_bound(profile, p, r, s)


def trace_decay_constant(profile: ZpExtensionProfile, p, window: int) -> Fraction:
    """The constant c_1 exhibited as (sup of the defect over the window) + 1.

    The sup is over 0 <= r <= s <= window; the defect is monotone in each
    argument, so the window sup already equals the global sup once the
    window is nonempty, but we scan anyway to keep the exhibition honest.
    """
    p = int(p)
    best = Fraction(0)
    for r in range(window + 1):
        for s in range(r, window + 1):
            d = trace_decay_defect(profile, p, r, s)
            if d > best:
                best = d
    return best + 1


def hilbert90_constant(c1) -> Fraction:
    """c_2 = c_1 + 1: the valuation-loss constant of the refined additive
    Hilbert 90 for the tower (x = gamma_r y - y with v_p(y) >= v_p(x) - c_2)."""
    c1 = Fraction(c1)
    if c1 < 0:
        raise ValueError("c_1 is a nonnegative constant")
    return c1 + 1

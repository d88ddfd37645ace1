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

``PLFunction.compose`` carries the transitivity law of a tower of steps.
The module also carries the explicit machinery of ramified Z_p-towers:
the normalized jump function psi_r, the exact different of an
intermediate step of the tower, and the trace-decay / additive-Hilbert-90
constants exhibited from it, the trace-decay one in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .padic import Record, as_fraction, format_ratio


class PLFunction(Record):
    """A continuous strictly increasing piecewise-linear bijection of R+.

    The graph starts at (0, 0), passes through ``breakpoints`` (sorted by
    abscissa), and continues with ``final_slope`` to the right of the last
    breakpoint.  All coordinates and slopes are exact rationals, held in
    integers: breakpoint i is (xs[i] / x_den, ys[i] / y_den), each
    denominator the least common one of the breakpoints kept, and the
    final slope is slope[0] / slope[1] in lowest terms.  So equal functions
    have equal fields, and ``breakpoints`` and ``final_slope`` read them
    back as Fractions.
    """

    __slots__ = ("xs", "x_den", "ys", "y_den", "slope")

    def __init__(self, breakpoints, final_slope):
        pts = [(as_fraction(x), as_fraction(y)) for x, y in breakpoints]
        # every coordinate over the lcm of all the denominators: order and
        # slopes compare in integers, by cross-multiplication
        dx = lcm(*(x.denominator for x, _ in pts))
        dy = lcm(*(y.denominator for _, y in pts))
        pts = sorted(
            (x.numerator * (dx // x.denominator), y.numerator * (dy // y.denominator))
            for x, y in pts
        )
        cleaned = []
        prev = (0, 0)
        for x, y in pts:
            if (x, y) == prev:
                continue
            if x <= prev[0] or y <= prev[1]:
                raise ValueError("breakpoints must be strictly increasing")
            cleaned.append((x, y))
            prev = (x, y)
        final_slope = as_fraction(final_slope)
        if final_slope <= 0:
            raise ValueError("final slope must be positive")
        n, d = final_slope.numerator, final_slope.denominator
        # drop breakpoints that do not change the slope: slope (y1 - y0) /
        # (x1 - x0) in these units is the true one times dy / dx
        xs, ys = [], []
        px = py = 0
        for i, (x, y) in enumerate(cleaned):
            if i + 1 < len(cleaned):
                nx, ny = cleaned[i + 1]
                same = (y - py) * (nx - x) == (ny - y) * (x - px)
            else:
                same = (y - py) * dx * d == n * (x - px) * dy
            if not same:
                xs.append(x)
                ys.append(y)
                px, py = x, y
        # the least common denominators of what is kept
        gx, gy = gcd(dx, *xs), gcd(dy, *ys)
        super().__init__(tuple(x // gx for x in xs), dx // gx, tuple(y // gy for y in ys),
                         dy // gy, (n, d))

    @property
    def breakpoints(self) -> tuple:
        return tuple(
            (Fraction(x, self.x_den), Fraction(y, self.y_den)) for x, y in zip(self.xs, self.ys)
        )

    @property
    def final_slope(self) -> Fraction:
        return Fraction(*self.slope)

    def __call__(self, u) -> Fraction:
        u = as_fraction(u)
        if u < 0:
            raise ValueError("Herbrand functions live on the nonnegative reals")
        a, b = u.numerator, u.denominator
        dx, dy = self.x_den, self.y_den
        px = py = 0
        for x, y in zip(self.xs, self.ys):
            if a * dx <= x * b:
                # py/dy + (y - py)/dy * dx/(x - px) * (a/b - px/dx)
                return Fraction(
                    py * (x - px) * b + (y - py) * (a * dx - px * b), dy * (x - px) * b
                )
            px, py = x, y
        n, d = self.slope
        return Fraction(py * d * b * dx + n * dy * (a * dx - px * b), dy * d * b * dx)

    def inverse(self) -> "PLFunction":
        """The mirror image in the diagonal: the same integers, swapped,
        stored unchecked as they are already in lowest terms."""
        f = object.__new__(PLFunction)
        Record.__init__(f, self.ys, self.y_den, self.xs, self.x_den, self.slope[::-1])
        return f

    def compose(self, inner: "PLFunction") -> "PLFunction":
        """Exact composition self o inner.

        For a tower F subset L1 subset L2 the transitivity law reads
        phi_{L2/F} = phi_{L1/F}.compose(phi_{L2/L1}) and, on the inverses,
        psi_{L2/F} = psi_{L2/L1}.compose(psi_{L1/F}).
        """
        xs = {x for x, _ in inner.breakpoints}
        inv = inner.inverse()
        xs.update(inv(bx) for bx, _ in self.breakpoints)
        pts = tuple((x, self(inner(x))) for x in sorted(xs))
        final = self.final_slope * inner.final_slope
        return PLFunction(pts, final)

    def to_json(self) -> dict:
        return {
            "breakpoints": [[format_ratio(x, self.x_den), format_ratio(y, self.y_den)]
                            for x, y in zip(self.xs, self.ys)],
            "final_slope": format_ratio(*self.slope),
        }


class RamificationData(Record):
    """Lower-numbering orders of the higher ramification groups.

    ``orders[i]`` is Card G_i; the list is nonincreasing, entries are >= 1
    and the sequence is implicitly 1 beyond the list.  Only totally
    ramified steps are modeled: e = orders[0] (unramified parts contribute
    trivially to phi and belong to the caller).  For i >= 1 consecutive
    orders must divide (the G_i are nested p-groups there); G_0/G_1 is
    merely cyclic prime-to-p, so divisibility is not required at i = 0.
    """

    __slots__ = ("e", "orders")

    def __init__(self, e: int, orders):
        orders = [int(g) for g in orders]
        # normalize away trailing trivial groups
        while orders and orders[-1] == 1:
            orders.pop()
        orders = tuple(orders)
        if e < 1:
            raise ValueError("ramification index must be >= 1")
        if orders and orders[0] != e:
            raise ValueError("totally ramified model requires g_0 = e")
        if not orders and e != 1:
            raise ValueError("totally ramified model requires g_0 = e")
        for a, b in zip(orders, orders[1:]):
            if b > a:
                raise ValueError("orders must be nonincreasing")
        # before the divisibility test, which would divide by a zero order
        if any(g < 1 for g in orders):
            raise ValueError("group orders are >= 1")
        for i in range(1, len(orders) - 1):
            if orders[i] % orders[i + 1] != 0:
                raise ValueError("Card G_{i+1} must divide Card G_i for i >= 1")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "orders", orders)


def herbrand_phi(data: RamificationData) -> PLFunction:
    """phi(u) = (1/e) int_0^u Card G_t dt, Card G_t = g_i on [i, i+1).

    phi has slope g_i / e on [i, i + 1) and 1/e past the orders, so its
    breakpoints are the (i + 1, (g_0 + ... + g_i) / e) with g_i != g_(i+1),
    read off the running sum of the orders in one pass."""
    e, orders = data.e, data.orders
    xs, ys = [], []
    total = 0
    for i, (g, after) in enumerate(zip(orders, orders[1:] + (1,)), 1):
        total += g
        if g != after:
            xs.append(i)
            ys.append(total)
    g = gcd(e, *ys)
    # already in lowest terms, so stored unchecked
    f = object.__new__(PLFunction)
    Record.__init__(f, tuple(xs), 1, tuple(y // g for y in ys), e // g, (1, e))
    return f


def herbrand_psi(phi: PLFunction) -> PLFunction:
    """Exact piecewise-linear inverse of an increasing PL bijection."""
    return phi.inverse()


def different_valuation(data: RamificationData) -> Fraction:
    """v_F(D) = (1/e) sum_i (Card G_i - 1), which is phi(t) - t/e on the
    final segment of the Herbrand function under the module's
    integration convention."""
    return Fraction(sum(data.orders) - len(data.orders), data.e)


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


class ZpExtensionProfile(Record):
    """Constants (e_F, a, b) normalizing a ramified Z_p-tower.

    The tower's jump functions are psi_{F_r/F}(u) = e_F psi_r((u-a)/e_F) + b
    for u large.  The shift a is an integer whenever Hasse-Arf applies;
    rational a is accepted and merely flagged, not rejected.
    """

    __slots__ = ("e_F", "a", "b")

    def __init__(self, e_F: int, a, b):
        if e_F < 1:
            raise ValueError("absolute ramification index must be >= 1")
        object.__setattr__(self, "e_F", int(e_F))
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))


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
    defect bounded by |b/e_F + 1/(p-1)|; ``trace_decay_constant`` takes
    its sup.
    """
    p = int(p)
    if not 0 <= r <= s:
        raise ValueError("need 0 <= r <= s")
    return (
        Fraction(s - r)
        + _different_term(profile, p, s)
        - _different_term(profile, p, r)
    )


def trace_decay_constant(profile: ZpExtensionProfile, p, window: int) -> Fraction:
    """The constant c_1 exhibited as (sup of the defect over the window) + 1.

    The defect (s - r) - v_p(D_{F_s/F_r}) is c (p^-s - p^-r) for
    c = b/e_F + 1/(p - 1), so its sup over 0 <= r <= s <= window is
    max(0, -c) (1 - p^-window), reached at r = 0, s = window; an empty
    window (window < 0) leaves the sup at 0.
    """
    p = int(p)
    if window < 0:
        return Fraction(1)
    c = profile.b / profile.e_F + Fraction(1, p - 1)
    return max(0, -c) * (1 - Fraction(1, p**window)) + 1


def hilbert90_constant(c1) -> Fraction:
    """c_2 = c_1 + 1: the valuation-loss constant of the refined additive
    Hilbert 90 for the tower (x = gamma_r y - y with v_p(y) >= v_p(x) - c_2)."""
    c1 = Fraction(c1)
    if c1 < 0:
        raise ValueError("c_1 is a nonnegative constant")
    return c1 + 1

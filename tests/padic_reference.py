"""p-adic helpers that only the tests use.

A reference lower convex hull: Andrew's monotone chain on Fraction
points, the computation that ``padic.lower_hull`` replaced with a chain
on integers over the lcm of the denominators.

And the two arithmetic functions that control convergence of
divided-power series:

* ``factorial_valuation(i, p)`` = v_p(i!) = (i - s_p(i)) / (p - 1) where
  s_p(i) is the digit sum of i in radix p, and
* ``nu(i, p)``, the smallest n with v_p(n!) + i >= 0 (and 0 for i >= 0),
  which has the erratic O(log|i|) overshoot over -i(p-1) that makes these
  computations worth automating.
"""

from __future__ import annotations

from fractions import Fraction


def lower_hull(points) -> list:
    """The vertex chain, left to right with strictly increasing slopes, of
    the lower convex hull of finite rational points, as Fraction pairs."""
    best = {}
    for x, y in sorted(set((Fraction(x), Fraction(y)) for x, y in points)):
        if x not in best or y < best[x]:
            best[x] = y
    hull = []
    for pt in sorted(best.items()):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop x2 if it lies on or above the segment x1 -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


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

"""Reference lower convex hull for the tests: Andrew's monotone chain on
Fraction points, the computation that ``padic.lower_hull`` replaced with
a chain on integers over the lcm of the denominators."""

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

"""Lower-convex Newton polygons in the plane, with rays at infinity.

A polygon here is the boundary of the convex hull of finitely many points
(i, v) plus two points at infinity.  In the canonical case (series in the
Witt-vector variable) the infinite directions are straight up on the left
and horizontal on the right, so the finite boundary is a vertex chain of
strictly increasing negative slopes.  Windowed views of genuinely infinite
polygons carry sloped rays that record the continuation direction at the
cut; those views are end products and cannot be Minkowski-summed.

Minkowski sums are computed by merging segment slope lists (the leftmost
points add componentwise); the plane Frobenius sends (i, v) to (i, p^n v).
The two window constructors return windows of the polygons of the two
standard infinite products

    product_{n >= 0} phi^{-n}(w0)          (the p-power-roots-of-unity series)
    product_{n >= 0} phi^{-n}(w0) * product_{n >= 1} phi^{n}(w0)/p

for w0 the distinguished degree-one generator with vertices (0,1), (1,0).
Both are windows of one vertex ladder, built in closed form: vertex
(n, p^(1-n)/(p-1)) at every integer n, slope -p^(-n) on [n, n+1].  Each
factor phi^{-n}(w0) contributes the segment of slope -p^(-n) right of 0,
each phi^{n}(w0)/p the segment of slope -p^n left of it, and a vertex's
ordinate is the summed height of the factors to its right.  The leftmost
ordinate of the first polygon is p/(p-1) = sum of p^{-n}; the often-quoted
1/(p-1) drops the n = 0 factor and is inconsistent with the product
formula, so it is not used here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .padic import INF, Record, as_fraction, format_rational, lower_hull

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


class Polygon(Record):
    """Vertex chain with strictly increasing slopes plus boundary rays.

    ``left_ray`` is VERTICAL (straight up from the leftmost vertex) or an
    exact slope strictly below the first segment slope; ``right_ray`` is
    HORIZONTAL or an exact slope strictly above the last one.  Sloped rays
    mark windowed views.
    """

    __slots__ = ("vertices", "left_ray", "right_ray")

    def __init__(self, vertices, left_ray=VERTICAL, right_ray=HORIZONTAL):
        verts = tuple((as_fraction(x), as_fraction(y)) for x, y in vertices)
        if not verts:
            raise ValueError("a polygon needs at least one vertex")
        # each segment's slope in integers, (y2 - y1) b d f h over
        # (x2 - x1) b d f h: the denominator has the sign of x2 - x1, and
        # once it is positive slopes compare by cross-multiplication
        ends = [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in verts]
        slopes = [
            ((g * d - c * h) * b * f, (e * b - a * f) * d * h)
            for (a, b, c, d), (e, f, g, h) in zip(ends, ends[1:])
        ]
        if any(den <= 0 for _, den in slopes):
            raise ValueError("vertices must have strictly increasing abscissas")
        if any(not _below(s1, s2) for s1, s2 in zip(slopes, slopes[1:])):
            raise ValueError("vertex chain must be strictly convex")
        if left_ray is not VERTICAL:
            left_ray = Fraction(left_ray)
            if slopes and not _below((left_ray.numerator, left_ray.denominator), slopes[0]):
                raise ValueError("left ray must be steeper than the first segment")
        if right_ray is not HORIZONTAL:
            right_ray = Fraction(right_ray)
            if slopes and not _below(slopes[-1], (right_ray.numerator, right_ray.denominator)):
                raise ValueError("right ray must be flatter than the last segment")
        if right_ray is HORIZONTAL and slopes and slopes[-1][0] >= 0:
            raise ValueError("segments must stay below the horizontal right ray")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "left_ray", left_ray)
        object.__setattr__(self, "right_ray", right_ray)

    @property
    def is_canonical(self) -> bool:
        """True for vertical-left / horizontal-right polygons (series hulls)."""
        return self.left_ray is VERTICAL and self.right_ray is HORIZONTAL

    def slopes(self) -> list:
        """[(slope, horizontal length)] of the finite segments, increasing."""
        return [
            ((y2 - y1) / (x2 - x1), x2 - x1)
            for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:])
        ]

    def leftmost(self):
        return self.vertices[0]

    def to_json(self) -> dict:
        def ray(r):
            return r if isinstance(r, str) else format_rational(r)

        return {
            "vertices": [[format_rational(x), format_rational(y)]
                         for x, y in self.vertices],
            "left_ray": ray(self.left_ray),
            "right_ray": ray(self.right_ray),
        }


def _below(s: tuple, t: tuple) -> bool:
    """s < t for slopes given as (numerator, denominator > 0)."""
    return s[0] * t[1] < t[0] * s[1]


def hull(points) -> Polygon:
    """Canonical polygon of a series: lower hull of its finite points,
    vertical ray up on the left, horizontal ray on the right.

    ``points`` are (abscissa, valuation) pairs of exact rationals, the
    abscissas possibly fractional (i/e in the ramified convention); an INF
    valuation marks a vanishing coefficient and is skipped.  At least one
    valuation must be finite.  Vertices on the strictly descending part of
    the hull survive; anything at or above the running minimum to the
    right is swallowed by the horizontal ray.
    """
    pts = [(i, v) for i, v in points if v is not INF]
    if not pts:
        raise ValueError("no finite valuation in the profile")
    chain = lower_hull(pts)
    verts = [chain[0]]
    for x, y in chain[1:]:
        if y < verts[-1][1]:
            verts.append((x, y))
        else:
            break
    return Polygon(verts)


def minkowski_sum(P: Polygon, Q: Polygon) -> Polygon:
    """Minkowski sum of two canonical polygons.

    Leftmost points add componentwise; the segment multiset is the merge
    of both slope lists, with equal slopes coalescing into one segment.
    """
    if not (P.is_canonical and Q.is_canonical):
        raise ValueError("Minkowski sums need canonical (unwindowed) polygons")
    merged = []
    for slope, length in sorted(P.slopes() + Q.slopes()):
        if merged and merged[-1][0] == slope:
            merged[-1] = (slope, merged[-1][1] + length)
        else:
            merged.append((slope, length))
    x = P.leftmost()[0] + Q.leftmost()[0]
    y = P.leftmost()[1] + Q.leftmost()[1]
    verts = [(x, y)]
    for slope, length in merged:
        x, y = x + length, y + slope * length
        verts.append((x, y))
    return Polygon(verts)


def frobenius_transform(P: Polygon, n: int, p) -> Polygon:
    """The plane Frobenius: every vertex (i, v) goes to (i, p^n v)."""
    scale = Fraction(int(p)) ** n

    def ray(r):
        return r if isinstance(r, str) else r * scale

    return Polygon(
        [(x, y * scale) for x, y in P.vertices], ray(P.left_ray), ray(P.right_ray)
    )


def epsilon_minus_one_polygon(p, x_window) -> Polygon:
    """Windowed polygon of the series with factorization
    product_{n>=0} phi^{-n}(w0): the ladder (see ``_ladder``) on [0, x_window],
    so leftmost point (0, p/(p-1)), then for each n >= 0 a segment of
    horizontal length 1 and slope -p^{-n}.  The left edge is vertical; the
    right ray records the continuation slope past the cut.
    """
    p = int(p)
    x_window = Fraction(x_window)
    if x_window < 1:
        raise ValueError("window must extend at least to 1")
    return _ladder(p, Fraction(0), x_window, VERTICAL)


def t_polygon(p, x_window_left, x_window_right) -> Polygon:
    """Windowed polygon of the series with factorization
    product_{n>=0} phi^{-n}(w0) * product_{n>=1} phi^{n}(w0)/p.

    The polygon is invariant under (i, v) -> (i - 1, p v); it is the whole
    ladder (see ``_ladder``), so its vertices sit at the integer abscissas n
    with ordinate (p/(p-1)) p^{-n} and slopes grow without bound to the
    left.  Both rays record the continuation slope past the cut.
    """
    p = int(p)
    lo, hi = Fraction(x_window_left), Fraction(x_window_right)
    if lo >= hi:
        raise ValueError("empty window")
    return _ladder(p, lo, hi, -Fraction(p) ** (1 - math.floor(lo)))


def _ladder(p: int, lo: Fraction, hi: Fraction, left_ray) -> Polygon:
    """The window [lo, hi] of the vertex ladder (n, p^(1-n)/(p-1)), n in Z,
    whose segment on [n, n+1] has slope -p^(-n).

    Vertices are the integers in the window plus the cut points lo and hi,
    on their segments.  The right ray is the slope of the first whole
    segment past hi, -p^(-ceil(hi)) (a partly kept segment's own slope
    would break strict convexity).
    """
    first, last = math.ceil(lo), math.floor(hi)
    if first > last:
        raise ValueError("window contains no vertex")

    def height(x):
        # p^(1-n)/(p-1) - p^(-n) (x - n) = (p - (p-1)(x - n)) / ((p-1) p^n)
        # for n = floor(x), with x = r/d an int or a Fraction
        n, r, d = math.floor(x), x.numerator, x.denominator
        num, den = p * d - (p - 1) * (r - n * d), (p - 1) * d
        return Fraction(num * p**-n, den) if n < 0 else Fraction(num, den * p**n)

    xs = list(range(first, last + 1))
    if lo < first:
        xs.insert(0, lo)
    if hi > last:
        xs.append(hi)
    return Polygon([(x, height(x)) for x in xs], left_ray, -Fraction(p) ** -math.ceil(hi))


def ascii_sketch(P: Polygon, width: int = 60, height: int = 20) -> str:
    """Plain-text sketch of a polygon window (vertices marked with 'o')."""
    xs = [x for x, _ in P.vertices]
    ys = [y for _, y in P.vertices]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo or y_hi == y_lo:
        return "o"
    grid = [[" "] * width for _ in range(height)]

    def place(x, y, ch):
        col = int((x - x_lo) * (width - 1) / (x_hi - x_lo))
        row = int((y_hi - y) * (height - 1) / (y_hi - y_lo))
        grid[row][col] = ch

    steps = width * 2
    for (x1, y1), (x2, y2) in zip(P.vertices, P.vertices[1:]):
        for k in range(steps + 1):
            t = Fraction(k, steps)
            place(x1 + (x2 - x1) * t, y1 + (y2 - y1) * t, ".")
    for x, y in P.vertices:
        place(x, y, "o")
    labels = " ".join(
        f"({format_rational(x)},{format_rational(y)})" for x, y in P.vertices
    )
    return "\n".join("".join(row) for row in grid) + "\n" + labels

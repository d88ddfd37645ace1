"""Newton polygons of the two distinguished series, drawn in ASCII.

The series [eps] - 1 factors as an infinite product of Frobenius twists of
the degree-one generator; its polygon therefore starts at (0, p/(p-1)) and
descends with slopes -1, -1/p, -1/p^2, ... one unit of width at a time.
The cyclotomic period t adds the factors phi^n(omega)/p for n >= 1, which
extend the polygon to the left with slopes -p, -p^2, ... unbounded below.

Run:  python demos/02_newton_polygons.py
"""

from fractions import Fraction as F

from period_lab.polygons import (
    ascii_sketch,
    epsilon_minus_one_polygon,
    frobenius_transform,
    hull,
    minkowski_sum,
    t_polygon,
)

p = 2

# The generator polygon and its Minkowski arithmetic.
gen = hull([(0, 1), (1, 0)])
print("degree-one generator polygon:", gen.vertices)
print("sum with itself merges the equal slopes:", minkowski_sum(gen, gen).vertices)

# Assemble the polygon of [eps] - 1 by hand from three factors plus the
# exact geometric tail, and compare with the packaged constructor.
acc = gen
for n in (1, 2):
    acc = minkowski_sum(acc, frobenius_transform(gen, -n, p))
tail = F(1, p**2 * (p - 1))
by_hand = tuple((x, y + tail) for x, y in acc.vertices if x <= 2)
packaged = epsilon_minus_one_polygon(p, 2)
assert by_hand == packaged.vertices
print("\npolygon of [eps]-1 (window 2):", packaged.vertices)
print("leftmost ordinate p/(p-1) =", packaged.leftmost()[1])
print(ascii_sketch(packaged, width=44, height=12))

# The polygon of t: invariant under (i, v) -> (i - 1, p v).
T = t_polygon(p, -3, 3)
print("\npolygon of t (window [-3, 3]):")
print(ascii_sketch(T, width=56, height=14))
shifted = tuple((x - 1, p * y) for x, y in T.vertices)
assert shifted == t_polygon(p, -4, 2).vertices
print("Frobenius invariance of the t-polygon checked on the window.")

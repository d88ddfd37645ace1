"""period-lab: exact-arithmetic toolkit for the computable core of
p-adic Hodge theory.

Subpackages, one per concern:

* ``padic``        exact rationals with p-adic valuations, Legendre/nu
* ``padic_poly``   polynomials mod p, over Z_p and over Q_p
* ``ramification`` piecewise-linear Herbrand calculus and Z_p-tower
                   constants
* ``polygons``     planar Newton polygons with rays, Minkowski sums, the
                   plane Frobenius, windowed infinite-product polygons
* ``tilt``         formal monomial model of the tilt and its Witt ring:
                   Frobenius, Galois action, v_flat, the evaluation map
* ``jets``         truncated free algebra modeling the de Rham completion
                   up to a fixed filtration order
* ``filtered_phi`` filtered Frobenius modules: Hodge/Newton numbers, the
                   weak-admissibility decision procedure
* ``characters``   character triples with the admissibility classification
                   and Sen operators
* ``cli``          the ``period-lab`` command-line front end

Everything is exact: rationals are ``fractions.Fraction`` at the API
boundary and integers over a common denominator on the hot paths, a
single +infinity sentinel stands for valuations of zero, and there is no
floating point.
"""

__version__ = "0.1.0"

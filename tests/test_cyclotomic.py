from fractions import Fraction as F
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from period_lab.cyclotomic import CycElt, CyclotomicContext
from period_lab.padic import INF, rational_valuation

x = sympy.symbols("x")


@st.composite
def cyclotomic_case(draw):
    """p, N and a polynomial g = p^a (x - 1)^b h(x) of degree < p^N: the
    factors push the valuation up, so that b_i cancel and the minimum is
    not always at i = 0.  The resultant at p^N = 343 takes seconds on
    dense g, so that level has fixed sparse cases below."""
    p, N = draw(st.sampled_from([(p, N) for p in (2, 3, 5, 7) for N in range(4) if p**N < 343]))
    order = p**N
    h = draw(st.dictionaries(
        st.integers(0, order - 1),
        st.fractions(min_value=-9, max_value=9, max_denominator=2 * p),
        min_size=1, max_size=5,
    ))
    a = draw(st.integers(-2, 2))
    b = draw(st.integers(0, min(6, order - 1 - max(h))))
    g = sympy.Poly(
        sympy.Rational(p) ** a * (x - 1) ** b
        * sum(sympy.Rational(v.numerator, v.denominator) * x**k for k, v in h.items()),
        x,
    )
    return p, N, {k: F(int(c.p), int(c.q)) for (k,), c in g.terms()}


def check_against_norm(p, N, coeffs):
    # p is totally ramified in Q(z), so v_p(g(z)) = v_p(Res(Phi_{p^N}, g)) / phi(p^N);
    # the resultant is taken of the integer polynomial L g, which adds
    # phi(p^N) v_p(L) to its valuation
    ctx = CyclotomicContext(p, N)
    elt = CycElt(ctx, {int(k): F(v) for k, v in coeffs.items()})
    L = lcm(*(v.denominator for v in coeffs.values()))
    G = sympy.Poly(sum(int(v * L) * x**k for k, v in coeffs.items()), x, domain="ZZ")
    res = sympy.resultant(sympy.Poly(sympy.cyclotomic_poly(p**N, x), x, domain="ZZ"), G)
    if res == 0:
        assert elt.is_zero() and elt.vp() is INF
        return
    got = elt.vp()
    assert got == rational_valuation(int(res), p) / ctx.degree - rational_valuation(L, p)
    assert type(got) is F


@settings(max_examples=100, deadline=None)
@given(cyclotomic_case())
def test_vp_is_norm_valuation_over_degree(case):
    check_against_norm(*case)


@pytest.mark.parametrize("g", [
    7 * (x - 1) ** 3 + x**200,
    3 * x**300 - 2 * x**49 + 7,
    (x**49 - 1) * (x - 1) ** 2 + 49 * x**5,
    sympy.Rational(1, 49) * (x**49 - 1) ** 3,
    (x**294 + x**245 + x**196 + x**147 + x**98 + x**49 + 1) * x,  # Phi_343 times z
])
def test_vp_is_norm_valuation_at_level_343(g):
    coeffs = {k: F(int(c.p), int(c.q)) for (k,), c in sympy.Poly(g, x).terms()}
    check_against_norm(7, 3, coeffs)


def test_vp_examples():
    ctx = CyclotomicContext(3, 2)
    z = ctx.root_power(1)
    assert (z - ctx.rational(1)).vp() == F(1, 6)
    assert ctx.rational(F(9, 2)).vp() == 2
    assert ctx.zero().vp() is INF
    assert CyclotomicContext(5, 0).rational(F(1, 25)).vp() == -2


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(p, N) for p in (2, 3, 5, 7) for N in range(4)]),
    st.dictionaries(st.integers(-60, 400), st.integers(-10**6, 10**6), max_size=8),
)
def test_int_and_fraction_coefficients_agree(level, coeffs):
    # theta and v_flat build elements from int coefficients; the element
    # is the one the equal Fraction coefficients give, and stays in ints
    ctx = CyclotomicContext(*level)
    a = CycElt(ctx, coeffs)
    b = CycElt(ctx, {k: F(v) for k, v in coeffs.items()})
    assert a == b and hash(a) == hash(b)
    assert a.vp() == b.vp()
    assert all(type(v) is int for v in a.coeffs.values())

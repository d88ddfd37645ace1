import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jets_reference as ref

from period_lab.jets import (
    JetContext,
    JetElement,
    binomial_pow,
    frobenius_jet,
    galois_act_jet,
    galois_w,
    gr_generator_check,
    log1p,
    verify_cocycle,
)
from period_lab.padic import format_rational, parse_rational
from period_lab.tilt import GaloisElement


def jet_to_json(x: JetElement) -> dict:
    """A jet as JSON: its order and each coefficient under its monomial."""

    def mono(i, j):
        parts = []
        if i:
            parts.append("u" if i == 1 else f"u^{i}")
        if j:
            parts.append("w" if j == 1 else f"w^{j}")
        return " ".join(parts) or "1"

    return {
        "order": x.context.order,
        "coeffs": [
            {"monomial": mono(i, j), "value": format_rational(v)}
            for (i, j), v in sorted(x.coeffs.items())
        ],
    }


def jet_from_json(context: JetContext, obj: dict) -> JetElement:
    """The jet of ``jet_to_json``."""
    coeffs = {}
    for item in obj["coeffs"]:
        i = j = 0
        mono = item["monomial"]
        if mono != "1":
            for factor in mono.split():
                name, _, exp = factor.partition("^")
                e = int(exp) if exp else 1
                if name == "u":
                    i = e
                elif name == "w":
                    j = e
                else:
                    raise ValueError(f"unknown generator {name!r}")
        coeffs[(i, j)] = parse_rational(item["value"])
    return JetElement(context, coeffs)


def frobenius_galois_commute(g: GaloisElement, context: JetContext) -> bool:
    """Check that Frobenius and the Galois action commute as substitution
    maps, i.e. on the generators u and w.

    Because the w-Frobenius carries a constant term, iterating the two
    element-level operations through an order-m intermediate loses tail
    terms that Frobenius would resurrect at low degree; the law that is
    actually true upstairs is the equality of the composed substitutions.
    Both composites are therefore evaluated with internal degree headroom
    and compared below the context order, where they are exact."""
    work = JetContext(context.prime, context.order + context.p + 2)
    p = work.p
    u, w, one = work.u(), work.w(), work.one()
    phi_u = binomial_pow(u, p) - 1
    phi_w = one - (one - w) ** p * F(p) ** (p - 1)
    g_u = binomial_pow(u, g.chi) - 1
    g_w = one - binomial_pow(u, g.c) * (one - w)

    def retruncate(x):
        return JetElement(context, {k: v for k, v in x.coeffs.items() if sum(k) < context.order})

    for gen in (u, w):
        g_gen = gen.substitute(g_u, g_w)
        phi_gen = gen.substitute(phi_u, phi_w)
        lhs = g_gen.substitute(phi_u, phi_w)   # phi after g
        rhs = phi_gen.substitute(g_u, g_w)     # g after phi
        if retruncate(lhs) != retruncate(rhs):
            return False
    return True


def random_unit(rng, p):
    while True:
        num, den = rng.randrange(1, 60), rng.randrange(1, 25)
        if num % p and den % p:
            return F(rng.choice([-1, 1]) * num, den)


def random_galois(rng, p):
    den = rng.choice([d for d in range(1, 12) if d % p])
    return GaloisElement(random_unit(rng, p), F(rng.randrange(-20, 21), den))


def random_jet(rng, ctx, zero_const=False):
    coeffs = {}
    for _ in range(rng.randrange(1, 5)):
        i, j = rng.randrange(0, ctx.order), rng.randrange(0, ctx.order)
        if i + j >= ctx.order or (zero_const and i == j == 0):
            continue
        coeffs[(i, j)] = F(rng.randrange(-9, 10) or 1, rng.randrange(1, 7))
    return JetElement(ctx, coeffs)


def test_log1p_series():
    ctx = JetContext(3, 4)
    assert log1p(ctx.u()).coeffs == {
        (1, 0): F(1),
        (2, 0): F(-1, 2),
        (3, 0): F(1, 3),
    }
    assert log1p(JetContext(3, 2).u()) == JetContext(3, 2).u()
    assert log1p(JetContext(5, 6).zero()).is_zero()


def test_log1p_rejects_constant_term():
    ctx = JetContext(3, 4)
    with pytest.raises(ValueError):
        log1p(ctx.one())


def test_binomial_examples():
    ctx = JetContext(3, 3)
    half = binomial_pow(ctx.u(), F(1, 2))
    assert half.coeffs == {(0, 0): F(1), (1, 0): F(1, 2), (2, 0): F(-1, 8)}
    assert binomial_pow(ctx.u(), 1) == ctx.one() + ctx.u()
    p = 5
    big = JetContext(p, 6)
    assert binomial_pow(big.u(), p) - 1 == frobenius_jet(big.u())


def test_binomial_rejects_p_in_denominator():
    ctx = JetContext(3, 4)
    with pytest.raises(ValueError):
        binomial_pow(ctx.u(), F(1, 3))


def test_binomial_composition():
    rng = random.Random(61)
    ctx = JetContext(3, 7)
    for _ in range(30):
        r, s = random_unit(rng, 3), random_unit(rng, 3)
        lhs = binomial_pow(binomial_pow(ctx.u(), r) - 1, s)
        rhs = binomial_pow(ctx.u(), r * s)
        assert lhs == rhs


def ref_exp(x: JetElement) -> JetElement:
    """exp(x), summed by ``jets_reference.exp``."""
    rx = ref.JetElement(ref.JetContext(x.context.p, x.context.order), x.coeffs)
    return JetElement(x.context, ref.exp(rx).coeffs)


def test_exp_log_roundtrip():
    rng = random.Random(67)
    for order in (4, 6, 8):
        ctx = JetContext(3, order)
        for _ in range(20):
            x = random_jet(rng, ctx, zero_const=True)
            assert log1p(ref_exp(x) - 1) == x
            assert ref_exp(log1p(x)) == ctx.one() + x


def test_period_identities():
    for p in (2, 3, 5):
        ctx = JetContext(p, 6)
        t = ctx.t()
        assert frobenius_jet(t) == p * t
        chi = F(4) if p != 2 else F(5)
        assert galois_act_jet(GaloisElement(chi, F(1)), t) == chi * t
        # t = u modulo degree 2
        low = JetContext(p, 2)
        assert low.t() == low.u()


def test_frobenius_constant_term_on_w():
    for p in (2, 3, 5):
        ctx = JetContext(p, 5)
        assert frobenius_jet(ctx.w()).constant_term() == 1 - F(p) ** (p - 1)
        assert frobenius_jet(ctx.one()) == ctx.one()


def test_cocycle_verification():
    rng = random.Random(71)
    for p in (2, 3, 5):
        ctx = JetContext(p, 6)
        for _ in range(50):
            assert verify_cocycle(random_galois(rng, p), ctx)
        # trivial cocycle reduces to invariance
        assert verify_cocycle(GaloisElement(random_unit(rng, p), F(0)), ctx)


def test_cocycle_at_higher_orders():
    rng = random.Random(73)
    for order in (2, 4, 8):
        ctx = JetContext(3, order)
        for _ in range(10):
            assert verify_cocycle(random_galois(rng, 3), ctx)


def test_galois_group_law_on_elements():
    rng = random.Random(79)
    for p in (2, 3, 5):
        ctx = JetContext(p, 6)
        for _ in range(20):
            g, h = random_galois(rng, p), random_galois(rng, p)
            x = random_jet(rng, ctx)
            assert galois_act_jet(g, galois_act_jet(h, x)) == galois_act_jet(
                g.compose(h), x
            )


def test_frobenius_galois_commute_as_maps():
    rng = random.Random(83)
    for p in (2, 3, 5):
        ctx = JetContext(p, 6)
        for _ in range(15):
            assert frobenius_galois_commute(random_galois(rng, p), ctx)


def test_frobenius_galois_commute_on_u_subalgebra():
    # both operations are quotient endomorphisms there, so the law holds
    # on elements, not just on maps
    rng = random.Random(89)
    ctx = JetContext(3, 8)
    for _ in range(20):
        g = random_galois(rng, 3)
        x = ctx.zero()
        for i in range(1, ctx.order):
            if rng.random() < 0.5:
                x = x + ctx.u() ** i * F(rng.randrange(-5, 6), rng.randrange(1, 5))
        assert frobenius_jet(galois_act_jet(g, x)) == galois_act_jet(
            g, frobenius_jet(x)
        )


def test_gr_generator_check():
    assert gr_generator_check(0, 3)
    assert gr_generator_check(1, 2)
    assert gr_generator_check(3, 2)
    for p in (2, 3, 5):
        for m in range(1, 7):
            assert gr_generator_check(m, p)


def test_binomial_coefficients_p_integrality_guard():
    # a p-adically non-integral exponent (denominator divisible by p)
    # is rejected before any coefficient is formed
    ctx = JetContext(5, 8)
    with pytest.raises(ValueError):
        binomial_pow(ctx.u(), F(3, 10))
    # p-integral exponents pass the on-the-fly check
    binomial_pow(ctx.u(), F(3, 7))


def test_jet_json_roundtrip():
    ctx = JetContext(3, 5)
    x = JetElement(ctx, {(1, 0): F(2, 3), (0, 2): F(-1, 7), (1, 1): F(4)})
    assert jet_from_json(ctx, jet_to_json(x)) == x
    assert jet_from_json(ctx, jet_to_json(ctx.one())) == ctx.one()


# -- the integer representation against the Fraction reference ---------------

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def jet_case(draw, count=2, order_max=12):
    """A context and ``count`` coefficient maps, keys past the order
    included (both sides truncate them)."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    order = draw(st.integers(1, order_max))
    keys = st.tuples(st.integers(0, order), st.integers(0, order))
    maps = [draw(st.dictionaries(keys, rationals, max_size=8)) for _ in range(count)]
    return p, order, maps


def both(p, order, coeffs, zero_const=False):
    if zero_const:
        coeffs = {k: v for k, v in coeffs.items() if k != (0, 0)}
    return JetElement(JetContext(p, order), coeffs), ref.JetElement(ref.JetContext(p, order), coeffs)


def outcome(fn, *args):
    try:
        return fn(*args).coeffs
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__


@settings(max_examples=80, deadline=None)
@given(jet_case(), rationals)
def test_ring_operations_match_reference(case, q):
    p, order, (a, b) = case
    x, rx = both(p, order, a)
    y, ry = both(p, order, b)
    assert x.coeffs == rx.coeffs
    assert (x * y).coeffs == (rx * ry).coeffs
    assert (x + y).coeffs == (rx + ry).coeffs
    assert (x - y).coeffs == (rx - ry).coeffs
    assert (q - x).coeffs == (q - rx).coeffs
    assert (x * q).coeffs == (rx * q).coeffs
    assert (x == y) == (rx == ry)
    # equal jets reached by different routes are equal and hash alike
    z = x + y - y
    assert z == x and hash(z) == hash(x)
    assert x.constant_term() == rx.constant_term()
    assert x.min_total_degree() == rx.min_total_degree()


@settings(max_examples=40, deadline=None)
@given(jet_case(count=3, order_max=8))
def test_substitute_matches_reference(case):
    p, order, (a, b, c) = case
    x, rx = both(p, order, a)
    u_img, ru_img = both(p, order, b)
    w_img, rw_img = both(p, order, c)
    assert x.substitute(u_img, w_img).coeffs == rx.substitute(ru_img, rw_img).coeffs


@settings(max_examples=60, deadline=None)
@given(jet_case(count=1), st.fractions(min_value=-30, max_value=30, max_denominator=16))
def test_series_match_reference(case, exponent):
    p, order, (a,) = case
    x, rx = both(p, order, a, zero_const=True)
    assert log1p(x).coeffs == ref.log1p(rx).coeffs
    assert outcome(binomial_pow, x, exponent) == outcome(ref.binomial_pow, rx, exponent)
    # a constant term is refused by both
    y, ry = both(p, order, {**a, (0, 0): F(1)})
    assert outcome(log1p, y) == outcome(ref.log1p, ry)
    assert outcome(binomial_pow, y, exponent) == outcome(ref.binomial_pow, ry, exponent)


@st.composite
def galois_case(draw, order_max):
    p = draw(st.sampled_from((2, 3, 5)))
    order = draw(st.integers(2, order_max))
    chi = draw(rationals.filter(lambda q: q and q.numerator % p and q.denominator % p))
    c = draw(rationals.filter(lambda q: q.denominator % p))
    return p, order, GaloisElement(chi, c)


@settings(max_examples=30, deadline=None)
@given(galois_case(order_max=12))
def test_identities_match_reference(case):
    p, order, g = case
    ctx, rctx = JetContext(p, order), ref.JetContext(p, order)
    assert verify_cocycle(g, ctx) == ref.verify_cocycle(g, rctx)
    y, ry = ctx.log_p_flat(), rctx.log_p_flat()
    assert galois_act_jet(g, y).coeffs == ref.galois_act_jet(g, ry).coeffs
    assert frobenius_jet(y).coeffs == ref.frobenius_jet(ry).coeffs


@settings(max_examples=15, deadline=None)
@given(galois_case(order_max=8))
def test_frobenius_galois_commute_matches_reference(case):
    p, order, g = case
    assert frobenius_galois_commute(g, JetContext(p, order)) == ref.frobenius_galois_commute(
        g, ref.JetContext(p, order)
    )


# -- log1p through the Euler operator, the cocycle without substitution, and
# -- powers that drop terms past the order --------------------------------


@st.composite
def fractional_jet_case(draw):
    """A context and the coefficients of a jet over a common denominator
    D > 1 whose lowest total degree is 1 or 2."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    order = draw(st.integers(1, 12))
    low = draw(st.sampled_from((1, 2)))
    D = draw(st.integers(2, 12))
    keys = st.tuples(st.integers(0, order), st.integers(0, order)).filter(lambda k: sum(k) >= low)
    nums = draw(st.dictionaries(keys, st.integers(-30, 30).filter(bool), max_size=8))
    nums[(low, 0) if draw(st.booleans()) else (0, low)] = 1
    return p, order, {k: F(v, D) for k, v in nums.items()}


@settings(max_examples=80, deadline=None)
@given(fractional_jet_case())
def test_log1p_matches_reference_over_a_denominator(case):
    p, order, coeffs = case
    x, rx = both(p, order, coeffs)
    assert x.is_zero() or x.den > 1
    assert log1p(x).coeffs == ref.log1p(rx).coeffs
    assert log1p(-x).coeffs == ref.log1p(-rx).coeffs
    zero, rzero = both(p, order, {})
    assert log1p(zero).coeffs == ref.log1p(rzero).coeffs == {}


@st.composite
def cocycle_case(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    order = draw(st.integers(2, 14))
    chi = draw(rationals.filter(lambda q: q and q.numerator % p and q.denominator % p))
    c = draw(st.one_of(st.just(F(1, 2)), rationals).filter(lambda q: q.denominator % p))
    return p, order, GaloisElement(chi, c, p=p)


@settings(max_examples=60, deadline=None)
@given(cocycle_case())
def test_the_cocycle_left_side_is_the_galois_action(case):
    # verify_cocycle reads g(log[pflat]) as log1p(-g(w)), which is the
    # substitution of g into log[pflat] = log1p(-w)
    p, order, g = case
    ctx = JetContext(p, order)
    assert log1p(-galois_w(g, ctx)) == galois_act_jet(g, ctx.log_p_flat())
    assert verify_cocycle(g, ctx)


@settings(max_examples=60, deadline=None)
@given(jet_case(count=1, order_max=9), rationals.filter(bool))
def test_powers_match_reference(case, q):
    p, order, (a,) = case
    x, rx = both(p, order, a, zero_const=True)
    y, ry = x + q, rx + q
    for n in range(order + 2):
        assert (x**n).coeffs == (rx**n).coeffs
        assert (y**n).coeffs == (ry**n).coeffs

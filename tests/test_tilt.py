import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tilt_reference as ref
from period_lab import tilt
from period_lab.padic import INF, multiplicity, residue
from period_lab.tilt import (
    ExponentTooFineError,
    FqElement,
    GaloisElement,
    InexactTeichmullerError,
    TiltExpr,
    field_modulus,
    generator_condition_check,
    ker_theta_orbit_probe,
    theta,
    vflat_sum,
)


def random_unit(rng, p):
    while True:
        num, den = rng.randrange(1, 60), rng.randrange(1, 25)
        if num % p and den % p:
            return F(rng.choice([-1, 1]) * num, den)


def random_cocycle_value(rng, p):
    den = rng.choice([d for d in range(1, 12) if d % p])
    return F(rng.randrange(-20, 21), den)


def random_galois(rng, p):
    return GaloisElement(random_unit(rng, p), random_cocycle_value(rng, p))


def random_expr(rng, p, allow_p_powers=False):
    terms = []
    for _ in range(rng.randrange(1, 4)):
        a = F(rng.randrange(-6, 7), p ** rng.randrange(0, 2))
        c = F(rng.randrange(0, 6), p ** rng.randrange(0, 2))
        i = rng.randrange(0, 3) if allow_p_powers else 0
        terms.append((rng.choice([-2, -1, 1, 2, 3]), a, c, FqElement.one(p), i))
    return TiltExpr(p, terms)


# -- ring structure ----------------------------------------------------------


def test_omega_times_shifted_generator_telescopes():
    for p in (2, 3, 5):
        w = TiltExpr.omega(p)
        shifted = TiltExpr.epsilon_power(p, F(1, p)) - TiltExpr.one(p)
        assert w * shifted == TiltExpr.epsilon_minus_one(p)


def test_multiplicative_identity():
    p = 5
    x = TiltExpr.omega(p) * TiltExpr.p_flat_power(p, F(2, 5))
    assert x * TiltExpr.one(p) == x


def test_generator_square_has_three_terms():
    sq = TiltExpr.p_flat_minus_p(3) * TiltExpr.p_flat_minus_p(3)
    assert len(sq.terms) == 3
    coeffs = sorted(term[0] for term in sq.terms)
    assert coeffs == [-2, 1, 1]


# -- Frobenius ----------------------------------------------------------------


def test_frobenius_of_omega():
    p = 3
    w = TiltExpr.omega(p)
    fw = w.frobenius(1)
    # sum of [eps]^j for j < p
    assert fw == sum(
        (TiltExpr.epsilon_power(p, j) for j in range(1, p)), TiltExpr.one(p)
    )
    assert theta(fw, 3).equals_rational(p)


def test_frobenius_identity_and_inverse():
    p = 5
    x = TiltExpr.omega(p) * TiltExpr.p_flat_power(p, F(3, 5))
    assert x.frobenius(0) == x
    assert x.frobenius(1).frobenius(-1) == x
    assert TiltExpr.epsilon_power(p, 1).frobenius(1) == TiltExpr.epsilon_power(p, p)


# -- Galois action -------------------------------------------------------------


def test_galois_on_generators():
    p = 5
    g = GaloisElement(F(7), F(2))
    assert TiltExpr.epsilon_power(p, 1).galois_act(g) == TiltExpr.epsilon_power(p, 7)
    pf = TiltExpr.p_flat_power(p, 1).galois_act(g)
    expected = TiltExpr(p, [(1, F(2), F(1), FqElement.one(p), 0)])
    assert pf == expected
    assert pf.galois_act(GaloisElement(1, 0, 0)) == pf


def test_galois_group_law():
    rng = random.Random(43)
    for p in (2, 3, 5):
        for _ in range(30):
            g, h = random_galois(rng, p), random_galois(rng, p)
            x = random_expr(rng, p)
            assert x.galois_act(h).galois_act(g) == x.galois_act(g.compose(h))


def test_theta_galois_compatibility_on_epsilon_sums():
    # theta(g x) is theta(x) with the root sent to its chi-power
    rng = random.Random(47)
    N = 3
    for p in (3, 5):
        for _ in range(25):
            terms = []
            for _ in range(rng.randrange(1, 4)):
                a = F(rng.randrange(-8, 9), p ** rng.randrange(0, N))
                terms.append((rng.choice([-1, 1, 2]), a, 0, FqElement.one(p), 0))
            x = TiltExpr(p, terms)
            chi = random_unit(rng, p)
            g = GaloisElement(chi, 0)
            lhs = theta(x.galois_act(g), N)
            rhs = ref.substitute_root(theta(x, N), residue(chi, p, N))
            keys = set(lhs.pieces) | set(rhs.pieces)
            for k in keys:
                a_piece = lhs.pieces.get(k, lhs.context.zero())
                b_piece = rhs.pieces.get(k, rhs.context.zero())
                assert (a_piece - b_piece).is_zero()


# -- v_flat ---------------------------------------------------------------------


def test_vflat_monomial():
    # a unit eps^a [u] has v_flat 0; (pflat)^c [u] has v_flat c
    p = 5
    one, minus_one = FqElement.one(p), FqElement(p, 1, (p - 1,))
    for a, c, u, want in ((F(1, p), 0, one, 0), (0, 1, one, 1), (0, F(3, p), minus_one, F(3, p))):
        res = vflat_sum(TiltExpr(p, [(1, a, c, u, 0)]), 2)
        assert res.stabilized and res.value == want
    # [2] has no exact cyclotomic image: its depths are reported, not asserted
    res = vflat_sum(TiltExpr(p, [(1, 0, F(3, p), FqElement(p, 1, (2,)), 0)]), 2)
    assert res.values == [None] * 3 and not res.stabilized


def test_vflat_sum_epsilon_minus_one():
    for p in (2, 3, 5, 7):
        res = vflat_sum(TiltExpr.epsilon_minus_one(p), 3)
        assert res.values[0] is INF  # depth-0 component vanishes
        assert res.stabilized and res.value == F(p, p - 1)


def test_vflat_sum_omega_mod_p():
    for p in (2, 3, 5, 7):
        res = vflat_sum(TiltExpr.omega(p), 3)
        assert res.stabilized and res.value == 1
        assert res.values[1] == 1  # stabilizes from depth 1 on


def test_vflat_single_monomial_reads_off_exponent():
    p = 3
    mono = TiltExpr.p_flat_power(p, F(2, 3))
    res = vflat_sum(mono, 2)
    assert res.values == [F(2, 3), F(2, 3), F(2, 3)]
    assert res.stabilized and res.value == F(2, 3)


def test_vflat_multiplicativity():
    rng = random.Random(53)
    for p in (3, 5):
        for _ in range(20):
            x = TiltExpr.omega(p)
            c = F(rng.randrange(0, 8), p ** rng.randrange(0, 2))
            y = TiltExpr.p_flat_power(p, c)
            vx = vflat_sum(x, 4)
            vy = vflat_sum(y, 4)
            vxy = vflat_sum(x * y, 4)
            if vx.stabilized and vy.stabilized and vxy.stabilized:
                assert vxy.value == vx.value + vy.value


def test_vflat_rejects_p_powers():
    with pytest.raises(ValueError):
        vflat_sum(TiltExpr.p_flat_minus_p(3), 2)


def test_integer_coefficients_divisible_by_p_vanish_mod_p():
    # p * [1] reduces to zero in the residue ring: valuation infinity
    p = 3
    x = TiltExpr(p, [(p, 0, 0, FqElement.one(p), 0)])
    res = vflat_sum(x, 2)
    assert res.values == [INF, INF, INF]


# the largest p-exponent of an eps denominator plus depth, per p, that keeps
# the cyclotomic degree in the hundreds
LEVEL_CAP = {2: 6, 3: 4, 5: 3}
MAX_TERMS = 56


@st.composite
def teichmuller_unit(draw, p):
    """1 or -1 mostly; else a nonzero element of F_{p^f}, f in {1, 2, 3},
    1 among them (exact at every depth) and others (formal keys that move
    with the depth when f > 1)."""
    f = draw(st.sampled_from((1, 1, 1, 1, 2, 3)))
    if f == 1 and draw(st.booleans()):
        return FqElement(p, 1, (draw(st.sampled_from((1, p - 1))),))
    poly = draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f).filter(any))
    return FqElement(p, f, poly)


@st.composite
def formal_sum(draw):
    """(x, depth): a p-power-index-0 sum of up to MAX_TERMS monomials with
    eps-exponents of either sign and of p-power (and some prime-to-p)
    denominator, pflat exponents in 1/p^2, Teichmueller parts from
    ``teichmuller_unit``, and a depth up to the level cap."""
    p = draw(st.sampled_from((2, 3, 5)))
    k_max = draw(st.integers(0, LEVEL_CAP[p] - 1))
    terms = []
    for _ in range(draw(st.integers(1, MAX_TERMS))):
        den = p ** draw(st.integers(0, k_max)) * draw(st.sampled_from([d for d in (1, 1, 1, 2, 7) if d % p]))
        a = F(draw(st.integers(-3 * den, 3 * den)), den)
        c = F(draw(st.integers(0, 12)), p ** draw(st.integers(0, 2)))
        u = draw(teichmuller_unit(p))
        terms.append((draw(st.sampled_from([-3, -2, -1, 1, 2, 3, p])), a, c, u, 0))
    return TiltExpr(p, terms), draw(st.integers(0, LEVEL_CAP[p] - k_max))


@settings(max_examples=100, deadline=None)
@given(formal_sum())
def test_vflat_sum_matches_per_term_accumulation(case):
    x, depth = case
    res = vflat_sum(x, depth)
    expected = [ref.component_value(x, n) for n in range(depth + 1)]
    assert res.values == [v if ok else None for v, ok in expected]
    assert res.conclusive == all(ok for _, ok in expected)


def test_reference_inverse_frobenius_inverts_frobenius():
    for p, f in ((2, 3), (3, 2), (5, 3)):
        u = FqElement(p, f, (1, 1))
        for n in range(-4, 5):
            assert ref.inverse_frobenius(u, n).frobenius(n) == u
        assert ref.inverse_frobenius(u, 0) == u


@settings(max_examples=60, deadline=None)
@given(formal_sum(), st.lists(st.integers(-1, 2), min_size=MAX_TERMS, max_size=MAX_TERMS))
def test_theta_matches_per_term_accumulation(case, p_powers):
    x, N = case
    x = TiltExpr(x.p, [(*term[:4], i) for term, i in zip(x.terms, p_powers)])
    try:
        expected = ref.theta_pieces(x, N)
    except ValueError:
        with pytest.raises(ExponentTooFineError):
            theta(x, N)
        return
    assert theta(x, N).pieces == expected


@st.composite
def probe_case(draw):
    """(x, N, n_max): a sum of up to three monomials with p-power indices,
    pflat exponents c > 0 of p-power denominator and Teichmueller parts in
    F_p or F_(p^2), in four draws of five times phi^-k(omega) =
    sum_j [eps^(j/p^(k+1))] for a drawn k <= 4, so that theta(phi^n) of
    the product vanishes at n = k.  N runs from 0 to k_max + 2 and n_max
    up to 4."""
    p = draw(st.sampled_from((2, 3, 5)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        a = F(draw(st.integers(-4, 4)), p ** draw(st.integers(0, 1)))
        c = F(draw(st.integers(1, 8)), p ** draw(st.integers(0, 2)))
        f = draw(st.sampled_from((1, 1, 1, 1, 1, 2)))
        if f == 1 and draw(st.sampled_from((True, True, True, False))):
            u = FqElement(p, 1, (draw(st.sampled_from((1, p - 1))),))
        else:
            code = draw(st.integers(1, p**f - 1))
            u = FqElement(p, f, (code % p, code // p))
        terms.append((draw(st.sampled_from([-2, -1, 1, 2])), a, c, u, draw(st.integers(0, 2))))
    # the product with phi^-k(omega), term by term
    k = draw(st.integers(0, 4))
    shifts = [F(j, p ** (k + 1)) for j in range(p)] if draw(st.integers(0, 4)) else [0]
    x = TiltExpr(p, [(n, a + b, c, u, i) for n, a, c, u, i in terms for b in shifts])
    k_max = max((multiplicity(a.denominator, p) for _, a, _, _, _ in x.terms), default=0)
    # levels from k_max up, where no exponent is too fine, drawn more often
    N = draw(st.one_of(st.integers(0, k_max + 2), st.integers(k_max, k_max + 2)))
    return x, N, draw(st.sampled_from(range(5)))


def reference_probe(x, N: int, n_max: int):
    """The probe's entries from the reference pieces of phi^n(x), or the
    error type the probe must raise first."""
    out = []
    for n in range(n_max + 1):
        try:
            pieces = ref.theta_pieces(x.frobenius(n), N)
        except ValueError:
            return ExponentTooFineError
        live = [key for key, v in pieces.items() if not v.is_zero()]
        if any(key[1] is not None for key in live):
            return InexactTeichmullerError
        out.append(not live)
    return out


@settings(max_examples=300, deadline=None)
@given(probe_case())
def test_kernel_orbit_probe_matches_the_reference_at_every_shift(case):
    x, N, n_max = case
    expected = reference_probe(x, N, n_max)
    if isinstance(expected, list):
        assert ker_theta_orbit_probe(x, N, n_max) == expected
    else:
        with pytest.raises(expected):
            ker_theta_orbit_probe(x, N, n_max)


# -- theta ------------------------------------------------------------------------


def test_theta_identities():
    for p in (2, 3, 5, 7):
        assert theta(TiltExpr.omega(p), 3).is_zero()
        assert theta(TiltExpr.p_flat_minus_p(p), 3).is_zero()
        assert theta(TiltExpr.epsilon_power(p, 1), 3).equals_rational(1)
        assert theta(TiltExpr.omega(p).frobenius(1), 3).equals_rational(p)


def test_theta_rejects_too_fine_exponents():
    p = 3
    x = TiltExpr.epsilon_power(p, F(1, p**4))
    message = "exponent 1/81 is finer than the evaluation level 3"
    with pytest.raises(ExponentTooFineError, match=message):
        theta(x, 3)
    # the probe raises at shift 0, naming the exponent as given
    with pytest.raises(ExponentTooFineError, match=message):
        ker_theta_orbit_probe(x, 3, 2)
    theta(x, 4)  # fine at the matching level


def test_theta_prime_to_p_denominators_are_exact():
    p, N = 5, 2
    # a p-adic-unit exponent contributes nothing: the evaluation only sees
    # the p-power-denominator part
    assert theta(TiltExpr.epsilon_power(p, F(1, 3)), N).equals_rational(1)
    # mixed denominator 3p: the prime-to-p part is inverted mod p^N
    val = theta(TiltExpr.epsilon_power(p, F(1, 3 * p)), N)
    expected_exponent = p ** (N - 1) * pow(3, -1, p**N) % p**N
    assert ref.single_cyclotomic(val) == val.context.root_power(expected_exponent)


def test_theta_kummer_grading():
    p = 3
    x = TiltExpr.p_flat_power(p, F(1, 3)) + TiltExpr.p_flat_power(p, F(4, 3))
    val = theta(x, 2)
    assert not val.is_zero()
    keys = sorted(k for k, v in val.pieces.items() if not v.is_zero())
    assert [k[0] for k in keys] == [F(1, 3)]
    # the two terms share the fractional class and merge: 1 + p times z^0
    piece = val.pieces[(F(1, 3), None)]
    assert piece == val.context.rational(1 + p)


def test_theta_inexact_teichmuller_flagged():
    p = 5
    u = FqElement(p, 1, (2,))  # Teichmueller of 2: a 4th root of unity
    x = TiltExpr(p, [(1, 0, 0, u, 0)])
    val = theta(x, 1)
    assert not val.exact
    with pytest.raises(InexactTeichmullerError):
        val.is_zero()
    # minus one is exact for odd p
    y = TiltExpr(p, [(1, 0, 0, FqElement(p, 1, (p - 1,)), 0)]) + TiltExpr.one(p)
    assert theta(y, 1).is_zero()


# -- kernel orbits and the generator criterion ------------------------------------


def test_kernel_orbit_probe():
    for p in (2, 3, 5):
        assert ker_theta_orbit_probe(TiltExpr.epsilon_minus_one(p), 4, 4) == [True] * 5
        assert ker_theta_orbit_probe(TiltExpr.omega(p), 4, 1) == [True, False]
    assert ker_theta_orbit_probe(TiltExpr.zero(3), 3, 3) == [True] * 4
    # phi^-3(omega) = sum_j [eps^(j/p^4)]: theta(phi^n) vanishes at n = 3 alone
    for p in (2, 3):
        x = TiltExpr.omega(p).frobenius(-3)
        assert ker_theta_orbit_probe(x, 5, 4) == [False, False, False, True, False]


def test_generator_condition():
    for p in (2, 3, 5):
        assert generator_condition_check(TiltExpr.p_flat_minus_p(p), 3, 3).passes
        assert generator_condition_check(TiltExpr.omega(p), 3, 3).passes
        rep = generator_condition_check(TiltExpr.epsilon_minus_one(p), 3, 3)
        assert rep.theta_is_zero and rep.vflat_is_one is False
        assert rep.passes is False


def test_generator_pass_implies_kernel_membership():
    for p in (2, 3, 5):
        for expr in (TiltExpr.p_flat_minus_p(p), TiltExpr.omega(p)):
            if generator_condition_check(expr, 3, 3).passes:
                assert ker_theta_orbit_probe(expr, 3, 0) == [True]


# -- finite fields -----------------------------------------------------------------


def test_field_modulus_is_cached_and_irreducible():
    assert field_modulus(2, 1) == (0, 1)
    m = field_modulus(2, 3)
    assert len(m) == 4 and m[-1] == 1
    assert field_modulus(3, 2) == field_modulus(3, 2)


def test_fq_arithmetic():
    u = FqElement(3, 2, (1, 1))
    v = u * u
    assert not v.is_zero()
    assert u.frobenius(2) == u  # Frobenius has order f
    assert u.frobenius(1).frobenius(-1) == u
    assert FqElement.one(7).is_one()
    w = FqElement(7, 1, (3,))
    assert w.power(6).is_one()  # group order p - 1


def test_galois_frobenius_part_acts_on_teichmuller():
    u = FqElement(3, 2, (1, 1))
    x = TiltExpr(3, [(1, 0, 0, u, 0)])
    g = GaloisElement(1, 0, frob=1)
    assert x.galois_act(g) == TiltExpr(3, [(1, 0, 0, u.frobenius(1), 0)])


# -- serialization ------------------------------------------------------------------


def test_tilt_expr_json_roundtrip():
    p = 3
    x = TiltExpr.omega(p) * TiltExpr.p_flat_power(p, F(2, 3)) - TiltExpr.p_scalar(p, 2)
    assert TiltExpr.from_json(p, ref.expr_to_json(x)) == x


def test_monomial_validation():
    one = FqElement.one(3)
    for c, u, message in (
        (-1, one, "pflat exponent must be nonnegative"),
        (F(1, 6), one, "pflat exponent denominator must be a power of p"),
        (0, FqElement(3, 1, (0,)), "Teichmueller part must be nonzero"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TiltExpr(3, [(1, 0, c, u, 0)])
        # the same fault, read from JSON, also when a zero coefficient
        # would drop the term
        item = {"coeff": 0, "a": "0", "c": str(c), "u": ref.fq_to_json(u)}
        with pytest.raises(ValueError, match=f"^{message}$"):
            TiltExpr.from_json(3, [item])


def test_first_bad_term_reports_first():
    bad_c = {"coeff": 1, "a": "0", "c": "-1"}
    bad_a = {"coeff": 1, "a": "abc", "c": "0"}
    with pytest.raises(ValueError, match="^pflat exponent must be nonnegative$"):
        TiltExpr.from_json(3, [bad_c, bad_a])
    with pytest.raises(ValueError, match="abc"):
        TiltExpr.from_json(3, [bad_a, bad_c])


def test_field_characteristic_is_checked():
    with pytest.raises(ValueError, match="^monomial field characteristic mismatch$"):
        TiltExpr(3, [(1, 0, 0, FqElement.one(5), 0)])


def test_cancelled_term_does_not_set_the_level():
    # eps^(1/9) - eps^(1/9) is zero: no term is left to be too fine at level 0
    p = 3
    x = TiltExpr(p, [(1, F(1, 9), 0, FqElement.one(p), 0), (-1, F(1, 9), 0, FqElement.one(p), 0)])
    assert x.is_zero()
    assert theta(x, 0).is_zero()
    assert ker_theta_orbit_probe(x, 0, 2) == [True] * 3
    y = x + TiltExpr.p_flat_power(p, 1)
    assert theta(y, 0).pieces == theta(TiltExpr.p_flat_power(p, 1), 0).pieces


def test_terms_differing_only_in_the_p_power_stay_apart():
    p = 3
    x = TiltExpr(p, [(1, 0, 1, FqElement.one(p), 0), (-1, 0, 1, FqElement.one(p), 1)])
    assert [term[4] for term in x.terms] == [0, 1]
    assert not theta(x, 2).is_zero()
    assert x == TiltExpr.p_flat_power(p, 1) - TiltExpr.p_flat_power(p, 1) * TiltExpr.p_scalar(p, 1)


@st.composite
def rewritten_sum(draw):
    """(x, terms): a drawn sum and the same sum given as terms shuffled,
    with some split into duplicate entries whose coefficients add up and
    with pairs that cancel added."""
    x, depth = draw(formal_sum())
    terms = []
    for coeff, a, c, u, i in x.terms:
        part = draw(st.integers(-3, 3))
        terms += [(part, a, c, u, i), (coeff - part, a, c, u, i)]
    for coeff, a, c, u, i in draw(st.lists(st.sampled_from(x.terms), max_size=3)):
        k = draw(st.integers(1, 3))
        terms += [(k, a, c, u, i + 1), (-k, a, c, u, i + 1)]
    return x, depth, draw(st.permutations(terms))


@settings(max_examples=60, deadline=None)
@given(rewritten_sum())
def test_rewritten_terms_build_the_merged_sum(case):
    x, depth, terms = case
    y = TiltExpr(x.p, terms)
    assert y == x and y.terms == x.terms and repr(y) == repr(x)
    assert TiltExpr.from_json(x.p, ref.expr_to_json(y)) == x
    assert vflat_sum(y, depth) == vflat_sum(x, depth)
    try:
        want = theta(x, depth)
    except ExponentTooFineError:
        with pytest.raises(ExponentTooFineError):
            theta(y, depth)
        return
    assert theta(y, depth).pieces == want.pieces


@st.composite
def raw_terms(draw):
    """(p, terms): up to 30 unmerged terms from small ranges, so that
    terms share keys and cancel: eps-exponents ints or Fractions over
    1, p or p^2, pflat exponents with numerators 0 to 2 over the same
    denominators (1/p and 1/p^2 share a numerator), Teichmueller parts
    from ``teichmuller_unit`` and p-power indices 0 to 2."""
    p = draw(st.sampled_from((2, 3, 5)))
    terms = []
    for _ in range(draw(st.integers(0, 30))):
        a = F(draw(st.integers(-3, 3)), p ** draw(st.integers(0, 2)))
        if a.denominator == 1 and draw(st.booleans()):
            a = a.numerator
        c = F(draw(st.integers(0, 2)), p ** draw(st.integers(0, 2)))
        u = draw(teichmuller_unit(p))
        terms.append((draw(st.integers(-2, 2)), a, c, u, draw(st.integers(0, 2))))
    return p, terms


@settings(max_examples=150, deadline=None)
@given(raw_terms(), st.randoms(use_true_random=False))
def test_tilt_expr_merges_as_the_fraction_keyed_reference(case, rnd):
    """The integer-keyed merge keeps the terms of the Fraction-keyed one,
    as a multiset, with a and c as Fractions; the input order does not
    change the stored terms, the equality or the hash."""
    p, terms = case
    x = TiltExpr(p, terms)
    assert Counter(x.terms) == Counter(ref.merge_terms(terms))
    assert all(type(a) is F and type(c) is F for _, a, c, _, _ in x.terms)
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    y = TiltExpr(p, shuffled)
    assert y.terms == x.terms and y == x and hash(y) == hash(x)


def test_theta_refuses_a_p_power_past_the_digit_cap():
    """theta forms p^(c p^s + i) per term: a p-power index, a pflat
    exponent or, in the probe, n past the cap is refused before the power
    is formed, and the largest admitted power still evaluates."""
    cap = tilt.MAX_P_EXPONENT
    assert 2**cap < 10**4300 < 2 ** (cap + 1)
    message = r"^theta would form a power of p past p\^14,284, which has more than 4,300 digits$"
    for x in (TiltExpr._term(2, i=cap + 1), TiltExpr._term(3, i=-cap - 1),
              TiltExpr._term(2, c=cap + 1)):
        with pytest.raises(ValueError, match=message):
            theta(x, 1)
    assert theta(TiltExpr._term(2, i=cap), 1).pieces[(0, None)].coeffs == {0: 2**cap}
    # p^(p^n) - p at p = 2: 2^(2^13) is admitted, 2^(2^14) is not
    x = TiltExpr.p_flat_minus_p(2)
    assert ker_theta_orbit_probe(x, 1, 13) == [True] + [False] * 13
    with pytest.raises(ValueError, match=message):
        ker_theta_orbit_probe(x, 1, 14)

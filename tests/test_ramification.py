import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramification_reference
from ramification_reference import a_is_integral, is_identity, psi_r_function
from period_lab.ramification import (
    PLFunction,
    RamificationData,
    ZpExtensionProfile,
    compose_towers,
    different_valuation,
    herbrand_phi,
    herbrand_psi,
    hilbert90_constant,
    psi_r,
    trace_decay_bound,
    trace_decay_constant,
    trace_decay_defect,
)


def zp_jump(profile: ZpExtensionProfile, u) -> int:
    """rho(u) = ceil((u - a)/e_F): the tower level generating the
    upper-numbering group at u.  Only valid for (u - a)/e_F > 0."""
    u = F(u)
    x = (u - profile.a) / profile.e_F
    if x <= 0:
        raise ValueError(
            f"u = {u} is below the validity threshold of the jump formula"
        )
    return -((-x.numerator) // x.denominator)  # ceil of a Fraction


def random_data(rng, p):
    # nonincreasing orders with the group-divisibility constraint past 0
    g0 = rng.choice([p, p * p, (p - 1) * p, p**3])
    orders = [g0]
    # wild part: p-power chain dividing the previous entry
    wild = p ** rng.randrange(0, 3)
    while wild > g0:
        wild //= p
    if wild > 1:
        for _ in range(rng.randrange(1, 4)):
            orders.append(wild)
            if rng.random() < 0.4 and wild > 1:
                wild //= p
    return RamificationData(g0, orders)


def test_phi_examples():
    tame = herbrand_phi(RamificationData(7, [7]))
    assert tame(F(1, 2)) == F(1, 2)
    assert tame(1) == 1
    assert tame(8) == 2
    assert is_identity(herbrand_phi(RamificationData(1, [])))
    wild = herbrand_phi(RamificationData(3, [3, 3]))
    assert wild(2) == 2
    assert wild(5) == 3


def test_psi_inverts_phi():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        data = random_data(rng, p)
        phi = herbrand_phi(data)
        psi = herbrand_psi(phi)
        assert is_identity(compose_towers(psi, phi))
        assert is_identity(compose_towers(phi, psi))
        u = F(rng.randrange(0, 60), rng.randrange(1, 9))
        assert psi(phi(u)) == u


def test_different_examples():
    assert different_valuation(RamificationData(1, [])) == 0
    p = 5
    assert different_valuation(RamificationData(p - 1, [p - 1])) == F(p - 2, p - 1)
    assert different_valuation(RamificationData(p, [p, p])) == F(2 * p - 2, p)


def test_different_asymptotic_consistency():
    # the sum formula of different_valuation is phi(t) - t/e at and past
    # the last breakpoint of phi, under the integration convention
    rng = random.Random(13)
    for _ in range(100):
        data = random_data(rng, rng.choice([2, 3, 5]))
        phi = herbrand_phi(data)
        d = different_valuation(data)
        last = phi.breakpoints[-1][0] if phi.breakpoints else F(0)
        for t in (last, last + F(1, 3), last + 10):
            assert phi(t) - t / data.e == d


def test_ceiling_convention_would_break_the_different():
    # with Card G_t = Card G_ceil(t), the tame example integrates to
    # u/e on [0, 1] and the asymptotic different would be 0, not (p-2)/(p-1);
    # this pins why the [i, i+1) convention is the one implemented
    p = 5
    data = RamificationData(p - 1, [p - 1])
    # ceiling-convention integral of Card G_t / e from 0 to 1: G_1 = 1
    ceiling_value = F(1, p - 1)
    assert herbrand_phi(data)(1) == 1 != ceiling_value
    assert different_valuation(data) == F(p - 2, p - 1) != 0


def test_composition_on_explicit_towers():
    # cyclic p^2 tower: G orders [p^2, p^2, p, p], H = subgroup of order p
    # with H_i = H for i <= 3; quotient data [p, p]
    for p in (2, 3):
        g_data = RamificationData(p * p, [p * p, p * p, p, p])
        h_data = RamificationData(p, [p, p, p, p])
        q_data = RamificationData(p, [p, p])
        composed = compose_towers(herbrand_phi(q_data), herbrand_phi(h_data))
        assert composed == herbrand_phi(g_data)
    # identity laws
    f = herbrand_phi(RamificationData(3, [3, 3]))
    assert compose_towers(PLFunction((), 1), f) == f
    assert compose_towers(f, PLFunction((), 1)) == f


def test_psi_dual_composition_law():
    # psi_{L2/F} = psi_{L2/L1} o psi_{L1/F} on the explicit tower
    p = 3
    g_data = RamificationData(p * p, [p * p, p * p, p, p])
    h_data = RamificationData(p, [p, p, p, p])
    q_data = RamificationData(p, [p, p])
    psi_g = herbrand_psi(herbrand_phi(g_data))
    psi_h = herbrand_psi(herbrand_phi(h_data))
    psi_q = herbrand_psi(herbrand_phi(q_data))
    assert compose_towers(psi_h, psi_q) == psi_g


def test_psi_r_closed_form():
    assert psi_r(3, F(1, 2), 5) == F(1, 2)
    assert psi_r(2, F(3, 2), 3) == F(5, 2)
    assert psi_r(2, 3, 2) == 7


def test_psi_r_matches_pl_function():
    rng = random.Random(17)
    for p in (2, 3, 5):
        for r in (0, 1, 2, 4):
            f = psi_r_function(r, p)
            for _ in range(25):
                u = F(rng.randrange(0, 12 * 8), 8)
                assert f(u) == psi_r(r, u, p)


def test_psi_r_shape():
    # convex, increasing, fixes 0, slope p^r at infinity
    p, r = 3, 4
    f = psi_r_function(r, p)
    assert f(0) == 0
    assert f.final_slope == p**r
    ref = ramification_reference.PLFunction(f.breakpoints, f.final_slope)
    slopes = [seg[2] for seg in ref.segments()]
    assert slopes == sorted(slopes)
    assert all(s > 0 for s in slopes)


def test_zp_jump():
    assert zp_jump(ZpExtensionProfile(1, 0, 0), 3) == 3
    assert zp_jump(ZpExtensionProfile(2, 1, 0), 4) == 2
    prof = ZpExtensionProfile(3, 2, F(1, 2))
    for u in (F(7, 2), 5, F(19, 3)):
        assert zp_jump(prof, F(u) + 3) == zp_jump(prof, u) + 1
    with pytest.raises(ValueError):
        zp_jump(ZpExtensionProfile(2, 5, 0), 4)


def test_zp_jump_monotone_left_continuous():
    prof = ZpExtensionProfile(2, 0, 0)
    values = [zp_jump(prof, F(k, 4)) for k in range(1, 64)]
    assert values == sorted(values)
    # left continuity: the value at an integer jump point equals the
    # value approached from below
    assert zp_jump(prof, 2) == zp_jump(prof, F(2) - F(1, 1000))


def test_trace_decay_examples():
    prof = ZpExtensionProfile(1, 0, 0)
    assert trace_decay_bound(prof, 3, 2, 2) == 0
    assert trace_decay_bound(prof, 3, 0, 2) == 2 + F(4, 9)


def test_trace_decay_defect_bounded():
    for p in (2, 3, 5):
        for e_F, b in ((1, F(0)), (2, F(3, 2)), (3, F(-7))):
            prof = ZpExtensionProfile(e_F, 0, b)
            bound = abs(b / e_F + F(1, p - 1))
            for r in range(13):
                for s in range(r, 13):
                    assert abs(trace_decay_defect(prof, p, r, s)) <= bound


def test_trace_decay_constant_and_hilbert90():
    prof = ZpExtensionProfile(1, 0, F(-5))
    c1 = trace_decay_constant(prof, 3, 12)
    assert c1 >= 1
    for r in range(13):
        for s in range(r, 13):
            assert trace_decay_defect(prof, 3, r, s) <= c1 - 1
    assert hilbert90_constant(c1) == c1 + 1
    assert hilbert90_constant(0) == 1
    assert hilbert90_constant(F(5, 2)) == F(7, 2)


def test_profile_flags_non_integer_shift():
    assert a_is_integral(ZpExtensionProfile(1, 2, 0))
    assert not a_is_integral(ZpExtensionProfile(1, F(1, 2), 0))


def test_plfunction_json_roundtrip():
    f = herbrand_phi(RamificationData(4, [4, 2, 2]))
    assert ramification_reference.plfunction_from_json(f.to_json()) == f


def test_ramification_data_validation():
    with pytest.raises(ValueError):
        RamificationData(4, [4, 2, 3])  # increasing tail
    with pytest.raises(ValueError):
        RamificationData(4, [4, 4, 3])  # 3 does not divide 4 past index 0
    with pytest.raises(ValueError):
        RamificationData(4, [2, 2])  # g_0 != e
    # divisibility is not required between g_0 and g_1 (tame-wild boundary)
    RamificationData(6, [6, 2, 2])


# ---------------------------------------------------------------------------
# the integer PLFunction against the Fraction implementation it replaced
# ---------------------------------------------------------------------------


@st.composite
def ramification_data(draw):
    """p, a tame part prime to p, up to four wild levels p^k (k falling),
    each repeated 0-5 times, and trailing 1s."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    tame = draw(st.integers(1, 12).filter(lambda t: t % p))
    levels = sorted(draw(st.sets(st.integers(1, 5), max_size=4)), reverse=True)
    e = tame * p ** levels[0] if levels else tame
    orders = [e]
    for k in levels:
        orders += [p**k] * draw(st.integers(0, 5))
    orders += [1] * draw(st.integers(0, 3))
    return RamificationData(e, orders)


def coordinate():
    """An int or a Fraction, 0 included."""
    return st.one_of(st.integers(0, 6), st.fractions(0, 6, max_denominator=6))


@st.composite
def chain(draw):
    """Breakpoints of an increasing chain, often with collinear points: each
    step repeats the last one (scaled) or is drawn afresh."""
    x = y = F(0)
    pts = []
    step = (F(1), F(1))
    for _ in range(draw(st.integers(0, 6))):
        if pts and draw(st.booleans()):
            r = draw(st.fractions(F(1, 3), 3, max_denominator=4))
            step = (step[0] * r, step[1] * r)
        else:
            step = (draw(st.fractions(F(1, 5), 3, max_denominator=5)),
                    draw(st.fractions(F(1, 5), 3, max_denominator=5)))
        x, y = x + step[0], y + step[1]
        pts.append((x, y))
    return pts


@st.composite
def raw_breakpoints(draw):
    """(breakpoints, final slope): a chain, sometimes shuffled, with
    duplicates, (0, 0), int coordinates where they are integers, or points
    drawn at random; the final slope positive, zero or negative, or the
    chain's last slope."""
    pts = draw(st.one_of(chain(), st.lists(st.tuples(coordinate(), coordinate()), max_size=5)))
    pts = [tuple(int(c) if c.denominator == 1 and draw(st.booleans()) else c for c in map(F, pt))
           for pt in pts]
    if pts and draw(st.booleans()):
        pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    if draw(st.booleans()):
        pts.append((0, 0))
    pts = draw(st.permutations(pts))
    slope = draw(st.one_of(st.fractions(-3, 3, max_denominator=4), st.just(F(1))))
    return pts, slope


def build(cls, pts, slope):
    """cls(pts, slope), or the text of the ValueError it raises."""
    try:
        return cls(pts, slope)
    except ValueError as exc:
        return str(exc)


def assert_same(f, ref):
    assert f.breakpoints == ref.breakpoints
    assert f.final_slope == ref.final_slope
    assert all(type(c) is F for pt in f.breakpoints for c in pt) and type(f.final_slope) is F
    assert json.dumps(f.to_json()) == json.dumps(ref.to_json())


def with_redundant_point(f, k=7):
    """The breakpoints of f plus one on a segment or on the final ray, 1/k
    of the way along: its denominators are larger than those of f."""
    pts = [(F(0), F(0)), *f.breakpoints]
    i = len(f.breakpoints) // 2
    (x0, y0), nxt = pts[i], pts[i + 1] if i + 1 < len(pts) else None
    dx, dy = (nxt[0] - x0, nxt[1] - y0) if nxt else (F(1), f.final_slope)
    return [*f.breakpoints, (x0 + dx / k, y0 + dy / k)]


@settings(max_examples=300, deadline=None)
@given(ramification_data(), st.fractions(0, 40, max_denominator=12))
def test_herbrand_functions_match_the_fraction_reference(data, u):
    phi, ref = herbrand_phi(data), ramification_reference.herbrand_phi(data)
    assert_same(phi, ref)
    assert phi == PLFunction(ref.breakpoints, ref.final_slope)
    assert_same(herbrand_psi(phi), ref.inverse())
    assert herbrand_psi(phi) == PLFunction(ref.inverse().breakpoints, ref.inverse().final_slope)
    assert phi(u) == ref(u) and herbrand_psi(phi)(u) == ref.inverse()(u)
    assert different_valuation(data) == ramification_reference.different_valuation(data)


@settings(max_examples=400, deadline=None)
@given(raw_breakpoints(), raw_breakpoints(),
       st.lists(st.fractions(0, 12, max_denominator=9), max_size=4))
def test_plfunction_matches_the_fraction_reference(first, second, us):
    f, ref = build(PLFunction, *first), build(ramification_reference.PLFunction, *first)
    if isinstance(ref, str):
        assert f == ref  # the same ValueError text
        return
    assert_same(f, ref)
    for u in us:
        assert f(u) == ref(u)
    errors = []
    for h in (f, ref):
        with pytest.raises(ValueError) as exc:
            h(-F(1, 3))
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert_same(f.inverse(), ref.inverse())
    assert f.inverse() == PLFunction(f.inverse().breakpoints, f.inverse().final_slope)
    # equal functions have equal fields, whatever breakpoints they were given
    redundant = PLFunction(with_redundant_point(f), f.final_slope)
    assert redundant == f and hash(redundant) == hash(f)
    assert ramification_reference.plfunction_from_json(f.to_json()) == f
    g, ref_g = build(PLFunction, *second), build(ramification_reference.PLFunction, *second)
    if not isinstance(ref_g, str):
        assert_same(f.compose(g), ref.compose(ref_g))


def test_a_redundant_breakpoint_leaves_no_trace_in_the_fields():
    f = herbrand_phi(RamificationData(4, [4, 2, 2]))
    g = PLFunction([(F(1, 3), F(1, 3)), (1, 1), (F(7, 3), F(5, 3)), (3, 2), (F(22, 7), F(57, 28))],
                   F(1, 4))
    assert g == f and hash(g) == hash(f)
    assert (g.xs, g.x_den, g.ys, g.y_den, g.slope) == ((1, 3), 1, (1, 2), 1, (1, 4))
    assert PLFunction([(F(1, 3), F(1, 3))], 1) == PLFunction((), 1)


def test_plfunction_error_texts():
    for pts, slope, text in [
        ([(1, 1), (1, 2)], 1, "breakpoints must be strictly increasing"),
        ([(1, 1), (2, 1)], 1, "breakpoints must be strictly increasing"),
        ([(1, 1)], 0, "final slope must be positive"),
        ([(1, 1)], F(-1, 2), "final slope must be positive"),
    ]:
        assert build(PLFunction, pts, slope) == text
        assert build(ramification_reference.PLFunction, pts, slope) == text

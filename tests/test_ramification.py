import random
from fractions import Fraction as F

import pytest

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
    psi_r_function,
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
    assert herbrand_phi(RamificationData(1, [])).is_identity()
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
        assert compose_towers(psi, phi).is_identity()
        assert compose_towers(phi, psi).is_identity()
        u = F(rng.randrange(0, 60), rng.randrange(1, 9))
        assert psi(phi(u)) == u


def test_different_examples():
    assert different_valuation(RamificationData(1, [])) == 0
    p = 5
    assert different_valuation(RamificationData(p - 1, [p - 1])) == F(p - 2, p - 1)
    assert different_valuation(RamificationData(p, [p, p])) == F(2 * p - 2, p)


def test_different_asymptotic_consistency():
    # the direct sum formula must agree with the final segment of phi;
    # different_valuation asserts this internally, so just exercise it
    rng = random.Random(13)
    for _ in range(100):
        data = random_data(rng, rng.choice([2, 3, 5]))
        phi = herbrand_phi(data)
        d = different_valuation(data)
        t = (phi.breakpoints[-1][0] if phi.breakpoints else F(0)) + 10
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
    assert compose_towers(PLFunction.identity(), f) == f
    assert compose_towers(f, PLFunction.identity()) == f


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
    slopes = [seg[2] for seg in f.segments()]
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
    assert ZpExtensionProfile(1, 2, 0).a_is_integral
    assert not ZpExtensionProfile(1, F(1, 2), 0).a_is_integral


def test_plfunction_json_roundtrip():
    f = herbrand_phi(RamificationData(4, [4, 2, 2]))
    assert PLFunction.from_json(f.to_json()) == f


def test_ramification_data_validation():
    with pytest.raises(ValueError):
        RamificationData(4, [4, 2, 3])  # increasing tail
    with pytest.raises(ValueError):
        RamificationData(4, [4, 4, 3])  # 3 does not divide 4 past index 0
    with pytest.raises(ValueError):
        RamificationData(4, [2, 2])  # g_0 != e
    # divisibility is not required between g_0 and g_1 (tame-wild boundary)
    RamificationData(6, [6, 2, 2])

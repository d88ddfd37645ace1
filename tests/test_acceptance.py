"""Acceptance suite: one test per criterion, each printing a PASS line and
holding its stated runtime budget.  Everything asserted here is an exact
identity or an exact cross-check against an independent oracle computed in
this file.
"""

import itertools
import random
import time
from fractions import Fraction as F

from admissibility_reference import dual, filtration, matrix_inverse, tensor
from padic_reference import factorial_valuation, nu
from ramification_reference import is_identity, psi_r_function, trace_decay_defect
from sen_reference import matrix_exp_truncated
from period_lab.characters import (
    CharacterTriple,
    SenInput,
    classify,
    hodge_tate_via_sen,
    is_trivial_via_sen,
    sen_operator,
)
from period_lab.filtered_phi import (
    FilteredPhiModule,
    dim1_module,
    dim2_module,
    is_admissible,
)
from period_lab.jets import JetContext, frobenius_jet, galois_act_jet, log1p, verify_cocycle
from period_lab.linalg import BaseFieldK, char_poly, mat_mul, nullspace, rational_roots
from period_lab.padic import INF, lower_hull, rational_valuation
from period_lab.polygons import (
    Polygon,
    epsilon_minus_one_polygon,
    hull,
    minkowski_sum,
    t_polygon,
)
from period_lab.ramification import (
    RamificationData,
    ZpExtensionProfile,
    different_valuation,
    herbrand_phi,
    herbrand_psi,
    psi_r,
)
from period_lab.tilt import (
    GaloisElement,
    TiltExpr,
    ker_theta_orbit_probe,
    theta,
    vflat_sum,
)


def report(name, started, budget):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.3f}s / budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def random_unit(rng, p):
    while True:
        num, den = rng.randrange(1, 60), rng.randrange(1, 25)
        if num % p and den % p:
            return F(rng.choice([-1, 1]) * num, den)


# -- criterion 1: the degree-one generator ------------------------------------


def test_criterion_1_omega_generator_suite():
    t0 = time.time()
    for p in (2, 3, 5, 7):
        w = TiltExpr.omega(p)
        assert theta(w, 3).is_zero()
        res = vflat_sum(w, 3)
        assert res.stabilized and res.value == 1
        assert res.values[2] == res.values[3] == 1  # stabilized by depth 3
        assert theta(w.frobenius(1), 3).equals_rational(p)
    report("1 omega-generator", t0, 1.0)


# -- criterion 2: kernel orbits -------------------------------------------------


def test_criterion_2_kernel_orbit_suite():
    t0 = time.time()
    for p in (2, 3, 5):
        em1 = TiltExpr.epsilon_minus_one(p)
        assert ker_theta_orbit_probe(em1, 4, 4) == [True] * 5
        probe = ker_theta_orbit_probe(TiltExpr.omega(p), 4, 3)
        assert probe[0] is True and probe[1] is False
    report("2 kernel-orbit", t0, 1.0)


# -- criterion 3: polygons -------------------------------------------------------


def test_criterion_3_polygon_suite():
    t0 = time.time()
    for p in (2, 3, 5, 7):
        P = epsilon_minus_one_polygon(p, 5)
        assert P.leftmost() == (0, F(p, p - 1))
        for n, (slope, length) in enumerate(P.slopes()):
            assert length == 1
            assert -slope == F(1, p**n)
    for p in (2, 3, 5):
        T = t_polygon(p, -3, 3)  # a 6-wide window
        shifted = tuple((x - 1, p * y) for x, y in T.vertices)
        T2 = t_polygon(p, -4, 2)
        assert shifted == T2.vertices
    report("3 polygon", t0, 1.0)


# -- criterion 4: jet identities ---------------------------------------------------


def test_criterion_4_jet_identity_suite():
    t0 = time.time()
    rng = random.Random(2024)
    for p in (2, 3, 5):
        ctx = JetContext(p, 6)
        t = ctx.t()
        assert frobenius_jet(t) == p * t
        assert JetContext(p, 2).t() == JetContext(p, 2).u()
        for _ in range(50):
            chi = random_unit(rng, p)
            c_den = rng.choice([d for d in range(1, 12) if d % p])
            g = GaloisElement(chi, F(rng.randrange(-20, 21), c_den))
            assert galois_act_jet(g, t) == g.chi * t
            assert verify_cocycle(g, ctx)
    report("4 jet-identity", t0, 5.0)


# -- criterion 5: admissibility -------------------------------------------------------


def _det(M):
    M = [r[:] for r in M]
    n = len(M)
    out = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if M[i][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            out = -out
        out *= M[c][c]
        inv = 1 / M[c][c]
        for i in range(c + 1, n):
            if M[i][c]:
                f = M[i][c] * inv
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return out


def _rank(rows):
    rows = [[F(x) for x in r] for r in rows]
    if not rows:
        return 0
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _oracle_subspace_numbers(module, rows):
    dims = []
    for _, vecs in filtration(module):
        # over Q_p each entry is one coordinate, or () for zero
        k_rows = [[x[0] if x else F(0) for x in v] for v in vecs]
        both = [list(r) for r in rows] + k_rows
        dims.append(_rank(rows) + _rank(k_rows) - _rank(both))
    dims.append(0)
    t_h = sum(
        j * (dims[i] - dims[i + 1]) for i, (j, _) in enumerate(filtration(module))
    )
    n = len(rows)
    coords = []
    for w in rows:
        img = [
            sum(module.frobenius[i][j] * w[j] for j in range(len(w)))
            for i in range(len(w))
        ]
        aug = [[rows[k][j] for k in range(n)] + [img[j]] for j in range(len(img))]
        coords.append(_solve(aug, n))
    restr = [[coords[i][j] for j in range(n)] for i in range(n)]
    return t_h, rational_valuation(_det(restr), module.base.p)


def _solve(aug, n):
    rows = [r[:] for r in aug]
    r = 0
    piv_cols = []
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
    sol = [F(0)] * n
    for row, c in zip(rows, piv_cols):
        sol[c] = row[-1]
    return sol


def test_criterion_5_admissibility_suite():
    t0 = time.time()
    rng = random.Random(451)
    # dimension-1 grid: unit times p^k against jump r
    p = 5
    for unit in (1, 2, 3):
        for k in range(-3, 4):
            for r in range(-3, 4):
                D = dim1_module(p, F(unit) * F(p) ** k, r)
                assert (is_admissible(D).status == "admissible") == (k == r)
    # dimension 2: 500 instances split between the two branches
    for i in range(250):
        r = rng.randrange(-2, 3)
        s = r + rng.randrange(1, 4)
        va, vb = rng.randrange(-2, 3), rng.randrange(-2, 4)
        a = F(p) ** va * rng.choice([1, 2, 3, 4, 6])
        b = F(p) ** vb * rng.choice([1, 2, 3, 4, 6])
        Phi = [[F(0), F(p) ** r * a], [F(p) ** s, F(p) ** r * b]]
        got = is_admissible(dim2_module(p, Phi, r, s, line=[1, 0])).status
        want = "admissible" if (va == 0 and vb >= 0) else "not-admissible"
        assert got == want, (r, s, a, b)
    for i in range(250):
        r = rng.randrange(-2, 2)
        s = r + rng.randrange(1, 4)
        va = rng.choice([r, s, r + 1, s - 1, s + 1])
        vb = rng.choice([r, s, r - 1, r + 1])
        alpha, beta = F(p) ** va * 2, F(p) ** vb * 3
        got = is_admissible(
            dim2_module(p, [[alpha, F(0)], [F(0), beta]], r, s, line=[1, 0])
        ).status
        want = "admissible" if (va == s and vb == r) else "not-admissible"
        assert got == want, (r, s, va, vb)
    # dimension 3: scan versus the brute force over primary-component sums
    base = BaseFieldK.qp(3)
    checked = 0
    while checked < 100:
        vals = rng.sample(range(-2, 4), 3)
        eigs = [F(3) ** v * u for v, u in zip(vals, (1, 2, 1))]
        if len(set(eigs)) < 3:
            continue
        P = [[F(rng.randrange(-3, 4)) for _ in range(3)] for _ in range(3)]
        if _det(P) == 0:
            continue
        Phi = mat_mul(mat_mul(P, [[eigs[i] if i == j else F(0) for j in range(3)] for i in range(3)]), matrix_inverse(P))
        jumps = sorted(rng.sample(range(-2, 4), 3))
        full = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        v1 = [F(rng.randrange(-3, 4)) for _ in range(3)]
        v2 = [F(rng.randrange(-3, 4)) for _ in range(3)]
        if _rank([v1, v2]) < 2:
            continue
        plane = [v1, v2]
        line = [v1]
        try:
            D = FilteredPhiModule(
                base, Phi, [(jumps[0], full), (jumps[1], plane), (jumps[2], line)]
            )
        except ValueError:
            continue
        eigenlines = []
        for lam in sorted(set(rational_roots(char_poly(Phi)))):
            ker = nullspace(
                [[Phi[i][j] - (lam if i == j else 0) for j in range(3)] for i in range(3)]
            )
            eigenlines.append([[F(x) for x in v] for v in ker])
        if sum(len(l) for l in eigenlines) != 3:
            continue
        got = is_admissible(D).status
        want = "admissible"
        if D.hodge_number() != D.newton_number():
            want = "not-admissible"
        else:
            for size in range(1, 3):
                for combo in itertools.combinations(range(3), size):
                    rows = []
                    for idx in combo:
                        rows.extend(eigenlines[idx])
                    th, tn = _oracle_subspace_numbers(D, rows)
                    if th > tn:
                        want = "not-admissible"
        assert got == want
        checked += 1
    report("5 admissibility", t0, 30.0)


# -- criterion 6: tannakian numbers --------------------------------------------------


def test_criterion_6_tannakian_numbers():
    t0 = time.time()
    rng = random.Random(607)

    def random_module(p):
        if rng.random() < 0.5:
            return dim1_module(
                p, F(p) ** rng.randrange(-2, 3) * rng.choice([1, 2, 3]), rng.randrange(-2, 3)
            )
        Phi = None
        while Phi is None:
            cand = [[F(rng.randrange(-6, 7)) for _ in range(2)] for _ in range(2)]
            if _det(cand) != 0:
                Phi = cand
        r = rng.randrange(-2, 2)
        s = r + rng.randrange(0, 3)
        if r == s:
            return dim2_module(p, Phi, r, s)
        return dim2_module(p, Phi, r, s, line=[1, rng.randrange(-2, 3)])

    for _ in range(200):
        p = rng.choice([2, 3, 5])
        D1, D2 = random_module(p), random_module(p)
        T = tensor(D1, D2)
        assert T.newton_number() == D2.dim * D1.newton_number() + D1.dim * D2.newton_number()
        assert T.hodge_number() == D2.dim * D1.hodge_number() + D1.dim * D2.hodge_number()
        Dd = dual(D1)
        assert Dd.hodge_number() == -D1.hodge_number()
        assert Dd.newton_number() == -D1.newton_number()
    report("6 tannakian", t0, 30.0)


# -- criterion 7: ramification ----------------------------------------------------------


def test_criterion_7_ramification_suite():
    t0 = time.time()
    rng = random.Random(701)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        g0 = rng.choice([p, p * p, (p - 1) * p, p**3])
        orders = [g0]
        wild = p ** rng.randrange(0, 3)
        while wild > g0:
            wild //= p
        if wild > 1:
            for _ in range(rng.randrange(1, 4)):
                orders.append(wild)
                if rng.random() < 0.4 and wild > 1:
                    wild //= p
        data = RamificationData(g0, orders)
        phi = herbrand_phi(data)
        psi = herbrand_psi(phi)
        assert is_identity(psi.compose(phi))
        assert is_identity(phi.compose(psi))
        d = different_valuation(data)
        tail = (phi.breakpoints[-1][0] if phi.breakpoints else F(0)) + 7
        assert phi(tail) - tail / data.e == d
    for p in (2, 3, 5):
        for r in (0, 1, 3):
            f = psi_r_function(r, p)
            for _ in range(100):
                u = F(rng.randrange(0, 200), rng.randrange(1, 16))
                assert f(u) == psi_r(r, u, p)
    for p in (2, 3, 5):
        prof = ZpExtensionProfile(2, 1, F(3, 2))
        bound = abs(prof.b / prof.e_F + F(1, p - 1))
        for r in range(13):
            for s in range(r, 13):
                assert abs(trace_decay_defect(prof, p, r, s)) <= bound
    report("7 ramification", t0, 5.0)


# -- criterion 8: classification and Sen ---------------------------------------------------


def test_criterion_8_classification_suite():
    t0 = time.time()
    for p in (3, 5, 7):
        chi = classify(CharacterTriple(p, 1, 1, 0))
        assert chi.crystalline and chi.hodge_tate_weight == 1 and not chi.unramified
        om = classify(CharacterTriple(p, 1, 0, 1))
        assert om.de_rham and not om.crystalline
        un = classify(CharacterTriple(p, 2, 0, 0))
        assert un.unramified and un.crystalline
        # crystalline and C_p-admissible collapse to unramified, identically
        for a in (0, 1, 2):
            for b in (0, 1):
                flags = classify(CharacterTriple(p, 2, a, b))
                if flags.crystalline and flags.cp_admissible:
                    assert flags.unramified
    op = sen_operator(SenInput(3, 1, [[1, 3], [0, 1]]), 20)
    assert op.matrix == ((0, 1), (0, 0))
    assert hodge_tate_via_sen(op).status == "not-hodge-tate"
    assert not is_trivial_via_sen(op)
    p, r = 3, 2
    M = [[F(2), F(1)], [F(0), F(-1)]]
    scaled = [[x * F(p) ** (r + 1) for x in row] for row in M]
    A = matrix_exp_truncated(p, scaled, 20)
    op2 = sen_operator(SenInput(p, r, A), 20)
    for i in range(2):
        for j in range(2):
            diff = op2.matrix[i][j] - M[i][j] * F(p)
            assert diff == 0 or rational_valuation(diff, p) >= op2.precision - 5
    report("8 classification", t0, 5.0)


# -- criterion 9: oracles -----------------------------------------------------------------


def test_criterion_9_oracles():
    t0 = time.time()
    # factorial valuation against one-factor-at-a-time counting, every i
    for p in (2, 3, 5, 7):
        count = 0
        for i in range(1, 2001):
            j = i
            while j % p == 0:
                j //= p
                count += 1
            assert factorial_valuation(i, p) == count
    # nu against a fresh scan built on the Legendre sum
    def legendre(n, p):
        total, q = 0, p
        while q <= n:
            total += n // q
            q *= p
        return total

    for p in (2, 3, 5):
        for i in range(0, -41, -1):
            n = 0
            while legendre(n, p) < -i:
                n += 1
            assert nu(i, p) == n
    # Minkowski sums against brute-force vertex-pair hulls
    rng = random.Random(909)
    for _ in range(100):
        def rand_poly():
            x = F(rng.randrange(0, 3))
            y = F(rng.randrange(1, 20), rng.randrange(1, 4))
            verts = [(x, y)]
            for _ in range(rng.randrange(0, 5)):
                dx = F(rng.randrange(1, 4), rng.randrange(1, 3))
                slope_prev = (
                    (verts[-1][1] - verts[-2][1]) / (verts[-1][0] - verts[-2][0])
                    if len(verts) >= 2
                    else None
                )
                slope = F(-rng.randrange(1, 10), rng.randrange(1, 5))
                if slope_prev is not None and slope <= slope_prev:
                    slope = slope_prev / 2
                ny = verts[-1][1] + slope * dx
                if ny < 0:
                    break
                verts.append((verts[-1][0] + dx, ny))
            return Polygon(verts)

        P, Q = rand_poly(), rand_poly()
        assert len(P.vertices) <= 6 and len(Q.vertices) <= 6
        sums = [
            (x1 + x2, y1 + y2)
            for x1, y1 in P.vertices
            for x2, y2 in Q.vertices
        ]
        chain = lower_hull(sums)
        verts = [chain[0]]
        for x, y in chain[1:]:
            if y < verts[-1][1]:
                verts.append((x, y))
            else:
                break
        assert minkowski_sum(P, Q).vertices == tuple(verts)
    report("9 oracles", t0, 30.0)

"""Seeded operation lists for the three workloads.

A workload is a fixed list of operation slots; ``--seed`` fills them in,
and one pass runs every operation once through ``period_lab.cli.main``.
Each slot fixes what sets an operation's cost (command, prime, rank,
field degree, eigenvalue magnitudes, window, terms x depth, jet order,
file length and mix); the seed draws what does not (units and signs,
change-of-basis matrices, filtration bases, coefficients, tower shapes,
line order).  So every seed runs the same mix at nearly the same cost and
decides the same number of verdicts, and the run-to-run spread of the
metrics is measurement noise, not a different workload.

Tier membership is fixed by input parameters:

* admissibility  small: ranks 1-3; mid: ranks 4-5, duals, 2x2 tensors,
                 undecided modules; large: rank-5/6 direct sums with a
                 characteristic-polynomial constant term of 1e9 - 1e12.
* periods        small: builtins at low level and depth, jets of order
                 <= 8, short towers, small windows; mid: windows 20-40,
                 jets of order 10-12, the factors of a v_flat product;
                 large: v_flat of 40-60 term sums at depth 5-6, windows
                 60-120, jets of order 16-20.
* mixed_batch    small: files of 10 lines; large: files of 200 lines.

The known faults stay in as fixed operations that do not depend on the
seed, tagged with the defect they show (see README.md).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import modules as M
from exact import mat_mul, rank, vp


@dataclass
class Op:
    name: str
    tier: str  # "small" | "mid" | "large"
    command: str  # a CLI subcommand, or "batch"
    payload: object  # dict for one command; list of line dicts for batch
    meta: object = field(default_factory=dict)  # oracle knowledge (list per line for batch)
    fault: Optional[str] = None  # known defect this fixed operation shows
    links: dict = field(default_factory=dict)  # cross-operation checks


fmt = M.fmt
PRIMES = (3, 5, 7)


# ---------------------------------------------------------------------------
# filtered phi-modules
# ---------------------------------------------------------------------------


def _kbasis(rng, E, d, fixed=()):
    """A random basis of K^d (K = Q[x]/(E)); ``fixed`` vectors come first."""
    e = len(E) - 1
    while True:
        vecs = list(fixed) + [M.random_kvec(rng, d, e) for _ in range(d - len(fixed))]
        if rank(M.k_restriction(E, vecs)) == e * d:
            return vecs


def _eigenvalues(rng, p, vals, mags=None, hi=12):
    """Distinct p^v * unit with random signs; units near ``mags`` (within
    2 %) when given, else drawn from [1, hi]."""
    while True:
        out = []
        for i, v in enumerate(vals):
            if mags is None:
                u = M.unit(rng, p, 1, hi)
            else:
                u = max(1, round(mags[i] * rng.uniform(0.98, 1.02)))
                while u % p == 0:
                    u += 1
                u *= rng.choice((1, -1))
            out.append(p**v * u)
        if len(set(out)) == len(out):
            return out


def _design(rng, p, e, B, weights, special=(), moves=6, generic=False):
    """Module F = P B P^-1 with Fil from ``weights``; ``special`` lists
    columns of P (eigenvectors) put first in the filtration basis, so they
    carry the highest weights.  ``generic`` redraws the basis until every
    filtration step meets every sum of eigenlines in the least dimension
    possible, so the verdict, and the work the scan does, follow from the
    slot and not from a chance coincidence."""
    d = len(B)
    P = M.unimodular(rng, d, moves)
    F = M.conjugate(P, B)
    E = M.eisenstein(rng, p, e)
    steps = None
    while steps is None or (generic and not _generic(E, P, steps)):
        vecs = _kbasis(rng, E, d, [M.rational_vec(M.column(P, i)) for i in special])
        steps = M.hodge_filtration(vecs, sorted(weights, reverse=True))
    return M.module(p, E, F, steps)


def _generic(E, P, steps) -> bool:
    """dim(S meet Fil) = max(0, dim S + dim Fil - d) for every sum S of
    eigenlines (columns of P) and every proper filtration step."""
    d, e = len(P), len(E) - 1
    lines = [M.k_restriction(E, [M.rational_vec(M.column(P, i))]) for i in range(d)]
    for _, fil in steps[1:]:
        fil_rows = M.k_restriction(E, fil)
        for size in range(1, d):
            for subset in itertools.combinations(lines, size):
                rows = [r for line in subset for r in line]
                meet = (len(rows) + len(fil_rows) - rank(rows + fil_rows)) // e
                if meet != max(0, size + len(fil) - d):
                    return False
    return True


def _diag(values):
    return M.block_diag(*[[[x]] for x in values])


def _eigenvalues2(obj):
    """The two (integer) eigenvalues of a rank-2 module's Frobenius."""
    (a, b), (c, d) = [[Fraction(x) for x in row] for row in obj["frobenius"]]
    tr, dt = a + d, a * d - b * c
    root = math.isqrt(int(tr * tr - 4 * dt))
    return (tr + root) / 2, (tr - root) / 2


def rank1(rng, p, e, v, jump):
    return _design(rng, p, e, [[_eigenvalues(rng, p, [v])[0]]], [jump])


def rank2_split(rng, p, r, s, a, e=1, stable_line=False, hi=12):
    """Jumps r < s, eigenvalues of valuation a and r + s - a; the line is
    the first eigenline, or generic (admissible iff min(a, r+s-a) >= r)."""
    lam = _eigenvalues(rng, p, [a, r + s - a], hi=hi)
    return _design(rng, p, e, _diag(lam), [r, s], special=(0,) if stable_line else (),
                   generic=not stable_line)


def rank2_irreducible(rng, p, split_over_qp=False, r=0):
    """A Q-irreducible quadratic: Eisenstein, or split over Q_p."""
    if split_over_qp:
        # x^2 + u x + p^2 w: roots of valuation 0 and 2; the discriminant
        # u^2 - 4 p^2 w is a square in Q_p and, for these draws, not in Q
        while True:
            u, w = M.unit(rng, p, 1, 9), M.unit(rng, p, 1, 9)
            disc = u * u - 4 * p * p * w
            if disc < 0 or math.isqrt(disc) ** 2 != disc:
                break
        return _design(rng, p, 1, M.companion(p * p * w, u), [r, 2 - r])
    w = M.unit(rng, p, 1, 9)
    return _design(rng, p, 1, M.companion(p * w, p * rng.randint(-2, 2)), [0, 1])


def rank3(rng, p, vals, weights, e=1, special=()):
    """Three distinct rational eigenvalues; ``special`` puts eigenlines
    first in the filtration, otherwise it is generic."""
    lam = _eigenvalues(rng, p, vals)
    return _design(rng, p, e, _diag(lam), weights, special=special, generic=not special)


def rank3_quadratic(rng, p, v, weights):
    """One rational eigenvalue plus an Eisenstein quadratic block."""
    B = M.block_diag([[_eigenvalues(rng, p, [v])[0]]], M.companion(p * M.unit(rng, p, 1, 9), 0))
    return _design(rng, p, 1, B, weights)


MID_VALS = (0, 1, 1, 2, 0)
MID_MAGS = (2, 4, 5, 7, 8)


def rank_mid(rng, p, d, e=1):
    """Rank 4-5, eigenvalue magnitudes and Hodge weights fixed by the slot:
    Newton = Hodge with a generic filtration, so the scan runs in full."""
    vals = MID_VALS[:d]
    lam = _eigenvalues(rng, p, vals, MID_MAGS[:d])
    return _design(rng, p, e, _diag(lam), list(vals), moves=2 * d, generic=True)


def repeated_eigenvalue(rng, p, v, weights):
    lam = _eigenvalues(rng, p, [v])[0]
    return _design(rng, p, 1, _diag([lam, lam, lam * p]), weights)


def quartic(rng, p):
    """x^4 - p w: Q-irreducible (Eisenstein), so the scan cannot factor it."""
    w = M.unit(rng, p, 1, 5)
    B = [[0, 0, 0, p * w], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    return _design(rng, p, 1, B, [0, 0, 0, 1])


def large_direct_sum(rng, d, target):
    """Direct sum of rank-1 pieces and one rank-2 piece, each admissible,
    with characteristic-polynomial constant term within 2 % of ``target``
    (trial division in rational_roots costs its square root) and
    eigenvalue magnitudes on a fixed geometric ladder."""
    p = 3
    vals = [0, 1, 2, 0, 1, 2][:d]
    base = (target / p ** sum(vals)) ** (1 / d)
    mags = [base * math.exp(0.5 * (2 * i / (d - 1) - 1)) for i in range(d)]
    for _ in range(10000):
        lam = _eigenvalues(rng, p, vals[:-1], mags[:-1])
        # the last unit brings the product to the target
        u = round(target / math.prod(abs(x) for x in lam) / p ** vals[-1])
        u += u % p == 0
        lam.append(p ** vals[-1] * u * rng.choice((1, -1)))
        if len(set(lam)) == d and abs(math.prod(abs(x) for x in lam) / target - 1) <= 0.02:
            break
    else:
        raise ValueError(f"no eigenvalues for rank {d} and constant term {target:g}")
    parts = [M.module(p, [-p, 1], [[x]], [(v, [M.rational_vec([1])])])
             for x, v in zip(lam[2:], vals[2:])]
    # a fixed eigenbasis (1, 1), (1, 2) and the generic line (1, 0) on top
    frob = M.conjugate([[1, 1], [1, 2]], _diag(lam[:2]))
    two = M.module(p, [-p, 1], frob, M.hodge_filtration(
        [M.rational_vec([1, 0]), M.rational_vec([0, 1])], [max(vals[:2]), min(vals[:2])]))
    return M.direct_sum([two] + parts)


def _rational_steps(*steps):
    return [(j, [M.rational_vec(r) for r in rows]) for j, rows in steps]


D1_MODULES = [
    # the repro: companion of x^2 + x + 9 (+) 2 at p = 3, Fil^1 = <e1, e2>
    M.module(3, [-3, 1], [[0, -9, 0], [1, -1, 0], [0, 0, 2]],
             _rational_steps((0, ([1, 0, 0], [0, 1, 0], [0, 0, 1])), (1, ([1, 0, 0], [0, 1, 0])))),
    # x^2 + x + 25 (+) 2 at p = 5: the unit-root eigenline lies in Fil^1
    M.module(5, [-5, 1], [[0, -25, 0], [1, -1, 0], [0, 0, 2]],
             _rational_steps((0, ([1, 0, 0], [0, 1, 0], [0, 0, 1])), (1, ([1, 0, 0], [0, 1, 0])))),
    # rank 4: x^2 + x + 9 (+) 2 (+) 3 at p = 3
    M.module(3, [-3, 1], [[0, -9, 0, 0], [1, -1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
             _rational_steps((0, ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])),
                             (1, ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1])))),
]

# (p, eigenvalue valuations, Hodge weights, e, eigenlines put on top)
RANK3_SLOTS = (
    (3, (0, 1, 2), (0, 1, 2), 1, ()),
    (5, (0, 1, 1), (0, 0, 2), 1, (0,)),
    (7, (1, 1, 1), (1, 1, 1), 1, ()),
    (3, (0, 2, 2), (0, 1, 3), 1, (1,)),
    (5, (0, 1, 2), (0, 1, 2), 2, ()),
    (7, (0, 1, 1), (0, 1, 1), 2, (2,)),
)

# (rank, constant term): chosen so that the seven cost about the same,
# which keeps the tier's median off the gaps between operations
LARGE_SLOTS = ((6, 1e9), (6, 3e9), (6, 1e10), (6, 3e10), (6, 1e11), (5, 1e12), (5, 2e12))


def admissibility(seed: int) -> list:
    rng = random.Random(f"admissibility-{seed}")
    ops = []

    def add(tier, payload, **kw):
        ops.append(Op(f"phimod-{len(ops):02d}", tier, "phimod", payload, **kw))
        return ops[-1].name

    for i in range(6):
        add("small", rank1(rng, PRIMES[i % 3], 1 + i // 3, i % 4, i % 4))
    add("small", rank1(rng, 3, 1, 1, 0))  # jump below v_p: not admissible
    add("small", rank1(rng, 5, 1, 2, 3))
    factors = []
    for p in PRIMES:
        # admissible factors with small units and jumps (0, 1) keep the
        # tensor's constant term small: trial division in rational_roots
        # grows with its square root
        while True:
            a, b = rank2_split(rng, p, 0, 1, 0, hi=4), rank2_split(rng, p, 0, 1, 1, hi=4)
            if len({x * y for x in _eigenvalues2(a) for y in _eigenvalues2(b)}) == 4:
                break  # squarefree tensor product
        factors.append((add("small", a), add("small", b)))
    for p, (r, s, a) in zip(PRIMES, ((0, 1, 0), (0, 2, 1), (1, 2, 2))):
        add("small", rank2_split(rng, p, r, s, a, stable_line=True))
    for p, r in ((3, 0), (5, 1)):
        add("small", rank2_irreducible(rng, p))
        add("small", rank2_irreducible(rng, p, split_over_qp=True, r=r))
    for p, e, (r, s, a) in ((3, 2, (0, 1, 0)), (5, 3, (0, 2, 1)), (7, 2, (1, 2, 0)), (3, 3, (0, 1, 1))):
        add("small", rank2_split(rng, p, r, s, a, e=e))
    rank3s = [add("small", rank3(rng, p, vals, weights, e, special))
              for p, vals, weights, e, special in RANK3_SLOTS]
    for p, v, weights in ((3, 1, [0, 1, 1]), (5, 0, [0, 0, 1])):
        add("small", rank3_quadratic(rng, p, v, weights))
    for m in D1_MODULES:
        add("small", m, fault="D1")
    mids = [add("mid", rank_mid(rng, 3, 4)), add("mid", rank_mid(rng, 5, 4, e=2)),
            add("mid", rank_mid(rng, 7, 5)), add("mid", rank_mid(rng, 3, 5))]
    by_name = {op.name: op for op in ops}
    for base in (rank3s[0], rank3s[2], mids[0]):
        add("mid", M.dual(by_name[base].payload), links={"dual_of": base})
    for a, b in factors:
        add("mid", M.tensor(by_name[a].payload, by_name[b].payload), links={"tensor_of": (a, b)})
    add("mid", repeated_eigenvalue(rng, 3, 0, [0, 0, 1]))
    add("mid", repeated_eigenvalue(rng, 5, 1, [1, 1, 2]))
    add("mid", quartic(rng, 7))
    for d, target in LARGE_SLOTS:
        add("large", large_direct_sum(rng, d, target))
    return ops


# ---------------------------------------------------------------------------
# periods: tilt, jets, polygons, Herbrand functions
# ---------------------------------------------------------------------------

# (op, builtin, p, level, depth or n_max); at p = 2 the depth-1 value of
# eps - 1 still vanishes mod p, so stabilization needs depth >= 3 there
TILT_SLOTS = (
    ("theta", "omega", 3, 2, None), ("theta", "epsilon_minus_one", 2, 3, None),
    ("theta", "p_flat_minus_p", 5, 1, None), ("theta", "omega", 5, 1, None),
    ("generator-check", "omega", 2, 1, 3), ("generator-check", "epsilon_minus_one", 3, 1, 2),
    ("generator-check", "p_flat_minus_p", 5, 2, 2), ("generator-check", "omega", 3, 3, 3),
    ("probe", "omega", 3, 1, 3), ("probe", "epsilon_minus_one", 5, 2, 2),
    ("probe", "p_flat_minus_p", 2, 3, 3), ("probe", "omega", 2, 2, 2),
    ("vflat", "epsilon_minus_one", 3, 1, 3), ("vflat", "omega", 5, 1, 2),
    ("vflat", "epsilon_minus_one", 2, 1, 3), ("vflat", "omega", 3, 1, 2),
)


def tilt_builtin(slot):
    op, name, p, level, extra = slot
    payload = {"p": p, "op": op, "builtin": name, "level": level}
    if op in ("generator-check", "vflat"):
        payload["depth"] = extra
    if op == "probe":
        payload["n_max"] = extra
    return payload


def expand_product(x, y):
    """The formal product of two sums of eps-powers, merged."""
    out = {}
    for c1, a1 in x:
        for c2, a2 in y:
            out[a1 + a2] = out.get(a1 + a2, 0) + c1 * c2
    return [(c, a) for a, c in sorted(out.items()) if c]


def tilt_expr(terms):
    return [{"coeff": c, "a": fmt(a), "c": "0", "p_power": 0} for c, a in terms]


def vflat_product(rng, p, m, nx, ny, depth):
    """x = sum_j c_j [eps^((ny j + 1)/p^m)], y = sum_k d_k [eps^(k/p^m)]
    and their product xy, which has exactly nx * ny terms; the seed draws
    the coefficients."""
    def coeff():
        return rng.choice((1, -1, 2, -2))

    x = [(coeff(), Fraction(ny * j + 1, p**m)) for j in range(nx)]
    y = [(coeff(), Fraction(k, p**m)) for k in range(ny)]
    xy = expand_product(x, y)
    return [{"p": p, "op": "vflat", "expr": tilt_expr(t), "depth": depth} for t in (x, y, xy)]


def jet(rng, order, chi=None, c=None, action="verify-cocycle"):
    """The slot fixes the order, chi and c, which set the expansion sizes;
    the seed draws the prime among those that chi is a unit for."""
    p = rng.choice([q for q in PRIMES if chi is None or chi % q])
    if action == "gr-check":
        return {"action": action, "p": p, "m": order}
    return {"action": action, "p": p, "order": order, "chi": str(chi), "c": str(c)}


def eps_polygon(rng, p, w):
    window = Fraction(w) + rng.choice((0, Fraction(1, 2)))
    return {"kind": "epsilon_minus_one", "p": p, "window": fmt(window)}


def t_polygon(rng, p, hi):
    lo = -Fraction(rng.randint(1, 3)) - rng.choice((0, Fraction(1, 2)))
    return {"kind": "t", "p": p, "window": [fmt(lo), fmt(Fraction(hi) + rng.choice((0, Fraction(1, 2))))]}


def series_polygon(rng, n):
    points = []
    for i in range(n):
        v = None if i and rng.random() < 0.15 else Fraction(rng.randint(-6, 12), rng.randint(1, 3))
        points.append([fmt(Fraction(i, rng.choice((1, 1, 2)))), None if v is None else fmt(v)])
    return {"kind": "series", "points": points}


def herbrand(rng, length):
    """A tower step: g_0 = t p^k, then nonincreasing powers of p."""
    p = rng.choice((2, 3, 5))
    k = rng.randint(1, 3)
    t = rng.choice([t for t in (1, 2, 3, 4) if t % p])
    orders = [t * p**k]
    level = k
    while len(orders) < length and level > 0:
        orders.extend([p**level] * rng.randint(1, 2))
        level -= 1
    return {"e": orders[0], "orders": orders[:length]}


def periods(seed: int) -> list:
    rng = random.Random(f"periods-{seed}")
    ops = []

    def add(tier, command, payload, **kw):
        ops.append(Op(f"{command}-{len(ops):02d}", tier, command, payload, **kw))
        return ops[-1].name

    for slot in TILT_SLOTS:
        add("small", "tilt", tilt_builtin(slot))
    for order, chi, c in ((4, 4, 1), (5, 2, 2), (6, -2, 1), (8, 4, 3)):
        add("small", "jet", jet(rng, order, chi, c))
    for m in (2, 5, 8):
        add("small", "jet", jet(rng, m, action="gr-check"))
    for p, w in ((2, 3), (3, 5), (5, 7)):
        add("small", "polygon", eps_polygon(rng, p, w))
    for p, hi in ((3, 4), (5, 6)):
        add("small", "polygon", t_polygon(rng, p, hi))
    for n in (5, 8, 11):
        add("small", "polygon", series_polygon(rng, n))
    for length in (2, 3, 4, 5, 6):
        add("small", "herbrand", herbrand(rng, length))
    add("mid", "polygon", eps_polygon(rng, 3, 24))
    add("mid", "polygon", eps_polygon(rng, 5, 35))
    add("mid", "polygon", t_polygon(rng, 3, 25))
    add("mid", "jet", jet(rng, 10, 4, 2))
    add("mid", "jet", jet(rng, 12, 2, 1))
    for p, m, nx, ny, depth in ((3, 2, 6, 8, 6), (3, 3, 7, 8, 5), (2, 4, 6, 7, 6)):
        x, y, xy = vflat_product(rng, p, m, nx, ny, depth)
        pair = (add("mid", "tilt", x), add("mid", "tilt", y))
        add("large", "tilt", xy, links={"product_of": pair})
    add("large", "polygon", eps_polygon(rng, 3, 62))
    add("large", "polygon", eps_polygon(rng, 2, 84))
    add("large", "polygon", t_polygon(rng, 3, 70))
    for order, chi, c in ((16, 4, 1), (18, 2, 3), (20, -2, 2)):
        add("large", "jet", jet(rng, order, chi, c))
    return ops


# ---------------------------------------------------------------------------
# mixed_batch: JSON-lines files mixing all seven subcommands
# ---------------------------------------------------------------------------


def sen_line(rng, p, d, precision, r=1):
    """exp(p^r S) reduced mod p^(precision + r + 5), for an integer S with
    eigenvalues 0..d-1 (distinct mod p), conjugated by a unimodular P."""
    eig = list(range(d))
    rng.shuffle(eig)
    S = [[int(x) for x in row] for row in M.conjugate(M.unimodular(rng, d, 4), _diag(eig))]
    modulus = p ** (precision + r + 5)
    acc = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    term = [row[:] for row in acc]
    X = [[Fraction(p**r * x) for x in row] for row in S]
    k = 0
    while True:
        k += 1
        term = [[v / k for v in row] for row in mat_mul(term, X)]
        if min((vp(v, p) for row in term for v in row if v), default=10**9) > precision + r + 5:
            break
        acc = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(acc, term)]
    A = []
    for row in acc:
        out = []
        for v in row:
            n = v.numerator * pow(v.denominator, -1, modulus) % modulus
            out.append(str(n - modulus if n > modulus // 2 else n))
        A.append(out)
    line = {"command": "sen", "p": p, "level": r, "matrix": A, "precision": precision}
    return line, {"eigenvalues": eig}


def char_line(rng, p, multiply):
    def triple():
        lam = Fraction(M.unit(rng, p, 1, 9), M.unit(rng, p, 1, 9))
        a = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))
        return {"p": p, "lambda": fmt(lam), "a": fmt(a), "b": rng.randint(0, p - 2)}

    if not multiply:
        return dict(triple(), command="char", op="classify")
    return {"command": "char", "op": "multiply", "p": p, "factors": [triple() for _ in range(3)]}


# the ten line kinds of a small file; a large file holds twenty copies
LINE_KINDS = ("herbrand", "polygon", "tilt", "tilt", "jet", "phimod1", "phimod2", "char", "sen", "sen")
SEN_SHAPES = ((5, 2, 20), (7, 3, 30), (5, 4, 40), (3, 2, 60), (5, 3, 60), (7, 4, 20))  # (p, dim, precision)
BATCH_TILT = (("theta", "omega", 3, 2, None), ("generator-check", "omega", 3, 1, 3),
              ("probe", "epsilon_minus_one", 5, 2, 2), ("theta", "p_flat_minus_p", 5, 1, None))


def batch_line(rng, kind, k):
    """The k-th line of its kind in a file."""
    if kind == "herbrand":
        return dict(herbrand(rng, 2 + k % 4), command="herbrand"), {}
    if kind == "polygon":
        payload = (eps_polygon(rng, 3, 4), t_polygon(rng, 3, 4), series_polygon(rng, 6))[k % 3]
        return dict(payload, command="polygon"), {}
    if kind == "tilt":
        return dict(tilt_builtin(BATCH_TILT[k % len(BATCH_TILT)]), command="tilt"), {}
    if kind == "jet":
        return dict(jet(rng, 5, 2, 1), command="jet"), {}
    if kind == "phimod1":
        return dict(rank1(rng, 5, 1, k % 3, k % 3), command="phimod"), {}
    if kind == "phimod2":
        r, s, a = ((0, 1, 0), (0, 2, 1), (1, 2, 0), (0, 1, 1))[k % 4]
        return dict(rank2_split(rng, 3, r, s, a), command="phimod"), {}
    if kind == "char":
        return char_line(rng, 5, k % 2 == 1), {}
    return sen_line(rng, *SEN_SHAPES[k % len(SEN_SHAPES)])


def batch_file(rng, copies):
    kinds = list(LINE_KINDS) * copies
    rng.shuffle(kinds)
    seen = {}
    lines = []
    for kind in kinds:
        k = seen.get(kind, 0)
        seen[kind] = k + 1
        lines.append(batch_line(rng, kind, k))
    return [line for line, _ in lines], [meta for _, meta in lines]


_FIXED_GOOD = [
    {"command": "herbrand", "e": 4, "orders": [4, 2, 2]},
    {"command": "polygon", "kind": "epsilon_minus_one", "p": 2, "window": "3"},
    {"command": "tilt", "p": 3, "op": "generator-check", "builtin": "omega"},
    {"command": "jet", "action": "verify-cocycle", "p": 3, "order": 6, "chi": "4", "c": "1"},
    {"command": "char", "op": "classify", "p": 5, "lambda": "1", "a": "1", "b": 0},
    {"command": "phimod", "p": 3, "eisenstein": [-3, 1], "dim": 1, "frobenius": [["9"]],
     "filtration": [{"jump": 2, "basis": [[["1"]]]}]},
    {"command": "sen", "p": 3, "level": 1, "matrix": [["4", "3"], ["0", "1"]], "precision": 20},
    {"command": "polygon", "kind": "t", "p": 3, "window": ["-2", "3"]},
    {"command": "jet", "action": "gr-check", "p": 2, "m": 3},
]

FAULT_FILES = [
    # each file is _FIXED_GOOD and then one last line
    # D2: sen_operator stops one term before i = 27 (81), whose valuation
    # 24 (77) is below the stated precision 25 (79)
    ("D2", {"command": "sen", "p": 3, "level": 0, "matrix": [["4"]], "precision": 25}),
    ("D2", {"command": "sen", "p": 3, "level": 0, "matrix": [["4", "0"], ["0", "7"]], "precision": 79}),
    # D3: one bad line aborts the whole file instead of failing alone; the
    # oracle expects that line, and only it, to come back as an error
    ("D3", {"command": "herbrand", "e": None, "orders": [2]}),
    ("D3", {"command": "sen", "p": 3, "level": 1, "matrix": []}),
    ("D3", {"command": "polygon", "kind": "epsilon_minus_one", "p": 1, "window": "3"}),
]


def fault_file(fault, last):
    """Lines and metas of a fixed file that shows a known fault."""
    return _FIXED_GOOD + [last], [{}] * len(_FIXED_GOOD) + [{"expect_error": fault == "D3"}]


def mixed_batch(seed: int) -> list:
    rng = random.Random(f"mixed_batch-{seed}")
    ops = []
    for copies, tier, count in ((1, "small", 10), (20, "large", 3)):
        for _ in range(count):
            lines, metas = batch_file(rng, copies)
            ops.append(Op(f"batch-{len(ops):02d}", tier, "batch", lines, metas))
    for fault, last in FAULT_FILES:
        ops.append(Op(f"batch-{len(ops):02d}", "small", "batch", *fault_file(fault, last), fault=fault))
    return ops


WORKLOADS = {"admissibility": admissibility, "periods": periods, "mixed_batch": mixed_batch}

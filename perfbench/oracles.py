"""Independent checks of period-lab's CLI reports.

Each ``check_<command>(payload, report, code, meta)`` returns None when the
report is right and a one-line reason when it is not.  The checks
recompute the answer apart from the program (brute force, closed forms,
longer series) or test properties the method must have; none compares
against a stored copy of earlier output.  ``meta`` carries what the input
builder knows by construction, such as the eigenvalues of a Sen matrix.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from exact import (
    NumberField,
    det,
    echelon,
    mat_vec,
    nullspace,
    poly_eval,
    poly_mat_eval,
    rank,
    solve,
    transpose,
    vp,
)
from modules import k_restriction, parse_module

INF = "inf"


def _q(text) -> Fraction:
    return Fraction(str(text))


# ---------------------------------------------------------------------------
# phimod: brute force over the Frobenius-stable subspaces
# ---------------------------------------------------------------------------


def _charpoly_factors(F):
    """[(monic coefficients lowest first, multiplicity)] over Q, by sympy."""
    import sympy

    x = sympy.Symbol("x")
    M = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in F])
    _, factors = sympy.factor_list(M.charpoly(x).as_expr(), x)
    out = []
    for g, mult in factors:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(g, x).all_coeffs())]
        out.append(([c / coeffs[-1] for c in coeffs], int(mult)))
    return out


def _root_valuations(g, p):
    """Valuations of the roots of g over Q_p, off its Newton polygon."""
    pts = [(i, vp(c, p)) for i, c in enumerate(g) if c]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.extend([Fraction(y1 - y2, x2 - x1)] * (x2 - x1))
    return out


def _is_qp_square(x: Fraction, p: int) -> bool:
    v = vp(x, p)
    if v % 2:
        return False
    u = x / Fraction(p) ** v
    r = u.numerator * pow(u.denominator, -1, 8 if p == 2 else p)
    if p == 2:
        return r % 8 == 1
    return pow(r % p, (p - 1) // 2, p) == 1


def _qp_kind(g, p) -> str:
    """'irreducible', 'split' (a quadratic with roots in Q_p) or 'unknown'."""
    deg = len(g) - 1
    if deg == 1:
        return "irreducible"
    if deg == 2:
        disc = g[1] * g[1] - 4 * g[0]
        return "split" if _is_qp_square(disc, p) else "irreducible"
    vals = _root_valuations(g, p)
    if len(set(vals)) == 1 and vals[0].denominator == deg:
        return "irreducible"  # totally ramified: one slope with full denominator
    if deg == 3 and all(vp(c, p) >= 0 for c in g if c):
        residues = [c.numerator * pow(c.denominator, -1, p) % p for c in g]
        if all(poly_eval(residues, r) % p for r in range(p)):
            return "irreducible"  # a cubic without roots mod p
    return "unknown"


class _Dims:
    """dim_K of (subspace (x) K) meet Fil^step for every filtration step."""

    def __init__(self, E, steps):
        self.E = E
        self.e = len(E) - 1
        self.fil = [k_restriction(E, vecs) for _, vecs in steps]
        self.fil_ranks = [rank(r) for r in self.fil]

    def full(self):
        return [r // self.e for r in self.fil_ranks]

    def of_rational(self, rows):
        sub = k_restriction(self.E, [[[x] for x in r] for r in rows])
        rs = rank(sub)
        return [(rs + rf - rank(sub + f)) // self.e for f, rf in zip(self.fil, self.fil_ranks)]


def _hodge(jumps, dims) -> int:
    dims = list(dims) + [0]
    return sum(j * (dims[i] - dims[i + 1]) for i, j in enumerate(jumps))


def _dims_over_field(field, rows, fil_steps):
    """Intersection dimensions over a number field (K = Q_p only)."""
    lift = [[field.element([x]) if not hasattr(x, "field") else x for x in r] for r in rows]
    rs = rank(lift)
    out = []
    for _, vecs in fil_steps:
        fil = [[field.element(c) for c in v] for v in vecs]
        out.append(rs + rank(fil) - rank(lift + fil))
    return out


def phimod_truth(obj: dict) -> dict:
    """{'status', 't_H', 't_N', 'weights', 'why'} with status one of
    admissible / not-admissible / unknown."""
    p, E, F, steps = parse_module(obj)
    d = len(F)
    jumps = [j for j, _ in steps]
    dims = _Dims(E, steps)
    full = dims.full()
    graded = [a - b for a, b in zip(full, full[1:] + [0])]
    weights = sorted(-j for j, g in zip(jumps, graded) for _ in range(g))
    tH = _hodge(jumps, full)
    tN = Fraction(vp(det(F), p))
    out = {"t_H": tH, "t_N": tN, "weights": weights}
    if tH != tN:
        return dict(out, status="not-admissible", why="t_H != t_N")
    factors = _charpoly_factors(F)
    if any(m > 1 for _, m in factors):
        return dict(out, status="unknown", why="repeated eigenvalues")
    blocks = []
    for g, _ in factors:
        rows = nullspace(poly_mat_eval(g, F), d)
        kind = _qp_kind(g, p)
        if kind == "unknown":
            return dict(out, status="unknown", why="uncertified factor")
        blocks.append((kind, g, rows))
    splits = [b for b in blocks if b[0] == "split"]
    if len(splits) > 1 or (splits and len(E) != 2):
        return dict(out, status="unknown", why="split factors beyond the oracle")
    options = [(0, 1, "line") if kind == "split" else (0, 1) for kind, _, _ in blocks]
    for choice in itertools.product(*options):
        if all(c == 0 for c in choice) or all(c == 1 for c in choice):
            continue
        rows, sub_tN, line = [], Fraction(0), None
        for c, (kind, g, brows) in zip(choice, blocks):
            if c == 1:
                rows.extend(brows)
                sub_tN += vp(g[0], p)
            elif c == "line":
                line = g
        if line is None:
            sub_tH = _hodge(jumps, dims.of_rational(rows))
            if sub_tH > sub_tN:
                return dict(out, status="not-admissible", why=f"subobject {choice}")
            continue
        field = NumberField(line)
        alpha = field.generator()
        shifted = [[field.element([F[i][j]]) - (alpha if i == j else 0) for j in range(d)] for i in range(d)]
        (eigvec,) = nullspace(shifted, d, one=field.element([1]))
        sub_tH = _hodge(jumps, _dims_over_field(field, rows + [eigvec], steps))
        if any(sub_tH > sub_tN + v for v in _root_valuations(line, p)):
            return dict(out, status="not-admissible", why=f"p-adic eigenline {choice}")
    return dict(out, status="admissible", why="every stable subspace checked")


def _witness_ok(obj: dict, basis) -> bool:
    """A reported witness subobject is Frobenius-stable and destabilizing."""
    p, E, F, steps = parse_module(obj)
    rows = echelon([[_q(x) for x in r] for r in basis])[0]
    if not rows or rank(rows + [mat_vec(F, r) for r in rows]) != len(rows):
        return False
    coords = [solve(transpose(rows), mat_vec(F, r)) for r in rows]
    sub_tN = vp(det(coords), p)
    sub_tH = _hodge([j for j, _ in steps], _Dims(E, steps).of_rational(rows))
    return sub_tH > sub_tN


def check_phimod(payload, report, code, meta):
    truth = phimod_truth(payload)
    verdict = report["verdict"]
    if verdict["t_H"] != truth["t_H"] or _q(verdict["t_N"]) != truth["t_N"]:
        return f"t_H/t_N {verdict['t_H']}/{verdict['t_N']} != {truth['t_H']}/{truth['t_N']}"
    if report["hodge_tate_weights"] != truth["weights"]:
        return "Hodge-Tate weights differ"
    status = verdict["status"]
    if status == "undecided":
        return None if code == 3 else f"undecided with exit {code}"
    if code != 0:
        return f"decided verdict with exit {code}"
    if truth["status"] == "unknown":
        return f"decided {status} where the oracle cannot decide ({truth['why']})"
    if status != truth["status"]:
        return f"{status}, but the brute force says {truth['status']} ({truth['why']})"
    witness = verdict.get("witness", {})
    if witness.get("type") == "subobject" and not _witness_ok(payload, witness["basis"]):
        return "witness subobject is not stable or not destabilizing"
    return None


# ---------------------------------------------------------------------------
# polygon: closed forms and hull properties
# ---------------------------------------------------------------------------


def _eps_ordinate(p: int, x: Fraction) -> Fraction:
    """Closed form of the epsilon-1 polygon: vertex k at p^(1-k)/(p-1),
    linear in between."""
    k = x.numerator // x.denominator
    yk = Fraction(p) ** (1 - k) / (p - 1)
    return yk - (x - k) * Fraction(1, p**k)


def _t_ordinate(p: int, x: Fraction) -> Fraction:
    """Closed form of the t polygon: (p/(p-1)) p^-n at integers n."""
    k = x.numerator // x.denominator

    def at(n):
        return Fraction(p, p - 1) * Fraction(p) ** (-n)

    return at(k) + (x - k) * (at(k + 1) - at(k))


def check_polygon(payload, report, code, meta):
    if code != 0:
        return f"exit {code}"
    poly = report["polygon"]
    verts = [(_q(x), _q(y)) for x, y in poly["vertices"]]
    kind = payload.get("kind", "series")
    p = payload.get("p")
    if kind == "epsilon_minus_one":
        W = _q(payload["window"])
        xs = [Fraction(k) for k in range(0, int(W) + 1)] + ([W] if W.denominator != 1 else [])
        want = [(x, _eps_ordinate(p, x)) for x in xs]
        ceil_w = -((-W.numerator) // W.denominator)
        if poly["right_ray"] != str(-Fraction(1, p**ceil_w)) or poly["left_ray"] != "vertical":
            return "rays differ from the closed form"
        return None if verts == want else "vertices differ from (k, p^(1-k)/(p-1))"
    if kind == "t":
        lo, hi = (_q(v) for v in payload["window"])
        first = -((-lo.numerator) // lo.denominator)
        xs = [Fraction(k) for k in range(first, hi.numerator // hi.denominator + 1)]
        xs = ([lo] if lo.denominator != 1 else []) + xs + ([hi] if hi.denominator != 1 else [])
        want = [(x, _t_ordinate(p, x)) for x in xs]
        return None if verts == want else "vertices differ from (p/(p-1)) p^-n"
    points = [(_q(x), _q(v)) for x, v in payload["points"] if v not in (None, "inf")]
    if any(v not in points for v in verts):
        return "a vertex is not an input point"
    x0 = min(x for x, _ in points)
    if verts[0] != (x0, min(y for x, y in points if x == x0)):
        return "leftmost vertex is wrong"
    slopes = [(y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(verts, verts[1:])]
    if any(s >= 0 for s in slopes) or any(a >= b for a, b in zip(slopes, slopes[1:])):
        return "segments are not strictly convex and descending"
    if verts[-1][1] != min(y for _, y in points):
        return "the horizontal ray is not at the minimum"
    for x, y in points:
        seg = [(a, b) for a, b in zip(verts, verts[1:]) if a[0] <= x <= b[0]]
        floor = (
            seg[0][0][1] + (x - seg[0][0][0]) * (seg[0][1][1] - seg[0][0][1]) / (seg[0][1][0] - seg[0][0][0])
            if seg
            else verts[-1][1]
        )
        if y < floor:
            return f"point {(x, y)} lies below the polygon"
    return None


# ---------------------------------------------------------------------------
# herbrand: the integral formula, psi o phi = id, the different
# ---------------------------------------------------------------------------


def _pl_eval(obj, u: Fraction) -> Fraction:
    prev = (Fraction(0), Fraction(0))
    for x, y in obj["breakpoints"]:
        x, y = _q(x), _q(y)
        if u <= x:
            return prev[1] + (y - prev[1]) / (x - prev[0]) * (u - prev[0])
        prev = (x, y)
    return prev[1] + _q(obj["final_slope"]) * (u - prev[0])


def check_herbrand(payload, report, code, meta):
    if code != 0:
        return f"exit {code}"
    e, orders = payload["e"], payload["orders"]
    n = len(orders)

    def phi(u: Fraction) -> Fraction:
        # (1/e) * integral_0^u Card G_t dt with Card G_t = g_i on [i, i+1)
        total = Fraction(0)
        for i in range(n + 3):
            g = orders[i] if i < n else 1
            total += g * max(Fraction(0), min(u, Fraction(i + 1)) - i)
        return total / e + (max(Fraction(0), u - (n + 3)) / e)

    samples = [Fraction(k, 2) for k in range(0, 2 * n + 8)]
    for u in samples:
        if _pl_eval(report["phi"], u) != phi(u):
            return f"phi({u}) differs from the integral"
        if _pl_eval(report["psi"], _pl_eval(report["phi"], u)) != u:
            return f"psi(phi({u})) != {u}"
    different = Fraction(sum(g - 1 for g in orders), e)
    if _q(report["different_valuation"]) != different:
        return "different valuation differs from (1/e) sum (g_i - 1)"
    return None


# ---------------------------------------------------------------------------
# jet, tilt: theorems and closed forms
# ---------------------------------------------------------------------------


def check_jet(payload, report, code, meta):
    if code != 0:
        return f"exit {code}"
    if payload.get("action", "verify-cocycle") == "verify-cocycle":
        return None if report["verified"] is True else "the cocycle identity is a theorem"
    return None if report["generates_graded_piece"] is True else "t^m generates gr^m"


_BUILTIN_PASSES = {"omega": True, "p_flat_minus_p": True, "epsilon_minus_one": False}


def vflat_value(report):
    """The stabilized v_flat of a vflat report, or None."""
    if not report.get("stabilized"):
        return None
    return INF if report["value"] == "inf" else _q(report["value"])


def check_tilt(payload, report, code, meta):
    op = payload.get("op", "theta")
    p = payload["p"]
    builtin = payload.get("builtin")
    if op == "theta":
        if builtin is None:
            return "theta is checked on the builtins only"
        return None if code == 0 and report["is_zero"] is True else f"theta({builtin}) must vanish"
    if op == "generator-check":
        if report["theta_is_zero"] is not True:
            return "theta of a kernel element must vanish"
        if report["passes"] is None:
            return None if code == 3 else f"undecided with exit {code}"
        return None if report["passes"] is _BUILTIN_PASSES[builtin] else "generator verdict is wrong"
    if op == "probe":
        n_max = payload.get("n_max", 3)
        tail = builtin == "epsilon_minus_one"
        want = [True] + [tail] * n_max
        return None if report["kernel_orbit"] == want else "kernel orbit differs from theta(phi^n x)"
    if op == "vflat":
        if code not in (0, 3):
            return f"exit {code}"
        value = vflat_value(report)
        if builtin == "epsilon_minus_one" and value is not None and value != Fraction(p, p - 1):
            return "v_flat(eps - 1) != p/(p-1)"
        return None
    return f"unknown tilt op {op}"


def vflat_additive(vx, vy, vxy):
    """v_flat(xy) = v_flat(x) + v_flat(y), where all three stabilized."""
    if None in (vx, vy, vxy):
        return None
    total = INF if INF in (vx, vy) else vx + vy
    return None if total == vxy else f"v_flat(xy) = {vxy} != {vx} + {vy}"


# ---------------------------------------------------------------------------
# sen: a longer log series, and the eigenvalues of S
# ---------------------------------------------------------------------------


def long_log(p: int, A, target: int):
    """log(A) to p-adic precision ``target`` by the plain series, with every
    power reduced mod p^(target + log_p n); A integral, A - I divisible by p."""
    d = len(A)
    B = [[int(A[i][j]) - (i == j) for j in range(d)] for i in range(d)]
    m = min(vp(x, p) for row in B for x in row if x)
    n = 1
    while m * (n + 1) - _ilog(n + 1, p) < target:
        n += 1
    modulus = p ** (target + _ilog(n, p) + 1)
    acc = [[Fraction(0)] * d for _ in range(d)]
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    for i in range(1, n + 1):
        power = [[sum(power[a][k] * B[k][b] for k in range(d)) % modulus for b in range(d)] for a in range(d)]
        sign = 1 if i % 2 else -1
        for a in range(d):
            for b in range(d):
                acc[a][b] += Fraction(sign * power[a][b], i)
    return acc


def _ilog(n: int, p: int) -> int:
    k = 0
    while n >= p:
        n //= p
        k += 1
    return k


def check_sen(payload, report, code, meta):
    p, r = payload["p"], payload.get("level", 1)
    op = report["operator"]
    prec = op["precision"]
    A = [[_q(x) for x in row] for row in payload["matrix"]]
    L = long_log(p, A, prec + r + 20)
    for row_op, row_l in zip(op["matrix"], L):
        for x, y in zip(row_op, row_l):
            diff = _q(x) * p**r - y
            if diff and vp(diff, p) < prec + r:
                return f"operator error has valuation {vp(diff, p) - r} < stated {prec}"
    eigen = meta.get("eigenvalues")
    if eigen is not None:
        ht = report["hodge_tate"]
        if ht["status"] != "hodge-tate" or ht.get("integer_weights") != sorted(eigen):
            return "weights differ from the eigenvalues of S"
        if report["is_trivial"] is not all(x == 0 for x in eigen):
            return "triviality verdict is wrong"
    return None


# ---------------------------------------------------------------------------
# char: the classification by definition
# ---------------------------------------------------------------------------


def _triple(obj):
    return _q(obj["lambda"]), _q(obj["a"]), int(obj.get("b", 0))


def check_char(payload, report, code, meta):
    if code != 0:
        return f"exit {code}"
    p = payload["p"]
    if payload.get("op", "classify") == "multiply":
        lam, a, b = Fraction(1), Fraction(0), 0
        for f in payload["factors"]:
            fl, fa, fb = _triple(f)
            lam, a, b = lam * fl, a + fa, b + fb
    else:
        lam, a, b = _triple(payload)
    b %= p - 1
    got = report["character"]
    if (_q(got["lambda"]), _q(got["a"]), got["b"]) != (lam, a, b):
        return "character triple differs"
    integral = a.denominator == 1
    want = {
        "unramified": a == 0 and b == 0,
        "cp_admissible": a == 0,
        "hodge_tate": integral,
        "de_rham": integral,
        "crystalline": integral and b == 0,
    }
    if integral:
        want["hodge_tate_weight"] = str(a)
    return None if report["flags"] == want else "classification flags differ"


CHECKS = {
    "phimod": check_phimod,
    "polygon": check_polygon,
    "herbrand": check_herbrand,
    "jet": check_jet,
    "tilt": check_tilt,
    "sen": check_sen,
    "char": check_char,
}


def check_batch(lines, report, code, metas):
    """Every line checked by its command's oracle, plus the summary.  A
    line whose meta has ``expect_error`` is malformed on purpose: it must
    come back as an isolated error, and the file must exit 2."""
    if code not in (0, 2, 3):
        return f"batch exit {code}"
    results = report["results"]
    if [r["line"] for r in results] != list(range(1, len(lines) + 1)):
        return "batch lines missing from the summary"
    for line, res, meta in zip(lines, results, metas):
        if meta.get("expect_error"):
            if res["status"] != "error":
                return f"line {res['line']}: a malformed line came back {res['status']}"
            continue
        if res["status"] == "error":
            return f"line {res['line']}: {res['message']}"
        sub = 3 if res["status"] == "undecided" else 0
        why = CHECKS[line["command"]](line, res["report"], sub, meta)
        if why:
            return f"line {res['line']} ({line['command']}): {why}"
    counts = {"ok": 0, "undecided": 0, "error": 0}
    for res in results:
        counts[res["status"]] += 1
    if report["counts"] != counts:
        return "summary counts differ from the lines"
    want = 2 if counts["error"] else 3 if counts["undecided"] else 0
    return None if code == want else f"batch exit {code}, expected {want}"

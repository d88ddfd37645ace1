import json
import os
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from period_lab.padic import INF, lower_hull, parse_rational
from period_lab.polygons import (
    HORIZONTAL,
    VERTICAL,
    Polygon,
    ascii_sketch,
    epsilon_minus_one_polygon,
    frobenius_transform,
    hull,
    minkowski_sum,
    t_polygon,
)
from period_lab.tilt import TiltExpr, vflat_sum


def newton_profile(x: TiltExpr, depth: int = 4):
    """(index, v_flat) profile of a formal series, one point per p-power.

    Single-term coefficients are exact (v_flat is the pflat exponent); composite coefficients use the
    stabilized depth valuation and raise if it is inconclusive (a formal
    sum cannot decide valuation ties without Witt arithmetic).
    """
    by_index: dict = {}
    for coeff, a, c, u, i in x.terms:
        by_index.setdefault(i, []).append((coeff, a, c, u, 0))
    points = []
    for i, terms in sorted(by_index.items()):
        if len(terms) == 1:
            points.append((F(i), terms[0][2]))  # the pflat exponent
            continue
        vf = vflat_sum(TiltExpr(x.prime, terms), depth)
        if not vf.stabilized:
            raise ValueError(f"valuation of the coefficient of p^{i} did not stabilize")
        points.append((F(i), vf.value))
    return points


def brute_minkowski(P, Q):
    """Oracle: hull of all pairwise vertex sums (canonical polygons)."""
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
    return Polygon(verts)


def random_canonical(rng, max_verts=4):
    x = F(rng.randrange(0, 3))
    y = F(rng.randrange(0, 24), rng.randrange(1, 4))
    verts = [(x, y)]
    for _ in range(rng.randrange(0, max_verts)):
        dx = F(rng.randrange(1, 5), rng.randrange(1, 3))
        last_slope = (
            (verts[-1][1] - verts[-2][1]) / (verts[-1][0] - verts[-2][0])
            if len(verts) >= 2
            else None
        )
        # choose a strictly flatter negative slope each time
        num = rng.randrange(1, 12)
        den = rng.randrange(1, 6)
        slope = F(-num, den)
        if last_slope is not None and slope <= last_slope:
            slope = last_slope / 2
        new_y = verts[-1][1] + slope * dx
        if new_y < 0:
            break
        verts.append((verts[-1][0] + dx, new_y))
    return Polygon(verts)


def test_hull_examples():
    P = hull([(0, 1), (1, 0)])
    assert P.vertices == ((0, 1), (1, 0))
    assert hull([(0, 0)]).vertices == ((0, 0),)
    # interior point discarded
    P2 = hull([(0, 3), (1, 1), (2, 0), (1, 5)])
    assert P2.vertices == ((0, 3), (1, 1), (2, 0))
    # ascending tail swallowed by the horizontal ray
    P3 = hull([(0, 1), (1, 0), (2, 7)])
    assert P3.vertices == ((0, 1), (1, 0))


def test_hull_rejects_all_infinite():
    with pytest.raises(ValueError):
        hull([(0, INF), (1, INF)])


def test_hull_idempotent():
    rng = random.Random(23)
    for _ in range(100):
        P = random_canonical(rng)
        assert hull(list(P.vertices)).vertices == P.vertices


def test_minkowski_identity_and_merge():
    P = hull([(0, 1), (1, 0)])
    unit = Polygon([(0, 0)])
    assert minkowski_sum(P, unit).vertices == P.vertices
    # equal slopes coalesce into one segment
    assert minkowski_sum(P, P).vertices == ((0, 2), (2, 0))


def test_minkowski_against_brute_force():
    rng = random.Random(29)
    for _ in range(200):
        P, Q = random_canonical(rng), random_canonical(rng)
        assert minkowski_sum(P, Q).vertices == brute_minkowski(P, Q).vertices


def test_minkowski_commutative_associative():
    rng = random.Random(31)
    for _ in range(60):
        P, Q, R = (random_canonical(rng) for _ in range(3))
        assert minkowski_sum(P, Q).vertices == minkowski_sum(Q, P).vertices
        assert (
            minkowski_sum(minkowski_sum(P, Q), R).vertices
            == minkowski_sum(P, minkowski_sum(Q, R)).vertices
        )


def test_frobenius_transform():
    P = hull([(0, 1), (1, 0)])
    assert frobenius_transform(P, 0, 3).vertices == P.vertices
    assert frobenius_transform(P, -1, 5).vertices == ((0, F(1, 5)), (1, 0))
    rng = random.Random(37)
    for _ in range(50):
        Q = random_canonical(rng)
        m, n = rng.randrange(-2, 3), rng.randrange(-2, 3)
        a = frobenius_transform(frobenius_transform(Q, m, 3), n, 3)
        b = frobenius_transform(Q, m + n, 3)
        assert a.vertices == b.vertices


def test_epsilon_minus_one_polygon():
    assert epsilon_minus_one_polygon(2, 2).vertices == (
        (0, 2),
        (1, 1),
        (2, F(1, 2)),
    )
    for p in (2, 3, 5, 7):
        P = epsilon_minus_one_polygon(p, 4)
        assert P.leftmost() == (0, F(p, p - 1))
        for n, (slope, length) in enumerate(P.slopes()):
            assert length == 1
            assert slope == F(-1, p**n)
    assert epsilon_minus_one_polygon(3, 1).leftmost() == (0, F(3, 2))


def test_t_polygon_structure():
    for p in (2, 3, 5):
        T = t_polygon(p, -3, 3)
        # vertices at integer abscissas with ordinate (p/(p-1)) p^{-n}
        assert T.vertices == tuple(
            (n, F(p, p - 1) * F(1, p) ** n if n >= 0 else F(p, p - 1) * p ** (-n))
            for n in range(-3, 4)
        )
        # agrees with the roots-of-unity polygon for x >= 0
        E = epsilon_minus_one_polygon(p, 3)
        right = tuple(v for v in T.vertices if v[0] >= 0)
        assert right == E.vertices


def test_t_polygon_frobenius_invariance():
    # (i, v) -> (i - 1, p v) maps the window [lo, hi] onto [lo-1, hi-1]
    for p in (2, 3):
        T = t_polygon(p, -3, 3)
        shifted = tuple((x - 1, p * y) for x, y in T.vertices)
        T2 = t_polygon(p, -4, 2)
        assert shifted == T2.vertices


def test_t_polygon_slopes_unbounded():
    T = t_polygon(2, -8, 1)
    slopes = [s for s, _ in T.slopes()]
    assert min(slopes) <= -(2**8)
    assert slopes == sorted(slopes)


def test_windowed_rays():
    E = epsilon_minus_one_polygon(2, 2)
    assert E.left_ray == "vertical"
    assert E.right_ray == F(-1, 4)
    T = t_polygon(2, -2, 2)
    assert T.left_ray == -(2**3)
    assert T.right_ray == F(-1, 4)


def minkowski_chain(p, n_left, n_right):
    """Oracle: vertex chain of product_{n=0}^{n_right} phi^{-n}(w0) *
    product_{n=1}^{n_left} phi^{n}(w0)/p assembled by Minkowski sums, as demo
    02 does, lifted by the geometric tail sum_{n > n_right} p^{-n} of the
    omitted right factors."""
    gen = hull([(0, 1), (1, 0)])
    acc = gen
    for n in range(1, n_right + 1):
        acc = minkowski_sum(acc, frobenius_transform(gen, -n, p))
    left_gen = Polygon([(-1, 1), (0, 0)])  # phi^n(w0)/p is its n-th Frobenius twist
    for n in range(1, n_left + 1):
        acc = minkowski_sum(acc, frobenius_transform(left_gen, n, p))
    tail = F(1, p**n_right * (p - 1))
    return [(x, y + tail) for x, y in acc.vertices]


def window_oracle(chain):
    """Oracle: the cut of an assembled chain to [lo, hi] (lo None: keep the
    vertical left edge), interpolating the cut points; each ray is the slope
    of the first whole segment past its cut."""
    slopes = [(y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(chain, chain[1:])]
    xs = [x for x, _ in chain]

    def cut(lo, hi):
        # the vertices inside the window are chain[i..j]
        i = 0 if lo is None else bisect_left(xs, lo)
        j = bisect_right(xs, hi) - 1
        if i > j:
            raise ValueError("window contains no vertex")
        verts = chain[i:j + 1]
        left_ray = VERTICAL
        if lo is not None:
            if lo < chain[i][0]:
                verts.insert(0, (lo, chain[i][1] - slopes[i - 1] * (chain[i][0] - lo)))
                i -= 1
            assert i >= 1, "chain too short on the left"
            left_ray = slopes[i - 1]
        if hi > chain[j][0]:
            verts.append((hi, chain[j][1] + slopes[j] * (hi - chain[j][0])))
            j += 1
        assert j < len(slopes), "chain too short on the right"
        return Polygon(verts, left_ray, slopes[j])

    return cut


def _outcome(build, *args):
    # equal vertices and rays give byte-identical JSON
    try:
        P = build(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return P.vertices, P.left_ray, P.right_ray


def _eps_oracle(cut, w):
    if w < 1:
        raise ValueError("window must extend at least to 1")
    return cut(None, w)


def _t_oracle(cut, lo, hi):
    if lo >= hi:
        raise ValueError("empty window")
    return cut(lo, hi)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closed_form_matches_minkowski_assembly(p):
    # epsilon windows -1..59 in steps of 1/2, 1/3, 1/4; t windows with lo in
    # thirds and hi in halves over [-12, 16]; error messages included.  One
    # assembly serves both: its part at x >= 0 is the epsilon chain, since
    # the left factors only prepend steeper segments ending at (0, 0)
    chain = minkowski_chain(p, 14, 60)
    eps_cut = window_oracle([v for v in chain if v[0] >= 0])
    for w in sorted({F(k, d) for d in (2, 3, 4) for k in range(-d, 59 * d + 1)}):
        assert _outcome(epsilon_minus_one_polygon, p, w) == _outcome(_eps_oracle, eps_cut, w), w
    t_cut = window_oracle(chain)
    for lo in (F(k, 3) for k in range(-36, 49)):
        for hi in (F(k, 2) for k in range(-24, 33)):
            assert _outcome(t_polygon, p, lo, hi) == _outcome(_t_oracle, t_cut, lo, hi), (lo, hi)


def test_wide_window_is_linear_time():
    # the closed form takes about 0.1 s here, start-up included; assembling
    # 2001 Minkowski factors would take minutes
    src = Path(__file__).resolve().parents[1] / "src"
    payload = json.dumps({"kind": "epsilon_minus_one", "p": 3, "window": 2000})
    proc = subprocess.run(
        [sys.executable, "-m", "period_lab.cli", "polygon", "--input", "-"],
        input=payload, capture_output=True, text=True, timeout=3,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    verts = json.loads(proc.stdout)["polygon"]["vertices"]
    assert len(verts) == 2001
    assert verts[-1] == ["2000", f"1/{2 * 3**1999}"]


def test_tilt_product_polygon_is_minkowski_sum():
    # on monomial series (one term per index), polygons multiply exactly
    rng = random.Random(41)
    p = 3
    for _ in range(50):
        def rand_series():
            terms = []
            used = set()
            for _ in range(rng.randrange(1, 4)):
                i = rng.randrange(0, 4)
                if i in used:
                    continue
                used.add(i)
                c = F(rng.randrange(0, 8), p ** rng.randrange(0, 2))
                terms.append((i, c))
            expr = TiltExpr.zero(p)
            for i, c in terms:
                expr = expr + TiltExpr.p_flat_power(p, c) * TiltExpr.p_scalar(p, i)
            return expr

        x, y = rand_series(), rand_series()
        try:
            px = hull(newton_profile(x))
            py = hull(newton_profile(y))
            pxy = hull(newton_profile(x * y))
        except ValueError:
            continue  # a valuation tie: flagged, not asserted
        assert pxy.vertices == minkowski_sum(px, py).vertices


def polygon_from_json(obj: dict) -> Polygon:
    """The polygon of what ``Polygon.to_json`` prints."""

    def ray(r, name):
        return r if r == name else parse_rational(r)

    return Polygon(
        [(parse_rational(x), parse_rational(y)) for x, y in obj["vertices"]],
        ray(obj["left_ray"], VERTICAL),
        ray(obj["right_ray"], HORIZONTAL),
    )


def test_polygon_json_roundtrip():
    for P in (
        epsilon_minus_one_polygon(3, 3),
        t_polygon(2, -2, 2),
        hull([(0, 1), (1, 0)]),
    ):
        assert polygon_from_json(P.to_json()).vertices == P.vertices


def test_ascii_sketch_smoke():
    art = ascii_sketch(epsilon_minus_one_polygon(2, 3))
    assert "o" in art and "\n" in art


def test_polygon_validation():
    with pytest.raises(ValueError):
        Polygon([(0, 0), (0, 1)])  # duplicate abscissa
    with pytest.raises(ValueError):
        Polygon([(0, 2), (1, 1), (2, 1)])  # slopes not strictly increasing? flat then
    with pytest.raises(ValueError):
        Polygon([(0, 0), (1, 1)])  # ascending into the horizontal ray


def fraction_checks(vertices, left_ray, right_ray):
    """Oracle: the checks of ``Polygon.__init__`` in Fraction arithmetic,
    slopes by division: the message of the first failing check, or the
    slopes."""
    verts = [(F(x), F(y)) for x, y in vertices]
    if not verts:
        return "a polygon needs at least one vertex"
    if any(a[0] >= b[0] for a, b in zip(verts, verts[1:])):
        return "vertices must have strictly increasing abscissas"
    slopes = [(y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(verts, verts[1:])]
    if any(s >= t for s, t in zip(slopes, slopes[1:])):
        return "vertex chain must be strictly convex"
    if left_ray != VERTICAL and slopes and F(left_ray) >= slopes[0]:
        return "left ray must be steeper than the first segment"
    if right_ray != HORIZONTAL and slopes and F(right_ray) <= slopes[-1]:
        return "right ray must be flatter than the last segment"
    if right_ray == HORIZONTAL and slopes and slopes[-1] >= 0:
        return "segments must stay below the horizontal right ray"
    return slopes


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def convex_chain(draw):
    """Vertices with increasing abscissas and mostly increasing slopes."""
    x, y = draw(_small), draw(_small)
    verts = [(x, y)]
    slope = draw(_small) - 4
    for _ in range(draw(st.integers(0, 5))):
        x += draw(st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6))
        y += slope * (x - verts[-1][0])
        verts.append((x, y))
        slope += draw(st.fractions(min_value=-F(1, 2), max_value=2, max_denominator=6))
    return verts


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.lists(st.tuples(_small, _small), max_size=5), convex_chain()),
    st.one_of(st.just(VERTICAL), _small.map(lambda r: r - 8)),
    st.one_of(st.just(HORIZONTAL), _small, st.integers(-1, 1)),
)
def test_integer_checks_match_fraction_checks(vertices, left_ray, right_ray):
    # the slopes are compared by integer cross-multiplication; every check
    # still fails or passes as it did in Fractions, for every caller
    want = fraction_checks(vertices, left_ray, right_ray)
    try:
        got = [s for s, _ in Polygon(vertices, left_ray, right_ray).slopes()]
    except ValueError as exc:
        got = str(exc)
    assert got == want

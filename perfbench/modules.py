"""Builders for filtered phi-modules, in the CLI's JSON schema.

A module is designed from its eigen-structure: a block-diagonal matrix B
(rational eigenvalues and companion blocks) conjugated by an integer
matrix P of determinant +-1, so F = P B P^-1 stays integral and the
columns of P are the eigenvectors.  Filtrations are given by a basis
v_1..v_d of K^d and Hodge weights h_1..h_d: Fil^j = span{v_i : h_i >= j}.
Duals, tensor products and direct sums are built here too, with the
benchmark's own linear algebra, so the inputs never depend on the
program under test.
"""

from __future__ import annotations

from fractions import Fraction

from exact import (
    NumberField,
    block_diag,
    echelon,
    inverse,
    kron,
    mat_mul,
    nullspace,
    transpose,
)


def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def unit(rng, p: int, lo: int = 1, hi: int = 12) -> int:
    """A random nonzero integer in [lo, hi] prime to p, with a random sign."""
    while True:
        u = rng.randint(lo, hi)
        if u % p:
            return u * rng.choice((1, -1))


def unimodular(rng, d: int, moves: int = 6):
    """Random integer matrix of determinant +-1 with small entries."""
    P = [[int(i == j) for j in range(d)] for i in range(d)]
    if d == 1:
        return [[rng.choice((1, -1))]]
    for _ in range(moves):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1, 2, -2))
        P[i] = [a + c * b for a, b in zip(P[i], P[j])]
    return P


def companion(c0, c1):
    """Companion matrix of x^2 + c1 x + c0."""
    return [[0, -c0], [1, -c1]]


def conjugate(P, B):
    Pf = [[Fraction(x) for x in row] for row in P]
    return mat_mul(mat_mul(Pf, [[Fraction(x) for x in row] for row in B]), inverse(Pf))


def eisenstein(rng, p: int, e: int):
    """A monic Eisenstein polynomial of degree e (lowest degree first)."""
    if e == 1:
        return [-p, 1]
    coeffs = [p * unit(rng, p, 1, 3)] + [p * rng.randint(-1, 1) for _ in range(e - 1)]
    return coeffs + [1]


def rational_vec(coords):
    """A K-vector whose entries are the given rationals."""
    return [[Fraction(c)] for c in coords]


def random_kvec(rng, d: int, e: int, span: int = 3):
    """A K-vector with small random coordinates in the uniformizer basis."""
    return [[Fraction(rng.randint(-span, span)) for _ in range(e)] for _ in range(d)]


def column(P, i):
    return [row[i] for row in P]


def hodge_filtration(vectors, weights):
    """Steps (jump, basis) with Fil^j = span{v_i : weight_i >= j}."""
    pairs = list(zip(weights, vectors))
    return [(j, [v for w, v in pairs if w >= j]) for j in sorted(set(weights))]


def k_restriction(E, vectors):
    """Q-rows of the restriction of scalars of a K-span (d*e coordinates)."""
    field = NumberField([Fraction(c) for c in E])
    e = field.degree
    rows = []
    for v in vectors:
        elts = [field.element(x) for x in v]
        pi_power = field.element([1])
        for _ in range(e):
            row = []
            for x in elts:
                c = list((x * pi_power).coords)
                row.extend(c + [Fraction(0)] * (e - len(c)))
            rows.append(row)
            pi_power = pi_power * field.generator()
    return rows


def module(p: int, E, F, steps) -> dict:
    """The CLI JSON of a module (``F`` rational matrix, ``steps`` as built
    by ``hodge_filtration``)."""
    return {
        "p": p,
        "eisenstein": [int(c) for c in E],
        "dim": len(F),
        "frobenius": [[fmt(x) for x in row] for row in F],
        "filtration": [
            {"jump": j, "basis": [[[fmt(c) for c in (entry or [0])] for entry in vec] for vec in vecs]}
            for j, vecs in steps
        ],
    }


def parse_module(obj: dict):
    """(p, E, F, steps) with Fraction entries from the CLI JSON."""
    F = [[Fraction(x) for x in row] for row in obj["frobenius"]]
    steps = [
        (step["jump"], [[[Fraction(c) for c in entry] for entry in vec] for vec in step["basis"]])
        for step in obj["filtration"]
    ]
    return obj["p"], list(obj["eisenstein"]), F, steps


def _rational_rows(vecs):
    """Rational coordinates of K-vectors known to be rational (e = 1)."""
    return [[x[0] if x else Fraction(0) for x in v] for v in vecs]


def dual(obj: dict) -> dict:
    """Dual module over K = Q_p: Frobenius (F^-1)^T and Fil^m(D*) the
    annihilator of Fil^(1-m)(D)."""
    p, E, F, steps = parse_module(obj)
    if len(E) != 2:
        raise ValueError("duals are built over Q_p only")
    d = len(F)
    frob = transpose(inverse(F))
    out = []
    for idx in range(len(steps) - 1, -1, -1):
        if idx + 1 < len(steps):
            ann = nullspace(_rational_rows(steps[idx + 1][1]), d)
        else:
            ann = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        out.append((-steps[idx][0], [rational_vec(v) for v in ann]))
    return module(p, E, frob, out)


def tensor(a: dict, b: dict) -> dict:
    """Tensor product over K = Q_p with the convolution filtration."""
    p, E, F1, s1 = parse_module(a)
    _, _, F2, s2 = parse_module(b)
    if len(E) != 2:
        raise ValueError("tensor products are built over Q_p only")
    frob = kron(F1, F2)
    raw = []
    for mu in sorted({j1 + j2 for j1, _ in s1 for j2, _ in s2}):
        rows = [
            [x * y for x in v for y in w]
            for j1, V in s1
            for j2, W in s2
            if j1 + j2 >= mu
            for v in _rational_rows(V)
            for w in _rational_rows(W)
        ]
        raw.append((mu, echelon(rows)[0]))
    steps = [
        (mu, [rational_vec(r) for r in rows])
        for i, (mu, rows) in enumerate(raw)
        if len(rows) > (len(raw[i + 1][1]) if i + 1 < len(raw) else 0)
    ]
    return module(p, E, frob, steps)


def direct_sum(parts) -> dict:
    """Block-diagonal direct sum; Fil^m is the sum of the parts' Fil^m."""
    parsed = [parse_module(m) for m in parts]
    p, E = parsed[0][0], parsed[0][1]
    frob = block_diag(*[F for _, _, F, _ in parsed])
    dims = [len(F) for _, _, F, _ in parsed]
    zero = [Fraction(0)]
    steps = []
    for mu in sorted({j for _, _, _, s in parsed for j, _ in s}):
        vecs = []
        offset = 0
        for (_, _, F, s), d in zip(parsed, dims):
            step = next((vs for j, vs in s if j >= mu), [])
            for v in step:
                vecs.append([zero] * offset + v + [zero] * (sum(dims) - offset - d))
            offset += d
        steps.append((mu, vecs))
    return module(p, E, frob, steps)

"""Filtered Frobenius modules over K with linear Frobenius, and the
weak-admissibility decision procedure.

A module is a d-dimensional Q_p-space (modeled over Q) with an invertible
rational Frobenius matrix and a nonincreasing exhaustive separated
filtration on the scalar extension to K, given as strictly increasing
jumps with strictly decreasing K-subspaces (the first one full).  The two
integers that decide everything are

    t_H = sum of jumps weighted by graded dimensions,
    t_N = v_p(det Frobenius),

and the criterion: admissible iff t_H = t_N and t_H(D') <= t_N(D') for
every Frobenius-stable subspace D' with the induced (intersection)
filtration.

Decision coverage:

* dimension 1: admissible iff v_p(eigenvalue) = jump;
* dimension 2: always decided, by two comparisons.  A middle filtration
  line that is defined over Q_p (read off its annihilator's coordinates:
  the uniformizer powers form a Q_p-basis of K) and Frobenius-stable
  destabilizes when its eigenvalue has valuation below the upper jump;
  otherwise a Q_p-rational eigenvalue of valuation below the lower jump
  does, its valuations read off the characteristic polynomial's Newton
  polygon and its rationality from an exact p-adic square test on the
  discriminant;
* dimension >= 3 with squarefree characteristic polynomial (factored over
  Q by rational-root deflation, complete through cubic remainders, in
  ints on its monic integer form g(y) = lead^(n-1) f(y / lead), whose
  rational roots are integers): the Q-rational stable subspaces are
  exactly the sums of primary components, each the integer kernel of one
  integer matrix (lead B - y D I for a root y, Frobenius = B / D), a
  finite scan, and any destabilizing one among them is a sound witness.
  "admissible" further needs every factor of degree >= 2 certified
  irreducible over Q_p (quadratic: nonsquare discriminant; cubic: one
  Newton slope of denominator 3, or p-integral and irreducible mod p), so
  that the Q-rational subobjects are all the subobjects; otherwise the
  verdict is undecided with witness ``padically_reducible_factor``.  The
  components are first split into parts whose products with each
  filtration step's annihilator are independent at every step (the
  connected components of a vector matroid, one elimination per step),
  so t_H - t_N of a sum is the sum over the parts: a direct sum in any
  basis costs sum_P 2^|P| subsets in place of 2^k, and the least
  destabilizing sum is read back from the parts' tables.  A part, or a
  module of one part, is walked depth first: each component's products
  are formed once, and adding a component extends one echelon per step
  by its products alone (in ints for every e), so a subspace costs no
  elimination from scratch;
* everything else: undecided, a first-class outcome.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import mul

from .characters import CharacterTriple
from .linalg import (
    BaseFieldK,
    certify_squarefree,
    char_poly,
    clear_denominators,
    extend_echelon,
    factor_over_q,
    fundamental_circuits,
    integer_kernel,
    mat_mul,
    monic_integer,
    poly_eval_cleared,
    reduce_mod,
    restrict_scalars,
    restricted_kernel,
)
from .padic import (
    Record,
    SchemaError,
    as_fraction,
    format_rational,
    multiplicity,
    parse_int,
    parse_list,
    parse_number,
    rational_valuation,
    require,
)
from .padic_poly import qp_irreducible, root_valuations

ADMISSIBLE = "admissible"
NOT_ADMISSIBLE = "not-admissible"
UNDECIDED = "undecided"


class AdmissibilityVerdict(Record):
    __slots__ = ("status", "hodge_number", "newton_number", "witness")

    def __init__(self, status: str, hodge_number: int, newton_number: Fraction,
                 witness: dict | None = None):
        super().__init__(status, hodge_number, newton_number, witness)

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "t_H": self.hodge_number,
            "t_N": format_rational(self.newton_number),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class FilteredPhiModule:
    """Frobenius matrix over Q plus filtration jumps over K.

    ``filtration`` is a list of (jump, basis) with strictly increasing
    integer jumps and strictly decreasing nested K-subspaces, the first
    full: the filtration equals the i-th subspace up to and including its
    jump, and drops to the next one after it (zero after the last).

    A basis entry is a rational or a sequence (list or tuple) of
    coordinates on 1, pi, pi^2, ..., reduced by E here.  Each basis is
    kept as its reduced coordinate tuples and as the forward echelon
    (``extend_echelon``) of the integer rows of its restriction of
    scalars to Q (``restrict_scalars``), which every rank and annihilator
    of the module reads.  The Frobenius matrix is kept as
    the pair (B, D) of ``clear_denominators``, B an integer matrix and
    Frobenius = B / D, which its characteristic polynomial and primary
    components read; ``frobenius`` shows it with Fraction entries.
    """

    def __init__(self, base: BaseFieldK, frobenius, filtration):
        self.base = base
        # int entries stay ints, and an int matrix is its own cleared pair
        frobenius = [[x if type(x) is int else as_fraction(x) for x in row] for row in frobenius]
        d = len(frobenius)
        if any(len(row) != d for row in frobenius):
            raise ValueError("Frobenius matrix must be square")
        if all(type(x) is int for row in frobenius for x in row):
            self._frobenius_cleared = frobenius, 1
        else:
            self._frobenius_cleared = clear_denominators(frobenius)
        if self.frobenius_char_poly[0] == 0:
            raise ValueError("Frobenius must be invertible")
        E, e = base.eisenstein, base.e

        def coords(x):
            return reduce_mod(x if isinstance(x, (list, tuple)) else (x,), E)

        jumps, vectors = [], []
        for jump, basis in filtration:
            vecs = [[coords(x) for x in v] for v in basis]
            if not vecs:
                raise ValueError("filtration subspaces must be nonzero")
            jumps.append(int(jump))
            vectors.append(vecs)
        if not jumps:
            raise ValueError("filtration needs at least one step")
        if any(a >= b for a, b in zip(jumps, jumps[1:])):
            raise ValueError("jumps must be strictly increasing")
        rows = [restrict_scalars(vecs, E) for vecs in vectors]
        # an echelon per step; a step is nested in the one before it when
        # it leaves that step's echelon at its length
        echelons = [extend_echelon([], r) for r in rows]
        dims = [len(echelon) // e for echelon in echelons]
        if dims[0] != d:
            raise ValueError("first filtration subspace must be the full space")
        if any(da <= db for da, db in zip(dims, dims[1:])):
            raise ValueError("filtration subspaces must strictly decrease")
        # the dimensions strictly decrease, so only the last can be 0
        if dims[-1] == 0:
            raise ValueError("filtration subspaces must be nonzero")
        for big, small in zip(echelons, rows[1:]):
            if len(extend_echelon(big, small)) != len(big):
                raise ValueError("filtration subspaces must be nested")
        self._jumps = jumps
        self._vectors = vectors
        self._echelons = echelons
        self._dims = dims

    @property
    def dim(self) -> int:
        return len(self._frobenius_cleared[0])

    @cached_property
    def frobenius(self) -> list:
        """The Frobenius matrix, its entries Fractions: B / D for the pair
        (B, D) of ``clear_denominators`` that the module keeps."""
        B, D = self._frobenius_cleared
        return [[Fraction(x, D) for x in row] for row in B]

    def graded_dims(self) -> list:
        """[(jump, dim gr^jump)] over the filtration jumps."""
        dims = self._dims + [0]
        return [(j, dims[i] - dims[i + 1]) for i, j in enumerate(self._jumps)]

    # -- the two numbers ------------------------------------------------------

    def hodge_number(self) -> int:
        return sum(j * g for j, g in self.graded_dims())

    def newton_number(self) -> Fraction:
        v = rational_valuation(self.frobenius_det, self.base.p)
        return Fraction(v)

    @cached_property
    def frobenius_char_poly(self) -> list:
        """det(XI - Frobenius), computed once per module."""
        return char_poly(*self._frobenius_cleared)

    @property
    def frobenius_det(self) -> Fraction:
        return self.frobenius_char_poly[0] * (-1) ** self.dim

    def hodge_tate_weights(self) -> list:
        """Sorted multiset of weights: -jump with multiplicity dim gr^jump."""
        out = []
        for j, g in self.graded_dims():
            out.extend([-j] * g)
        return sorted(out)

    # -- induced data on rational subspaces -----------------------------------

    @cached_property
    def _annihilators(self) -> list:
        """Per filtration step, a K-basis of its annihilator (the n with
        f . n = 0 for every f in the step) as ``restricted_kernel`` gives
        it from the step's echelon: integer vectors of the coordinates of
        n_1, ..., n_d on 1, pi, ..., pi^(e-1), so the scan's products stay
        in ints.  The first step is the full space, whose annihilator is
        empty and not computed."""
        return [[]] + [restricted_kernel(ech, self.dim, self.base.e) for ech in self._echelons[1:]]

    def induced_hodge_number(self, dims) -> int:
        """t_H of a subspace W with the intersection filtration over K,
        from dims[i] = dim(W ∩ F_i) for the i-th filtration step F_i."""
        dims = [*dims, 0]
        return sum(j * (dims[i] - dims[i + 1]) for i, j in enumerate(self._jumps))

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "FilteredPhiModule":
        """The module of a JSON object; a basis entry lists its coordinates
        on 1, pi, pi^2, ..., which the constructor reduces by E (for K =
        Q_p, to the rational sum c_i pi^i).  Entries are read by
        ``parse_number``, so an integer stays an int."""
        eisenstein = [
            parse_int(c, "eisenstein")
            for c in parse_list(require(obj, "eisenstein"), "eisenstein")
        ]
        base = BaseFieldK(parse_int(require(obj, "p"), "p"), eisenstein)
        frob = [
            [parse_number(x) for x in parse_list(row, "frobenius")]
            for row in parse_list(require(obj, "frobenius"), "frobenius")
        ]
        d = parse_int(obj.get("dim", len(frob)), "dim")
        if d != len(frob):
            raise SchemaError(f"declared dim {d!r}, but Frobenius has {len(frob)} rows")
        filtration = []
        for n, step in enumerate(parse_list(require(obj, "filtration"), "filtration")):
            where = f"filtration[{n}]"
            vecs = []
            for vec in parse_list(require(step, "basis", where), "basis"):
                if len(parse_list(vec, "basis")) != d:
                    raise SchemaError(
                        f"declared dim {d}, but a filtration vector has {len(vec)} entries"
                    )
                vecs.append([[parse_number(c) for c in parse_list(x, "basis")] for x in vec])
            filtration.append((parse_int(require(step, "jump", where), "jump"), vecs))
        return cls(base, frob, filtration)


# ---------------------------------------------------------------------------
# constructors used everywhere in tests and demos
# ---------------------------------------------------------------------------


def dim1_module(p, lam, r: int) -> FilteredPhiModule:
    base = BaseFieldK.qp(int(p))
    return FilteredPhiModule(base, [[Fraction(lam)]], [(r, [[1]])])


def dim2_module(p, frobenius, r: int, s: int, line=None) -> FilteredPhiModule:
    """Two jumps r < s with middle line ``line``, or a single jump r = s."""
    base = BaseFieldK.qp(int(p))
    full = [[1, 0], [0, 1]]
    if r == s:
        filtration = [(r, full)]
    else:
        if line is None:
            raise ValueError("a middle line is required when r < s")
        filtration = [(r, full), (s, [line])]
    return FilteredPhiModule(base, frobenius, filtration)


# ---------------------------------------------------------------------------
# the admissibility decision procedure
# ---------------------------------------------------------------------------


def _qp_eigenvalue_below(cp, p, threshold) -> dict | None:
    """A witness that some Q_p-rational eigenvalue of the quadratic cp has
    valuation < threshold, or None.  cp has a root in Q_p, and then both,
    exactly when its discriminant is a square there: the degree-2 case of
    ``qp_irreducible``."""
    v_small = root_valuations(cp, p)[0]
    if v_small < threshold and not qp_irreducible(cp, p):
        return {"type": "padic_eigenvalue", "valuation": format_rational(v_small)}
    return None


def _rational_line(D: FilteredPhiModule) -> list | None:
    """The middle line of a rank-2 module as a rational vector with first
    nonzero entry 1, or None when the line is not defined over Q_p.

    The line is spanned by (n_2, -n_1) for n the one K-basis vector of its
    annihilator, which is the vector rref over K gives times an integer.
    As the uniformizer powers are a Q_p-basis of K, the line descends to
    Q_p iff no coordinate of n past pi^0 is nonzero.  Only this step's
    annihilator is formed: the full step's, which ``_annihilators`` would
    add, costs more than the whole test.
    """
    e = D.base.e
    ((n, _),) = restricted_kernel(D._echelons[1], 2, e)
    if any(n[1:e]) or any(n[e + 1:]):
        return None
    line = (n[e], -n[0])
    pivot = line[0] or line[1]
    return [Fraction(x, pivot) for x in line]


def _dim2_admissible(D: FilteredPhiModule, tH, tN) -> AdmissibilityVerdict:
    """Two comparisons, given t_H = t_N = r + s for the jumps r <= s.

    A rational Frobenius-stable middle line, of eigenvalue alpha, carries
    jump s and destabilizes when v(alpha) < s.  Every other Q_p-stable
    line carries jump r and destabilizes when its eigenvalue has
    valuation < r.  A stable middle line with v(alpha) >= s needs no
    case of its own: the other eigenvalue beta is rational with v(beta) =
    r + s - v(alpha) <= r, the smaller root valuation of the split
    characteristic polynomial, so the second comparison finds the line of
    beta exactly when v(beta) < r."""
    jumps = D.graded_dims()
    r, s = jumps[0][0], jumps[-1][0]
    line_vec = _rational_line(D) if len(jumps) == 2 else None
    if line_vec is not None:
        # the (rational) filtration line v is Frobenius-stable iff
        # Phi v = alpha v, alpha read at the first nonzero entry of v
        img = [y for (y,) in mat_mul(D.frobenius, [[x] for x in line_vec])]
        k = next(i for i, x in enumerate(line_vec) if x)
        alpha = img[k] / line_vec[k]
        # also when alpha = beta: t_N = 2 v(alpha) = r + s < 2s
        if img == [alpha * x for x in line_vec] and rational_valuation(alpha, D.base.p) < s:
            witness = {"type": "subobject", "basis": [[format_rational(x) for x in line_vec]]}
            return AdmissibilityVerdict(NOT_ADMISSIBLE, tH, tN, witness)
    witness = _qp_eigenvalue_below(D.frobenius_char_poly, D.base.p, Fraction(r))
    if witness is not None:
        return AdmissibilityVerdict(NOT_ADMISSIBLE, tH, tN, witness)
    return AdmissibilityVerdict(ADMISSIBLE, tH, tN)


def _split(products) -> list:
    """The finest partition of the blocks 0..k-1 into parts, each a sorted
    list, such that at every step the rank of all the rows is the sum of
    the ranks of each part's rows.  ``products[b][s]`` are block b's rows
    at step s.

    Such a partition splits the vector matroid on each step's rows into
    separators, and the separators form a Boolean algebra whose atoms are
    the matroid's connected components, which two rows share when some
    fundamental circuit of one basis holds both (Oxley, *Matroid Theory*,
    2nd ed., ch. 4).  So one elimination per step finds them
    (``fundamental_circuits``), and a union-find joins the blocks of each
    circuit over all the steps."""
    k = len(products)
    parent = list(range(k))

    def root(b):
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        return b

    parts = k
    for s in range(len(products[0])):
        if parts == 1:
            break
        owners = [b for b in range(k) for _ in products[b][s]]
        for circuit in fundamental_circuits([row for block in products for row in block[s]]):
            roots = {root(owners[i]) for i in circuit}
            first = roots.pop()
            for b in roots:
                parent[b] = first
            parts -= len(roots)
            if parts == 1:
                break
    grouped = {}
    for b in range(k):
        grouped.setdefault(root(b), []).append(b)
    return list(grouped.values())


def _block_products(D: FilteredPhiModule, blocks) -> list:
    """products[b][s]: the restricted rows of the K-rows (w . n)_n for the
    vectors w of block b and a K-basis n of the annihilator of step s + 1
    (the full first step has none)."""
    E, e = D.base.eisenstein, D.base.e
    # the j-th coordinate of w . n is the product of w with n[j::e], the
    # j-th coordinates of n's entries
    steps = [[[n[j::e] for j in range(e)] for n, _ in ann] for ann in D._annihilators[1:]]
    return [
        [
            restrict_scalars([[[sum(map(mul, w, c)) for c in n] for n in ann] for w in block], E)
            for ann in steps
        ]
        for block in blocks
    ]


def _least_destabilizing(D: FilteredPhiModule, blocks, newton) -> list | None:
    """The blocks, ascending, of the least mask S with 0 < S < 2^k - 1
    whose subobject W_S (the span of the blocks in S) has f(S) = t_H(W_S)
    - t_N(W_S) > 0, or None.  ``newton[i]`` is t_N of block i.

    The blocks are the primary components of a squarefree Frobenius, so
    dim W_S is the sum of their sizes, and a filtration step F with
    annihilator N meets W_S in dimension dim W_S - rank_K(W_S N), the
    K-rank being the rank of the restricted rows of the K-rows (w . n)_n
    over e.  The full first step has N = 0 and is left out.  Each block's
    restricted products with each N are formed once, and the subsets are
    walked depth first from the highest block down, "exclude" before
    "include", so that the masks come in increasing order and an
    "include" edge extends the echelon of each step by the new block's
    products alone.

    First the blocks are split (``_split``) into parts whose rows are
    independent at every step.  Then every rank, so f too, is a sum over
    the parts, f(S) = sum_P f(S ∩ P), and f(∅) = f(all) = 0, so some S
    destabilizes iff sum_P max_{T ⊆ P} f(T) > 0: each part is walked on
    its own, sum_P 2^|P| subsets in place of 2^k.  The least S is then
    fixed bit by bit from the highest block down, keeping "exclude" while
    the best completion still has f > 0.  A module of one part is walked
    as a whole, and the walk stops at the first S with f(S) > 0."""
    k, e = len(blocks), D.base.e
    products = _block_products(D, blocks)

    def walk(part, leaf, whole=None):
        """Calls leaf(mask, f) on the nonempty subsets of ``part`` in
        increasing order of their masks over its positions, until one
        returns a mask; not on the mask ``whole`` of all the blocks,
        whose f is t_H - t_N = 0, nor on the empty one."""

        def visit(i, mask, dim, newton_sum, echelons):
            if i < 0:
                if mask == 0 or mask == whole:
                    return None
                dims = [dim] + [dim - len(echelon) // e for echelon in echelons]
                return leaf(mask, D.induced_hodge_number(dims) - newton_sum)
            b = part[i]
            return visit(i - 1, mask, dim, newton_sum, echelons) or visit(
                i - 1,
                mask | 1 << i,
                dim + len(blocks[b]),
                newton_sum + newton[b],
                [extend_echelon(ech, rows) for ech, rows in zip(echelons, products[b])],
            )

        return visit(len(part) - 1, 0, 0, 0, [[] for _ in products[0]])

    parts = _split(products)
    if len(parts) == 1:
        mask = walk(range(k), lambda mask, f: mask if f > 0 else None, 2**k - 1)
        return None if mask is None else [i for i in range(k) if mask >> i & 1]
    # tables[q][T] = f(T) for the subsets T of part q, by their masks
    tables = []
    for part in parts:
        table = [0] * 2 ** len(part)
        walk(part, table.__setitem__)
        tables.append(table)
    best = [max(table) for table in tables]
    total = sum(best)
    if total <= 0:
        return None
    where = {b: (q, i) for q, part in enumerate(parts) for i, b in enumerate(part)}
    fixed = [0] * len(parts)  # each part's bits fixed so far, by position
    chosen = []
    for b in reversed(range(k)):
        q, i = where[b]
        # the subsets of part q that agree with the fixed bits and leave
        # out block b are the masks fixed[q] + 0 .. 2^i - 1
        excluded = max(tables[q][fixed[q]:fixed[q] + (1 << i)])
        if total - best[q] + excluded > 0:
            total += excluded - best[q]
            best[q] = excluded
        else:
            fixed[q] |= 1 << i
            chosen.append(b)
    return chosen[::-1]


def _primary_components(D: FilteredPhiModule, lead: int, factors) -> tuple:
    """(components, the t_N of each) for the (lead, factors) of
    ``factor_over_q``.  A factor h of degree k in y = lead x stands for
    the monic factor h(lead x) / lead^k of the characteristic polynomial.
    Its primary component is the kernel of h(lead Frobenius), for a root
    y the kernel of lead B - y D I with Frobenius = B / D (no product), as
    primitive integer vectors with their free columns (``integer_kernel``);
    its t_N is v_p of that monic factor's constant term, v_p(h(0)) -
    k v_p(lead)."""
    B, den = D._frobenius_cleared
    components = [
        integer_kernel(poly_eval_cleared([c * lead**i for i, c in enumerate(h)], B, den)[0])
        for h in factors
    ]
    assert all(len(c) == len(h) - 1 for (c, _), h in zip(components, factors))
    p = D.base.p
    v_lead = multiplicity(lead, p)
    return components, [multiplicity(h[0], p) - (len(h) - 1) * v_lead for h in factors]


def is_admissible(D: FilteredPhiModule) -> AdmissibilityVerdict:
    """Decide weak admissibility; see the module docstring for coverage."""
    tH = D.hodge_number()
    tN = D.newton_number()
    if tH != tN:
        return AdmissibilityVerdict(
            NOT_ADMISSIBLE, tH, tN, {"type": "hodge_newton_mismatch"}
        )
    d = D.dim
    if d == 1:
        return AdmissibilityVerdict(ADMISSIBLE, tH, tN)
    if d == 2:
        return _dim2_admissible(D, tH, tN)
    cp = D.frobenius_char_poly
    # a small prime proves cp squarefree; the exact gcd runs once without
    # one, and the roots are found modulo the prime it leads to
    form = monic_integer(cp)
    ell = certify_squarefree(cp, form)
    if ell is None:
        return AdmissibilityVerdict(
            UNDECIDED,
            tH,
            tN,
            {"type": "repeated_eigenvalues"},
        )
    factored = factor_over_q(cp, ell, form)
    if factored is None:
        return AdmissibilityVerdict(
            UNDECIDED, tH, tN, {"type": "unfactored_characteristic_polynomial"}
        )
    lead, factors = factored
    components, newton = _primary_components(D, lead, factors)
    chosen = _least_destabilizing(D, [c for c, _ in components], newton)
    if chosen is not None:
        # the witness prints each component's basis as nullspace does
        rows = [
            [Fraction(x, v[c]) for x in v]
            for i in chosen
            for v, c in zip(*components[i])
        ]
        return AdmissibilityVerdict(
            NOT_ADMISSIBLE,
            tH,
            tN,
            {
                "type": "subobject",
                "basis": [[format_rational(x) for x in row] for row in rows],
            },
        )
    # the scan only saw Q-rational subobjects: a factor that splits over
    # Q_p has eigenlines it never examined.  A linear factor has none, and
    # only the last factor can be of degree 2 or 3
    h = factors[-1]
    k = len(h) - 1
    if k > 1:
        f = [Fraction(c, lead ** (k - i)) for i, c in enumerate(h)]
        if not qp_irreducible(f, D.base.p):
            return AdmissibilityVerdict(
                UNDECIDED,
                tH,
                tN,
                {
                    "type": "padically_reducible_factor",
                    "factor": [format_rational(c) for c in f],
                },
            )
    return AdmissibilityVerdict(ADMISSIBLE, tH, tN)


# ---------------------------------------------------------------------------
# the dimension-1 dictionary
# ---------------------------------------------------------------------------


def dim1_correspondence(p, lam, r: int) -> CharacterTriple:
    """The character attached to an admissible rank-1 module: for
    eigenvalue lambda with v_p(lambda) = r, the character is the inverse
    unramified twist by p^{-r} lambda times the (-r)-th cyclotomic power."""
    lam = Fraction(lam)
    p = int(p)
    if rational_valuation(lam, p) != r:
        raise ValueError("not admissible: v_p(eigenvalue) must equal the jump")
    alpha = lam / Fraction(p) ** r
    return CharacterTriple(p, 1 / alpha, -r, 0)

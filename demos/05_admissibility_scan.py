"""Weak admissibility of filtered Frobenius modules, decided exactly.

Rank one is a single valuation comparison; rank two has a complete closed
form; rank three runs the finite scan over Frobenius-stable subspaces when
the characteristic polynomial is squarefree.  Every verdict below is an
exact rational computation.

Run:  python demos/05_admissibility_scan.py
"""

from fractions import Fraction as F

from period_lab.filtered_phi import (
    FilteredPhiModule,
    dim1_correspondence,
    dim1_module,
    dim2_module,
    is_admissible,
)
from period_lab.linalg import BaseFieldK

p = 5

# Rank 1: admissible exactly on the diagonal v_p(eigenvalue) = jump.
print("rank-1 grid (rows: valuation of the eigenvalue; cols: jump):")
for k in range(-2, 3):
    row = []
    for r in range(-2, 3):
        v = is_admissible(dim1_module(p, F(p) ** k * 2, r))
        row.append("A" if v.status == "admissible" else ".")
    print("   ", " ".join(row))

# The admissible rank-1 modules name characters explicitly.
t = dim1_correspondence(p, 2 * p**2, 2)
print("module (eigenvalue 2 p^2, jump 2) corresponds to the triple",
      (str(t.lam), str(t.a), t.b))

# Rank 2, the normal form with the line not Frobenius-stable:
# admissible iff a is a unit and b is integral.
for a, b, label in ((F(2), F(5), "unit a, v(b) > 0"),
                    (F(2), F(1, 5), "unit a, v(b) < 0"),
                    (F(10), F(1), "v(a) = 1")):
    Phi = [[F(0), a], [F(p), b]]
    verdict = is_admissible(dim2_module(p, Phi, 0, 1, line=[1, 0]))
    print(f"normal form with {label}: {verdict.status}")

# Rank 2 with a stable line: the eigenvalue on the line must carry the
# big jump, the complementary one the small jump.
Phi = [[F(p) ** 2, F(0)], [F(0), F(p)]]
print("stable line with matching valuations:",
      is_admissible(dim2_module(p, Phi, 1, 2, line=[1, 0])).status)
print("stable line with swapped valuations: ",
      is_admissible(dim2_module(p, Phi, 1, 2, line=[0, 1])).status)

# Rank 3: the subspace scan, with a witness on failure.
base = BaseFieldK.qp(p)
full = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
frob = [[F(p), F(0), F(0)], [F(0), F(p) ** 2, F(0)], [F(0), F(0), F(p) ** 3]]
aligned = FilteredPhiModule(
    base,
    frob,
    [(1, full), (2, [[0, 1, 0], [0, 0, 1]]), (3, [[0, 0, 1]])],
)
print("rank-3 aligned filtration:", is_admissible(aligned).status)
misaligned = FilteredPhiModule(
    base,
    frob,
    [(1, full), (2, [[1, 0, 0], [0, 1, 0]]), (3, [[1, 0, 0]])],
)
verdict = is_admissible(misaligned)
print("rank-3 misaligned filtration:", verdict.status,
      "- witness subobject basis", verdict.witness["basis"])

"""The character classification lattice and Sen operators.

Characters of the absolute Galois group of Q_p (p > 2) are triples
(unramified part, cyclotomic exponent, tame exponent); the script prints
their admissibility flags, then computes Sen operators of matrix actions
and reads off generalized weights.

Run:  python demos/06_characters_and_sen.py
"""

from fractions import Fraction as F
from math import factorial

from period_lab.characters import (
    CharacterTriple,
    SenInput,
    classify,
    hodge_tate_via_sen,
    is_trivial_via_sen,
    sen_operator,
)

p = 5

print("character classification (lambda, a, b) -> flags:")
for lam, a, b, name in (
    (1, 1, 0, "cyclotomic"),
    (1, 0, 1, "tame twist"),
    (2, 0, 0, "unramified"),
    (1, F(1, 2), 0, "half-exponent"),
    (F(2, 3), -2, 3, "mixed"),
):
    flags = classify(CharacterTriple(p, lam, a, b))
    marks = [
        label
        for label, on in (
            ("unramified", flags.unramified),
            ("Cp", flags.cp_admissible),
            ("HT", flags.hodge_tate),
            ("dR", flags.de_rham),
            ("crys", flags.crystalline),
        )
        if on
    ]
    print(f"  {name:14s} ({lam}, {a}, {b}): {' '.join(marks) or '-'}")

# The unipotent action: its operator is nilpotent, hence no weight
# decomposition, hence not Hodge-Tate.
op = sen_operator(SenInput(3, 1, [[1, 3], [0, 1]]))
print("\nunipotent action: operator =", [list(r) for r in op.matrix])
print("  trivial:", is_trivial_via_sen(op), "| verdict:", hodge_tate_via_sen(op).status)

# An action built as the exponential of a diagonal: the operator recovers
# the diagonal, and the weights are its entries.  exp(x) for v_p(x) = 1 is
# its series to 40 terms, well past the precision 25.
def exp(x):
    return sum(F(x) ** i / factorial(i) for i in range(40))


A = [[exp(p), 0], [0, exp(2 * p)]]
op2 = sen_operator(SenInput(p, 1, A), 25)
verdict = hodge_tate_via_sen(op2)
print("\nexponential of diag(p, 2p), level 1:")
print("  verdict:", verdict.status, "| weights:", verdict.integer_weights)

# The identity acts trivially.
op3 = sen_operator(SenInput(p, 2, [[1, 0], [0, 1]]))
print("\nidentity action: trivial =", is_trivial_via_sen(op3),
      "| weights:", hodge_tate_via_sen(op3).integer_weights)

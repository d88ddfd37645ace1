"""Herbrand functions of ramification data, step by step.

A totally ramified Galois step is summarized by the orders of its higher
ramification groups.  This script builds a few, plots their reindexing
functions as breakpoint data, and exhibits the tower constants that
control trace decay in a Z_p-tower.

Run:  python demos/01_ramification_walkthrough.py
"""

from fractions import Fraction as F

from period_lab.ramification import (
    RamificationData,
    ZpExtensionProfile,
    different_valuation,
    herbrand_phi,
    herbrand_psi,
    hilbert90_constant,
    psi_r,
    trace_decay_bound,
    trace_decay_constant,
)

# A tame step: the group has order e = p - 1 and no wild part.
p = 5
tame = RamificationData(p - 1, [p - 1])
phi = herbrand_phi(tame)
print("tame step, orders =", tame.orders)
print("  phi breakpoints:", phi.breakpoints, "final slope", phi.final_slope)
print("  different valuation:", different_valuation(tame), "= (p-2)/(p-1)")

# A wild step: two ramification jumps of order p.
wild = RamificationData(p, [p, p])
print("wild step, orders =", wild.orders)
print("  different valuation:", different_valuation(wild), "= (2p-2)/p")

# phi and psi are exact piecewise-linear inverses of each other.
psi = herbrand_psi(phi)
for u in (F(1, 2), 1, F(7, 3), 12):
    assert psi(phi(u)) == u
print("psi o phi fixes", [str(F(u)) for u in (F(1, 2), 1, F(7, 3), 12)])

# Towers compose: a cyclic p^2-step splits into two p-steps, and the
# Herbrand function of the whole is the composite of the pieces.
g_data = RamificationData(p * p, [p * p, p * p, p, p])
h_data = RamificationData(p, [p, p, p, p])
q_data = RamificationData(p, [p, p])
assert herbrand_phi(q_data).compose(herbrand_phi(h_data)) == herbrand_phi(g_data)
print("tower composition law verified on the cyclic p^2 example")

# The normalized jump function psi_r of a ramified Z_p-tower: slope p^j on
# [j, j+1), then p^r forever.
print("psi_2 at 1/2, 3/2, 3 (p = 3):", [str(psi_r(2, u, 3)) for u in (F(1, 2), F(3, 2), 3)])

# Exact tower differents and the exhibited trace-decay constant.
prof = ZpExtensionProfile(e_F=1, a=0, b=0)
print("v_p(D) along the tower (p = 3):")
for s in range(1, 5):
    print(f"  level 0 -> {s}:", trace_decay_bound(prof, 3, 0, s))
c1 = trace_decay_constant(prof, 3, window=12)
print("exhibited c_1 =", c1, "and the Hilbert-90 constant c_2 =", hilbert90_constant(c1))

"""Herbrand-function helpers that only the tests use: the identity test
on a piecewise-linear function, psi_r as one, and the Hasse-Arf flag on
a tower profile."""

from __future__ import annotations

from fractions import Fraction

from period_lab.ramification import PLFunction, ZpExtensionProfile, psi_r


def is_identity(f: PLFunction) -> bool:
    return not f.breakpoints and f.final_slope == 1


def psi_r_function(r: int, p) -> PLFunction:
    """psi_r as a PLFunction (breaks at 1..r, slopes 1, p, ..., p^r)."""
    p = int(p)
    pts = [(Fraction(j), psi_r(r, j, p)) for j in range(1, r + 1)]
    return PLFunction(pts, Fraction(p**r))


def a_is_integral(profile: ZpExtensionProfile) -> bool:
    return profile.a.denominator == 1

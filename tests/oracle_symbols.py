"""Oracles read symbol by symbol: a rational modulo p^s, the exact value
of a congruence's right-hand side term at p, and a quadratic-form guard at
one prime.  The program reads the same quantities from integer residues
and character bitsets (``congruence.rhs_residue``, ``congruence._residue``,
``quadform.Guard.mask``); the tests compare the two."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from piseries import congruence as cg


def fraction_mod(x: Fraction, p: int, s: int) -> Optional[int]:
    """Residue of a rational modulo p^s, or None if p divides the
    denominator."""
    ps = p ** s
    if x.denominator % p == 0:
        return None
    return x.numerator * pow(x.denominator, -1, ps) % ps


def rhs_value(term: cg.RHSTerm, p: int) -> Fraction:
    """The exact value of one right-hand side term at p."""
    v = term.coef * p ** term.ppow
    for d in term.sym:
        v *= cg.legendre(d, p)
    for d in term.sym_p:
        v *= cg.jacobi(p, d)
    if term.euler:
        v *= cg.euler_number(p - 3)
    if term.fermat:
        v *= (term.fermat ** (p - 1) - 1) // p
    return v


def guard_holds(guard, p: int) -> bool:
    """Whether every symbol value and residue class of the guard holds."""
    return all(cg.legendre(d, p) == v for d, v in guard.syms) \
        and all(cg.jacobi(p, d) == v for d, v in guard.syms_p) \
        and all(p % n in residues for n, residues in guard.mods)

"""Oracles read symbol by symbol: a rational modulo p^s, the exact value
of a congruence's right-hand side term at p, a quadratic-form guard at
one prime, and whether a claim is tested at p.  The program reads the same
quantities from integer residues and character bitsets
(``congruence.rhs_residue``, ``congruence._residue``,
``quadform.Guard.mask``) and from one rule for the tested primes
(``congruence.tested_primes``); the tests compare the two."""

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
    if term.euler:
        v *= cg.euler_number(p - 3)
    if term.fermat:
        v *= (term.fermat ** (p - 1) - 1) // p
    return v


def guard_holds(guard, p: int) -> bool:
    """Whether every symbol value and residue class of the guard holds."""
    return all(cg.legendre(d, p) == v for d, v in guard.syms) \
        and all(p % n in residues for n, residues in guard.mods)


def claim_admissible(claim: cg.CongruenceClaim, p: int) -> bool:
    """Whether a congruence claim is tested at the prime p: the rule that
    ``CongruenceClaim.admissible`` applied prime by prime."""
    if p < claim.min_p or p in claim.exclude:
        return False
    if claim.spec.m.numerator % p == 0 or claim.spec.m.denominator % p == 0:
        return False
    for t in claim.rhs:
        if t.coef.denominator % p == 0:
            return False
        for d in t.sym:
            if d % p == 0:
                return False
        if t.fermat and t.fermat % p == 0:
            return False
    return all(cg.legendre(d, p) == v for d, v in claim.require)

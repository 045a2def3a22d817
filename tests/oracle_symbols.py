"""Oracles read symbol by symbol: the primes up to n by trial division, a
Legendre symbol by Euler's criterion, a Jacobi symbol by reciprocity with
the Euclidean algorithm, a rational modulo p^s, the exact value of a
congruence's right-hand side term at p, a quadratic-form guard at one
prime, and whether a claim is tested at p.  The program reads the same
quantities from a sieve (``congruence.sieve``), ``congruence.symbol`` at
one prime, integer residues (``congruence.rhs_residue``,
``congruence._residue``) and, for the case-table guards alone, masks
over the residue classes mod L (``quadform.QuadFormTable.residue_masks``)
and from one rule for the tested primes (``congruence.tested_primes``);
the tests compare the two.  ``jacobi`` shares no step with the program's
Euler's criterion."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import List, Optional

from piseries import congruence as cg


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division."""
    if n < 4:
        return n >= 2
    return n % 2 != 0 and all(n % i for i in range(3, isqrt(n) + 1, 2))


def primes_upto(n: int) -> List[int]:
    """All primes <= n, by trial division."""
    return [k for k in range(n + 1) if is_prime(k)]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, by Euler's criterion;
    ValueError otherwise."""
    if p <= 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0, by quadratic reciprocity with the
    Euclidean algorithm; ValueError otherwise."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"n = {n} must be positive and odd")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


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
        v *= legendre(d, p)
    if term.euler:
        v *= cg.euler_number(p - 3)
    if term.fermat:
        v *= (term.fermat ** (p - 1) - 1) // p
    return v


def guard_holds(guard, p: int) -> bool:
    """Whether every symbol value and residue class of the guard holds."""
    return all(legendre(d, p) == v for d, v in guard.syms) \
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
    return all(legendre(d, p) == v for d, v in claim.require)

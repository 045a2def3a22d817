"""Exact oracles of the finite checks: s_{n,k} from its defining sum of
binomials, and one summand and one closed-form value of a telescoping
family.  The program reads s_{n,k} off integer rows
(``seqkit.snk_scaled``) and compares a family's partial sums with its
closed form in one pass (``exactid.check_family``); the tests compare the
two."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional

from piseries import exactid as ei
from piseries.sereval import term_value


def snk(n: int, k: int) -> Fraction:
    """s_{n,k} = (1/C(n,k)) * sum_i C(n,2i) C(n,2(k-i)) C(2i,i) C(2(k-i),k-i)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    total = 0
    for i in range(k + 1):
        total += (comb(n, 2 * i) * comb(n, 2 * (k - i))
                  * comb(2 * i, i) * comb(2 * (k - i), k - i))
    return Fraction(total, comb(n, k))


def family_term(family: str, k: int, m: Optional[int] = None) -> Fraction:
    """The family's summand at k, from its term spec."""
    ident, _ = ei._identity(family, m)
    if k < ident.summand.k0:
        raise ValueError(f"{family} starts at k={ident.summand.k0}")
    return term_value(ident.summand, k)


def family_rhs(family: str, n: int, m: Optional[int] = None) -> Fraction:
    """The family's closed form at n: scale * c(n) + const."""
    ident, _ = ei._identity(family, m)
    if n < ident.summand.k0:
        raise ValueError(f"{family} closed form starts at n={ident.summand.k0}")
    return ident.scale * term_value(ident.closed, n) + ident.const

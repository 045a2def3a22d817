"""Exact big-rational verification of the finite telescoping identities.

Each family pairs a summand with a closed-form partial sum.  Everything is
checked in ``fractions.Fraction`` arithmetic -- equality is literal, no
tolerances.  The one exception is the a/b series transformation, which
relates two infinite series and therefore goes through certified ball
evaluation (see :mod:`piseries.sereval`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Optional, Tuple

from . import seqkit

__all__ = [
    "FAMILIES",
    "CheckReport",
    "family_term",
    "family_rhs",
    "check_family",
    "check_franel_transform",
    "check_sn_expansion",
    "check_skl_bound",
]


@dataclass
class CheckReport:
    family: str
    params: Tuple
    checked: int
    first_failure: Optional[int] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.first_failure is None


# --------------------------------------------------------------------------
# Telescoping families: summand(k, m) and closed partial sum rhs(n, m)
# --------------------------------------------------------------------------

def _c2(k: int) -> int:
    return comb(2 * k, k)


def _c3(k: int) -> int:
    return comb(3 * k, k)


def _c4(k: int) -> int:
    return comb(4 * k, 2 * k)


def _c63(k: int) -> int:
    return comb(6 * k, 3 * k)


# Each entry: (k_start as function of nothing, summand, rhs).
# Downward families sum k = k_start..n; rhs is the exact partial sum.

def _t_a1(k, m):
    return Fraction(((64 - m) * k**3 - 32 * k**2 - 16 * k + 8) * _c2(k)**3,
                    (2 * k - 1)**2 * m**k)


def _r_a1(n, m):
    return Fraction(8 * (2 * n + 1) * _c2(n)**3, m**n)


def _t_a2(k, m):
    return Fraction(((64 - m) * k**3 - 96 * k**2 + 48 * k - 8) * _c2(k)**3,
                    (2 * k - 1)**3 * m**k)


def _r_a2(n, m):
    return Fraction(8 * _c2(n)**3, m**n)


def _t_a3(k, m):
    return Fraction(((108 - m) * k**3 - 54 * k**2 - 12 * k + 6)
                    * _c2(k)**2 * _c3(k),
                    (2 * k - 1) * (3 * k - 1) * m**k)


def _r_a3(n, m):
    return Fraction(6 * (3 * n + 1) * _c2(n)**2 * _c3(n), m**n)


def _t_a4(k, m):
    return Fraction(((108 - m) * k**3 - (54 + m) * k**2 - 12 * k + 6)
                    * _c2(k)**2 * _c3(k),
                    (k + 1) * (2 * k - 1) * (3 * k - 1) * m**k)


def _r_a4(n, m):
    return Fraction(6 * (3 * n + 1) * _c2(n)**2 * _c3(n), (n + 1) * m**n)


def _t_a5(k, m):
    return Fraction(((256 - m) * k**3 - 128 * k**2 - 16 * k + 8)
                    * _c2(k)**2 * _c4(k),
                    (2 * k - 1) * (4 * k - 1) * m**k)


def _r_a5(n, m):
    return Fraction(8 * (4 * n + 1) * _c2(n)**2 * _c4(n), m**n)


def _t_a6(k, m):
    return Fraction(((256 - m) * k**3 - (128 + m) * k**2 - 16 * k + 8)
                    * _c2(k)**2 * _c4(k),
                    (k + 1) * (2 * k - 1) * (4 * k - 1) * m**k)


def _r_a6(n, m):
    return Fraction(8 * (4 * n + 1) * _c2(n)**2 * _c4(n), (n + 1) * m**n)


def _t_a7(k, m):
    return Fraction(((1728 - m) * k**3 - 864 * k**2 - 48 * k + 24)
                    * _c2(k) * _c3(k) * _c63(k),
                    (2 * k - 1) * (6 * k - 1) * m**k)


def _r_a7(n, m):
    return Fraction(24 * (6 * n + 1) * _c2(n) * _c3(n) * _c63(n), m**n)


def _t_a8(k, m):
    return Fraction(((1728 - m) * k**3 - (864 + m) * k**2 - 48 * k + 24)
                    * _c2(k) * _c3(k) * _c63(k),
                    (k + 1) * (2 * k - 1) * (6 * k - 1) * m**k)


def _r_a8(n, m):
    return Fraction(24 * (6 * n + 1) * _c2(n) * _c3(n) * _c63(n),
                    (n + 1) * m**n)


# Upward families (reciprocal central binomials); sums start at 1 or 2.

def _t_b1(k, m):
    return Fraction(m**k * ((m - 64) * k**3 - 32 * k**2 + 16 * k + 8),
                    (2 * k + 1)**2 * k**3 * _c2(k)**3)


def _r_b1(n, m):
    return Fraction(m**(n + 1), (2 * n + 1)**2 * _c2(n)**3) - m


def _t_b2(k, m):
    return Fraction(m**k * ((m - 64) * k**3 - 96 * k**2 - 48 * k - 8),
                    (2 * k + 1)**3 * k**3 * _c2(k)**3)


def _r_b2(n, m):
    return Fraction(m**(n + 1), (2 * n + 1)**3 * _c2(n)**3) - m


def _t_b3(k, m):
    return Fraction(m**k * ((m - 108) * k**3 - 54 * k**2 + 12 * k + 6),
                    (2 * k + 1) * (3 * k + 1) * k**3 * _c2(k)**2 * _c3(k))


def _r_b3(n, m):
    return Fraction(m**(n + 1),
                    (2 * n + 1) * (3 * n + 1) * _c2(n)**2 * _c3(n)) - m


def _t_b4(k, m):
    return Fraction(m**k * ((m - 108) * k**3 - (54 + m) * k**2 + 12 * k + 6),
                    (k - 1) * (2 * k + 1) * (3 * k + 1) * k**3
                    * _c2(k)**2 * _c3(k))


def _r_b4(n, m):
    return (Fraction(m**(n + 1),
                     n * (2 * n + 1) * (3 * n + 1) * _c2(n)**2 * _c3(n))
            - Fraction(m**2, 144))


def _t_b5(k, m):
    return Fraction(m**k * ((m - 256) * k**3 - 128 * k**2 + 16 * k + 8),
                    (2 * k + 1) * (4 * k + 1) * k**3 * _c2(k)**2 * _c4(k))


def _r_b5(n, m):
    return Fraction(m**(n + 1),
                    (2 * n + 1) * (4 * n + 1) * _c2(n)**2 * _c4(n)) - m


def _t_b6(k, m):
    return Fraction(m**k * ((m - 256) * k**3 - (128 + m) * k**2 + 16 * k + 8),
                    (k - 1) * (2 * k + 1) * (4 * k + 1) * k**3
                    * _c2(k)**2 * _c4(k))


def _r_b6(n, m):
    return (Fraction(m**(n + 1),
                     n * (2 * n + 1) * (4 * n + 1) * _c2(n)**2 * _c4(n))
            - Fraction(m**2, 360))


def _t_glaisher(k, m):
    return Fraction((4 * k - 1) * _c2(k)**4, (2 * k - 1)**4 * 256**k)


def _r_glaisher(n, m):
    return Fraction(-(8 * n**2 + 4 * n + 1) * _c2(n)**4, 256**n)


# family id -> (k_start, n_start, parameterized?, summand, rhs)
FAMILIES: Dict[str, Tuple[int, int, bool, Callable, Callable]] = {
    "L21_1": (0, 0, True, _t_a1, _r_a1),
    "L21_2": (0, 0, True, _t_a2, _r_a2),
    "L21_3": (0, 0, True, _t_a3, _r_a3),
    "L21_4": (0, 0, True, _t_a4, _r_a4),
    "L21_5": (0, 0, True, _t_a5, _r_a5),
    "L21_6": (0, 0, True, _t_a6, _r_a6),
    "L21_7": (0, 0, True, _t_a7, _r_a7),
    "L21_8": (0, 0, True, _t_a8, _r_a8),
    "L22_1": (1, 1, True, _t_b1, _r_b1),
    "L22_2": (1, 1, True, _t_b2, _r_b2),
    "L22_3": (1, 1, True, _t_b3, _r_b3),
    "L22_4": (2, 2, True, _t_b4, _r_b4),
    "L22_5": (1, 1, True, _t_b5, _r_b5),
    "L22_6": (2, 2, True, _t_b6, _r_b6),
    "GLAISHER": (0, 0, False, _t_glaisher, _r_glaisher),
}


def family_term(family: str, k: int, m: Optional[int] = None) -> Fraction:
    k0, _, has_m, term, _ = FAMILIES[family]
    if k < k0:
        raise ValueError(f"{family} starts at k={k0}")
    return term(k, m if has_m else 0)


def family_rhs(family: str, n: int, m: Optional[int] = None) -> Fraction:
    _, n0, has_m, _, rhs = FAMILIES[family]
    if n < n0:
        raise ValueError(f"{family} closed form starts at n={n0}")
    return rhs(n, m if has_m else 0)


def check_family(family: str, m: Optional[int], n_max: int,
                 telescope: bool = True) -> CheckReport:
    """Compare exact partial sums against the closed form for all n <= n_max.

    With ``telescope`` the induction step is also checked: consecutive
    closed-form values must differ by exactly the new summand.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family}")
    k0, n0, has_m, term, rhs = FAMILIES[family]
    if has_m:
        if m is None or m == 0:
            raise ValueError(f"{family} needs a nonzero m")
    else:
        m = 0
    partial = Fraction(0)
    checked = 0
    prev_rhs: Optional[Fraction] = None
    for n in range(n0, n_max + 1):
        while checked + k0 <= n:
            partial += term(checked + k0, m)
            checked += 1
        closed = rhs(n, m)
        if partial != closed:
            return CheckReport(family, (m,), n - n0, first_failure=n,
                               detail=f"partial={partial} closed={closed}")
        if telescope and prev_rhs is not None:
            if closed - prev_rhs != term(n, m):
                return CheckReport(family, (m,), n - n0, first_failure=n,
                                   detail="telescoping step mismatch")
        prev_rhs = closed
    return CheckReport(family, (m,), n_max - n0 + 1)


def check_sun_finite_step(n_max: int) -> CheckReport:
    """Induction-step form of the finite identity behind Glaisher's series:
    the closed form's forward difference equals the summand, exactly."""
    for n in range(1, n_max + 1):
        if _r_glaisher(n, 0) - _r_glaisher(n - 1, 0) != _t_glaisher(n, 0):
            return CheckReport("SUN_FINITE", (), n, first_failure=n)
    return CheckReport("SUN_FINITE", (), n_max)


# --------------------------------------------------------------------------
# Franel-number transforms
# --------------------------------------------------------------------------

def check_franel_transform(n_max: int) -> CheckReport:
    """Check, exactly for n <= n_max:

    (sf)  sum_k C(n,k)(-1)^k 4^(n-k) s_{n+k,k} = f_n
    (tf)  (2n+1) t_{n+1} + 8 n t_n = (2n+1) f_{n+1} - 4 (n+1) f_n
    plus the second-order recurrence satisfied by f_n itself.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    f = seqkit.memo_table(seqkit.FRANEL, n_max + 1)
    t = [seqkit.tsmall_direct(n) for n in range(n_max + 2)]
    for n in range(n_max + 1):
        sf = sum(comb(n, k) * (-1) ** k * 4 ** (n - k) * seqkit.snk(n + k, k)
                 for k in range(n + 1))
        if sf != f[n]:
            return CheckReport("FRANEL_SF", (), n, first_failure=n)
    for n in range(n_max):
        lhs = (2 * n + 1) * t[n + 1] + 8 * n * t[n]
        rhs = (2 * n + 1) * f[n + 1] - 4 * (n + 1) * f[n]
        if lhs != rhs:
            return CheckReport("FRANEL_TF", (), n, first_failure=n)
    for n in range(n_max - 1):
        if 8 * (n + 1) ** 2 * f[n] + (7 * n * n + 21 * n + 16) * f[n + 1] \
                != (n + 2) ** 2 * f[n + 2]:
            return CheckReport("FRANEL_REC", (), n, first_failure=n)
    return CheckReport("FRANEL_SF_TF", (), n_max + 1)


# --------------------------------------------------------------------------
# S_n(4, c) expansion and the 4^n scaling law
# --------------------------------------------------------------------------

def _sn_bc(b: int, c: int, n: int) -> int:
    tb = seqkit.rows(seqkit.GCT(b, c), n)
    return sum(comb(n, k) ** 2 * tb[k] * tb[n - k] for k in range(n + 1))


def check_sn_expansion(c_lo: int, c_hi: int, n_max: int) -> CheckReport:
    """S_n(4,c) = sum_{k<=n/2} C(n-k,k) C(2(n-k),n-k) c^k 4^(n-2k) s_{n,k},
    and 4^n S_n(1,m) = S_n(4,16m), all exact."""
    if c_lo > c_hi:
        raise ValueError("empty c range")
    snk_cache: Dict[Tuple[int, int], Fraction] = {}

    def s(n: int, k: int) -> Fraction:
        if (n, k) not in snk_cache:
            snk_cache[(n, k)] = seqkit.snk(n, k)
        return snk_cache[(n, k)]

    for c in range(c_lo, c_hi + 1):
        for n in range(n_max + 1):
            lhs = _sn_bc(4, c, n)
            rhs = sum(comb(n - k, k) * comb(2 * (n - k), n - k)
                      * Fraction(c) ** k * 4 ** (n - 2 * k) * s(n, k)
                      for k in range(n // 2 + 1))
            if lhs != rhs:
                return CheckReport("SN4C", (c,), n, first_failure=n,
                                   detail=f"c={c}")
    for m in range(c_lo, c_hi + 1):
        for n in range(min(n_max, 20) + 1):
            if 4 ** n * _sn_bc(1, m, n) != _sn_bc(4, 16 * m, n):
                return CheckReport("SN4C_SCALE", (m,), n, first_failure=n,
                                   detail=f"m={m}")
    return CheckReport("SN4C", (c_lo, c_hi), (c_hi - c_lo + 1) * (n_max + 1))


def check_skl_bound(k_max: int, l_max: int) -> CheckReport:
    """s_{k+l,k} <= (2k+1) 4^k l C(k+l,l) as an exact rational comparison."""
    if k_max < 1 or l_max < 1:
        raise ValueError("k_max and l_max must be >= 1")
    for k in range(k_max + 1):
        for l in range(1, l_max + 1):
            if seqkit.snk(k + l, k) > (2 * k + 1) * 4 ** k * l * comb(k + l, l):
                return CheckReport("SKL_BOUND", (k, l), 0, first_failure=k,
                                   detail=f"k={k} l={l}")
    return CheckReport("SKL_BOUND", (k_max, l_max), (k_max + 1) * l_max)

"""Exact verification of the paper's finite identities.

:data:`FAMILIES` is the one table of them: each entry states the parameters
its family takes (none, one non-zero integer m, or two integers) and its
check.  The registry reader reads a family line's parameters by it, and
the batch runner runs its check; ``verify exact --family`` builds a family
line and goes through both.  The fifteen telescoping families (Lemmas 2.1
and 2.2, and Glaisher's) are term specs on the shared engine: a summand
and a closed form c, both :class:`~piseries.sereval.TermSpec`, with

    sum_{k0 <= k <= n} summand(k) = scale * c(n) + const    for n >= k0.

:func:`check_family` walks one ``congruence._prefix_sums`` pass over the
summand beside ``sereval._term_pairs`` over c and compares cross-multiplied
integers: equality is literal.  The Franel transform, the S_n(4, c)
expansion and the s_{k+l,k} bound compare integers, s_{n,k} among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import comb
from operator import mul
from typing import Callable, Dict, List, Optional, Tuple

from . import seqkit
from .congruence import _prefix_sums
from .seqkit import CB2, CB3, CB4, CB63
from .sereval import TermSpec, _term_pairs

__all__ = [
    "FAMILIES", "NO_PARAMS", "ONE_M", "TWO_INTS", "Family", "Telescoping",
    "CheckReport", "check_family",
    "check_sun_finite_step", "check_franel_transform", "check_sn_expansion",
    "check_skl_bound", "snk_scaled", "snk_row", "tsmall_direct",
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
# The family table
# --------------------------------------------------------------------------

#: The parameters a family takes, named by the registry key that gives them.
NO_PARAMS, ONE_M, TWO_INTS = "", "m", "args"


@dataclass(frozen=True)
class Telescoping:
    """sum_{k0 <= k <= n} summand(k) = scale * closed(n) + const for all
    n >= k0, where k0 is the summand's."""

    summand: TermSpec
    closed: TermSpec
    scale: Fraction = Fraction(1)
    const: Fraction = Fraction(0)


@dataclass(frozen=True)
class Family:
    """One finite identity.  ``params`` is NO_PARAMS, ONE_M (one non-zero
    integer m) or TWO_INTS; ``check(args, n_max)`` runs its check, and a
    telescoping family has ``telescoping(m)``, its summand and closed form
    at m (ignored by a family without parameters)."""

    params: str
    check: Callable[[tuple, int], CheckReport]
    telescoping: Optional[Callable[[int], Telescoping]] = None


def _down(m, weight, den, seq, closed, closed_den=()) -> Telescoping:
    """Lemma 2.1 at base m: sum_{0 <= k <= n} weight(k) seq(k) / (den(k)
    m^k) = closed(n) seq(n) / (closed_den(n) m^n)."""
    return Telescoping(TermSpec(weight, den, seq, Fraction(m)),
                       TermSpec(closed, closed_den, seq, Fraction(m)))


def _up(m, weight, den, binom, k0=1, const=None) -> Telescoping:
    """Lemma 2.2 at base 1/m, with e = 1 if k0 = 2 else 0: sum_{k0<=k<=n}
    m^k weight(k) / ((k-1)^e den(k) k^3 binom(k)) = m^(n+1) / (n^e den(n)
    binom(n)) + const, where const is -m unless given."""
    extra, closed_extra = ((("k-1", 1),), (("k", 1),)) if k0 == 2 else ((), ())
    return Telescoping(
        TermSpec(weight, extra + den + (("k", 3),) + binom, (),
                 Fraction(1, m), k0),
        TermSpec((1,), closed_extra + den + binom, (), Fraction(1, m), k0 - 1),
        scale=Fraction(m), const=Fraction(-m) if const is None else const)


# factors that several families share: affine and binomial denominators
# (_K*, _KP, _U*, _D*) and sequences (_B*)
_K3 = (("2k-1", 1), ("3k-1", 1))
_K4 = (("2k-1", 1), ("4k-1", 1))
_K6 = (("2k-1", 1), ("6k-1", 1))
_KP = (("k+1", 1),)
_B3, _B4 = ((CB2, 2), (CB3, 1)), ((CB2, 2), (CB4, 1))
_B6 = ((CB2, 1), (CB3, 1), (CB63, 1))
_U3, _U4 = (("2k+1", 1), ("3k+1", 1)), (("2k+1", 1), ("4k+1", 1))
_D3, _D4 = (("CB2", 2), ("CB3", 1)), (("CB2", 2), ("CB4", 1))

#: the families of Lemmas 2.1 and 2.2, each at one non-zero integer m
_TELESCOPING_M: Dict[str, Callable[[int], Telescoping]] = {
    "L21_1": lambda m: _down(m, (8, -16, -32, 64 - m), (("2k-1", 2),),
                             ((CB2, 3),), (8, 16)),
    "L21_2": lambda m: _down(m, (-8, 48, -96, 64 - m), (("2k-1", 3),),
                             ((CB2, 3),), (8,)),
    "L21_3": lambda m: _down(m, (6, -12, -54, 108 - m), _K3, _B3, (6, 18)),
    "L21_4": lambda m: _down(m, (6, -12, -54 - m, 108 - m), _KP + _K3, _B3,
                             (6, 18), _KP),
    "L21_5": lambda m: _down(m, (8, -16, -128, 256 - m), _K4, _B4, (8, 32)),
    "L21_6": lambda m: _down(m, (8, -16, -128 - m, 256 - m), _KP + _K4, _B4,
                             (8, 32), _KP),
    "L21_7": lambda m: _down(m, (24, -48, -864, 1728 - m), _K6, _B6,
                             (24, 144)),
    "L21_8": lambda m: _down(m, (24, -48, -864 - m, 1728 - m), _KP + _K6,
                             _B6, (24, 144), _KP),
    "L22_1": lambda m: _up(m, (8, 16, -32, m - 64), (("2k+1", 2),),
                           (("CB2", 3),)),
    "L22_2": lambda m: _up(m, (-8, -48, -96, m - 64), (("2k+1", 3),),
                           (("CB2", 3),)),
    "L22_3": lambda m: _up(m, (6, 12, -54, m - 108), _U3, _D3),
    "L22_4": lambda m: _up(m, (6, 12, -54 - m, m - 108), _U3, _D3, k0=2,
                           const=Fraction(-m * m, 144)),
    "L22_5": lambda m: _up(m, (8, 16, -128, m - 256), _U4, _D4),
    "L22_6": lambda m: _up(m, (8, 16, -128 - m, m - 256), _U4, _D4, k0=2,
                           const=Fraction(-m * m, 360)),
}


def _glaisher(m=None) -> Telescoping:
    """sum_{0 <= k <= n} (4k-1) C(2k,k)^4 / ((2k-1)^4 256^k)
    = -(8n^2+4n+1) C(2n,n)^4 / 256^n."""
    return Telescoping(TermSpec((-1, 4), (("2k-1", 4),), ((CB2, 4),),
                                Fraction(256)),
                       TermSpec((-1, -4, -8), (), ((CB2, 4),), Fraction(256)))


# Each check is looked up in this module when it runs, not when the table
# is built, so that a wrapper put on the module attribute sees every call.
FAMILIES: Dict[str, Family] = {
    **{name: Family(ONE_M, lambda args, n, name=name:
                    check_family(name, args[0], n), identity)
       for name, identity in _TELESCOPING_M.items()},
    "GLAISHER": Family(NO_PARAMS,
                       lambda args, n: check_family("GLAISHER", None, n),
                       _glaisher),
    "SUN_FINITE": Family(NO_PARAMS,
                         lambda args, n: check_sun_finite_step(n)),
    "FRANEL_TRANSFORM": Family(
        NO_PARAMS, lambda args, n: check_franel_transform(min(n, 150))),
    "SN_EXPANSION": Family(
        TWO_INTS, lambda args, n: check_sn_expansion(*args, min(n, 60))),
    "SKL_BOUND": Family(NO_PARAMS, lambda args, n: check_skl_bound(40, 40)),
}


# --------------------------------------------------------------------------
# Telescoping families
# --------------------------------------------------------------------------

def _identity(family: str, m: Optional[int]) -> Tuple[Telescoping, int]:
    """The family's summand and closed form at m, and the m used (0 for a
    family without parameters)."""
    entry = FAMILIES.get(family)
    if entry is None or entry.telescoping is None:
        raise ValueError(f"unknown family {family}")
    if entry.params != ONE_M:
        m = 0
    elif not m:
        raise ValueError(f"{family} needs a nonzero m")
    return entry.telescoping(m), m


def check_family(family: str, m: Optional[int], n_max: int) -> CheckReport:
    """Compare the exact partial sums against the closed form for all
    k0 <= n <= n_max."""
    ident, m = _identity(family, m)
    k0 = ident.summand.k0
    (sn, sd), (cn, cd) = (ident.scale.as_integer_ratio(),
                          ident.const.as_integer_ratio())
    sums = _prefix_sums(ident.summand, range(k0 + 1, n_max + 2))
    closed = _term_pairs(ident.closed, k0, n_max)
    for n, (_, P, Q), (num, den) in zip(count(k0), sums, closed):
        # P/Q = (sn/sd)(num/den) + cn/cd, every denominator positive
        if P * sd * den * cd != Q * (sn * num * cd + cn * sd * den):
            closed_n = ident.scale * Fraction(num, den) + ident.const
            return CheckReport(family, (m,), n - k0, first_failure=n,
                               detail=f"partial={Fraction(P, Q)}"
                                      f" closed={closed_n}")
    return CheckReport(family, (m,), n_max - k0 + 1)


def check_sun_finite_step(n_max: int) -> CheckReport:
    """Induction-step form of the finite identity behind Glaisher's series:
    the closed form's forward difference equals the summand, exactly."""
    ident = FAMILIES["GLAISHER"].telescoping(None)
    sn, sd = ident.scale.as_integer_ratio()
    closed = _term_pairs(ident.closed, 0, n_max)
    pnum, pden = next(closed)
    for n, (num, den), (tnum, tden) in zip(
            count(1), closed, _term_pairs(ident.summand, 1, n_max)):
        if sn * (num * pden - pnum * den) * tden != sd * tnum * den * pden:
            return CheckReport("SUN_FINITE", (), n, first_failure=n)
        pnum, pden = num, den
    return CheckReport("SUN_FINITE", (), n_max)


# --------------------------------------------------------------------------
# s_{n,k} and t_n
# --------------------------------------------------------------------------

def snk_scaled(n: int, k_max: int) -> List[int]:
    """C(n,k) s_{n,k} for k = 0..k_max, in integers, from one row of
    binomials: with u_i = C(n,2i) C(2i,i), C(n,k) s_{n,k} = sum_i u_i
    u_{k-i}."""
    if not 0 <= k_max <= n:
        raise ValueError("need 0 <= k_max <= n")
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    half = n // 2
    cb = seqkit.rows(CB2, half)
    u = [row[2 * i] * cb[i] for i in range(half + 1)]
    out = []
    for k in range(k_max + 1):
        # the terms i and k - i agree: sum over lo <= i < k/2 and double
        lo, hi = max(0, k - half), (k + 1) // 2
        total = 2 * sum(map(mul, u[lo:hi], reversed(u[k - hi + 1:k - lo + 1])))
        if k % 2 == 0:
            total += u[k // 2] ** 2
        out.append(total)
    return out


def snk_row(n: int, k_max: int) -> List[int]:
    """s_{n,0}, ..., s_{n,k_max}: :func:`snk_scaled` over C(n,k), each
    division exact; ``ArithmeticError`` where one is not, as the sequence
    store raises at an inexact step."""
    row = [divmod(t, comb(n, k)) for k, t in enumerate(snk_scaled(n, k_max))]
    for k, (_, r) in enumerate(row):
        if r:
            raise ArithmeticError(f"s_({n},{k}) is not an integer")
    return [s for s, _ in row]


def tsmall_direct(n: int, s: Callable[[int, int], int]) -> int:
    """t_n = sum_{0<k<=n} C(n-1,k-1) (-1)^k 4^{n-k} s_{n+k,k}, reading
    s_{n,k} from ``s`` (the caller's, such as one that reads
    :func:`snk_row`)."""
    return sum(comb(n - 1, k - 1) * (-1) ** k * 4 ** (n - k) * s(n + k, k)
               for k in range(1, n + 1))


# --------------------------------------------------------------------------
# Franel-number transforms
# --------------------------------------------------------------------------

def check_franel_transform(n_max: int) -> CheckReport:
    """Check, exactly for n <= n_max:

    (sf)  sum_k C(n,k)(-1)^k 4^(n-k) s_{n+k,k} = f_n
    (tf)  (2n+1) t_{n+1} + 8 n t_n = (2n+1) f_{n+1} - 4 (n+1) f_n
    plus the second-order recurrence satisfied by f_n itself.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    f = seqkit.rows(seqkit.FRANEL, n_max + 1)
    # s_{m,k} for k <= m/2: t and sf read s_{n+k,k} with k <= n
    s = [snk_row(m, m // 2) for m in range(2 * n_max + 3)]
    t = [tsmall_direct(n, lambda m, k: s[m][k])
         for n in range(n_max + 2)]
    for n in range(n_max + 1):
        sf = sum(comb(n, k) * (-1) ** k * 4 ** (n - k) * s[n + k][k]
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
    return seqkit.rows(seqkit.SBC(b, c), n)[n]


def check_sn_expansion(c_lo: int, c_hi: int, n_max: int) -> CheckReport:
    """S_n(4,c) = sum_{k<=n/2} C(n-k,k) C(2(n-k),n-k) c^k 4^(n-2k) s_{n,k},
    and 4^n S_n(1,m) = S_n(4,16m), all exact."""
    if c_lo > c_hi:
        raise ValueError("empty c range")
    s = [snk_row(n, n // 2) for n in range(n_max + 1)]
    for c in range(c_lo, c_hi + 1):
        for n in range(n_max + 1):
            lhs = _sn_bc(4, c, n)
            rhs = sum(comb(n - k, k) * comb(2 * (n - k), n - k)
                      * c ** k * 4 ** (n - 2 * k) * s[n][k]
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
    """s_{k+l,k} <= (2k+1) 4^k l C(k+l,l) as an exact comparison in
    integers: both sides times C(k+l,k), the left one read from one row
    per n = k + l (:func:`snk_scaled`)."""
    if k_max < 1 or l_max < 1:
        raise ValueError("k_max and l_max must be >= 1")
    scaled = [snk_scaled(n, min(n - 1, k_max)) if n else []
              for n in range(k_max + l_max + 1)]
    for k in range(k_max + 1):
        for l in range(1, l_max + 1):
            c = comb(k + l, l)
            if scaled[k + l][k] > (2 * k + 1) * 4 ** k * l * c * c:
                return CheckReport("SKL_BOUND", (k, l), 0, first_failure=k,
                                   detail=f"k={k} l={l}")
    return CheckReport("SKL_BOUND", (k_max, l_max), (k_max + 1) * l_max)

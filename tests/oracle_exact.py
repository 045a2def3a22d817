"""Exact oracles of the finite checks: s_{n,k} from its defining sum of
binomials, one summand and one closed-form value of a telescoping
family, and the rows of an operator kind by one generic order-r stepper.
The program reads s_{n,k} off integer rows (``exactid.snk_scaled``),
compares a family's partial sums with its closed form in one pass
(``exactid.check_family``) and steps orders 1 and 2 in loops of their own
with coefficients evaluated by Horner's rule written out
(``seqkit._operator_rows``); the tests compare the two.

The exact partial sums of a term spec by the loop of
``congruence._prefix_sums`` as it ran for every spec before a den-free
spec's sum became one running integer: the tests compare the pairs."""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import comb
from operator import mul
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from piseries import exactid as ei
from piseries import seqkit as sk
from piseries.sereval import TermSpec, _term_pairs, term_value


def snk(n: int, k: int) -> Fraction:
    """s_{n,k} = (1/C(n,k)) * sum_i C(n,2i) C(n,2(k-i)) C(2i,i) C(2(k-i),k-i)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    total = 0
    for i in range(k + 1):
        total += (comb(n, 2 * i) * comb(n, 2 * (k - i))
                  * comb(2 * i, i) * comb(2 * (k - i), k - i))
    return Fraction(total, comb(n, k))


def snk_row(n: int, k_max: int) -> List[Fraction]:
    """s_{n,0}, ..., s_{n,k_max} as Fractions C(n,k) s_{n,k} / C(n,k),
    as the row was read before it was read in integers."""
    return [Fraction(t, comb(n, k))
            for k, t in enumerate(ei.snk_scaled(n, k_max))]


def tsmall_direct(n: int, s) -> Fraction:
    """t_n = sum_{0<k<=n} C(n-1,k-1) (-1)^k 4^{n-k} s_{n+k,k} in Fraction
    arithmetic, reading s_{n,k} from ``s``."""
    total = Fraction(0)
    for k in range(1, n + 1):
        total += comb(n - 1, k - 1) * (-1) ** k * 4 ** (n - k) * s(n + k, k)
    return total


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


# --------------------------------------------------------------------------
# Exact partial sums, every term divided against the running denominator
# --------------------------------------------------------------------------

def prefix_sums(spec: TermSpec,
                counts: Iterable[int]) -> Iterator[Tuple[int, int, int]]:
    """(c, P, Q) for each c in ``counts``, in increasing order, with
    S(c) = P/Q the sum of the terms k0 <= k < c: each term num/den of
    ``sereval._term_pairs`` extends the unreduced pair with no gcd when den
    is a multiple of Q, and is added as a Fraction otherwise."""
    pending = sorted(set(counts), reverse=True)
    P, Q = 0, 1
    if pending and pending[0] > spec.k0:
        terms = _term_pairs(spec, spec.k0, pending[0] - 1)
        for k, (num, den) in enumerate(terms, spec.k0):
            while pending[-1] <= k:
                yield pending.pop(), P, Q
            q, r = divmod(den, Q)
            if r:
                total = Fraction(P, Q) + Fraction(num, den)
                P, Q = total.numerator, total.denominator
            else:
                P, Q = P * q + num, den
    while pending:
        yield pending.pop(), P, Q


# --------------------------------------------------------------------------
# Operator rows by the generic stepper, with coefficients by a Horner helper
# --------------------------------------------------------------------------

def _poly(n, coeffs: Sequence[int]):
    """sum_i coeffs[i] n^(d-i), d = len(coeffs) - 1, by Horner's rule."""
    acc = 0
    for a in coeffs:
        acc = acc * n + a
    return acc


def _sbc_coeffs(b, c):
    w = sk._lin((b * b, (64, 448, 1156, 1305, 549)),
                (-c, (400, 2800, 7180, 7980, 3264)))
    p1 = sk._lin((-8 * b ** 5, (512, 7936, 51872, 185304, 390732, 486378,
                                331047, 95094)),
                 (8 * b ** 3 * c, (4224, 65472, 427840, 1527632, 3218776,
                                   4002744, 2721048, 780432)),
                 (-8 * b * c * c, (6400, 99200, 649280, 2326496, 4930624,
                                   6183936, 4253040, 1238496)))
    p2 = sk._lin((4 * b ** 4, (768, 14592, 119920, 556332, 1592200, 2876157,
                               3199939, 2003775, 540792)),
                 (-4 * b * b * c, (5568, 105792, 868880, 4025244, 11492348,
                                   20682645, 22885727, 14220270, 3796944)),
                 (4 * c * c, (4800, 91200, 748960, 3469920, 9912748,
                              17868660, 19837192, 12398400, 3342336)))
    p3 = sk._lin((-6 * b ** 3, (128, 2240, 16456, 65654, 153373, 209578,
                                155125, 48096)),
                 (6 * b * c, (800, 14000, 102760, 409052, 951352, 1289932,
                              942720, 286592)))
    k0 = 256 * c * (b * b - 4 * c)
    return lambda n: (k0 * (n + 1) ** 3 * (n + 2) * _poly(n + 1, w),
                      (n + 2) * _poly(n, p1), _poly(n, p2),
                      (n + 3) * _poly(n, p3),
                      (n + 3) * (n + 4) ** 3 * _poly(n, w))


def _gpoly_coeffs(P, Q):
    p1 = sk._lin((P * P, (64, 336, 576, 324)), (P * Q, (0, 0, 4, 6)),
                 (Q * Q, (12, 63, 106, 57)))
    p2 = sk._lin((-P, (32, 200, 404, 258)), (-Q, (12, 75, 150, 93)))
    k0 = -Q * (4 * P - Q) ** 2
    return lambda n: (k0 * (n + 1) ** 2 * (4 * n + 9), _poly(n, p1),
                      _poly(n, p2), (n + 3) ** 2 * (4 * n + 5))


def _gct2_coeffs(b, c):
    w = sk._lin((b * b, (4, 10, 5)), (c, (16, 40, 22)))
    k0 = (b * b - 4 * c) ** 2
    return lambda n: (k0 * (n + 1) * (2 * n + 1) * (4 * n + 7),
                      -(4 * n + 5) * _poly(n, w),
                      (n + 2) * (2 * n + 3) * (4 * n + 3))


#: The coefficient functions of the kinds whose ``seqkit`` coefficients are
#: written out; every other kind reads ``seqkit.OPERATORS``.
COEFFS = {
    "SBC": _sbc_coeffs, "GPOLY": _gpoly_coeffs, "GCT2": _gct2_coeffs,
    "GCT": lambda b, c: lambda n: (
        (n + 1) * (b * b - 4 * c), -(2 * n + 3) * b, n + 2),
}


def _generic_rows(kind: sk.SequenceKind, op: sk.Operator, coeffs,
                  params: tuple):
    """The rows of ``kind`` by the recurrence at ``params``: one loop for
    every order, over a list of the last r rows."""
    first = op.init(*params)
    yield from first
    r = len(coeffs(0)) - 1
    last = list(first[len(first) - r:])
    for n in count(len(first) - r):
        cs = coeffs(n)
        lead = cs[r]
        if lead:
            nxt, rem = divmod(sum(map(mul, cs, last)), -lead)
            if rem:
                raise ArithmeticError(
                    f"inexact division in the {kind} recurrence at n={n}")
        elif op.direct is not None:
            nxt = op.direct(n + r, *params)
        else:
            raise ArithmeticError(
                f"zero leading coefficient in the {kind} recurrence at n={n}")
        last.append(nxt)
        del last[0]
        yield nxt


def operator_rows(kind: sk.SequenceKind, n_max: int) -> List[int]:
    """Rows 0..n_max of an operator kind by the generic stepper, its
    coefficients from :data:`COEFFS` where ``seqkit`` writes them out."""
    op = sk.OPERATORS[kind.tag]
    params = (kind.params[0], 1) if kind.tag == "GPOLY" else kind.params
    coeffs = COEFFS.get(kind.tag, op.coeffs)(*params)
    return list(islice(_generic_rows(kind, op, coeffs, params), n_max + 1))

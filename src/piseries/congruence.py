"""Truncated-sum congruences for binomial-type series.

Given a term specification ``w(k) * a_k / m^k`` this module computes the
residue of a truncated sum modulo a prime power and compares it against a
right-hand side built from Legendre symbols and Euler numbers.  It also
checks (pn)^2-refinements, integrality-with-parity claims, and dual sums
(term-level modulo p and sum-level modulo p^2).  Every prime-by-prime
check, here and in ``quadform``, tests the primes that ``tested_primes``
gives, so a right-hand side is a p-adic integer wherever it is read.

Every truncated sum comes from one place, ``_prefix_sums``: one pass over
the terms yields the exact partial sums S(c) at each requested count c as
unreduced integer pairs P/Q, and ``_residue`` reads a residue modulo p^s
off such a pair.  For a den-free term w(k) a_k / m^k, m = a/b, the pass
is one running integer: it reads the term's numerator stream, the one
``sereval._numerators`` gives ``sereval.Moments`` too (the term with m
replaced by 1/b), and steps P <- a P + num(k), so Q = wden a^(c-1), wden
the weight's common denominator; no a^k column is built and no term is
divided.  A term with denominator factors is divided against Q.  A check
sums each series once for all its primes (or all its n), so a reported
residue is exact and never subject to rounding.
``rhs_residue`` works in integers modulo p^s: coefficients by their
inverse, Fermat quotients from ``pow(a, p-1, p^(s+1))``, E_{p-3} reduced.

Elementary number theory: every quadratic character read at one prime,
here and in ``quadform``, is ``symbol``: the product of the (d|p) over
a tuple of d, each by Euler's criterion d^((p-1)/2) mod p.  The primes
come from ``sieve``, the sieve of Eratosthenes, run to the bound a check
asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import isqrt, prod
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from . import seqkit
# term_value is not called here: perfbench/tracer.py wraps this binding
from .sereval import (TermSpec, _integer_weight, _numerators, _term_pairs,
                      term_value)

__all__ = [
    "symbol",
    "sieve",
    "tested_primes",
    "truncated_sum_exact",
    "truncated_sum_mod",
    "truncated_residues",
    "RHSTerm",
    "rhs_residue",
    "CongruenceClaim",
    "ClaimReport",
    "verify_claim",
    "check_pn_refinement",
    "IntegralityClaim",
    "check_integrality",
    "DualityClaim",
    "check_duality_term",
    "check_duality_sum",
    "NONINTEGRAL",
]

#: Sentinel returned when a truncated sum is not a p-adic integer.
NONINTEGRAL = "NONINTEGRAL"


# --------------------------------------------------------------------------
# elementary number theory
# --------------------------------------------------------------------------

def symbol(sym: Tuple[int, ...], p: int) -> int:
    """prod (d|p) over ``sym`` at a prime p, each (d|p) by Euler's
    criterion d^((p-1)/2) mod p: 1 for an empty ``sym`` at every p, and a
    ValueError for a non-empty one at p = 2, where (d|2) has no value."""
    if p == 2 and sym:
        raise ValueError("p = 2 has no quadratic character")
    value = 1
    for d in sym:
        r = pow(d, p >> 1, p)   # p >> 1 == (p-1)/2 for an odd p
        value *= -1 if r == p - 1 else r
    return value


@lru_cache(maxsize=16)   # the few bounds the checks of one run ask for
def sieve(bound: int) -> bytes:
    """Flags over 0 <= n <= bound, 1 exactly at the primes: the sieve of
    Eratosthenes."""
    flags = bytearray(2) + bytearray([1]) * (bound - 1)
    for i in range(2, isqrt(max(bound, 0)) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, bound + 1, i)))
    return bytes(flags)


def tested_primes(p_max: int, min_p: int = 5, exclude: Tuple[int, ...] = (),
                  coprime: Iterable[int] = (),
                  require: Iterable[Tuple[int, int]] = ()) -> List[int]:
    """The primes a check tests, in increasing order: min_p <= p <= p_max,
    p not in ``exclude``, p dividing no integer of ``coprime``, and
    (d|p) == v for each (d, v) of ``require``.  A ``require`` at a p = 2
    that min_p and ``exclude`` admit is a ValueError: (d|2) has no value."""
    lo = max(min_p, 0)
    product = prod(coprime)
    primes = [p for p in compress(range(lo, p_max + 1), sieve(p_max)[lo:])
              if p not in exclude and product % p]
    for d, v in require:
        primes = [p for p in primes if symbol((d,), p) == v]
    return primes


def padic_valuation(n: int, p: int) -> Optional[int]:
    """v_p(n) for an integer n; None for n = 0 (infinite valuation)."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# --------------------------------------------------------------------------
# truncated sums
# --------------------------------------------------------------------------

def _prefix_sums(spec: TermSpec,
                 counts: Iterable[int]) -> Iterator[Tuple[int, int, int]]:
    """(c, P, Q) for each c in ``counts``, in increasing order, where
    S(c) = P/Q, Q > 0, is the sum of the terms k0 <= k < c; one pass over
    the terms.  The pair is not reduced, and Q = 1 for every c <= k0.

    A den-free spec (no ``spec.den``) with m = a/b, a > 0 and the sign of
    m moved to b, has term(k) = num(k) / (wden a^k), where num(k) is its
    numerator stream (``sereval._numerators``: the term with m replaced by
    1/b) and wden is the weight's common denominator.  Its sum is one
    running integer: P starts at num(k0) and Q at wden a^k0, and each
    further term steps P <- a P + num(k), Q <- a Q, so Q = wden a^(c-1)
    for every c > k0.
    No a^k column is built and no term is divided.  A term of any other
    spec, num/den, extends the pair with no gcd when den is a multiple of
    Q, and is added as a Fraction otherwise."""
    pending = sorted(set(counts), reverse=True)
    k0 = spec.k0
    while pending and pending[-1] <= k0:
        yield pending.pop(), 0, 1
    if not pending:
        return
    hi = pending[0] - 1
    if spec.den:
        P, Q = 0, 1
        for k, (num, den) in enumerate(_term_pairs(spec, k0, hi), k0):
            while pending[-1] <= k:
                yield pending.pop(), P, Q
            q, r = divmod(den, Q)
            if r:
                total = Fraction(P, Q) + Fraction(num, den)
                P, Q = total.numerator, total.denominator
            else:
                P, Q = P * q + num, den
    else:
        weight = _integer_weight(spec.weight)
        a, blocks = _numerators(spec, weight, k0, hi)
        nums = chain.from_iterable(nums for _, nums, _ in blocks)
        P, Q = next(nums), weight[1] * a ** k0
        for k, num in enumerate(nums, k0 + 1):
            while pending[-1] <= k:
                yield pending.pop(), P, Q
            P, Q = a * P + num, a * Q
    while pending:
        yield pending.pop(), P, Q


def _residue(P: int, Q: int, p: int, s: int, shift: int = 0):
    """Residue of p^shift * P/Q modulo p^s, or NONINTEGRAL when that is not
    a p-adic integer.  The pair (Q > 0) need not be reduced: v_p is
    stripped from P and from Q before Q is inverted."""
    if P == 0:
        return 0
    v = shift
    while P % p == 0:
        P //= p
        v += 1
    while Q % p == 0:
        Q //= p
        v -= 1
    if v < 0:
        return NONINTEGRAL
    ps = p ** s
    return P * pow(p, v, ps) * pow(Q, -1, ps) % ps


def truncated_sum_exact(spec: TermSpec, upper: int) -> Fraction:
    """Exact value of sum over k0 <= k <= upper of the spec's terms, read
    off one ``_prefix_sums`` pass."""
    (_, P, Q), = _prefix_sums(spec, [upper + 1])
    return Fraction(P, Q)


def truncated_sum_mod(spec: TermSpec, upper: int, p: int, s: int):
    """Residue modulo p^s of the sum over k0 <= k <= upper, or NONINTEGRAL:
    ``truncated_residues`` for one prime."""
    return truncated_residues(spec, {p: upper}, s)[p]


def truncated_residues(spec: TermSpec, uppers: Dict[int, int], s: int,
                       shift: int = 0) -> Dict[int, object]:
    """{p: residue modulo p^s of p^shift times the sum of the terms
    k0 <= k <= uppers[p], or NONINTEGRAL}, from one pass over the terms."""
    at: Dict[int, List[int]] = {}
    for p, upper in uppers.items():
        at.setdefault(upper + 1, []).append(p)
    return {p: _residue(P, Q, p, s, shift)
            for c, P, Q in _prefix_sums(spec, at) for p in at[c]}


# --------------------------------------------------------------------------
# right-hand sides
# --------------------------------------------------------------------------

def euler_number(n: int) -> int:
    """Euler number E_n (E_0 = 1, E_2 = -1, ...)."""
    return seqkit.rows(seqkit.EULER, n)[n]


@dataclass(frozen=True)
class RHSTerm:
    """One additive term coef * p^ppow * prod (d|p), optionally times the
    Euler number E_{p-3} or a Fermat quotient (a^(p-1) - 1)/p."""

    coef: Fraction
    ppow: int = 1
    sym: Tuple[int, ...] = ()     # Legendre symbols (d|p)
    euler: bool = False           # multiply by the Euler number E_{p-3}
    fermat: int = 0               # multiply by (fermat^(p-1) - 1)/p


def rhs_residue(terms: Sequence[RHSTerm], p: int, s: int) -> int:
    """The sum of the terms' values at p modulo p^s, computed in integers,
    for a p that divides no coefficient's denominator (``tested_primes``
    leaves none)."""
    ps = p ** s
    total = 0
    for t in terms:
        v = t.coef.numerator * pow(t.coef.denominator, -1, ps) * p ** t.ppow
        v *= symbol(t.sym, p)
        if t.euler:
            v *= euler_number(p - 3) % ps
        if t.fermat:
            v *= (pow(t.fermat, p - 1, ps * p) - 1) // p
        total += v
    return total % ps


# --------------------------------------------------------------------------
# congruence claims
# --------------------------------------------------------------------------

#: Upper summation limits of a congruence claim, as functions of p.
UPPERS = {
    "p-1": lambda p: p - 1,
    "p-2": lambda p: p - 2,
    "(p+1)/2": lambda p: (p + 1) // 2,
}


@dataclass(frozen=True)
class CongruenceClaim:
    """A family of congruences indexed by the primes that
    ``tested_primes`` admits."""

    ident: str
    spec: TermSpec
    s: int                                   # modulus exponent: mod p^s
    rhs: Tuple[RHSTerm, ...]
    upper: str = "p-1"
    min_p: int = 5
    exclude: Tuple[int, ...] = ()
    require: Tuple[Tuple[int, int], ...] = ()   # (d, v): need (d|p) == v
    pn_delta: Optional[Tuple[int, ...]] = None  # symbols whose product is delta
    lhs_ppow: int = 0         # multiply the truncated sum by p^lhs_ppow

    @property
    def coprime(self) -> Tuple[int, ...]:
        """The integers a tested prime must not divide: the base's numerator
        and denominator, and each right-hand side term's denominator,
        symbols and Fermat base."""
        ints = [self.spec.m.numerator, self.spec.m.denominator]
        for t in self.rhs:
            ints += [t.coef.denominator, *t.sym, t.fermat or 1]
        return tuple(ints)


@dataclass
class ClaimReport:
    ident: str
    tested: List[int]
    failures: List[Tuple[int, object, object]]   # (p, lhs, rhs)
    #: (p, lhs, rhs) at every tested prime, where the check has one
    rows: List[Tuple[int, object, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.tested) and not self.failures

    @classmethod
    def of(cls, ident: str, rows: List[Tuple[int, object, object]]):
        """The report of one row (p, lhs, rhs) per tested prime: the claim
        holds at p exactly when lhs == rhs."""
        return cls(ident, [p for p, _, _ in rows],
                   [row for row in rows if row[1] != row[2]], rows)


def verify_claim(claim: CongruenceClaim, p_max: int) -> ClaimReport:
    """Check the claim at each of its primes p <= p_max, in increasing
    order.  Its row (p, lhs, rhs) holds the truncated sum times
    p^lhs_ppow modulo p^s or NONINTEGRAL, and the right-hand side modulo
    p^s; the claim holds at p exactly when lhs == rhs.  One pass over the
    terms serves every prime."""
    primes = tested_primes(p_max, claim.min_p, claim.exclude, claim.coprime,
                           claim.require)
    upper = UPPERS[claim.upper]
    lhs = truncated_residues(claim.spec, {p: upper(p) for p in primes},
                             claim.s, claim.lhs_ppow)
    return ClaimReport.of(claim.ident, [
        (p, lhs[p], rhs_residue(claim.rhs, p, claim.s)) for p in primes])


# --------------------------------------------------------------------------
# (pn)^2 refinements
# --------------------------------------------------------------------------

@dataclass
class RefinementReport:
    ident: str
    checked: List[Tuple[int, int]]        # (p, n)
    min_margin: Optional[int]             # None means every difference was 0
    failures: List[Tuple[int, int, int]]  # (p, n, margin)

    @property
    def ok(self) -> bool:
        return bool(self.checked) and not self.failures


def check_pn_refinement(claim: CongruenceClaim, p_max: int = 50,
                        n_max: int = 6) -> RefinementReport:
    """Check v_p(S(pn) - p*delta*S(n)) >= 2 + 2 v_p(n) at the claim's
    primes p <= p_max where delta is not 0, i.e. p prime to each d.

    ``delta`` is the product of the symbols (d|p) listed in claim.pn_delta
    (the common value required of the right-hand-side symbols).  S(c) is
    the sum of the terms k < c; it does not depend on p, so one pass over
    the terms (``_prefix_sums``) serves every prime and every n: S(n) is
    kept for n <= n_max, and each pair (p, n) is checked when the pass
    reaches p*n.  With S(pn) = P1/Q1 and S(n) = P2/Q2 unreduced, the
    valuation is v_p(P1 Q2 - p delta P2 Q1) - v_p(Q1) - v_p(Q2), with no
    gcd taken; a zero difference has no valuation and is skipped.
    """
    if claim.pn_delta is None:
        raise ValueError(f"claim {claim.ident} carries no refinement data")
    report = RefinementReport(claim.ident, [], None, [])
    checks = [(p, symbol(claim.pn_delta, p))
              for p in tested_primes(p_max, claim.min_p, claim.exclude,
                                     claim.coprime + claim.pn_delta,
                                     claim.require)]
    ns = range(1, n_max + 1)
    due: Dict[int, List[Tuple[int, int, int]]] = {}   # p*n -> (p, delta, n)
    for p, delta in checks:
        for n in ns:
            due.setdefault(p * n, []).append((p, delta, n))
    small: Dict[int, Tuple[int, int]] = {}       # S(n), n <= n_max
    margins: Dict[Tuple[int, int], Optional[int]] = {}
    for c, P1, Q1 in _prefix_sums(claim.spec, due.keys() | set(ns)):
        if c <= n_max:
            small[c] = P1, Q1
        for p, delta, n in due.get(c, ()):
            P2, Q2 = small[n]
            v = padic_valuation(P1 * Q2 - p * delta * P2 * Q1, p)
            if v is not None:
                v -= (padic_valuation(Q1, p) + padic_valuation(Q2, p)
                      + 2 + 2 * padic_valuation(n, p))
            margins[p, n] = v
    for p, _ in checks:
        for n in ns:
            report.checked.append((p, n))
            margin = margins[p, n]
            if margin is None:
                continue
            if report.min_margin is None or margin < report.min_margin:
                report.min_margin = margin
            if margin < 0:
                report.failures.append((p, n, margin))
    return report


# --------------------------------------------------------------------------
# integrality and parity
# --------------------------------------------------------------------------

#: Exponent rules for the n-dependent part of an integrality divisor.
DIV_EXPS = {
    "none": lambda n: 0,
    "n-1": lambda n: n - 1,
    "half": lambda n: n // 2,
    "half-up": lambda n: (n + 1) // 2,
}


def _is_pow2(n: int) -> bool:
    return n & (n - 1) == 0


#: Predicates for "the value is odd exactly when n lies in this set".
ODD_SETS = {
    "pow2": _is_pow2,                              # {1, 2, 4, 8, ...}
    "pow2-pos": lambda n: n > 1 and _is_pow2(n),   # {2, 4, 8, ...}
    "pow2-not2": lambda n: n != 2 and _is_pow2(n),  # {1, 4, 8, ...}
}


@dataclass(frozen=True)
class IntegralityClaim:
    """Claim: (mul / (div * n * div_base^e(n))) * sum_{k<n} w(k) (+-1)^k
    M^(n-1-k) a_k is a positive integer, odd exactly when n lies in
    ``ODD_SETS[odd_set]``.  The exponent rule e is selected by ``div_exp``."""

    ident: str
    weight: Tuple[int, ...]
    seq: Tuple[Tuple[object, int], ...]
    base: int                    # M
    div: int = 1
    alt: bool = False            # include a (-1)^k factor in the summand
    positive: bool = True
    mul: int = 1
    div_base: int = 1
    div_exp: str = "none"
    odd_set: Optional[str] = "pow2"   # key of ODD_SETS; None: no parity test
    n_min: int = 1                  # smallest n the claim covers

    def __post_init__(self):
        if self.div_exp not in DIV_EXPS:
            raise ValueError(f"unknown divisor exponent rule {self.div_exp}")
        if self.odd_set is not None and self.odd_set not in ODD_SETS:
            raise ValueError(f"unknown odd-set rule {self.odd_set}")


@dataclass
class IntegralityReport:
    ident: str
    tested: List[int]                  # every n checked, in order
    failures: List[Tuple[int, str]]

    @property
    def ok(self) -> bool:
        return bool(self.tested) and not self.failures


def check_integrality(claim: IntegralityClaim, n_max: int = 128) -> IntegralityReport:
    """Check the claim for n_min <= n <= n_max.  The value at n is
    mul M^(n-1) S(n) / (div n div_base^e(n)), where S(n) is the sum over
    k < n of w(k) a_k / (+-M)^k; one ``_prefix_sums`` pass gives every S(n).

    The spec is den-free with the integral base m = +-M, so the pass's
    S(n) = P / (wden |M|^(n-1)) (wden the weight's common denominator) and
    M^(n-1) S(n) = sign(M)^(n-1) P / wden.  The value is read as
    mul sign(M)^(n-1) P / (wden div n div_base^e(n)): no power of M and no
    division by Q, only small divisors."""
    report = IntegralityReport(claim.ident, [], [])
    M = claim.base
    spec = TermSpec(claim.weight, (), claim.seq,
                    Fraction(-M if claim.alt else M))
    wden = _integer_weight(spec.weight)[1]
    for n, P, _ in _prefix_sums(spec, range(max(1, claim.n_min), n_max + 1)):
        report.tested.append(n)
        num = claim.mul * (-P if M < 0 and n % 2 == 0 else P)
        den = wden * claim.div * n \
            * claim.div_base ** DIV_EXPS[claim.div_exp](n)
        if num % den:
            report.failures.append((n, "not an integer"))
            continue
        iv = num // den
        if claim.positive and iv <= 0:
            report.failures.append((n, "not positive"))
        if claim.odd_set is not None \
                and (iv % 2 == 1) != ODD_SETS[claim.odd_set](n):
            report.failures.append((n, "parity mismatch"))
    return report


# --------------------------------------------------------------------------
# duality
# --------------------------------------------------------------------------

def check_duality_term(ident: str, kind, d: Optional[int], D: int,
                       p_max: int = 97) -> ClaimReport:
    """Term-level duality a_k = (d|p) D^k a_{p-1-k} (mod p) for all k < p,
    at 5 <= p <= p_max, p prime to d D; the report is named ``ident``.

    ``d = None`` means no symbol factor.
    """
    report = ClaimReport(ident, [], [])
    d = 1 if d is None else d   # (1|p) = 1: no symbol factor
    for p in tested_primes(p_max, coprime=(D, d)):
        tab = seqkit.rows(kind, p - 1)
        s = symbol((d,), p)
        report.tested.append(p)
        for k in range(p):
            lhs = tab[k] % p
            rhs = s * pow(D % p, k, p) * tab[p - 1 - k] % p
            if lhs != rhs:
                report.failures.append((p, (k, lhs), rhs))
    return report


@dataclass(frozen=True)
class DualityClaim:
    """Sum-level duality: sum a_k/m^k = (d|p) sum a_k/(D/m)^k (mod p^2),
    for an integer base m that divides D (the registry reader checks it)."""

    ident: str
    seq: Tuple[Tuple[object, int], ...]
    m: int
    d: int
    D: int


def check_duality_sum(claim: DualityClaim, p_max: int = 200) -> ClaimReport:
    """Rows (p, lhs, rhs) at 5 <= p <= p_max, p prime to d D m: the sum
    with base m, and (d|p) times the sum with base D/m, or None when that
    is not a p-adic integer, both modulo p^2."""
    spec_m = TermSpec(weight=(1,), den=(), seq=claim.seq,
                      m=Fraction(claim.m), k0=0)
    spec_dual = TermSpec(weight=(1,), den=(), seq=claim.seq,
                         m=Fraction(claim.D, claim.m), k0=0)
    uppers = {p: p - 1 for p in tested_primes(
        p_max, coprime=(claim.d, claim.D, claim.m))}
    lhs = truncated_residues(spec_m, uppers, 2)
    dual = truncated_residues(spec_dual, uppers, 2)
    return ClaimReport.of(claim.ident, [
        (p, lhs[p], None if dual[p] == NONINTEGRAL else
         symbol((claim.d,), p) * dual[p] % p ** 2)
        for p in uppers])

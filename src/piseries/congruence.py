"""Truncated-sum congruences for binomial-type series.

Given a term specification ``w(k) * a_k / m^k`` this module computes the
residue of a truncated sum modulo a prime power and compares it against a
right-hand side built from Legendre/Jacobi symbols and Euler numbers.  It
also checks (pn)^2-refinements, integrality-with-parity claims, and dual
sums (term-level modulo p and sum-level modulo p^2).

Every truncated sum comes from one place, ``_prefix_sums``: one pass over
the terms yields the exact partial sums S(c) at each requested count c as
unreduced integer pairs P/Q, and ``_residue`` reads a residue modulo p^s
off such a pair.  A check sums each series once for all its primes (or all
its n), so a reported residue is exact and never subject to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from . import seqkit
# term_value is not called here: perfbench/tracer.py wraps this binding
from .sereval import TermSpec, _terms, term_value

__all__ = [
    "primes_upto",
    "is_prime",
    "legendre",
    "jacobi",
    "fraction_mod",
    "truncated_sum_exact",
    "truncated_sum_mod",
    "truncated_residues",
    "RHSTerm",
    "rhs_residue",
    "CongruenceClaim",
    "ClaimReport",
    "claim_rows",
    "verify_claim",
    "check_pn_refinement",
    "IntegralityClaim",
    "check_integrality",
    "DualityClaim",
    "check_duality_term",
    "check_duality_sum",
    "wang_sun_lint",
    "NONINTEGRAL",
]

#: Sentinel returned when a truncated sum is not a p-adic integer.
NONINTEGRAL = "NONINTEGRAL"


# --------------------------------------------------------------------------
# elementary number theory
# --------------------------------------------------------------------------

def primes_upto(n: int) -> List[int]:
    """All primes <= n by a sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i:: i] = bytearray(len(sieve[i * i:: i]))
    return [i for i in range(n + 1) if sieve[i]]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p."""
    if p <= 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
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
    """Residue of a rational modulo p^s, or None if p divides the denominator."""
    ps = p ** s
    if x.denominator % p == 0:
        return None
    return x.numerator * pow(x.denominator, -1, ps) % ps


def padic_valuation(x: Union[int, Fraction], p: int) -> Optional[int]:
    """v_p(x) for a nonzero integer or rational; None for x = 0 (infinite
    valuation)."""
    if x == 0:
        return None
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


# --------------------------------------------------------------------------
# truncated sums
# --------------------------------------------------------------------------

def _prefix_sums(spec: TermSpec,
                 counts: Iterable[int]) -> Iterator[Tuple[int, int, int]]:
    """(c, P, Q) for each c in ``counts``, in increasing order, where
    S(c) = P/Q, Q > 0, is the sum of the terms k0 <= k < c; one pass over
    the terms.  The pair is not reduced: a term num/den whose den is a
    multiple of Q (every term of a den-free spec with integral m) extends
    it with no gcd, and any other term is added as a Fraction."""
    pending = sorted(set(counts), reverse=True)
    P, Q = 0, 1
    if pending and pending[0] > spec.k0:
        terms = _terms(spec, spec.k0, pending[0] - 1)
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
    """One additive term coef * p^ppow * prod (d|p) * prod (p|d), optionally
    times the Euler number E_{p-3} or a Fermat quotient (a^(p-1) - 1)/p."""

    coef: Fraction
    ppow: int = 1
    sym: Tuple[int, ...] = ()     # Legendre symbols (d|p)
    sym_p: Tuple[int, ...] = ()   # Jacobi symbols (p|d)
    euler: bool = False           # multiply by the Euler number E_{p-3}
    fermat: int = 0               # multiply by (fermat^(p-1) - 1)/p

    def value(self, p: int) -> Fraction:
        v = self.coef * p ** self.ppow
        for d in self.sym:
            v *= legendre(d, p)
        for d in self.sym_p:
            v *= jacobi(p, d)
        if self.euler:
            v *= euler_number(p - 3)
        if self.fermat:
            v *= (self.fermat ** (p - 1) - 1) // p
        return v


def rhs_residue(terms: Sequence[RHSTerm], p: int, s: int) -> Optional[int]:
    total = Fraction(0)
    for t in terms:
        total += t.value(p)
    return fraction_mod(total, p, s)


# --------------------------------------------------------------------------
# congruence claims
# --------------------------------------------------------------------------

#: Upper summation limits of a congruence claim, as functions of p.
UPPERS = {
    "p-1": lambda p: p - 1,
    "p-2": lambda p: p - 2,
    "(p+1)/2": lambda p: (p + 1) // 2,
    "(p-1)/2": lambda p: (p - 1) // 2,
}


@dataclass(frozen=True)
class CongruenceClaim:
    """A family of congruences indexed by admissible primes."""

    ident: str
    spec: TermSpec
    s: int                                   # modulus exponent: mod p^s
    rhs: Tuple[RHSTerm, ...]
    upper: str = "p-1"
    min_p: int = 5
    exclude: Tuple[int, ...] = ()
    require: Tuple[Tuple[int, int], ...] = ()   # (d, v): need (d|p) == v
    pn_delta: Optional[Tuple[int, ...]] = None  # symbols whose product is delta
    proven: bool = False
    lhs_ppow: int = 0         # multiply the truncated sum by p^lhs_ppow

    def admissible(self, p: int) -> bool:
        if p < self.min_p or p in self.exclude:
            return False
        if self.spec.m.numerator % p == 0 or self.spec.m.denominator % p == 0:
            return False
        for t in self.rhs:
            if t.coef.denominator % p == 0:
                return False
            for d in t.sym:
                if d % p == 0:
                    return False
            for d in t.sym_p:
                if d % p == 0:
                    return False
            if t.fermat and t.fermat % p == 0:
                return False
        for d, v in self.require:
            if legendre(d, p) != v:
                return False
        return True


@dataclass
class ClaimReport:
    ident: str
    tested: List[int]
    failures: List[Tuple[int, object, object]]   # (p, lhs, rhs)

    @property
    def ok(self) -> bool:
        return bool(self.tested) and not self.failures


def claim_rows(claim: CongruenceClaim,
               p_max: int) -> Iterator[Tuple[int, object, Optional[int]]]:
    """(p, lhs, rhs) for each admissible prime p <= p_max, in increasing
    order: the truncated sum times p^lhs_ppow modulo p^s or NONINTEGRAL, and
    the right-hand side modulo p^s or None.  One pass over the terms serves
    every prime.  The claim holds at p exactly when lhs == rhs."""
    primes = [p for p in primes_upto(p_max) if claim.admissible(p)]
    upper = UPPERS[claim.upper]
    lhs = truncated_residues(claim.spec, {p: upper(p) for p in primes},
                             claim.s, claim.lhs_ppow)
    for p in primes:
        yield p, lhs[p], rhs_residue(claim.rhs, p, claim.s)


def verify_claim(claim: CongruenceClaim, p_max: int) -> ClaimReport:
    """Check the claim for every admissible prime <= p_max (``claim_rows``)."""
    report = ClaimReport(claim.ident, [], [])
    for p, lhs, rhs in claim_rows(claim, p_max):
        report.tested.append(p)
        if lhs != rhs:
            report.failures.append((p, lhs, rhs))
    return report


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
    """Check v_p(S(pn) - p*delta*S(n)) >= 2 + 2 v_p(n) for admissible p.

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
    checks: List[Tuple[int, int]] = []   # (p, delta)
    for p in primes_upto(p_max):
        if not claim.admissible(p):
            continue
        delta = 1
        for d in claim.pn_delta:
            delta *= legendre(d, p)
        if delta != 0:
            checks.append((p, delta))
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
    n_max: int
    failures: List[Tuple[int, str]]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_integrality(claim: IntegralityClaim, n_max: int = 128) -> IntegralityReport:
    """Check the claim for n_min <= n <= n_max.  The value at n is
    mul M^(n-1) S(n) / (div n div_base^e(n)), where S(n) is the sum over
    k < n of w(k) a_k / (+-M)^k; one ``_prefix_sums`` pass gives every S(n)."""
    report = IntegralityReport(claim.ident, n_max, [])
    M = claim.base
    spec = TermSpec(claim.weight, (), claim.seq,
                    Fraction(-M if claim.alt else M))
    for n, P, Q in _prefix_sums(spec, range(max(1, claim.n_min), n_max + 1)):
        num = claim.mul * M ** (n - 1) * P
        den = Q * claim.div * n * claim.div_base ** DIV_EXPS[claim.div_exp](n)
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

def check_duality_term(kind, d: Optional[int], D: int,
                       p_max: int = 97) -> ClaimReport:
    """Term-level duality a_k = (d|p) D^k a_{p-1-k} (mod p) for all k < p.

    ``d = None`` means no symbol factor.  Primes dividing 6 d D are skipped.
    """
    report = ClaimReport(getattr(kind, "tag", str(kind)), [], [])
    for p in primes_upto(p_max):
        if p < 5 or (d is not None and d % p == 0) or D % p == 0:
            continue
        tab = seqkit.rows(kind, p - 1)
        s = 1 if d is None else legendre(d, p)
        report.tested.append(p)
        for k in range(p):
            lhs = int(tab[k]) % p
            rhs = s * pow(D % p, k, p) * int(tab[p - 1 - k]) % p
            if lhs != rhs:
                report.failures.append((p, (k, lhs), rhs))
    return report


@dataclass(frozen=True)
class DualityClaim:
    """Sum-level duality: sum a_k/m^k = (d|p) sum a_k/(D/m)^k (mod p^2)."""

    ident: str
    seq: Tuple[Tuple[object, int], ...]
    m: int
    d: int
    D: int

    def lint(self) -> List[str]:
        issues = []
        if self.m == 0 or self.D % self.m != 0:
            issues.append(f"{self.ident}: base {self.m} does not divide D={self.D}")
        return issues


def check_duality_sum(claim: DualityClaim, p_max: int = 200) -> ClaimReport:
    report = ClaimReport(claim.ident, [], [])
    spec_m = TermSpec(weight=(1,), den=(), seq=claim.seq,
                      m=Fraction(claim.m), k0=0)
    spec_dual = TermSpec(weight=(1,), den=(), seq=claim.seq,
                         m=Fraction(claim.D, claim.m), k0=0)
    uppers = {p: p - 1 for p in primes_upto(p_max) if p >= 5
              and claim.d % p and claim.D % p and claim.m % p}
    lhs_at = truncated_residues(spec_m, uppers, 2)
    rhs_at = truncated_residues(spec_dual, uppers, 2)
    for p in uppers:
        lhs, rhs0 = lhs_at[p], rhs_at[p]
        report.tested.append(p)
        if lhs == NONINTEGRAL or rhs0 == NONINTEGRAL:
            report.failures.append((p, lhs, rhs0))
            continue
        rhs = legendre(claim.d, p) * rhs0 % p ** 2
        if lhs != rhs:
            report.failures.append((p, lhs, rhs))
    return report


# --------------------------------------------------------------------------
# structural lint
# --------------------------------------------------------------------------

def wang_sun_lint(series_constant: Fraction, rhs: Sequence[RHSTerm],
                  a0: Fraction = Fraction(1)) -> List[str]:
    """For a weight b*k + c with a_0 = 1, the symbol coefficients of the
    modulo-p^2 right-hand side must sum to c."""
    total = Fraction(0)
    for t in rhs:
        if t.ppow == 1 and not t.euler:
            total += t.coef
    if a0 == 1 and total != series_constant:
        return [f"symbol coefficients sum to {total}, expected {series_constant}"]
    return []

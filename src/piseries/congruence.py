"""Truncated-sum congruences for binomial-type series.

Given a term specification ``w(k) * a_k / m^k`` this module computes the
residue of a truncated sum modulo a prime power and compares it against a
right-hand side built from Legendre/Jacobi symbols and Euler numbers.  It
also checks (pn)^2-refinements, integrality-with-parity claims, and dual
sums (term-level modulo p and sum-level modulo p^2).

All arithmetic is exact: sums are accumulated as rationals (or modulo
p^s directly on a fast path whose validity is cross-checked in tests),
so a reported residue is never subject to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import seqkit
from .sereval import TermSpec, term_value

__all__ = [
    "primes_upto",
    "is_prime",
    "legendre",
    "jacobi",
    "fraction_mod",
    "truncated_sum_mod",
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


def padic_valuation(x: Fraction, p: int) -> Optional[int]:
    """v_p(x) for a nonzero rational; None for x = 0 (infinite valuation)."""
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

def truncated_sum_exact(spec: TermSpec, upper: int) -> Fraction:
    """Exact value of sum over k0 <= k <= upper of the spec's terms."""
    num, den = 0, 1
    for k in range(spec.k0, upper + 1):
        t = term_value(spec, k)
        num = num * t.denominator + t.numerator * den
        den *= t.denominator
    return Fraction(num, den)


def truncated_sum_mod(spec: TermSpec, upper: int, p: int, s: int):
    """Residue modulo p^s of the truncated sum, or NONINTEGRAL.

    Uses a direct modular route when every term denominator is invertible
    modulo p (no affine/binomial denominator factors and integral sequence
    values) and falls back to the exact rational route otherwise.
    """
    if _fast_ok(spec, p):
        return _truncated_sum_mod_fast(spec, upper, p, s)
    total = truncated_sum_exact(spec, upper)
    res = fraction_mod(total, p, s)
    return NONINTEGRAL if res is None else res


def _fast_ok(spec: TermSpec, p: int) -> bool:
    if spec.den:
        return False
    if spec.m.numerator % p == 0 or spec.m.denominator % p == 0:
        return False
    for kind, _ in spec.seq:
        if getattr(kind, "tag", "") == "GPOLY":
            return False
    return True


def _truncated_sum_mod_fast(spec: TermSpec, upper: int, p: int, s: int) -> int:
    ps = p ** s
    tables = [(seqkit.rows(kind, upper), e) for kind, e in spec.seq]
    minv = spec.m.denominator * pow(spec.m.numerator, -1, ps) % ps
    total = 0
    mk = pow(minv, spec.k0, ps)
    for k in range(spec.k0, upper + 1):
        term = spec.weight_at(k)
        if term.denominator != 1:
            raise ValueError("fast path requires integer weights")
        t = int(term) % ps
        for tab, e in tables:
            t = t * pow(int(tab[k]) % ps, e, ps) % ps
        total = (total + t * mk) % ps
        mk = mk * minv % ps
    return total


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

_UPPERS = {
    "p-1": lambda p, n: p - 1,
    "p-2": lambda p, n: p - 2,
    "pn-1": lambda p, n: p * n - 1,
    "(p+1)/2": lambda p, n: (p + 1) // 2,
    "(p-1)/2": lambda p, n: (p - 1) // 2,
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


def verify_claim(claim: CongruenceClaim, p_max: int) -> ClaimReport:
    """Check the claim for every admissible prime <= p_max."""
    upper_of = _UPPERS[claim.upper]
    report = ClaimReport(claim.ident, [], [])
    for p in primes_upto(p_max):
        if not claim.admissible(p):
            continue
        if claim.lhs_ppow:
            total = truncated_sum_exact(claim.spec, upper_of(p, 1))
            total *= Fraction(p) ** claim.lhs_ppow
            res = fraction_mod(total, p, claim.s)
            lhs = NONINTEGRAL if res is None else res
        else:
            lhs = truncated_sum_mod(claim.spec, upper_of(p, 1), p, claim.s)
        rhs = rhs_residue(claim.rhs, p, claim.s)
        report.tested.append(p)
        if lhs == NONINTEGRAL or rhs is None or lhs != rhs:
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
    (the common value required of the right-hand-side symbols).
    """
    if claim.pn_delta is None:
        raise ValueError(f"claim {claim.ident} carries no refinement data")
    report = RefinementReport(claim.ident, [], None, [])
    for p in primes_upto(p_max):
        if not claim.admissible(p):
            continue
        delta = 1
        for d in claim.pn_delta:
            delta *= legendre(d, p)
        if delta == 0:
            continue
        partials: Dict[int, Fraction] = {}

        def s_upto(count: int) -> Fraction:
            if count not in partials:
                partials[count] = truncated_sum_exact(claim.spec, count - 1)
            return partials[count]

        for n in range(1, n_max + 1):
            diff = s_upto(p * n) - p * delta * s_upto(n)
            vpn = 0
            nn = n
            while nn % p == 0:
                nn //= p
                vpn += 1
            need = 2 + 2 * vpn
            v = padic_valuation(diff, p)
            report.checked.append((p, n))
            if v is None:
                continue
            margin = v - need
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
    M^(n-1-k) a_k is a positive integer, odd exactly when n is a power of
    two.  The exponent rule e is selected by ``div_exp``."""

    ident: str
    weight: Tuple[int, ...]
    seq: Tuple[Tuple[object, int], ...]
    base: int                    # M
    div: int = 1
    alt: bool = False            # include a (-1)^k factor in the summand
    odd_iff_pow2: bool = True
    positive: bool = True
    mul: int = 1
    div_base: int = 1
    div_exp: str = "none"
    odd_set: Optional[str] = None   # overrides odd_iff_pow2 when set
    n_min: int = 1                  # smallest n the claim covers

    def __post_init__(self):
        if self.div_exp not in DIV_EXPS:
            raise ValueError(f"unknown divisor exponent rule {self.div_exp}")
        if self.odd_set is not None and self.odd_set not in ODD_SETS:
            raise ValueError(f"unknown odd-set rule {self.odd_set}")

    def value(self, n: int) -> Fraction:
        tables = [(seqkit.rows(kind, n - 1), e) for kind, e in self.seq]
        total = 0
        for k in range(n):
            t = sum(c * k ** i for i, c in enumerate(self.weight))
            for tab, e in tables:
                t *= int(tab[k]) ** e
            if self.alt and k % 2 == 1:
                t = -t
            total += t * self.base ** (n - 1 - k)
        e = DIV_EXPS[self.div_exp](n)
        return Fraction(total * self.mul, self.div * n * self.div_base ** e)


@dataclass
class IntegralityReport:
    ident: str
    n_max: int
    failures: List[Tuple[int, str]]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_integrality(claim: IntegralityClaim, n_max: int = 128) -> IntegralityReport:
    report = IntegralityReport(claim.ident, n_max, [])
    for n in range(max(1, claim.n_min), n_max + 1):
        v = claim.value(n)
        if v.denominator != 1:
            report.failures.append((n, "not an integer"))
            continue
        iv = int(v)
        if claim.positive and iv <= 0:
            report.failures.append((n, "not positive"))
        if claim.odd_set is not None:
            if (iv % 2 == 1) != ODD_SETS[claim.odd_set](n):
                report.failures.append((n, "parity mismatch"))
        elif claim.odd_iff_pow2:
            if (iv % 2 == 1) != _is_pow2(n):
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
    for p in primes_upto(p_max):
        if p < 5 or claim.d % p == 0 or claim.D % p == 0 or claim.m % p == 0:
            continue
        lhs = truncated_sum_mod(spec_m, p - 1, p, 2)
        rhs0 = truncated_sum_mod(spec_dual, p - 1, p, 2)
        if lhs == NONINTEGRAL or rhs0 == NONINTEGRAL:
            report.failures.append((p, lhs, rhs0))
            report.tested.append(p)
            continue
        rhs = legendre(claim.d, p) * rhs0 % p ** 2
        report.tested.append(p)
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

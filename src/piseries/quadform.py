"""Binary quadratic form case tables.

A case table maps a prime p to a closed-form value determined by a
representation mu*p = a*x^2 + d*y^2.  Each case is selected by a guard
(Legendre symbol values and/or residue classes of p), the
representation is found by exhaustive search, a normalization rule picks
admissible sign choices, and an affine template in {x^2, xy, p} with an
optional parity sign factor produces the value.

Case selection is decided by p mod L, where L is the lcm of 4, of 4|d|
for each guard symbol (d|p) and of N for each guard ``mod(N)``: at a
prime p not dividing L, (d|p) depends only on p mod 4|d| by quadratic
reciprocity, so every guard depends only on p mod L.  Each table holds,
built once on first use, one mask per case over the residues 0..L-1, the
classes prime to L where its guard holds.  A symbol's mask is the product
of the masks of its factors f = -1, 2 or an odd prime q of odd exponent,
each over the residues mod 4|f| and read at one prime of each class by
``congruence.symbol``, then repeated up to L.  ``dispatch`` reads its case
at p mod L; ``check_partition`` proves by ``once``/``twice`` bit algebra
over the masks that exactly one guard holds in each class, which by
Dirichlet's theorem is exactly one at every prime p not dividing L, and
tests the few admissible primes that divide L by ``congruence.symbol``.
A claim's ``sym-factor`` is read prime by prime by ``congruence.symbol``.
A table admits odd primes only: the characters have no value at p = 2, so
a ``min_p`` that admits 2 without excluding it is a ``ValueError``.  A
claim tests the primes that ``congruence.tested_primes`` gives.  The
template must give the same value for every admissible representative;
dispatch verifies this invariance for each prime it touches.  Each case
holds its template as integer coefficients over one common denominator,
built once, so a value is an integer numerator over that denominator and
is reduced mod p^2 with one modular inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import gcd, isqrt, lcm
from typing import List, Optional, Tuple

from . import congruence as cg
from .sereval import TermSpec

__all__ = [
    "Guard",
    "QuadFormCase",
    "QuadFormTable",
    "represent",
    "normalize",
    "dispatch",
    "DispatchResult",
    "QuadFormClaim",
    "verify_quadform_claim",
    "check_partition",
    "PartitionReport",
    "NO_CASE",
    "NO_REPRESENTATION",
    "AMBIGUOUS",
]

NO_CASE = "NO_CASE"
NO_REPRESENTATION = "NO_REPRESENTATION"
AMBIGUOUS = "AMBIGUOUS"

#: The largest guard modulus L a table may have.  The masks are L-bit
#: integers; building them reads one prime of each class mod 4|f| for each
#: symbol factor f, and 4|f| divides L, and the proof names each failing
#: class by its least prime.  Near the bound that costs at most about
#: 25 ms per table (L = 9908 from the factor 2477, half its classes
#: failing; Python 3.11 on a 2-vCPU VM), against about 2 ms for all 47
#: bundled tables (L <= 1848).
MAX_MODULUS = 10_000

NORMALIZATIONS = (
    "XY_NONNEG",        # x >= 0, y >= 0
    "X_NOT_DIV_3",      # x >= 0 with 3 not dividing x, y >= 0
    "X_MINUS_Y_DIV_3",  # signed pair with 3 | x - y
    "Y_HALF_PARITY",    # x, y >= 0 with y even; sign factor (-1)^(y/2)
    "XY_HALF_PARITY",   # x, y odd with xy > 0; sign factor (-1)^((xy-1)/2)
)


@dataclass(frozen=True)
class Guard:
    """Conjunction of symbol values and residue classes of p."""

    syms: Tuple[Tuple[int, int], ...] = ()    # (d, v): (d|p) == v
    mods: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()  # (N, residues)

    def __post_init__(self):
        if any(d == 0 for d, _ in self.syms):
            raise ValueError("guard symbol (0|p) is 0 at every prime")
        for n, residues in self.mods:
            if n < 1 or not all(0 <= r < n for r in residues):
                raise ValueError(f"guard mod({n}) has a residue not below {n}")


@dataclass(frozen=True)
class QuadFormCase:
    guard: Guard
    zero: bool = False          # inert case: value 0, no representation
    mu: int = 1                 # mu*p = a x^2 + d y^2
    a: int = 1
    d: int = 1
    norm: str = "XY_NONNEG"
    sign: str = "NONE"          # NONE | Y_HALF ((-1)^(y/2)) | XY_HALF
    x2: Fraction = Fraction(0)  # template coefficients
    xy: Fraction = Fraction(0)
    p_coef: Fraction = Fraction(0)
    #: (x2, xy, p_coef) times ``den``, the least common denominator
    template: Tuple[int, int, int] = field(init=False, repr=False,
                                          compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = (self.x2, self.xy, self.p_coef)
        den = lcm(*(Fraction(c).denominator for c in coeffs))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "template", tuple(
            int(c * den) for c in coeffs))
        if self.norm not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.norm}")
        if self.mu not in (1, 2, 4):
            raise ValueError(f"mu must be 1, 2 or 4, got {self.mu}")
        if self.a < 1 or self.d < 1:
            raise ValueError(f"a = {self.a} and d = {self.d} must be"
                             " positive")
        if self.sign == "Y_HALF" and self.norm != "Y_HALF_PARITY":
            raise ValueError("Y_HALF sign needs the y-even normalization")
        if self.sign == "XY_HALF" and self.norm != "XY_HALF_PARITY":
            raise ValueError("XY_HALF sign needs the odd-xy normalization")
        if self.sign not in ("NONE", "Y_HALF", "XY_HALF"):
            raise ValueError(f"unknown sign rule {self.sign}")


def _primes_dividing(n: int) -> List[int]:
    """The primes dividing n > 0, by trial division."""
    out, q = [], 2
    while q * q <= n:
        out += [q] * (n % q == 0)
        while n % q == 0:
            n //= q
        q += 1
    return out + [n] * (n > 1)


def _least_primes(residues: List[int], m: int, lo: int = 0,
                  skip: Tuple[int, ...] = ()) -> List[int]:
    """The least prime p >= lo, not in ``skip``, with p = r mod m, for each
    r of ``residues``, each prime to m (Dirichlet's theorem gives one):
    one sieve, doubled until it holds them all.  A residue that is not
    prime to m is a ValueError, not a sieve doubled without end."""
    if any(gcd(r, m) != 1 for r in residues):
        raise ValueError(f"a residue not prime to {m} holds no prime")
    starts = [lo + (r - lo) % m for r in residues]
    bound = 1 << (32 * m + lo).bit_length()   # a few shared sieves
    while True:
        flags = bytearray(cg.sieve(bound))
        for q in skip:   # an excluded prime is no candidate
            flags[q:q + 1] = b"\0" * (q <= bound)
        hits = [flags[s::m].find(1) for s in starts]
        if -1 not in hits:
            return [s + m * i for s, i in zip(starts, hits)]
        bound *= 2


def _repeat(mask: int, m: int, L: int) -> int:
    """A mask over the residues mod m, repeated over the residues mod L
    (m divides L)."""
    return mask * (((1 << L) - 1) // ((1 << m) - 1))


@lru_cache(maxsize=None)   # one entry per -1, 2 and odd prime of a guard
def _negative(f: int) -> int:
    """The mask over the residues mod 4|f| of the classes of odd primes p
    where (f|p) = -1, for f = -1, 2 or an odd prime; read at the least
    prime of each class prime to 4|f| by ``congruence.symbol``."""
    units = [r for r in range(1, 4 * abs(f), 2) if gcd(r, 4 * f) == 1]
    return sum(1 << r for r, p in zip(units, _least_primes(units, 4 * abs(f)))
               if cg.symbol((f,), p) == -1)


@dataclass(frozen=True)
class QuadFormTable:
    """A case table over the odd primes p >= ``min_p`` not in ``exclude``."""

    ident: str
    cases: Tuple[QuadFormCase, ...]
    min_p: int = 5
    exclude: Tuple[int, ...] = ()
    sym_factor: Tuple[int, ...] = ()  # (d, ...): prod (d|p) multiplies the sum
    #: L: at a prime p not dividing L, every guard depends on p mod L only
    modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.min_p <= 2 and 2 not in self.exclude:
            raise ValueError(f"table {self.ident}: min_p {self.min_p} admits"
                             " p = 2, which has no quadratic character")
        L = lcm(4, *(4 * abs(d) for c in self.cases for d, _ in c.guard.syms),
                *(n for c in self.cases for n, _ in c.guard.mods))
        if L > MAX_MODULUS:
            raise ValueError(f"guard modulus L = {L} is above {MAX_MODULUS}")
        object.__setattr__(self, "modulus", L)

    @cached_property
    def residue_masks(self) -> Tuple[int, ...]:
        """One bitset per case over the residues mod L, set at the classes
        where its guard holds; only the classes prime to L are read.  The
        classes where (d|p) = -1 are those where an odd number of the prime
        factors of d, counted with multiplicity, and of -1 for d < 0, have
        the value -1."""
        L = self.modulus
        primes = _primes_dividing(L)    # every prime factor of every d
        negs, masks = {}, []    # negs: d -> the classes where (d|p) = -1
        for case in self.cases:
            m = (1 << L) - 1
            for d, v in case.guard.syms:
                if d not in negs:
                    neg, n = _repeat(_negative(-1), 4, L) if d < 0 else 0, d
                    for q in primes:
                        while n % q == 0:
                            n //= q
                            neg ^= _repeat(_negative(q), 4 * q, L)
                    negs[d] = neg
                m &= {-1: negs[d], 1: ~negs[d]}.get(v, 0)
            for n, residues in case.guard.mods:
                m &= _repeat(sum(1 << r for r in set(residues)), n, L)
            masks.append(m)
        return tuple(masks)

    def holding(self, p: int) -> List[int]:
        """The indices of the cases whose guards hold at the odd prime p:
        read at p mod L, or by ``congruence.symbol`` for a p dividing L."""
        if self.modulus % p:
            bit = 1 << p % self.modulus
            return [i for i, m in enumerate(self.residue_masks) if m & bit]
        return [i for i, c in enumerate(self.cases)
                if all(cg.symbol((d,), p) == v for d, v in c.guard.syms)
                and all(p % n in rs for n, rs in c.guard.mods)]


def represent(mu: int, a: int, d: int, p: int) -> List[Tuple[int, int]]:
    """All (x, y) with x, y >= 0 and mu*p = a*x^2 + d*y^2, by exhaustion;
    ValueError unless a and d are positive."""
    if a <= 0 or d <= 0:
        raise ValueError(f"a = {a} and d = {d} must be positive")
    target = mu * p
    out = []
    y = 0
    while d * y * y <= target:
        r = target - d * y * y
        if r % a == 0:
            q = r // a
            x = isqrt(q)
            if x * x == q:
                out.append((x, y))
        y += 1
    return out


def normalize(solutions: List[Tuple[int, int]],
              norm: str) -> List[Tuple[int, int]]:
    """Admissible signed representatives under the given rule."""
    signed = set()
    for x, y in solutions:
        for sx in (1, -1):
            for sy in (1, -1):
                signed.add((sx * x, sy * y))
    out = []
    for x, y in sorted(signed):
        if norm == "XY_NONNEG":
            ok = x >= 0 and y >= 0
        elif norm == "X_NOT_DIV_3":
            ok = x >= 0 and y >= 0 and x % 3 != 0
        elif norm == "X_MINUS_Y_DIV_3":
            ok = (x - y) % 3 == 0
        elif norm == "Y_HALF_PARITY":
            ok = x >= 0 and y >= 0 and y % 2 == 0
        elif norm == "XY_HALF_PARITY":
            ok = x % 2 != 0 and y % 2 != 0 and x * y > 0
        else:  # pragma: no cover - rejected in QuadFormCase
            raise ValueError(norm)
        if ok:
            out.append((x, y))
    return out


def _template_value(case: QuadFormCase, x: int, y: int, p: int) -> int:
    """The template at (x, y, p) times the case's ``den``."""
    x2, xy, pc = case.template
    v = x2 * x * x + xy * x * y + pc * p
    if case.sign == "Y_HALF":
        v *= (-1) ** ((y // 2) % 2)
    elif case.sign == "XY_HALF":
        v *= (-1) ** (((x * y - 1) // 2) % 2)
    return v


@dataclass
class DispatchResult:
    p: int
    num: Optional[int]          # the table value is num / den
    error: Optional[str] = None
    case_index: Optional[int] = None
    den: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def dispatch(table: QuadFormTable, p: int) -> DispatchResult:
    """Value of the table at p, verifying template invariance.  The case
    is read at p mod L (``QuadFormTable.holding``); ValueError for p = 2 or
    a p that is not prime."""
    q = 3   # trial division: q stops at a divisor or past sqrt(p)
    while p % 2 and q * q <= p and p % q:
        q += 2
    if p < 3 or p % 2 == 0 or q * q <= p:
        raise ValueError(f"p = {p} is not an odd prime")
    matches = table.holding(p)
    if len(matches) != 1:
        return DispatchResult(p, None, NO_CASE)
    idx = matches[0]
    case = table.cases[idx]
    if case.zero:
        return DispatchResult(p, 0, case_index=idx)
    reps = normalize(represent(case.mu, case.a, case.d, p), case.norm)
    if not reps:
        return DispatchResult(p, None, NO_REPRESENTATION, idx)
    values = {_template_value(case, x, y, p) for x, y in reps}
    if len(values) != 1:
        return DispatchResult(p, None, AMBIGUOUS, idx)
    return DispatchResult(p, values.pop(), case_index=idx, den=case.den)


@dataclass(frozen=True)
class QuadFormClaim:
    """Truncated sum congruent mod p^2 to the table value."""

    ident: str
    spec: TermSpec
    table: QuadFormTable


def verify_quadform_claim(claim: QuadFormClaim, p_max: int) -> cg.ClaimReport:
    """Rows (p, lhs, rhs) at the table's primes p <= p_max that are prime
    to the base and to the symbol factor's d: the truncated sum and the
    table's value times the symbol factor modulo p^2 (None when that is
    not a p-adic integer), or (p, error, None) where the table dispatches
    to no one value."""
    spec, table = claim.spec, claim.table
    primes = cg.tested_primes(p_max, table.min_p, table.exclude,
                              (spec.m.numerator, spec.m.denominator,
                               *table.sym_factor))
    sums = cg.truncated_residues(spec, {p: p - 1 for p in primes}, 2)
    rows = []
    for p in primes:
        res = dispatch(table, p)
        if not res.ok:
            rows.append((p, res.error, None))
            continue
        factor = cg.symbol(table.sym_factor, p)
        rhs = cg._residue(factor * res.num, res.den, p, 2)
        rows.append((p, sums[p], None if rhs == cg.NONINTEGRAL else rhs))
    return cg.ClaimReport.of(claim.ident, rows)


@dataclass
class PartitionReport:
    """The proof that exactly one guard of a table holds at every
    admissible prime: over the residue classes mod ``modulus`` prime to it,
    and at ``primes``, the admissible primes that divide it.
    A failure (p, n, 1) is a prime where n != 1 guards hold: the least
    admissible prime of a failing class, or one of ``primes``."""

    ident: str
    modulus: int
    primes: List[int]
    failures: List[Tuple[int, int, int]]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_partition(table: QuadFormTable) -> PartitionReport:
    """Exactly one guard must hold at each of the table's primes.

    Over the table's case masks, ``once`` collects the classes where some
    guard holds and ``twice`` those where a second one does; the classes
    prime to L outside ``once & ~twice`` fail.  By Dirichlet's theorem
    each holds primes, and the least admissible one names it.  The
    admissible primes that divide L are tested one by one."""
    L = table.modulus
    primes = _primes_dividing(L)
    units = reduce(lambda u, q: u & ~_repeat(1, q, L), primes, (1 << L) - 1)
    once = twice = 0
    for m in table.residue_masks:
        twice |= once & m
        once |= m
    bad = units & ~(once & ~twice)
    divisors = [q for q in primes
                if q >= table.min_p and q not in table.exclude]
    named = _least_primes([r for r in range(L) if bad >> r & 1], L,
                          table.min_p, table.exclude) if bad else []
    counts = [(p, len(table.holding(p)), 1) for p in divisors + named]
    return PartitionReport(table.ident, L, divisors,
                           sorted(c for c in counts if c[1] != 1))

"""Binary quadratic form case tables.

A case table maps a prime p to a closed-form value determined by a
representation mu*p = a*x^2 + d*y^2.  Each case is selected by a guard
(Legendre/Jacobi symbol values and/or residue classes of p), the
representation is found by exhaustive search, a normalization rule picks
admissible sign choices, and an affine template in {x^2, xy, p} with an
optional parity sign factor produces the value.  The template must give
the same value for every admissible representative; dispatch verifies
this invariance for each prime it touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
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
    "NO_CASE",
    "NO_REPRESENTATION",
    "AMBIGUOUS",
]

NO_CASE = "NO_CASE"
NO_REPRESENTATION = "NO_REPRESENTATION"
AMBIGUOUS = "AMBIGUOUS"

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
    syms_p: Tuple[Tuple[int, int], ...] = ()  # (d, v): (p|d) == v
    mods: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()  # (N, residues)

    def holds(self, p: int) -> bool:
        for d, v in self.syms:
            if cg.legendre(d, p) != v:
                return False
        for d, v in self.syms_p:
            if cg.jacobi(p, d) != v:
                return False
        for n, residues in self.mods:
            if p % n not in residues:
                return False
        return True


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

    def __post_init__(self):
        if self.norm not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.norm}")
        if self.mu not in (1, 2, 4):
            raise ValueError(f"mu must be 1, 2 or 4, got {self.mu}")
        if self.sign == "Y_HALF" and self.norm != "Y_HALF_PARITY":
            raise ValueError("Y_HALF sign needs the y-even normalization")
        if self.sign == "XY_HALF" and self.norm != "XY_HALF_PARITY":
            raise ValueError("XY_HALF sign needs the odd-xy normalization")
        if self.sign not in ("NONE", "Y_HALF", "XY_HALF"):
            raise ValueError(f"unknown sign rule {self.sign}")


@dataclass(frozen=True)
class QuadFormTable:
    ident: str
    cases: Tuple[QuadFormCase, ...]
    min_p: int = 5
    exclude: Tuple[int, ...] = ()
    sym_factor: Tuple[int, ...] = ()  # (d, ...): prod (d|p) multiplies the sum


def represent(mu: int, a: int, d: int, p: int) -> List[Tuple[int, int]]:
    """All (x, y) with x, y >= 0 and mu*p = a*x^2 + d*y^2, by exhaustion."""
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


def _template_value(case: QuadFormCase, x: int, y: int,
                    p: int) -> Fraction:
    v = case.x2 * x * x + case.xy * x * y + case.p_coef * p
    if case.sign == "Y_HALF":
        v *= (-1) ** ((y // 2) % 2)
    elif case.sign == "XY_HALF":
        v *= (-1) ** (((x * y - 1) // 2) % 2)
    return v


@dataclass
class DispatchResult:
    p: int
    value: Optional[Fraction]
    error: Optional[str] = None
    case_index: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def dispatch(table: QuadFormTable, p: int) -> DispatchResult:
    """Value of the table at p, verifying template invariance."""
    matches = [(i, c) for i, c in enumerate(table.cases) if c.guard.holds(p)]
    if len(matches) != 1:
        return DispatchResult(p, None, NO_CASE)
    idx, case = matches[0]
    if case.zero:
        return DispatchResult(p, Fraction(0), case_index=idx)
    reps = normalize(represent(case.mu, case.a, case.d, p), case.norm)
    if not reps:
        return DispatchResult(p, None, NO_REPRESENTATION, idx)
    values = {_template_value(case, x, y, p) for x, y in reps}
    if len(values) != 1:
        return DispatchResult(p, None, AMBIGUOUS, idx)
    return DispatchResult(p, values.pop(), case_index=idx)


@dataclass(frozen=True)
class QuadFormClaim:
    """Truncated sum congruent mod p^2 to the table value."""

    ident: str
    spec: TermSpec
    table: QuadFormTable


def verify_quadform_claim(claim: QuadFormClaim, p_max: int) -> cg.ClaimReport:
    report = cg.ClaimReport(claim.ident, [], [])
    spec, table = claim.spec, claim.table
    primes = [p for p in cg.primes_upto(p_max)
              if p >= table.min_p and p not in table.exclude
              and spec.m.numerator % p and spec.m.denominator % p
              and all(d % p for d in table.sym_factor)]
    sums = cg.truncated_residues(spec, {p: p - 1 for p in primes}, 2)
    for p in primes:
        res = dispatch(table, p)
        report.tested.append(p)
        if not res.ok:
            report.failures.append((p, res.error, None))
            continue
        factor = 1
        for d in table.sym_factor:
            factor *= cg.legendre(d, p)
        rhs = cg.fraction_mod(factor * res.value, p, 2)
        if rhs is None or sums[p] != rhs:
            report.failures.append((p, sums[p], rhs))
    return report


def check_partition(table: QuadFormTable, p_max: int = 1000) -> cg.ClaimReport:
    """Exactly one guard must hold for every admissible prime <= p_max."""
    report = cg.ClaimReport(table.ident, [], [])
    for p in cg.primes_upto(p_max):
        if p < table.min_p or p in table.exclude:
            continue
        n = sum(1 for c in table.cases if c.guard.holds(p))
        report.tested.append(p)
        if n != 1:
            report.failures.append((p, n, 1))
    return report

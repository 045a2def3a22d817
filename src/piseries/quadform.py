"""Binary quadratic form case tables.

A case table maps a prime p to a closed-form value determined by a
representation mu*p = a*x^2 + d*y^2.  Each case is selected by a guard
(Legendre symbol values and/or residue classes of p), the
representation is found by exhaustive search, a normalization rule picks
admissible sign choices, and an affine template in {x^2, xy, p} with an
optional parity sign factor produces the value.

Case selection is read off bitsets over the odd primes of the
process-wide ``congruence.Characters`` table: each case's guard becomes
one mask, the primes where it holds, built once per table and table size
(``QuadFormTable.case_masks``).  ``dispatch`` takes its case from the
masks; ``check_partition`` checks that exactly one guard holds by
``once``/``twice`` bit algebra over them; a claim's ``sym-factor`` is
read prime by prime by ``congruence.symbol``.  A table admits odd primes
only: the characters have no value at p = 2, so a ``min_p`` that admits
2 without excluding it is a ``ValueError``.  Both checks test the primes
that ``congruence.tested_primes`` gives.  The template must
give the same value for every admissible representative; dispatch
verifies this invariance for each prime it touches.  Each case holds its
template as integer coefficients over one common denominator, built once,
so a value is an integer numerator over that denominator and is reduced
mod p^2 with one modular inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm
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
    mods: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()  # (N, residues)

    def mask(self, chars: cg.Characters) -> int:
        """The mask of the primes of ``chars`` where the guard holds."""
        m = chars.full
        for d, v in self.syms:
            m &= chars.holds(chars.legendre(d), v)
        for n, residues in self.mods:
            m &= chars.residues(n, residues)
        return m


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


@dataclass(frozen=True)
class QuadFormTable:
    """A case table over the odd primes p >= ``min_p`` not in ``exclude``."""

    ident: str
    cases: Tuple[QuadFormCase, ...]
    min_p: int = 5
    exclude: Tuple[int, ...] = ()
    sym_factor: Tuple[int, ...] = ()  # (d, ...): prod (d|p) multiplies the sum
    # one slot: (character table, one guard mask per case), read and
    # replaced whole, so that threads sharing the table see a matching pair
    _masks: list = field(init=False, default_factory=lambda: [(None, ())],
                         compare=False, repr=False)

    def __post_init__(self):
        if self.min_p <= 2 and 2 not in self.exclude:
            raise ValueError(f"table {self.ident}: min_p {self.min_p} admits"
                             " p = 2, which has no quadratic character")

    def case_masks(self, chars: cg.Characters) -> Tuple[int, ...]:
        """The mask of each case's guard over ``chars``, built once per
        character table."""
        built, masks = self._masks[0]
        if built is not chars:
            masks = tuple(c.guard.mask(chars) for c in self.cases)
            self._masks[0] = (chars, masks)
        return masks


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
    is read off the table's case masks; ValueError for p = 2 or a p that
    is not prime, which the masks do not index."""
    chars = cg.characters(p)
    i = chars.bit.get(p)
    if i is None:
        raise ValueError(f"p = {p} is not an odd prime")
    matches = [j for j, m in enumerate(table.case_masks(chars))
               if m >> i & 1]
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


def check_partition(table: QuadFormTable, p_max: int = 1000) -> cg.ClaimReport:
    """Exactly one guard must hold at each of the table's primes <= p_max.

    Over the table's case masks, ``once`` collects the primes where some
    guard holds and ``twice`` those where a second one does; the primes
    outside ``once & ~twice`` fail, and only for them are the guards that
    hold counted."""
    report = cg.ClaimReport(
        table.ident, cg.tested_primes(p_max, table.min_p, table.exclude), [])
    chars = cg.characters(p_max)
    masks = table.case_masks(chars)
    once = twice = 0
    for m in masks:
        twice |= once & m
        once |= m
    exactly_one = once & ~twice
    for p in report.tested:
        i = chars.bit[p]
        if not exactly_one >> i & 1:
            report.failures.append((p, sum(m >> i & 1 for m in masks), 1))
    return report

"""Integer-relation discovery with certified residuals.

The PSLQ search itself runs in floating point (mpmath, whose lattice
reduction uses the standard gamma = 2/sqrt(3)), but a relation is only
reported as FOUND after its residual has been re-evaluated in exact ball
arithmetic and shown to be below the detection threshold
10^-(digits-15).  A NONE answer carries the norm bound that was
excluded; if the input balls are too wide to support the threshold the
search is refused with PRECISION_EXHAUSTED.

mpmath is imported on the first :func:`pslq` call, not with this module,
so a process that never searches for a relation never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import sereval
from .sereval import Ball, RHSForm, SeriesIdentity, TermSpec

__all__ = [
    "PSLQResult",
    "pslq",
    "certify",
    "Candidate",
    "rediscover",
    "FOUND",
    "NONE",
    "PRECISION_EXHAUSTED",
]

FOUND = "FOUND"
NONE = "NONE"
PRECISION_EXHAUSTED = "PRECISION_EXHAUSTED"


@dataclass
class PSLQResult:
    status: str
    coeffs: Optional[Tuple[int, ...]] = None
    bound: Optional[int] = None          # excluded max-norm when NONE
    residual: Optional[Ball] = None


def _residual(values: Sequence[Ball], coeffs: Sequence[int]) -> Ball:
    total = Ball.exact(Fraction(0))
    for c, v in zip(coeffs, values):
        total = total + v * Ball.exact(Fraction(c))
    return total


#: Fewest digits a search runs at: its threshold 10^-(digits-15) must be
#: below 1.
MIN_DIGITS = 16


def _threshold(digits: int) -> Fraction:
    """The detection threshold 10^-(digits-15)."""
    if digits < MIN_DIGITS:
        raise ValueError(f"digits must be >= {MIN_DIGITS}, got {digits}")
    return Fraction(1, 10 ** (digits - 15))


def certify(values: Sequence[Ball], coeffs: Sequence[int],
            digits: int) -> Tuple[bool, Ball]:
    """Ball-arithmetic check that the relation holds to the threshold."""
    res = _residual(values, coeffs)
    return res.abs_upper() < _threshold(digits), res


def pslq(values: Sequence[Ball], max_norm: int,
         digits: int = 80) -> PSLQResult:
    """Search for small integer coefficients with sum c_i v_i = 0.

    The search runs on the ball midpoints; any candidate is certified on
    the balls themselves before being reported FOUND.
    """
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values")
    if max_norm < 1:
        raise ValueError(f"max_norm must be >= 1, got {max_norm}")
    threshold = _threshold(digits)
    # the balls must be tight enough that a true relation's residual can
    # actually get below the threshold
    budget = threshold / (n * max_norm)
    if any(v.rad > budget for v in values):
        return PSLQResult(PRECISION_EXHAUSTED)
    import mpmath
    with mpmath.workdps(digits + 10):
        mids = [mpmath.mpf(v.mid.numerator) / v.mid.denominator
                for v in values]
        coeffs = mpmath.pslq(mids, tol=mpmath.mpf(10) ** (-(digits - 10)),
                             maxcoeff=max_norm, maxsteps=10000)
    if coeffs is None:
        return PSLQResult(NONE, bound=max_norm)
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    if g > 1:
        coeffs = [c // g for c in coeffs]
    for i, c in enumerate(coeffs):
        if c != 0:
            if c < 0:
                coeffs = [-c for c in coeffs]
            break
    ok, res = certify(values, coeffs, digits)
    if not ok:
        return PSLQResult(PRECISION_EXHAUSTED, residual=res)
    return PSLQResult(FOUND, coeffs=tuple(int(c) for c in coeffs),
                      residual=res)


@dataclass
class Candidate:
    identity: SeriesIdentity
    coeffs: Tuple[int, ...]
    search: PSLQResult
    verification: Optional[sereval.SeriesReport] = None

    @property
    def confirmed(self) -> bool:
        return self.verification is not None and self.verification.passed


def rediscover(spec: TermSpec, basis: Sequence[Tuple[int, str]],
               digits: int = 80, max_norm: int = 10 ** 6,
               degree: int = 1) -> Optional[Candidate]:
    """Rediscover a closed form for a family of weighted sums.

    ``spec`` fixes the unweighted term (its weight field is ignored);
    the search runs over the moment sums with weights k^degree, ..., k, 1,
    all summed from one pass over the terms (:func:`sereval.eval_weighted`),
    together with the basis values sqrt(d) * <named constant>.  A FOUND
    relation is turned into a weighted identity and re-verified from
    scratch at 1.5x the search precision.  Raises ``ValueError`` below
    ``MIN_DIGITS`` digits, for ``max_norm < 1`` or for ``degree < 0``,
    before any series is summed.
    """
    _threshold(digits)
    if max_norm < 1:
        raise ValueError(f"max_norm must be >= 1, got {max_norm}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    weights = [tuple(1 if i == j else 0 for i in range(degree + 1))
               for j in range(degree, -1, -1)]
    moments: List[Ball] = [
        ball for ball, _ in sereval.eval_weighted(spec, weights, digits)]
    for d, name in basis:
        moments.append(sereval.eval_rhs(
            RHSForm(addends=((Fraction(1), d, name),)), digits))
    result = pslq(moments, max_norm, digits)
    if result.status != FOUND:
        return None
    coeffs = result.coeffs
    weight = tuple(coeffs[degree - j] for j in range(degree + 1))
    addends = tuple(
        (Fraction(-coeffs[degree + 1 + i]), d, name)
        for i, (d, name) in enumerate(basis)
        if coeffs[degree + 1 + i] != 0)
    ident = SeriesIdentity(
        ident="pslq-candidate",
        spec=TermSpec(weight=weight, den=spec.den, seq=spec.seq,
                      m=spec.m, k0=spec.k0),
        rhs=RHSForm(addends=addends))
    verify_digits = digits + digits // 2
    report = sereval.verify_series_identity(ident, verify_digits)
    return Candidate(ident, coeffs, result, report)

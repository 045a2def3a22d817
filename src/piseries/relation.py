"""Integer-relation discovery with certified residuals.

The search is PSLQ (Ferguson, Bailey & Arno, Math. Comp. 68, 1999) in
fixed point, on integers only.  Each ball midpoint is scaled by 2^P, with
P at least ``digits + 10`` decimal digits plus 64 guard bits.  H and y
are lists of ints at that scale, and B, whose columns are the candidate
relations, is an integer matrix (its inverse A is never needed).  The
steps are the usual ones: gamma = sqrt(4/3), a row exchange at the
largest gamma^j |H_jj|, a corner rotation, and Hermite reduction with
nearest-integer multipliers.  A search ends

* FOUND when some |y_j| is below the tolerance 10^-(digits-10) and the
  matching column of B has max norm at most ``max_norm``; the column,
  divided by its gcd and with its first nonzero entry made positive, is
  reported only after its residual has been certified in exact ball
  arithmetic below 10^-(digits-15) (:func:`certify`);
* NONE only when the norm bound 1/max_j |H_jj| of PSLQ exceeds
  sqrt(n) * max_norm: every relation has Euclidean norm at least that
  bound, so none has max norm within ``max_norm`` (``bound`` is then
  ``max_norm``);
* PRECISION_EXHAUSTED when the input balls are too wide for the
  threshold, when a pivot of H becomes zero, when the step cap runs out,
  when the only relations detected exceed ``max_norm`` (the norm bound
  no longer holds once x is singular to working precision), or when a
  candidate fails its certificate.

The residual of a relation is exact: the balls are dyadic, so their
midpoints and radii are aligned at the finest binary exponent by shifts
and summed as integers.

:func:`rediscover` searches on moment sums evaluated at ``digits`` and
re-verifies only a FOUND relation, at 1.5x the digits.  On the direct path
(envelope ratio theta < 1) the moments are summed in one pass to one N and
floored at the verification's finer scale (:class:`sereval.Moments`),
so the verification continues that pass: it reads the terms past N only.
For a term without denominator factors, num(k) / a^k with a the
numerator of |m|, neither pass divides a term before its columns are
cut: each moment is one exact running integer P_j <- a P_j + k^j num(k),
the relation's sum continues sum c_j P_j the same way, and each is
floored once; the terms of cut blocks, and every term with denominator
factors, are floored one by one.
On the Euler path (theta = 1) the transform's weights depend on N, so the
relation's series is summed again by :func:`sereval.verify_series_identity`.
:func:`rediscover_each` runs it over several bases on one set of moments
and says why a basis gave no candidate.
The module needs nothing outside the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count
from math import ceil, gcd, isqrt, log2
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import sereval
from .sereval import Ball, RHSForm, SeriesIdentity, TermSpec

__all__ = [
    "PSLQResult",
    "pslq",
    "certify",
    "Candidate",
    "rediscover",
    "rediscover_each",
    "FOUND",
    "NONE",
    "PRECISION_EXHAUSTED",
    "NOT_SEARCHED",
]

FOUND = "FOUND"
NONE = "NONE"
PRECISION_EXHAUSTED = "PRECISION_EXHAUSTED"
#: no search ran: every term past the first is below the search precision
NOT_SEARCHED = "NOT_SEARCHED"


@dataclass
class PSLQResult:
    status: str
    coeffs: Optional[Tuple[int, ...]] = None
    bound: Optional[int] = None          # excluded max-norm when NONE
    residual: Optional[Ball] = None


def _residual(values: Sequence[Ball], coeffs: Sequence[int]) -> Ball:
    """The ball sum c_i v_i, exactly: each midpoint and radius is shifted
    to the finest exponent e of the values, and the midpoints are summed
    with the coefficients c_i, the radii with |c_i|."""
    e = max(v.exp for v in values)
    return Ball(sum(c * (v.mid << e - v.exp) for c, v in zip(coeffs, values)),
                sum(abs(c) * (v.rad << e - v.exp)
                    for c, v in zip(coeffs, values)), e)


#: Fewest digits a search runs at: its threshold 10^-(digits-15) must be
#: below 1.
MIN_DIGITS = 16


def _threshold(digits: int) -> int:
    """1 over the detection threshold 10^-(digits-15)."""
    if digits < MIN_DIGITS:
        raise ValueError(f"digits must be >= {MIN_DIGITS}, got {digits}")
    return 10 ** (digits - 15)


def certify(values: Sequence[Ball], coeffs: Sequence[int],
            digits: int) -> Tuple[bool, Ball]:
    """Ball-arithmetic check that the relation holds to the threshold."""
    scale = _threshold(digits)
    res = _residual(values, coeffs)
    return res.below(scale), res


#: Most PSLQ iterations one search runs before it gives up as
#: PRECISION_EXHAUSTED.
_MAX_STEPS = 10000
#: Guard bits of the fixed-point scale beyond digits + 10 decimal digits.
_PSLQ_GUARD = 64


def _hermite(rows: Iterable[Tuple[int, int]], y: List[int],
             H: List[List[int]], B: List[List[int]]) -> bool:
    """Hermite-reduce each row i of H against rows top(i), ..., 0 with
    nearest-integer multipliers t, updating y and B (kept as its
    columns) alike; False at a zero pivot, where the reduction stops."""
    for i, top in rows:
        Hi = H[i]
        for j in range(top, -1, -1):
            Hj = H[j]
            if not Hj[j]:
                return False
            t = ((Hi[j] << 1) // Hj[j] + 1) >> 1
            if t:
                y[j] += t * y[i]
                for k in range(j + 1):
                    Hi[k] -= t * Hj[k]
                B[j] = [a + t * b for a, b in zip(B[j], B[i])]
    return True


def _pslq(x: List[int], P: int, tol: int,
          max_norm: int) -> Tuple[str, Optional[List[int]]]:
    """PSLQ on the fixed-point vector x (x_i / 2^P, all |x_i| >= tol):
    FOUND with a relation of max norm at most ``max_norm``, NONE, or
    PRECISION_EXHAUSTED, as in the module docstring.  B is kept as the
    list of its columns."""
    n = len(x)
    g = isqrt((4 << 2 * P) // 3)                  # gamma = sqrt(4/3)
    gpow = [g]
    for _ in range(n - 2):
        gpow.append(gpow[-1] * g >> P)
    # s_k = |(x_k, ..., x_n)|, then y = x / s_1 and s = s / s_1
    tails, acc = [0] * n, 0
    for k in range(n - 1, -1, -1):
        acc += x[k] * x[k]
        tails[k] = isqrt(acc)
    s1 = tails[0]
    y = [(v << P) // s1 for v in x]
    s = [(v << P) // s1 for v in tails]
    B = [[int(i == j) for i in range(n)] for j in range(n)]
    H = [[0] * (n - 1) for _ in range(n)]
    for i in range(n):
        if i < n - 1:
            H[i][i] = (s[i + 1] << P) // s[i]
        for j in range(min(i, n - 1)):
            H[i][j] = (-y[i] * y[j] << P) // (s[j] * s[j + 1])
    pivots = _hermite(((i, i - 1) for i in range(1, n)), y, H, B)
    # a relation of max norm M has Euclidean norm at most sqrt(n) M
    limit = n * max_norm * max_norm
    rows = range(n - 1)
    for step in count():
        small = [i for i in range(n) if abs(y[i]) < tol]
        if small:
            # a relation is detected: x is singular to working precision
            # from here on, so the norm bound below no longer holds
            for i in small:
                if max(map(abs, B[i])) <= max_norm:
                    return FOUND, B[i]
            return PRECISION_EXHAUSTED, None
        hmax = max(abs(H[j][j]) for j in rows)
        if not pivots or not hmax or step == _MAX_STEPS:
            return PRECISION_EXHAUSTED, None
        # 1 / max |H_jj| > sqrt(n) max_norm, in integers
        if 1 << 2 * P > limit * hmax * hmax:
            return NONE, None
        m = max(rows, key=lambda i: gpow[i] * abs(H[i][i]))
        y[m], y[m + 1] = y[m + 1], y[m]
        H[m], H[m + 1] = H[m + 1], H[m]
        B[m], B[m + 1] = B[m + 1], B[m]
        if m < n - 2:
            a, b = H[m][m], H[m][m + 1]
            t0 = isqrt(a * a + b * b)
            if not t0:
                return PRECISION_EXHAUSTED, None
            t1, t2 = (a << P) // t0, (b << P) // t0
            for Hi in H[m:]:
                t3, t4 = Hi[m], Hi[m + 1]
                Hi[m] = (t1 * t3 + t2 * t4) >> P
                Hi[m + 1] = (t1 * t4 - t2 * t3) >> P
        pivots = _hermite(((i, min(i - 1, m + 1)) for i in range(m + 1, n)),
                          y, H, B)


def pslq(values: Sequence[Ball], max_norm: int,
         digits: int = 80) -> PSLQResult:
    """Search for small integer coefficients with sum c_i v_i = 0.

    The search runs on the ball midpoints, in the integer PSLQ of the
    module docstring; any candidate is certified on the balls themselves
    before being reported FOUND.  A midpoint already below the tolerance
    is its own candidate relation.
    """
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values")
    if max_norm < 1:
        raise ValueError(f"max_norm must be >= 1, got {max_norm}")
    # the balls must be tight enough that a true relation's residual can
    # actually get below the threshold: no radius above it / (n max_norm)
    scale = _threshold(digits) * n * max_norm
    if any(v.rad * scale > 1 << v.exp for v in values):
        return PSLQResult(PRECISION_EXHAUSTED)
    P = ceil((digits + 10) * log2(10)) + _PSLQ_GUARD
    tol = (1 << P) // 10 ** (digits - 10)
    # the floors of the midpoints at 2^-P
    x = [v.mid << P - v.exp if P >= v.exp else v.mid >> v.exp - P
         for v in values]
    small = min(range(n), key=lambda i: abs(x[i]))
    if abs(x[small]) < tol:
        status, coeffs = FOUND, [int(i == small) for i in range(n)]
    else:
        status, coeffs = _pslq(x, P, tol, max_norm)
    if status == NONE:
        return PSLQResult(NONE, bound=max_norm)
    if status != FOUND:
        return PSLQResult(status)
    g = gcd(*coeffs)
    coeffs = [c // g for c in coeffs]
    if next(c for c in coeffs if c) < 0:
        coeffs = [-c for c in coeffs]
    ok, res = certify(values, coeffs, digits)
    if not ok:
        return PSLQResult(PRECISION_EXHAUSTED, residual=res)
    return PSLQResult(FOUND, coeffs=tuple(coeffs), residual=res)


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

    ``spec`` fixes the unweighted term (its weight field is ignored); the
    search runs over the moment sums with weights k^degree, ..., k, 1,
    all summed from one pass over the terms (:class:`sereval.Moments`)
    at ``digits``, together with the basis values sqrt(d) * <named
    constant>.  Only a FOUND relation costs more: it is turned into a
    weighted identity and re-verified at 1.5x the search precision, by the
    gap test of :func:`sereval.verify_series_identity`.  On the direct
    path its series side continues the moments' pass, from the term after
    the last one the moments read: for a den-free term it carries the
    moments' fold, sum c_j P_j, on through the blocks that are not cut
    and floors it once; on the Euler path it is summed again by
    :func:`sereval.verify_series_identity`.
    Raises ``ValueError`` below ``MIN_DIGITS`` digits, for
    ``max_norm < 1``, for a degree outside 0..``sereval.MAX_DEGREE`` or
    for a dependent basis (see :func:`rediscover_each`), before any
    series is summed.  None when no relation was found.
    """
    found = next(rediscover_each(spec, [basis], digits, max_norm, degree))
    return found if isinstance(found, Candidate) else None


def rediscover_each(spec: TermSpec,
                    bases: Iterable[Sequence[Tuple[int, str]]],
                    digits: int = 80, max_norm: int = 10 ** 6,
                    degree: int = 1) -> Iterator[Union[Candidate, str]]:
    """:func:`rediscover` for each basis in turn, lazily: a FOUND
    relation's Candidate, confirmed or not, or else the search's NONE or
    PRECISION_EXHAUSTED.  The moments do not depend on the basis, so one
    pass over the terms serves the searches of every basis, and is sized
    for the verification of any relation of max norm up to ``max_norm``
    between them: every FOUND relation's verification continues it (on
    the direct path; see :func:`rediscover`), from the one running integer
    per moment that a den-free term folds into, and each relation's
    continuation starts from the same integers.  Raises as
    :func:`rediscover` does, at the first step; a basis is dependent when
    two of its entries have one name and radicands d, d' with d d' a
    square: the two values are then rational multiples of each other, and
    PSLQ would find that relation.

    When every moment ball contains its own first term, k0^j term(k0) for
    the weight k^j (term(k0) from :func:`sereval.term_value`), the terms
    past the first are below the search precision, and each basis yields
    NOT_SEARCHED without a search.  The balls keep the search's radius for
    this, though their midpoints are floored finer.
    """
    _threshold(digits)
    if max_norm < 1:
        raise ValueError(f"max_norm must be >= 1, got {max_norm}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree > sereval.MAX_DEGREE:
        raise ValueError(f"degree must be <= {sereval.MAX_DEGREE},"
                         f" got {degree}")
    bases = list(bases)
    for basis in bases:
        for i, (d, name) in enumerate(basis):
            for e, other in basis[:i]:
                if other == name and d * e > 0 and isqrt(d * e) ** 2 == d * e:
                    raise ValueError(
                        f"basis entries {e}*{name} and {d}*{name} are"
                        " rational multiples of each other")
    verify_digits = digits + digits // 2
    sums: Optional[sereval.Moments] = None
    for basis in bases:
        if sums is None:
            sums = sereval.Moments(spec, degree, digits, verify_digits,
                                   max_norm)
            moments = sums.balls
            # every term past the first is below the search precision: any
            # relation found would hold only numerically
            first = sereval.term_value(replace(spec, weight=(1,)), spec.k0)
            blind = all(ball.contains(*(spec.k0 ** j * first)
                                      .as_integer_ratio())
                        for j, ball in zip(range(degree, -1, -1), moments))
        if blind:
            yield NOT_SEARCHED
            continue
        values = moments + [
            sereval.eval_rhs(RHSForm(addends=((Fraction(1), d, name),)),
                             digits)
            for d, name in basis]
        result = pslq(values, max_norm, digits)
        if result.status != FOUND:
            yield result.status
            continue
        coeffs = result.coeffs
        weight = tuple(coeffs[degree - j] for j in range(degree + 1))
        addends = tuple(
            (Fraction(-coeffs[degree + 1 + i]), d, name)
            for i, (d, name) in enumerate(basis)
            if coeffs[degree + 1 + i] != 0)
        ident = SeriesIdentity(
            spec=TermSpec(weight=weight, den=spec.den, seq=spec.seq,
                          m=spec.m, k0=spec.k0),
            rhs=RHSForm(addends=addends))
        yield Candidate(ident, coeffs, result, sums.verify(ident))

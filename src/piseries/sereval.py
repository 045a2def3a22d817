"""Certified series evaluation with exact-rational ball arithmetic.

A :class:`Ball` is a midpoint/radius pair of ``Fraction`` values; the true
value is guaranteed to lie in [mid-rad, mid+rad] and every operation widens
the radius conservatively.  A series is summed in fixed point, as integers
scaled by 2^s: each term is an exact integer pair (num, den), and
``(num << s) // den`` is below its true value by less than one unit in the
last place, so ``terms * 2^-s`` added to the radius covers every rounding
(the midpoint-radius scheme of Arb, Johansson 2017).  A rigorous geometric
tail bound derived from per-sequence growth inequalities (never from sampled
ratios) covers the rest, so a reported enclosure is a proof-grade statement
about the sum.  :func:`term_value` remains the exact value of one term.

The number of terms N is chosen once per evaluation.  The envelope
|term(k)| <= P(k) theta^k and its crossover K0 (past which the envelope
falls geometrically with ratio rho = (1+theta)/2) are computed once; N is
estimated in floating-point logs from the closed form
P(N+1) theta^(N+1) / (1-rho), and then checked in exact rationals against
the target minus the rounding radius.  If the check fails N steps up until
it passes, so no float ever decides a verdict.  One pass over the terms
then gives the sum, and the exact terms N+1..K0 as well when N < K0; the
moment sums of :func:`eval_weighted` share that pass.

Closed forms are evaluated in fixed point as well.  :func:`eval_rhs` keeps
each addend q sqrt(d) basis as an integer interval lo <= value * 2^s <= hi:
sqrt(d) comes from ``isqrt``, 1/pi from 2^(2s) over the ends of pi,
products are shifted down by s, and every rounding is directed (floor for
lo, ceil for hi, the ends swapped for q < 0).  The named constants pi, G,
K and log 3 are held as one such enclosure each for the whole process, at
the finest scale asked for so far: a coarser request is cut from it by a
shift, and only a finer one calls :func:`constant`, once, at a scale
rounded up to a multiple of 64 bits.  The closed forms used to be products
and quotients of ``Fraction`` balls, and every one of those operations ran
a gcd on numbers hundreds of digits long: about a third of the time of
certifying a fast series.  :func:`verify_series_identity` compares the two
dyadic balls in integers too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil, comb, inf, isqrt, lcm, log, log2, log10
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from . import seqkit
from .seqkit import SequenceKind

__all__ = [
    "Ball", "DivergentError", "TermSpec", "RHSForm", "SeriesIdentity",
    "constant", "sqrt_ball", "eval_series", "eval_weighted", "eval_rhs",
    "tail_bound", "verify_series_identity", "term_value",
]


class DivergentError(ValueError):
    """Raised when a term spec fails the proven convergence test."""


# --------------------------------------------------------------------------
# Ball arithmetic over exact rationals
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    mid: Fraction
    rad: Fraction = Fraction(0)

    def __post_init__(self):
        if self.rad < 0:
            raise ValueError(f"negative ball radius {self.rad}")

    @staticmethod
    def exact(x) -> "Ball":
        return Ball(Fraction(x), Fraction(0))

    def __add__(self, other) -> "Ball":
        other = _as_ball(other)
        return Ball(self.mid + other.mid, self.rad + other.rad)

    __radd__ = __add__

    def __neg__(self) -> "Ball":
        return Ball(-self.mid, self.rad)

    def __sub__(self, other) -> "Ball":
        return self + (-_as_ball(other))

    def __rsub__(self, other) -> "Ball":
        return _as_ball(other) + (-self)

    def __mul__(self, other) -> "Ball":
        other = _as_ball(other)
        rad = (abs(self.mid) * other.rad + abs(other.mid) * self.rad
               + self.rad * other.rad)
        return Ball(self.mid * other.mid, rad)

    __rmul__ = __mul__

    def inverse(self) -> "Ball":
        lo, hi = self.mid - self.rad, self.mid + self.rad
        if lo <= 0 <= hi:
            raise ZeroDivisionError("ball contains zero")
        ilo, ihi = 1 / hi, 1 / lo
        return Ball((ilo + ihi) / 2, (ihi - ilo) / 2)

    def __truediv__(self, other) -> "Ball":
        return self * _as_ball(other).inverse()

    def __rtruediv__(self, other) -> "Ball":
        return _as_ball(other) * self.inverse()

    def abs_upper(self) -> Fraction:
        return abs(self.mid) + self.rad

    def contains_zero(self) -> bool:
        return abs(self.mid) <= self.rad

    def contains(self, x) -> bool:
        return abs(self.mid - Fraction(x)) <= self.rad

    def shrink(self, digits: int) -> "Ball":
        """Round the midpoint to ~digits decimal places, keeping soundness."""
        scale = 10 ** (digits + 2)
        num = self.mid * scale
        rounded = Fraction(round(num), scale)
        err = abs(rounded - self.mid)
        return Ball(rounded, self.rad + err)

    def decimal(self, digits: int = 30) -> str:
        scale = 10 ** digits
        q = round(self.mid * scale)
        sign = "-" if q < 0 else ""
        q = abs(q)
        ip, fp = divmod(q, scale)
        return f"{sign}{ip}.{str(fp).zfill(digits)}"

    def __repr__(self) -> str:
        r = float(self.rad) if self.rad else 0.0
        return f"Ball({self.decimal(25)}..., rad<={r:.3e})"


def _as_ball(x) -> Ball:
    if isinstance(x, Ball):
        return x
    return Ball.exact(x)


# --------------------------------------------------------------------------
# Square roots and named constants
# --------------------------------------------------------------------------

def _sqrt_frac_up(x: Fraction, guard: int = 10 ** 8) -> Fraction:
    """A rational upper bound on sqrt(x) for x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    n, d = x.numerator, x.denominator
    r = isqrt(n * d * guard * guard)
    return Fraction(r + 1, d * guard)


def sqrt_ball(d, digits: int = 50) -> Ball:
    """Certified enclosure of sqrt(d) for nonnegative rational d."""
    d = Fraction(d)
    if d < 0:
        raise ValueError("negative radicand")
    if d == 0:
        return Ball.exact(0)
    sn, sd = isqrt(d.numerator), isqrt(d.denominator)
    if sn * sn == d.numerator and sd * sd == d.denominator:
        return Ball.exact(Fraction(sn, sd))
    scale = 10 ** digits
    n = d.numerator * d.denominator * scale * scale
    r = isqrt(n)  # r <= sqrt(n) < r+1
    lo = Fraction(r, d.denominator * scale)
    hi = Fraction(r + 1, d.denominator * scale)
    return Ball((lo + hi) / 2, (hi - lo) / 2)


def _hurwitz_zeta2(a: Fraction, digits: int) -> Ball:
    """zeta(2, a) for rational 0 < a <= 1 by Euler-Maclaurin.

    The remainder is bounded by the magnitude of the first omitted
    correction term (the summand derivatives are monotone of one sign).
    """
    target = Fraction(1, 10 ** (digits + 3))
    N = max(40, digits)
    while True:
        head = sum(Fraction(1, 1) / (k + a) ** 2 for k in range(N))
        x = N + a
        total = head + 1 / x + Fraction(1, 2) / x ** 2
        bound = None
        acc = Fraction(0)
        prev_mag = None
        for j in range(1, 80):   # B_2 .. B_158, grown only as read
            term = seqkit.rows(seqkit.BERNOULLI, j)[j] / x ** (2 * j + 1)
            mag = abs(term)
            if prev_mag is not None and mag > prev_mag:
                # correction terms started growing; omit this one and bound
                # the remainder by the magnitude of the first omitted term
                bound = mag
                break
            acc += term
            if mag < target:
                bound = mag
                break
            prev_mag = mag
        if bound is not None and bound < target:
            return Ball(total + acc, bound)
        N *= 2


_CONST_CACHE: Dict[Tuple[str, int], Ball] = {}


def _constant_sum(spec: TermSpec, digits: int) -> Ball:
    """The series behind a named constant, as :func:`eval_series` gives it.
    It goes through :func:`eval_weighted`, so that the work is billed to
    :func:`constant` and not counted as a series evaluation."""
    (ball, _), = eval_weighted(spec, [spec.weight], digits)
    return ball


def _pi_ball(digits: int) -> Ball:
    """pi from the fast 640320^3 series, with certified tail."""
    spec = TermSpec(weight=(13591409, 545140134),
                    den=(), seq=((seqkit.CB2, 1), (seqkit.CB3, 1),
                                 (seqkit.CB63, 1)),
                    m=Fraction(-640320) ** 3, k0=0)
    s = _constant_sum(spec, digits + 10)
    return 426880 * sqrt_ball(10005, digits + 10) / s


def _catalan_g_ball(digits: int) -> Ball:
    """Catalan's constant via
    G = (3/8) sum 1/(C(2k,k)(2k+1)^2) + (pi/8) log(2+sqrt 3),
    log(2+sqrt3) = (sqrt3/2) sum (3/4)^k/(2k+1)."""
    d = digits + 10
    s1 = _constant_sum(TermSpec(weight=(1,), den=(("CB2", 1), ("2k+1", 2)),
                                seq=(), m=Fraction(1)), d)
    s2 = _constant_sum(TermSpec(weight=(1,), den=(("2k+1", 1),), seq=(),
                                m=Fraction(4, 3)), d)
    log_2p_sqrt3 = sqrt_ball(3, d) / 2 * s2
    pi = constant("PI", d)
    return (Fraction(3, 8) * s1 + pi / 8 * log_2p_sqrt3).shrink(digits + 5)


def _k3_ball(digits: int) -> Ball:
    """K = sum_{k>=1} (k|3)/k^2 = (zeta(2,1/3) - zeta(2,2/3))/9."""
    z1 = _hurwitz_zeta2(Fraction(1, 3), digits + 5)
    z2 = _hurwitz_zeta2(Fraction(2, 3), digits + 5)
    return ((z1 - z2) / 9).shrink(digits + 3)


def _log3_ball(digits: int) -> Ball:
    """log 3 = 2 atanh(1/2) = sum_k 1 / ((2k+1) 4^k)."""
    spec = TermSpec(weight=(1,), den=(("2k+1", 1),), seq=(), m=Fraction(4))
    return _constant_sum(spec, digits + 3).shrink(digits + 3)


def constant(name: str, digits: int = 50) -> Ball:
    """Named constant with radius < 10^-digits."""
    if digits < 10:
        raise ValueError("digits must be >= 10")
    key = (name, digits)
    if key in _CONST_CACHE:
        return _CONST_CACHE[key]
    if name == "PI":
        val = _pi_ball(digits).shrink(digits + 3)
    elif name == "CATALAN_G":
        val = _catalan_g_ball(digits)
    elif name == "K3":
        val = _k3_ball(digits)
    elif name == "LOG3":
        val = _log3_ball(digits)
    elif name.startswith("SQRT(") and name.endswith(")"):
        val = sqrt_ball(Fraction(name[5:-1]), digits + 3)
    else:
        raise ValueError(f"unknown constant {name}")
    if val.rad >= Fraction(1, 10 ** digits):
        raise ArithmeticError(
            f"constant {name} radius {float(val.rad):.3e} misses 1e-{digits}")
    _CONST_CACHE[key] = val
    return val


#: name -> (top, lo, hi) with lo <= c * 2^top <= hi: the finest-scale
#: enclosure of each positive named constant c computed in this process
_CONST_FIXED: Dict[str, Tuple[int, int, int]] = {}
#: a new enclosure's scale is rounded up to a multiple of this many bits
_CONST_STEP = 64


def _const_fixed(name: str, s: int) -> Tuple[int, int]:
    """Integers lo <= c * 2^s <= hi for the positive constant c = ``name``.

    A scale at or below the held one is cut from the held enclosure by
    shifts (floor for lo, ceil for hi) and computes nothing; a finer one
    calls :func:`constant` once, at s rounded up to ``_CONST_STEP`` bits,
    and is held from then on.  The ends are at most two units apart, at
    the held scale and at every coarser one.
    """
    held = _CONST_FIXED.get(name)
    if held is None or held[0] < s:
        top = -(-s // _CONST_STEP) * _CONST_STEP
        # radius < 10^-digits <= 2^-top / 10
        ball = constant(name, ceil(top * log10(2)) + 1)
        lo, hi = ball.mid - ball.rad, ball.mid + ball.rad
        lo = (lo.numerator << top) // lo.denominator
        hi = -((-hi.numerator << top) // hi.denominator)
        if not 0 < lo <= hi:
            raise ArithmeticError(f"bad enclosure of constant {name}")
        held = _CONST_FIXED[name] = (top, lo, hi)
    top, lo, hi = held
    return lo >> (top - s), -(-hi >> (top - s))


# --------------------------------------------------------------------------
# Term specifications
# --------------------------------------------------------------------------

# denominator factor tags -> (a, b) meaning the affine value a*k + b
_AFFINE = {
    "k": (1, 0), "k-1": (1, -1), "k+1": (1, 1),
    "2k-1": (2, -1), "2k+1": (2, 1),
    "3k-1": (3, -1), "3k+1": (3, 1),
    "4k-1": (4, -1), "4k+1": (4, 1),
    "6k-1": (6, -1),
}
_DEN_BINOMIAL = {"CB2", "CB3", "CB4"}


@dataclass(frozen=True)
class TermSpec:
    """One summand  weight(k) * prod seq(k)^e / (prod den(k)^e * m^k)."""

    weight: Tuple[int, ...]                       # poly coefficients, low->high
    den: Tuple[Tuple[str, int], ...]              # (factor tag, exponent)
    seq: Tuple[Tuple[SequenceKind, int], ...]     # (kind, exponent)
    m: Fraction                                   # summand carries m^(-k)
    k0: int = 0

    def __post_init__(self):
        if self.m == 0:
            raise ValueError("m must be nonzero")
        if not 1 <= len(self.weight) <= 4:
            raise ValueError(f"weight needs 1 to 4 coefficients, "
                             f"got {len(self.weight)}")
        for tag, e in self.den:
            if tag not in _AFFINE and tag not in _DEN_BINOMIAL:
                raise ValueError(f"unknown denominator factor {tag!r}")
            if e < 1:
                raise ValueError(f"exponent {e} of {tag!r} is below 1")
        for kind, e in self.seq:
            if e < 1:
                raise ValueError(f"exponent {e} of {kind} is below 1")

    def weight_at(self, k: int) -> int:
        return sum(c * k ** i for i, c in enumerate(self.weight))


def _terms(spec: TermSpec, lo: int, hi: int) -> Iterator[Tuple[int, int]]:
    """Terms lo..hi of ``spec`` as unreduced integer pairs (num, den),
    den > 0, with term(k) = num / den.

    The weight's coefficients share one denominator, the denominator
    binomials C(2k,k), C(3k,k), C(4k,2k) are the store's CB2, CB3, CB4 rows,
    and for m = a/b the powers b^k and a^k are carried one step at a time.
    """
    if lo < spec.k0:
        raise ValueError(f"term starts at k0={spec.k0}")
    wden = lcm(*(Fraction(c).denominator for c in spec.weight))
    weight = [int(c * wden) for c in reversed(spec.weight)]   # high -> low
    seq = [(seqkit.rows(kind, hi), e) for kind, e in spec.seq]
    binom = [(seqkit.rows(SequenceKind(tag), hi), e)
             for tag, e in spec.den if tag in _DEN_BINOMIAL]
    affine = [(*_AFFINE[tag], e) for tag, e in spec.den if tag in _AFFINE]
    m = Fraction(spec.m)
    a, b = m.numerator, m.denominator
    ak, bk = a ** lo, b ** lo
    for k in range(lo, hi + 1):
        num = 0
        for c in weight:
            num = num * k + c
        num *= bk
        den = wden * ak
        for tab, e in seq:
            v = tab[k]
            if isinstance(v, Fraction):
                num *= v.numerator ** e
                den *= v.denominator ** e
            else:
                num *= v ** e
        for tab, e in binom:
            den *= tab[k] ** e
        for c1, c0, e in affine:
            den *= (c1 * k + c0) ** e
        yield (-num, -den) if den < 0 else (num, den)
        ak *= a
        bk *= b


def term_value(spec: TermSpec, k: int) -> Fraction:
    """Exact value of the k-th summand."""
    (num, den), = _terms(spec, k, k)
    return Fraction(num, den)


# ---- growth bounds -------------------------------------------------------

def _kind_growth(kind: SequenceKind) -> Fraction:
    """A rational g with |a_k| <= g^k for all k >= 0 (proved termwise)."""
    tag = kind.tag
    if tag == "GCT":
        b, c = kind.params
        if c < 0:
            # |T_k(b,c)| = |D^(k/2) P_k(b/sqrt D)| <= sqrt(D)^k, D = b^2-4c
            return _sqrt_frac_up(Fraction(b * b - 4 * c))
        return abs(b) + 2 * _sqrt_frac_up(Fraction(c))
    if tag == "GCT2":
        return _kind_growth(SequenceKind("GCT", kind.params)) ** 2
    if tag == "GCT3":
        return _kind_growth(SequenceKind("GCT", kind.params)) ** 3
    if tag in ("CB2", "CB2SHIFT", "CATALAN"):
        return Fraction(4)
    if tag == "CB3":
        return Fraction(27, 4)
    if tag == "CB4":
        return Fraction(16)
    if tag == "CB63":
        return Fraction(64)
    if tag == "SBC":
        # S_k(b,c) <= C(2k,k) g^k <= (4g)^k
        return 4 * _kind_growth(SequenceKind("GCT", kind.params))
    if tag == "DOMB":
        return Fraction(16)
    if tag == "FRANEL":
        return Fraction(8)
    if tag == "FRANEL4":
        return Fraction(16)
    if tag == "GSEQ":
        return Fraction(9)
    if tag == "GPOLY":
        (x,) = kind.params
        x = Fraction(x)
        if x < 0:
            # |g_k(x)| <= (1+4|x|)^k via the Legendre integral representation
            return 1 + 4 * abs(x)
        q = 2 * _sqrt_frac_up(x)
        return (1 + q) ** 2
    if tag == "ZAGIER":
        return Fraction(8)
    if tag == "CLF":
        return Fraction(16)
    if tag == "BETA":
        return Fraction(16)
    if tag == "WZAG":
        return Fraction(6)
    raise DivergentError(f"no growth bound for sequence kind {kind}")


def _spec_envelope(spec: TermSpec) -> Tuple[List[Fraction], Fraction]:
    """Return (poly_coeffs P, theta) with |term(k)| <= P(k) * theta^k for
    k >= max(k0, 1), where P has nonnegative coefficients."""
    theta = Fraction(1)
    poly_seq: List[Fraction] = [Fraction(1)]
    for kind, e in spec.seq:
        if getattr(kind, "tag", "") == "WZAG":
            # |w_k| <= (28/45) C(k+9,9) sqrt(27)^(k-1) for k >= 1: write
            # v_k = (w_k, w_{k-1}); the one-step matrices converge to
            # M = [[9,-27],[1,0]] with complex eigenvalues of modulus
            # sqrt(27), and in the norm adapted to M each step has norm
            # at most sqrt(27) + 46/(k+1), whose product telescopes into
            # the binomial-coefficient envelope above.
            s = _sqrt_frac_up(Fraction(27))
            theta *= s ** e
            env = [Fraction(28, 45) / (s * 362880)]
            for i in range(1, 10):
                env = _poly_mul(env, [Fraction(i), Fraction(1)])
            for _ in range(e):
                poly_seq = _poly_mul(poly_seq, env)
        else:
            theta *= _kind_growth(kind) ** e
    theta /= abs(spec.m)
    # polynomial envelope: |weight| plus (2k+1)-style numerators from
    # reciprocal central binomials; affine denominators are >= 1 in modulus
    # for every integer k where they are nonzero.
    poly: List[Fraction] = [Fraction(abs(c)) for c in spec.weight]
    if len(poly_seq) > 1:
        poly = _poly_mul(poly, poly_seq)
    for tag, e in spec.den:
        if tag == "CB2":
            theta /= Fraction(4) ** e
            for _ in range(e):
                poly = _poly_mul(poly, [Fraction(1), Fraction(2)])  # 2k+1
        elif tag == "CB3":
            theta /= Fraction(27, 4) ** e
            for _ in range(e):
                poly = _poly_mul(poly, [Fraction(1), Fraction(3)])  # 3k+1
        elif tag == "CB4":
            theta /= Fraction(16) ** e
            for _ in range(e):
                poly = _poly_mul(poly, [Fraction(1), Fraction(4)])  # 4k+1
    return poly, theta


def _poly_mul(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_at(p: Sequence[Fraction], k: int) -> Fraction:
    return sum(c * k ** i for i, c in enumerate(p))


def _crossover(poly: Sequence[Fraction], theta: Fraction, lo: int) -> int:
    """Smallest K >= lo with ((K+2)/(K+1))^deg * theta <= rho = (1+theta)/2,
    deg = len(poly) - 1: from K on, the envelope ratio
    P(k+1)/P(k) * theta stays at most rho < 1."""
    deg = len(poly) - 1
    a, b = theta.numerator, theta.denominator
    K = lo
    while 2 * a * (K + 2) ** deg > (a + b) * (K + 1) ** deg:
        K += 1
    return K


def _closed_tail(poly: Sequence[Fraction], theta: Fraction,
                 K: int) -> Fraction:
    """P(K+1) theta^(K+1) / (1 - rho): the geometric bound on the envelope
    past a K at or beyond the crossover."""
    return 2 * _poly_at(poly, K + 1) * theta ** (K + 1) / (1 - theta)


def tail_bound(spec: TermSpec, N: int) -> Fraction:
    """Rigorous upper bound on |sum_{k>N} term(k)|.

    Uses |term(k)| <= P(k) theta^k with P of nonnegative coefficients; past
    the crossover index K0 the bound ratio P(k+1)/P(k)*theta stays below a
    fixed rho < 1, giving a geometric tail.  Before the crossover the terms
    are bounded exactly one by one.  :func:`eval_series` uses this very
    bound; it only picks N differently.
    """
    poly, theta = _spec_envelope(spec)
    if theta >= 1:
        raise DivergentError(f"term envelope ratio {theta} >= 1")
    K0 = _crossover(poly, theta, max(spec.k0, 1))
    if N >= K0:
        return _closed_tail(poly, theta, N)
    exact = (Fraction(abs(num), den) for num, den in _terms(spec, N + 1, K0))
    return sum(exact, _closed_tail(poly, theta, K0))


def _fixed_point(rounded: int, digits: int) -> Tuple[int, Fraction]:
    """Scale bits s for a sum of ``rounded`` values each floored to a
    multiple of 2^-s, and the radius rounded * 2^-s that covers the
    floors; s makes that radius at most 10^-(digits+2) / 32."""
    s = (32 * rounded * 10 ** (digits + 2) - 1).bit_length()
    return s, Fraction(rounded, 1 << s)


def _log(x: Fraction) -> float:
    """Natural log of a positive rational of any size."""
    return log(x.numerator) - log(x.denominator)


def _estimate_N(poly: Sequence[Fraction], theta: Fraction, k0: int, K0: int,
                digits: int) -> int:
    """First guess at the smallest N >= k0 whose closed-form tail
    P(N+1) theta^(N+1) / (1-rho) is below 10^-(digits+2) minus the
    rounding radius of N - k0 + 1 terms, in floating-point logs.

    From max(k0, K0) the guess moves up by the log gap over -log(theta).
    Each step lowers the gap by -log(theta) less the growth of log P, so
    by at most -log(theta), and no move passes the smallest such N.  Only
    a guess: below K0 the closed form is no bound, and rounding may move
    the answer by one; the caller checks the N it settles on exactly.
    """
    coeffs = [float(c) for c in poly]
    log_theta = _log(theta)
    log_scale = _log(2 / (1 - theta))
    target = Fraction(1, 10 ** (digits + 2))

    def gap(N: int) -> float:
        """log(closed-form tail) - log(budget) at N; negative passes."""
        p = sum(c * (N + 1) ** i for i, c in enumerate(coeffs))
        if p <= 0:
            return -inf
        budget = target - _fixed_point(N - k0 + 1, digits)[1]
        return log(p) + (N + 1) * log_theta + log_scale - _log(budget)

    N = max(k0, K0)
    if gap(N) < 0:
        # below the crossover the closed form need not fall monotonically
        return next(n for n in range(k0, N + 1) if gap(n) < 0)
    while (g := gap(N)) >= 0:
        N += max(1, ceil(g / -log_theta))
    return N


class _DirectSum:
    """The fixed-point sum of one weighted series, fed from a term stream
    shared with other weights of the same unweighted term.

    The envelope and the crossover K0 are computed once.  N starts at the
    closed-form estimate of :func:`_estimate_N`.  At or past K0 the exact
    bound is the closed form, so N is settled before any term is summed:
    it steps up (galloping, then bisecting) until ``bound < target - err``
    holds in exact rationals.  Below K0 the bound needs the exact terms
    N+1..K0, which the stream supplies together with the sum; if the check
    then fails, N moves to K0 and on, and the stream is walked again.
    """

    def __init__(self, spec: TermSpec, poly: List[Fraction], theta: Fraction,
                 digits: int):
        self.k0, self.digits = spec.k0, digits
        self.poly, self.theta = poly, theta
        self.target = Fraction(1, 10 ** (digits + 2))
        self.K0 = _crossover(poly, theta, max(spec.k0, 1))
        self.wden = lcm(*(Fraction(c).denominator for c in spec.weight))
        self.weight = [int(c * self.wden) for c in reversed(spec.weight)]
        self._start(_estimate_N(poly, theta, spec.k0, self.K0, digits), None)

    def _closed_bound(self, N: int) -> Optional[Fraction]:
        """The exact bound at N >= K0 if it passes, else None."""
        bound = _closed_tail(self.poly, self.theta, N)
        _, err = _fixed_point(N - self.k0 + 1, self.digits)
        return bound if bound < self.target - err else None

    def _start(self, N: int, bound: Optional[Fraction]) -> None:
        if bound is None and N >= self.K0:
            failed, step = None, 1
            while (bound := self._closed_bound(N)) is None:
                failed, N, step = N, N + step, 2 * step
            while failed is not None and N - failed > 1:
                mid = (failed + N) // 2
                if (at_mid := self._closed_bound(mid)) is None:
                    failed = mid
                else:
                    N, bound = mid, at_mid
        self.N, self.bound = N, bound
        self.s, self.err = _fixed_point(N - self.k0 + 1, self.digits)
        self.total = 0
        self.pending: List[Fraction] = []   # |term(k)|, N < k <= K0

    @property
    def reach(self) -> int:
        """The last term this sum still needs from the stream."""
        return self.N if self.bound is not None else self.K0

    def add(self, k: int, num: int, den: int) -> None:
        """Take the unweighted term k = num / den of the stream."""
        w = 0
        for c in self.weight:
            w = w * k + c
        if k <= self.N:
            self.total += ((w * num) << self.s) // (self.wden * den)
        elif self.bound is None:
            self.pending.append(Fraction(abs(w * num), self.wden * den))

    def settle(self) -> bool:
        """After the stream: True when N passed the exact check; else N
        moves to K0, steps up by the closed form, and the sum starts over."""
        if self.bound is not None:
            return True
        tail = sum(self.pending, _closed_tail(self.poly, self.theta, self.K0))
        if tail < self.target - self.err:
            self.bound = tail
            return True
        self._start(self.K0, None)
        return False

    def ball(self) -> Ball:
        return Ball(Fraction(self.total, 1 << self.s), self.bound + self.err)


def eval_weighted(spec: TermSpec, weights: Sequence[Sequence],
                  digits: int = 40) -> List[Tuple[Ball, dict]]:
    """Certified enclosures of sum_{k>=k0} w(k) * term(k) for each weight
    w, where ``spec``'s own weight is replaced by w; each comes with the
    ``stats`` dict of :func:`eval_series`.

    On the direct path all weights read one stream of the unweighted
    terms, so the sequence rows and the big products behind each term are
    made once; each ball equals :func:`eval_series` of the spec with that
    weight.  The Euler path evaluates each weight on its own.
    """
    specs = [replace(spec, weight=tuple(w)) for w in weights]
    envelopes = [_spec_envelope(s) for s in specs]
    theta = envelopes[0][1]
    if theta >= 1:
        out = []
        for s in specs:
            ball, terms, tail = _euler_eval(s, digits)
            out.append((ball, {"path": "euler", "terms": terms,
                               "theta": theta, "tail": tail}))
        return out
    sums = [_DirectSum(s, poly, theta, digits)
            for s, (poly, _) in zip(specs, envelopes)]
    base = replace(spec, weight=(1,))
    todo = sums
    while todo:
        hi = max(d.reach for d in todo)
        for k, (num, den) in enumerate(_terms(base, spec.k0, hi), spec.k0):
            for d in todo:
                d.add(k, num, den)
        todo = [d for d in todo if not d.settle()]
    return [(d.ball(), {"path": "direct", "terms": d.N - spec.k0 + 1,
                        "theta": theta, "tail": d.bound}) for d in sums]


def eval_series(spec: TermSpec, digits: int = 40,
                stats: Optional[dict] = None) -> Ball:
    """Certified enclosure of sum_{k>=k0} term(k), with radius below
    10^-(digits+2).

    Uses direct summation with a geometric tail bound when the term
    envelope ratio theta is below 1, and otherwise falls back to a
    rigorously bounded Euler (binomial) transform built from exact moment
    representations of the term factors.  Either way the terms are summed
    in fixed point (see the module docstring): the midpoint is a multiple
    of 2^-s near the partial sum, and the radius is the tail bound plus
    one unit 2^-s per rounded term.

    On the direct path N is the closed-form estimate of the smallest N
    with P(N+1) theta^(N+1) / (1-rho) below the budget, stepped up until
    the exact check ``tail_bound(spec, N) < target - err`` passes; no
    float decides.  The radius is ``tail_bound(spec, N)`` plus the
    rounding part.  This is the one-weight case of :func:`eval_weighted`.

    When ``stats`` is given it receives ``terms`` (the number of terms
    summed), ``path`` (``direct`` or ``euler``), ``theta`` (the envelope
    ratio) and ``tail`` (the tail-bound part of the radius).
    """
    (ball, info), = eval_weighted(spec, [spec.weight], digits)
    if stats is not None:
        stats.update(info)
    return ball


# --------------------------------------------------------------------------
# Euler-transform acceleration for boundary-ratio series
# --------------------------------------------------------------------------
#
# Many summands of interest can be written exactly as
#     term(k) = W(k) * E[eta^k],
# where E integrates a complex-valued function eta against a finite
# positive product measure and eta is confined to a known rectangle of the
# complex plane with |eta| <= R <= 1.  Building blocks:
#     C(2k,k)       = E[(4x)^k]                  (arcsine measure on [0,1])
#     1/(a*k+b)     = E[y^k] with mass 1/(a*k0+b) (power measure, y = v^a)
#     1/C(2k,k)     = (2k+1) * E[(x(1-x))^k]      (Beta integral)
#     1/C(3k,k)     = (3k+1) * E[(x^2(1-x))^k]
#     1/C(4k,2k)    = (4k+1) * E[(x(1-x))^(2k)]
#     T_k(b,c), c>0 = E[(b + 2 sqrt(c) cos t)^k]
#     T_k(b,c), c<0 = E[(b + 2 i sqrt(|c|) cos t)^k]
#     g_k(x), x<0   = E[eta^k], Re eta in [1+4x, 1], |Im eta| <= 4 sqrt(|x|)
# (the last one combines sum_j C(k,j)^2 y^j = (1-y)^k P_k((1+y)/(1-y)) with
# the Laplace integral for the Legendre polynomial P_k).
#
# With such a representation the binomial (Euler) transform
#     c_j = 2^(-j-1) * sum_{i<=j} C(j,i) * term(i)
# obeys  |c_j| <= (M/2) * sum_s |w_s| * falling(j,s) * (R/2)^s * q^(j-s),
# where W in the falling-factorial basis has coefficients w_s,
# M bounds the total measure mass and 2q = sup |1 + eta| < 2.  The
# transformed series therefore converges geometrically with certified
# tails even when the original series converges only conditionally; the
# Euler method is regular, so whenever the original series converges both
# converge to the same value.

@dataclass(frozen=True)
class _CBox:
    """Axis-aligned rectangle in the complex plane with rational corners."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction = Fraction(0)
    im_hi: Fraction = Fraction(0)


def _imul(al, ah, bl, bh) -> Tuple[Fraction, Fraction]:
    vals = (al * bl, al * bh, ah * bl, ah * bh)
    return min(vals), max(vals)


def _box_mul(a: _CBox, b: _CBox) -> _CBox:
    pl, ph = _imul(a.re_lo, a.re_hi, b.re_lo, b.re_hi)
    ql, qh = _imul(a.im_lo, a.im_hi, b.im_lo, b.im_hi)
    rl, rh = _imul(a.re_lo, a.re_hi, b.im_lo, b.im_hi)
    sl, sh = _imul(a.im_lo, a.im_hi, b.re_lo, b.re_hi)
    return _CBox(pl - qh, ph - ql, rl + sl, rh + sh)


def _box_pow(a: _CBox, e: int) -> _CBox:
    out = _CBox(Fraction(1), Fraction(1))
    for _ in range(e):
        out = _box_mul(out, a)
    return out


def _box_scale(a: _CBox, s: Fraction) -> _CBox:
    if s >= 0:
        return _CBox(a.re_lo * s, a.re_hi * s, a.im_lo * s, a.im_hi * s)
    return _CBox(a.re_hi * s, a.re_lo * s, a.im_hi * s, a.im_lo * s)


def _rbox(lo, hi) -> _CBox:
    return _CBox(Fraction(lo), Fraction(hi))


@dataclass(frozen=True)
class _Moment:
    """Certificate that a factor sequence equals poly(k) * E[eta^k]."""

    box: _CBox
    R: Fraction                       # |eta| <= R everywhere
    mass: Fraction                    # total measure mass bound
    extra_weight: Tuple[int, ...] = (1,)   # polynomial cofactor, low->high
    min_k: int = 0


def _seq_moment(kind: SequenceKind) -> Optional[_Moment]:
    tag = kind.tag
    if tag == "CB2":
        return _Moment(_rbox(0, 4), Fraction(4), Fraction(1))
    if tag == "CATALAN":
        # C(2k,k)/(k+1): arcsine moment times a mass-1 moment on [0,1]
        return _Moment(_rbox(0, 4), Fraction(4), Fraction(1))
    if tag in ("GCT", "GCT2", "GCT3"):
        b, c = kind.params
        if c > 0:
            s = _sqrt_frac_up(Fraction(4 * c))
            base = _Moment(_rbox(b - s, b + s),
                           max(abs(Fraction(b) - s), abs(Fraction(b) + s)),
                           Fraction(1))
        elif c < 0:
            s = _sqrt_frac_up(Fraction(-4 * c))
            base = _Moment(_CBox(Fraction(b), Fraction(b), -s, s),
                           _sqrt_frac_up(Fraction(b * b - 4 * c)),
                           Fraction(1))
        else:
            base = _Moment(_rbox(b, b), abs(Fraction(b)), Fraction(1))
        if tag == "GCT":
            return base
        stride = 2 if tag == "GCT2" else 3
        return _Moment(_box_pow(base.box, stride), base.R ** stride,
                       Fraction(1))
    if tag == "GPOLY":
        (x,) = kind.params
        x = Fraction(x)
        if x < 0:
            s = _sqrt_frac_up(16 * abs(x))
            return _Moment(_CBox(1 + 4 * x, Fraction(1), -s, s),
                           1 + 4 * abs(x), Fraction(1))
        return None
    return None


_DEN_MOMENT = {
    "CB2": (Fraction(1, 4), (1, 2)),
    "CB3": (Fraction(4, 27), (1, 3)),
    "CB4": (Fraction(1, 16), (1, 4)),
}


@dataclass(frozen=True)
class _Cert:
    k_start: int
    q: Fraction
    R: Fraction
    mass: Fraction
    wfall: Tuple[Fraction, ...]       # |coeffs| of W' in falling-factorial basis


def _poly_shift(coeffs: Sequence[Fraction], kappa: int) -> List[Fraction]:
    """Coefficients of p(j + kappa) given those of p."""
    out = [Fraction(0)] * len(coeffs)
    for d, a in enumerate(coeffs):
        for s in range(d + 1):
            out[s] += a * comb(d, s) * kappa ** (d - s)
    return out


def _stirling2(n: int) -> List[List[int]]:
    S = [[0] * (n + 1) for _ in range(n + 1)]
    S[0][0] = 1
    for d in range(1, n + 1):
        for s in range(1, d + 1):
            S[d][s] = S[d - 1][s - 1] + s * S[d - 1][s]
    return S


def _certificate(spec: TermSpec) -> Optional[_Cert]:
    box = _CBox(Fraction(1), Fraction(1))
    R = Fraction(1)
    mass = Fraction(1)
    extra: List[Fraction] = [Fraction(1)]
    k_start = spec.k0
    affine: List[Tuple[int, int, int]] = []   # (a, b, exponent)
    for kind, e in spec.seq:
        mom = _seq_moment(kind)
        if mom is None:
            return None
        box = _box_mul(box, _box_pow(mom.box, e))
        R *= mom.R ** e
        mass *= mom.mass ** e
    for tag, e in spec.den:
        if tag in _AFFINE:
            a, b = _AFFINE[tag]
            affine.append((a, b, e))
            k_start = max(k_start, -(-(1 - b) // a))   # smallest k: a*k+b >= 1
            box = _box_mul(box, _rbox(0, 1))
        else:
            Rf, wf = _DEN_MOMENT[tag]
            box = _box_mul(box, _box_pow(_rbox(0, Rf), e))
            R *= Rf ** e
            for _ in range(e):
                extra = _poly_mul(extra, [Fraction(c) for c in wf])
    inv_m = 1 / spec.m
    box = _box_scale(box, inv_m)
    R *= abs(inv_m)
    if R > 1:
        return None
    for a, b, e in affine:
        mass *= Fraction(1, a * k_start + b) ** e
    mass *= R ** k_start
    # sup |1 + eta|^2 over box intersected with the disk of radius R
    re_hi = min(box.re_hi, R)
    im_max = min(max(-box.im_lo, box.im_hi, Fraction(0)), R)
    q_sq = min((1 + re_hi) ** 2 + im_max ** 2, 1 + 2 * re_hi + R ** 2) / 4
    if q_sq >= 1:
        return None
    q = _sqrt_frac_up(q_sq)
    if q >= 1:
        return None
    # W'(j) = weight(j + k_start) * extra(j + k_start), in falling factorials
    wp = _poly_mul([Fraction(c) for c in spec.weight], extra)
    wp = _poly_shift(wp, k_start)
    S2 = _stirling2(len(wp) - 1)
    wfall = []
    for s in range(len(wp)):
        ws = sum(wp[d] * S2[d][s] for d in range(s, len(wp)))
        wfall.append(abs(ws))
    return _Cert(k_start, q, R, mass, tuple(wfall))


def _falling(j: int, s: int) -> int:
    out = 1
    for i in range(s):
        out *= j - i
    return out


def _euler_tail(cert: _Cert, N: int) -> Optional[Fraction]:
    """Upper bound on |sum_{j>N} c_j|, or None if N is too small."""
    total = Fraction(0)
    for s, ws in enumerate(cert.wfall):
        if ws == 0:
            continue
        if N + 1 < s or N + 2 - s <= 0:
            return None
        rho = cert.q * Fraction(N + 2, N + 2 - s)
        if rho >= 1:
            return None
        first = _falling(N + 1, s) * cert.q ** (N + 1 - s)
        total += ws * (cert.R / 2) ** s * first / (1 - rho)
    return cert.mass / 2 * total


def _euler_eval(spec: TermSpec, digits: int) -> Tuple[Ball, int, Fraction]:
    """Certified Euler-transform evaluation for boundary-ratio series, the
    number of terms summed (those before ``k_start``, summed directly, plus
    the N + 1 fed to the transform) and the tail-bound part of the
    radius."""
    cert = _certificate(spec)
    if cert is None:
        raise DivergentError(
            "no moment certificate available; cannot evaluate this series")
    target = Fraction(1, 10 ** (digits + 2))
    # the head terms k0 <= k < k_start are summed exactly and rounded once
    head_floors = 1 if cert.k_start > spec.k0 else 0
    N = 16 + 8 * len(cert.wfall)
    while True:
        s, err = _fixed_point(N + 1 + head_floors, digits)
        tail = _euler_tail(cert, N)
        if tail is not None and tail < target - err:
            break
        N += max(16, N // 4)
    head = sum((term_value(spec, k) for k in range(spec.k0, cert.k_start)),
               Fraction(0))
    # sum_{j<=N} c_j = sum_i A_i t'_i / 2^(N+1), A_i = sum_j C(j,i) 2^(N-j)
    A = [0] * (N + 1)
    row = [1]
    for j in range(N + 1):
        w = 1 << (N - j)
        for i, cji in enumerate(row):
            A[i] += cji * w
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    total = (head.numerator << s) // head.denominator
    tp = _terms(spec, cert.k_start, cert.k_start + N)
    for a, (num, den) in zip(A, tp):
        total += ((a * num) << s) // (den << (N + 1))
    return (Ball(Fraction(total, 1 << s), tail + err),
            cert.k_start - spec.k0 + N + 1, tail)


# --------------------------------------------------------------------------
# Right-hand sides
# --------------------------------------------------------------------------

_BASES = {"ONE", "PI", "PI2", "INV_PI", "CATALAN_G", "K3", "LOG3"}


@dataclass(frozen=True)
class RHSForm:
    """Sum of addends q * sqrt(d) * basis."""

    addends: Tuple[Tuple[Fraction, int, str], ...]

    def __post_init__(self):
        for q, d, basis in self.addends:
            if basis not in _BASES:
                raise ValueError(f"unknown basis {basis!r}")
            if d < 1:
                raise ValueError(f"radicand {d} is below 1")
            if q == 0:
                raise ValueError("addend coefficient must be nonzero")


@dataclass(frozen=True)
class SeriesIdentity:
    ident: str
    spec: TermSpec
    rhs: RHSForm
    proven: bool = True


#: bits of the right-hand side's scale beyond (digits + 8) log2(10)
_RHS_GUARD = 8


def _basis_fixed(basis: str, s: int) -> Tuple[int, int]:
    """Integers lo <= b * 2^s <= hi for the positive basis value b."""
    if basis == "ONE":
        return 1 << s, 1 << s
    if basis not in ("PI2", "INV_PI"):
        return _const_fixed(basis, s)
    lo, hi = _const_fixed("PI", s)
    if basis == "PI2":
        return (lo * lo) >> s, -((-hi * hi) >> s)
    return (1 << 2 * s) // hi, -((-1 << 2 * s) // lo)


def eval_rhs(rhs: RHSForm, digits: int = 40) -> Ball:
    """Certified enclosure of the closed form sum q * sqrt(d) * basis.

    Every addend is an integer interval at the scale 2^-s, s = ceil((digits
    + 8) log2(10)) + 8 (see the module docstring), and the ball spans the
    sum of those intervals: its midpoint and radius are multiples of
    2^-(s+1).  The radius is below 10^-(digits+5) * max(1, A), where A is
    the sum of the addends' magnitudes |q| sqrt(d) |basis|; this is
    checked, and ``ArithmeticError`` is raised if it fails.
    """
    s = ceil((digits + 8) * log2(10)) + _RHS_GUARD
    lo = hi = mag = 0
    for q, d, basis in rhs.addends:
        blo, bhi = _basis_fixed(basis, s)
        if d != 1:
            r = isqrt(d << 2 * s)       # r <= sqrt(d) 2^s < r + 1
            blo = (r * blo) >> s
            if r * r != d << 2 * s:
                r += 1
            bhi = -((-r * bhi) >> s)
        a, b = q.numerator, q.denominator
        if a < 0:
            blo, bhi = bhi, blo
        lo += (a * blo) // b
        hi += -((-a * bhi) // b)
        mag += (abs(a) * min(blo, bhi)) // b
    if lo > hi:
        raise ArithmeticError("right-hand side ends out of order")
    if (hi - lo) * 10 ** (digits + 5) >= 2 * max(1 << s, mag):
        raise ArithmeticError(
            f"right-hand side radius misses 1e-{digits + 5} relative")
    return Ball(Fraction(lo + hi, 2 << s), Fraction(hi - lo, 2 << s))


@dataclass
class SeriesReport:
    ident: str
    passed: bool
    gap_upper: Fraction
    terms_used: int       # terms summed for the series enclosure
    status: str


def verify_series_identity(entry: SeriesIdentity, digits: int = 40) -> SeriesReport:
    """Compare a certified series enclosure with its closed form.

    The gap threshold 10^(1-digits) is absolute, so the working precision
    is raised by the magnitude of the target value; otherwise identities
    with very large constants could never certify the requested gap.
    """
    probe = eval_rhs(entry.rhs, 15).mid
    # the number of decimal digits of floor(|probe|), 0 below 1
    whole = abs(probe.numerator) // probe.denominator
    extra = len(str(whole)) if whole else 0
    work = digits + extra + 5
    stats: dict = {}
    lhs = eval_series(entry.spec, work, stats)
    rhs = eval_rhs(entry.rhs, work)
    # |lhs.mid - rhs.mid| + rhs.rad = dy / 2^e, all three dyadic
    (ln, le), (rn, re_), (rr, rre) = map(_dyadic, (lhs.mid, rhs.mid, rhs.rad))
    e = max(le, re_, rre)
    dy = abs((ln << (e - le)) - (rn << (e - re_))) + (rr << (e - rre))
    # the gap bound dy / 2^e + lhs.rad as the exact ratio num / den
    p, q = lhs.rad.numerator, lhs.rad.denominator
    num, den = dy * q + (p << e), q << e
    ok = num * 10 ** (digits - 1) < den
    # Round the exact gap bound up to a small fraction so the report stays
    # printable; the pass/fail decision above already used the exact value.
    scale = 10 ** (work + 10)
    upper = Fraction(-((-num * scale) // den), scale)
    status = ("PASS" if entry.proven else "CONSISTENT") if ok else "FAIL"
    return SeriesReport(entry.ident, ok, upper, stats["terms"], status)


def _dyadic(x: Fraction) -> Tuple[int, int]:
    """(n, e) with x = n / 2^e; ``ArithmeticError`` if x is not dyadic."""
    den = x.denominator
    if den & (den - 1):
        raise ArithmeticError(f"{x} is not a dyadic rational")
    return x.numerator, den.bit_length() - 1

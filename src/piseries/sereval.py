"""Certified series evaluation with exact-rational ball arithmetic.

A :class:`Ball` is a midpoint/radius pair of ``Fraction`` values; the true
value is guaranteed to lie in [mid-rad, mid+rad] and every operation widens
the radius conservatively.  Series are summed as exact partial sums plus a
rigorous geometric tail bound derived from per-sequence growth inequalities
(never from sampled ratios), so a reported enclosure is a proof-grade
statement about the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import seqkit
from .seqkit import SequenceKind

__all__ = [
    "Ball", "DivergentError", "TermSpec", "RHSForm", "SeriesIdentity",
    "constant", "sqrt_ball", "eval_series", "eval_rhs", "tail_bound",
    "verify_series_identity", "term_value",
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

    def abs_lower(self) -> Fraction:
        lo = abs(self.mid) - self.rad
        return lo if lo > 0 else Fraction(0)

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


def _bernoulli_even(count: int) -> List[Fraction]:
    """B_0, B_2, ..., B_{2(count-1)} via the Akiyama-Tanigawa scheme."""
    n = 2 * (count - 1)
    A = [Fraction(0)] * (n + 1)
    out: List[Fraction] = []
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(A[0])
    return out[0::2]


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
        bern = _bernoulli_even(80)
        bound = None
        acc = Fraction(0)
        prev_mag = None
        for j in range(1, len(bern)):
            term = bern[j] / x ** (2 * j + 1)
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


def _pi_ball(digits: int) -> Ball:
    """pi from the fast 640320^3 series, with certified tail."""
    spec = TermSpec(weight=(13591409, 545140134),
                    den=(), seq=((seqkit.CB2, 1), (seqkit.CB3, 1),
                                 (seqkit.CB63, 1)),
                    m=Fraction(-640320) ** 3, k0=0)
    s = eval_series(spec, digits + 10)
    return 426880 * sqrt_ball(10005, digits + 10) / s


def _catalan_g_ball(digits: int) -> Ball:
    """Catalan's constant via
    G = (3/8) sum 1/(C(2n,n)(2n+1)^2) + (pi/8) log(2+sqrt 3),
    log(2+sqrt3) = (sqrt3/2) sum (3/4)^k/(2k+1)."""
    d = digits + 10
    target = Fraction(1, 10 ** d)
    # central-binomial sum, terms ratio <= 1/2 for all n
    s1 = Fraction(0)
    n = 0
    while True:
        t = Fraction(1, comb(2 * n, n) * (2 * n + 1) ** 2)
        s1 += t
        if t < target:  # tail <= t * sum (1/2)^j = t
            break
        n += 1
    b1 = Ball(s1, Fraction(2) * Fraction(1, comb(2 * n, n) * (2 * n + 1) ** 2))
    # atanh-type sum for log(2+sqrt3); ratio exactly 3/4
    s2 = Fraction(0)
    k = 0
    while True:
        t = Fraction(3 ** k, 4 ** k * (2 * k + 1))
        s2 += t
        if t * 3 < target:  # tail <= t*(3/4)/(1-3/4) = 3t
            break
        k += 1
    log_2p_sqrt3 = sqrt_ball(3, d) / 2 * Ball(s2, 3 * Fraction(3 ** k, 4 ** k * (2 * k + 1)))
    pi = constant("PI", d)
    return (Fraction(3, 8) * b1 + pi / 8 * log_2p_sqrt3).shrink(digits + 5)


def _k3_ball(digits: int) -> Ball:
    """K = sum_{k>=1} (k|3)/k^2 = (zeta(2,1/3) - zeta(2,2/3))/9."""
    z1 = _hurwitz_zeta2(Fraction(1, 3), digits + 5)
    z2 = _hurwitz_zeta2(Fraction(2, 3), digits + 5)
    return ((z1 - z2) / 9).shrink(digits + 3)


def _log3_ball(digits: int) -> Ball:
    """log 3 = 2 atanh(1/2) = sum_k 2 / ((2k+1) 4^k 2)."""
    target = Fraction(1, 10 ** (digits + 5))
    s = Fraction(0)
    k = 0
    while True:
        t = Fraction(1, (2 * k + 1) * 2 ** (2 * k))
        s += t
        if t < target * 3:  # tail <= t*(1/4)/(1 - 1/4) = t/3
            break
        k += 1
    return Ball(s, t / 3).shrink(digits + 3)


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
        assert self.m != 0
        assert 1 <= len(self.weight) <= 4
        for tag, e in self.den:
            assert tag in _AFFINE or tag in _DEN_BINOMIAL, tag
            assert e >= 1
        for kind, e in self.seq:
            assert e >= 1

    def weight_at(self, k: int) -> int:
        return sum(c * k ** i for i, c in enumerate(self.weight))


def _den_binom(tag: str, k: int) -> int:
    if tag == "CB2":
        return comb(2 * k, k)
    if tag == "CB3":
        return comb(3 * k, k)
    return comb(4 * k, 2 * k)


def term_value(spec: TermSpec, k: int) -> Fraction:
    """Exact value of the k-th summand."""
    if k < spec.k0:
        raise ValueError(f"term starts at k0={spec.k0}")
    num = spec.weight_at(k)
    for kind, e in spec.seq:
        num *= seqkit.rows(kind, k)[k] ** e
    den = 1
    for tag, e in spec.den:
        if tag in _AFFINE:
            a, b = _AFFINE[tag]
            den *= (a * k + b) ** e
        else:
            den *= _den_binom(tag, k) ** e
    return Fraction(num) / (den * spec.m ** k)


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


def tail_bound(spec: TermSpec, N: int) -> Fraction:
    """Rigorous upper bound on |sum_{k>N} term(k)|.

    Uses |term(k)| <= P(k) theta^k with P of nonnegative coefficients; past
    the crossover index the bound ratio P(k+1)/P(k)*theta stays below a
    fixed rho < 1, giving a geometric tail.  Before the crossover the terms
    are bounded exactly one by one.
    """
    poly, theta = _spec_envelope(spec)
    if theta >= 1:
        raise DivergentError(f"term envelope ratio {theta} >= 1")
    deg = len(poly) - 1
    # crossover: smallest K with ((K+2)/(K+1))^deg * theta <= (1+theta)/2
    rho = (1 + theta) / 2
    K = max(N, spec.k0, 1)
    while Fraction(K + 2, K + 1) ** deg * theta > rho:
        K += 1
    total = Fraction(0)
    for k in range(N + 1, K + 1):
        total += abs(term_value(spec, k))
    first = _poly_at(poly, K + 1) * theta ** (K + 1)
    total += first / (1 - rho)
    return total


def eval_series(spec: TermSpec, digits: int = 40,
                stats: Optional[dict] = None) -> Ball:
    """Certified enclosure of sum_{k>=k0} term(k).

    Uses direct summation with a geometric tail bound when the term
    envelope ratio is below 1, and otherwise falls back to a rigorously
    bounded Euler (binomial) transform built from exact moment
    representations of the term factors.  When ``stats`` is given, its
    ``terms`` key is set to the number of terms summed.
    """
    target = Fraction(1, 10 ** (digits + 2))
    poly, theta = _spec_envelope(spec)
    if theta >= 1:
        ball, terms = _euler_eval(spec, digits)
    else:
        N = max(spec.k0, 4)
        while True:
            bound = tail_bound(spec, N)
            if bound < target:
                break
            N += max(8, N // 2)
        partial = Fraction(0)
        for k in range(spec.k0, N + 1):
            partial += term_value(spec, k)
        ball, terms = Ball(partial, bound), N - spec.k0 + 1
    if stats is not None:
        stats["terms"] = terms
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


def _euler_eval(spec: TermSpec, digits: int) -> Tuple[Ball, int]:
    """Certified Euler-transform evaluation for boundary-ratio series, and
    the number of terms summed: those before ``k_start`` (summed directly)
    plus the N + 1 fed to the transform."""
    cert = _certificate(spec)
    if cert is None:
        raise DivergentError(
            "no moment certificate available; cannot evaluate this series")
    target = Fraction(1, 10 ** (digits + 2))
    N = 16 + 8 * len(cert.wfall)
    while True:
        tail = _euler_tail(cert, N)
        if tail is not None and tail < target:
            break
        N += max(16, N // 4)
    head = Fraction(0)
    for k in range(spec.k0, cert.k_start):
        head += term_value(spec, k)
    tp = [term_value(spec, cert.k_start + i) for i in range(N + 1)]
    # sum_{j<=N} c_j = sum_i A_i t'_i / 2^(N+1), A_i = sum_j C(j,i) 2^(N-j)
    A = [0] * (N + 1)
    row = [1]
    for j in range(N + 1):
        w = 1 << (N - j)
        for i, cji in enumerate(row):
            A[i] += cji * w
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    partial = sum((a * t for a, t in zip(A, tp)), Fraction(0))
    partial /= Fraction(1 << (N + 1))
    return Ball(head + partial, tail), cert.k_start - spec.k0 + N + 1


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
            assert basis in _BASES, basis
            assert d >= 1
            assert q != 0


@dataclass(frozen=True)
class SeriesIdentity:
    ident: str
    spec: TermSpec
    rhs: RHSForm
    proven: bool = True


def eval_rhs(rhs: RHSForm, digits: int = 40) -> Ball:
    total = Ball.exact(0)
    for q, d, basis in rhs.addends:
        part = Ball.exact(q)
        if d != 1:
            part = part * sqrt_ball(d, digits + 8)
        if basis == "PI":
            part = part * constant("PI", digits + 8)
        elif basis == "PI2":
            pi = constant("PI", digits + 8)
            part = part * pi * pi
        elif basis == "INV_PI":
            part = part / constant("PI", digits + 8)
        elif basis == "CATALAN_G":
            part = part * constant("CATALAN_G", digits + 8)
        elif basis == "K3":
            part = part * constant("K3", digits + 8)
        elif basis == "LOG3":
            part = part * constant("LOG3", digits + 8)
        total = total + part
    return total


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
    extra = 0
    mag = abs(probe)
    while mag >= 1:
        mag /= 10
        extra += 1
    work = digits + extra + 5
    stats: dict = {}
    lhs = eval_series(entry.spec, work, stats)
    rhs = eval_rhs(entry.rhs, work)
    gap = lhs - rhs
    upper = gap.abs_upper()
    ok = upper < Fraction(1, 10 ** (digits - 1))
    # Round the exact gap bound up to a small fraction so the report stays
    # printable; the pass/fail decision above already used the exact value.
    scale = 10 ** (work + 10)
    upper = Fraction(-((-upper.numerator * scale) // upper.denominator), scale)
    status = ("PASS" if entry.proven else "CONSISTENT") if ok else "FAIL"
    return SeriesReport(entry.ident, ok, upper, stats["terms"], status)

"""Certified series evaluation in dyadic ball arithmetic.

A :class:`Ball` is three integers: a midpoint, a radius >= 0 and one
binary exponent e, standing for the interval [(mid - rad) 2^-e,
(mid + rad) 2^-e] that is proved to hold the true value (the
midpoint-radius design of Arb, Johansson 2017, with both parts dyadic).
Every producer emits it directly: the series sums, :func:`eval_rhs` and
:func:`constant`.  Sums and differences of balls
are exact, as the parts are aligned at the finer exponent by shifts, and
:meth:`Ball.interval` reads a ball at a coarser scale with its ends
rounded outward, so no operation loses an enclosure.
``Fraction`` stays only for exact rationals that no ball holds: the
weights, m and the closed forms' coefficients, the factor table's growths
and moment boxes, the envelope ratio theta, the Euler certificate's box,
mass and q (q and mass/2 are rounded up to dyadics once per certificate)
and :func:`term_value` (which no sum calls).  The gap bound of
:func:`verify_series_identity` is an integer count of units 10^-scale,
made a ``Fraction`` only when read.

A series is summed in fixed point, as integers scaled by 2^s.  One
builder, :func:`_term_columns`, gives the terms k = lo..hi as two columns
of unreduced integers, nums and dens > 0, in blocks of at most ``_BLOCK``
terms; each column is the entrywise product of slices of the sequence
store's rows, ranges and ``accumulate`` powers, multiplied in chained
``map`` iterators.  A weight's sum is then
``sum(map(floordiv, map(lshift, map(mul, w, nums), repeat(s)), dens))``:
the floor of each term at 2^-s, below its true value by less than one
unit in the last place, so ``terms`` units of 2^-s added to the radius
cover every rounding.  A rigorous geometric tail bound derived from
per-sequence growth and decay inequalities (never from sampled ratios)
covers the rest, so a reported enclosure is a proof-grade statement about
the sum.
Both sums read the terms from k0 and keep no exact term.  :func:`term_value`
is the exact value of one term, from the same builder, and so are the
partial sums of :mod:`~piseries.congruence` and :mod:`~piseries.exactid`.

Far out, the factors of a term have thousands of bits, of which the floor
keeps about s.  There the builder cuts each long column to its p = s + 64
leading bits (``_term_columns(..., bits=p)``), so the products and the
division are of short numbers, and the sum proves each floor from the cut
product before it keeps it (Ziv's rounding test, Ziv 1991): the floor at
s + 32 bits is off by less than 1 + (|z|+1) f 2^(3-p) for f cut columns,
and when its low 32 bits keep that margin from both ends its top bits are
the exact floor at s.  A term that fails the test is re-read exact,
alone (``_term_pairs(spec, k, k)``), and floored from that, so every
floor, and the ball, is the one exact arithmetic gives
(:class:`_DirectSum`); a cut block keeps no exact column.  A block is cut
only once one of its columns has 4p + 2048 bits, where the cut pays for
itself, and then every column longer than 2p bits is; the Euler path and
:func:`tail_bound` stay exact.

The number of terms N is chosen once per evaluation, and every tail bound
is an upward-rounded dyadic m 2^-e with a mantissa of 80 bits
(:func:`_dyadic_up`, :func:`_mul_up`, :func:`_pow_up`).  On the direct
path the envelope |term(k)| <= P(k) theta^k, where the factors' decays
leave a net k^(-alpha) with alpha > 0 also the decayed envelope
|term(k)| <= D(k) k^(-alpha) theta^k, and their crossover K0 (past which
both fall geometrically with ratio rho = (1+theta)/2) are computed once
per weight, the part that does not depend on the weight once for all the
weights of :func:`eval_weighted`, and the part that reads neither the
weight nor m once per factor shape for the whole process
(:func:`_shape_envelope`); N is estimated in floating-point logs from the
closed form, the smaller of P(N+1) and D(N+1) (N+1)^(-alpha) times
theta^(N+1) / (1-rho), which :class:`_Tail` bounds by such a dyadic.  N
starts at K0 or past it, is checked against the target minus the rounding
radius in one comparison of integers, and if the check fails N steps up
until it passes, so no float ever decides a verdict; the exact values
P(N+1) and D(N+1) that the estimate took at the N it settles on serve the
check too.  One pass over the terms then gives the sum, and the moment
sums of :func:`eval_weighted` share it.  A boundary-ratio series,
theta = 1, takes the Euler transform (:class:`_EulerSum`) from the same
pass: its weights are suffix sums of one binomial row, its weight-free
moment certificate is built once per :func:`eval_weighted` call, and its
N is the smallest whose dyadic tail bound passes, bisected after jumps.
Both paths read one table of term factors (:class:`_Factor`): a factor's
growth bound and decay enter the envelopes, its moment box the
certificate, and the certificate takes its polynomial cofactor from the
envelope.

Closed forms are evaluated in fixed point as well.  :func:`eval_rhs` keeps
each addend q sqrt(d) basis as an integer interval lo <= value * 2^s <= hi:
sqrt(d) comes from ``isqrt``, 1/pi from 2^(2s) over the ends of pi,
products are shifted down by s, and every rounding is directed (floor for
lo, ceil for hi, the ends swapped for q < 0).  Each named constant c (pi,
G, K and log 3) is one such interval lo <= c 2^top <= hi, held per name in
``_CONST_FIXED`` for the whole process at the finest scale asked for so
far: a coarser request is cut from it by a shift, and only a finer one
calls :func:`constant`, once, 128 bits finer than asked and rounded up to
a multiple of 64 bits, so that the next finer requests of the run are cut
from it too.  :func:`constant` builds a directed-rounded interval from its
series, each summed by :func:`eval_weighted` with its certified tail
bound: pi = 426880 sqrt(10005) / (Chudnovsky's sum), G from two series and
pi, K = 2 (3A - 10C) / (3 sqrt(3) pi) from the central-binomial sums
A = sum_{k>=1} 1/(k^3 C(2k,k)) and C = sum_{k>=1} (-1)^k/(k^3 C(2k,k))
(Zucker 1985 for A, Apery's zeta(3) = -(5/2) C) and pi, and log 3 from one
series.  :func:`verify_series_identity` compares the two dyadic balls in
integers too.

The moment sums sum k^j term(k) of a rediscovery are a :class:`Moments`.
On the direct path they are summed from one walk to one N, each floored
at the scale that verifying any relation between them at 1.5x the digits
needs, so that a found relation's weighted sum continues that walk from
N + 1 rather than summing its series again; its verdict is the gap test
of :func:`verify_series_identity` (:func:`_gap_report`).  For a term
without denominator factors, num(k) / a^k, the walk divides no term
until the cut: each moment is one running integer
P_j <- a P_j + k^j num(k), floored once; past the cut, and for a term
with denominator factors, the terms are floored one by one.  On the
Euler path the transform's weights depend on N, so there the relation is
verified by :func:`verify_series_identity` itself.

The two sides of an identity are evaluated to different precisions.  The
verdict reads an absolute gap below 10^(1-digits), and the radius of
:func:`eval_series` is absolute, so the series is summed at ``digits``
(radius below 10^-(digits+2)).  The radius of :func:`eval_rhs` is relative
to A, the sum of the addends' magnitudes |q| sqrt(d) basis, so the closed
form alone is evaluated once, ``extra`` more digits deep, ``extra`` being
the number of decimal digits of an integer upper bound of A
(:func:`_work_digits`) that needs no constant.  A bounds the value, so
``extra`` is never below the number of decimal digits of the value's
integer part, and exceeds it only where addends cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, islice, repeat
from math import (ceil, comb, exp, expm1, inf, isqrt, lcm, log, log1p,
                  log2, log10)
from operator import add, floordiv, lshift, mul, rshift
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from . import seqkit
from .seqkit import SequenceKind

__all__ = [
    "Ball", "DivergentError", "MAX_DEGREE", "TermSpec", "RHSForm",
    "SeriesIdentity", "constant", "eval_series", "eval_weighted", "eval_rhs",
    "tail_bound", "verify_series_identity", "term_value", "Moments",
]


class DivergentError(ValueError):
    """Raised when a term spec fails the proven convergence test."""


# --------------------------------------------------------------------------
# Dyadic balls
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    """The interval [(mid - rad) 2^-exp, (mid + rad) 2^-exp] of integers
    mid, rad >= 0 and exp >= 0."""

    mid: int
    rad: int = 0
    exp: int = 0

    def __post_init__(self):
        if self.rad < 0:
            raise ValueError(f"negative ball radius {self.rad}")
        if self.exp < 0:
            raise ValueError(f"negative ball exponent {self.exp}")

    def __add__(self, other: "Ball") -> "Ball":
        e = max(self.exp, other.exp)
        a, b = e - self.exp, e - other.exp
        return Ball((self.mid << a) + (other.mid << b),
                    (self.rad << a) + (other.rad << b), e)

    def __neg__(self) -> "Ball":
        return Ball(-self.mid, self.rad, self.exp)

    def __sub__(self, other: "Ball") -> "Ball":
        e = max(self.exp, other.exp)
        a, b = e - self.exp, e - other.exp
        return Ball((self.mid << a) - (other.mid << b),
                    (self.rad << a) + (other.rad << b), e)

    def interval(self, t: int) -> Tuple[int, int]:
        """Integers lo <= x 2^t <= hi for every x in the ball: its ends at
        the scale 2^-t, lo rounded down and hi up."""
        lo, hi = self.mid - self.rad, self.mid + self.rad
        if t >= self.exp:
            return lo << (t - self.exp), hi << (t - self.exp)
        return lo >> (self.exp - t), -(-hi >> (self.exp - t))

    def below(self, scale: int) -> bool:
        """Whether |x| < 1/scale for every x in the ball, scale > 0."""
        return (abs(self.mid) + self.rad) * scale < 1 << self.exp

    def contains(self, num: int, den: int) -> bool:
        """Whether num / den, den > 0, lies in the ball."""
        x = num << self.exp
        return (self.mid - self.rad) * den <= x <= (self.mid + self.rad) * den


def _radius(parts: Iterable[Tuple[int, int]]) -> Ball:
    """The ball at 0 whose radius is the exact sum of the dyadics m 2^-e
    of ``parts``, m >= 0, at the finest of their exponents."""
    parts = list(parts)
    top = max(0, max((e for _, e in parts), default=0))
    return Ball(0, sum(m << (top - e) for m, e in parts), top)


# --------------------------------------------------------------------------
# Square roots and named constants
# --------------------------------------------------------------------------

#: :func:`_sqrt_frac_up` exceeds sqrt(x) by at most 1/(den(x) _SQRT_GUARD)
_SQRT_GUARD = 10 ** 8


def _sqrt_frac_up(x: Fraction) -> Fraction:
    """A rational upper bound on sqrt(x) for x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    n, d = x.numerator, x.denominator
    r = isqrt(n * d * _SQRT_GUARD * _SQRT_GUARD)
    return Fraction(r + 1, d * _SQRT_GUARD)


def _bits(digits: int) -> int:
    """The least t with 2^-t <= 10^-digits."""
    return ceil(digits * log2(10))


def _digits(bits: int) -> int:
    """Decimal digits whose radius bound 10^-digits is below 2^-bits / 10."""
    return ceil(bits * log10(2)) + 1


def _decimal_length(n: int) -> int:
    """The number of decimal digits of n >= 0, 0 for 0, without ``str(n)``,
    which Python refuses past 4300 digits."""
    length = max(int(n.bit_length() * log10(2)) - 1, 0)    # not above it
    while n >= 10 ** length:
        length += 1
    return length


def _constant_sum(spec: TermSpec, t: int) -> Tuple[int, int]:
    """Integers lo <= v 2^t <= hi for the sum v of ``spec``, as
    :func:`eval_series` gives it with radius below 2^-t / 1000.  It goes
    through :func:`eval_weighted`, so that the work is billed to
    :func:`constant` and not counted as a series evaluation."""
    (ball, _), = eval_weighted(spec, [spec.weight], _digits(t))
    return ball.interval(t)


def _pi_fixed(t: int) -> Tuple[int, int]:
    """Integers lo <= pi 2^t <= hi, from Chudnovsky's series (1988):
    pi = 426880 sqrt(10005) / sum (13591409 + 545140134 k) C(2k,k) C(3k,k)
    C(6k,3k) / (-640320^3)^k."""
    slo, shi = _constant_sum(TermSpec(
        weight=(13591409, 545140134), den=(),
        seq=((seqkit.CB2, 1), (seqkit.CB3, 1), (seqkit.CB63, 1)),
        m=Fraction(-640320) ** 3), t)
    r = isqrt(10005 << 2 * t)          # r <= sqrt(10005) 2^t < r + 1
    return (426880 * r << t) // shi, -(-(426880 * (r + 1) << t) // slo)


def _catalan_g_fixed(t: int) -> Tuple[int, int]:
    """Integers lo <= G 2^t <= hi, from
    G = (3/8) sum 1/(C(2k,k)(2k+1)^2) + (pi/8) log(2+sqrt 3) and
    log(2+sqrt3) = (sqrt3/2) sum (3/4)^k/(2k+1)."""
    alo, ahi = _constant_sum(TermSpec(weight=(1,), den=(("CB2", 1),
                                                        ("2k+1", 2)),
                                      seq=(), m=Fraction(1)), t)
    blo, bhi = _constant_sum(TermSpec(weight=(1,), den=(("2k+1", 1),),
                                      seq=(), m=Fraction(4, 3)), t)
    plo, phi = _const_fixed("PI", t)
    r = isqrt(3 << 2 * t)              # r <= sqrt(3) 2^t < r + 1
    return ((3 * alo >> 3) + (plo * r * blo >> 2 * t + 4),
            -(-3 * ahi >> 3) - (-phi * (r + 1) * bhi >> 2 * t + 4))


def _k3_fixed(t: int) -> Tuple[int, int]:
    """Integers lo <= K 2^t <= hi, K = sum_{k>=1} (k|3)/k^2, from
    K = 2 (3A - 10C) / (3 sqrt(3) pi), A = sum_{k>=1} 1/(k^3 C(2k,k)) and
    C = sum_{k>=1} (-1)^k/(k^3 C(2k,k)): Zucker's (1985)
    A = (sqrt(3) pi / 2) K - (4/3) zeta(3) with Apery's zeta(3) = -(5/2) C.
    Both sums and pi are read 2 bits finer than t, so hi - lo <= 3."""
    u = t + 2
    (alo, ahi), (clo, chi) = (
        _constant_sum(TermSpec(weight=(1,), den=(("CB2", 1), ("k", 3)),
                               seq=(), m=Fraction(m), k0=1), u)
        for m in (1, -1))
    plo, phi = _const_fixed("PI", u)
    r = isqrt(3 << 2 * u)              # r <= sqrt(3) 2^u < r + 1
    # 3A - 10C > 0 at 2^-u, over 3 sqrt(3) pi at 2^-2u
    nlo, nhi = 3 * alo - 10 * chi, 3 * ahi - 10 * clo
    return ((nlo << t + u + 1) // (3 * (r + 1) * phi),
            -(-(nhi << t + u + 1) // (3 * r * plo)))


def _log3_fixed(t: int) -> Tuple[int, int]:
    """Integers lo <= log(3) 2^t <= hi, log 3 = 2 atanh(1/2) =
    sum_k 1 / ((2k+1) 4^k)."""
    return _constant_sum(TermSpec(weight=(1,), den=(("2k+1", 1),), seq=(),
                                  m=Fraction(4)), t)


_CONSTANTS: Dict[str, Callable[[int], Tuple[int, int]]] = {
    "PI": _pi_fixed, "CATALAN_G": _catalan_g_fixed, "K3": _k3_fixed,
    "LOG3": _log3_fixed}


def constant(name: str, digits: int = 50) -> Ball:
    """A new enclosure of a named positive constant, radius < 10^-digits,
    from a directed-rounded integer interval 8 bits finer than that."""
    if digits < 10:
        raise ValueError("digits must be >= 10")
    if name not in _CONSTANTS:
        raise ValueError(f"unknown constant {name}")
    t = _bits(digits) + 8
    lo, hi = _CONSTANTS[name](t)
    if not 0 < lo <= hi or (hi - lo) * 10 ** digits >= 2 << t:
        raise ArithmeticError(f"constant {name} misses 1e-{digits}")
    return Ball(lo + hi, hi - lo, t + 1)


#: name -> (top, lo, hi) with lo <= c * 2^top <= hi: the finest-scale
#: enclosure of each positive named constant c computed in this process
_CONST_FIXED: Dict[str, Tuple[int, int, int]] = {}
#: a new enclosure's scale is rounded up to a multiple of this many bits
_CONST_STEP = 64
#: bits a new enclosure is computed beyond the scale asked for, about 38
#: digits: the registry's closed forms, checked at 12 to 40 digits, ask
#: for scales from 92 to 336 bits, less than two headrooms apart, so such
#: a run computes each constant at most twice, whatever the order of its
#: checks
_CONST_HEADROOM = 128


def _const_fixed(name: str, s: int) -> Tuple[int, int]:
    """Integers lo <= c * 2^s <= hi for the positive constant c = ``name``.

    A scale at or below the held one is cut from the held enclosure by
    shifts (floor for lo, ceil for hi) and computes nothing; a finer one
    calls :func:`constant` once, at s + ``_CONST_HEADROOM`` rounded up to
    ``_CONST_STEP`` bits, and is held from then on.  The ends are at most
    two units apart, at the held scale and at every coarser one.
    """
    held = _CONST_FIXED.get(name)
    if held is None or held[0] < s:
        top = -(-(s + _CONST_HEADROOM) // _CONST_STEP) * _CONST_STEP
        # radius < 10^-digits <= 2^-top / 10
        held = _CONST_FIXED[name] = (
            top, *constant(name, _digits(top)).interval(top))
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


#: the highest degree of a weight polynomial in k
MAX_DEGREE = 3


@dataclass(frozen=True)
class TermSpec:
    """One summand  weight(k) * prod seq(k)^e / (prod den(k)^e * m^k); no
    affine denominator factor may be 0 at any k >= k0."""

    weight: Tuple[int, ...]                       # poly coefficients, low->high
    den: Tuple[Tuple[str, int], ...]              # (factor tag, exponent)
    seq: Tuple[Tuple[SequenceKind, int], ...]     # (kind, exponent)
    m: Fraction                                   # summand carries m^(-k)
    k0: int = 0

    def __post_init__(self):
        if self.m == 0:
            raise ValueError("m must be nonzero")
        if self.k0 < 0:
            raise ValueError(f"k0 must be >= 0, got {self.k0}")
        if not 1 <= len(self.weight) <= MAX_DEGREE + 1:
            raise ValueError(f"weight needs 1 to {MAX_DEGREE + 1}"
                             f" coefficients, got {len(self.weight)}")
        for tag, e in self.den:
            if tag not in _DEN:
                raise ValueError(f"unknown denominator factor {tag!r}")
            if e < 1:
                raise ValueError(f"exponent {e} of {tag!r} is below 1")
            if tag in _AFFINE:
                a, b = _AFFINE[tag]
                if b % a == 0 and -b // a >= self.k0:
                    raise ValueError(f"denominator factor {tag!r} is 0 at"
                                     f" k = {-b // a} >= k0 = {self.k0}")
        for kind, e in self.seq:
            if e < 1:
                raise ValueError(f"exponent {e} of {kind} is below 1")


#: the sequence kind of each binomial denominator tag
_DEN_KIND = {tag: SequenceKind(tag) for tag in ("CB2", "CB3", "CB4")}

#: terms per block of :func:`_term_columns`: a bound on the columns held
#: at once, whatever the number of terms
_BLOCK = 32
#: the extra bits of a cut term's floor test, and its guard: a direct sum
#: at the scale 2^-s has its columns cut to s + 2 _GUARD bits
_GUARD = 32


def _poly_column(coeffs: Sequence[int], ks: range) -> Optional[List[int]]:
    """p(k) for k in ``ks``, coefficients high -> low, by Horner's rule on
    whole columns; None for the constant 1, which multiplies nothing."""
    if len(coeffs) == 1 and coeffs[0] == 1:
        return None
    out = [coeffs[0]] * len(ks)
    for c in coeffs[1:]:
        out = list(map(add, map(mul, out, ks), repeat(c)))
    return out


def _product(factors: List[Iterable[int]], n: int) -> List[int]:
    """The entrywise product of columns of length n, with no column but the
    result materialised; no factors give ones."""
    if not factors:
        return [1] * n
    out = factors[0]
    for col in factors[1:]:
        out = map(mul, out, col)
    return list(out)


def _integer_weight(weight: Sequence) -> Tuple[List[int], int]:
    """A weight's coefficients over their common denominator, high -> low,
    and that denominator."""
    wden = lcm(*(c.denominator for c in weight))
    return [c.numerator * (wden // c.denominator)
            for c in reversed(weight)], wden


def _weighted(coeffs: List[int], wden: int, k: int, nums: List[int],
              dens: List[int]) -> Tuple[Iterator[int], Iterator[int]]:
    """w(k + i) nums[i] and wden dens[i] along a block that starts at k,
    for the weight w = coeffs / wden of :func:`_integer_weight`."""
    ws = _poly_column(coeffs, range(k, k + len(nums)))
    return (iter(nums) if ws is None else map(mul, ws, nums),
            iter(dens) if wden == 1 else map(mul, dens, repeat(wden)))


def _cut_from(bits: int) -> int:
    """The bit length from which :func:`_term_columns` cuts a block to
    ``bits`` bits: a block whose columns are all shorter costs less
    exact than cut and tested."""
    return 4 * bits + 2048


class _Cut(NamedTuple):
    """How a cut block of :func:`_term_columns` stands for its terms.

    Entry i of the block is term(k + i) = nums[i] / dens[i] 2^shift times
    a factor within cols 2^(2-bits) of 1, as each of the ``cols`` cut
    columns is off by less than 2^(1-bits) relative.
    """

    shift: int
    cols: int
    bits: int


def _least_bits(col: List[int]) -> int:
    """The bit length of the shortest nonzero entry, 0 if there is none."""
    return min(filter(None, map(int.bit_length, col)), default=0)


def _cut_block(num_f: List[List[int]], den_f: List[List[int]], bits: int
               ) -> Optional[Tuple[List[List[int]], List[List[int]], int, int]]:
    """A block's factor columns cut to ``bits`` bits, or None when no
    column's shortest nonzero entry reaches ``_cut_from(bits)`` bits or
    no column is longer than 2 ``bits`` bits.

    Each column whose shortest nonzero entry has n > 2 ``bits`` bits is
    shifted right by n - ``bits``; the result is the cut numerator and
    denominator columns, the numerator's total shift less the
    denominator's, and the number of columns cut.  A shifted entry keeps
    its sign, a nonzero one stays nonzero, and each is off by less than
    2^(1-bits) relative.
    """
    least = [list(map(_least_bits, cols)) for cols in (num_f, den_f)]
    if max(chain(*least), default=0) < _cut_from(bits):
        return None
    out, shift, cut = [], 0, 0
    for cols, ns, sign in zip((num_f, den_f), least, (1, -1)):
        out.append([])
        for col, n in zip(cols, ns):
            if n > 2 * bits:
                col = list(map(rshift, col, repeat(n - bits)))
                shift, cut = shift + sign * (n - bits), cut + 1
            out[-1].append(col)
    return (out[0], out[1], shift, cut) if cut else None


def _term_columns(spec: TermSpec, lo: int, hi: int, bits: Optional[int] = None
                  ) -> Iterator[tuple]:
    """Terms lo..hi of ``spec`` as columns of unreduced integers: blocks
    (k, nums, dens) of at most ``_BLOCK`` terms, the first at k = lo, with
    term(k + i) = nums[i] / dens[i] and dens[i] > 0.  See
    :func:`_columns`."""
    return _columns(spec, _integer_weight(spec.weight), lo, hi, bits)


#: the integer weight of :func:`_integer_weight` that multiplies nothing:
#: the stream of the unweighted term
_UNWEIGHTED = ([1], 1)


def _columns(spec: TermSpec, weight: Tuple[List[int], int], lo: int, hi: int,
             bits: Optional[int] = None) -> Iterator[tuple]:
    """The blocks of :func:`_term_columns` for ``spec``'s term with its
    weight replaced by ``weight``, coefficients and denominator as
    :func:`_integer_weight` gives them (``_UNWEIGHTED`` for none).

    Each column is the entrywise product of factor columns: the weight
    polynomial (its coefficients share one denominator), slices of the
    store's rows for the sequences and for the denominator binomials
    C(2k,k), C(3k,k), C(4k,2k) (CB2, CB3, CB4), a range for each affine
    factor, and for m = a/b (a > 0, the sign of m moved to b) the powers
    b^k and a^k, each one ``accumulate`` over the whole range.  The
    factors are chained ``map`` iterators, so a block holds only its two
    result columns.  Every kind a term reads has integer rows.

    With ``bits``, each block is (k, nums, dens, cut) instead.  Once a
    factor column's shortest nonzero entry has ``_cut_from(bits)`` bits,
    every column longer than 2 ``bits`` bits is shifted right to keep
    ``bits`` leading bits (:func:`_cut_block`), and the products are of
    the cut columns; ``cut`` is the :class:`_Cut` that relates them to the
    exact terms, or None when the block was not cut and nums, dens are
    exact.  No exact column of a cut block outlives the block.
    """
    if lo < spec.k0:
        raise ValueError(f"term starts at k0={spec.k0}")
    weight, wden = weight
    seq = [(seqkit.rows(kind, hi), e) for kind, e in spec.seq]
    binom = [(seqkit.rows(_DEN_KIND[tag], hi), e)
             for tag, e in spec.den if tag not in _AFFINE]
    affine = [(*_AFFINE[tag], e) for tag, e in spec.den if tag in _AFFINE]
    # from this k on every affine factor is positive; before it den may not be
    positive = max((-((c0 - 1) // c1) for c1, c0, _ in affine), default=0)
    a, b = spec.m.as_integer_ratio()
    if a < 0:
        a, b = -a, -b
    apow = accumulate(repeat(a), mul, initial=a ** lo)
    bpow = accumulate(repeat(b), mul, initial=b ** lo)
    cutting = False
    if bits is not None:
        # no column is cut when none reaches _cut_from(bits) at hi (or at
        # hi - 1, for the kinds whose odd rows are 0)
        top = _cut_from(bits)
        cutting = hi * max(a, abs(b)).bit_length() >= top or any(
            e * (tab[hi] or tab[hi - 1]).bit_length() >= top
            for tab, e in chain(seq, binom))
    for k in range(lo, hi + 1, _BLOCK):
        end = min(k + _BLOCK, hi + 1)
        n = end - k
        num_f: List[Iterable[int]] = []
        den_f: List[Iterable[int]] = []
        w = _poly_column(weight, range(k, end))
        if w is not None:
            num_f.append(w)
        if wden != 1:
            den_f.append(repeat(wden, n))
        if b != 1:
            num_f.append(islice(bpow, n))
        if a != 1:
            den_f.append(islice(apow, n))
        for tab, e in seq:
            col = tab[k:end]
            num_f.append(col if e == 1 else map(pow, col, repeat(e)))
        for tab, e in binom:
            col = tab[k:end]
            den_f.append(col if e == 1 else map(pow, col, repeat(e)))
        for c1, c0, e in affine:
            col = range(c1 * k + c0, c1 * end + c0, c1)
            den_f.append(col if e == 1 else map(pow, col, repeat(e)))
        cut = None
        if cutting:
            num_f, den_f = list(map(list, num_f)), list(map(list, den_f))
            cols = _cut_block(num_f, den_f, bits)
            if cols is not None:
                num_f, den_f, shift, count = cols
                cut = _Cut(shift, count, bits)
        nums, dens = _product(num_f, n), _product(den_f, n)
        for i in range(min(n, positive - k)):
            if dens[i] < 0:
                nums[i], dens[i] = -nums[i], -dens[i]
        yield (k, nums, dens) if bits is None else (k, nums, dens, cut)


def _term_pairs(spec: TermSpec, lo: int, hi: int) -> Iterator[Tuple[int, int]]:
    """The (num, den) pairs of :func:`_term_columns` one after another, for
    the exact partial sums that walk the terms in order."""
    return chain.from_iterable(
        zip(nums, dens) for _, nums, dens in
        _columns(spec, _integer_weight(spec.weight), lo, hi))


def term_value(spec: TermSpec, k: int) -> Fraction:
    """Exact value of the k-th summand."""
    (_, (num,), (den,)), = _term_columns(spec, k, k)
    return Fraction(num, den)


# ---- term factors: growth bounds, decays and moment boxes -----------------
#
# Every factor f(k) of a term but the weight and m^-k (a sequence of
# ``spec.seq``, or the reciprocal of a factor of ``spec.den``) is described
# once, by a :class:`_Factor`: a growth bound
#     |f(k)| <= poly(k) g^k / den                   for k >= 1,
# which the direct path's envelope multiplies out (:func:`_base_envelope`);
# for the factors that have one, a decay with the same g,
#     |f(k)| <= C k^(-alpha) g^k,  alpha = a2/2,    for k >= 1,
# with C = cn/cd and a2 held as integers per kind, proved below the tables,
# which the decayed envelope multiplies out in place of poly / den (it
# keeps the polynomial decay that the growth bound throws away); and, for
# the factors that have one, a moment representation
#     f(k) = poly(k) E[eta^k],   eta in ``box()``,  |eta| <= g,
# where E integrates against a positive measure of mass at most 1 and eta
# lies in a rectangle of the complex plane with rational corners:
#     C(2k,k)       = E[(4x)^k]                  (arcsine measure on [0,1])
#     C(2k,k)/(k+1) = E[(4xy)^k]                 (times the mass-1 E[y^k])
#     1/(a*k+b)     = E[y^k] with mass 1/(a*k0+b) (power measure, y = v^a)
#     1/C(2k,k)     = (2k+1) * E[(x(1-x))^k]      (Beta integral)
#     1/C(3k,k)     = (3k+1) * E[(x^2(1-x))^k]
#     1/C(4k,2k)    = (4k+1) * E[(x(1-x))^(2k)]
#     T_k(b,c), c>0 = E[(b + 2 sqrt(c) cos t)^k]
#     T_k(b,c), c<0 = E[(b + 2 i sqrt(|c|) cos t)^k]
#     g_k(x), x<0   = E[eta^k], Re eta in [1+4x, 1], |Im eta| <= 4 sqrt(|x|)
# (the last one combines sum_j C(k,j)^2 y^j = (1-y)^k P_k((1+y)/(1-y)) with
# the Laplace integral for the Legendre polynomial P_k).  The power
# measure's mass is set by :func:`_certificate`, which knows k0.  As each
# eta is at most the growth g of its factor in modulus, the envelope ratio
# theta, the product of the growths over |m|, bounds |eta| for the whole
# term; the Euler certificate is built only at theta = 1, so |eta| <= 1.

@dataclass(frozen=True)
class _CBox:
    """Axis-aligned rectangle in the complex plane with rational corners."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction = Fraction(0)
    im_hi: Fraction = Fraction(0)


def _imul(al, ah, bl, bh) -> Tuple[Fraction, Fraction]:
    if not (al or ah) or not (bl or bh):
        # a zero interval, as every imaginary part of a real box is
        return Fraction(0), Fraction(0)
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


def _cbox(re_lo, re_hi, im_sq) -> _CBox:
    """[re_lo, re_hi] x [-r, r] with r = sqrt(im_sq) rounded up."""
    r = _sqrt_frac_up(Fraction(im_sq))
    return _CBox(Fraction(re_lo), Fraction(re_hi), -r, r)


def _poly_mul(a: Sequence, b: Sequence) -> list:
    if len(b) == 1:
        return [x * b[0] for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class _Factor(NamedTuple):
    """A term factor's growth g, the function that builds its moment box
    (None when it has no moment representation; only the Euler path reads
    a box, so none is built for the direct path), its integer polynomial
    poly / den, low -> high (den is 1 when there is a box), and its decay
    (cn, cd, a2): |f(k)| <= (cn/cd) k^(-a2/2) g^k for k >= 1, or None
    when only the growth bound is known."""

    g: Fraction
    box: Optional[Callable[[], _CBox]] = None
    poly: Tuple[int, ...] = (1,)
    den: int = 1
    decay: Optional[Tuple[int, int, int]] = None


def _wzag() -> _Factor:
    """|w_k| <= (28/45) C(k+9,9) sqrt(27)^(k-1) for k >= 1: write
    v_k = (w_k, w_{k-1}); the one-step matrices converge to
    M = [[9,-27],[1,0]] with complex eigenvalues of modulus sqrt(27), and
    in the norm adapted to M each step has norm at most sqrt(27) + 46/(k+1),
    whose product telescopes into this binomial-coefficient envelope."""
    s = _sqrt_frac_up(Fraction(27))
    c = Fraction(28, 45) / (s * 362880)
    binom = reduce(_poly_mul, ([i, 1] for i in range(1, 10)), [1])
    return _Factor(s, None, tuple(c.numerator * x for x in binom),
                   c.denominator)


# The decays, |f(k)| <= C k^(-alpha) g^k for k >= 1 with alpha = a2/2,
# follow from Robbins' Stirling bounds (1955): n! = sqrt(2 pi n) (n/e)^n
# e^(r_n) with 1/(12n+1) < r_n < 1/(12n).
#   C(2k,k) = 4^k e^(r_2k - 2 r_k) / sqrt(pi k) < 4^k / sqrt(pi k), as
#     r_2k - 2 r_k < 1/(24k) - 2/(12k+1) < 0, and 1/sqrt(pi) < 4/7;
#     C(2k,k+1) = C(2k,k) k/(k+1) and the Catalan C(2k,k)/(k+1) < C(2k,k)/k
#     follow.  The same way, C(3k,k) < sqrt(3/(4 pi k)) (27/4)^k,
#     C(4k,2k) < 16^k / sqrt(2 pi k) and C(6k,3k) < 64^k / sqrt(3 pi k),
#     below 1/2, 2/5 and 1/3 times k^(-1/2) times the growth.
#   Franel: sum_j C(k,j)^3 <= C(k,[k/2]) sum_j C(k,j)^2 = C(k,[k/2]) C(2k,k),
#     and C(k,[k/2]) <= 2^k sqrt(2/(pi k)) (by the C(2n,n) bound, through
#     C(2n+1,n) = C(2n+2,n+1)/2 for odd k), so it is below
#     (sqrt 2/pi) k^-1 8^k, sqrt 2/pi < 23/50; sum_j C(k,j)^4 <=
#     C(k,[k/2])^2 C(2k,k) < 2 pi^(-3/2) k^(-3/2) 16^k, 2 pi^(-3/2) < 2/5.
#   1/C(2k,k) < sqrt(pi k) e^(1/(6k) - 1/(24k+1)) / 4^k <= 2 sqrt(k) / 4^k
#     (the factor is below 1.89 for k >= 2, and k = 1 is equality);
#     1/C(3k,k) < sqrt(4 pi k/3) e^(1/(8k) - 1/(36k+1)) (4/27)^k, the factor
#     below 2.26 < 7/3, and 1/C(4k,2k) < sqrt(2 pi k) e^(1/(12k) -
#     1/(48k+1)) / 16^k, the factor below 2.67 < 11/4.
#   1/(ak+b) <= 1/((a + min(b,0)) k) for k >= 1, as b >= -1.
# The constants of T_k(b,c) and its kin are in :func:`_gct_decay`.

#: sequence tag -> the factor of a kind without parameters
_SEQ = {
    "CB2": _Factor(Fraction(4), partial(_rbox, 0, 4), decay=(4, 7, 1)),
    "CATALAN": _Factor(Fraction(4), partial(_rbox, 0, 4), decay=(4, 7, 3)),
    "CB2SHIFT": _Factor(Fraction(4), decay=(4, 7, 1)),
    "CB3": _Factor(Fraction(27, 4), decay=(1, 2, 1)),
    "CB4": _Factor(Fraction(16), decay=(2, 5, 1)),
    "CB63": _Factor(Fraction(64), decay=(1, 3, 1)),
    "DOMB": _Factor(Fraction(16)),
    "FRANEL": _Factor(Fraction(8), decay=(23, 50, 2)),
    "FRANEL4": _Factor(Fraction(16), decay=(2, 5, 3)),
    "GSEQ": _Factor(Fraction(9)), "ZAGIER": _Factor(Fraction(8)),
    "BETA": _Factor(Fraction(16)), "WZAG": _wzag(),
}


def _affine_factor(a: int, b: int) -> _Factor:
    """The factor of 1/(ak+b): at most 1 in modulus wherever ak + b is a
    nonzero integer, and 1/((a + min(b,0)) k) for k >= 1 where that
    coefficient is at least 1."""
    s = a + min(b, 0)
    return _Factor(Fraction(1), partial(_rbox, 0, 1),
                   decay=(1, s, 2) if s >= 1 else None)


#: denominator factor tag -> the factor of its reciprocal; the polys
#: 1/C(2k,k) <= (2k+1)/4^k, 1/C(3k,k) <= (3k+1)(4/27)^k and
#: 1/C(4k,2k) <= (4k+1)/16^k are the cofactors of their moment boxes
_DEN = {
    **{tag: _affine_factor(a, b) for tag, (a, b) in _AFFINE.items()},
    "CB2": _Factor(Fraction(1, 4), partial(_rbox, 0, Fraction(1, 4)), (1, 2),
                   decay=(2, 1, -1)),
    "CB3": _Factor(Fraction(4, 27), partial(_rbox, 0, Fraction(4, 27)),
                   (1, 3), decay=(7, 3, -1)),
    "CB4": _Factor(Fraction(1, 16), partial(_rbox, 0, Fraction(1, 16)),
                   (1, 4), decay=(11, 4, -1)),
}

#: bits of the denominator 2^_ROOT_BITS of a rounded-up decay constant
_ROOT_BITS = 16


def _root_up(num: int, den: int, n: int) -> Tuple[int, int]:
    """(r, 2^_ROOT_BITS) with (num/den)^(1/n) <= r / 2^_ROOT_BITS, for
    num >= 0, den > 0 and n = 2 or 4: isqrt of isqrt is the floor of the
    fourth root."""
    y = -(-num << _ROOT_BITS * n) // den
    for _ in range(n // 2):
        y = isqrt(y)
    return y + 1, 1 << _ROOT_BITS


def _gct_decay(b: int, c: int, g: Fraction, stride: int
               ) -> Optional[Tuple[int, int, int]]:
    """The decay (cn, cd, 1) of T_{stride k}(b,c), stride 1 or 2, over its
    growth g^stride (g >= |b| + 2 sqrt(c) for c > 0, g >= sqrt(b^2 - 4c)
    for c < 0); None for c = 0, where T_k = b^k.

    For c < 0, T_k = D^(k/2) P_k(x) with D = b^2 - 4c and x = b/sqrt(D),
    and Bernstein's inequality |P_k(x)| < sqrt(2/(pi k)) (1-x^2)^(-1/4)
    (Szego, Orthogonal polynomials, Thm 7.3.3) with 1 - x^2 = 4|c|/D gives
    C = sqrt(2/pi) (D/(4|c|))^(1/4), so C^4 = D / (pi^2 |c|).
    For c > 0, |T_k| <= (1/pi) int_0^pi (|b| + 2 sqrt(c) |cos t|)^k dt =
    (2/pi) int_0^(pi/2) (g - 2 sqrt(c) (1 - cos t))^k dt, and with
    1 - cos t >= 2 t^2/pi^2 there and (1-u)^k <= e^(-ku) it is at most
    (2/pi) g^k int_0^oo exp(-4 sqrt(c) k t^2 / (pi^2 g)) dt, so
    C^2 = pi g / (4 sqrt c).  T_{2k} has (2k)^(-1/2) = k^(-1/2)/sqrt(2), so
    stride 2 divides C^4 by 4 and C^2 by 2.  Both are rounded up, with
    333/106 < pi < 355/113 and sqrt(c) >= isqrt(c 4^t) / 2^t."""
    if c < 0:
        return (*_root_up((b * b - 4 * c) * 106 ** 2,
                          333 ** 2 * -c * stride ** 2, 4), 1)
    if c > 0:
        t = _ROOT_BITS
        return (*_root_up(355 * g.numerator << t,
                          113 * g.denominator * 4 * isqrt(c << 2 * t)
                          * stride, 2), 1)
    return None


@lru_cache(maxsize=1024)
def _kind_factor(kind: SequenceKind) -> _Factor:
    """The factor of a sequence kind, memoised per kind."""
    tag = kind.tag
    if tag in _SEQ:
        return _SEQ[tag]
    if tag == "GCT":
        b, c = kind.params
        if c < 0:
            # |T_k(b,c)| = |D^(k/2) P_k(b/sqrt D)| <= sqrt(D)^k, D = b^2-4c
            g = _sqrt_frac_up(Fraction(b * b - 4 * c))
            return _Factor(g, partial(_cbox, b, b, -4 * c),
                           decay=_gct_decay(b, c, g, 1))
        # g = |b| + s with s = 2 sqrt(c) rounded up as _sqrt_frac_up rounds
        # it, one Fraction built from integers
        s = 2 * isqrt(c * _SQRT_GUARD ** 2) + 2
        g = Fraction(abs(b) * _SQRT_GUARD + s, _SQRT_GUARD)
        return _Factor(g, lambda: _rbox(b - Fraction(s, _SQRT_GUARD),
                                        b + Fraction(s, _SQRT_GUARD)),
                       decay=_gct_decay(b, c, g, 1))
    if tag == "GCT2":
        g, box = _kind_factor(SequenceKind("GCT", kind.params))[:2]
        return _Factor(g ** 2, lambda: _box_pow(box(), 2),
                       decay=_gct_decay(*kind.params, g, 2))
    if tag == "SBC":
        # |S_k(b,c)| <= sum_j C(k,j)^2 g^j g^(k-j) = C(2k,k) g^k, with the
        # decay of C(2k,k)
        return _Factor(4 * _kind_factor(SequenceKind("GCT", kind.params)).g,
                       decay=_SEQ["CB2"].decay)
    if tag == "GPOLY":
        (x,) = kind.params
        if x < 0:
            # |g_k(x)| <= (1+4|x|)^k via the Legendre integral representation
            return _Factor(Fraction(1 - 4 * x),
                           partial(_cbox, 1 + 4 * x, 1, -16 * x))
        return _Factor((1 + 2 * _sqrt_frac_up(Fraction(x))) ** 2)
    raise DivergentError(f"no growth bound for sequence kind {kind}")


def _factors(seq: Tuple[Tuple[SequenceKind, int], ...],
             den: Tuple[Tuple[str, int], ...]
             ) -> Iterator[Tuple[_Factor, int]]:
    """(factor, exponent) for each sequence ``seq`` of a term, then for
    each reciprocal denominator factor ``den``."""
    return chain(((_kind_factor(kind), e) for kind, e in seq),
                 ((_DEN[tag], e) for tag, e in den))


class _Envelope(NamedTuple):
    """The two envelopes of a term for k >= max(k0, 1), both with the
    weight's absolute value |w| (its coefficients made nonnegative):
        |term(k)| <= |w|(k) q(k) theta^k / den,
    from the factors' polys, dens and growths, and, when ``decay`` =
    (dq, dden, a2) is not None, the decayed one
        |term(k)| <= |w|(k) dq(k) k^(-a2/2) theta^k / dden,  a2 > 0,
    where each factor with a decay gives its C k^(-alpha) in place of its
    poly / den.  q and dq have nonnegative integer coefficients, low ->
    high."""

    q: List[int]
    den: int
    theta: Fraction
    decay: Optional[Tuple[List[int], int, int]]


def _base_envelope(spec: TermSpec) -> _Envelope:
    """The :class:`_Envelope` of ``spec``: theta is the product of the
    factors' growths over |m|; the decayed envelope is kept only where the
    net a2, the sum of the factors' a2 times their exponents, is above 0.
    Nothing here reads the weight, so :func:`eval_weighted` builds it once
    for all its weights, and only theta reads m: the rest is built once
    per factor shape (:func:`_shape_envelope`)."""
    gn, gd, q, den, decay = _shape_envelope(spec.seq, spec.den)
    mn, md = spec.m.as_integer_ratio()
    return _Envelope(q, den, Fraction(md * gn, abs(mn) * gd), decay)


@lru_cache(maxsize=1024)
def _shape_envelope(seq: Tuple[Tuple[SequenceKind, int], ...],
                    den: Tuple[Tuple[str, int], ...]) -> tuple:
    """(gn, gd, q, den, decay) of the factors ``seq`` and ``den`` of a
    term, memoised per shape: the product gn / gd of their growths, and
    the q, den and decay of :class:`_Envelope`.  The lists are shared by
    every caller, which only reads them."""
    gn = gd = 1
    q, pden = [1], 1
    dq, dden, cn, a2 = [1], 1, 1, 0
    for f, e in _factors(seq, den):
        gn, gd = gn * f.g.numerator ** e, gd * f.g.denominator ** e
        pden *= f.den ** e
        if f.decay is not None:
            cn, dden = cn * f.decay[0] ** e, dden * f.decay[1] ** e
            a2 += f.decay[2] * e
        else:
            dden *= f.den ** e
        if f.poly != (1,):
            for _ in range(e):
                q = _poly_mul(q, f.poly)
                if f.decay is None:
                    dq = _poly_mul(dq, f.poly)
    decay = ([cn * c for c in dq], dden, a2) if a2 > 0 else None
    return gn, gd, q, pden, decay


def _envelope_poly(weight: Sequence[int], wden: int, q: Sequence[int],
                   den: int) -> Tuple[List[int], int]:
    """P = |w| q / den as integer coefficients, low -> high, over one
    denominator, for the weight w = weight / wden of
    :func:`_integer_weight` (high -> low) and q / den of
    :func:`_base_envelope`."""
    return _poly_mul([abs(c) for c in reversed(weight)], q), wden * den


def _crossover(poly: Sequence, theta: Fraction, lo: int) -> int:
    """Smallest K >= lo with ((K+2)/(K+1))^deg * theta <= rho = (1+theta)/2,
    deg = len(poly) - 1, theta < 1: from K on, the envelope ratio
    P(k+1)/P(k) * theta stays at most rho < 1.

    As (K+2)/(K+1) falls, the test fails below some K and passes from it
    on.  Where it fails at lo, the float root of (1 + 1/(K+1))^deg =
    (1+theta)/(2 theta) is a first guess, moved down while K - 1 passes
    and up while K fails, so the integers decide."""
    deg = len(poly) - 1
    a, b = theta.as_integer_ratio()

    def fails(K: int) -> bool:
        return 2 * a * (K + 2) ** deg > (a + b) * (K + 1) ** deg

    K = lo
    if deg and fails(lo):
        x = expm1((log(a + b) - log(2 * a)) / deg)
        K = max(lo + 1, ceil(1 / x) - 1) if x > 0 else lo + 1
        while K > lo + 1 and not fails(K - 1):
            K -= 1
        while fails(K):
            K += 1
    return K


#: mantissa bits of an upward-rounded dyadic in a tail bound
_TAIL_BITS = 80


def _dyadic_up(num: int, den: int) -> Tuple[int, int]:
    """(m, e) with num/den <= m 2^-e <= num/den (1 + 2^(1-_TAIL_BITS)),
    for num >= 0 and den > 0."""
    e = _TAIL_BITS + den.bit_length() - num.bit_length()
    if e >= 0:
        return -(-(num << e) // den), e
    return -(-num // (den << -e)), e


def _mul_up(m1: int, e1: int, m2: int, e2: int) -> Tuple[int, int]:
    """The product of m1 2^-e1 and m2 2^-e2, its mantissa rounded up to
    ``_TAIL_BITS`` bits: above the product by at most 2^(1-_TAIL_BITS)
    relative."""
    m, e = m1 * m2, e1 + e2
    cut = m.bit_length() - _TAIL_BITS
    if cut <= 0:
        return m, e
    return -(-m >> cut), e - cut


def _pow_up(m: int, e: int, n: int) -> Tuple[int, int]:
    """(m 2^-e)^n by binary powering, every product by :func:`_mul_up`."""
    out, oe = 1, 0
    while n:
        if n & 1:
            out, oe = _mul_up(out, oe, m, e)
        n >>= 1
        if n:
            m, e = _mul_up(m, e, m, e)
    return out, oe


def _horner(coeffs: Sequence[int], x: int) -> int:
    """p(x) for the integer coefficients of p, low -> high."""
    p = 0
    for c in reversed(coeffs):
        p = p * x + c
    return p


class _Tail:
    """The closed-form tail bound of a weight's envelopes past their
    crossover K0 (:func:`_crossover`), as an upward-rounded dyadic.

    The envelope P(k) theta^k, theta < 1, is |w| q theta^k / den of
    :class:`_Envelope`, with P the integer ``coeffs`` over ``den``; the
    decayed one, where there is one, is D(k) k^(-a2/2) theta^k with D the
    integer ``decay[0]`` over ``decay[1]`` and a2 = ``decay[2]`` > 0.  D
    has no higher degree than P, and k^(-a2/2) only falls, so past K0 the
    ratio of either envelope from one k to the next is at most
    rho = (1+theta)/2, and the tail past N >= K0 is at most its term at
    N+1 over 1 - rho: 2 P(N+1) theta^(N+1) / (1 - theta), or
    2 D(N+1) (N+1)^(-a2/2) theta^(N+1) / (1 - theta).  :meth:`closed`
    takes the smaller of the two at each N, so a decay constant above 1
    never costs a term.

    Each is bounded by m 2^-e with m of at most ``_TAIL_BITS`` bits:
    theta and 2 / ((1 - theta) den) (or 2 / (1 - theta)) are rounded up
    once, theta^(N+1) is taken by binary powering rounded up after every
    product, P(N+1) den and D(N+1) decay[1] are exact integers, and
    (N+1)^(-a2/2) is rounded up through ``isqrt``.  Every factor is
    positive and nothing is rounded down, so m 2^-e is an upper bound,
    like every radius of this module.  Each rounding adds less than
    2^(1-_TAIL_BITS) relative; counted with the powers they are raised to
    there are fewer than 3 (N+1) + 2 log2(N+1) + 5, so below N = 10^8 the
    bound exceeds the exact closed form by a factor below 1 + 2^-50, and
    no gcd runs on the thousands-of-bits parts of the exact power (theta's
    denominator carries ``_SQRT_GUARD``).
    """

    def __init__(self, env: _Envelope, weight: Sequence[int], wden: int,
                 k0: int):
        self.theta = env.theta
        self.coeffs, self.den = _envelope_poly(weight, wden, env.q, env.den)
        self.decay = None
        if env.decay is not None:
            dq, dden, a2 = env.decay
            self.decay = (*_envelope_poly(weight, wden, dq, dden), a2)
        self.K0 = _crossover(self.coeffs, env.theta, max(k0, 1))
        a, b = env.theta.as_integer_ratio()
        self._theta = _dyadic_up(a, b)
        self._scale = _dyadic_up(2 * b, (b - a) * self.den)
        self._ratio = _dyadic_up(2 * b, b - a)
        self._last = (0, 0, 0)

    def values(self, n: int) -> Tuple[int, int]:
        """(P(n) den, D(n) decay[1]), the second 0 without a decay, exact;
        the last n asked for is held, so the float estimate of N and the
        integer check at the same N evaluate each polynomial once."""
        if self._last[0] != n:
            self._last = (n, _horner(self.coeffs, n),
                          0 if self.decay is None
                          else _horner(self.decay[0], n))
        return self._last[1:]

    def closed(self, N: int) -> Tuple[int, int]:
        """(m, e) with min(P(N+1), D(N+1) (N+1)^(-a2/2)) theta^(N+1) /
        (1 - rho) <= m 2^-e, N >= K0."""
        n = N + 1
        p, d = self.values(n)
        m, e = _pow_up(*self._theta, n)
        if self.decay is not None:
            _, dden, a2 = self.decay
            # r <= n^(a2/2) 2^_TAIL_BITS, so D(n) n^(-a2/2) <= d / (dden r)
            r = isqrt(n ** a2 << 2 * _TAIL_BITS)
            d <<= _TAIL_BITS
            if d * self.den < p * dden * r:
                m, e = _mul_up(m, e, *_dyadic_up(d, dden * r))
                return _mul_up(m, e, *self._ratio)
        return _mul_up(m, e, p * self._scale[0], self._scale[1])


def tail_bound(spec: TermSpec, N: int) -> Ball:
    """A ball at 0 that holds sum_{k>N} term(k): its radius is a rigorous
    upper bound on the tail, a sum of upward-rounded dyadics.

    Uses the envelopes of :class:`_Envelope`: |term(k)| <= P(k) theta^k
    with P of nonnegative coefficients and, where the factors' decays
    leave a net k^(-alpha), alpha > 0, also |term(k)| <= D(k) k^(-alpha)
    theta^k.  Past the crossover index K0 the ratio of either from one k
    to the next stays below a fixed rho < 1, giving a geometric tail whose
    closed form, the smaller of the two, is rounded up to a dyadic
    (:class:`_Tail`).  Before the crossover each exact |term| N+1..K0 is
    rounded up to a dyadic by :func:`_dyadic_up`, and these are added to
    the closed form at K0 at one exponent; so the bound exceeds the exact
    one by a factor below 1 + 2^-50 there too.  :func:`eval_series` uses
    this very bound; it only picks N differently.
    """
    env = _base_envelope(spec)
    if env.theta >= 1:
        raise DivergentError(f"term envelope ratio {env.theta} >= 1")
    tail = _Tail(env, *_integer_weight(spec.weight), spec.k0)
    if N >= tail.K0:
        return _radius([tail.closed(N)])
    return _radius([tail.closed(tail.K0),
                    *(_dyadic_up(abs(num), d)
                      for num, d in _term_pairs(spec, N + 1, tail.K0))])


def _scale_bits(rounded: int, T: int) -> int:
    """Scale bits s for a sum of ``rounded`` values each floored to a
    multiple of 2^-s, for T = 10^(digits+2): the rounding radius
    rounded 2^-s is then at most 10^-(digits+2) / 32."""
    return (32 * rounded * T - 1).bit_length()


def _fits(m: int, e: int, rounded: int, T: int) -> bool:
    """Whether the tail bound m 2^-e is below 1/T less the rounding radius
    r 2^-s of r = ``rounded`` floors at s = ``_scale_bits(r, T)``
    (:func:`_fits_at`)."""
    return _fits_at(m, e, rounded, _scale_bits(rounded, T), T)


def _fits_at(m: int, e: int, rounded: int, s: int, T: int) -> bool:
    """Whether the tail bound m 2^-e is below 1/T less the rounding radius
    r 2^-s of r = ``rounded`` units, in one comparison of integers:
    m T 2^s < (2^s - r T) 2^e."""
    lhs, rhs = (m * T) << s, (1 << s) - rounded * T
    if e >= 0:
        rhs <<= e
    else:
        lhs <<= -e
    return lhs < rhs


def _fall_root(g: float, L: float, n: int, beta: float) -> float:
    """An s >= 0 at or below the root of f(s) = s L + beta log(1 + s/n) =
    g > 0, for L > 0 and f increasing.  For beta >= 0 f is concave, and
    Newton's iteration from the root of its tangent at 0 stays below the
    root; for beta < 0 the iteration s = (g - beta log(1 + s/n)) / L from
    g / L rises towards the root and stays below it, as its right side
    grows with s."""
    if beta < 0:
        s = g / L
        for _ in range(2):
            s = (g - beta * log1p(s / n)) / L
        return s
    s = g / (L + beta / n)
    if beta:
        for _ in range(2):
            s -= (s * L + beta * log1p(s / n) - g) / (L + beta / (n + s))
    return s


def _estimate_N(tail: _Tail, k0: int, T: int) -> int:
    """First guess at the smallest N >= K0 (K0 >= k0, the crossover of
    ``tail``) whose closed-form tail, the smaller of P(N+1) and
    D(N+1) (N+1)^(-alpha), alpha = a2/2, times theta^(N+1) / (1-rho), is
    below 1/T, T = 10^(digits+2), minus the rounding radius of N - k0 + 1
    terms, in floating-point logs only.  P(N+1) and D(N+1) are evaluated in
    integers, so only their logs are floats, however long their parts.

    From K0 the guess moves up by s steps with f(s) <= gap, where
    f(s) = s L + beta log(1 + s/n), n = N+1, L = -log(theta), bounds the
    fall of the log gap over s steps from N: log theta^n falls by s L, and
    log P by at most -mu_P log(1 + s/n), mu_P = n P'(n) / P(n), as
    P(n+s) / P(n) >= (1 + s/n)^mu_P by Jensen's inequality (log P is
    convex in log n, its coefficients being nonnegative);
    log D(n) n^(-alpha) falls by at most (alpha - mu_D) log(1 + s/n) the
    same way.  The log of the smaller envelope falls by at most the larger
    of the two, so beta = -mu_P, or the larger of -mu_P and alpha - mu_D.
    The rounding radius only slows the fall.  So no move passes the
    smallest such N.  The first step takes beta at K0; the later ones,
    short, take beta = alpha, dropping the growth, which only shortens
    them; each step stays below the root of f(s) = gap
    (:func:`_fall_root`).  Only a guess: rounding may move the answer by
    one, and the caller checks the N it settles on in integers.
    """
    a, b = tail.theta.as_integer_ratio()
    L = log(b) - log(a)
    # log(2 / (1 - theta)) - log(1/T)
    base = log(2 * b) - log(b - a) + log(T)
    log_den, alpha = log(tail.den), 0.0
    if tail.decay is not None:
        log_dden, alpha = log(tail.decay[1]), tail.decay[2] / 2

    def gap(N: int) -> float:
        """log(closed-form tail) - log(budget) at N; negative passes."""
        p, d = tail.values(N + 1)
        if p <= 0:
            return -inf
        env = log(p) - log_den
        if alpha:
            env = min(env, log(d) - log_dden - alpha * log(N + 1))
        rounded = N - k0 + 1
        # the rounding radius over the target, rounded T / 2^s <= 1/32
        ratio = rounded * T / (1 << _scale_bits(rounded, T))
        return env - (N + 1) * L + base - log1p(-ratio)

    N, g = tail.K0, gap(tail.K0)
    if g >= 0:
        # the first step takes the envelopes' growth mu = n p'(n) / p(n)
        n = N + 1
        p, d = tail.values(n)
        beta = -n * _horner([i * c for i, c in enumerate(tail.coeffs)][1:],
                            n) / p
        if alpha:
            beta = max(beta, alpha - n * _horner(
                [i * c for i, c in enumerate(tail.decay[0])][1:], n) / d)
        N += max(1, ceil(_fall_root(g, L, n, beta)))
        g = gap(N)
    while g >= 0:
        N += max(1, ceil(_fall_root(g, L, N + 1, alpha)))
        g = gap(N)
    return N


class _DirectSum:
    """The fixed-point sum of one weighted series, fed from a stream of
    column blocks of the unweighted term shared with other weights.

    The envelope, from the weight-free part of :func:`_base_envelope` that
    the caller builds once, and its crossover K0 are computed once.  N
    starts at the float estimate of :func:`_estimate_N`, never below K0,
    where the bound is the closed form of :class:`_Tail`, an upward-rounded
    dyadic; so N is settled before any term is summed: it steps up by one
    until ``bound < target - err`` holds, one comparison of integers
    (:func:`_fits`).  The radius is that bound plus
    one unit of 2^-s per floor.

    The sum asks the stream for cut blocks (:attr:`bits`).  For a term of
    a cut block it floors z = floor(w(k) term'(k) 2^(s+G)), G = ``_GUARD``,
    from the cut columns, whose product term' is within f 2^(2-p) of
    term(k) relative (f columns cut, p bits kept); so
    |w(k) term(k) 2^(s+G) - z| < D = 1 + (|z|+1) f 2^(3-p), and one integer
    d >= D serves the whole block.  z >> G is then the exact floor
    floor(w(k) term(k) 2^s) when the low G bits of z keep d from both ends,
    or when |z| + d <= 2^G: the floor is then 0 or -1 by the sign of the
    term, and the cut keeps the signs.  Any other term is re-read exact,
    alone and weighted, by :func:`_term_pairs`, and floored from that.
    Every floor, and so the ball, is the one the exact columns give.
    """

    def __init__(self, spec: TermSpec, env: _Envelope, digits: int):
        self.spec, self.k0, self.theta = spec, spec.k0, env.theta
        self.T = 10 ** (digits + 2)
        self.weight, self.wden = _integer_weight(spec.weight)
        self.env = _Tail(env, self.weight, self.wden, spec.k0)
        # the closed form bounds the tail only from K0 on
        N = max(_estimate_N(self.env, spec.k0, self.T), self.env.K0)
        while (bound := self._closed_bound(N)) is None:
            N += 1
        self.tail = _radius([bound])
        self._reach(N, _scale_bits(N - self.k0 + 1, self.T))

    @classmethod
    def floors(cls, spec: TermSpec, N: int, s: int) -> "_DirectSum":
        """The floors alone of the weighted terms k0..N at 2^-s, for an N
        and a scale the caller has settled: no tail, no :meth:`result`
        (:class:`Moments`)."""
        d = cls.__new__(cls)
        d.spec, d.k0 = spec, spec.k0
        d.weight, d.wden = _integer_weight(spec.weight)
        d._reach(N, s)
        return d

    def _reach(self, N: int, s: int) -> None:
        # N is also the reach, the last term this sum reads from the stream
        self.N = self.reach = N
        self.s = s
        #: the leading bits a cut column must keep for this sum
        self.bits = s + 2 * _GUARD
        self.total = 0

    def _closed_bound(self, N: int) -> Optional[Tuple[int, int]]:
        """The closed-form bound (m, e) at N >= K0 if it leaves room for
        the rounding radius of N - k0 + 1 floors (:func:`_fits`), else
        None."""
        bound = self.env.closed(N)
        return bound if _fits(*bound, N - self.k0 + 1, self.T) else None

    def add(self, k: int, nums: List[int], dens: List[int],
            cut: Optional[_Cut] = None) -> None:
        """Take the block of unweighted terms k, k+1, ... of the stream:
        floor(w(k) num 2^s / (wden den)) for each term up to N, proved
        from the cut columns when the block is cut."""
        n = min(len(nums), self.N - k + 1)
        if n <= 0:
            return
        nums, dens = _weighted(self.weight, self.wden, k, nums, dens)
        # map stops when its first iterator does: n entries of each column
        nums = islice(nums, n)
        if cut is not None:
            self.total += self._cut_floors(k, nums, dens, cut)
        else:
            self.total += sum(map(floordiv, map(lshift, nums,
                                                repeat(self.s)), dens))

    def _cut_floors(self, k: int, nums: Iterator[int], dens: Iterator[int],
                    cut: _Cut) -> int:
        """The sum of floor(w(k+i) term(k+i) 2^s) over the weighted cut
        columns of a block, each proved exact or taken from the exact
        weighted term (see the class docstring)."""
        shift = self.s + _GUARD + cut.shift
        if shift >= 0:
            zs = list(map(floordiv, map(lshift, nums, repeat(shift)), dens))
        else:
            zs = list(map(floordiv, nums, map(lshift, dens, repeat(-shift))))
        # one margin for the block: D <= d = 1 + ceil((|z|+1) f 2^(3-p))
        # for every z of it
        d = 2 + ((max(map(abs, zs)) + 1) * cut.cols - 1 >> cut.bits - 3)
        mask, hi = (1 << _GUARD) - 1, (1 << _GUARD) - d
        total = sum(map(rshift, zs, repeat(_GUARD)))
        for i, z in enumerate(zs):
            # kept unless its low bits come within d of an end and |z| + d
            # passes 2^G
            if not d <= z & mask <= hi and not -hi <= z <= hi:
                (num, den), = _term_pairs(self.spec, k + i, k + i)
                total += (num << self.s) // den - (z >> _GUARD)
        return total

    def result(self) -> Tuple[Ball, dict]:
        terms = self.N - self.k0 + 1
        return (Ball(self.total, terms, self.s) + self.tail,
                {"path": "direct", "terms": terms, "theta": self.theta,
                 "tail": self.tail})


def eval_weighted(spec: TermSpec, weights: Sequence[Sequence],
                  digits: int = 40) -> List[Tuple[Ball, dict]]:
    """Certified enclosures of sum_{k>=k0} w(k) * term(k) for each weight
    w, where ``spec``'s own weight is replaced by w; each comes with the
    ``stats`` dict of :func:`eval_series`.  No weights give no enclosures.

    All weights read one stream of column blocks of the unweighted term
    (:func:`_columns` with ``_UNWEIGHTED``, no second ``TermSpec`` built
    for it), so the sequence rows and the big products
    behind each term are made once, on the direct path
    (:class:`_DirectSum`) and on the Euler path (:class:`_EulerSum`)
    alike; each ball equals :func:`eval_series` of the spec with that
    weight.  The weight-free parts, the envelope of the direct path and the
    moment certificate of the Euler path, are built once for all the
    weights.  Every N is fixed before the stream starts, so one walk from
    k0 serves every sum; a direct-path stream is cut to the most bits any
    of its sums needs.  No sum keeps an exact term.

    Each sum stops at its own N, at its own scale, so none can be carried
    further.  The moment sums of a rediscovery come from :class:`Moments`
    instead, which on the direct path sums them to one N at the
    verification's scale so that a found relation continues their pass;
    on the Euler path, whose transform weights depend on N, it reads them
    from here.
    """
    if not weights:
        return []
    specs = [spec if tuple(w) == spec.weight
             else replace(spec, weight=tuple(w)) for w in weights]
    env = _base_envelope(spec)
    if env.theta >= 1:
        cert = _certificate(spec, env.q) if env.theta == 1 else None
        if cert is None:
            raise DivergentError(
                "no moment certificate available; cannot evaluate this series")
        sums = [_EulerSum(s, cert, env.theta, digits) for s in specs]
    else:
        sums = [_DirectSum(s, env, digits) for s in specs]
    bits = [d.bits for d in sums]
    for block in _columns(spec, _UNWEIGHTED, spec.k0,
                          max(d.reach for d in sums),
                          None if None in bits else max(bits)):
        for d in sums:
            d.add(*block)
    return [d.result() for d in sums]


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

    On the direct path N is the float estimate of the smallest N >= K0
    whose closed form is below the budget, stepped up until the check
    bound < target - err passes in integers; no float decides.  The closed
    form is the smaller of the envelope's P(N+1) theta^(N+1) / (1-rho) and,
    where the factors' decays leave a net k^(-alpha) with alpha > 0, the
    decayed envelope's D(N+1) (N+1)^(-alpha) theta^(N+1) / (1-rho), taken
    at each N.  From K0 on the tail bound is that closed form rounded up to
    a dyadic (:class:`_Tail`), an upper bound above the exact one by a
    factor below 1 + 2^-50.  The ball is the rounded sum plus
    ``tail_bound(spec, N)``.  On the Euler path N is the smallest whose
    tail bound fits (:func:`_euler_N`).  This is the one-weight case of
    :func:`eval_weighted`.

    When ``stats`` is given it receives ``terms`` (the number of terms
    summed), ``path`` (``direct`` or ``euler``), ``theta`` (the envelope
    ratio) and ``tail`` (the ball at 0 whose radius is the tail-bound
    part of the radius).
    """
    (ball, info), = eval_weighted(spec, [spec.weight], digits)
    if stats is not None:
        stats.update(info)
    return ball


# --------------------------------------------------------------------------
# Euler-transform acceleration for boundary-ratio series
# --------------------------------------------------------------------------
#
# When every factor of a term has a moment box (see the factor table), the
# summand is exactly
#     term(k) = W(k) * E[eta^k],
# where W is the weight times the polynomial cofactor of
# :func:`_base_envelope`, E integrates against the product of the factors'
# positive measures and eta, the product of their etas over m, lies in the
# product of their boxes scaled by 1/m, with |eta| <= theta = 1.
# The binomial (Euler) transform
#     c_j = 2^(-j-1) * sum_{i<=j} C(j,i) * term(i)
# obeys  |c_j| <= (M/2) * sum_s |w_s| * falling(j,s) * 2^-s * q^(j-s),
# where W in the falling-factorial basis has coefficients w_s,
# M bounds the total measure mass and 2q = sup |1 + eta| < 2.  The
# transformed series therefore converges geometrically with certified
# tails even when the original series converges only conditionally; the
# Euler method is regular, so whenever the original series converges both
# converge to the same value.

class _Cert(NamedTuple):
    """The weight-free part of an Euler-path certificate:
    term(k) = weight(k) extra(k) E[eta^k] for k >= k_start, with
    |eta| <= 1, a measure of total mass at most ``mass`` and
    sup |1 + eta| / 2 <= q < 1, all exact; ``q_up`` is q rounded up to a
    dyadic (m, e) with :func:`_dyadic_up`."""

    k_start: int
    extra: List[int]             # integer polynomial cofactor, low -> high
    q: Fraction
    mass: Fraction
    q_up: Tuple[int, int]


def _poly_shift(coeffs: Sequence[int], kappa: int) -> List[int]:
    """Coefficients of p(j + kappa) given those of p, low -> high."""
    out = [0] * len(coeffs)
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


def _certificate(spec: TermSpec, extra: List[int]) -> Optional[_Cert]:
    """The weight-free moment certificate of a ``spec`` whose envelope
    ratio theta is 1, or None when a factor has no moment box or q rounds
    up to 1.  ``extra`` is the envelope polynomial q of
    :func:`_base_envelope`, which the caller has built; this builds the
    box, k_start and the mass."""
    box = _CBox(Fraction(1), Fraction(1))
    for f, e in _factors(spec.seq, spec.den):
        if f.box is None:
            return None
        box = _box_mul(box, _box_pow(f.box(), e))
    box = _box_scale(box, 1 / spec.m)
    affine = [(*_AFFINE[tag], e) for tag, e in spec.den if tag in _AFFINE]
    # the smallest k >= k0 with a k + b >= 1 for every affine factor
    k_start = max([spec.k0, *(-(-(1 - b) // a) for a, b, _ in affine)])
    mass = Fraction(1)
    for a, b, e in affine:
        mass *= Fraction(1, a * k_start + b) ** e
    # sup |1 + eta|^2 over box intersected with the unit disk
    re_hi = min(box.re_hi, 1)
    im_max = min(max(-box.im_lo, box.im_hi, Fraction(0)), 1)
    q_sq = min((1 + re_hi) ** 2 + im_max ** 2, 2 + 2 * re_hi) / 4
    if q_sq >= 1:
        return None
    q = _sqrt_frac_up(q_sq)
    q_up = _dyadic_up(*q.as_integer_ratio())
    if q_up[0] >= 1 << q_up[1]:
        return None
    return _Cert(k_start, extra, q, mass, q_up)


def _falling_weights(cert: _Cert, weight: Sequence[int]) -> List[int]:
    """|w_s|: the coefficients of W'(j) = weight(j + k_start)
    extra(j + k_start) in the falling-factorial basis, in absolute value,
    for an integer weight, high -> low, as :func:`_integer_weight` gives."""
    wp = _poly_shift(_poly_mul(weight[::-1], cert.extra), cert.k_start)
    S2 = _stirling2(len(wp) - 1)
    return [abs(sum(wp[d] * S2[d][s] for d in range(s, len(wp))))
            for s in range(len(wp))]


def _falling(j: int, s: int) -> int:
    out = 1
    for i in range(s):
        out *= j - i
    return out


def _euler_tail(cert: _Cert, wfall: Sequence[int], scale: Tuple[int, int],
                N: int) -> Optional[Tuple[int, int]]:
    """An upward-rounded dyadic (m, e) above the tail bound of the
    transformed series past N, scale * sum over s of w_s 2^-s
    falling(N+1, s) q^(N+1-s) / (1 - rho_s) with rho_s = q (N+2) / (N+2-s)
    and ``scale`` = mass / 2 for the weight w_s, rounded up; None when N
    is too small: N + 1 < s or rho_s >= 1 for the top s, where rho_s is
    largest.

    The bound grows with q, so it holds for its rounded-up ``q_up`` =
    mq 2^-eq.  Then 1 / (1 - rho_s) is (N+2-s) 2^eq over the integer gap
    (N+2-s) 2^eq - mq (N+2), the powers and products are taken by
    :func:`_pow_up` and :func:`_mul_up` (one power of q, then one product
    per addend), 2^-s is an exact shift of the exponent, the quotient by
    the gap is taken by :func:`_dyadic_up`, and the addends are added
    exactly, so every rounding is upward.
    """
    mq, eq = cert.q_up
    top = len(wfall) - 1
    if N + 1 < top or (N + 2 - top << eq) <= mq * (N + 2):
        return None
    qpow = _pow_up(mq, eq, N + 1 - top)
    parts = []
    for s in range(top, -1, -1):
        if wfall[s]:
            m, e = _mul_up(*qpow, wfall[s] * _falling(N + 1, s) * (N + 2 - s),
                           s - eq)
            m, shift = _dyadic_up(m, (N + 2 - s << eq) - mq * (N + 2))
            parts.append((m, e + shift))
        qpow = _mul_up(*qpow, mq, eq)
    total = _radius(parts)
    return _mul_up(total.rad, total.exp, *scale)


def _euler_N(cert: _Cert, wfall: Sequence[int], scale: Tuple[int, int],
             digits: int, floors: int) -> Tuple[int, Tuple[int, int]]:
    """(N, tail): the smallest N whose :func:`_euler_tail` leaves room for
    the rounding radius of N + 1 + ``floors`` floors (:func:`_fits`).

    The bound's log, less the budget's, is taken in floats, and the secant
    method from 16 + 8 len(wfall) and 16 more finds the N where it turns
    negative; it is nearly linear in N, with slope about log(q).  That is
    only a guess: the exact fit then moves N up while it fails and down
    while N - 1 fits, so the integers decide.  The fit only turns from
    fail to pass as N grows: the tail falls geometrically once it is
    defined, and the budget, 10^-(digits + 2) less a rounding radius of at
    most 1/32 of it, hardly moves; the search relies on that, and the tests
    check it.
    """
    T = 10 ** (digits + 2)
    mq, eq = cert.q_up
    q = mq / (1 << eq)
    log_q, top = log(mq) - eq * log(2), len(wfall) - 1
    # log(w_s 2^-s) of each nonzero addend, and of mass / 2 over the target
    parts = [(s, log(w) - s * log(2)) for s, w in enumerate(wfall) if w]
    base = log(scale[0]) - scale[1] * log(2) + (digits + 2) * log(10)

    def gap(N: int) -> float:
        """log(tail bound) - log(budget) at N, in floats; inf where the
        bound is undefined."""
        if N + 1 < top or N + 2 - top <= q * (N + 2):
            return inf
        if not parts:
            return -inf
        logs = [lw + sum(map(log, range(N + 2 - s, N + 2)))
                + (N + 1 - s) * log_q + log(N + 2 - s)
                - log(N + 2 - s - q * (N + 2)) for s, lw in parts]
        big = max(logs)
        rounded = N + 1 + floors
        ratio = rounded * T / (1 << _scale_bits(rounded, T))
        return (big + log(sum(exp(x - big) for x in logs)) + base
                - log1p(-ratio))

    def fit(N: int) -> Optional[Tuple[int, int]]:
        tail = _euler_tail(cert, wfall, scale, N)
        return tail if tail is not None and _fits(*tail, N + 1 + floors, T) \
            else None

    a = 16 + 8 * len(wfall)
    while (fa := gap(a)) == inf:
        a += max(16, a // 4)
    # the bound is defined from a on, as (1 - q)(N + 2) grows with N
    start, b, fb = a, a + 16, gap(a + 16)
    for _ in range(8):
        if fb == fa or -inf in (fa, fb):
            break
        c = max(start, ceil(b - fb * (b - a) / (fb - fa)))
        if c == b:
            break
        a, fa, b, fb = b, fb, c, gap(c)
    N = b
    while (tail := fit(N)) is None:
        N += 1
    while N > 0 and (below := fit(N - 1)) is not None:
        N, tail = N - 1, below
    return N, tail


def _euler_weights(N: int) -> List[int]:
    """A_i = sum_{i<=j<=N} C(j,i) 2^(N-j) for i = 0..N, in O(N).

    sum_j (1+z)^j 2^(N-j) = ((1+z)^(N+1) - 2^(N+1)) / (z - 1), so A_i is
    the suffix sum sum_{t>i} C(N+1, t) of one binomial row.
    """
    row = list(accumulate(range(N + 1),
                          lambda c, t: c * (N + 1 - t) // (t + 1), initial=1))
    A = list(accumulate(reversed(row[1:])))
    A.reverse()
    return A


class _EulerSum:
    """The certified Euler-transform sum of one weighted boundary-ratio
    series, fed from the same stream of column blocks as
    :class:`_DirectSum`.

    The weight-free certificate comes from the caller, built once for all
    the weights; the falling-factorial weights and mass / 2 are rounded
    for this weight once.  Like :class:`_DirectSum` it reads the stream
    from k0.  The transform needs the N + 1 terms t'_i = term(k_start + i):
    sum_{j<=N} c_j = sum_i A_i t'_i / 2^(N+1) with the weights A_i of
    :func:`_euler_weights`, each product floored at 2^-s.  A head term
    k0 <= k < k_start (at most one: each affine factor ak + b has b in
    {-1, 0, 1} and no zero at k >= k0, so k_start <= max(k0, 1)) has the
    weight 2^(N+1): its floor is the term's at 2^-s, as the direct sum
    floors it.  N, and so the rounding radius, is fixed before any term.
    """

    #: the transform's weights are exact, so its stream is never cut
    bits = None

    def __init__(self, spec: TermSpec, cert: _Cert, theta: Fraction,
                 digits: int):
        self.k0, self.theta = spec.k0, theta
        self.weight, self.wden = _integer_weight(spec.weight)
        head = cert.k_start - spec.k0
        mn, md = cert.mass.as_integer_ratio()
        self.N, tail = _euler_N(cert, _falling_weights(cert, self.weight),
                                _dyadic_up(mn, 2 * md * self.wden), digits,
                                head)
        self.tail = _radius([tail])
        #: the weight of each term k0, k0 + 1, ... read, one floor each
        self.A = [1 << self.N + 1] * head + _euler_weights(self.N)
        self.s = _scale_bits(len(self.A), 10 ** (digits + 2))
        #: the last term this sum reads from the stream
        self.reach = self.k0 + len(self.A) - 1
        self.total = 0

    def add(self, k: int, nums: List[int], dens: List[int]) -> None:
        """Take the block of unweighted terms k, k+1, ... of the stream:
        floor(A_i w(k) num 2^s / (wden den 2^(N+1))) for each,
        i = k - k0, with only one side shifted."""
        n = min(len(nums), self.reach - k + 1)
        if n <= 0:
            return
        nums, dens = _weighted(self.weight, self.wden, k, nums, dens)
        i = k - self.k0
        # map stops at its first iterator: the n weights A_i
        nums = map(mul, self.A[i:i + n], nums)
        shift = self.s - self.N - 1
        if shift >= 0:
            nums = map(lshift, nums, repeat(shift))
        else:
            dens = map(lshift, dens, repeat(-shift))
        self.total += sum(map(floordiv, nums, dens))

    def result(self) -> Tuple[Ball, dict]:
        return (Ball(self.total, len(self.A), self.s) + self.tail,
                {"path": "euler", "terms": len(self.A), "theta": self.theta,
                 "tail": self.tail})


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
    spec: TermSpec
    rhs: RHSForm


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


#: basis -> an integer above basis * 2^64, ceil(basis 2^64) + 1 for the
#: irrational ones (the tests check each against :func:`constant`)
_BASIS_UP = {
    "ONE": 1 << 64, "PI": 57952155664616982741,
    "PI2": 182062066495652834599, "INV_PI": 5871781006564002454,
    "CATALAN_G": 16896582896110463047, "K3": 14412485654873231750,
    "LOG3": 20265819725292939640,
}


def _magnitude_up(rhs: RHSForm) -> int:
    """An integer U with floor(A (1 + 2^-64) + 2^-64) <= U, for the sum A
    of the addends' magnitudes |q| sqrt(d) basis, the quantity that the
    radius of :func:`eval_rhs` is relative to.

    Each addend is rounded up at the scale 2^-128: sqrt(d) 2^64 by
    ``isqrt`` and one upward step unless d is a perfect square, the basis
    by ``_BASIS_UP``, and their product with |q| by a ceiling; no
    constant is computed.  The margin 2^-64 (1 + A) is above the radius
    10^-20 max(1, A) of :func:`eval_rhs` at 15 digits, so U is at least
    the integer part of |mid| of that ball, whose midpoint lies within
    its radius of the value, and |value| <= A."""
    total = 0
    for q, d, basis in rhs.addends:
        r = 1 << 64
        if d != 1:
            r = isqrt(d << 128)
            if r * r != d << 128:
                r += 1
        a, b = q.as_integer_ratio()
        total += -(-abs(a) * r * _BASIS_UP[basis] // b)
    return (total + (total >> 64) + (1 << 64)) >> 128


def _work_digits(rhs: RHSForm, digits: int) -> int:
    """The digits at which :func:`verify_series_identity` evaluates the
    closed form: digits + extra + 5, extra the number of decimal digits
    of :func:`_magnitude_up`."""
    return digits + _decimal_length(_magnitude_up(rhs)) + 5


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
        a, b = q.as_integer_ratio()
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
    return Ball(lo + hi, hi - lo, s + 1)


def _sci(units: int, scale: int) -> str:
    """``1e<e>`` for the least integer e with units 10^-scale < 10^e, for
    units >= 0; "0" for 0.  That e is the number of decimal digits of
    units less scale, found in integers: no Fraction is reduced and no
    ``str()`` of a long integer is taken."""
    if units == 0:
        return "0"
    return f"1e{_decimal_length(units) - scale}"


@dataclass
class SeriesReport:
    """The verdict of :func:`verify_series_identity`, its exact gap bound
    rounded up to ``gap_units`` 10^-``gap_scale``, and the number of terms
    summed for the series enclosure."""

    passed: bool
    gap_units: int
    gap_scale: int
    terms_used: int

    @property
    def gap_upper(self) -> Fraction:
        """The rounded-up gap bound as a Fraction, reduced only when read."""
        return Fraction(self.gap_units, 10 ** self.gap_scale)

    def __repr__(self) -> str:
        # the gap as its bound 1eN: the repr of an integer with more than
        # 4300 digits raises
        return (f"SeriesReport(passed={self.passed!r},"
                f" gap_upper<{_sci(self.gap_units, self.gap_scale)},"
                f" terms_used={self.terms_used!r})")


def verify_series_identity(entry: SeriesIdentity, digits: int = 40) -> SeriesReport:
    """Compare a certified series enclosure with its closed form.

    The identity passes when the exact gap bound |lhs.mid - rhs.mid| +
    lhs.rad + rhs.rad is below the absolute threshold 10^(1-digits).  The
    series side is summed at ``digits``: :func:`eval_series`'s radius is
    absolute, below 10^-(digits+2), a thousandth of the threshold, and
    more terms would only add digits that no verdict reads.  The closed
    form is evaluated once, at :func:`_work_digits`: ``digits + extra +
    5``, where ``extra`` is the number of decimal digits of an integer
    upper bound of the sum A of the addends' magnitudes.  The radius of
    :func:`eval_rhs` is below 10^-(work+5) max(1, A), relative to A and
    not to the value, so with A < 10^extra it is below 10^-(digits+10)
    however the addends cancel; without ``extra`` an identity with a large
    constant could never certify the gap.  As |value| <= A, these working
    digits are never below those that a probe of the value itself gives.
    The gap bound is rounded up to units of 10^-(work+10) in integers
    (:func:`_gap_report`).
    """
    stats: dict = {}
    series = eval_series(entry.spec, digits, stats)
    return _gap_report(series, stats["terms"], entry.rhs, digits)


def _gap_report(series: Ball, terms: int, rhs: RHSForm,
                digits: int) -> SeriesReport:
    """The verdict of an identity whose series side is the ball
    ``series`` of ``terms`` terms, radius below 10^-(digits+2), and whose
    closed form is ``rhs``: the one gap test of
    :func:`verify_series_identity`, which also verifies the relations of
    :meth:`Moments.verify`."""
    work = _work_digits(rhs, digits)
    gap = series - eval_rhs(rhs, work)
    ok = gap.below(10 ** (digits - 1))
    # Round the exact gap bound |mid| + rad up to a small integer count of
    # units so the report stays printable; the pass/fail decision above
    # already used the exact value.
    scale = work + 10
    units = -(-(abs(gap.mid) + gap.rad) * 10 ** scale >> gap.exp)
    return SeriesReport(ok, units, scale, terms)

# --------------------------------------------------------------------------
# Moment sums of a rediscovery, and their continuation
# --------------------------------------------------------------------------

def _verify_scale(N: int, k0: int, theta: Fraction, digits: int,
                  verify_digits: int, per_term: int) -> Tuple[int, int]:
    """(N', s) for the verification at ``verify_digits`` of any relation
    between the moments k^j, j <= degree, of a term of envelope ratio
    theta < 1, whose closed-form tails all fit the budget at ``digits``
    from N on, with at most ``per_term`` = (degree + 1) max_norm units per
    term: N' bounds the terms its weighted sum needs, and at the scale
    2^-s the rounding radius of ``per_term`` units per term up to N' is at
    most 10^-(verify_digits+2) / 32.  That counts every term as floored
    alone; the terms that :class:`Moments` folds share one unit, so their
    radius is smaller still.

    N' is generous, and needs no tail bound of its own.  For such a weight
    w = sum c_j k^j, |c_j| <= max_norm, |w|(k) <= per_term k^degree for
    k >= 1, so its closed form (:class:`_Tail`) is at most ``per_term``
    times that of k^degree, which is below 10^-(digits+2) at N; past the
    crossover each closed form falls at least by rho = (1+theta)/2 per
    term.  So it is below 31/32 of 10^-(verify_digits+2) once
    rho^t <= 31 / (32 per_term 10^(verify_digits-digits)), and N' = N + t,
    one more for the float logs.
    """
    a, b = theta.as_integer_ratio()
    t = ceil((log(32 * per_term / 31) + (verify_digits - digits) * log(10))
             / (log(2 * b) - log(a + b)))
    N += t + 1
    return N, _scale_bits(per_term * (N - k0 + 1), 10 ** (verify_digits + 2))


def _fold(P: int, K: int, a: int, k: int, xs: Iterable[int]) -> int:
    """The running integer P, whose value is P / a^K after the term K < k,
    carried over the terms k, k+1, ... whose numerators over a^k are
    ``xs``: P <- a P + x for each, after P <- a^(k-1-K) P for the terms
    between K and k, which add nothing.  Its value is then over a^k' for
    the last term k'."""
    if k - 1 > K:
        P *= a ** (k - 1 - K)
    for x in xs:
        P = P * a + x
    return P


class Moments:
    """The moment sums M_j = sum_{k>=k0} k^j term(k), j = degree, ..., 1,
    0, of the search of :func:`piseries.relation.rediscover`, certified at
    ``digits``, and the verification at ``verify_digits`` of any relation
    of max norm at most ``max_norm`` between them.

    On the direct path the moments come from one walk over the terms to
    one N, the N that :func:`eval_weighted` gives the top moment k^degree
    at the search's digits, floored at the verification's finer scale s
    (:func:`_verify_scale`).  That N is the largest any moment needs, and
    the top moment's tail bound at N bounds every moment's tail: for
    k >= 1, k^j <= k^degree, so each envelope of :class:`_Tail` is at most
    the top one, whose crossover K0 is the latest, as it only rises with
    the degree.

    A spec without denominator factors has term(k) = num(k) / a^k, with a
    the numerator of |m| and num the stream's numerator column (the sign
    of m is in it).  So every block that the walk does not cut folds into
    one exact integer per moment, the common-denominator summation of
    Haible and Papanikolaou (1998) that :mod:`~piseries.congruence` also
    uses: P_j <- a P_j + k^j num(k) (:func:`_fold`), no term divided.
    After the last folded term K, P_j / a^K is the exact sum of
    k^j term(k) over the folded terms, whatever k0 is; it is floored once,
    at 2^-s, so all of them take one unit of rounding.  A cut block is
    floored term by term and weight by weight (:class:`_DirectSum`), so no
    term past the cut becomes an exact product.  A spec with denominator
    factors takes one divmod per term of an uncut block for all the
    weights, q, r = divmod(num 2^s, den), and then
    floor(k^j num 2^s / den) = k^j q + floor(k^j r / den) exactly.
    So a relation's weighted sum continues this pass (:meth:`continued`)
    instead of summing its series again.  Each ball of :attr:`balls`
    still carries the top moment's rounding radius at the search's own
    scale on top of its own: the search, and the check that the terms past
    the first are below its precision, read the moments at the search's
    precision, and only the midpoints are finer.

    On the Euler path the transform's weights A_i depend on N, so its
    sums cannot be continued: the moments are :func:`eval_weighted`'s,
    and :meth:`verify` is :func:`verify_series_identity`.
    """

    def __init__(self, spec: TermSpec, degree: int, digits: int,
                 verify_digits: int, max_norm: int):
        self.spec, self.verify_digits = spec, verify_digits
        weights = [tuple(int(i == j) for i in range(degree + 1))
                   for j in range(degree, -1, -1)]
        self.env = env = _base_envelope(spec)
        if env.theta >= 1:
            self.sums = None
            self.balls = [ball for ball, _ in
                          eval_weighted(spec, weights, digits)]
            return
        top = _DirectSum(replace(spec, weight=weights[0]), env, digits)
        self.N = top.N
        self.s = _verify_scale(self.N, spec.k0, env.theta, digits,
                               verify_digits, (degree + 1) * max_norm)[1]
        #: the floors of the terms not folded, per moment
        self.sums = [_DirectSum.floors(replace(spec, weight=w), self.N,
                                       self.s) for w in weights]
        #: the fold P_j, j = degree, ..., 0, over a^K, K the last folded
        #: term (k0 - 1 before any); None for a spec with a denominator
        self.P = None if spec.den else [0] * (degree + 1)
        self.a, self.K = abs(spec.m.numerator), spec.k0 - 1
        #: the number of terms floored one by one
        self.floored = 0
        for block in _columns(spec, _UNWEIGHTED, spec.k0, self.N,
                              self.s + 2 * _GUARD):
            self._add(*block)
        terms = self.N - spec.k0 + 1
        # the top moment's rounding radius at the search's digits, and its
        # tail, which bounds every moment's tail past N
        coarse = Ball(0, terms, top.s) + top.tail
        rounded = self._rounded([1])
        #: the ball of each M_j, j = degree, ..., 0
        self.balls = [Ball(self._floor(P, self.K) + d.total, rounded, self.s)
                      + coarse
                      for P, d in zip(self.P or repeat(0), self.sums)]

    def _add(self, k: int, nums: List[int], dens: List[int],
             cut: Optional[_Cut]) -> None:
        """Take the block of unweighted terms k, k+1, ... of the walk to
        N: fold it into every P_j, each weight's own floors when the block
        is cut, or one divmod per term for all the weights when the spec
        has a denominator."""
        ks = range(k, k + len(nums))
        if cut is None and self.P is not None:
            P, xs = self.P, nums
            for j in range(len(P) - 1, -1, -1):
                P[j] = _fold(P[j], self.K, self.a, k, xs)
                if j:
                    xs = list(map(mul, xs, ks))
            self.K = ks[-1]
            return
        self.floored += len(nums)
        if cut is not None:
            for d in self.sums:
                d.add(k, nums, dens, cut)
            return
        qr = list(map(divmod, map(lshift, nums, repeat(self.s)), dens))
        qs, rs = [q for q, _ in qr], [r for _, r in qr]
        sums = reversed(self.sums)
        next(sums).total += sum(qs)
        for d in sums:
            qs, rs = list(map(mul, qs, ks)), list(map(mul, rs, ks))
            d.total += sum(qs) + sum(map(floordiv, rs, dens))

    def _floor(self, P: int, K: int) -> int:
        """floor(P 2^s / a^K), 0 when no term is folded (K < k0)."""
        return (P << self.s) // self.a ** K if K >= self.spec.k0 else 0

    def _rounded(self, cs: Sequence[int]) -> int:
        """The units of 2^-s that bound the rounding of sum c_j M_j over
        the search's terms: one for the fold, if any term is folded, and
        sum |c_j| for each term floored one by one."""
        return (self.K >= self.spec.k0) + sum(map(abs, cs)) * self.floored

    def continued(self, weight: Sequence[int]) -> Tuple[Ball, int]:
        """The ball of sum_{k>=k0} w(k) term(k), radius below
        10^-(verify_digits+2), and its number of terms, for the integer
        weight w = sum c_j k^j (``weight`` low -> high) on the direct path.

        It is the sum of three parts: sum c_j times the partial sum of
        M_j, that is the fold sum c_j P_j and the floors of the terms
        not folded; w's terms k = N+1..N_V, from one more walk from N + 1,
        each block folded on into sum c_j P_j (w(k) num(k) for
        k^j num(k)) unless it is cut, and then floored term by term; and
        w's own tail bound at N_V.  The fold is floored once, so the
        rounding radius is one unit of 2^-s for it (if any term is
        folded), sum |c_j| units per term the search floored
        (:meth:`_rounded`) and at most one unit per term past N.
        N_V >= N is the smallest N whose closed-form tail fits the budget
        that this radius leaves (:func:`_fits_at`), searched from the
        float estimate of :func:`_estimate_N` at ``verify_digits``.
        ``ArithmeticError`` if no N can, the rounding radius alone
        exceeding the budget.
        """
        k0, w = self.spec.k0, tuple(weight)
        cs = list(w) + [0] * (len(self.sums) - len(w))
        cs.reverse()
        head = self._rounded(cs)
        coeffs, wden = _integer_weight(w)
        tail = _Tail(self.env, coeffs, wden, k0)
        T, lo = 10 ** (self.verify_digits + 2), max(self.N, tail.K0)

        def fit(N: int) -> Optional[Tuple[int, int]]:
            bound = tail.closed(N)
            return bound if _fits_at(*bound, head + N - self.N, self.s,
                                     T) else None

        N = max(_estimate_N(tail, k0, T), lo)
        while (bound := fit(N)) is None:
            N += 1
            # the rounding radius only grows with N: past the budget no N
            # fits (_verify_scale sizes s so that this never happens)
            if (head + N - self.N) * T >= 1 << self.s:
                raise ArithmeticError("verification scale too coarse for"
                                      f" the weight {w}")
        while N > lo and (below := fit(N - 1)) is not None:
            N, bound = N - 1, below
        d = _DirectSum.floors(replace(self.spec, weight=w), N, self.s)
        K = self.K
        P = None if self.P is None else sum(map(mul, cs, self.P))
        if N > self.N:
            for k, nums, dens, cut in _columns(self.spec, _UNWEIGHTED,
                                               self.N + 1, N, d.bits):
                if P is None or cut is not None:
                    d.add(k, nums, dens, cut)
                    continue
                ws = _poly_column(coeffs, range(k, k + len(nums)))
                P = _fold(P, K, self.a, k,
                          nums if ws is None else map(mul, ws, nums))
                K = k + len(nums) - 1
        mid = sum(c * m.total for c, m in zip(cs, self.sums)) + d.total
        if P is not None:
            mid += self._floor(P, K)
        return (Ball(mid, head + N - self.N, self.s) + _radius([bound]),
                N - k0 + 1)

    def verify(self, ident: SeriesIdentity) -> SeriesReport:
        """The verdict of :func:`verify_series_identity` at
        ``verify_digits`` for the identity of a relation between the
        moments: its series side continued from this pass on the direct
        path, summed again on the Euler path."""
        if self.sums is None:
            return verify_series_identity(ident, self.verify_digits)
        ball, terms = self.continued(ident.spec.weight)
        return _gap_report(ball, terms, ident.rhs, self.verify_digits)

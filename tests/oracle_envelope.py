"""The term envelope and the Euler moment certificate as sereval built them
from two tables of bounds, one per path, before both read one factor
table; kept as the tests' oracle.

``kind_growth`` gives a sequence kind's growth g, ``base_envelope`` the
direct path's (q, den, theta) and ``certificate`` the Euler path's
certificate, with its own radius R (from ``seq_moment`` and
``DEN_MOMENT``) and its own cofactor.  The box arithmetic, the rounded
square root and the dyadic rounding are sereval's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import List, Optional, Tuple

from piseries import sereval as se
from piseries.seqkit import SequenceKind

_CBox, _rbox = se._CBox, se._rbox
_box_mul, _box_pow, _box_scale = se._box_mul, se._box_pow, se._box_scale
_sqrt_frac_up, _poly_mul = se._sqrt_frac_up, se._poly_mul


def kind_growth(kind: SequenceKind) -> Fraction:
    """A rational g with |a_k| <= g^k for all k >= 0."""
    tag = kind.tag
    if tag == "GCT":
        b, c = kind.params
        if c < 0:
            return _sqrt_frac_up(Fraction(b * b - 4 * c))
        return abs(b) + 2 * _sqrt_frac_up(Fraction(c))
    if tag == "GCT2":
        return kind_growth(SequenceKind("GCT", kind.params)) ** 2
    if tag in ("CB2", "CB2SHIFT", "CATALAN"):
        return Fraction(4)
    if tag == "CB3":
        return Fraction(27, 4)
    if tag == "CB4":
        return Fraction(16)
    if tag == "CB63":
        return Fraction(64)
    if tag == "SBC":
        return 4 * kind_growth(SequenceKind("GCT", kind.params))
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
        if x < 0:
            return Fraction(1 - 4 * x)
        return (1 + 2 * _sqrt_frac_up(Fraction(x))) ** 2
    if tag == "ZAGIER":
        return Fraction(8)
    if tag == "BETA":
        return Fraction(16)
    if tag == "WZAG":
        return Fraction(6)
    raise se.DivergentError(f"no growth bound for sequence kind {kind}")


WZAG_BINOM = reduce(_poly_mul, ([i, 1] for i in range(1, 10)), [1])

DEN_ENVELOPE = {"CB2": ((1, 2), Fraction(4)),
                "CB3": ((1, 3), Fraction(27, 4)),
                "CB4": ((1, 4), Fraction(16))}


def base_envelope(spec) -> Tuple[List[int], int, Fraction]:
    """(q, den, theta) with |term(k)| <= |w|(k) q(k) theta^k / den."""
    num, tden = 1, 1
    q, den = [1], 1
    for kind, e in spec.seq:
        if kind.tag == "WZAG":
            s = _sqrt_frac_up(Fraction(27))
            num, tden = num * s.numerator ** e, tden * s.denominator ** e
            c = Fraction(28, 45) / (s * 362880)
            env = [c.numerator * x for x in WZAG_BINOM]
            for _ in range(e):
                q = _poly_mul(q, env)
            den *= c.denominator ** e
        else:
            g = kind_growth(kind)
            num, tden = num * g.numerator ** e, tden * g.denominator ** e
    num, tden = num * spec.m.denominator, tden * abs(spec.m.numerator)
    for tag, e in spec.den:
        if tag in DEN_ENVELOPE:
            lin, g = DEN_ENVELOPE[tag]
            num, tden = num * g.denominator ** e, tden * g.numerator ** e
            for _ in range(e):
                q = _poly_mul(q, lin)
    return q, den, Fraction(num, tden)


@dataclass(frozen=True)
class Moment:
    box: se._CBox
    R: Fraction
    mass: Fraction


def seq_moment(kind: SequenceKind) -> Optional[Moment]:
    tag = kind.tag
    if tag in ("CB2", "CATALAN"):
        return Moment(_rbox(0, 4), Fraction(4), Fraction(1))
    if tag in ("GCT", "GCT2"):
        b, c = kind.params
        if c > 0:
            s = _sqrt_frac_up(Fraction(4 * c))
            base = Moment(_rbox(b - s, b + s),
                          max(abs(Fraction(b) - s), abs(Fraction(b) + s)),
                          Fraction(1))
        elif c < 0:
            s = _sqrt_frac_up(Fraction(-4 * c))
            base = Moment(_CBox(Fraction(b), Fraction(b), -s, s),
                          _sqrt_frac_up(Fraction(b * b - 4 * c)),
                          Fraction(1))
        else:
            base = Moment(_rbox(b, b), abs(Fraction(b)), Fraction(1))
        if tag == "GCT":
            return base
        return Moment(_box_pow(base.box, 2), base.R ** 2, Fraction(1))
    if tag == "GPOLY":
        (x,) = kind.params
        if x < 0:
            s = _sqrt_frac_up(Fraction(-16 * x))
            return Moment(_CBox(Fraction(1 + 4 * x), Fraction(1), -s, s),
                          Fraction(1 - 4 * x), Fraction(1))
    return None


DEN_MOMENT = {
    "CB2": (Fraction(1, 4), (1, 2)),
    "CB3": (Fraction(4, 27), (1, 3)),
    "CB4": (Fraction(1, 16), (1, 4)),
}


def certificate(spec) -> Optional[dict]:
    """The certificate's fields as a dict, its radius R among them, or
    None."""
    box = _CBox(Fraction(1), Fraction(1))
    R = Fraction(1)
    mass = Fraction(1)
    extra = [1]
    k_start = spec.k0
    affine = []
    for kind, e in spec.seq:
        mom = seq_moment(kind)
        if mom is None:
            return None
        box = _box_mul(box, _box_pow(mom.box, e))
        R *= mom.R ** e
        mass *= mom.mass ** e
    for tag, e in spec.den:
        if tag in se._AFFINE:
            a, b = se._AFFINE[tag]
            affine.append((a, b, e))
            k_start = max(k_start, -(-(1 - b) // a))
            box = _box_mul(box, _rbox(0, 1))
        else:
            Rf, wf = DEN_MOMENT[tag]
            box = _box_mul(box, _box_pow(_rbox(0, Rf), e))
            R *= Rf ** e
            for _ in range(e):
                extra = _poly_mul(extra, wf)
    inv_m = 1 / spec.m
    box = _box_scale(box, inv_m)
    R *= abs(inv_m)
    if R > 1:
        return None
    for a, b, e in affine:
        mass *= Fraction(1, a * k_start + b) ** e
    mass *= R ** k_start
    re_hi = min(box.re_hi, R)
    im_max = min(max(-box.im_lo, box.im_hi, Fraction(0)), R)
    q_sq = min((1 + re_hi) ** 2 + im_max ** 2, 1 + 2 * re_hi + R ** 2) / 4
    if q_sq >= 1:
        return None
    q = _sqrt_frac_up(q_sq)
    q_up = se._dyadic_up(*q.as_integer_ratio())
    if q_up[0] >= 1 << q_up[1]:
        return None
    return dict(k_start=k_start, extra=extra, q=q, R=R, mass=mass,
                q_up=q_up)

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, lcm, log2
from pathlib import Path

import mpmath
import pytest

from piseries import seqkit as sk
from piseries import sereval as se
from piseries.sereval import Ball, DivergentError, RHSForm, SeriesIdentity, TermSpec

from oracle_ball import FBall, fb, sqrt_ball
import oracle_envelope as oe


def dy(m: int, e: int) -> Fraction:
    """The dyadic m 2^-e as a Fraction."""
    return Fraction(m, 1 << e) if e >= 0 else Fraction(m << -e)


def fixed_point(rounded: int, digits: int):
    """The scale bits s of a sum of ``rounded`` floors at 2^-s, and their
    rounding radius rounded 2^-s, at most 10^-(digits+2) / 32."""
    s = se._scale_bits(rounded, 10 ** (digits + 2))
    return s, Fraction(rounded, 1 << s)


def spec_envelope(spec: TermSpec):
    """(P, theta) with |term(k)| <= P(k) theta^k for k >= max(k0, 1), P a
    list of nonnegative Fractions, low -> high, from sereval's envelope."""
    env = se._base_envelope(spec)
    coeffs, den = se._envelope_poly(*se._integer_weight(spec.weight), env.q,
                                    env.den)
    return [Fraction(c, den) for c in coeffs], env.theta


def spec_decay(spec: TermSpec):
    """(D, a2) with |term(k)| <= D(k) k^(-a2/2) theta^k for k >= max(k0, 1),
    D a list of nonnegative Fractions, low -> high, from sereval's decayed
    envelope; None where the spec has none."""
    env = se._base_envelope(spec)
    if env.decay is None:
        return None
    dq, dden, a2 = env.decay
    coeffs, den = se._envelope_poly(*se._integer_weight(spec.weight), dq,
                                    dden)
    return [Fraction(c, den) for c in coeffs], a2


def certificate(spec: TermSpec):
    """sereval's Euler certificate of ``spec``, built from its envelope as
    eval_weighted builds it: only at theta = 1."""
    env = se._base_envelope(spec)
    return se._certificate(spec, env.q) if env.theta == 1 else None


def term_oracle(spec: TermSpec, hi: int) -> list:
    """Terms k0..hi of ``spec`` from their definition, in plain Fraction
    arithmetic: the reference for the integer pairs behind term_value."""
    tables = [(sk.table(kind, hi), e) for kind, e in spec.seq]
    binom = {"CB2": (2, 1), "CB3": (3, 1), "CB4": (4, 2)}
    out = []
    for k in range(spec.k0, hi + 1):
        num = sum(Fraction(c) * k ** i for i, c in enumerate(spec.weight))
        for tab, e in tables:
            num *= Fraction(tab[k]) ** e
        den = Fraction(1)
        for tag, e in spec.den:
            if tag in binom:
                a, b = binom[tag]
                den *= comb(a * k, b * k) ** e
            else:
                a, b = se._AFFINE[tag]
                den *= (a * k + b) ** e
        out.append(num / (den * spec.m ** k))
    return out


def terms_oracle(spec: TermSpec, lo: int, hi: int):
    """Terms lo..hi of ``spec`` as unreduced integer pairs (num, den),
    den > 0, one term at a time: the per-term generator that
    se._term_columns replaced, kept as its oracle.  The weight's
    coefficients share one denominator, the denominator binomials are the
    store's CB2, CB3, CB4 rows, and for m = a/b the powers b^k and a^k are
    carried one step at a time."""
    if lo < spec.k0:
        raise ValueError(f"term starts at k0={spec.k0}")
    wden = lcm(*(Fraction(c).denominator for c in spec.weight))
    weight = [int(c * wden) for c in reversed(spec.weight)]   # high -> low
    seq = [(sk.rows(kind, hi), e) for kind, e in spec.seq]
    binom = [(sk.rows(sk.SequenceKind(tag), hi), e)
             for tag, e in spec.den if tag not in se._AFFINE]
    affine = [(*se._AFFINE[tag], e) for tag, e in spec.den
              if tag in se._AFFINE]
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
            num *= tab[k] ** e
        for tab, e in binom:
            den *= tab[k] ** e
        for c1, c0, e in affine:
            den *= (c1 * k + c0) ** e
        yield (-num, -den) if den < 0 else (num, den)
        ak *= a
        bk *= b


def column_pairs(spec: TermSpec, lo: int, hi: int) -> list:
    """The (num, den) pairs of se._term_columns, checking the blocks."""
    out = []
    for k, nums, dens in se._term_columns(spec, lo, hi):
        assert k == lo + len(out)
        assert len(nums) == len(dens) <= se._BLOCK
        out += zip(nums, dens)
    assert len(out) == hi - lo + 1
    return out


def euler_partial(t: list) -> Fraction:
    """sum_{j<len(t)} 2^-(j+1) sum_{i<=j} C(j,i) t_i, the Euler transform
    of the terms t summed exactly."""
    return sum(Fraction(sum(comb(j, i) * t[i] for i in range(j + 1)),
                        2 ** (j + 1)) for j in range(len(t)))


def mp_ref(expr: str, dps: int = 80) -> Fraction:
    """Independent high-precision reference value as a Fraction."""
    with mpmath.workdps(dps):
        val = eval(expr, {"mp": mpmath})
        return Fraction(mpmath.nstr(val, dps - 5, strip_zeros=False))


class TestBall:
    """The Fraction ball, now the tests' oracle."""

    def test_add_mul(self):
        a = FBall(Fraction(1, 3), Fraction(1, 100))
        b = FBall(Fraction(2, 3), Fraction(1, 200))
        s = a + b
        assert s.mid == 1 and s.rad == Fraction(3, 200)
        p = a * b
        assert p.contains(Fraction(2, 9))

    def test_inverse_bounds(self):
        a = FBall(Fraction(2), Fraction(1, 10))
        inv = a.inverse()
        assert inv.contains(Fraction(10, 21))
        assert inv.contains(Fraction(10, 19))
        with pytest.raises(ZeroDivisionError):
            FBall(Fraction(0), Fraction(1)).inverse()

    def test_shrink_keeps_value(self):
        a = FBall(Fraction(355, 113), Fraction(1, 10 ** 30))
        b = a.shrink(20)
        assert b.contains(Fraction(355, 113))
        assert b.rad < Fraction(1, 10 ** 19)

    def test_decimal(self):
        assert FBall.exact(Fraction(1, 4)).decimal(5) == "0.25000"
        assert FBall.exact(Fraction(-1, 4)).decimal(3) == "-0.250"


def random_balls(rng, n):
    return [Ball(rng.randrange(-10 ** 30, 10 ** 30), rng.randrange(10 ** 20),
                 rng.choice((0, 1, 7, 64, 200))) for _ in range(n)]


class TestDyadicBall:
    """Ball is three integers; its sums are exact and its intervals are
    rounded outward, against the Fraction oracle."""

    def test_sum_and_difference_are_exact(self):
        rng = random.Random(1)
        for a, b in zip(random_balls(rng, 200), random_balls(rng, 200)):
            for got, want in ((a + b, fb(a) + fb(b)), (a - b, fb(a) - fb(b)),
                              (-a, -fb(a))):
                assert fb(got) == want
            assert (a + b).exp == max(a.exp, b.exp)

    def test_interval_rounds_outward_and_tightly(self):
        rng = random.Random(2)
        for ball in random_balls(rng, 300):
            for t in (0, 5, ball.exp, ball.exp + 9, 300):
                lo, hi = ball.interval(t)
                x = fb(ball)
                lo_x, hi_x = (x.mid - x.rad) * 2 ** t, (x.mid + x.rad) * 2 ** t
                assert lo <= lo_x < lo + 1 and hi - 1 < hi_x <= hi

    def test_below(self):
        rng = random.Random(3)
        for ball in random_balls(rng, 300):
            for scale in (1, 3, 10 ** 9, 10 ** 40, 10 ** 80):
                assert ball.below(scale) == \
                    (fb(ball).abs_upper() < Fraction(1, scale))

    @pytest.mark.parametrize("mid, rad, exp", [(1, -1, 0), (0, 1, -1)])
    def test_negative_radius_or_exponent_rejected(self, mid, rad, exp):
        with pytest.raises(ValueError):
            Ball(mid, rad, exp)

    def test_fields_are_integers(self):
        ball = se.eval_series(CHUDNOVSKY, 20)
        assert all(type(v) is int for v in (ball.mid, ball.rad, ball.exp))


class TestSqrt:
    def test_exact_square(self):
        b = sqrt_ball(Fraction(9, 16))
        assert b.rad == 0 and fb(b).mid == Fraction(3, 4)
        assert fb(sqrt_ball(0)) == FBall.exact(0)
        # 1/3 is not dyadic: enclosed, not exact
        third = fb(sqrt_ball(Fraction(1, 9), 30))
        assert 0 < third.rad < Fraction(1, 10 ** 30)
        assert third.contains(Fraction(1, 3))

    def test_enclosure(self):
        b = fb(sqrt_ball(2, 40))
        assert b.rad < Fraction(1, 10 ** 39)
        ref = mp_ref("mp.sqrt(2)")
        assert b.contains(ref)
        # both ends of every enclosure are directed
        for d in (2, 3, 5, 10005, Fraction(7, 3), Fraction(2, 11)):
            for digits in range(10, 60, 3):
                b = fb(sqrt_ball(d, digits))
                with mpmath.workdps(digits + 60):
                    ref = Fraction(mpmath.nstr(
                        mpmath.sqrt(mpmath.mpf(d.numerator) / d.denominator),
                        digits + 50))
                assert b.rad < Fraction(1, 10 ** digits)
                assert abs(b.mid - ref) < b.rad - Fraction(1, 10 ** (digits
                                                                      + 45))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_ball(-1)


_CONSTANT_REFERENCES = [
    ("PI", "mp.pi"),
    ("CATALAN_G", "mp.catalan"),
    ("LOG3", "mp.log(3)"),
    ("K3", "(mp.zeta(2, mp.mpf(1)/3) - mp.zeta(2, mp.mpf(2)/3)) / 9"),
]


class TestConstants:
    # an id without a digits suffix is the 40-digit case
    @pytest.mark.parametrize("name,expr,digits", [
        pytest.param(name, expr, digits, id=f"{name}-{expr}" + (
            "" if digits == 40 else f"-{digits}"))
        for digits in (40, 20, 60) for name, expr in _CONSTANT_REFERENCES]
        # K3 well past the digits the registry uses
        + [pytest.param("K3", _CONSTANT_REFERENCES[3][1], digits,
                        id=f"K3-{digits}") for digits in (80, 200)])
    def test_against_reference(self, name, expr, digits):
        ball = fb(se.constant(name, digits))
        assert ball.rad < Fraction(1, 10 ** digits)
        assert ball.contains(mp_ref(expr, digits + 40))

    def test_k3_is_character_sum(self):
        # sum_{k>=1} (k|3)/k^2 with (k|3) of period 3: +1, -1, 0
        ball = fb(se.constant("K3", 30))
        partial = sum(Fraction(1, (3 * j + 1) ** 2) - Fraction(1, (3 * j + 2) ** 2)
                      for j in range(4000))
        assert abs(ball.mid - partial) < Fraction(1, 10 ** 6)

    def test_k3_identities(self):
        # the two identities behind K = 2 (3A - 10C) / (3 sqrt(3) pi), at
        # 300 digits: A = (sqrt(3) pi / 2) K - (4/3) zeta(3) (Zucker 1985)
        # and Apery's zeta(3) = -(5/2) C, with A and C the sums of
        # 1/(k^3 C(2k,k)) and (-1)^k/(k^3 C(2k,k)) over k >= 1; 520 terms
        # leave a tail below 4^-520 < 10^-313
        with mpmath.workdps(320):
            A, C = (mpmath.fsum(mpmath.mpf(sign ** k)
                                / (k ** 3 * comb(2 * k, k))
                                for k in range(1, 521))
                    for sign in (1, -1))
            K = eval(_CONSTANT_REFERENCES[3][1], {"mp": mpmath})
            zeta3 = mpmath.zeta(3)
            eps = mpmath.mpf(10) ** -300
            assert abs(A - (mpmath.sqrt(3) * mpmath.pi / 2 * K
                            - zeta3 * 4 / 3)) < eps
            assert abs(zeta3 + C * 5 / 2) < eps

    #: sha256 of repr((mid, rad, exp)) of constant("K3", d), recorded when
    #: K became 2 (3A - 10C) / (3 sqrt(3) pi) from two series on the term
    #: engine
    K3_DIGESTS = {
        12: "24a8d8e0080a188c4af3e99c8e36ae403eeb82a027535097d17da2f53a500eb2",
        20: "b8c5271f8473b66f2a777898d5f4b72a7d50697d8c12dfac8fab96eb0c4cfa7c",
        40: "7d27631a1dddda79d399ef7f2a3c2c84701e6b8538d2edc33e202bf87998b267",
        60: "8ba759159237f0d9117239a0f1271a07b46381fb602bda6826e21c64ced8fffc",
    }

    @pytest.mark.parametrize("digits", [12, 20, 40, 60])
    def test_k3_pinned(self, monkeypatch, digits):
        monkeypatch.setattr(se, "_CONST_FIXED", {})
        ball = se.constant("K3", digits)
        got = hashlib.sha256(repr((ball.mid, ball.rad, ball.exp))
                             .encode()).hexdigest()
        assert got == self.K3_DIGESTS[digits]

    def test_cache_hit(self, monkeypatch):
        # the second request is read from the enclosure held per name
        monkeypatch.setattr(se, "_CONST_FIXED", {})
        calls = []
        real = se.constant
        monkeypatch.setattr(se, "constant", lambda name, digits=50: (
            calls.append(name), real(name, digits))[1])
        assert se._const_fixed("PI", 133) == se._const_fixed("PI", 133)
        assert calls == ["PI"]

    # 48 scales, each rounding of an end directed: a flipped one puts the
    # end on the wrong side of the constant at most scales
    @pytest.mark.parametrize("name,expr", _CONSTANT_REFERENCES)
    def test_builders_are_directed_at_every_scale(self, name, expr):
        ref = mp_ref(expr, 250)
        for t in range(40, 760, 15):
            lo, hi = se._CONSTANTS[name](t)
            assert Fraction(lo, 1 << t) <= ref <= Fraction(hi, 1 << t), t
            assert 0 < hi - lo <= 4, t

    def test_bad_name(self):
        with pytest.raises(ValueError):
            se.constant("NOPE", 20)


class TestTermSpec:
    def test_term_value(self):
        spec = TermSpec(weight=(1, 4), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        assert se.term_value(spec, 0) == 1
        assert se.term_value(spec, 1) == Fraction(5 * 8, -64)

    def test_denominators(self):
        spec = TermSpec(weight=(1,), den=(("2k+1", 2), ("CB2", 1)),
                        seq=(), m=Fraction(1), k0=0)
        assert se.term_value(spec, 2) == Fraction(1, 25 * 6)

    def test_start_index(self):
        spec = TermSpec(weight=(1,), den=(("k", 1),), seq=(),
                        m=Fraction(2), k0=1)
        with pytest.raises(ValueError):
            se.term_value(spec, 0)
        assert se.term_value(spec, 1) == Fraction(1, 2)


class TestGeometricSeries:
    def test_central_binomial_sqrt(self):
        # sum C(2k,k)/8^k = 1/sqrt(1-1/2) = sqrt 2
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 1),),
                        m=Fraction(8), k0=0)
        ball = se.eval_series(spec, 40)
        assert fb(sqrt_ball(2, 50) - ball).abs_upper() < Fraction(1, 10 ** 39)

    def test_weighted_franel(self):
        # sum (99k+17) C(2k,k) f_k / (-400)^k = 50/pi
        spec = TermSpec(weight=(17, 99), den=(),
                        seq=((sk.CB2, 1), (sk.FRANEL, 1)),
                        m=Fraction(-400), k0=0)
        ball = fb(se.eval_series(spec, 40))
        rhs = 50 / fb(se.constant("PI", 50))
        assert (ball - rhs).abs_upper() < Fraction(1, 10 ** 39)

    def test_divergent_rejected(self):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.FRANEL, 1),),
                        m=Fraction(2), k0=0)
        with pytest.raises(DivergentError):
            se.eval_series(spec, 20)

    def test_tail_bound_decreases(self):
        spec = TermSpec(weight=(1, 3), den=(), seq=((sk.FRANEL4, 1),),
                        m=Fraction(-20), k0=0)
        assert se.tail_bound(spec, 80).mid == 0
        assert fb(se.tail_bound(spec, 80)).rad < fb(se.tail_bound(spec, 40)).rad


class TestEulerTransform:
    """Boundary-ratio series handled by the certified Euler transform."""

    def test_bauer(self):
        # sum (4k+1)(-1)^k C(2k,k)^3 / 64^k = 2/pi
        spec = TermSpec(weight=(1, 4), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        ball = fb(se.eval_series(spec, 40))
        rhs = 2 / fb(se.constant("PI", 50))
        assert (ball - rhs).abs_upper() < Fraction(1, 10 ** 39)

    def test_bauer_high_precision(self):
        spec = TermSpec(weight=(1, 4), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        ball = fb(se.eval_series(spec, 120))
        rhs = 2 / fb(se.constant("PI", 130))
        assert (ball - rhs).abs_upper() < Fraction(1, 10 ** 119)

    def test_g_series(self):
        # sum (16n+5) C(2n,n) g_n(-20) / 324^n = 189/(25 pi)
        spec = TermSpec(weight=(5, 16), den=(),
                        seq=((sk.CB2, 1), (sk.GPOLY(-20), 1)),
                        m=Fraction(324), k0=0)
        ball = fb(se.eval_series(spec, 40))
        rhs = Fraction(189, 25) / fb(se.constant("PI", 50))
        assert (ball - rhs).abs_upper() < Fraction(1, 10 ** 39)

    def test_reciprocal_central_binomial(self):
        # sum_{k>=1} (-4)^k /(k^2 C(2k,k)) = -2 log(1+sqrt 2)^2
        # (the arcsin-squared series at x = 2i); the term ratio tends to 1,
        # so this exercises the shifted reciprocal-binomial certificate
        spec = TermSpec(weight=(1,), den=(("k", 2), ("CB2", 1)), seq=(),
                        m=Fraction(-1, 4), k0=1)
        ball = fb(se.eval_series(spec, 35))
        ref = mp_ref("-2*mp.log(1+mp.sqrt(2))**2")
        assert (ball - ref).abs_upper() < Fraction(1, 10 ** 33)

    def test_certificate_shape(self):
        spec = TermSpec(weight=(1, 4), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        cert = certificate(spec)
        assert cert is not None
        assert cert.q < Fraction(51, 100)
        # q rounded up once, by at most 2^-79 relative
        assert cert.q <= dy(*cert.q_up) <= cert.q * (1 + Fraction(1, 2 ** 79))

    def test_no_certificate(self):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.DOMB, 1),),
                        m=Fraction(16), k0=0)
        with pytest.raises(DivergentError):
            se.eval_series(spec, 20)


def old_eval_rhs(rhs: RHSForm, digits: int = 40) -> FBall:
    """eval_rhs as it was before the closed forms moved to fixed point:
    products and quotients of Fraction balls, every constant and square
    root at digits + 8.  The oracle of the fixed-point version."""
    total = FBall.exact(0)
    for q, d, basis in rhs.addends:
        part = FBall.exact(q)
        if d != 1:
            part = part * fb(sqrt_ball(d, digits + 8))
        if basis == "PI2":
            pi = fb(se.constant("PI", digits + 8))
            part = part * pi * pi
        elif basis == "INV_PI":
            part = part / fb(se.constant("PI", digits + 8))
        elif basis != "ONE":
            part = part * fb(se.constant(basis, digits + 8))
        total = total + part
    return total


def _registry_series():
    from piseries import corpus
    return {e.ident: e.series for e in corpus.load_default()
            if e.kind == "SERIES" and e.series is not None}


def _radius_within(ball: FBall, digits: int) -> bool:
    """rad < 10^-(digits+5) * max(1, |mid|), eval_rhs's radius contract
    for addends that do not cancel."""
    return ball.rad * 10 ** (digits + 5) < max(1, abs(ball.mid))


_BASIS_REFERENCES = {
    "ONE": "1", "PI": "mp.pi", "PI2": "mp.pi**2", "INV_PI": "1/mp.pi",
    "CATALAN_G": "mp.catalan", "LOG3": "mp.log(3)",
    "K3": "(mp.zeta(2, mp.mpf(1)/3) - mp.zeta(2, mp.mpf(2)/3)) / 9",
}


class TestFixedRHS:
    """eval_rhs in integer fixed point against the Fraction-ball oracle
    and against mpmath."""

    @pytest.mark.parametrize("digits", [12, 40, 96])
    def test_registry_against_oracle(self, digits):
        series = _registry_series()
        assert len(series) >= 238
        for ident, s in series.items():
            new = fb(se.eval_rhs(s.rhs, digits))
            old = old_eval_rhs(s.rhs, digits)
            assert abs(new.mid - old.mid) <= new.rad + old.rad, ident
            assert _radius_within(new, digits), ident

    @pytest.mark.parametrize("basis", sorted(_BASIS_REFERENCES))
    def test_basis_against_mpmath(self, basis):
        # a negative q swaps the ends; d = 7 is not a square
        rhs = RHSForm(addends=((Fraction(-22, 7), 7, basis),))
        digits = 40
        ball = fb(se.eval_rhs(rhs, digits))
        ref = mp_ref(f"mp.mpf(-22)/7 * mp.sqrt(7) * ({_BASIS_REFERENCES[basis]})")
        assert ball.contains(ref)
        assert ball.mid < 0 and _radius_within(ball, digits)

    def test_mixed_addends_against_mpmath(self):
        rhs = RHSForm(addends=((Fraction(3, 2), 1, "ONE"),
                               (Fraction(-5), 3, "PI2"),
                               (Fraction(1, 9), 6, "INV_PI"),
                               (Fraction(-7, 4), 2, "LOG3")))
        ball = fb(se.eval_rhs(rhs, 60))
        ref = mp_ref("mp.mpf(3)/2 - 5*mp.sqrt(3)*mp.pi**2"
                     " + mp.sqrt(6)/(9*mp.pi) - mp.mpf(7)/4*mp.sqrt(2)*mp.log(3)",
                     120)
        assert ball.contains(ref)
        assert _radius_within(ball, 60)

    def test_ball_is_dyadic(self):
        ball = se.eval_rhs(RHSForm(addends=((Fraction(1, 3), 5, "PI"),)), 30)
        # the sum of the interval ends at 2^-s, s = ceil(38 log2 10) + 8
        assert ball.exp == 127 + 8 + 1
        assert all(type(x) is int for x in (ball.mid, ball.rad, ball.exp))
        assert 0 < ball.rad

    def test_radius_check_raises(self, monkeypatch):
        # 40 bits short of the scale the contract needs
        monkeypatch.setattr(se, "_RHS_GUARD", -40)
        with pytest.raises(ArithmeticError, match="radius"):
            se.eval_rhs(RHSForm(addends=((Fraction(1), 2, "INV_PI"),)), 30)


class TestConstFixed:
    """One integer enclosure per named constant, held at the finest scale
    asked for so far."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of constant() by name, with an empty enclosure cache."""
        monkeypatch.setattr(se, "_CONST_FIXED", {})
        seen = []
        real = se.constant

        def counted(name, digits=50):
            seen.append(name)
            return real(name, digits)

        monkeypatch.setattr(se, "constant", counted)
        return seen

    @pytest.mark.parametrize("name,expr", _CONSTANT_REFERENCES)
    def test_large_small_larger_contain_reference(self, calls, name, expr):
        ref = mp_ref(expr, 160)
        for s in (200, 80, 330):
            lo, hi = se._const_fixed(name, s)
            assert Fraction(lo, 1 << s) <= ref <= Fraction(hi, 1 << s)
            assert 0 < hi - lo <= 2
        # the held scale is rounded up to the step, never doubled
        assert se._CONST_FIXED[name][0] == 384
        assert calls.count(name) == 2

    @pytest.mark.parametrize("name", [n for n, _ in _CONSTANT_REFERENCES])
    def test_fewer_bits_compute_nothing(self, calls, name):
        se._const_fixed(name, 150)
        assert calls.count(name) == 1
        top, lo, hi = se._CONST_FIXED[name]
        assert top == 192
        del calls[:]
        for s in (192, 150, 64, 1):
            got = se._const_fixed(name, s)
            # floor shift for lo, ceil shift for hi
            assert got == (lo >> (top - s), -(-hi >> (top - s)))
        assert calls == []

    @pytest.mark.parametrize("name", [n for n, _ in _CONSTANT_REFERENCES])
    def test_more_bits_call_constant_once(self, calls, name):
        se._const_fixed(name, 100)
        del calls[:]
        se._const_fixed(name, 129)
        assert calls.count(name) == 1
        assert se._CONST_FIXED[name][0] == 192

    def test_eval_rhs_reuses_the_enclosure(self, calls):
        rhs = RHSForm(addends=((Fraction(1), 2, "INV_PI"),
                               (Fraction(3), 1, "PI2")))
        for digits in (40, 30, 20, 40, 15):
            se.eval_rhs(rhs, digits)
        assert calls == ["PI"]


class TestWorkingDigits:
    """verify_series_identity sums the series side at the requested digits
    and evaluates the closed form once, at digits + extra + 5, extra the
    number of decimal digits of an integer upper bound of the addends'
    magnitudes.  The oracle is a 15-digit evaluation of the value, the
    probe: the working digits are never below digits + 5 plus the number
    of decimal digits of its integer part."""

    @staticmethod
    def old_work(rhs: RHSForm, digits: int) -> int:
        mag, extra = abs(old_eval_rhs(rhs, 15).mid), 0
        while mag >= 1:
            mag /= 10
            extra += 1
        return digits + extra + 5

    @staticmethod
    def probe_work(rhs: RHSForm, digits: int) -> int:
        """digits + extra + 5, extra the number of decimal digits of the
        integer part of |mid| of eval_rhs at 15 digits, as the probe read
        it."""
        probe = se.eval_rhs(rhs, 15)
        return digits + se._decimal_length(abs(probe.mid) >> probe.exp) + 5

    @pytest.mark.parametrize("ident, extra", [
        ("1.72", 20),    # 18 * 557403^3 sqrt(10005) / (5 pi), near 2e19
        ("1.71", 8),     # -1672209 sqrt(10005) / pi
        ("1.2", 0),      # 2 / pi
    ])
    def test_same_work_as_before(self, monkeypatch, ident, extra):
        series = _registry_series()[ident]
        seen, seen_rhs = [], []
        real, real_rhs = se.eval_series, se.eval_rhs

        def spy(spec, digits, stats=None):
            if spec == series.spec:
                seen.append(digits)
            return real(spec, digits, stats)

        def spy_rhs(rhs, digits):
            if rhs == series.rhs:
                seen_rhs.append(digits)
            return real_rhs(rhs, digits)

        monkeypatch.setattr(se, "eval_series", spy)
        monkeypatch.setattr(se, "eval_rhs", spy_rhs)
        rep = se.verify_series_identity(series, 20)
        assert rep.passed
        assert seen == [20]
        # one evaluation of the closed form, at the probe's work
        assert seen_rhs == [self.old_work(series.rhs, 20)] \
            == [self.probe_work(series.rhs, 20)] == [20 + extra + 5]

    def test_closed_form_past_the_int_string_limit(self, monkeypatch):
        # sum 10^5000 / (10^100)^k = q with floor(q) of 5001 digits, which
        # str() refuses; the closed form is read 5001 digits deeper
        c, m = 10 ** 5000, 10 ** 100
        series = SeriesIdentity(
            TermSpec(weight=(c,), den=(), seq=(), m=Fraction(m)),
            RHSForm(addends=((Fraction(c * m, m - 1), 1, "ONE"),)))
        seen = []
        real = se.eval_rhs

        def spy(rhs, digits):
            seen.append(digits)
            return real(rhs, digits)

        monkeypatch.setattr(se, "eval_rhs", spy)
        rep = se.verify_series_identity(series, 20)
        assert rep.passed and seen == [20 + 5001 + 5]

    @pytest.mark.parametrize("ident", sorted(_registry_series()))
    def test_never_below_the_probe(self, ident):
        rhs = _registry_series()[ident].rhs
        deeper = se._work_digits(rhs, 12) - self.probe_work(rhs, 12)
        for digits in range(12, 41):
            assert se._work_digits(rhs, digits) \
                - self.probe_work(rhs, digits) == deeper
        # deeper only where addends of both signs cancel, by 1 to 3 digits
        signs = {q > 0 for q, _, _ in rhs.addends}
        assert deeper == 0 or (len(signs) == 2 and 1 <= deeper <= 3)

    def test_deeper_closed_forms(self):
        # the 21 registry closed forms whose addends cancel enough to be
        # read deeper than the probe of their value, such as 1.73's
        # (pi^2 - 8) / 2, near 0.93 against a magnitude near 8.9
        deeper = sorted(
            ident for ident, s in _registry_series().items()
            if se._work_digits(s.rhs, 12) > self.probe_work(s.rhs, 12))
        assert len(deeper) == 21 and "1.73" in deeper
        assert len(_registry_series()) == 238

    @pytest.mark.parametrize("addends", [
        (),                                                   # no addends
        ((Fraction(5), 4, "ONE"),),                           # 10, exact
        ((Fraction(9, 2), 4, "ONE"),),                        # 9, exact
        ((Fraction(10 ** 12 - 1, 10 ** 11), 1, "ONE"),),      # 9.99..9
        ((Fraction(10 ** 14 - 1, 10 ** 13), 9, "INV_PI"),),   # 9.549..
        # pi q just below 10: 10 - 1.9e-15 and 100 - 3e-14
        ((Fraction(3183098861837906, 10 ** 15), 1, "PI"),),
        ((Fraction(31830988618379067, 10 ** 15), 1, "PI"),),
        ((Fraction(8), 2, "ONE"),),                           # 11.3
        ((Fraction(-7), 10 ** 6 + 1, "ONE"),),                # -7000.0035
        *(((Fraction(7), 2, basis),) for basis in sorted(se._BASES)),
        *(((Fraction(-3, 7), 11, basis), (Fraction(2), 1, "ONE"))
          for basis in sorted(se._BASES)),
    ])
    def test_edge_cases(self, addends):
        rhs = RHSForm(addends=addends)
        work = se._work_digits(rhs, 20)
        assert work >= self.probe_work(rhs, 20) == self.old_work(rhs, 20)
        if len({q > 0 for q, _, _ in addends}) < 2:
            # nothing cancels: the same work as the probe
            assert work == self.probe_work(rhs, 20)

    def test_basis_bounds(self):
        # each bound is above the basis, checked against a certified
        # enclosure 2^-128 fine, and within 2^-63 of it
        for basis, up in se._BASIS_UP.items():
            lo, hi = se._basis_fixed(basis, 128)
            assert hi <= up << 64 and (up - 2) << 64 < lo, basis
        assert set(se._BASIS_UP) == se._BASES

    def test_report_repr_past_the_int_string_limit(self):
        # the gap of a 4600-digit closed form that fails: its repr writes
        # the gap as its bound 1eN and converts no whole integer
        rep = se.SeriesReport(False, (10 ** 4610 + 10 ** 10) // 3, 10, 5)
        assert repr(rep) == \
            "SeriesReport(passed=False, gap_upper<1e4600, terms_used=5)"
        assert repr(se.SeriesReport(True, 0, 45, 7)) == \
            "SeriesReport(passed=True, gap_upper<0, terms_used=7)"

    def test_gap_bound_is_exact_gap_rounded_up(self):
        series = _registry_series()["1.71"]
        rep = se.verify_series_identity(series, 30)
        work = 30 + 8 + 5
        gap = fb(se.eval_series(series.spec, 30)
                 - se.eval_rhs(series.rhs, work))
        scale = 10 ** (work + 10)
        assert rep.gap_scale == work + 10
        assert 0 <= rep.gap_upper - gap.abs_upper() < Fraction(1, scale)


@lru_cache(maxsize=None)
def _registry_reports(digits: int) -> dict:
    """Each registry series' report at ``digits``, or the DivergentError
    raised for a series with no certified evaluation (7.1)."""
    reports = {}
    for ident, s in _registry_series().items():
        try:
            reports[ident] = se.verify_series_identity(s, digits)
        except DivergentError as exc:
            reports[ident] = exc
    return reports


class TestSeriesDigits:
    """Summing the series side at the requested digits instead of the
    closed form's digits + extra + 5 changes no outcome, and every pass
    keeps a margin of ten below the threshold 10^(1-digits)."""

    @staticmethod
    def old_verdict(series: SeriesIdentity, digits: int) -> str:
        """The verdict with both sides at digits + extra + 5, the gap
        bound taken in Fraction ball arithmetic."""
        work = TestWorkingDigits.old_work(series.rhs, digits)
        try:
            lhs = se.eval_series(series.spec, work)
        except DivergentError:
            return "DivergentError"
        gap = fb(lhs - se.eval_rhs(series.rhs, work))
        return "FAIL" if gap.abs_upper() * 10 ** (digits - 1) >= 1 else "ok"

    @pytest.mark.parametrize("digits", [1, 2, 12, 40])
    def test_outcome_as_with_the_closed_forms_work(self, digits):
        series = _registry_series()
        reports = _registry_reports(digits)
        assert len(reports) >= 238
        for ident, s in series.items():
            rep = reports[ident]
            got = type(rep).__name__ if isinstance(rep, DivergentError) \
                else "ok" if rep.passed else "FAIL"
            assert got == self.old_verdict(s, digits), ident

    @pytest.mark.parametrize("digits", [1, 2, 12, 40])
    def test_passes_keep_a_margin(self, digits):
        passed = {i: r for i, r in _registry_reports(digits).items()
                  if getattr(r, "passed", False)}
        assert passed
        for ident, r in passed.items():
            assert r.gap_upper * 10 ** (digits + 1) < 1, ident


class TestRHS:
    def test_eval_rhs(self):
        rhs = RHSForm(addends=((Fraction(3), 2, "INV_PI"),))
        ball = fb(se.eval_rhs(rhs, 40))
        ref = mp_ref("3*mp.sqrt(2)/mp.pi")
        assert ball.contains(ref)

    def test_multi_addend(self):
        rhs = RHSForm(addends=((Fraction(8), 1, "ONE"),
                               (Fraction(-16), 1, "INV_PI")))
        ball = fb(se.eval_rhs(rhs, 35))
        ref = mp_ref("8 - 16/mp.pi")
        assert ball.contains(ref)

    def test_verify_identity_pass_and_fail(self):
        spec = TermSpec(weight=(1, 4), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        good = SeriesIdentity(spec,
                              RHSForm(addends=((Fraction(2), 1, "INV_PI"),)))
        rep = se.verify_series_identity(good, 40)
        assert rep.passed
        bad = SeriesIdentity(spec,
                             RHSForm(addends=((Fraction(2), 2, "INV_PI"),)))
        rep = se.verify_series_identity(bad, 40)
        assert not rep.passed


class TestTermsUsed:
    """SeriesReport.terms_used is the number of terms the enclosure summed."""

    @staticmethod
    def _report_and_stats(monkeypatch, spec, rhs, digits):
        seen = []
        real = se.eval_series

        def spy(s, d, stats=None):
            ball = real(s, d, stats)
            if s == spec:
                seen.append((ball, d, dict(stats)))
            return ball

        monkeypatch.setattr(se, "eval_series", spy)
        rep = se.verify_series_identity(SeriesIdentity(spec, rhs), digits)
        (ball, work, stats), = seen
        assert rep.passed and rep.terms_used == stats["terms"]
        ball = fb(ball)
        assert ball.rad < Fraction(1, 10 ** (work + 2))
        return ball, stats["terms"]

    def test_direct_path(self, monkeypatch):
        # sum C(2k,k)/8^k = sqrt 2, theta = 1/2
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 1),),
                        m=Fraction(8), k0=0)
        rhs = RHSForm(addends=((Fraction(1), 2, "ONE"),))
        ball, terms = self._report_and_stats(monkeypatch, spec, rhs, 30)
        assert ball.contains(sum(se.term_value(spec, k) for k in range(terms)))

    def test_euler_path(self, monkeypatch):
        # Bauer's series has theta = 1 and goes through the Euler transform
        spec = TermSpec(weight=(1, 4), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        rhs = RHSForm(addends=((Fraction(2), 1, "INV_PI"),))
        ball, terms = self._report_and_stats(monkeypatch, spec, rhs, 20)
        t = [se.term_value(spec, k) for k in range(terms)]
        assert ball.contains(euler_partial(t))


# pi = 426880 sqrt(10005) / sum (the series behind constant("PI"))
CHUDNOVSKY = TermSpec(weight=(13591409, 545140134), den=(),
                      seq=((sk.CB2, 1), (sk.CB3, 1), (sk.CB63, 1)),
                      m=Fraction(-640320) ** 3, k0=0)
# aux-5: sum_{k>=1} (15k-4)(-27)^(k-1) / (k^3 C(2k,k)^2 C(3k,k)) = K
AUX5 = TermSpec(weight=(Fraction(4, 27), Fraction(-5, 9)),
                den=(("k", 3), ("CB2", 2), ("CB3", 1)), seq=(),
                m=Fraction(-1, 27), k0=1)
# 1.2: sum (4k-1) C(2k,k)^3 / ((2k-1)^3 (-64)^k) = 2/pi; 2k-1 is -1 at
# k = 0, and theta = 1 sends it through the Euler transform with the head
# term k = 0 summed before k_start = 1
S12 = TermSpec(weight=(-1, 4), den=(("2k-1", 3),), seq=((sk.CB2, 3),),
               m=Fraction(-64), k0=0)


class TestFixedPoint:
    """Terms are integer pairs and the sums are floored to multiples of
    2^-s; the definition in plain Fractions is the oracle."""

    @pytest.mark.parametrize("spec", [
        CHUDNOVSKY, AUX5, S12,
        TermSpec(weight=(1,), den=(("2k-1", 1), ("CB4", 1)),
                 seq=((sk.GPOLY(-1), 2),), m=Fraction(-3, 7)),
    ], ids=["chudnovsky", "aux-5", "1.2", "gpoly-rational-m"])
    def test_terms_match_definition(self, spec):
        hi = spec.k0 + 40
        assert all(den > 0 for _, den in column_pairs(spec, spec.k0, hi))
        assert [se.term_value(spec, k) for k in range(spec.k0, hi + 1)] \
            == term_oracle(spec, hi)

    @pytest.mark.parametrize("spec,expected", [
        (CHUDNOVSKY, lambda d: 426880 * fb(sqrt_ball(10005, d))
         / fb(se.constant("PI", d))),
        (AUX5, lambda d: fb(se.constant("K3", d))),
    ], ids=["chudnovsky", "aux-5"])
    def test_direct_ball_holds_partial_sum(self, spec, expected):
        digits = 30
        stats: dict = {}
        ball = fb(se.eval_series(spec, digits, stats))
        assert ball.rad < Fraction(1, 10 ** (digits + 2))
        partial = sum(term_oracle(spec, spec.k0 + stats["terms"] - 1))
        # every term is floored, so the midpoint sits below the partial sum
        # by less than the rounding part of the radius
        _, err = fixed_point(stats["terms"], digits)
        assert err <= Fraction(1, 32 * 10 ** (digits + 2))
        assert 0 <= partial - ball.mid < err
        N = spec.k0 + stats["terms"] - 1
        assert ball.rad == fb(se.tail_bound(spec, N)).rad + err
        assert (ball - expected(digits + 5)).contains_zero()

    def test_euler_head(self):
        digits = 20
        cert = certificate(S12)
        assert cert.k_start == 1
        stats: dict = {}
        ball = fb(se.eval_series(S12, digits, stats))
        assert ball.rad < Fraction(1, 10 ** (digits + 2))
        t = term_oracle(S12, stats["terms"] - 1)
        # one floor for the head, one per transformed term
        _, err = fixed_point(stats["terms"], digits)
        assert 0 <= t[0] + euler_partial(t[1:]) - ball.mid < err
        tail = fb(stats["tail"]).rad
        assert ball.rad == tail + err
        assert_rounded_up(tail, fraction_euler_tail(
            cert, fraction_wfall(cert, S12.weight), len(t) - 2))
        assert (ball - 2 / fb(se.constant("PI", digits + 5))).contains_zero()


def old_schedule(spec: TermSpec, digits: int):
    """The N search eval_series used before N came from the closed form:
    N = max(k0, 4), 12, 20, 30, 45, ..., calling tail_bound at every try.
    Returns its ball and term count."""
    target = Fraction(1, 10 ** (digits + 2))
    N = max(spec.k0, 4)
    while True:
        terms = N - spec.k0 + 1
        s, err = fixed_point(terms, digits)
        bound = fb(se.tail_bound(spec, N)).rad
        if bound < target - err:
            break
        N += max(8, N // 2)
    total = sum((num << s) // den
                for num, den in terms_oracle(spec, spec.k0, N))
    return FBall(Fraction(total, 1 << s), bound + err), terms


def poly_at(p, k: int) -> Fraction:
    return sum(c * k ** i for i, c in enumerate(p))


def old_tail_bound(spec: TermSpec, N: int):
    """tail_bound as it was before the crossover and the closed form were
    split out: the crossover found from max(N, k0, 1) on in Fractions, and
    the exact terms summed through term_value; the closed form is
    :func:`exact_closed_tail`'s, so the bound is r + sqrt(sq) for the
    returned (r, sq)."""
    poly, theta = spec_envelope(spec)
    deg = len(poly) - 1
    rho = (1 + theta) / 2
    K = max(N, spec.k0, 1)
    while Fraction(K + 2, K + 1) ** deg * theta > rho:
        K += 1
    total = sum((abs(se.term_value(spec, k)) for k in range(N + 1, K + 1)),
                Fraction(0))
    r, sq = exact_closed_tail(spec, K)
    return total + r, sq


def exact_closed_tail(spec: TermSpec, K: int):
    """The closed-form tail that se._Tail rounds up to a dyadic, in exact
    rationals, as (r, sq) for the value r + sqrt(sq): the smaller of
    P(K+1) theta^(K+1) / (1 - rho), as sereval computed it before, kept
    as its oracle, and D(K+1) (K+1)^(-a2/2) theta^(K+1) / (1 - rho), whose
    square is rational where its root is not."""
    poly, theta = spec_envelope(spec)
    n = K + 1
    old = 2 * poly_at(poly, n) * theta ** n / (1 - theta)
    decay = spec_decay(spec)
    if decay is not None:
        dpoly, a2 = decay
        dec = 2 * poly_at(dpoly, n) * theta ** n / (1 - theta)
        if dec * dec < old * old * n ** a2:
            return Fraction(0), dec * dec / n ** a2
    return old, Fraction(0)


def exact_closed_bound(spec: TermSpec, digits: int, N: int):
    """The exact closed-form bound (r, sq) of :func:`exact_closed_tail` at
    N >= K0 if r + sqrt(sq) is below the target less the rounding radius
    of N - k0 + 1 terms, else None: the check of _DirectSum._closed_bound
    before the tail was rounded to a dyadic."""
    _, err = fixed_point(N - spec.k0 + 1, digits)
    r, sq = exact_closed_tail(spec, N)
    room = Fraction(1, 10 ** (digits + 2)) - err - r
    return (r, sq) if room > 0 and sq < room * room else None


#: how far above the exact tail the dyadic tail bound may lie, relative
TAIL_SLACK = Fraction(1, 2 ** 50)


def assert_rounded_up(got: Fraction, exact: Fraction,
                      sq: Fraction = Fraction(0)) -> None:
    """x <= got <= x (1 + TAIL_SLACK) for x = exact + sqrt(sq): the dyadic
    tail is an upper bound, and a tight one; compared in rationals by
    squaring."""
    low = got - exact
    assert low >= 0 and low * low >= sq
    high = got / (1 + TAIL_SLACK) - exact
    assert high <= 0 or high * high <= sq


WZAG16 = TermSpec(weight=(1, 5), den=(), seq=((sk.WZAG, 1),),
                  m=Fraction(-16))


def _direct_series():
    """Every registry SERIES on the direct path (theta < 1), but for those
    whose cold evaluation takes seconds (the benchmark's
    OVER_BUDGET_SERIES)."""
    from piseries import corpus
    slow = {"II4p", "8.1", "5.20", "5.23", "S2", "IV15p", "5.24", "II11p",
            "III9p", "7.3", "w2"}
    out = []
    for e in corpus.load_default():
        if e.kind == "SERIES" and e.series is not None \
                and e.ident not in slow \
                and spec_envelope(e.series.spec)[1] < 1:
            out.append(pytest.param(e.series.spec, id=e.ident))
    return out


def _checked_N(spec: TermSpec, digits: int, ball: Ball, terms: int) -> int:
    """Assert that the N behind ``ball`` passes the exact check and that
    the radius is exactly its tail bound plus the rounding part."""
    N = spec.k0 + terms - 1
    _, err = fixed_point(terms, digits)
    bound = fb(se.tail_bound(spec, N)).rad
    assert bound < Fraction(1, 10 ** (digits + 2)) - err
    assert fb(ball).rad == bound + err
    return N


class TestOneShotN:
    """N comes from the closed-form envelope and is checked exactly once;
    the old N schedule is the oracle."""

    @pytest.mark.parametrize("spec", _direct_series())
    def test_against_old_schedule(self, spec):
        for digits in (20, 40):
            stats: dict = {}
            ball = se.eval_series(spec, digits, stats)
            want, want_terms = old_schedule(spec, digits)
            assert abs(fb(ball).mid - want.mid) <= fb(ball).rad + want.rad
            _checked_N(spec, digits, ball, stats["terms"])
            assert stats["terms"] <= want_terms

    @pytest.mark.parametrize("spec", [CHUDNOVSKY, AUX5, WZAG16],
                             ids=["chudnovsky", "aux-5", "wzag"])
    def test_tail_bound_matches_old(self, spec):
        poly, theta = spec_envelope(spec)
        K0 = se._crossover(poly, theta, max(spec.k0, 1))
        for N in [*range(spec.k0, K0 + 3), 2 * K0 + 5, 60]:
            assert_rounded_up(fb(se.tail_bound(spec, N)).rad,
                              *old_tail_bound(spec, N))

    # a fast series (crossover 1), aux-5 (k0 = 1, denominators) and a WZAG
    # series (degree-10 envelope, crossover 13)
    @pytest.mark.parametrize("spec", [
        TermSpec(weight=(1,), den=(), seq=((sk.CB2, 1),), m=Fraction(8)),
        AUX5, WZAG16,
    ], ids=["cb2-8", "aux-5", "wzag"])
    @pytest.mark.parametrize("guess", ["k0", "half"])
    def test_undershooting_estimate(self, monkeypatch, spec, guess):
        digits = 20
        stats: dict = {}
        ball = se.eval_series(spec, digits, stats)
        N = _checked_N(spec, digits, ball, stats["terms"])
        real = se._estimate_N

        def under(tail, k0, d):
            est = real(tail, k0, d)
            assert est == N
            return k0 if guess == "k0" else (k0 + est) // 2

        monkeypatch.setattr(se, "_estimate_N", under)
        again: dict = {}
        got = se.eval_series(spec, digits, again)
        # the exact check moves N up to the smallest N that passes
        assert _checked_N(spec, digits, got, again["terms"]) == N
        assert got == ball

    # weights beyond the float range, once an OverflowError in the float
    # estimate of N: 2^1100 leaves every term below 10^-34, 2^1400 puts the
    # first one near 10^55
    @pytest.mark.parametrize("e", [1100, 1400])
    def test_weight_beyond_floats(self, e):
        spec = TermSpec(weight=(2 ** e,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-512), k0=400)
        digits = 20
        stats: dict = {}
        ball = se.eval_series(spec, digits, stats)
        N = _checked_N(spec, digits, ball, stats["terms"])
        assert fb(ball) == direct_oracle(spec, digits, stats["terms"])
        assert fb(ball).contains(sum(se.term_value(spec, k)
                                     for k in range(spec.k0, N + 1)))

    def test_crossover_equals_stepping(self):
        # the float guess moved by the integer test lands where stepping
        # from lo does: every direct-path registry envelope, from k0 and
        # from 1, and ratios near 1 with degrees up to 12
        def stepped(poly, theta, lo):
            # the plain stepping loop, the oracle
            deg, (a, b), K = len(poly) - 1, theta.as_integer_ratio(), lo
            while 2 * a * (K + 2) ** deg > (a + b) * (K + 1) ** deg:
                K += 1
            return K

        cases = []
        for p in _registry_specs():
            poly, theta = spec_envelope(p.values[0])
            if theta < 1:
                cases += [(poly, theta, max(p.values[0].k0, 1)),
                          (poly, theta, 1)]
        cases += [([1] * (deg + 1), 1 - Fraction(1, q), lo)
                  for deg in (1, 2, 5, 12) for q in (2, 7, 100, 1000)
                  for lo in (1, 3, 40)]
        assert len(cases) > 400
        for poly, theta, lo in cases:
            assert se._crossover(poly, theta, lo) == \
                stepped(poly, theta, lo), (poly, theta, lo)

    def test_below_crossover(self):
        # 1/((k+1) 10^(20k)): theta = 10^-20, crossover K0 = 1.  At 10
        # digits N = 0 would do, but N starts at K0, where the closed form
        # bounds the tail, and the ball holds the exact sum
        spec = TermSpec(weight=(1,), den=(("k+1", 1),), seq=(),
                        m=Fraction(10 ** 20))
        poly, theta = spec_envelope(spec)
        assert se._crossover(poly, theta, 1) == 1
        assert fb(se.tail_bound(spec, 0)).rad < Fraction(1, 10 ** 12)
        stats: dict = {}
        ball = se.eval_series(spec, 10, stats)
        assert stats["terms"] == 2
        assert _checked_N(spec, 10, ball, 2) == 1
        assert fb(ball) == direct_oracle(spec, 10, 2)
        # sum 10^(-20k)/(k+1) = -10^20 log(1 - 10^-20), bracketed by its
        # first terms and a geometric tail
        x = Fraction(1, 10 ** 20)
        head = 1 + x / 2 + x * x / 3
        assert fb(ball).contains(head) and fb(ball).contains(head + x ** 3)

    def test_one_exact_check(self, monkeypatch):
        # the estimate is right for Chudnovsky's series: one closed-form
        # bound is taken, it passes, and it lies just above the exact one
        calls = []
        real = se._Tail.closed
        monkeypatch.setattr(se._Tail, "closed",
                            lambda tail, N: calls.append(N) or real(tail, N))
        monkeypatch.setattr(se, "tail_bound", None)
        stats: dict = {}
        se.eval_series(CHUDNOVSKY, 60, stats)
        assert calls == [stats["terms"] - 1]
        assert_rounded_up(fb(stats["tail"]).rad,
                          *exact_closed_tail(CHUDNOVSKY, calls[0]))


class TestStats:
    def test_direct(self):
        stats: dict = {}
        ball = se.eval_series(AUX5, 30, stats)
        assert stats["path"] == "direct"
        assert stats["theta"] == spec_envelope(AUX5)[1] < 1
        N = AUX5.k0 + stats["terms"] - 1
        assert stats["tail"] == se.tail_bound(AUX5, N)
        assert fb(ball).rad == fb(stats["tail"]).rad \
            + fixed_point(stats["terms"], 30)[1]

    def test_euler(self):
        stats: dict = {}
        ball = se.eval_series(S12, 20, stats)
        assert stats["path"] == "euler"
        assert stats["theta"] == spec_envelope(S12)[1] >= 1
        # one head term before k_start = 1, then N + 1 transformed terms
        N = stats["terms"] - 2
        cert = certificate(S12)
        assert stats["tail"] == se._radius([se._euler_tail(
            cert, se._falling_weights(cert, [4, -1]),
            se._dyadic_up(*(cert.mass / 2).as_integer_ratio()), N)])
        assert fb(ball).rad == fb(stats["tail"]).rad \
            + fixed_point(stats["terms"], 20)[1]


class TestSeriesBallDigest:
    """Every registry SERIES ball, its N and its scale, pinned: a change to
    the set-up of an evaluation (its envelope, crossover, estimate of N,
    closed-form tail or scale) must leave each ball bit-identical."""

    #: sha256 of repr((ident, digits, mid, rad, exp, terms)) of every
    #: registry SERIES spec (the two open ones included) at 12, 15, 20, 30
    #: and 40 digits, repr((ident, digits, text)) for a DivergentError
    #: (7.1), recorded before the closed form was evaluated only once
    DIGEST = "71427c608170762c2570444014203788c9e5c9a57dc8af2993a7255c3cc5812d"

    def test_digest(self):
        from piseries import corpus
        specs = [(e.ident, e.series.spec if e.series is not None
                  else e.raw["_spec"])
                 for e in corpus.load_default() if e.kind == "SERIES"]
        assert len(specs) == 240
        h = hashlib.sha256()
        for digits in (12, 15, 20, 30, 40):
            for ident, spec in specs:
                stats: dict = {}
                try:
                    b = se.eval_series(spec, digits, stats)
                    row = (ident, digits, b.mid, b.rad, b.exp,
                           stats["terms"])
                except DivergentError as exc:
                    row = (ident, digits, str(exc))
                h.update(repr(row).encode())
        assert h.hexdigest() == self.DIGEST


class TestPrintedResults:
    """The terms summed and the printed gap bound of three certifications,
    pinned: a tail bound that is rounded up must not move them."""

    @pytest.mark.parametrize("ident, digits, terms, gap", [
        ("5.13", 12, 308, "1e-13"),    # theta with the 10^8-guard parts
        ("II3p", 15, 596, "1e-16"),
        ("aux-5", 40, 70, "1e-42"),
    ])
    def test_pinned(self, ident, digits, terms, gap):
        rep = se.verify_series_identity(_registry_series()[ident], digits)
        assert (rep.terms_used, se._sci(rep.gap_units, rep.gap_scale)) \
            == (terms, gap)


class TestWeighted:
    """eval_weighted sums several weights from one pass over the terms."""

    @pytest.mark.parametrize("spec,weights", [
        (TermSpec(weight=(1,), den=(), seq=((sk.SBC(1, -6), 1),),
                  m=Fraction(24)), [(0, 0, 1), (0, 1, 0), (1, 0, 0)]),
        (AUX5, [(0, 1), (1, 0), (Fraction(4, 27), Fraction(-5, 9))]),
        (S12, [(0, 1), (1, 0)]),
    ], ids=["sbc-moments", "aux-5", "euler"])
    def test_each_ball_is_eval_series(self, spec, weights):
        got = se.eval_weighted(spec, weights, 40)
        assert len(got) == len(weights)
        for w, (ball, info) in zip(weights, got):
            stats: dict = {}
            assert ball == se.eval_series(replace(spec, weight=w), 40, stats)
            assert info == stats

    def test_one_pass(self, monkeypatch):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.SBC(1, -6), 1),),
                        m=Fraction(24))
        walks = []
        real = se._columns

        def spy(s, weight, lo, hi, bits=None):
            walks.append((weight, lo, hi))
            return real(s, weight, lo, hi, bits)

        monkeypatch.setattr(se, "_columns", spy)
        got = se.eval_weighted(spec, [(0, 1), (1, 0)], 60)
        terms = [info["terms"] for _, info in got]
        assert walks == [(([1], 1), 0, max(terms) - 1)]

    def test_euler_weights_share_one_pass(self, monkeypatch):
        # S12's head term k = 0 comes from the stream too: it starts at
        # k0 = 0, not at k_start = 1, and reaches the larger of the two N
        walks = []
        real = se._columns

        def spy(s, weight, lo, hi, bits=None):
            walks.append((weight, lo, hi))
            return real(s, weight, lo, hi, bits)

        monkeypatch.setattr(se, "_columns", spy)
        got = se.eval_weighted(S12, [(0, 1), (-1, 4)], 30)
        terms = [info["terms"] for _, info in got]
        assert walks == [(([1], 1), 0, max(terms) - 1)]

    @pytest.mark.parametrize("ident", ["1.1", "1.2"])
    def test_euler_head_is_floored_from_the_stream(self, ident,
                                                   monkeypatch):
        # each Euler ball with a head term equals the one of the sum that
        # floored its Fraction head apart, and no term is read but the
        # stream's
        spec = _registry_series()[ident].spec
        assert certificate(spec).k_start == spec.k0 + 1
        weights = [(0, 1), (1,), spec.weight]
        for digits in (12, 20, 40):
            with monkeypatch.context() as mp:
                mp.setattr(se, "term_value", None)
                mp.setattr(se, "_term_pairs", None)
                got = se.eval_weighted(spec, weights, digits)
            for w, (ball, info) in zip(weights, got):
                assert (ball, info["terms"]) == \
                    fraction_head_euler(replace(spec, weight=w), digits)

    @pytest.mark.parametrize("spec", [CHUDNOVSKY, S12],
                             ids=["direct", "euler"])
    def test_no_weights(self, spec):
        assert se.eval_weighted(spec, [], 20) == []


class TestCutColumns:
    """Cut columns on constructed specs, with every block cut that has a
    column longer than 2p bits: each floor must be the one of the exact
    term."""

    # each stream starts at long columns, and the weights bring the terms
    # near 2^-s; all but the first have terms that a 2-bit guard sends to
    # the exact fallback
    SPECS = [
        # true ratio 11.09/17 against the bound 16/17: the terms are far
        # below 2^-s, of both signs
        pytest.param(TermSpec(weight=(1,), den=(), seq=((sk.BETA, 1),),
                              m=Fraction(-17), k0=300), False,
                     id="beta-tiny-negative"),
        # terms (k - 3) 2^(500-12k) are dyadic: each scaled term is an
        # integer, whose floor lies on the boundary
        pytest.param(TermSpec(weight=(-3 * 2 ** 500, 2 ** 500), den=(),
                              seq=(), m=Fraction(2 ** 12), k0=40), True,
                     id="dyadic"),
        pytest.param(TermSpec(weight=(2 ** 900,), den=(),
                              seq=((sk.CB2, 3),), m=Fraction(-512), k0=300),
                     True, id="cube"),
        # T_k(0,3) = 0 for odd k
        pytest.param(TermSpec(weight=(2 ** 400,), den=(),
                              seq=((sk.GCT(0, 3), 1),), m=Fraction(-8),
                              k0=300), True, id="zero-rows"),
    ]

    @staticmethod
    def _spy(monkeypatch, guard):
        """Cut every block with a column longer than 2p bits; count the
        cut blocks and the exact fallbacks, each a re-read of one term."""
        seen = {"cut": 0, "exact": 0}
        cut, pairs = se._cut_block, se._term_pairs

        def spy_cut(num_f, den_f, bits):
            out = cut(num_f, den_f, bits)
            seen["cut"] += out is not None and out[3] > 0
            return out

        def spy_pairs(spec, lo, hi):
            seen["exact"] += lo == hi
            return pairs(spec, lo, hi)

        monkeypatch.setattr(se, "_cut_from", lambda bits: bits + 1)
        monkeypatch.setattr(se, "_GUARD", guard)
        monkeypatch.setattr(se, "_cut_block", spy_cut)
        monkeypatch.setattr(se, "_term_pairs", spy_pairs)
        return seen

    @pytest.mark.parametrize("guard", [32, 2])
    @pytest.mark.parametrize("spec,falls_back", SPECS)
    def test_floors_are_exact(self, spec, falls_back, guard, monkeypatch):
        seen = self._spy(monkeypatch, guard)
        for digits in (12, 40):
            stats: dict = {}
            ball = se.eval_series(spec, digits, stats)
            assert fb(ball) == direct_oracle(spec, digits, stats["terms"])
        assert seen["cut"]
        if guard == 2 and falls_back:
            assert seen["exact"]

    def test_weights_share_the_cut_stream(self, monkeypatch):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-512), k0=300)
        w = 2 ** 900
        weights = [(w,), (0, w), (Fraction(-w, 3), 7 * w)]
        seen = self._spy(monkeypatch, 2)
        got = se.eval_weighted(spec, weights, 40)
        for weight, (ball, info) in zip(weights, got):
            assert fb(ball) == direct_oracle(replace(spec, weight=weight), 40,
                                             info["terms"])
        assert seen["cut"] and seen["exact"]

    def test_cut_keeps_signs_and_relative_error(self, monkeypatch):
        monkeypatch.setattr(se, "_cut_from", lambda bits: bits + 1)
        bits = 40
        col = [0, 3 << 200, -(5 << 190), (1 << 260) - 1, -1 << 250]
        short = [1 << 70, 5 << 77]
        (got, same), (den,), shift, cut = se._cut_block([col, short], [col],
                                                        bits)
        assert cut == 2 and shift == 0 and same == short
        sh = 193 - bits
        for x, y, z in zip(col, got, den):
            assert y == z and (x > 0) == (y > 0) and (x < 0) == (y < 0)
            assert abs(x - (y << sh)) <= abs(x) * Fraction(2, 2 ** bits)
        # no column is longer than 2 bits, or none reaches the threshold
        assert se._cut_block([short], [short], bits) is None
        monkeypatch.setattr(se, "_cut_from", lambda bits: 4 * bits + 2048)
        assert se._cut_block([col], [], bits) is None

    # weighted specs, so that the first block has a long column: a weight
    # that is negative at small k, 2k - 1 < 0 at k = 0, and zero rows
    @pytest.mark.parametrize("spec", [
        TermSpec(weight=(-(2 ** 300), 1), den=(("2k-1", 1), ("CB2", 1)),
                 seq=(), m=Fraction(-3)),
        TermSpec(weight=(2 ** 150,), den=(),
                 seq=((sk.GCT(0, 3), 1), (sk.CB2, 2)), m=Fraction(-8)),
    ], ids=["weight-affine", "zero-rows"])
    def test_cut_blocks_stand_for_the_exact_terms(self, spec, monkeypatch):
        monkeypatch.setattr(se, "_cut_from", lambda bits: bits + 1)
        bits, lo, hi = 64, spec.k0, spec.k0 + 3 * se._BLOCK
        exact = column_pairs(spec, lo, hi)
        cut_blocks = 0
        for k, nums, dens, cut in se._term_columns(spec, lo, hi, bits):
            want = exact[k - lo:k - lo + len(nums)]
            if cut is None:
                assert list(zip(nums, dens)) == want
                continue
            cut_blocks += 1
            rel = cut.cols * Fraction(4, 2 ** cut.bits)
            for i, (num, den) in enumerate(want):
                assert dens[i] > 0
                term, approx = Fraction(num, den), Fraction(nums[i], dens[i])
                approx *= Fraction(2) ** cut.shift
                assert (term > 0) == (approx > 0) and (term < 0) == (approx < 0)
                assert abs(approx - term) <= rel * abs(term)
        assert cut_blocks


SLOW_SERIES = {"II4p", "8.1", "5.20", "5.23", "S2", "IV15p", "5.24", "II11p",
               "III9p", "7.3", "w2"}


def _registry_specs(exclude=frozenset()):
    from piseries import corpus
    return [pytest.param(e.series.spec, id=e.ident)
            for e in corpus.load_default()
            if e.kind == "SERIES" and e.series is not None
            and e.ident not in exclude]


def pascal_weights(N: int) -> list:
    """A_i = sum_j C(j,i) 2^(N-j) from the Pascal triangle, O(N^2): the
    weights of the Euler transform before se._euler_weights."""
    A = [0] * (N + 1)
    row = [1]
    for j in range(N + 1):
        w = 1 << (N - j)
        for i, cji in enumerate(row):
            A[i] += cji * w
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return A


def fraction_wfall(cert, weight) -> list:
    """|w_s|, the falling-factorial coefficients of
    W'(j) = weight(j + k_start) extra(j + k_start), in Fractions: the
    per-weight part of the Euler certificate as sereval built it before
    it moved to integers over the weight's denominator."""
    wp = [Fraction(0)] * (len(weight) + len(cert.extra) - 1)
    for i, a in enumerate(weight):
        for j, b in enumerate(cert.extra):
            wp[i + j] += Fraction(a) * b
    shifted = [sum(a * comb(d, s) * cert.k_start ** (d - s)
                   for d, a in enumerate(wp) if d >= s)
               for s in range(len(wp))]
    S2 = se._stirling2(len(wp) - 1)
    return [abs(sum(shifted[d] * S2[d][s] for d in range(s, len(wp))))
            for s in range(len(wp))]


def fraction_euler_tail(cert, wfall, N: int, q=None, half_mass=None):
    """The Euler tail bound in Fraction arithmetic, one addend at a time,
    from the exact q and mass/2 of ``cert`` unless others are given: the
    oracle of se._euler_tail's upward-rounded dyadic."""
    q = cert.q if q is None else q
    half_mass = cert.mass / 2 if half_mass is None else half_mass
    total = Fraction(0)
    for s, ws in enumerate(wfall):
        if ws == 0:
            continue
        if N + 1 < s or N + 2 - s <= 0:
            return None
        rho = q * Fraction(N + 2, N + 2 - s)
        if rho >= 1:
            return None
        first = se._falling(N + 1, s) * q ** (N + 1 - s)
        total += ws * Fraction(1, 2 ** s) * first / (1 - rho)
    return half_mass * total


def exact_euler_N(cert, wfall, digits: int, floors: int, start: int = 0):
    """The smallest N >= ``start`` whose exact tail bound leaves room for
    the rounding radius, found by trying every N from ``start`` on: the
    Euler path's N as it would be before the tail was rounded to a dyadic.
    A ``start`` at the answer for fewer digits gives the same N, as more
    digits only lower the budget."""
    target = Fraction(1, 10 ** (digits + 2))
    N = start
    while True:
        s, err = fixed_point(N + 1 + floors, digits)
        tail = fraction_euler_tail(cert, wfall, N)
        if tail is not None and tail < target - err:
            return N, s, err, tail
        N += 1


def euler_oracle(spec: TermSpec, digits: int):
    """The Euler-path ball, term count and rounding radius as the
    per-term code gave them: the exact N loop, the Pascal weights and one
    term at a time; the radius has the exact tail bound."""
    cert = certificate(spec)
    floors = 1 if cert.k_start > spec.k0 else 0
    wfall = fraction_wfall(cert, spec.weight)
    N, s, err, tail = exact_euler_N(cert, wfall, digits, floors)
    head = sum((se.term_value(spec, k) for k in range(spec.k0, cert.k_start)),
               Fraction(0))
    total = (head.numerator << s) // head.denominator
    terms = terms_oracle(spec, cert.k_start, cert.k_start + N)
    for a, (num, den) in zip(pascal_weights(N), terms):
        total += ((a * num) << s) // (den << (N + 1))
    return (FBall(Fraction(total, 1 << s), tail + err),
            cert.k_start - spec.k0 + N + 1, err)


def fraction_head_euler(spec: TermSpec, digits: int):
    """The Euler-path ball and term count of ``spec`` as the sum gave them
    when it summed its head k0 <= k < k_start apart: the head's exact
    Fraction sum floored once at 2^-s, then A_i term(k_start + i) / 2^(N+1)
    floored one term at a time, N and the dyadic tail as sereval's."""
    cert, wfall, scale, _ = euler_parts(spec)
    head = range(spec.k0, cert.k_start)
    floors = 1 if head else 0
    N, tail = se._euler_N(cert, wfall, scale, digits, floors)
    s, _ = fixed_point(N + 1 + floors, digits)
    exact = sum((se.term_value(spec, k) for k in head), Fraction(0))
    total = (exact.numerator << s) // exact.denominator
    for i, a in enumerate(pascal_weights(N)):
        t = se.term_value(spec, cert.k_start + i) * a * 2 ** s / 2 ** (N + 1)
        total += t.numerator // t.denominator
    return (Ball(total, N + 1 + floors, s) + se._radius([tail]),
            len(head) + N + 1)


def direct_oracle(spec: TermSpec, digits: int, terms: int) -> FBall:
    """The direct-path ball at the N behind ``terms``, summed one term at a
    time; N must pass the exact check."""
    N = spec.k0 + terms - 1
    s, err = fixed_point(terms, digits)
    bound = fb(se.tail_bound(spec, N)).rad
    assert bound < Fraction(1, 10 ** (digits + 2)) - err
    total = sum((num << s) // den
                for num, den in terms_oracle(spec, spec.k0, N))
    return FBall(Fraction(total, 1 << s), bound + err)


def euler_parts(spec: TermSpec):
    """The certificate, the integer falling weights and the rounded-up
    mass / (2 wden) that se._euler_tail takes for ``spec``'s weight."""
    cert = certificate(spec)
    weight, wden = se._integer_weight(spec.weight)
    mn, md = cert.mass.as_integer_ratio()
    return (cert, se._falling_weights(cert, weight),
            se._dyadic_up(mn, 2 * md * wden), wden)


#: the registry series on the Euler path that have a certificate
EULER_SPECS = [p for p in _registry_specs()
               if spec_envelope(p.values[0])[1] >= 1
               and certificate(p.values[0]) is not None]


class TestColumnOracles:
    """The column builder, the O(N) Euler weights and the screened Euler N
    against the per-term code they replaced."""

    @pytest.mark.parametrize("spec", _registry_specs())
    def test_columns_equal_per_term_generator(self, spec):
        hi = spec.k0 + se._BLOCK + 20        # across a block boundary
        assert column_pairs(spec, spec.k0, hi) \
            == list(terms_oracle(spec, spec.k0, hi))
        lo = spec.k0 + 3
        assert column_pairs(spec, lo, lo + 4) \
            == list(terms_oracle(spec, lo, lo + 4))

    @staticmethod
    def _check_ball(spec, digits):
        stats: dict = {}
        try:
            ball = se.eval_series(spec, digits, stats)
        except DivergentError:
            assert certificate(spec) is None
            return
        got = fb(ball)
        if stats["path"] == "direct":
            assert got == direct_oracle(spec, digits, stats["terms"])
            return
        # the same N and midpoint, and a tail bound rounded up from the
        # exact one: the balls overlap, and the new one holds the old
        want, terms, err = euler_oracle(spec, digits)
        assert stats["terms"] == terms and got.mid == want.mid
        assert_rounded_up(got.rad - err, want.rad - err)

    @pytest.mark.parametrize("spec", _registry_specs())
    def test_balls_at_12_digits(self, spec):
        self._check_ball(spec, 12)

    @pytest.mark.parametrize("spec", _registry_specs(SLOW_SERIES))
    def test_balls_at_40_digits(self, spec):
        self._check_ball(spec, 40)

    @pytest.mark.parametrize("spec,digits", [
        # N = 0 would pass, below the crossover K0 = 1: N starts at K0
        (TermSpec(weight=(1,), den=(("k+1", 1),), seq=(),
                  m=Fraction(10 ** 20)), 10),
        (WZAG16, 20), (S12, 20),
    ], ids=["below-crossover", "wzag", "1.2"])
    def test_balls_of_constructed_specs(self, spec, digits):
        self._check_ball(spec, digits)

    @pytest.mark.parametrize("spec", [
        p for p in _registry_specs()
        if spec_envelope(p.values[0])[1] < 1])
    def test_cut_columns_give_the_exact_floors(self, spec, monkeypatch):
        # every direct-path series, the slow ones too, whose long columns
        # are cut; a 2-bit guard sends many terms to the exact fallback
        for digits in (12, 20, 40):
            stats: dict = {}
            ball = se.eval_series(spec, digits, stats)
            assert fb(ball) == direct_oracle(spec, digits, stats["terms"])
            with monkeypatch.context() as mp:
                mp.setattr(se, "_GUARD", 2)
                low: dict = {}
                assert se.eval_series(spec, digits, low) == ball
                assert low == stats

    def test_euler_weights_equal_pascal(self):
        # A_i(N) = 2 A_i(N-1) + C(N, i), from the definition
        A = []
        for N in range(301):
            A = [2 * a + comb(N, i) for i, a in enumerate(A + [0])]
            assert se._euler_weights(N) == A
        for N in (0, 1, 2, 17, 113, 300):
            assert se._euler_weights(N) == pascal_weights(N)

    @pytest.mark.parametrize("spec", EULER_SPECS)
    def test_euler_tail_equals_fraction_sum(self, spec):
        """The dyadic tail is the Fraction sum rounded up: at least the sum
        with q and mass/(2 wden) rounded up exactly as the code rounds
        them, within 2^-50 of it, and so within 2^-50 of the exact sum."""
        cert, wfall, scale, wden = euler_parts(spec)
        assert [Fraction(w, wden) for w in wfall] \
            == fraction_wfall(cert, spec.weight)
        rounded = dict(q=dy(*cert.q_up), half_mass=dy(*scale) * wden)
        exact_wfall = fraction_wfall(cert, spec.weight)
        for N in [*range(0, 12), *range(12, 400, 13)]:
            got = se._euler_tail(cert, wfall, scale, N)
            want = fraction_euler_tail(cert, exact_wfall, N, **rounded)
            exact = fraction_euler_tail(cert, exact_wfall, N)
            assert (got is None) == (want is None) == (exact is None)
            if got is not None:
                assert_rounded_up(dy(*got), want)
                assert_rounded_up(dy(*got), exact)

    @pytest.mark.parametrize("spec", EULER_SPECS)
    def test_euler_N_equals_exact_loop(self, spec):
        cert, wfall, scale, _ = euler_parts(spec)
        floors = 1 if cert.k_start > spec.k0 else 0
        exact_wfall = fraction_wfall(cert, spec.weight)
        want = 0
        for digits in (*range(1, 81), 100, 150):
            N, tail = se._euler_N(cert, wfall, scale, digits, floors)
            want, _, _, exact = exact_euler_N(cert, exact_wfall, digits,
                                              floors, want)
            assert N == want, digits
            assert_rounded_up(dy(*tail), exact)

    @pytest.mark.parametrize("spec", EULER_SPECS)
    def test_euler_fit_turns_once(self, spec):
        """_euler_N settles N where the fit turns, which is the smallest
        N only if the fit turns once: the dyadic tail fails to fit below
        its N and fits from it up to 2 N + 16, at every digits from 12 to
        40."""
        cert, wfall, scale, _ = euler_parts(spec)
        floors = 1 if cert.k_start > spec.k0 else 0
        for digits in range(12, 41):
            N, _ = se._euler_N(cert, wfall, scale, digits, floors)
            T = 10 ** (digits + 2)
            fits = []
            for n in range(2 * N + 17):
                tail = se._euler_tail(cert, wfall, scale, n)
                fits.append(tail is not None
                            and se._fits(*tail, n + 1 + floors, T))
            assert fits == [False] * N + [True] * (N + 17), digits

    @pytest.mark.parametrize("spec", [CHUDNOVSKY, AUX5, WZAG16],
                             ids=["chudnovsky", "aux-5", "wzag"])
    def test_closed_bound_in_integers(self, spec):
        env = se._base_envelope(spec)
        for digits in (12, 40):
            d = se._DirectSum(spec, env, digits)
            for N in range(d.env.K0, d.N + 40):
                want = exact_closed_bound(spec, digits, N)
                got = d._closed_bound(N)
                assert (got is None) == (want is None)
                if want is not None:
                    assert_rounded_up(dy(*got), *want)

    def test_dyadic_rounding_is_upward_and_tight(self):
        # values from 2^-300 to 2^160, so that the exponents e of m 2^-e
        # take both signs; a power n rounds at most 2 n times
        rel = Fraction(1, 2 ** (se._TAIL_BITS - 1))
        for a in range(1, 300, 7):
            for b in (1, 3, 10 ** 40 + 7, 2 ** 300 - 1):
                x = Fraction(a ** 20 + 1, b)
                m, e = se._dyadic_up(x.numerator, x.denominator)
                got = dy(m, e)
                assert x <= got <= x * (1 + rel)
                y = dy(*se._mul_up(m, e, m, e))
                assert got ** 2 <= y <= got ** 2 * (1 + rel)
                n = (1, 2, 3, 17, 64)[a % 5]
                p = dy(*se._pow_up(m, e, n))
                assert got ** n <= p <= got ** n * (1 + rel) ** (2 * n)

    @pytest.mark.parametrize("spec", [
        p for p in _registry_specs()
        if spec_envelope(p.values[0])[1] < 1])
    def test_dyadic_tail_above_exact(self, spec):
        """For every direct-path registry series and N in [k0, K0+3] and
        at 2 K0 + 5 and 60: exact <= tail_bound <= exact (1 + 2^-50),
        where below the crossover the bound rounds each exact |term| up.
        Each tail_bound below K0 builds the exact terms N+1..K0 afresh, so
        past 64 such N (w2 has K0 = 514) only k0, K0/2 and K0 - 1 are
        taken."""
        poly, theta = spec_envelope(spec)
        K0 = se._crossover(poly, theta, max(spec.k0, 1))
        # below[N] = the exact bound at N < K0: the closed form at K0 plus
        # |term(k)| for N < k <= K0
        closed = exact_closed_tail(spec, K0)
        below = {K0: closed[0]}
        for k, (num, den) in reversed(list(enumerate(
                column_pairs(spec, spec.k0 + 1, K0), spec.k0 + 1))):
            below[k - 1] = below[k] + Fraction(abs(num), den)
        lower = range(spec.k0, K0) if K0 - spec.k0 <= 64 \
            else (spec.k0, K0 // 2, K0 - 1)
        for N in [*lower, *range(K0, K0 + 4), 2 * K0 + 5, 60]:
            exact = (below[N], closed[1]) if N < K0 \
                else exact_closed_tail(spec, N)
            bound = se.tail_bound(spec, N)
            assert bound.mid == 0
            assert_rounded_up(fb(bound).rad, *exact)


def test_soundness_checks_survive_python_O():
    """Under -O asserts vanish; the explicit checks must still fire."""
    code = textwrap.dedent("""
        from fractions import Fraction
        from piseries import corpus
        from piseries.sereval import Ball, RHSForm, TermSpec
        bad = {
            "Ball(1, -1)": lambda: Ball(1, -1),
            "bogus tag": lambda: TermSpec(weight=(1,), den=(("bogus", 1),),
                                          seq=(), m=Fraction(2)),
            "m = 0": lambda: TermSpec(weight=(1,), den=(), seq=(),
                                      m=Fraction(0)),
            "bogus basis": lambda: RHSForm(((Fraction(1), 1, "E"),)),
        }
        for what, make in bad.items():
            try:
                make()
            except ValueError:
                pass
            else:
                raise SystemExit(f"{what} was accepted")
        by_id = {e.ident: e for e in corpus.load_default()}
        rep = corpus.run([by_id[i] for i in ("1.2", "vh-a", "8-1-n")],
                         digits=20, p_max=50, n_max=32)
        print(" ".join(f"{r.ident}={r.outcome}" for r in rep.rows))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # 8-1-n is conjectural (the registry has no proven INTEGRALITY entry):
    # SUPPORTED is its verdict when every n checks out
    assert sorted(done.stdout.split()) == ["1.2=PASS", "8-1-n=SUPPORTED",
                                           "vh-a=PASS"]


GROWTH_K = 1000


def _series_kinds():
    """Every sequence kind in a registry SERIES spec."""
    return sorted({kind for spec in _registry_series().values()
                   for kind, _ in spec.spec.seq}, key=str)


def _theta(spec) -> Fraction:
    return se._base_envelope(spec)[2]


class TestFactorTable:
    """The one factor table against the two tables it replaced, one per
    path (``oracle_envelope``): the same envelope everywhere, and on the
    Euler path the same certificate, built at theta = 1 only, where the
    old radius R is 1."""

    @pytest.mark.parametrize("spec", _registry_specs())
    def test_envelope_equals_old(self, spec):
        assert se._base_envelope(spec)[:3] == oe.base_envelope(spec)
        for kind, _ in spec.seq:
            if kind.tag != "WZAG":     # its old g was never read
                assert se._kind_factor(kind).g == oe.kind_growth(kind)

    @pytest.mark.parametrize("spec", [p for p in _registry_specs()
                                      if _theta(p.values[0]) >= 1])
    def test_certificate_equals_old(self, spec):
        cert, old = certificate(spec), oe.certificate(spec)
        assert (cert is None) == (old is None)
        if cert is not None:
            assert old.pop("R") == 1
            assert cert._asdict() == old

    def test_euler_path_specs(self):
        series = _registry_series()
        euler = {i: certificate(s.spec) for i, s in series.items()
                 if _theta(s.spec) >= 1}
        assert len(euler) == 8
        # 7.1's theta is just above 1: the rounded-up root of its growth
        assert [i for i, c in euler.items() if c is None] == ["7.1"]
        assert [i for i in euler if _theta(series[i].spec) > 1] == ["7.1"]

    @pytest.mark.parametrize("spec", EULER_SPECS)
    def test_one_envelope_per_euler_evaluation(self, monkeypatch, spec):
        # the certificate takes its cofactor from the envelope that
        # eval_weighted built, and builds none of its own
        calls = []
        real = se._base_envelope

        def spy(s):
            calls.append(s)
            return real(s)

        monkeypatch.setattr(se, "_base_envelope", spy)
        stats: dict = {}
        se.eval_series(spec, 12, stats)
        assert stats["path"] == "euler" and calls == [spec]

    @pytest.mark.parametrize("spec", _registry_specs())
    def test_old_certificates_read_the_envelope(self, spec):
        """Wherever the old code built a certificate, its cofactor was the
        envelope polynomial (over 1) and its R at most theta."""
        old = oe.certificate(spec)
        if old is not None:
            q, den, theta = se._base_envelope(spec)[:3]
            assert (old["extra"], den) == (q, 1) and old["R"] <= theta


#: parameter grid on [0, 1] with the points where the moment variables of
#: the denominator binomials peak (1/2, 2/3)
_GRID = [Fraction(i, 24) for i in range(25)] + [Fraction(1, 3),
                                                Fraction(2, 3)]
_ANGLES = range(25)                    # t = pi i / 24


def _moment_support(name: str, params) -> list:
    """Points eta of the measure behind a factor's moment representation,
    as mpmath numbers from its parametrisation: a grid that holds the
    points where Re eta, Im eta and |eta| are extreme."""
    mp = mpmath.mp
    grid = [mp.mpf(x.numerator) / x.denominator for x in _GRID]
    cos = [mp.cos(mp.pi * i / 24) for i in _ANGLES]

    def gct(b, c):
        return [b + 2 * mp.sqrt(c) * t for t in cos]

    if name in ("CB2", "CATALAN"):     # 4x, times y on [0, 1] for CATALAN
        return [4 * x * y for x in grid
                for y in (grid if name == "CATALAN" else [1])]
    if name == "GCT":
        return gct(*params)
    if name == "GCT2":                 # T_k^2: a product of two measures
        pts = gct(*params)
        return [u * v for u in pts for v in pts]
    if name == "GPOLY":
        (x,) = params
        return [1 + y + 2 * mp.sqrt(y) * t for y in (4 * x * u for u in grid)
                for t in cos]
    if name == "1/CB2":
        return [x * (1 - x) for x in grid]
    if name == "1/CB3":
        return [x * x * (1 - x) for x in grid]
    if name == "1/CB4":
        return [(x * (1 - x)) ** 2 for x in grid]
    assert name.startswith("1/")       # an affine factor: y on [0, 1]
    return grid


def _boxed_factors():
    """(name, params, factor) of every registry sequence kind and
    denominator factor that has a moment box."""
    out = [pytest.param(kind.tag, kind.params, se._kind_factor(kind),
                        id=str(kind)) for kind in _series_kinds()
           if se._kind_factor(kind).box is not None]
    out += [pytest.param("1/" + tag, (), f, id="1/" + tag)
            for tag, f in se._DEN.items()]
    return out


#: the moments f(k)/poly(k) of each boxed factor checked against its box
BOX_K = 40


def _moments(name: str, params, factor) -> list:
    """(k, f(k)/poly(k)) for 0 <= k <= BOX_K, f the factor of ``name``:
    E[eta^k] times the measure's mass.  An affine factor's power measure
    stands for it only where a k + b >= 1, so its k start there."""
    if name.startswith("1/"):
        tag = name[2:]
        if tag in se._AFFINE:
            a, b = se._AFFINE[tag]
            values = [(k, Fraction(1, a * k + b)) for k in range(BOX_K + 1)
                      if a * k + b >= 1]
        else:
            rows = sk.rows(sk.SequenceKind(tag), BOX_K)
            values = [(k, Fraction(1, rows[k])) for k in range(BOX_K + 1)]
    else:
        rows = sk.rows(sk.SequenceKind(name, params), BOX_K)
        values = [(k, Fraction(rows[k])) for k in range(BOX_K + 1)]
    return [(k, v / poly_at(factor.poly, k)) for k, v in values]


class TestMomentBoxes:
    """Every moment box sits inside its factor's growth bound, which makes
    the theta of the envelope a sound radius R for the Euler certificate,
    and holds its factor's values."""

    @pytest.mark.parametrize("name,params,factor", _boxed_factors())
    def test_values_lie_in_the_box(self, name, params, factor):
        """f(k)/poly(k) = mass E[eta^k], mass <= 1, so it lies in
        [lo^k, hi^k] for a real box with lo >= 0, and within max|eta|^k
        otherwise, max|eta| the modulus of the box's farthest corner."""
        box = factor.box()
        moments = _moments(name, params, factor)
        assert len(moments) >= BOX_K - 1
        if box.im_lo == box.im_hi == 0 and box.re_lo >= 0:
            for k, mu in moments:
                assert box.re_lo ** k <= mu <= box.re_hi ** k, k
        else:
            r2 = max(box.re_lo ** 2, box.re_hi ** 2) \
                + max(box.im_lo ** 2, box.im_hi ** 2)
            for k, mu in moments:
                assert mu * mu <= r2 ** k, k

    @pytest.mark.parametrize("name,params,factor", _boxed_factors())
    def test_box_within_growth(self, name, params, factor):
        box, g = factor.box(), factor.g
        assert factor.den == 1       # a boxed factor is poly(k) E[eta^k]
        if box.im_lo == box.im_hi == 0:
            # a real box: both corners at most g in modulus, exactly
            assert max(-box.re_lo, box.re_hi) <= g
        # a complex rectangle's corner need not be reached, and those of
        # g_k(x) and T_k(b,c)^2 with c < 0 lie beyond g: there the
        # measure's own points are checked, in the box and within g
        with mpmath.workdps(50):
            mp = mpmath.mp
            lo, hi, ilo, ihi, gm = (mp.mpf(v.numerator) / v.denominator
                                    for v in (box.re_lo, box.re_hi,
                                              box.im_lo, box.im_hi, g))
            tol = max(1, gm) * mp.mpf(10) ** -40
            pts = _moment_support(name, params)
            for z in pts:
                z = mp.mpc(z)
                assert lo - tol <= z.real <= hi + tol, (z, box)
                assert ilo - tol <= z.imag <= ihi + tol, (z, box)
                assert abs(z) <= gm + tol, (z, g)
            # and the box is the support's hull, rounded out by < 10^-7 g
            close = max(1, gm) * mp.mpf(10) ** -7
            for edge, part in ((lo, "real"), (hi, "real"),
                               (ilo, "imag"), (ihi, "imag")):
                assert min(abs(getattr(mp.mpc(z), part) - edge)
                           for z in pts) < close, (edge, box)


class TestGrowthConstants:
    """Each sequence kind's factor bounds its rows:
    |a_k| <= poly(k) g^k / den for k >= 1."""

    def test_registry_kinds_are_found(self):
        assert len(_series_kinds()) > 100

    @pytest.mark.parametrize("kind", _series_kinds(), ids=str)
    def test_constant_bounds_the_rows(self, kind):
        f = se._kind_factor(kind)
        rows = sk.rows(kind, GROWTH_K)
        g = f.g
        num, den = g.numerator, g.denominator * f.den   # g^k / den, unreduced
        for k in range(1, GROWTH_K + 1):
            a = Fraction(rows[k])
            x, y = abs(a.numerator), a.denominator
            p = sum(c * k ** i for i, c in enumerate(f.poly))
            # x den < 2^(bits) <= p num y when the bit lengths are far apart
            if (x.bit_length() + den.bit_length()
                    > (p * num).bit_length() + y.bit_length() - 2):
                assert x * den <= p * num * y, (str(kind), k)
            num *= g.numerator
            den *= g.denominator

    def test_constants_are_not_counted_as_series(self, monkeypatch):
        """PI, CATALAN_G and LOG3 sum their series through eval_weighted,
        so eval_series counts only series evaluations."""
        calls = []
        real = se.eval_series

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(se, "eval_series", counted)
        monkeypatch.setattr(se, "_CONST_FIXED", {})
        for name in ("PI", "CATALAN_G", "LOG3"):
            se.constant(name, 30)
        assert calls == []


#: the rows each factor's decay is checked against, k = 1..DECAY_K
DECAY_K = 2000
#: the float margin, in bits, inside which a bound is decided in integers
_LOG_SLACK = 1e-6


def _lg(n: int) -> float:
    """log2 of the integer n > 0, from its leading 64 bits."""
    s = max(n.bit_length() - 64, 0)
    return s + log2(n >> s)


def bound_holds(x: int, y: int, cn: int, cd: int, a2: int, gn: int, gd: int,
                k: int) -> bool:
    """Whether x / y <= (cn/cd) k^(-a2/2) (gn/gd)^k for x >= 0, y > 0 and
    k >= 1: in float logs where they decide by more than _LOG_SLACK bits,
    else in integers, squared when a2 is odd."""
    if x == 0:
        return True
    margin = (_lg(cn) + _lg(y) + k * (_lg(gn) - _lg(gd))
              - _lg(x) - _lg(cd) - a2 / 2 * log2(k))
    if abs(margin) > _LOG_SLACK:
        return margin > 0
    lhs, rhs = x * cd * gd ** k, cn * gn ** k * y
    lk, rk = (k ** a2, 1) if a2 >= 0 else (1, k ** -a2)
    return lhs * lhs * lk <= rhs * rhs * rk


#: sequence kinds with a decay that no registry SERIES reads
_EXTRA_DECAY_KINDS = [sk.CB4, sk.GCT(3, -2), sk.GCT(-7, 5), sk.GCT2(2, -3),
                      sk.GCT2(-5, 4), sk.GCT(0, 6), sk.SBC(-3, 2)]


def _decay_factors():
    """(factor, values) for every factor with a decay: each registry
    sequence kind and a few more, and each denominator factor; values()
    gives (|f(k)| numerator, denominator) for k = 1..DECAY_K."""
    out = []
    for kind in [*_series_kinds(), *_EXTRA_DECAY_KINDS]:
        if se._kind_factor(kind).decay is not None:
            out.append(pytest.param(
                se._kind_factor(kind),
                lambda kind=kind: [(abs(x), 1) for x in sk.SequenceStore()
                                   .rows(kind, DECAY_K)[1:DECAY_K + 1]],
                id=str(kind)))
    for tag, f in se._DEN.items():
        if f.decay is None:
            continue
        if tag in se._AFFINE:
            a, b = se._AFFINE[tag]
            values = partial(lambda a, b: [(1, a * k + b)
                                           for k in range(1, DECAY_K + 1)],
                             a, b)
        else:
            values = partial(lambda tag: [
                (1, v) for v in sk.SequenceStore().rows(
                    sk.SequenceKind(tag), DECAY_K)[1:DECAY_K + 1]], tag)
        out.append(pytest.param(f, values, id="1/" + tag))
    return out


def _failures(values, g: Fraction, decay) -> list:
    """The k where |f(k)| <= C k^(-a2/2) g^k fails."""
    cn, cd, a2 = decay
    gn, gd = g.numerator, g.denominator
    return [k for k, (x, y) in enumerate(values, 1)
            if not bound_holds(x, y, cn, cd, a2, gn, gd, k)]


class TestDecay:
    """Each factor's decay |f(k)| <= C k^(-alpha) g^k, alpha = a2/2, holds
    on its exact rows for 1 <= k <= DECAY_K, and alpha + 1/2 fails there;
    the decayed envelope of every direct-path registry series holds on
    its exact terms."""

    def test_every_decayed_tag_is_checked(self):
        tags = {f.values[0] is se._DEN.get(f.id[2:]) and f.id
                or f.id.split("(")[0] for f in _decay_factors()}
        assert {"CB2", "CB2SHIFT", "CATALAN", "CB3", "CB4", "CB63", "FRANEL",
                "FRANEL4", "GCT", "GCT2", "SBC", "1/CB2", "1/CB3",
                "1/CB4", "1/k", "1/k+1", "1/2k-1", "1/6k-1"} <= tags
        # the kinds whose bounds item 7 of the ROADMAP is to derive
        for kind in (sk.GPOLY(-1), sk.ZAGIER, sk.GSEQ, sk.DOMB, sk.BETA,
                     sk.WZAG, sk.GCT(3, 0)):
            assert se._kind_factor(kind).decay is None
        assert se._DEN["k-1"].decay is None

    @pytest.mark.parametrize("factor, values", _decay_factors())
    def test_decay_bounds_the_rows(self, request, factor, values):
        rows = values()
        cn, cd, a2 = factor.decay
        assert _failures(rows, factor.g, factor.decay) == []
        if not request.node.callspec.id.startswith("SBC("):
            # half a power more decay fails within the rows
            assert _failures(rows, factor.g, (cn, cd, a2 + 1)) != []
            return
        # S_k(b,c) is about C(2k,k) g^k / k, so no k^(-1/2) more fails on
        # its rows; its decay is C(2k,k)'s, through |S_k| <= C(2k,k) g^k
        assert factor.decay == se._SEQ["CB2"].decay
        g = factor.g / 4
        cb2 = sk.SequenceStore().rows(sk.CB2, DECAY_K)
        assert _failures([(x, cb2[k]) for k, (x, _) in enumerate(rows, 1)],
                         g, (1, 1, 0)) == []

    @pytest.mark.parametrize("spec", [
        p for p in _registry_specs() if spec_envelope(p.values[0])[1] < 1])
    def test_envelopes_bound_the_terms(self, spec):
        """|term(k)| is below both envelopes for max(k0, 1) <= k <=
        k0 + 800."""
        env = se._base_envelope(spec)
        weight, wden = se._integer_weight(spec.weight)
        tn, td = env.theta.numerator, env.theta.denominator
        parts = [(*se._envelope_poly(weight, wden, env.q, env.den), 0)]
        if env.decay is not None:
            dq, dden, a2 = env.decay
            parts.append((*se._envelope_poly(weight, wden, dq, dden), a2))
        lo = max(spec.k0, 1)
        for k, (num, den) in enumerate(column_pairs(spec, lo, spec.k0 + 800),
                                       lo):
            for coeffs, pden, a2 in parts:
                # |num| / den <= P(k) k^(-a2/2) theta^k, P = coeffs / pden
                assert bound_holds(abs(num), den, se._horner(coeffs, k), pden,
                                   a2, tn, td, k), (k, a2)

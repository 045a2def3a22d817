from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import comb
from pathlib import Path

import mpmath
import pytest

from piseries import seqkit as sk
from piseries import sereval as se
from piseries.sereval import Ball, DivergentError, RHSForm, SeriesIdentity, TermSpec


def mp_ref(expr: str, dps: int = 80) -> Fraction:
    """Independent high-precision reference value as a Fraction."""
    with mpmath.workdps(dps):
        val = eval(expr, {"mp": mpmath})
        return Fraction(mpmath.nstr(val, dps - 5, strip_zeros=False))


class TestBall:
    def test_add_mul(self):
        a = Ball(Fraction(1, 3), Fraction(1, 100))
        b = Ball(Fraction(2, 3), Fraction(1, 200))
        s = a + b
        assert s.mid == 1 and s.rad == Fraction(3, 200)
        p = a * b
        assert p.contains(Fraction(2, 9))

    def test_inverse_bounds(self):
        a = Ball(Fraction(2), Fraction(1, 10))
        inv = a.inverse()
        assert inv.contains(Fraction(10, 21))
        assert inv.contains(Fraction(10, 19))
        with pytest.raises(ZeroDivisionError):
            Ball(Fraction(0), Fraction(1)).inverse()

    def test_shrink_keeps_value(self):
        a = Ball(Fraction(355, 113), Fraction(1, 10 ** 30))
        b = a.shrink(20)
        assert b.contains(Fraction(355, 113))
        assert b.rad < Fraction(1, 10 ** 19)

    def test_decimal(self):
        assert Ball.exact(Fraction(1, 4)).decimal(5) == "0.25000"
        assert Ball.exact(Fraction(-1, 4)).decimal(3) == "-0.250"


class TestSqrt:
    def test_exact_square(self):
        b = se.sqrt_ball(Fraction(9, 16))
        assert b.rad == 0 and b.mid == Fraction(3, 4)

    def test_enclosure(self):
        b = se.sqrt_ball(2, 40)
        assert b.rad < Fraction(1, 10 ** 39)
        ref = mp_ref("mp.sqrt(2)")
        assert b.contains(ref)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            se.sqrt_ball(-1)


class TestConstants:
    @pytest.mark.parametrize("name,expr", [
        ("PI", "mp.pi"),
        ("CATALAN_G", "mp.catalan"),
        ("LOG3", "mp.log(3)"),
        ("K3", "(mp.zeta(2, mp.mpf(1)/3) - mp.zeta(2, mp.mpf(2)/3)) / 9"),
    ])
    def test_against_reference(self, name, expr):
        ball = se.constant(name, 40)
        assert ball.rad < Fraction(1, 10 ** 40)
        assert ball.contains(mp_ref(expr))

    def test_k3_is_character_sum(self):
        # sum_{k>=1} (k|3)/k^2 with (k|3) of period 3: +1, -1, 0
        ball = se.constant("K3", 30)
        partial = sum(Fraction(1, (3 * j + 1) ** 2) - Fraction(1, (3 * j + 2) ** 2)
                      for j in range(4000))
        assert abs(ball.mid - partial) < Fraction(1, 10 ** 6)

    def test_cache_hit(self):
        a = se.constant("PI", 40)
        b = se.constant("PI", 40)
        assert a is b

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
        assert (se.sqrt_ball(2, 50) - ball).abs_upper() < Fraction(1, 10 ** 39)

    def test_weighted_franel(self):
        # sum (99k+17) C(2k,k) f_k / (-400)^k = 50/pi
        spec = TermSpec(weight=(17, 99), den=(),
                        seq=((sk.CB2, 1), (sk.FRANEL, 1)),
                        m=Fraction(-400), k0=0)
        ball = se.eval_series(spec, 40)
        rhs = 50 / se.constant("PI", 50)
        assert (ball - rhs).abs_upper() < Fraction(1, 10 ** 39)

    def test_divergent_rejected(self):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.FRANEL, 1),),
                        m=Fraction(2), k0=0)
        with pytest.raises(DivergentError):
            se.eval_series(spec, 20)

    def test_tail_bound_decreases(self):
        spec = TermSpec(weight=(1, 3), den=(), seq=((sk.FRANEL4, 1),),
                        m=Fraction(-20), k0=0)
        assert se.tail_bound(spec, 80) < se.tail_bound(spec, 40)


class TestEulerTransform:
    """Boundary-ratio series handled by the certified Euler transform."""

    def test_bauer(self):
        # sum (4k+1)(-1)^k C(2k,k)^3 / 64^k = 2/pi
        spec = TermSpec(weight=(1, 4), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        ball = se.eval_series(spec, 40)
        rhs = 2 / se.constant("PI", 50)
        assert (ball - rhs).abs_upper() < Fraction(1, 10 ** 39)

    def test_bauer_high_precision(self):
        spec = TermSpec(weight=(1, 4), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        ball = se.eval_series(spec, 120)
        rhs = 2 / se.constant("PI", 130)
        assert (ball - rhs).abs_upper() < Fraction(1, 10 ** 119)

    def test_g_series(self):
        # sum (16n+5) C(2n,n) g_n(-20) / 324^n = 189/(25 pi)
        spec = TermSpec(weight=(5, 16), den=(),
                        seq=((sk.CB2, 1), (sk.GPOLY(-20), 1)),
                        m=Fraction(324), k0=0)
        ball = se.eval_series(spec, 40)
        rhs = Fraction(189, 25) / se.constant("PI", 50)
        assert (ball - rhs).abs_upper() < Fraction(1, 10 ** 39)

    def test_reciprocal_central_binomial(self):
        # sum_{k>=1} (-4)^k /(k^2 C(2k,k)) = -2 log(1+sqrt 2)^2
        # (the arcsin-squared series at x = 2i); the term ratio tends to 1,
        # so this exercises the shifted reciprocal-binomial certificate
        spec = TermSpec(weight=(1,), den=(("k", 2), ("CB2", 1)), seq=(),
                        m=Fraction(-1, 4), k0=1)
        ball = se.eval_series(spec, 35)
        ref = mp_ref("-2*mp.log(1+mp.sqrt(2))**2")
        assert (ball - Ball.exact(ref)).abs_upper() < Fraction(1, 10 ** 33)

    def test_certificate_shape(self):
        spec = TermSpec(weight=(1, 4), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        cert = se._certificate(spec)
        assert cert is not None
        assert cert.R <= 1
        assert cert.q < Fraction(51, 100)

    def test_no_certificate(self):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.DOMB, 1),),
                        m=Fraction(16), k0=0)
        with pytest.raises(DivergentError):
            se._euler_eval(spec, 20)


class TestRHS:
    def test_eval_rhs(self):
        rhs = RHSForm(addends=((Fraction(3), 2, "INV_PI"),))
        ball = se.eval_rhs(rhs, 40)
        ref = mp_ref("3*mp.sqrt(2)/mp.pi")
        assert ball.contains(ref)

    def test_multi_addend(self):
        rhs = RHSForm(addends=((Fraction(8), 1, "ONE"),
                               (Fraction(-16), 1, "INV_PI")))
        ball = se.eval_rhs(rhs, 35)
        ref = mp_ref("8 - 16/mp.pi")
        assert ball.contains(ref)

    def test_verify_identity_pass_and_fail(self):
        spec = TermSpec(weight=(1, 4), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        good = SeriesIdentity("bauer", spec,
                              RHSForm(addends=((Fraction(2), 1, "INV_PI"),)))
        rep = se.verify_series_identity(good, 40)
        assert rep.passed and rep.status == "PASS"
        bad = SeriesIdentity("bogus", spec,
                             RHSForm(addends=((Fraction(2), 2, "INV_PI"),)))
        rep = se.verify_series_identity(bad, 40)
        assert not rep.passed and rep.status == "FAIL"


class TestTermsUsed:
    """SeriesReport.terms_used is the number of terms the enclosure summed."""

    @staticmethod
    def _report_and_stats(monkeypatch, spec, rhs, digits):
        seen = []
        real = se.eval_series

        def spy(s, d, stats=None):
            ball = real(s, d, stats)
            if s == spec:
                seen.append((ball, dict(stats)))
            return ball

        monkeypatch.setattr(se, "eval_series", spy)
        rep = se.verify_series_identity(SeriesIdentity("t", spec, rhs), digits)
        (ball, stats), = seen
        assert rep.passed and rep.terms_used == stats["terms"]
        return ball, stats["terms"]

    def test_direct_path(self, monkeypatch):
        # sum C(2k,k)/8^k = sqrt 2, theta = 1/2
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 1),),
                        m=Fraction(8), k0=0)
        rhs = RHSForm(addends=((Fraction(1), 2, "ONE"),))
        ball, terms = self._report_and_stats(monkeypatch, spec, rhs, 30)
        assert ball.mid == sum(se.term_value(spec, k) for k in range(terms))

    def test_euler_path(self, monkeypatch):
        # Bauer's series has theta = 1 and goes through the Euler transform
        spec = TermSpec(weight=(1, 4), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        rhs = RHSForm(addends=((Fraction(2), 1, "INV_PI"),))
        ball, terms = self._report_and_stats(monkeypatch, spec, rhs, 20)
        t = [se.term_value(spec, k) for k in range(terms)]
        euler = sum(Fraction(sum(comb(j, i) * t[i] for i in range(j + 1)),
                             2 ** (j + 1)) for j in range(terms))
        assert ball.mid == euler


def test_soundness_checks_survive_python_O():
    """Under -O asserts vanish; the explicit checks must still fire."""
    code = textwrap.dedent("""
        from piseries import corpus
        from piseries.sereval import Ball
        try:
            Ball(1, -1)
        except ValueError:
            pass
        else:
            raise SystemExit("Ball(1, -1) was accepted")
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

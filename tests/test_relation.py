from __future__ import annotations

from fractions import Fraction

import pytest

from piseries import relation as rl
from piseries import seqkit as sk
from piseries import sereval as se
from piseries.sereval import Ball, TermSpec


class TestPslq:
    def test_exact_rational_relation(self):
        values = [Ball.exact(Fraction(1, 3)), Ball.exact(Fraction(1, 6)),
                  Ball.exact(Fraction(-2, 3))]
        res = rl.pslq(values, 100, digits=40)
        assert res.status == rl.FOUND
        # any reported relation must hold exactly on these rationals
        assert sum(c * v.mid for c, v in zip(res.coeffs, values)) == 0
        assert any(res.coeffs)
        assert res.residual is not None and res.residual.abs_upper() == 0

    def test_none_for_irrational_pair(self):
        values = [Ball.exact(1), se.sqrt_ball(2, 60)]
        res = rl.pslq(values, 1000, digits=40)
        assert res.status == rl.NONE
        assert res.bound == 1000

    def test_precision_exhausted(self):
        wide = [Ball(Fraction(1), Fraction(1, 100)),
                Ball(Fraction(2), Fraction(1, 100))]
        res = rl.pslq(wide, 10 ** 6, digits=40)
        assert res.status == rl.PRECISION_EXHAUSTED

    def test_certify_rejects_near_miss(self):
        values = [Ball.exact(Fraction(1)),
                  Ball.exact(Fraction(-1) + Fraction(1, 10 ** 10))]
        ok, res = rl.certify(values, [1, 1], 40)
        assert not ok
        assert res.abs_upper() >= Fraction(1, 10 ** 25)

    @pytest.mark.parametrize("digits", [15, 12, 0, -3])
    def test_too_few_digits(self, digits):
        values = [Ball.exact(1), Ball.exact(2)]
        with pytest.raises(ValueError, match="digits must be >= 16"):
            rl.pslq(values, 10, digits)
        with pytest.raises(ValueError, match="digits must be >= 16"):
            rl.certify(values, [2, -1], digits)

    @pytest.mark.parametrize("max_norm", [0, -1])
    def test_max_norm_below_one(self, max_norm):
        values = [Ball.exact(1), Ball.exact(2)]
        with pytest.raises(ValueError, match="max_norm must be >= 1"):
            rl.pslq(values, max_norm, digits=40)


class TestRediscover:
    def test_too_few_digits_sums_nothing(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("summed a series")

        monkeypatch.setattr(se, "eval_weighted", unexpected)
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        with pytest.raises(ValueError, match="digits must be >= 16"):
            rl.rediscover(spec, [(1, "INV_PI")], digits=12)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_norm": 0}, "max_norm must be >= 1"),
        ({"max_norm": -5}, "max_norm must be >= 1"),
        ({"degree": -1}, "degree must be >= 0"),
    ])
    def test_bad_search_bounds_sum_nothing(self, monkeypatch, kwargs,
                                           message):
        def unexpected(*args):
            raise AssertionError("summed a series")

        monkeypatch.setattr(se, "eval_weighted", unexpected)
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        with pytest.raises(ValueError, match=message):
            rl.rediscover(spec, [(1, "INV_PI")], digits=30, **kwargs)

    def test_apery_like_series(self):
        # moments of S_k(1,-6)/24^k against sqrt(2)/pi
        spec = TermSpec(weight=(1,), den=(), seq=((sk.SBC(1, -6), 1),),
                        m=Fraction(24), k0=0)
        cand = rl.rediscover(spec, [(2, "INV_PI")], digits=80,
                             max_norm=10 ** 3)
        assert cand is not None and cand.confirmed
        assert cand.coeffs == (14, 6, -15)

    def test_cubed_central_binomial(self):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        cand = rl.rediscover(spec, [(1, "INV_PI")], digits=80,
                             max_norm=10 ** 3)
        assert cand is not None and cand.confirmed
        # sum (4k+1) a_k/(-64)^k = 2/pi
        assert cand.coeffs == (4, 1, -2)

    def test_recertify_higher_precision(self):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        cand = rl.rediscover(spec, [(1, "INV_PI")], digits=80,
                             max_norm=10 ** 3)
        values = []
        for w in ((0, 1), (1,)):
            values.append(se.eval_series(
                TermSpec(weight=w, den=(), seq=((sk.CB2, 3),),
                         m=Fraction(-64), k0=0), 120))
        values.append(se.eval_rhs(
            se.RHSForm(addends=((Fraction(1), 1, "INV_PI"),)), 120))
        ok, res = rl.certify(values, cand.coeffs, 120)
        assert ok

    def test_moments_share_one_pass(self, monkeypatch):
        # the k and 1 moments come from one walk over the unweighted terms
        spec = TermSpec(weight=(1,), den=(), seq=((sk.SBC(1, -6), 1),),
                        m=Fraction(24), k0=0)
        walks = []
        real = se._term_columns

        def spy(s, lo, hi):
            if s.seq == spec.seq:
                walks.append(s.weight)
            return real(s, lo, hi)

        monkeypatch.setattr(se, "_term_columns", spy)
        # stop after the search, before the candidate's re-verification
        monkeypatch.setattr(rl, "pslq",
                            lambda values, *a: rl.PSLQResult(rl.NONE))
        assert rl.rediscover(spec, [(2, "INV_PI")], digits=80,
                             max_norm=10 ** 3) is None
        assert walks == [(1,)]

    def test_no_relation_returns_none(self):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.FRANEL, 1),),
                        m=Fraction(-400), k0=0)
        # Franel sums alone are not a rational multiple of 1/pi
        cand = rl.rediscover(spec, [(1, "INV_PI")], digits=60,
                             max_norm=50)
        assert cand is None

from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

from piseries import corpus
from piseries import relation as rl
from piseries import seqkit as sk
from piseries import sereval as se
from piseries.sereval import Ball, RHSForm, TermSpec

from oracle_ball import FBall, enclose, fb, sqrt_ball


def _mpmath_pslq(values, max_norm, digits, maxsteps=10000):
    """The search before the integer PSLQ: mpmath.pslq on the midpoints
    at digits + 10 (its coefficient bound is strict, hence the + 1)."""
    with mpmath.workdps(digits + 10):
        mids = [mpmath.ldexp(mpmath.mpf(v.mid), -v.exp) for v in values]
        return mpmath.pslq(mids, tol=mpmath.mpf(10) ** (-(digits - 10)),
                           maxcoeff=max_norm + 1, maxsteps=maxsteps)


def _primitive(coeffs):
    """coeffs divided by their gcd, first nonzero entry positive."""
    if coeffs is None:
        return None
    g = math.gcd(*coeffs)
    coeffs = [c // g for c in coeffs]
    if next(c for c in coeffs if c) < 0:
        coeffs = [-c for c in coeffs]
    return tuple(coeffs)


def _basis_ball(d, name, digits):
    return se.eval_rhs(RHSForm(addends=((Fraction(1), d, name),)), digits)


def _search_values(spec, d, digits):
    """The k and 1 moments of spec and sqrt(d)/pi, at ``digits``."""
    moments = se.eval_weighted(spec, [(0, 1), (1,)], digits)
    return [ball for ball, _ in moments] + [_basis_ball(d, "INV_PI", digits)]


#: The series the benchmark's discover workload searches: registry SERIES
#: entries with weight (w0, w1) and closed form q sqrt(d)/pi, fast enough
#: to rediscover at 60-64 digits.  Frozen here so that the tests keep
#: their inputs whatever the benchmark's pool becomes.
DISCOVER_IDS = (
    "1.14", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S10", "f-96",
    "f-112", "f-320", "f-400", "f-896", "f-2704", "f-10400", "f-24304",
    "f-39200", "f-1123600", "I1p", "I2p", "I4p", "II1p", "II2p", "II6p",
    "II7p", "II13", "II13p", "II14", "II14p", "III3p", "III4p", "III6p",
    "III8p", "III10p", "III12p", "VIII1", "VIII2", "VIII3", "VIII4", "5.2",
    "5.6", "5.7", "5.8", "5.10", "5.11", "5.14", "5.15", "5.16", "5.18",
    "5.19", "5.21", "5.22", "6.2", "6.3", "6.5", "6.6", "6.7", "6.9",
    "6.10", "6.11", "6.12", "7.2", "7.4", "7.6", "7.8", "7.9", "7.12", "w1",
    "w3", "w4",
)


@pytest.fixture(scope="module")
def discover_pool():
    """(id, spec, d) of each series in ``DISCOVER_IDS``."""
    by_id = {e.ident: e for e in corpus.load_default()}
    pool = []
    for ident in DISCOVER_IDS:
        series = by_id[ident].series
        (_, d, name), = series.rhs.addends
        assert name == "INV_PI" and len(series.spec.weight) == 2, ident
        pool.append((ident, series.spec, d))
    return pool


def _old_rediscover(spec, d, digits, max_norm):
    """The two-pass rediscovery: mpmath's search on moments summed at
    ``digits``, a Fraction-ball certificate, then the weighted identity
    re-verified from scratch at 1.5x the digits.  (coeffs, confirmed), or
    None."""
    values = _search_values(spec, d, digits)
    coeffs = _primitive(_mpmath_pslq(values, max_norm, digits))
    if coeffs is None:
        return None
    residual = sum((fb(v) * c for c, v in zip(coeffs, values)),
                   FBall.exact(0))
    if residual.abs_upper() >= Fraction(1, 10 ** (digits - 15)):
        return None
    ident = se.SeriesIdentity(
        _with_weight(spec, (coeffs[1], coeffs[0])),
        RHSForm(addends=((Fraction(-coeffs[2]), d, "INV_PI"),)))
    report = se.verify_series_identity(ident, digits + digits // 2)
    return coeffs, report.passed


def _with_weight(spec, weight):
    return TermSpec(weight=weight, den=spec.den, seq=spec.seq, m=spec.m,
                    k0=spec.k0)


class TestPslq:
    def test_exact_rational_relation(self):
        # dyadic rationals, which the balls hold exactly
        exact = [Fraction(1, 4), Fraction(1, 8), Fraction(-3, 4)]
        values = [enclose(x, 64) for x in exact]
        assert all(v.rad == 0 for v in values)
        res = rl.pslq(values, 100, digits=40)
        assert res.status == rl.FOUND
        # any reported relation must hold exactly on these rationals
        assert sum(c * x for c, x in zip(res.coeffs, exact)) == 0
        assert any(res.coeffs)
        assert res.residual is not None \
            and fb(res.residual).abs_upper() == 0

    def test_none_for_irrational_pair(self):
        values = [Ball(1), sqrt_ball(2, 60)]
        res = rl.pslq(values, 1000, digits=40)
        assert res.status == rl.NONE
        assert res.bound == 1000

    def test_precision_exhausted(self):
        wide = [enclose(FBall(Fraction(1), Fraction(1, 100)), 64),
                enclose(FBall(Fraction(2), Fraction(1, 100)), 64)]
        res = rl.pslq(wide, 10 ** 6, digits=40)
        assert res.status == rl.PRECISION_EXHAUSTED

    def test_certify_rejects_near_miss(self):
        values = [Ball(1), enclose(Fraction(-1) + Fraction(1, 10 ** 10), 200)]
        ok, res = rl.certify(values, [1, 1], 40)
        assert not ok
        assert fb(res).abs_upper() >= Fraction(1, 10 ** 25)

    @pytest.mark.parametrize("digits", [15, 12, 0, -3])
    def test_too_few_digits(self, digits):
        values = [Ball(1), Ball(2)]
        with pytest.raises(ValueError, match="digits must be >= 16"):
            rl.pslq(values, 10, digits)
        with pytest.raises(ValueError, match="digits must be >= 16"):
            rl.certify(values, [2, -1], digits)

    @pytest.mark.parametrize("max_norm", [0, -1])
    def test_max_norm_below_one(self, max_norm):
        values = [Ball(1), Ball(2)]
        with pytest.raises(ValueError, match="max_norm must be >= 1"):
            rl.pslq(values, max_norm, digits=40)


class TestIntegerPslq:
    """The integer PSLQ against mpmath.pslq, the search it replaced."""

    def test_discover_inputs(self, discover_pool):
        found = 0
        for ident, spec, d in discover_pool:
            values = _search_values(spec, d, 60)
            res = rl.pslq(values, 10 ** 6, 60)
            want = _primitive(_mpmath_pslq(values, 10 ** 6 - 1, 60))
            assert res.coeffs == want, ident
            assert (res.status == rl.FOUND) == (want is not None), ident
            found += want is not None
        assert found > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_planted_relations(self, n):
        rng = random.Random(n)
        primes = [2, 3, 5, 7, 11, 13, 17, 19]
        for digits in (30, 50, 80):
            for _ in range(4):
                base = [sqrt_ball(p, digits + 20)
                        for p in rng.sample(primes, n - 1)]
                plant = [rng.randrange(-60, 61) for _ in range(n - 1)]
                plant[0] = plant[0] or 1
                values = base + [rl._residual(base, plant)]
                res = rl.pslq(values, 1000, digits)
                want = _primitive(_mpmath_pslq(values, 1000, digits))
                assert res.status == rl.FOUND
                assert res.coeffs == want == _primitive(plant + [-1])

    def test_relation_at_the_norm_bound(self):
        # 37 sqrt2 - 20 sqrt3 - v = 0 has max norm exactly 37
        r2, r3 = sqrt_ball(2, 60), sqrt_ball(3, 60)
        values = [r2, r3, rl._residual([r2, r3], [37, -20])]
        res = rl.pslq(values, 37, 40)
        assert res.status == rl.FOUND and res.coeffs == (37, -20, -1)
        assert _primitive(_mpmath_pslq(values, 37, 40)) == res.coeffs
        below = rl.pslq(values, 36, 40)
        assert below.status != rl.FOUND and below.coeffs is None

    def test_step_cap_is_precision_exhausted(self, monkeypatch):
        # mpmath returns None when its steps run out, which read as NONE
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        values = _search_values(spec, 1, 40)
        assert _mpmath_pslq(values, 1000, 40, maxsteps=1) is None
        monkeypatch.setattr(rl, "_MAX_STEPS", 1)
        assert rl.pslq(values, 1000, 40).status == rl.PRECISION_EXHAUSTED

    def test_relation_beyond_norm_is_precision_exhausted(self):
        # 1000*1 - 1*1000 = 0 is detected, but exceeds the norm bound
        # before the search could exclude every relation within it
        values = [Ball(1), Ball(1000)]
        assert _mpmath_pslq(values, 998, 40) is None
        res = rl.pslq(values, 999, 40)
        assert res.status == rl.PRECISION_EXHAUSTED and res.bound is None

    def test_none_excludes_the_norm_bound(self):
        # 1, pi, pi^2 have no relation: NONE comes with the bound
        res = rl.pslq([Ball(1), _basis_ball(1, "PI", 60),
                       _basis_ball(1, "PI2", 60)], 10 ** 6, 40)
        assert (res.status, res.bound) == (rl.NONE, 10 ** 6)

    def test_tiny_value_is_its_own_relation(self):
        values = [Ball(1), enclose(Fraction(1, 10 ** 50), 400)]
        res = rl.pslq(values, 10, 40)
        assert (res.status, res.coeffs) == (rl.FOUND, (0, 1))


class TestResidual:
    def test_encloses_the_exact_sum(self):
        # the balls are dyadic, so the sum of the Fraction oracle balls is
        # the residual exactly, whatever their exponents
        rng = random.Random(3)
        for _ in range(50):
            values = [Ball(rng.randrange(-10 ** 9, 10 ** 9),
                           rng.randrange(10 ** 6), rng.choice((0, 3, 40, 64)))
                      for _ in range(rng.randrange(1, 5))]
            coeffs = [rng.randrange(-99, 100) for _ in values]
            res = fb(rl._residual(values, coeffs))
            assert res.mid == sum(c * fb(v).mid
                                  for c, v in zip(coeffs, values))
            assert res.rad == sum(abs(c) * fb(v).rad
                                  for c, v in zip(coeffs, values))


def _forbid_sums(monkeypatch):
    """Make every way of summing the moments raise."""
    def unexpected(*args):
        raise AssertionError("summed a series")

    monkeypatch.setattr(se, "Moments", unexpected)
    monkeypatch.setattr(se, "eval_weighted", unexpected)


class TestRediscover:
    def test_too_few_digits_sums_nothing(self, monkeypatch):
        _forbid_sums(monkeypatch)
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        with pytest.raises(ValueError, match="digits must be >= 16"):
            rl.rediscover(spec, [(1, "INV_PI")], digits=12)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_norm": 0}, "max_norm must be >= 1"),
        ({"max_norm": -5}, "max_norm must be >= 1"),
        ({"degree": -1}, "degree must be >= 0"),
        # a weight of degree 4 is beyond every term spec
        ({"degree": 4}, "degree must be <= 3, got 4"),
    ])
    def test_bad_search_bounds_sum_nothing(self, monkeypatch, kwargs,
                                           message):
        _forbid_sums(monkeypatch)
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        with pytest.raises(ValueError, match=message):
            rl.rediscover(spec, [(1, "INV_PI")], digits=30, **kwargs)

    @pytest.mark.parametrize("basis", [
        [(1, "PI"), (1, "PI")], [(2, "INV_PI"), (8, "INV_PI")],
        [(3, "K3"), (5, "K3"), (27, "K3")]])
    def test_dependent_basis_sums_nothing(self, monkeypatch, basis):
        _forbid_sums(monkeypatch)
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        # a dependent basis anywhere in the list fails the first step
        with pytest.raises(ValueError, match="rational multiples"):
            next(rl.rediscover_each(spec, [[(1, "INV_PI")], basis],
                                    digits=30))

    def test_independent_bases_pass(self):
        # the same d under two names, or d d' not a square, is no relation
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-64), k0=0)
        cand = rl.rediscover(spec, [(1, "INV_PI"), (1, "PI"), (2, "PI"),
                                    (6, "PI")], digits=40, max_norm=1000)
        assert cand is not None and cand.confirmed
        assert cand.coeffs == (4, 1, -2, 0, 0, 0)

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

    @staticmethod
    def _spy_passes(monkeypatch, spec):
        """Record the digits of each moment pass over ``spec``'s terms,
        each walk over them as (stream, weight, first k, last k) and each
        read of one of its terms alone as (weight, k), the weight as the
        integer weight the column builder multiplies in (``([1], 1)`` for
        none).  The stream is "num" for the numerator stream of
        ``se._numerators`` (m replaced by 1/b) and "term" for the term."""
        walks, reads, precisions = [], [], []
        columns, moments = se._columns, se.Moments

        def spy_columns(s, weight, lo, hi, bits=None):
            if s.seq == spec.seq:
                if lo == hi:
                    reads.append((weight, lo))
                else:
                    walks.append(("term" if s.m == spec.m else "num",
                                  weight, lo, hi))
            return columns(s, weight, lo, hi, bits)

        def spy_moments(s, degree, digits, *args):
            if s.seq == spec.seq:
                precisions.append(digits)
            return moments(s, degree, digits, *args)

        monkeypatch.setattr(se, "_columns", spy_columns)
        monkeypatch.setattr(se, "Moments", spy_moments)
        return walks, reads, precisions

    @staticmethod
    def _search_N(spec, digits, degree=1):
        """N_D: the last term of the search's moment pass, the largest N
        that one of its moments needs at ``digits``."""
        weights = [tuple(int(i == j) for i in range(degree + 1))
                   for j in range(degree + 1)]
        return max(info["terms"] for _, info in
                   se.eval_weighted(spec, weights, digits)) + spec.k0 - 1

    def test_moments_share_one_pass(self, monkeypatch):
        # the k and 1 moments fold the numerator stream from k0 to K, its
        # first cut block being K + 1, and one walk over the unweighted
        # terms floors K + 1..N_D; the found relation's verification at
        # 1.5 x 80 = 120 digits continues them with one more walk, from
        # N_D + 1 to N_V: no term is read twice
        spec = TermSpec(weight=(1,), den=(), seq=((sk.SBC(1, -6), 1),),
                        m=Fraction(24), k0=0)
        N = self._search_N(spec, 80)
        K = se.Moments(spec, 1, 80, 120, 10 ** 3).K
        assert spec.k0 < K < N
        walks, reads, precisions = self._spy_passes(monkeypatch, spec)
        cand = rl.rediscover(spec, [(2, "INV_PI")], digits=80,
                             max_norm=10 ** 3)
        assert cand.confirmed and cand.coeffs == (14, 6, -15)
        N_V = cand.verification.terms_used - 1
        assert N_V > N
        assert precisions == [80]
        assert walks == [("num", ([1], 1), 0, N), ("term", ([1], 1), K + 1, N),
                         ("term", ([1], 1), N + 1, N_V)]
        # and term(k0) once, alone, for the blind check
        assert reads == [(([1], 1), 0)]

    def test_search_without_relation_sums_once(self, monkeypatch):
        # the fold from k0 stops at the numerator stream's first cut block,
        # K + 1, and one walk floors the terms from there to N_D
        spec = TermSpec(weight=(1,), den=(), seq=((sk.FRANEL, 1),),
                        m=Fraction(-9), k0=0)
        N = self._search_N(spec, 80)
        K = se.Moments(spec, 1, 80, 120, 10 ** 6).K
        assert spec.k0 < K < N
        walks, reads, precisions = self._spy_passes(monkeypatch, spec)
        assert rl.rediscover(spec, [(1, "INV_PI")], digits=80) is None
        assert precisions == [80]
        assert walks == [("num", ([1], 1), 0, N), ("term", ([1], 1), K + 1, N)]
        assert reads == [(([1], 1), 0)]

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_terms_below_the_precision_search_nothing(self, monkeypatch,
                                                      degree):
        # every term past k = 0 is below 10^-80, so each moment ball holds
        # its first term alone: a search would confirm a relation, such as
        # sum k term(k) = 0, that holds only numerically (term(1) = 8/m)
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-2 ** 600), k0=0)

        def unexpected(*args):
            raise AssertionError("searched")

        N = self._search_N(spec, 80, degree)
        walks, reads, precisions = self._spy_passes(monkeypatch, spec)
        monkeypatch.setattr(rl, "pslq", unexpected)
        bases = [[(1, "INV_PI")], [(2, "INV_PI"), (1, "ONE")]]
        assert list(rl.rediscover_each(spec, bases, digits=80,
                                       degree=degree)) == \
            [rl.NOT_SEARCHED, rl.NOT_SEARCHED]
        assert precisions == [80] and walks == [("num", ([1], 1), 0, N)]
        assert reads == [(([1], 1), 0)]
        assert rl.rediscover(spec, bases[0], digits=80,
                             degree=degree) is None

    def test_terms_below_the_search_precision_search_nothing(self):
        # term(1) = 8 / 2^320, about 4e-96, is below the search precision
        # at 60 digits, but above the finer scale the moments are floored
        # at and below the verification's threshold 1e-89: a search would
        # find and confirm sum k term(k) = 0, which holds only numerically
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(-2 ** 320), k0=0)
        moments = se.Moments(spec, 1, 60, 90, 10 ** 6)
        assert Fraction(8, 2 ** 320) > Fraction(1, 1 << moments.s)
        assert list(rl.rediscover_each(spec, [[(1, "INV_PI")]],
                                       digits=60)) == [rl.NOT_SEARCHED]

    def test_each_basis_shares_the_search_moments(self, monkeypatch):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.SBC(1, -6), 1),),
                        m=Fraction(24), k0=0)
        bases = [[(d, "INV_PI")] for d in (1, 3, 2)]
        alone = [rl.rediscover(spec, b, digits=80, max_norm=10 ** 3)
                 for b in bases]
        N = self._search_N(spec, 80)
        K = se.Moments(spec, 1, 80, 120, 10 ** 3).K
        walks, reads, precisions = self._spy_passes(monkeypatch, spec)
        each = list(rl.rediscover_each(spec, bases, digits=80,
                                       max_norm=10 ** 3))
        # a basis without a candidate says why; rediscover says None
        assert each[:2] == [rl.NONE, rl.NONE] and alone[:2] == [None, None]
        assert (each[2].coeffs, each[2].confirmed) == \
            (alone[2].coeffs, alone[2].confirmed) == ((14, 6, -15), True)
        # one search pass for all three bases, the fold to K and the
        # floors from K + 1 to N_D, and the verification of the relation
        # continues it from N_D + 1
        N_V = each[2].verification.terms_used - 1
        assert precisions == [80]
        assert walks == [("num", ([1], 1), 0, N), ("term", ([1], 1), K + 1, N),
                         ("term", ([1], 1), N + 1, N_V)]
        # and term(k0) once, alone, for the blind check
        assert reads == [(([1], 1), 0)]

    @pytest.mark.parametrize("digits", [60, 62, 64])
    def test_matches_two_passes(self, discover_pool, digits):
        for ident, spec, d in discover_pool:
            cand = rl.rediscover(spec, [(d, "INV_PI")], digits=digits,
                                 max_norm=10 ** 6)
            got = None if cand is None else (
                cand.coeffs, cand.confirmed)
            assert got == _old_rediscover(spec, d, digits, 10 ** 6 - 1), \
                ident

    def test_no_relation_returns_none(self):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.FRANEL, 1),),
                        m=Fraction(-400), k0=0)
        # Franel sums alone are not a rational multiple of 1/pi
        cand = rl.rediscover(spec, [(1, "INV_PI")], digits=60,
                             max_norm=50)
        assert cand is None


def _overlap(a, b):
    """Whether the balls a and b share a point."""
    e = max(a.exp, b.exp)
    return abs((a.mid << e - a.exp) - (b.mid << e - b.exp)) <= \
        (a.rad << e - a.exp) + (b.rad << e - b.exp)


def _inside(a, b):
    """Whether the ball a lies inside the ball b."""
    e = max(a.exp, b.exp)
    return abs((a.mid << e - a.exp) - (b.mid << e - b.exp)) + \
        (a.rad << e - a.exp) <= b.rad << e - b.exp


def _registry_search(ident):
    """(spec, [(d, "INV_PI")]) of a registry series q sqrt(d) / pi."""
    series = next(e for e in corpus.load_default() if e.ident == ident).series
    (_, d, name), = series.rhs.addends
    return series.spec, [(d, name)]


#: (spec, basis, degree) searches that find a relation: sum C(2k,k)/8^k =
#: sqrt 2, the abstract's S_k(1,-6)/24^k against sqrt(2)/pi, and Sun's
#: series 1.7 and 1.16, whose weights have degree 2
FOUND_SEARCHES = [
    (TermSpec(weight=(1,), den=(), seq=((sk.CB2, 1),), m=Fraction(8)),
     [(2, "ONE")], 0),
    (TermSpec(weight=(1,), den=(), seq=((sk.SBC(1, -6), 1),),
              m=Fraction(24)), [(2, "INV_PI")], 1),
    (*_registry_search("1.7"), 2),
    (*_registry_search("1.16"), 2),
]


class TestContinuedVerification:
    """A found relation's verification continues the search's pass."""

    def test_top_moment_bounds_every_tail(self):
        # for k >= 1, k^j <= k^degree: every lower moment's crossover is
        # at or before the top moment's, and at the top moment's N its
        # closed-form tail is at most the top one's
        degree, checked = se.MAX_DEGREE, 0
        for e in corpus.load_default():
            if e.kind != "SERIES" or e.series is None:
                continue
            spec = e.series.spec
            env = se._base_envelope(spec)
            if env.theta >= 1:
                continue
            top = replace(spec, weight=(0,) * degree + (1,))
            N = se._DirectSum(top, env, 30).N
            tails = [se._Tail(env, [1] + [0] * j, 1, spec.k0)
                     for j in range(degree + 1)]
            m, ex = tails[-1].closed(N)
            for tail in tails:
                assert tail.K0 <= tails[-1].K0, e.ident
                mj, ej = tail.closed(N)
                assert mj << max(ex - ej, 0) <= m << max(ej - ex, 0), \
                    e.ident
            checked += 1
        assert checked == 230

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_moment_balls_enclose_the_moments(self, discover_pool, degree):
        # each moment ball holds the ball eval_weighted gives its moment
        # 20 digits deeper, its tail past N bounded by the top moment's,
        # and keeps the search's precision
        weights = [tuple(int(i == j) for i in range(degree + 1))
                   for j in range(degree, -1, -1)]
        for ident, spec, _ in discover_pool:
            moments = se.Moments(spec, degree, 40, 60, 10 ** 6)
            fine = se.eval_weighted(spec, weights, 60)
            for ball, (ref, _) in zip(moments.balls, fine):
                assert _inside(ref, ball), ident
                assert ball.rad * 10 ** 41 < 1 << ball.exp, ident

    @pytest.mark.parametrize("spec, basis, degree", FOUND_SEARCHES,
                             ids=["cb2-8", "sbc-24", "1.7", "1.16"])
    def test_matches_a_fresh_sum(self, spec, basis, degree):
        # the continued ball overlaps eval_series' at 1.5x the digits, and
        # the verdict and terms are those of verify_series_identity
        for digits in (40, 61):
            verify = digits + digits // 2
            cand = rl.rediscover(spec, basis, digits=digits, degree=degree)
            assert cand.confirmed
            ident = cand.identity
            moments = se.Moments(spec, degree, digits, verify, 10 ** 6)
            ball, terms = moments.continued(ident.spec.weight)
            assert _overlap(ball, se.eval_series(ident.spec, verify))
            assert ball.rad * 10 ** (verify + 2) < 1 << ball.exp
            report = se.verify_series_identity(ident, verify)
            assert cand.verification.passed == report.passed
            assert cand.verification.terms_used == terms
            # and weights that are no relation, with every coefficient
            # nonzero: still one enclosure, and the same failed verdict
            weight = (3, -2, 5)[:degree + 1]
            other = replace(ident, spec=replace(ident.spec, weight=weight))
            ball, _ = moments.continued(weight)
            assert _overlap(ball, se.eval_series(other.spec, verify))
            assert not moments.verify(other).passed
            assert not se.verify_series_identity(other, verify).passed

    def test_too_coarse_a_scale_raises(self):
        # a weight far above the max norm the scale was sized for leaves
        # the rounding radius of the terms floored one by one, past the
        # first cut block of the numerator stream, no room: an error, not
        # an endless search (at 40 digits the fold of VIII2 reaches N)
        spec, _ = _registry_search("VIII2")
        moments = se.Moments(spec, 1, 64, 96, 10)
        assert moments.floored > 0
        with pytest.raises(ArithmeticError, match="too coarse"):
            moments.continued((10 ** 30, 10 ** 30))

    def test_a_folded_pass_rounds_once(self):
        # with no term floored one by one, the search's part of any weight
        # rounds once: the weight that is too coarse above still fits, and
        # its ball encloses the sum
        spec = TermSpec(weight=(1,), den=(), seq=((sk.SBC(1, -6), 1),),
                        m=Fraction(24), k0=0)
        moments = se.Moments(spec, 1, 40, 60, 10)
        assert moments.floored == 0 and moments.K == moments.N
        weight = (10 ** 30, 10 ** 30)
        ball, _ = moments.continued(weight)
        assert ball.rad * 10 ** 62 < 1 << ball.exp
        assert _overlap(ball, se.eval_series(replace(spec, weight=weight),
                                             60))

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_coefficient_off_by_one_fails(self, monkeypatch, i):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.SBC(1, -6), 1),),
                        m=Fraction(24), k0=0)
        coeffs = [14, 6, -15]
        coeffs[i] += 1
        monkeypatch.setattr(rl, "pslq", lambda *args: rl.PSLQResult(
            rl.FOUND, coeffs=tuple(coeffs)))
        cand = rl.rediscover(spec, [(2, "INV_PI")], digits=60)
        assert cand.coeffs == tuple(coeffs) and not cand.confirmed
        assert not se.verify_series_identity(cand.identity, 90).passed

    def test_euler_path_sums_again(self, monkeypatch):
        # theta = 1: the transform's weights depend on N, so the relation
        # is verified by verify_series_identity, at 1.5 x 40 digits
        spec, basis = _registry_search("1.1")
        assert se._base_envelope(spec).theta == 1
        seen, real = [], se.verify_series_identity

        def spy(ident, digits):
            seen.append(digits)
            return real(ident, digits)

        monkeypatch.setattr(se, "verify_series_identity", spy)
        cand = rl.rediscover(spec, basis, digits=40, degree=2)
        assert cand.confirmed and cand.coeffs == (4, -1, 0, 1)
        assert seen == [60]

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("spec, basis, _", FOUND_SEARCHES[1:],
                             ids=["sbc-24", "1.7", "1.16"])
    def test_scale_bound_at_max_norm_1e18(self, spec, basis, _, degree):
        # a weight of max norm 10^18 needs at most the N of _verify_scale,
        # and its rounding radius stays below 1/32 of 10^-(verify+2)
        max_norm, digits, verify = 10 ** 18, 40, 60
        moments = se.Moments(spec, degree, digits, verify, max_norm)
        N, s = se._verify_scale(moments.N, spec.k0, moments.env.theta,
                                digits, verify, (degree + 1) * max_norm)
        assert s == moments.s
        for signs in ((1, 1, 1), (1, -1, 1), (-1, -1, 1)):
            weight = tuple(max_norm * c for c in signs[:degree + 1])
            ball, terms = moments.continued(weight)
            N_V = terms + spec.k0 - 1
            assert moments.N <= N_V <= N
            # one unit for the fold, if any (a den-free spec), and
            # sum |c_j| per term floored alone
            head = moments._rounded(weight)
            assert head == (moments.P is not None) + \
                (degree + 1) * max_norm * moments.floored
            assert 32 * (head + N_V - moments.N) * 10 ** (verify + 2) \
                <= 1 << s
            # N_V is the smallest N whose tail fits what both rounding
            # radii leave of 10^-(verify+2)
            tail = se._Tail(moments.env, weight[::-1], 1, spec.k0)

            def fits(n):
                return se._fits_at(*tail.closed(n), head + n - moments.N, s,
                                   10 ** (verify + 2))

            assert fits(N_V)
            assert N_V == max(moments.N, tail.K0) or not fits(N_V - 1)
            assert ball.rad * 10 ** (verify + 2) < 1 << ball.exp
            fresh = se.eval_series(replace(spec, weight=weight), verify)
            assert _overlap(ball, fresh)


def _exact_moment(spec, j, lo, hi):
    """sum_{k=lo..hi} k^j term(k) of spec's unweighted term, exactly."""
    pairs = se._term_pairs(replace(spec, weight=(1,)), lo, hi)
    return sum((Fraction(k ** j * num, den)
                for k, (num, den) in enumerate(pairs, lo)), Fraction(0))


def _floors(spec, j, lo, hi, s):
    """The sum of floor(k^j term(k) 2^s) over k = lo..hi."""
    pairs = se._term_pairs(replace(spec, weight=(1,)), lo, hi)
    return sum((k ** j * num << s) // den
               for k, (num, den) in enumerate(pairs, lo))


#: den-free searches whose walk cuts no block at 30 digits: an integral
#: m, a negative m, m = a/b with |b| > 1 (negative too) and k0 = 2
FOLDED_SPECS = [
    TermSpec(weight=(1,), den=(), seq=((sk.SBC(1, -6), 1),), m=Fraction(24)),
    TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),), m=Fraction(-512)),
    TermSpec(weight=(1,), den=(), seq=((sk.CB2, 1),), m=Fraction(9, 2)),
    TermSpec(weight=(1,), den=(), seq=((sk.CB2, 1),), m=Fraction(-9, 2)),
    TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),), m=Fraction(-512),
             k0=2),
]


class TestMomentFold:
    """The den-free moments fold their uncut blocks into one integer."""

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("spec", FOLDED_SPECS,
                             ids=["m=24", "m=-512", "m=9/2", "m=-9/2", "k0=2"])
    def test_fold_is_the_exact_moment(self, spec, degree):
        # P_j / a^K is sum k^j term(k) over k0..K, over a^K and not
        # a^(K-k0), and each midpoint is that sum floored once at 2^-s
        moments = se.Moments(spec, degree, 30, 45, 10 ** 6)
        a = abs(spec.m.numerator)
        assert moments.floored == 0 and moments.K == moments.N
        for j, P, ball in zip(range(degree, -1, -1), moments.P,
                              moments.balls):
            exact = _exact_moment(spec, j, spec.k0, moments.K)
            assert Fraction(P, a ** moments.K) == exact
            assert (ball.mid >> ball.exp - moments.s) == \
                math.floor(exact * 2 ** moments.s)

    def test_cut_blocks_floor_per_term(self):
        # VIII2 at 64 digits: the walk folds up to K and floors each term
        # of the cut blocks past it, moment by moment
        spec, _ = _registry_search("VIII2")
        moments = se.Moments(spec, 1, 64, 96, 10 ** 6)
        s, K, N = moments.s, moments.K, moments.N
        assert spec.k0 < K < N and moments.floored == N - K
        for j, P, d in zip((1, 0), moments.P, moments.sums):
            assert Fraction(P, 3240 ** K) == _exact_moment(spec, j, 0, K)
            assert d.total == _floors(spec, j, K + 1, N, s)

    def test_a_den_row_floors_per_term(self):
        # 1.14 has denominator factors: no fold, one floor per term
        spec, _ = _registry_search("1.14")
        assert spec.den
        moments = se.Moments(spec, 1, 60, 90, 10 ** 6)
        assert moments.P is None
        assert moments.floored == moments.N - spec.k0 + 1
        for j, d in zip((1, 0), moments.sums):
            assert d.total == _floors(spec, j, spec.k0, moments.N, moments.s)

    def test_search_across_the_cut(self):
        # VIII2 at 64 digits: the longest walk of the pool, 0..778, its
        # numerator stream cut from k = 480 on; the relation and its
        # verdict are those of the two-pass search, and the continued ball
        # overlaps a fresh sum
        spec, basis = _registry_search("VIII2")
        cand = rl.rediscover(spec, basis, digits=64)
        (d, _), = basis
        assert (cand.coeffs, cand.confirmed) == \
            _old_rediscover(spec, d, 64, 10 ** 6 - 1) == \
            ((1435, 113, -1452), True)
        assert cand.verification.terms_used == 779
        moments = se.Moments(spec, 1, 64, 96, 10 ** 6)
        assert moments.floored > 0
        ball, terms = moments.continued(cand.identity.spec.weight)
        assert terms == 779
        assert _overlap(ball, se.eval_series(cand.identity.spec, 96))

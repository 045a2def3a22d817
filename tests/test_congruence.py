from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import comb
from typing import Dict

import pytest

from piseries import congruence as cg
from piseries import corpus
from piseries import seqkit as sk
from piseries import sereval as se
from piseries.sereval import TermSpec


def spec(weight, seq, m, den=(), k0=0):
    return TermSpec(weight=tuple(weight), den=tuple(den), seq=tuple(seq),
                    m=Fraction(m), k0=k0)


BAUER = spec((1, 4), ((sk.CB2, 3),), -64)

# aux-5: rational weight (15k-4)/(-27), rational m and denominator factors
# k^3 C(2k,k)^2 C(3k,k)
AUX5 = spec((Fraction(4, 27), Fraction(-5, 9)), (), Fraction(-1, 27),
            den=(("k", 3), ("CB2", 2), ("CB3", 1)), k0=1)


class TestElementary:
    def test_primes_upto(self):
        assert cg.primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_legendre(self):
        assert cg.legendre(2, 7) == 1
        assert cg.legendre(3, 7) == -1
        assert cg.legendre(14, 7) == 0
        with pytest.raises(ValueError):
            cg.legendre(1, 15)

    def test_jacobi_matches_legendre_on_primes(self):
        for p in cg.primes_upto(60):
            if p < 3:
                continue
            for a in range(1, 20):
                assert cg.jacobi(a, p) == cg.legendre(a, p)

    def test_reciprocity_shortcut(self):
        # (p|3) = (-3|p) for every prime p > 3
        for p in cg.primes_upto(200):
            if p <= 3:
                continue
            assert cg.jacobi(p, 3) == cg.legendre(-3, p)

    def test_fraction_mod(self):
        assert cg.fraction_mod(Fraction(1, 2), 5, 2) == 13
        assert cg.fraction_mod(Fraction(1, 5), 5, 2) is None

    def test_euler_numbers(self):
        assert cg.euler_number(0) == 1
        assert cg.euler_number(2) == -1
        assert cg.euler_number(6) == -61


class TestTruncatedSum:
    def test_exact_small(self):
        # k<2 of Bauer: 1 + 5*8/(-64) = 3/8
        assert cg.truncated_sum_exact(BAUER, 1) == Fraction(3, 8)

    def test_fast_equals_exact(self):
        for p in cg.primes_upto(100):
            if p < 5:
                continue
            for s in (1, 2, 3):
                fast = cg._truncated_sum_mod_fast(BAUER, p - 1, p, s)
                exact = cg.fraction_mod(cg.truncated_sum_exact(BAUER, p - 1),
                                        p, s)
                assert fast == exact, (p, s)

    def test_exact_equals_sum_of_terms(self):
        total = cg.truncated_sum_exact(AUX5, 80)
        assert total == sum(se.term_value(AUX5, k) for k in range(1, 81))

    def test_nonintegral_detected(self):
        # sum_{k<=1} C(2k,k)/5^k has a 5 in the denominator
        s = spec((1,), ((sk.CB2, 1),), 5)
        assert cg.truncated_sum_mod(s, 1, 5, 1) == cg.NONINTEGRAL


class TestProvenCongruences:
    def test_bauer_mod_p3(self):
        # sum_{k<p} (4k+1) C(2k,k)^3/(-64)^k = p(-1|p)  (mod p^3)
        claim = cg.CongruenceClaim(
            "bauer-p", BAUER, 3,
            (cg.RHSTerm(Fraction(1), 1, sym=(-1,)),), proven=True)
        rep = cg.verify_claim(claim, 60)
        assert rep.ok and len(rep.tested) >= 10

    def test_wang_mod_p4(self):
        # sum_{k<p} (3k-1) C(2k,k)^3/((2k-1)^2 16^k) = p - 2p^3  (mod p^4)
        s = spec((-1, 3), ((sk.CB2, 3),), 16, den=(("2k-1", 2),))
        claim = cg.CongruenceClaim(
            "wang-p4", s, 4,
            (cg.RHSTerm(Fraction(1), 1), cg.RHSTerm(Fraction(-2), 3)),
            proven=True)
        rep = cg.verify_claim(claim, 40)
        assert rep.ok and len(rep.tested) >= 8

    def test_guo_liu_half_range_mod_p4(self):
        # sum_{k<=(p+1)/2} (4k-1) C(2k,k)^3/((2k-1)^3 (-64)^k)
        #   = p(-1|p) + p^3 (E_{p-3} - 2)  (mod p^4)
        s = spec((-1, 4), ((sk.CB2, 3),), -64, den=(("2k-1", 3),))
        claim = cg.CongruenceClaim(
            "guo-liu", s, 4,
            (cg.RHSTerm(Fraction(1), 1, sym=(-1,)),
             cg.RHSTerm(Fraction(1), 3, euler=True),
             cg.RHSTerm(Fraction(-2), 3)),
            upper="(p+1)/2", proven=True)
        rep = cg.verify_claim(claim, 40)
        assert rep.ok and len(rep.tested) >= 8

    def test_mortenson_mod_p2(self):
        # sum_{k<p} C(2k,k) C(3k,k)/27^k = (p|3)  (mod p^2)
        s = spec((1,), ((sk.CB2, 1), (sk.CB3, 1)), 27)
        claim = cg.CongruenceClaim(
            "mortenson", s, 2,
            (cg.RHSTerm(Fraction(1), 0, sym_p=(3,)),), proven=True)
        rep = cg.verify_claim(claim, 80)
        assert rep.ok and len(rep.tested) >= 15

    def test_wrong_rhs_fails(self):
        claim = cg.CongruenceClaim(
            "bauer-wrong", BAUER, 3,
            (cg.RHSTerm(Fraction(1), 1, sym=(2,)),))
        rep = cg.verify_claim(claim, 40)
        assert not rep.ok and rep.failures


class TestSupportedCongruences:
    def test_domb_mod_p3(self):
        # sum_{k<p} (5k+1) D_k/64^k = p(p|3)  (mod p^3), where (p|3) = (-3|p)
        s = spec((1, 5), ((sk.DOMB, 1),), 64)
        claim = cg.CongruenceClaim(
            "domb-p", s, 3, (cg.RHSTerm(Fraction(1), 1, sym=(-3,)),),
            pn_delta=(-3,))
        rep = cg.verify_claim(claim, 60)
        assert rep.ok and len(rep.tested) >= 10

    def test_domb_pn_refinement(self):
        s = spec((1, 5), ((sk.DOMB, 1),), 64)
        claim = cg.CongruenceClaim(
            "domb-p", s, 3, (cg.RHSTerm(Fraction(1), 1, sym=(-3,)),),
            pn_delta=(-3,))
        rep = cg.check_pn_refinement(claim, p_max=13, n_max=4)
        assert rep.ok
        assert rep.min_margin is not None and rep.min_margin >= 0

    def test_refinement_requires_delta(self):
        claim = cg.CongruenceClaim("x", BAUER, 3,
                                   (cg.RHSTerm(Fraction(1), 1),))
        with pytest.raises(ValueError):
            cg.check_pn_refinement(claim)


class TestIntegrality:
    def test_domb_normalized_sums(self):
        # (1/n) sum_{k<n} (5k+1) 64^(n-1-k) D_k is a positive integer
        claim = cg.IntegralityClaim("domb-n", (1, 5), ((sk.DOMB, 1),), 64,
                                    odd_set=None)
        rep = cg.check_integrality(claim, 48)
        assert rep.ok

    def test_parity_pattern(self):
        # (1/(3n)) sum_{k<n} (176k+15) 12600^(n-1-k) g_k T_k(502,1) is a
        # positive integer, odd exactly when n is a power of two
        claim = cg.IntegralityClaim(
            "g-parity", (15, 176), ((sk.GSEQ, 1), (sk.GCT(502, 1), 1)),
            12600, div=3)
        rep = cg.check_integrality(claim, 24)
        assert rep.ok

    def test_parity_violation_detected(self):
        claim = cg.IntegralityClaim("bad", (1,), ((sk.CB2, 1),), 3)
        rep = cg.check_integrality(claim, 12)
        assert not rep.ok


class TestDuality:
    def test_term_level_franel(self):
        rep = cg.check_duality_term(sk.FRANEL, None, -8, p_max=50)
        assert rep.ok

    def test_term_level_gct(self):
        rep = cg.check_duality_term(sk.GCT(3, -5), 29, 29, p_max=50)
        assert rep.ok

    def test_term_level_wrong_d_fails(self):
        rep = cg.check_duality_term(sk.FRANEL, None, 8, p_max=30)
        assert not rep.ok

    def test_sum_level_trivial_pair(self):
        # D = m^2 makes both sides literally equal
        claim = cg.DualityClaim("triv", ((sk.FRANEL, 1),), -8, 1, 64)
        assert not claim.lint()
        rep = cg.check_duality_sum(claim, p_max=60)
        assert rep.ok

    def test_lint_divisibility(self):
        claim = cg.DualityClaim("bad", ((sk.FRANEL, 1),), 3, 1, -8)
        assert claim.lint()


class TestWangSunLint:
    def test_consistent(self):
        rhs = (cg.RHSTerm(Fraction(5, 2), 1, sym=(-2,)),
               cg.RHSTerm(Fraction(1, 2), 1, sym=(6,)))
        assert cg.wang_sun_lint(Fraction(3), rhs) == []

    def test_mismatch(self):
        rhs = (cg.RHSTerm(Fraction(2), 1, sym=(-1,)),)
        assert cg.wang_sun_lint(Fraction(3), rhs)


# --------------------------------------------------------------------------
# (pn)^2 refinement against the per-prime, per-n exact recomputation
# --------------------------------------------------------------------------

def _refinement_oracle(claim, p_max, n_max):
    """check_pn_refinement as it was before the prefix sums were shared:
    S(c) recomputed from k0 by truncated_sum_exact for every prime."""
    report = cg.RefinementReport(claim.ident, [], None, [])
    for p in cg.primes_upto(p_max):
        if not claim.admissible(p):
            continue
        delta = 1
        for d in claim.pn_delta:
            delta *= cg.legendre(d, p)
        if delta == 0:
            continue
        partials: Dict[int, Fraction] = {}

        def s_upto(count: int) -> Fraction:
            if count not in partials:
                partials[count] = cg.truncated_sum_exact(claim.spec, count - 1)
            return partials[count]

        for n in range(1, n_max + 1):
            diff = s_upto(p * n) - p * delta * s_upto(n)
            vpn = 0
            nn = n
            while nn % p == 0:
                nn //= p
                vpn += 1
            need = 2 + 2 * vpn
            v = cg.padic_valuation(diff, p)
            report.checked.append((p, n))
            if v is None:
                continue
            margin = v - need
            if report.min_margin is None or margin < report.min_margin:
                report.min_margin = margin
            if margin < 0:
                report.failures.append((p, n, margin))
    return report


def _same_report(claim, p_max, n_max):
    got = cg.check_pn_refinement(claim, p_max=p_max, n_max=n_max)
    want = _refinement_oracle(claim, p_max, n_max)
    assert (got.ident, got.checked, got.min_margin, got.failures) == \
        (want.ident, want.checked, want.min_margin, want.failures)
    return got


REFINEMENTS = [e.claim for e in corpus.load_default()
               if e.check == "refinement"]


class TestRefinementOracle:
    def test_registry_has_46_refinements(self):
        assert len(REFINEMENTS) == 46

    @pytest.mark.parametrize("claim", REFINEMENTS, ids=lambda c: c.ident)
    def test_registry_entry(self, claim):
        assert _same_report(claim, 50, 3).ok

    def test_flipped_delta_fails(self):
        # (-1|p) flips delta at every p = 3 (mod 4)
        claim = next(c for c in REFINEMENTS if c.ident == "VI1-pn")
        flipped = dataclasses.replace(claim,
                                      pn_delta=claim.pn_delta + (-1,))
        rep = _same_report(flipped, 50, 3)
        assert rep.failures
        assert {p % 4 for p, _, _ in rep.failures} == {3}

    def test_rational_m_and_denominators(self):
        claim = cg.CongruenceClaim("aux-5", AUX5, 2,
                                   (cg.RHSTerm(Fraction(1), 1),),
                                   pn_delta=())
        rep = _same_report(claim, 30, 4)
        assert rep.checked and rep.failures

    def test_zero_difference_is_skipped(self):
        # every term is 0, so every difference is 0 and has no valuation
        claim = cg.CongruenceClaim("zero", spec((0,), ((sk.CB2, 1),), 4), 2,
                                   (cg.RHSTerm(Fraction(1), 1),),
                                   pn_delta=())
        rep = _same_report(claim, 30, 3)
        assert rep.checked and rep.min_margin is None and not rep.failures

    @pytest.mark.parametrize("s", [BAUER, AUX5,
                                   spec((1, 5), ((sk.DOMB, 1),), 64, k0=2)],
                             ids=["integral-m", "aux-5", "k0=2"])
    def test_prefix_sums(self, s):
        counts = [0, 1, 2, 3, 5, 8, 13, 40, 41, 97]
        sums = list(cg._prefix_sums(s, reversed(counts)))
        assert [c for c, _, _ in sums] == counts
        for c, P, Q in sums:
            assert Q > 0
            assert Fraction(P, Q) == cg.truncated_sum_exact(s, c - 1), c

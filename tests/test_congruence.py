from __future__ import annotations

import dataclasses
import re
import sys
import threading
from fractions import Fraction
from math import comb
from typing import Dict

import pytest

from piseries import congruence as cg
from piseries import corpus
from piseries import exactid as ei
from piseries import quadform as qf
from piseries import seqkit as sk
from piseries import sereval as se
from piseries.sereval import TermSpec

from oracle_exact import prefix_sums
from oracle_symbols import (claim_admissible, fraction_mod, jacobi,
                            legendre, primes_upto, rhs_value)


def spec(weight, seq, m, den=(), k0=0):
    return TermSpec(weight=tuple(weight), den=tuple(den), seq=tuple(seq),
                    m=Fraction(m), k0=k0)


BAUER = spec((1, 4), ((sk.CB2, 3),), -64)

# aux-5: rational weight (15k-4)/(-27), rational m and denominator factors
# k^3 C(2k,k)^2 C(3k,k)
AUX5 = spec((Fraction(4, 27), Fraction(-5, 9)), (), Fraction(-1, 27),
            den=(("k", 3), ("CB2", 2), ("CB3", 1)), k0=1)


# --------------------------------------------------------------------------
# oracles: the summation loops that congruence._prefix_sums replaced
# --------------------------------------------------------------------------

def _sum_oracle(s, upper):
    """Exact sum over k0 <= k <= upper by Fraction +=, one term at a time."""
    total = Fraction(0)
    for k in range(s.k0, upper + 1):
        total += se.term_value(s, k)
    return total


def _exact_residue_oracle(s, upper, p, e, shift=0):
    res = fraction_mod(_sum_oracle(s, upper) * p ** shift, p, e)
    return cg.NONINTEGRAL if res is None else res


def _mod_oracle(s, upper, p, e):
    """The modular loop: every term reduced mod p^e as it is added.  Valid
    with no denominator factors, p prime to m, an integer weight and integer
    rows; otherwise the exact residue is returned."""
    if s.den or s.m.numerator % p == 0 or s.m.denominator % p == 0 \
            or any(Fraction(c).denominator != 1 for c in s.weight) \
            or any(kind.tag == "GPOLY" for kind, _ in s.seq):
        return _exact_residue_oracle(s, upper, p, e)
    ps = p ** e
    tables = [(sk.rows(kind, upper), x) for kind, x in s.seq]
    minv = s.m.denominator * pow(s.m.numerator, -1, ps) % ps
    total = 0
    mk = pow(minv, s.k0, ps)
    for k in range(s.k0, upper + 1):
        t = sum(c * k ** i for i, c in enumerate(s.weight)) % ps
        for tab, x in tables:
            assert Fraction(tab[k]).denominator == 1, "integer rows only"
            t = t * pow(int(tab[k]) % ps, x, ps) % ps
        total = (total + t * mk) % ps
        mk = mk * minv % ps
    return total


def _claim_row_oracle(claim, p):
    """(lhs, rhs) of a claim at p, the truncated sum summed for p alone."""
    upper = cg.UPPERS[claim.upper](p)
    if claim.lhs_ppow:
        lhs = _exact_residue_oracle(claim.spec, upper, p, claim.s,
                                    claim.lhs_ppow)
    else:
        lhs = _mod_oracle(claim.spec, upper, p, claim.s)
    return lhs, _rhs_oracle(claim.rhs, p, claim.s)


def _rhs_oracle(terms, p, s):
    """The right-hand side as the Fraction sum of its terms' values."""
    return fraction_mod(sum((rhs_value(t, p) for t in terms), Fraction(0)),
                           p, s)


def _integrality_value_oracle(claim, n):
    """The claim's value at n, by its defining sum."""
    tables = [(sk.rows(kind, n - 1), e) for kind, e in claim.seq]
    total = 0
    for k in range(n):
        t = sum(c * k ** i for i, c in enumerate(claim.weight))
        for tab, e in tables:
            t *= tab[k] ** e
        if claim.alt and k % 2 == 1:
            t = -t
        total += t * claim.base ** (n - 1 - k)
    e = cg.DIV_EXPS[claim.div_exp](n)
    return Fraction(total * claim.mul, claim.div * n * claim.div_base ** e)


def _integrality_oracle(claim, n_max):
    failures = []
    for n in range(max(1, claim.n_min), n_max + 1):
        v = _integrality_value_oracle(claim, n)
        if v.denominator != 1:
            failures.append((n, "not an integer"))
            continue
        if claim.positive and v <= 0:
            failures.append((n, "not positive"))
        if claim.odd_set is not None \
                and (v % 2 == 1) != cg.ODD_SETS[claim.odd_set](n):
            failures.append((n, "parity mismatch"))
    return failures


def _residues_oracle(s, uppers, e, shift=0):
    assert shift == 0
    return {p: _mod_oracle(s, upper, p, e) for p, upper in uppers.items()}


def _valuation(x: Fraction, p: int):
    """v_p(x) of a rational x, None for x = 0."""
    if x == 0:
        return None
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def _prime_factors(n: int):
    """The prime factors of n > 0, with multiplicity, by trial division."""
    out, q = [], 2
    while q * q <= n:
        while n % q == 0:
            out.append(q)
            n //= q
        q += 1
    return out + [n] if n > 1 else out


class TestSieve:
    def test_matches_trial_division(self):
        for b in (2, 3, 4, 5, 10, 1000, 10 ** 5):
            assert cg.Characters(b).primes == primes_upto(b)[1:], b

    def test_legendre_is_euler_criterion(self):
        for p in primes_upto(400)[1:]:
            for a in list(range(-2 * p, 2 * p)) + [10 ** 30 + p, -7 ** 40]:
                r = pow(a, (p - 1) // 2, p)
                assert legendre(a, p) == (-1 if r == p - 1 else r), (a, p)

    def test_jacobi_is_product_of_legendre(self):
        for n in range(1, 2000, 2):
            factors = _prime_factors(n)
            for a in list(range(-12, 13)) + [n - 1, n + 1, 2 * n + 3,
                                             10 ** 20 + 7, -10 ** 20]:
                want = 1
                for q in factors:
                    want *= legendre(a, q)
                assert jacobi(a, n) == want, (a, n)

    @pytest.mark.parametrize("p", [-3, 1, 2, 9, 91, 0, -7])
    def test_legendre_needs_an_odd_prime(self, p):
        for a in (0, 1, 5, 5):   # twice: an error is not memoised
            with pytest.raises(ValueError):
                legendre(a, p)

    @pytest.mark.parametrize("n", [0, -3, 2, 10])
    def test_jacobi_needs_a_positive_odd_n(self, n):
        with pytest.raises(ValueError):
            jacobi(1, n)


# --------------------------------------------------------------------------
# the character table against the symbols computed one at a time
# --------------------------------------------------------------------------

def _registry_symbols():
    """(the d of every (d|p) the registry reads, the n of every ``Lp(n)``
    its files write)."""
    ds = set()
    for e in corpus.load_default():
        if e.claim is not None:
            for t in e.claim.rhs:
                ds.update(t.sym)
            ds.update(d for d, _ in e.claim.require)
            ds.update(e.claim.pn_delta or ())
        if e.quadform is not None:
            table = e.quadform.table
            ds.update(table.sym_factor)
            for c in table.cases:
                ds.update(d for d, _ in c.guard.syms)
        if e.duality is not None:
            ds.add(e.duality.d)
        if e.dual_term is not None and e.dual_term[1] is not None:
            ds.add(e.dual_term[1])
    ns = {int(n) for path in corpus.default_paths()
          for n in re.findall(r"\bLp\((-?\d+)\)", path.read_text())}
    return sorted(ds), sorted(ns)


REGISTRY_DS, REGISTRY_NS = _registry_symbols()


def _primes_in(chars, mask):
    """The indexed primes whose bits are set in ``mask``, in order."""
    return [p for i, p in enumerate(chars.primes) if mask >> i & 1]


def _value(chars, char, p):
    """The value at the indexed prime p of a character's bitsets."""
    i = chars.bit[p]
    return 0 if char[1] >> i & 1 else -1 if char[0] >> i & 1 else 1


def _check_char(chars, char, want, p_max):
    neg, zero = char
    assert neg & zero == 0 and (neg | zero) <= chars.full
    for p in chars.primes:
        if p > p_max:
            break
        assert _value(chars, char, p) == want(p), p


class TestCharacters:
    def test_registry_symbols(self):
        assert len(REGISTRY_DS) > 50 and -756000 in REGISTRY_DS
        assert {3, 5, 7, 59} <= set(REGISTRY_NS)

    def test_legendre_masks(self):
        chars = cg.characters(3000)
        assert chars.primes[0] == 3 and chars.bound >= 3000
        for d in sorted(set(REGISTRY_DS) | set(range(-300, 301)) - {0}):
            _check_char(chars, chars.legendre(d),
                        lambda p: legendre(d, p), 3000)

    def test_registry_symbols_at_every_prime(self):
        # the masks and symbol against both oracles: Euler's criterion
        # and the Jacobi symbol by reciprocity
        chars = cg.characters(3000)
        primes = primes_upto(3000)[1:]
        for d in REGISTRY_DS:
            char = chars.legendre(d)
            for p in primes:
                want = legendre(d, p)
                assert jacobi(d, p) == want, (d, p)
                assert _value(chars, char, p) == want, (d, p)
                assert cg.symbol((d,), p) == want, (d, p)

    def test_jacobi_masks(self):
        # (n*|p) = (p|n) for n* = (-1)^((n-1)/2) n: the masks of n* against
        # the Jacobi symbol by reciprocity
        chars = cg.characters(3000)
        for n in sorted(set(REGISTRY_NS) | set(range(1, 301, 2))):
            star = -n if n % 4 == 3 else n
            _check_char(chars, chars.legendre(star),
                        lambda p: jacobi(p, n), 3000)

    def test_lp_is_the_jacobi_symbol(self):
        # the registry reads Lp(n) as (n*|p), n* = (-1)^((n-1)/2) n, which
        # is (p|n) at every odd prime p
        chars = cg.characters(3000)
        for n in REGISTRY_NS:
            d = corpus._symbol(f"Lp({n})", 1)
            _check_char(chars, chars.legendre(d),
                        lambda p: jacobi(p, n), 3000)
            for p in primes_upto(3000)[1:]:
                assert legendre(d, p) == jacobi(p, n), (n, p)
                assert cg.symbol((d,), p) == jacobi(p, n), (n, p)

    @pytest.mark.parametrize("bound", [2, 3, 5, 10, 50])
    def test_factors_above_the_index(self, bound):
        # a small table: prime factors of d above every indexed prime,
        # as a lone prime, squared and times indexed primes
        chars = cg.Characters(bound)
        for d in (0, 1, -1, 2, -2, 53, 2809, -3 * 53, 45 * 59 * 61,
                  10 ** 12 + 39, -(2 ** 5) * (10 ** 12 + 39), 3001 * 3011):
            _check_char(chars, chars.legendre(d),
                        lambda p: legendre(d, p), bound)

    def test_products_and_values(self):
        sym = (-1, 5, 0x3F, -15, -7)
        want = lambda p: legendre(-1, p) * legendre(5, p) \
            * legendre(0x3F, p) * jacobi(p, 15) * jacobi(p, 7)
        chars = cg.characters(1000)
        for p in primes_upto(1000)[1:]:
            assert cg.symbol(sym, p) == want(p), p
        char = chars.legendre(-15)
        for v in (-1, 0, 1, 2):
            assert _primes_in(chars, chars.holds(char, v)) == \
                [p for p in chars.primes if legendre(-15, p) == v]

    def test_empty_symbol_is_one(self):
        for p in primes_upto(3000):
            assert cg.symbol((), p) == 1, p

    def test_symbol_at_two(self):
        for sym in ((-1,), (1,), (5, -3), (0,)):
            with pytest.raises(ValueError, match="p = 2 has no quadratic"):
                cg.symbol(sym, 2)

    def test_residues_and_ranges(self):
        chars = cg.characters(500)
        assert _primes_in(chars, chars.residues(12, (1, 11))) == \
            [p for p in chars.primes if p % 12 in (1, 11)]

    def test_growth(self, monkeypatch):
        monkeypatch.setattr(cg, "_CHARS", cg.Characters(2))
        first = cg.characters(50)
        assert first.bound == 50 and cg.characters(40) is first
        assert cg.characters(51).bound == 100
        assert cg.characters(1000).bound == 1000
        assert cg.characters(7).primes[-1] == 997

    def test_concurrent_growth(self, monkeypatch):
        monkeypatch.setattr(cg, "_CHARS", cg.Characters(2))
        got, errors = [], []

        def work(bounds):
            try:
                for b in bounds:
                    chars = cg.characters(b)
                    got.append((b, chars))
                    assert _value(chars, chars.legendre(-7), 3) == -1
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=([50 * t, 900, 77],))
                   for t in range(1, 6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(got) == 15
        assert all(b <= chars.bound for b, chars in got)
        assert cg.characters(900).bound >= 900


class TestRhsResidue:
    @pytest.mark.parametrize("claim", [e.claim for e in corpus.load_default()
                                       if e.claim is not None and e.claim.rhs],
                             ids=lambda c: c.ident)
    def test_registry_claims(self, claim):
        primes = [p for p in primes_upto(300)
                  if claim_admissible(claim, p)]
        assert primes
        for p in primes:
            assert cg.rhs_residue(claim.rhs, p, claim.s) == \
                _rhs_oracle(claim.rhs, p, claim.s), p

    def test_terms_at_their_primes(self):
        # every factor a term may carry, at each prime tested_primes admits
        F = Fraction
        cases = [
            (cg.RHSTerm(F(1, 9), ppow=1),),
            (cg.RHSTerm(F(2, 27), ppow=1), cg.RHSTerm(F(-2, 27), ppow=1),
             cg.RHSTerm(F(5, 7))),
            (cg.RHSTerm(F(4, 45), ppow=1, sym=(-1,), euler=True),
             cg.RHSTerm(F(7, 25), ppow=2, sym=(-7,), fermat=2),
             cg.RHSTerm(F(-3, 5), ppow=0)),
            (cg.RHSTerm(F(10, 3), ppow=0, fermat=3),),
            (cg.RHSTerm(F(-1, 2), ppow=3, sym=(5, -3), fermat=6),),
        ]
        for terms in cases:
            claim = cg.CongruenceClaim("t", BAUER, 1, terms, min_p=3)
            primes = cg.tested_primes(40, 3, (), claim.coprime)
            assert primes and primes[0] >= 5
            for p in primes:
                for s in (1, 2, 3):
                    got = cg.rhs_residue(terms, p, s)
                    assert got == _rhs_oracle(terms, p, s), (terms, p, s)
                    assert type(got) is int


class TestElementary:
    def test_primes_upto(self):
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_legendre(self):
        assert legendre(2, 7) == 1
        assert legendre(3, 7) == -1
        assert legendre(14, 7) == 0
        with pytest.raises(ValueError):
            legendre(1, 15)

    def test_jacobi_matches_legendre_on_primes(self):
        for p in primes_upto(60):
            if p < 3:
                continue
            for a in range(1, 20):
                assert jacobi(a, p) == legendre(a, p)
                assert cg.symbol((a,), p) == legendre(a, p)

    def test_reciprocity_shortcut(self):
        # (p|3) = (-3|p) for every prime p > 3
        for p in primes_upto(200):
            if p <= 3:
                continue
            assert jacobi(p, 3) == legendre(-3, p)

    def test_fraction_mod(self):
        assert fraction_mod(Fraction(1, 2), 5, 2) == 13
        assert fraction_mod(Fraction(1, 5), 5, 2) is None

    def test_euler_numbers(self):
        assert cg.euler_number(0) == 1
        assert cg.euler_number(2) == -1
        assert cg.euler_number(6) == -61


class TestTruncatedSum:
    def test_exact_small(self):
        # k<2 of Bauer: 1 + 5*8/(-64) = 3/8
        assert cg.truncated_sum_exact(BAUER, 1) == Fraction(3, 8)

    def test_fast_equals_exact(self):
        for p in primes_upto(100):
            if p < 5:
                continue
            for s in (1, 2, 3):
                got = cg.truncated_sum_mod(BAUER, p - 1, p, s)
                assert got == _mod_oracle(BAUER, p - 1, p, s), (p, s)
                assert got == _exact_residue_oracle(BAUER, p - 1, p, s)

    def test_exact_equals_sum_of_terms(self):
        total = cg.truncated_sum_exact(AUX5, 80)
        assert total == sum(se.term_value(AUX5, k) for k in range(1, 81))

    def test_nonintegral_detected(self):
        # sum_{k<=1} C(2k,k)/5^k has a 5 in the denominator
        s = spec((1,), ((sk.CB2, 1),), 5)
        assert cg.truncated_sum_mod(s, 1, 5, 1) == cg.NONINTEGRAL

    def test_residue_of_unreduced_pair(self):
        # 15/10 = 3/2: the 5 in Q cancels against P, so there is a residue
        assert cg._residue(15, 10, 5, 2) == fraction_mod(Fraction(3, 2),
                                                            5, 2) == 14
        assert cg._residue(-50, 125, 5, 2) == cg.NONINTEGRAL
        assert cg._residue(-50, 25, 5, 2) == 23
        assert cg._residue(0, 7 ** 3, 7, 2) == 0
        assert cg._residue(7 ** 5, 1, 7, 3) == 0

    def test_shift_makes_sum_integral(self):
        assert cg._residue(3, 25, 5, 2) == cg.NONINTEGRAL
        assert cg._residue(3, 25, 5, 2, shift=1) == cg.NONINTEGRAL
        assert cg._residue(3, 50, 5, 2, shift=2) == fraction_mod(
            Fraction(3, 2), 5, 2)
        assert cg._residue(3, 25, 5, 2, shift=3) == 15
        # sum_{k<=1} C(2k,k)/5^k = 7/5 is not 5-integral, 5 * 7/5 is
        s = spec((1,), ((sk.CB2, 1),), 5)
        assert cg.truncated_residues(s, {5: 1}, 2, shift=1) == {5: 7}

    @pytest.mark.parametrize("s", [
        BAUER, AUX5, spec((1, 2), ((sk.GPOLY(-20), 1),), 81),
        spec((Fraction(1, 2), 3), ((sk.FRANEL, 1),), Fraction(7, 3)),
    ], ids=["bauer", "aux-5", "gpoly", "rational-m"])
    def test_residues_equal_oracles(self, s):
        primes = [p for p in primes_upto(100) if p >= 5]
        for e, shift in ((1, 0), (2, 0), (3, 0), (2, 1), (3, 2)):
            for upper in (lambda p: p - 1, lambda p: (p - 1) // 2):
                got = cg.truncated_residues(
                    s, {p: upper(p) for p in primes}, e, shift)
                for p in primes:
                    want = _exact_residue_oracle(s, upper(p), p, e, shift)
                    assert got[p] == want, (p, e, shift)
                    if not shift:
                        assert cg.truncated_sum_mod(s, upper(p), p, e) == \
                            want == _mod_oracle(s, upper(p), p, e)


class TestProvenCongruences:
    def test_bauer_mod_p3(self):
        # sum_{k<p} (4k+1) C(2k,k)^3/(-64)^k = p(-1|p)  (mod p^3)
        claim = cg.CongruenceClaim(
            "bauer-p", BAUER, 3,
            (cg.RHSTerm(Fraction(1), 1, sym=(-1,)),))
        rep = cg.verify_claim(claim, 60)
        assert rep.ok and len(rep.tested) >= 10

    def test_wang_mod_p4(self):
        # sum_{k<p} (3k-1) C(2k,k)^3/((2k-1)^2 16^k) = p - 2p^3  (mod p^4)
        s = spec((-1, 3), ((sk.CB2, 3),), 16, den=(("2k-1", 2),))
        claim = cg.CongruenceClaim(
            "wang-p4", s, 4,
            (cg.RHSTerm(Fraction(1), 1), cg.RHSTerm(Fraction(-2), 3)))
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
            upper="(p+1)/2")
        rep = cg.verify_claim(claim, 40)
        assert rep.ok and len(rep.tested) >= 8

    def test_mortenson_mod_p2(self):
        # sum_{k<p} C(2k,k) C(3k,k)/27^k = (p|3)  (mod p^2)
        s = spec((1,), ((sk.CB2, 1), (sk.CB3, 1)), 27)
        claim = cg.CongruenceClaim(
            "mortenson", s, 2,
            (cg.RHSTerm(Fraction(1), 0, sym=(-3,)),))
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
        rep = cg.check_duality_term("f", sk.FRANEL, None, -8, p_max=50)
        assert rep.ok

    def test_term_level_gct(self):
        rep = cg.check_duality_term("g", sk.GCT(3, -5), 29, 29, p_max=50)
        assert rep.ok

    def test_term_level_wrong_d_fails(self):
        rep = cg.check_duality_term("f", sk.FRANEL, None, 8, p_max=30)
        assert not rep.ok

    def test_term_level_report_names_the_entry(self):
        entry = next(e for e in corpus.load_default()
                     if e.check == "dual-term")
        row, = corpus.run([entry], p_max=30).rows
        assert row.report.ident == entry.ident != entry.dual_term[0].tag

    def test_sum_level_trivial_pair(self):
        # D = m^2 makes both sides literally equal
        claim = cg.DualityClaim("triv", ((sk.FRANEL, 1),), -8, 1, 64)
        rep = cg.check_duality_sum(claim, p_max=60)
        assert rep.ok

    def test_lint_divisibility(self):
        # a base that does not divide D is rejected where the entry is read
        text = ("entry bad\nkind: CONGRUENCE\nstatus: conjectural\n"
                "term: 1 ; - ; F ; m=3 ; k0=0\ndual: d=1 ; D=-8\n"
                "anchor: \"x\"\nend\n")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 5 and "base 3 does not divide D=-8" \
            in str(exc.value)


# --------------------------------------------------------------------------
# (pn)^2 refinement against the per-prime, per-n exact recomputation
# --------------------------------------------------------------------------

def _refinement_oracle(claim, p_max, n_max):
    """check_pn_refinement as it was before the prefix sums were shared:
    S(c) recomputed from k0 by the Fraction += loop for every prime."""
    report = cg.RefinementReport(claim.ident, [], None, [])
    for p in primes_upto(p_max):
        if not claim_admissible(claim, p):
            continue
        delta = 1
        for d in claim.pn_delta:
            delta *= legendre(d, p)
        if delta == 0:
            continue
        partials: Dict[int, Fraction] = {}

        def s_upto(count: int) -> Fraction:
            if count not in partials:
                partials[count] = _sum_oracle(claim.spec, count - 1)
            return partials[count]

        for n in range(1, n_max + 1):
            diff = s_upto(p * n) - p * delta * s_upto(n)
            vpn = 0
            nn = n
            while nn % p == 0:
                nn //= p
                vpn += 1
            need = 2 + 2 * vpn
            v = _valuation(diff, p)
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

    @pytest.mark.parametrize("s", [
        BAUER, AUX5, spec((1, 5), ((sk.DOMB, 1),), 64, k0=2),
        spec((3, -2), ((sk.FRANEL, 1), (sk.CB2, 1)), -8),
        spec((Fraction(1, 3), Fraction(5, 9)), ((sk.CB2, 2),),
             Fraction(-27, 4)),
        spec((Fraction(2, 27), Fraction(1, 3)), ((sk.CB3, 1),),
             Fraction(-27, 4), k0=2),
    ], ids=["integral-m", "aux-5", "k0=2", "negative-m", "m=-27/4",
            "k0=2-wden=27"])
    def test_prefix_sums(self, s):
        counts = [0, 1, 2, 3, 5, 8, 13, 40, 41, 97]
        sums = list(cg._prefix_sums(s, reversed(counts)))
        assert [c for c, _, _ in sums] == counts
        assert sums == list(prefix_sums(s, counts))
        for c, P, Q in sums:
            assert Q > 0
            assert Fraction(P, Q) == _sum_oracle(s, c - 1), c
            assert cg.truncated_sum_exact(s, c - 1) == Fraction(P, Q)
            if c <= s.k0:
                assert (P, Q) == (0, 1), c
            elif not s.den:
                # the den-free running integer: Q = wden a^(c-1)
                wden = se._integer_weight(s.weight)[1]
                assert Q == wden * abs(s.m.numerator) ** (c - 1), c


# --------------------------------------------------------------------------
# every registry check against the loops _prefix_sums replaced
# --------------------------------------------------------------------------

ENTRIES = corpus.load_default()
SUM_CLAIMS = [e.claim for e in ENTRIES
              if e.claim is not None and e.check != "refinement"]
QUADFORMS = [e.quadform for e in ENTRIES if e.quadform is not None]
DUALS = [e.duality for e in ENTRIES if e.duality is not None]
INTEGRALITIES = [e.integrality for e in ENTRIES if e.integrality is not None]


def _integrality_spec(claim):
    """The term spec that ``check_integrality`` sums for the claim."""
    return TermSpec(claim.weight, (), claim.seq,
                    Fraction(-claim.base if claim.alt else claim.base))


#: every term spec the registry sums, by where it comes from
REGISTRY_SPECS = {
    "claims": [e.claim.spec for e in ENTRIES if e.claim is not None],
    "quadform": [c.spec for c in QUADFORMS],
    "series": [e.series.spec for e in ENTRIES if e.series is not None],
    "duality": [TermSpec((1,), (), c.seq, Fraction(m)) for c in DUALS
                for m in (c.m, Fraction(c.D, c.m))],
    "integrality": [_integrality_spec(c) for c in INTEGRALITIES],
    "families": [ei._identity(name, (params or (None,))[0])[0].summand
                 for name, params in (e.family for e in ENTRIES
                                      if e.family is not None)
                 if ei.FAMILIES[name].telescoping is not None],
}


#: the integrality claims read to n = 128: every divisor exponent rule
#: (none, n-1, half, half-up), negative bases (S9-n, beta1-n), alt (S2-n),
#: mul = 3 (beta2-n, 8-2-d-n), div_base 2, 5 and 10 (beta2-n, beta3-n,
#: 8-3-n, 8-2-n, 8-2-d-n), and S8-n with its weight halved and mul = 2,
#: whose weight denominator 2 divides every value; without mul it is not
#: an integer at n = 1
S8N = next(c for c in INTEGRALITIES if c.ident == "S8-n")
INTEGRALITY_128 = [c for c in INTEGRALITIES if c.ident in {
    "S2-n", "S9-n", "beta1-n", "beta2-n", "beta3-n", "8-2-n", "8-2-d-n",
    "8-3-n"}] + [
    dataclasses.replace(S8N, ident=f"S8-n-half-mul{mul}", mul=mul,
                        weight=tuple(Fraction(c, 2) for c in S8N.weight))
    for mul in (1, 2)]


class TestRegistryOracles:
    def test_registry_counts(self):
        assert (len(SUM_CLAIMS), len(QUADFORMS), len(DUALS),
                len(INTEGRALITIES)) == (56, 47, 11, 42)
        uppers = {c.upper for c in SUM_CLAIMS}
        assert {"p-1", "p-2", "(p+1)/2"} <= uppers
        assert any(c.lhs_ppow for c in SUM_CLAIMS)
        assert any(c.spec.den for c in SUM_CLAIMS)

    @pytest.mark.parametrize("group", REGISTRY_SPECS)
    def test_prefix_sums(self, group):
        # the den-free running integer against the loop that divided every
        # term's den by Q: the same unreduced pairs, not only their values
        specs = REGISTRY_SPECS[group]
        assert specs
        counts = range(61)
        for s in specs:
            assert list(cg._prefix_sums(s, counts)) == \
                list(prefix_sums(s, counts)), s

    @pytest.mark.parametrize("claim", SUM_CLAIMS, ids=lambda c: c.ident)
    def test_claim_rows(self, claim):
        want = [(p, *_claim_row_oracle(claim, p))
                for p in primes_upto(100) if claim_admissible(claim, p)]
        rep = cg.verify_claim(claim, 100)
        assert rep.rows == want
        assert rep.tested == [p for p, _, _ in want]
        assert rep.failures == [r for r in want if r[1] != r[2]]

    @pytest.mark.parametrize("claim", QUADFORMS, ids=lambda c: c.ident)
    def test_quadform(self, claim, monkeypatch):
        got = qf.verify_quadform_claim(claim, 100)
        monkeypatch.setattr(cg, "truncated_residues", _residues_oracle)
        want = qf.verify_quadform_claim(claim, 100)
        assert (got.tested, got.failures) == (want.tested, want.failures)
        assert got.tested
        # the registry's verdicts: two conjectural tables fail below 100
        assert got.ok == (claim.ident not in {"8-1-q", "g-2-q"})

    @pytest.mark.parametrize("claim", DUALS, ids=lambda c: c.ident)
    def test_duality_sum(self, claim, monkeypatch):
        got = cg.check_duality_sum(claim, 100)
        monkeypatch.setattr(cg, "truncated_residues", _residues_oracle)
        want = cg.check_duality_sum(claim, 100)
        assert (got.tested, got.failures) == (want.tested, want.failures)
        assert got.ok

    @pytest.mark.parametrize("claim", INTEGRALITIES, ids=lambda c: c.ident)
    def test_integrality(self, claim):
        assert cg.check_integrality(claim, 64).failures == \
            _integrality_oracle(claim, 64)
        # a flipped sign and a doubled divisor make every claim fail
        flipped = dataclasses.replace(claim, alt=not claim.alt,
                                      div=2 * claim.div)
        assert cg.check_integrality(flipped, 64).failures == \
            _integrality_oracle(flipped, 64)

    @pytest.mark.parametrize("claim", INTEGRALITY_128, ids=lambda c: c.ident)
    def test_integrality_128(self, claim):
        # the value read with only small divisors against its defining sum
        rep = cg.check_integrality(claim, 128)
        assert rep.failures == _integrality_oracle(claim, 128)
        assert rep.ok == (claim.ident != "S8-n-half-mul1")
        flipped = dataclasses.replace(claim, alt=not claim.alt,
                                      div=2 * claim.div)
        failures = cg.check_integrality(flipped, 128).failures
        assert failures and failures == _integrality_oracle(flipped, 128)


# --------------------------------------------------------------------------
# one rule for the tested primes against the per-prime rules it replaced
# --------------------------------------------------------------------------

def _old_primes(p_max, keep):
    return [p for p in primes_upto(p_max) if keep(p)]


CLAIMS = [e.claim for e in ENTRIES if e.claim is not None]
DUAL_TERMS = [(e.ident, *e.dual_term) for e in ENTRIES
              if e.dual_term is not None]


class TestTestedPrimes:
    @pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.ident)
    def test_claim(self, claim):
        want = _old_primes(300, lambda p: claim_admissible(claim, p))
        coprime = claim.coprime
        if claim.pn_delta is None:
            assert cg.verify_claim(claim, 300).tested == want
        else:
            # the refinement skipped the primes where delta = 0
            want = [p for p in want
                    if all(legendre(d, p) for d in claim.pn_delta)]
            rep = cg.check_pn_refinement(claim, p_max=300, n_max=1)
            assert [p for p, _ in rep.checked] == want
            coprime += claim.pn_delta
        assert cg.tested_primes(300, claim.min_p, claim.exclude, coprime,
                                claim.require) == want

    @pytest.mark.parametrize("claim", QUADFORMS, ids=lambda c: c.ident)
    def test_table(self, claim):
        m, table = claim.spec.m, claim.table
        in_range = lambda p: p >= table.min_p and p not in table.exclude
        want = _old_primes(300, lambda p: p > 2 and in_range(p))
        assert qf.check_partition(table, 300).tested == want
        assert cg.tested_primes(300, table.min_p, table.exclude) == want
        want = _old_primes(
            300, lambda p: in_range(p) and m.numerator % p
            and m.denominator % p and all(d % p for d in table.sym_factor))
        assert qf.verify_quadform_claim(claim, 300).tested == want
        assert cg.tested_primes(300, table.min_p, table.exclude,
                                (m.numerator, m.denominator,
                                 *table.sym_factor)) == want

    @pytest.mark.parametrize("claim", DUALS, ids=lambda c: c.ident)
    def test_duality_sum(self, claim):
        want = _old_primes(300, lambda p: p >= 5 and claim.d % p
                           and claim.D % p and claim.m % p)
        assert cg.check_duality_sum(claim, 300).tested == want
        assert cg.tested_primes(
            300, coprime=(claim.d, claim.D, claim.m)) == want

    @pytest.mark.parametrize("args", DUAL_TERMS, ids=lambda a: a[0])
    def test_duality_term(self, args):
        _, _, d, D = args
        assert cg.check_duality_term(*args, p_max=300).tested == \
            _old_primes(300, lambda p: p >= 5 and D % p
                        and (d is None or d % p))

    def test_require_needs_an_odd_prime(self):
        with pytest.raises(ValueError):
            cg.tested_primes(10, 2, (), (), ((-1, 1),))
        assert cg.tested_primes(10, 2, (2,), (), ((-1, 1),)) == [5]
        assert cg.tested_primes(30, 2, (7,), (0,)) == []
        assert cg.tested_primes(30, 2, (7,), (-15, 1)) == \
            [2, 11, 13, 17, 19, 23, 29]

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from piseries import congruence as cg
from piseries import corpus
from piseries import quadform as qf
from piseries import seqkit as sk
from piseries.sereval import TermSpec

from oracle_symbols import fraction_mod, guard_holds, primes_upto

F = Fraction


def two_square_table(ident="two-square"):
    """sum_{k<p} C(2k,k)^3/64^k = 4x^2 - 2p (mod p^2) if p = x^2 + y^2 with
    y even, and 0 if p = 3 (mod 4)."""
    split = qf.QuadFormCase(qf.Guard(mods=((4, (1,)),)),
                            a=1, d=1, norm="Y_HALF_PARITY",
                            x2=F(4), p_coef=F(-2))
    inert = qf.QuadFormCase(qf.Guard(mods=((4, (3,)),)), zero=True)
    return qf.QuadFormTable(ident, (split, inert))


class TestRepresent:
    def test_basic(self):
        assert qf.represent(1, 1, 2, 73) == [(1, 6)]
        assert (2, 1) in qf.represent(1, 1, 1, 5)
        assert (1, 2) in qf.represent(1, 1, 1, 5)

    def test_no_solution(self):
        assert qf.represent(1, 1, 5, 13) == []

    def test_mu_two(self):
        # 2*17 = 34 = 5^2 + 3^2
        assert (5, 3) in qf.represent(2, 1, 1, 17)

    @pytest.mark.parametrize("a, d", [(1, 0), (0, 1), (1, -2), (-1, 1)])
    def test_form_must_be_positive(self, a, d):
        # d = 0 once searched forever, a = 0 divided by zero
        with pytest.raises(ValueError, match="must be positive"):
            qf.represent(1, a, d, 5)


class TestNormalize:
    def test_xy_nonneg(self):
        assert qf.normalize([(1, 2)], "XY_NONNEG") == [(1, 2)]

    def test_x_not_div_3(self):
        assert qf.normalize([(3, 1), (1, 3)], "X_NOT_DIV_3") == [(1, 3)]

    def test_x_minus_y_div_3(self):
        reps = qf.normalize([(1, 2)], "X_MINUS_Y_DIV_3")
        assert reps == [(-1, 2), (1, -2)]

    def test_y_half_parity(self):
        assert qf.normalize([(1, 2), (2, 1)], "Y_HALF_PARITY") == [(1, 2)]

    def test_xy_half_parity(self):
        reps = qf.normalize([(1, 3)], "XY_HALF_PARITY")
        assert reps == [(-1, -3), (1, 3)]


def _value(res: qf.DispatchResult):
    """The table value num / den of a dispatch, None where it has none."""
    return None if res.num is None else Fraction(res.num, res.den)


class TestDispatch:
    def test_split_prime(self):
        res = qf.dispatch(two_square_table(), 13)
        # 13 = 9 + 4 with y even: 4*9 - 26 = 10
        assert res.ok and _value(res) == 10

    def test_inert_prime(self):
        res = qf.dispatch(two_square_table(), 19)
        assert res.ok and _value(res) == 0

    def test_no_case(self):
        table = qf.QuadFormTable(
            "gap", (qf.QuadFormCase(qf.Guard(mods=((4, (1,)),)), zero=True),))
        res = qf.dispatch(table, 19)
        assert not res.ok and res.error == qf.NO_CASE

    def test_no_representation(self):
        table = qf.QuadFormTable(
            "bad", (qf.QuadFormCase(qf.Guard(), a=1, d=5, x2=F(1)),))
        res = qf.dispatch(table, 13)
        assert not res.ok and res.error == qf.NO_REPRESENTATION

    def test_ambiguous_detected(self):
        # p = x^2 + y^2 without a parity rule leaves the template ill-defined
        table = qf.QuadFormTable(
            "amb", (qf.QuadFormCase(qf.Guard(mods=((4, (1,)),)),
                                    a=1, d=1, x2=F(4), p_coef=F(-2)),))
        res = qf.dispatch(table, 5)
        assert not res.ok and res.error == qf.AMBIGUOUS

    def test_sign_rule_validation(self):
        with pytest.raises(ValueError):
            qf.QuadFormCase(qf.Guard(), sign="Y_HALF")


class TestClaims:
    def test_two_square_congruence(self):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(64), k0=0)
        claim = qf.QuadFormClaim("two-square", spec, two_square_table())
        rep = qf.verify_quadform_claim(claim, 80)
        assert rep.ok and len(rep.tested) >= 15

    def test_wrong_template_fails(self):
        spec = TermSpec(weight=(1,), den=(), seq=((sk.CB2, 3),),
                        m=Fraction(64), k0=0)
        split = qf.QuadFormCase(qf.Guard(mods=((4, (1,)),)),
                                a=1, d=1, norm="Y_HALF_PARITY",
                                x2=F(2), p_coef=F(-1))
        inert = qf.QuadFormCase(qf.Guard(mods=((4, (3,)),)), zero=True)
        claim = qf.QuadFormClaim(
            "wrong", spec, qf.QuadFormTable("wrong", (split, inert)))
        rep = qf.verify_quadform_claim(claim, 40)
        assert not rep.ok

    def test_partition(self):
        rep = qf.check_partition(two_square_table(), 1000)
        assert rep.ok and len(rep.tested) > 160

    def test_partition_gap_detected(self):
        table = qf.QuadFormTable(
            "gap", (qf.QuadFormCase(qf.Guard(mods=((4, (1,)),)), zero=True),))
        rep = qf.check_partition(table, 100)
        assert not rep.ok


# --------------------------------------------------------------------------
# check_partition against the per-prime loop it replaced
# --------------------------------------------------------------------------

def _partition_oracle(table, p_max):
    """(tested, failures): every guard evaluated at every admissible prime."""
    tested, failures = [], []
    for p in primes_upto(p_max):
        if p < table.min_p or p in table.exclude:
            continue
        n = sum(1 for c in table.cases if guard_holds(c.guard, p))
        tested.append(p)
        if n != 1:
            failures.append((p, n, 1))
    return tested, failures


def _template_oracle(case, x, y, p) -> Fraction:
    """The template value in Fractions, as dispatch computed it before
    the cases held integer coefficients over one denominator."""
    v = case.x2 * x * x + case.xy * x * y + case.p_coef * p
    if case.sign == "Y_HALF":
        v *= (-1) ** ((y // 2) % 2)
    elif case.sign == "XY_HALF":
        v *= (-1) ** (((x * y - 1) // 2) % 2)
    return v


def _dispatch_oracle(table, p):
    """(p, value, error, case index) of dispatch with every guard
    evaluated at p, as before the masks, and every template value in
    Fractions."""
    matches = [(i, c) for i, c in enumerate(table.cases) if guard_holds(c.guard, p)]
    if len(matches) != 1:
        return p, None, qf.NO_CASE, None
    idx, case = matches[0]
    if case.zero:
        return p, Fraction(0), None, idx
    reps = qf.normalize(qf.represent(case.mu, case.a, case.d, p), case.norm)
    if not reps:
        return p, None, qf.NO_REPRESENTATION, idx
    values = {_template_oracle(case, x, y, p) for x, y in reps}
    if len(values) != 1:
        return p, None, qf.AMBIGUOUS, idx
    return p, values.pop(), None, idx


@pytest.fixture(scope="module")
def registry_tables():
    return [e.quadform.table for e in corpus.load_default()
            if e.quadform is not None]


def _variants(table):
    """The table, one with its first case dropped (gaps) and one with its
    last case repeated (overlaps)."""
    yield table
    yield qf.QuadFormTable(table.ident, table.cases[1:], table.min_p,
                           table.exclude, table.sym_factor)
    yield qf.QuadFormTable(table.ident, table.cases + table.cases[-1:],
                           table.min_p, table.exclude, table.sym_factor)


class TestPartitionOracle:
    def test_every_registry_table(self, registry_tables):
        assert len(registry_tables) == 47

    @pytest.mark.parametrize("p_max", [100, 1000, 3000])
    def test_matches_oracle(self, registry_tables, p_max):
        failing = 0
        for table in registry_tables:
            for variant in _variants(table):
                rep = qf.check_partition(variant, p_max)
                assert (rep.tested, rep.failures) == \
                    _partition_oracle(variant, p_max), table.ident
                failing += bool(rep.failures)
        # from p = 1000 on, every dropped or repeated case shows up
        if p_max >= 1000:
            assert failing == 2 * len(registry_tables)

    def test_dispatch_matches_guard_oracle(self, registry_tables):
        primes = primes_upto(1000)[1:]
        for table in registry_tables:
            for variant in _variants(table):
                for p in primes:
                    got = qf.dispatch(variant, p)
                    assert (got.p, _value(got), got.error, got.case_index) \
                        == _dispatch_oracle(variant, p), (table.ident, p)

    @pytest.mark.parametrize("p", [2, 1, 9, 15, 0])
    def test_dispatch_outside_the_index(self, registry_tables, p):
        # p = 2 or a p that is not prime is a ValueError: the masks do not
        # index it, even for a table of mods-only guards
        for table in registry_tables + [two_square_table()]:
            with pytest.raises(ValueError, match="not an odd prime"):
                qf.dispatch(table, p)

    def test_partition_admits_two(self):
        # a table that admits p = 2 is refused where it is made; with 2
        # excluded it is a table of the odd primes
        cases = two_square_table().cases
        for min_p in (2, 1, 0):
            with pytest.raises(ValueError, match="admits p = 2"):
                qf.QuadFormTable("low", cases, min_p=min_p)
            low = qf.QuadFormTable("low", cases, min_p=min_p, exclude=(2,))
            rep = qf.check_partition(low, 100)
            assert rep.tested[:2] == [3, 5]
            assert (rep.tested, rep.failures) == _partition_oracle(low, 100)

    def test_no_symbol_call_once_the_masks_exist(self, monkeypatch):
        claims = [e.quadform for e in corpus.load_default()
                  if e.quadform is not None]
        for claim in claims:
            qf.check_partition(claim.table, 1000)

        def refuse(*args):
            raise AssertionError(f"mask built at {args[1:]}")

        # every mask a guard reads, Euler's-criterion passes and residue
        # classes alike, is built by Characters.where
        monkeypatch.setattr(cg.Characters, "where", refuse)
        for claim in claims:
            assert qf.check_partition(claim.table, 1000).tested
            assert qf.verify_quadform_claim(claim, 1000).tested


class TestIntegerTemplates:
    """A case's template is integers over one common denominator, and the
    value is reduced mod p^2 with one inverse."""

    def test_common_denominator(self):
        case = qf.QuadFormCase(qf.Guard(), a=1, d=2, norm="Y_HALF_PARITY",
                               sign="Y_HALF", x2=F(1, 3), xy=F(-5, 6),
                               p_coef=F(2))
        assert (case.template, case.den) == ((2, -5, 12), 6)
        for x, y, p in [(1, 2, 3), (3, 4, 41), (-5, 6, 43), (7, 0, 7)]:
            assert F(qf._template_value(case, x, y, p), case.den) \
                == _template_oracle(case, x, y, p)

    def test_residue_is_fraction_mod(self):
        rng = random.Random(7)
        for p in (3, 5, 7, 11, 101):
            for _ in range(300):
                num = rng.randrange(-10 ** 6, 10 ** 6)
                den = rng.choice((1, 2, 6, p, p * p, 3 * p)) \
                    * rng.choice((1, p))
                got = cg._residue(num, den, p, 2)
                if got == cg.NONINTEGRAL:
                    got = None
                assert got == fraction_mod(F(num, den), p, 2), \
                    (num, den, p)

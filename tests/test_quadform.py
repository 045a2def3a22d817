from __future__ import annotations

import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import pytest

from piseries import congruence as cg
from piseries import corpus
from piseries import quadform as qf
from piseries import seqkit as sk
from piseries.sereval import TermSpec

from oracle_symbols import fraction_mod, guard_holds, is_prime, primes_upto

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
        rep = qf.check_partition(two_square_table())
        assert rep.ok and (rep.modulus, rep.primes) == (4, [])

    def test_partition_gap_detected(self):
        # the class 3 mod 4 is covered by no guard: its least admissible
        # prime names it
        table = qf.QuadFormTable(
            "gap", (qf.QuadFormCase(qf.Guard(mods=((4, (1,)),)), zero=True),))
        rep = qf.check_partition(table)
        assert not rep.ok and rep.failures == [(7, 0, 1)]


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
        # every gap or overlap the per-prime loop finds at p <= p_max is a
        # failing prime dividing L or lies in a failing class, named by a
        # prime no larger; every failure named at p <= p_max is one it finds
        failing = 0
        for table in registry_tables:
            for variant in _variants(table):
                rep = qf.check_partition(variant)
                L = rep.modulus
                _, want = _partition_oracle(variant, p_max)
                named = {p % L: (p, n) for p, n, _ in rep.failures if L % p}
                for p, n, _ in want:
                    if L % p == 0:
                        assert (p, n, 1) in rep.failures, (table.ident, p)
                    else:
                        q, m = named[p % L]
                        assert q <= p and m == n, (table.ident, p)
                assert {f for f in rep.failures if f[0] <= p_max} <= \
                    set(want), table.ident
                failing += bool(rep.failures)
        # every dropped or repeated case shows up, whatever p_max
        assert failing == 2 * len(registry_tables)

    def test_dispatch_matches_guard_oracle(self, registry_tables):
        primes = primes_upto(3000)[1:]
        for table in registry_tables:
            variants = list(_variants(table)) + [_flip_one_symbol(table)]
            for variant in filter(None, variants):
                for p in primes:
                    got = qf.dispatch(variant, p)
                    assert (got.p, _value(got), got.error, got.case_index) \
                        == _dispatch_oracle(variant, p), (table.ident, p)

    @pytest.mark.parametrize("p", [2, 1, 9, 15, 0])
    def test_dispatch_outside_the_index(self, registry_tables, p):
        # p = 2 or a p that is not prime is a ValueError, even for a table
        # of mods-only guards, where p mod L has a case
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
            rep = qf.check_partition(low)
            assert rep.ok and rep.primes == []
            assert _partition_oracle(low, 100)[0][:2] == [3, 5]
            assert qf.dispatch(low, 3).case_index == 1

    def test_no_symbol_call_once_the_masks_exist(self, monkeypatch):
        # once a table holds its masks, no check builds them again, and the
        # proof reads a symbol only at the admissible primes dividing L
        claims = [e.quadform for e in corpus.load_default()
                  if e.quadform is not None]
        built = [claim.table.residue_masks for claim in claims]
        read = []
        symbol = cg.symbol
        monkeypatch.setattr(cg, "symbol",
                            lambda sym, p: read.append(p) or symbol(sym, p))
        for claim, masks in zip(claims, built):
            read.clear()
            rep = qf.check_partition(claim.table)
            assert rep.ok and set(read) <= set(rep.primes), claim.ident
            assert qf.verify_quadform_claim(claim, 1000).tested
            assert claim.table.residue_masks is masks

    def test_concurrent_first_use(self, registry_tables):
        # threads that share fresh tables race to build their masks on
        # first use, and every thread reads the same cases
        tables = [replace(t) for t in registry_tables]
        primes = primes_upto(400)[1:]
        want = [[qf.dispatch(t, p).case_index for p in primes]
                for t in registry_tables]
        got, errors = [], []

        def work():
            try:
                got.append([[qf.dispatch(t, p).case_index for p in primes]
                            for t in tables])
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(6)]
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
        assert not errors and got == [want] * len(threads)


# --------------------------------------------------------------------------
# the partition at every prime, one prime per residue class
# --------------------------------------------------------------------------

def _guard_modulus(table) -> int:
    """L = lcm(4, 4|d| for each symbol (d|p), N for each residue guard
    mod N): at a prime p not dividing L, (d|p) depends only on p mod 4|d|
    by quadratic reciprocity, so every guard of the table depends only on
    p mod L."""
    guards = [c.guard for c in table.cases]
    return lcm(4, *(4 * abs(d) for g in guards for d, _ in g.syms),
               *(n for g in guards for n, _ in g.mods))


def _odd_primes(n: int) -> list:
    """The odd primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return [p for p in range(3, n, 2) if sieve[p]]


#: a bound past every class representative of the bundled tables (the
#: largest is 20 963)
_CLASS_BOUND = 100_000


def _class_primes(table, primes) -> tuple:
    """(L, representatives): one admissible prime (at least ``min_p``, not
    excluded) in each class mod L prime to L, and every admissible prime
    that divides L.  By Dirichlet's theorem every such class holds
    primes; an AssertionError names a class with none below the bound."""
    L = _guard_modulus(table)
    open_classes = {r for r in range(L) if gcd(r, L) == 1}
    reps = [p for p in range(3, L + 1, 2) if L % p == 0 and is_prime(p)]
    for p in primes:
        if not open_classes:
            break
        if p % L in open_classes and p >= table.min_p \
                and p not in table.exclude:
            open_classes.discard(p % L)
            reps.append(p)
    assert not open_classes, (table.ident, L, min(open_classes))
    return L, [p for p in reps if p >= table.min_p
               and p not in table.exclude]


def _class_failures(table, reps) -> list:
    """(p, n) at each representative where n != 1 guards hold."""
    out = []
    for p in reps:
        n = sum(guard_holds(c.guard, p) for c in table.cases)
        if n != 1:
            out.append((p, n))
    return out


def _flip_one_symbol(table):
    """The table with the first nonzero symbol value of its first guard
    that has one negated, or None for a table of residue guards only."""
    for i, case in enumerate(table.cases):
        syms = case.guard.syms
        for j, (d, v) in enumerate(syms):
            if v:
                guard = qf.Guard(syms[:j] + ((d, -v),) + syms[j + 1:],
                                 case.guard.mods)
                cases = list(table.cases)
                cases[i] = replace(case, guard=guard)
                return qf.QuadFormTable(table.ident, tuple(cases),
                                        table.min_p, table.exclude,
                                        table.sym_factor)
    return None


class TestPartitionEveryPrime:
    """Exactly one guard holds at every admissible prime: at a prime p not
    dividing L the guards depend only on p mod L (``_guard_modulus``), so
    one prime of each class prime to L, and the primes that divide L,
    stand for all of them.  ``check_partition`` proves it from residue
    masks; here each guard is read at one prime of each class."""

    @pytest.fixture(scope="class")
    def primes(self):
        return _odd_primes(_CLASS_BOUND)

    def test_every_class_of_every_table(self, registry_tables, primes):
        classes, moduli = 0, []
        for table in registry_tables:
            L, reps = _class_primes(table, primes)
            assert _class_failures(table, reps) == [], table.ident
            classes += sum(L % p != 0 for p in reps)
            moduli.append(L)
        assert len(moduli) == 47
        assert classes == 4052 and max(moduli) == 1848

    def test_a_flipped_symbol_is_caught(self, registry_tables, primes):
        # negating one symbol value of one guard breaks the partition in
        # some class, in every table that has a symbol guard
        flipped = 0
        for table in registry_tables:
            variant = _flip_one_symbol(table)
            if variant is None:
                continue
            _, reps = _class_primes(variant, primes)
            assert _class_failures(variant, reps), table.ident
            flipped += 1
        assert flipped == 37

    def test_check_partition_agrees(self, registry_tables, primes):
        # the proof against one prime per class: on every table, every
        # flipped symbol and every dropped or repeated case
        failing = 0
        for table in registry_tables:
            variants = list(_variants(table)) + [_flip_one_symbol(table)]
            for variant in filter(None, variants):
                L, reps = _class_primes(variant, primes)
                rep = qf.check_partition(variant)
                assert (rep.modulus, rep.primes) == \
                    (L, [p for p in reps if L % p == 0]), table.ident
                assert rep.failures == sorted(
                    (p, n, 1) for p, n in _class_failures(variant, reps))
                failing += bool(rep.failures)
        assert failing == 37 + 2 * 47

    def test_least_primes(self):
        # the least prime of each class at or past lo and outside skip; a
        # class not prime to the modulus holds none, and is refused rather
        # than searched by a sieve doubled without end
        assert qf._least_primes([1, 3, 1], 4, 5, (7,)) == [5, 11, 5]
        assert qf._least_primes([1], 1012) == [1013]
        with pytest.raises(ValueError, match="not prime to 4"):
            qf._least_primes([1, 2], 4)

    @pytest.mark.parametrize("table, gap", [
        (lambda: split_1009_table(), (1009, 0, 1)),
        (lambda: gap_1012_table(), (1013, 0, 1)),
    ], ids=["1009-divides-L", "class-1-mod-1012"])
    def test_a_gap_past_1000(self, table, gap):
        # a gap at a prime above 1000, which no test of p <= 1000 sees;
        # some class mod 4036 holds no prime below _CLASS_BOUND
        table = table()
        L, reps = _class_primes(table, _odd_primes(10 * _CLASS_BOUND))
        assert _partition_oracle(table, 1000)[1] == []
        assert qf.check_partition(table).failures == [gap] \
            == [(p, n, 1) for p, n in _class_failures(table, reps)]


def split_1009_table():
    """The two-square table with its split case cut in two by (1009|p):
    L = 4036, and no guard holds at p = 1009, which divides it."""
    split, inert = two_square_table().cases
    halves = tuple(replace(split, guard=qf.Guard(((1009, v),),
                                                 split.guard.mods))
                   for v in (1, -1))
    return qf.QuadFormTable("split-1009", halves + (inert,))


def gap_1012_table():
    """Residue guards only, L = 1012 = 4 * 11 * 23, covering every class
    prime to L but 1; the least prime in that class is 1013."""
    guard = lambda *mods: qf.Guard(mods=mods)
    return qf.QuadFormTable("gap-1012", tuple(
        qf.QuadFormCase(g, zero=True) for g in (
            guard((4, (3,))),
            guard((4, (1,)), (11, tuple(range(2, 11)))),
            guard((4, (1,)), (11, (1,)), (23, tuple(range(2, 23)))))))


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

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from math import comb

import pytest

from piseries import seqkit as sk


def poly_trinomial(b: int, c: int, n: int) -> int:
    """Central coefficient of (x^2 + b x + c)^n by explicit polynomial power."""
    poly = [1]
    base = [c, b, 1]
    for _ in range(n):
        out = [0] * (len(poly) + 2)
        for i, pv in enumerate(poly):
            for j, bv in enumerate(base):
                out[i + j] += pv * bv
        poly = out
    return poly[n]


class TestGct:
    def test_first_two_values(self):
        for b, c in [(1, 1), (3, -5), (8, -2), (62, 95 ** 2)]:
            assert sk.table(sk.GCT(b, c), 1).values == (1, b)

    def test_direct_matches_polynomial_expansion(self):
        for b, c in [(1, 1), (2, 1), (3, 2), (1, 16), (8, -2)]:
            for n in range(8):
                assert sk.gct_direct(b, c, n) == poly_trinomial(b, c, n)

    def test_direct_examples(self):
        assert sk.gct_direct(1, 1, 4) == 19
        assert sk.gct_direct(8, -2, 0) == 1
        assert sk.gct_direct(1, 16, 2) == 33
        assert sk.table(sk.GCT(1, 1), 2).values[2] == 3
        assert sk.table(sk.GCT(2, 1), 3).values[3] == 20

    @pytest.mark.parametrize("b,c", [(1, 1), (2, 1), (8, -2), (1, 16), (62, 95 ** 2)])
    def test_recurrence_matches_direct(self, b, c):
        tab = sk.table(sk.GCT(b, c), 200)
        for n in range(201):
            assert tab[n] == sk.gct_direct(b, c, n)

    def test_central_binomial_special_case(self):
        tab = sk.table(sk.GCT(2, 1), 500)
        for n in range(501):
            assert tab[n] == comb(2 * n, n)

    def test_stride_views(self):
        t2 = sk.table(sk.GCT2(1, 1), 10)
        t3 = sk.table(sk.GCT3(1, 1), 10)
        base = sk.table(sk.GCT(1, 1), 30)
        for n in range(11):
            assert t2[n] == base[2 * n]
            assert t3[n] == base[3 * n]

    def test_growth_rate(self):
        # |T_n(b,c)|^(1/n) -> sqrt(b^2-4c) for c < 0
        for b, c in [(1, -1), (4, -4)]:
            n = 2000
            tn = abs(sk.table(sk.GCT(b, c), n)[n])
            import math
            growth = math.exp(math.log2(tn) * math.log(2) / n)
            target = (b * b - 4 * c) ** 0.5
            assert abs(growth - target) / target < 0.01


class TestAperyLike:
    def test_sbc_11_values(self):
        tab = sk.table(sk.SBC(1, 1), 10)
        assert tab.values == (1, 2, 10, 68, 586, 5252, 49204, 475400,
                              4723786, 47937812, 494786260)

    def test_sbc_21_is_domb(self):
        s = sk.table(sk.SBC(2, 1), 100)
        d = sk.table(sk.DOMB, 100)
        assert s.values == d.values

    def test_franel_recurrence_vs_sum(self):
        tab = sk.table(sk.FRANEL, 150)
        for n in range(151):
            assert tab[n] == sum(comb(n, k) ** 3 for k in range(n + 1))

    def test_g_is_binomial_transform_of_franel(self):
        g = sk.table(sk.GSEQ, 100)
        f = sk.table(sk.FRANEL, 100)
        for n in range(101):
            assert g[n] == sum(comb(n, k) * f[k] for k in range(n + 1))

    def test_clf_is_2n_zagier(self):
        z = sk.table(sk.ZAGIER, 100)
        p = sk.table(sk.CLF, 100)
        for n in range(101):
            assert p[n] == 2 ** n * z[n]

    def test_small_values(self):
        assert sk.table(sk.WZAG, 1).values == (1, 3)
        assert sk.table(sk.ZAGIER, 1)[1] == 4
        assert sk.table(sk.BETA, 1)[1] == 3

    def test_gpoly_rational(self):
        tab = sk.table(sk.GPOLY(Fraction(1, 2)), 5)
        for n in range(6):
            expect = sum(Fraction(comb(n, k) ** 2 * comb(2 * k, k), 2 ** k)
                         for k in range(n + 1))
            assert tab[n] == expect

    def test_gpoly_at_one_is_gseq(self):
        g1 = sk.table(sk.GPOLY(1), 30)
        g = sk.table(sk.GSEQ, 30)
        assert g1.values == g.values

    def test_euler_numbers(self):
        tab = sk.table(sk.EULER, 10)
        assert tab.values[:9] == (1, 0, -1, 0, 5, 0, -61, 0, 1385)

    def test_catalan(self):
        tab = sk.table(sk.CATALAN, 8)
        assert tab.values == (1, 1, 2, 5, 14, 42, 132, 429, 1430)


class TestSnk:
    def test_snk_zero_column(self):
        for n in range(10):
            assert sk.snk(n, 0) == 1

    def test_snk_2_1(self):
        assert sk.snk(2, 1) == 2

    def test_snk_sum_gives_franel(self):
        f = sk.table(sk.FRANEL, 12)
        for n in range(13):
            total = sum(comb(n, k) * (-1) ** k * 4 ** (n - k) * sk.snk(n + k, k)
                        for k in range(n + 1))
            assert total == f[n]

    def test_index_violation(self):
        with pytest.raises(ValueError):
            sk.snk(2, 3)


class TestLegendre:
    def test_degree_zero(self):
        assert sk.legendre_eval(0, Fraction(7, 3)) == 1

    def test_p2(self):
        assert sk.legendre_eval(2, Fraction(3)) == 13

    def test_gct_link(self):
        # b^2 - 4c = 1 for (b,c) = (3,2): T_n(3,2) = P_n(3)
        tab = sk.table(sk.GCT(3, 2), 12)
        for n in range(13):
            assert tab[n] == sk.legendre_eval(n, Fraction(3))
        assert tab[3] == 63


class TestDuality:
    """Per-term dual congruences mod p (these are theorems)."""

    PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97]

    @staticmethod
    def leg(a: int, p: int) -> int:
        a %= p
        if a == 0:
            return 0
        r = pow(a, (p - 1) // 2, p)
        return 1 if r == 1 else -1

    def test_gct_duality(self):
        for b, c in [(1, 1), (3, -5), (4, 1)]:
            d = b * b - 4 * c
            for p in self.PRIMES:
                if d % p == 0:
                    continue
                tab = sk.table(sk.GCT(b, c), p - 1)
                s = self.leg(d, p)
                for k in range(p):
                    lhs = tab[k] % p
                    rhs = (s * pow(d % p, k, p) * tab[p - 1 - k]) % p
                    assert lhs == rhs

    def test_sequence_dualities(self):
        cases = [
            (sk.FRANEL, None, -8),    # f_k = (-8)^k f_{p-1-k}
            (sk.GSEQ, -3, 9),
            (sk.BETA, None, -1),      # beta_k = (-1)^k beta_{p-1-k}
            (sk.ZAGIER, -1, 32),
            (sk.WZAG, -3, 27),
        ]
        for kind, d, D in cases:
            for p in self.PRIMES:
                tab = sk.table(kind, p - 1)
                s = 1 if d is None else self.leg(d, p)
                if kind == sk.BETA:
                    # (-1)^k plays the role of D^k with no symbol factor
                    pass
                for k in range(p):
                    lhs = tab[k] % p
                    rhs = (s * pow(D % p, k, p) * tab[p - 1 - k]) % p
                    assert lhs == rhs, (kind.tag, p, k)


# --------------------------------------------------------------------------
# The sequence store
# --------------------------------------------------------------------------

STORE_N = 200


def _registry_kinds():
    """Every sequence kind the bundled registry uses."""
    from piseries import corpus

    found = set()

    def walk(obj):
        if isinstance(obj, sk.SequenceKind):
            found.add(obj)
        elif isinstance(obj, (tuple, list)):
            for x in obj:
                walk(x)
        elif hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                walk(getattr(obj, name))

    for entry in corpus.load_default():
        walk(entry)
    return sorted(found, key=str)


def _zigzag(n_max):
    """Euler zigzag numbers by the boustrophedon (Seidel) triangle."""
    row, out = [1], [1]
    for _ in range(n_max):
        new = [0]
        for v in reversed(row):
            new.append(new[-1] + v)
        row = new
        out.append(row[-1])
    return out


class _Oracle:
    """Direct-sum values, independent of the store's recurrences."""

    def __init__(self):
        self.gct = {}

    def gct_rows(self, b, c, n_max):
        """T_n(b,c) by the defining sum (as gct_direct), powers tabulated."""
        have = self.gct.get((b, c), [])
        if len(have) <= n_max:
            bp = [b ** i for i in range(n_max + 1)]
            cp = [c ** k for k in range(n_max // 2 + 1)]
            have = self.gct[(b, c)] = [
                sum(comb(n, 2 * k) * comb(2 * k, k) * bp[n - 2 * k] * cp[k]
                    for k in range(n // 2 + 1)) for n in range(n_max + 1)]
        return have

    def values(self, kind, n_max):
        tag, params = kind.tag, kind.params
        ns = range(n_max + 1)
        if tag in ("GCT", "GCT2", "GCT3"):
            stride = {"GCT": 1, "GCT2": 2, "GCT3": 3}[tag]
            tb = self.gct_rows(*params, stride * n_max)
            return [tb[stride * n] for n in ns]
        if tag == "SBC":
            tb = self.gct_rows(*params, n_max)
            return [sk._sbc_value(*params, tb, n) for n in ns]
        if tag == "GPOLY":
            return [sk._gpoly_value(n, params[0]) for n in ns]
        if tag == "CLF":
            return [2 ** n * sk._zagier_value(n) for n in ns]
        if tag == "EULER":
            z = _zigzag(n_max)
            return [0 if n % 2 else (-1) ** (n // 2) * z[n] for n in ns]
        closed = {
            "DOMB": sk._domb_value, "FRANEL": sk._franel_value,
            "FRANEL4": sk._franel4_value, "GSEQ": sk._gseq_value,
            "ZAGIER": sk._zagier_value, "BETA": sk._beta_value,
            "WZAG": sk._wzag_value,
            "CB2": lambda n: comb(2 * n, n), "CB3": lambda n: comb(3 * n, n),
            "CB4": lambda n: comb(4 * n, 2 * n),
            "CB63": lambda n: comb(6 * n, 3 * n),
            "CB2SHIFT": lambda n: comb(2 * n, n + 1),
            "CATALAN": lambda n: comb(2 * n, n) // (n + 1),
        }
        return [closed[tag](n) for n in ns]


@pytest.fixture(scope="module")
def store_kinds():
    return _registry_kinds() + [sk.EULER, sk.CLF, sk.GCT3(1, 1),
                                sk.GPOLY(Fraction(-1, 4))]


class TestStore:
    def test_registry_kinds_match_direct_sums(self, store_kinds):
        oracle = _Oracle()
        assert len(store_kinds) > 100
        for kind in store_kinds:
            got = sk.rows(kind, STORE_N)
            assert list(got[:STORE_N + 1]) == oracle.values(kind, STORE_N), \
                str(kind)

    def test_growth_out_of_order_matches_table(self, store_kinds):
        store = sk.SequenceStore()
        for n in (10, STORE_N, 50):
            for kind in store_kinds:
                store.rows(kind, n)
        for kind in store_kinds:
            want = sk.table(kind, STORE_N).values
            assert tuple(store.rows(kind, 0)[:STORE_N + 1]) == want, str(kind)

    def test_reads_share_rows_without_copying(self):
        store = sk.SequenceStore()
        first = store.rows(sk.FRANEL, 20)
        assert store.rows(sk.FRANEL, 5) is first
        assert store.rows(sk.FRANEL, 40) is first and len(first) >= 41
        assert sk.memo_table(sk.FRANEL, 20).n_max >= 20

    def test_threads_growing_shared_kinds(self):
        store = sk.SequenceStore()
        kinds = (sk.SBC(1, 7), sk.GCT2(1, 1))
        errors = []

        def grow(offset):
            try:
                for n in range(offset, 160, 4):
                    for kind in kinds[offset % 2:] + kinds[:offset % 2]:
                        assert store.rows(kind, n)[n] is not None
            except BaseException as exc:   # reported by the main thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for kind in kinds:
            want = sk.table(kind, 159).values
            assert tuple(store.rows(kind, 159)[:160]) == want

    def test_inexact_step_raises_and_kind_restarts(self, monkeypatch):
        store = sk.SequenceStore()
        lead, a, b = sk._RECURRENCES["FRANEL"]
        monkeypatch.setitem(sk._RECURRENCES, "FRANEL",
                            (lambda n: lead(n) + 1, a, b))
        with pytest.raises(ArithmeticError):
            store.rows(sk.FRANEL, 10)
        monkeypatch.undo()
        assert tuple(store.rows(sk.FRANEL, 10)[:11]) \
            == sk.table(sk.FRANEL, 10).values

    def test_unknown_kind_and_negative_size(self):
        with pytest.raises(ValueError):
            sk.SequenceStore().rows(sk.SequenceKind("NOPE"), 3)
        with pytest.raises(ValueError):
            sk.table(sk.FRANEL, -1)

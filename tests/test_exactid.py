from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from piseries import corpus
from piseries import exactid as ei

import oracle_exact as ox


# --------------------------------------------------------------------------
# Oracle: each family's summand and closed partial sum written out by hand
# in math.comb and Fraction arithmetic, independent of the term engine
# --------------------------------------------------------------------------

def _c2(k: int) -> int:
    return comb(2 * k, k)


def _c3(k: int) -> int:
    return comb(3 * k, k)


def _c4(k: int) -> int:
    return comb(4 * k, 2 * k)


def _c63(k: int) -> int:
    return comb(6 * k, 3 * k)


# Downward families sum k = 0..n; rhs is the exact partial sum.

def _t_a1(k, m):
    return Fraction(((64 - m) * k**3 - 32 * k**2 - 16 * k + 8) * _c2(k)**3,
                    (2 * k - 1)**2 * m**k)


def _r_a1(n, m):
    return Fraction(8 * (2 * n + 1) * _c2(n)**3, m**n)


def _t_a2(k, m):
    return Fraction(((64 - m) * k**3 - 96 * k**2 + 48 * k - 8) * _c2(k)**3,
                    (2 * k - 1)**3 * m**k)


def _r_a2(n, m):
    return Fraction(8 * _c2(n)**3, m**n)


def _t_a3(k, m):
    return Fraction(((108 - m) * k**3 - 54 * k**2 - 12 * k + 6)
                    * _c2(k)**2 * _c3(k),
                    (2 * k - 1) * (3 * k - 1) * m**k)


def _r_a3(n, m):
    return Fraction(6 * (3 * n + 1) * _c2(n)**2 * _c3(n), m**n)


def _t_a4(k, m):
    return Fraction(((108 - m) * k**3 - (54 + m) * k**2 - 12 * k + 6)
                    * _c2(k)**2 * _c3(k),
                    (k + 1) * (2 * k - 1) * (3 * k - 1) * m**k)


def _r_a4(n, m):
    return Fraction(6 * (3 * n + 1) * _c2(n)**2 * _c3(n), (n + 1) * m**n)


def _t_a5(k, m):
    return Fraction(((256 - m) * k**3 - 128 * k**2 - 16 * k + 8)
                    * _c2(k)**2 * _c4(k),
                    (2 * k - 1) * (4 * k - 1) * m**k)


def _r_a5(n, m):
    return Fraction(8 * (4 * n + 1) * _c2(n)**2 * _c4(n), m**n)


def _t_a6(k, m):
    return Fraction(((256 - m) * k**3 - (128 + m) * k**2 - 16 * k + 8)
                    * _c2(k)**2 * _c4(k),
                    (k + 1) * (2 * k - 1) * (4 * k - 1) * m**k)


def _r_a6(n, m):
    return Fraction(8 * (4 * n + 1) * _c2(n)**2 * _c4(n), (n + 1) * m**n)


def _t_a7(k, m):
    return Fraction(((1728 - m) * k**3 - 864 * k**2 - 48 * k + 24)
                    * _c2(k) * _c3(k) * _c63(k),
                    (2 * k - 1) * (6 * k - 1) * m**k)


def _r_a7(n, m):
    return Fraction(24 * (6 * n + 1) * _c2(n) * _c3(n) * _c63(n), m**n)


def _t_a8(k, m):
    return Fraction(((1728 - m) * k**3 - (864 + m) * k**2 - 48 * k + 24)
                    * _c2(k) * _c3(k) * _c63(k),
                    (k + 1) * (2 * k - 1) * (6 * k - 1) * m**k)


def _r_a8(n, m):
    return Fraction(24 * (6 * n + 1) * _c2(n) * _c3(n) * _c63(n),
                    (n + 1) * m**n)


# Upward families (reciprocal central binomials); sums start at 1 or 2.

def _t_b1(k, m):
    return Fraction(m**k * ((m - 64) * k**3 - 32 * k**2 + 16 * k + 8),
                    (2 * k + 1)**2 * k**3 * _c2(k)**3)


def _r_b1(n, m):
    return Fraction(m**(n + 1), (2 * n + 1)**2 * _c2(n)**3) - m


def _t_b2(k, m):
    return Fraction(m**k * ((m - 64) * k**3 - 96 * k**2 - 48 * k - 8),
                    (2 * k + 1)**3 * k**3 * _c2(k)**3)


def _r_b2(n, m):
    return Fraction(m**(n + 1), (2 * n + 1)**3 * _c2(n)**3) - m


def _t_b3(k, m):
    return Fraction(m**k * ((m - 108) * k**3 - 54 * k**2 + 12 * k + 6),
                    (2 * k + 1) * (3 * k + 1) * k**3 * _c2(k)**2 * _c3(k))


def _r_b3(n, m):
    return Fraction(m**(n + 1),
                    (2 * n + 1) * (3 * n + 1) * _c2(n)**2 * _c3(n)) - m


def _t_b4(k, m):
    return Fraction(m**k * ((m - 108) * k**3 - (54 + m) * k**2 + 12 * k + 6),
                    (k - 1) * (2 * k + 1) * (3 * k + 1) * k**3
                    * _c2(k)**2 * _c3(k))


def _r_b4(n, m):
    return (Fraction(m**(n + 1),
                     n * (2 * n + 1) * (3 * n + 1) * _c2(n)**2 * _c3(n))
            - Fraction(m**2, 144))


def _t_b5(k, m):
    return Fraction(m**k * ((m - 256) * k**3 - 128 * k**2 + 16 * k + 8),
                    (2 * k + 1) * (4 * k + 1) * k**3 * _c2(k)**2 * _c4(k))


def _r_b5(n, m):
    return Fraction(m**(n + 1),
                    (2 * n + 1) * (4 * n + 1) * _c2(n)**2 * _c4(n)) - m


def _t_b6(k, m):
    return Fraction(m**k * ((m - 256) * k**3 - (128 + m) * k**2 + 16 * k + 8),
                    (k - 1) * (2 * k + 1) * (4 * k + 1) * k**3
                    * _c2(k)**2 * _c4(k))


def _r_b6(n, m):
    return (Fraction(m**(n + 1),
                     n * (2 * n + 1) * (4 * n + 1) * _c2(n)**2 * _c4(n))
            - Fraction(m**2, 360))


def _t_glaisher(k, m):
    return Fraction((4 * k - 1) * _c2(k)**4, (2 * k - 1)**4 * 256**k)


def _r_glaisher(n, m):
    return Fraction(-(8 * n**2 + 4 * n + 1) * _c2(n)**4, 256**n)


#: family -> (first k, summand, closed partial sum)
ORACLE = {
    "L21_1": (0, _t_a1, _r_a1), "L21_2": (0, _t_a2, _r_a2),
    "L21_3": (0, _t_a3, _r_a3), "L21_4": (0, _t_a4, _r_a4),
    "L21_5": (0, _t_a5, _r_a5), "L21_6": (0, _t_a6, _r_a6),
    "L21_7": (0, _t_a7, _r_a7), "L21_8": (0, _t_a8, _r_a8),
    "L22_1": (1, _t_b1, _r_b1), "L22_2": (1, _t_b2, _r_b2),
    "L22_3": (1, _t_b3, _r_b3), "L22_4": (2, _t_b4, _r_b4),
    "L22_5": (1, _t_b5, _r_b5), "L22_6": (2, _t_b6, _r_b6),
    "GLAISHER": (0, _t_glaisher, _r_glaisher),
}


def _registry_ms():
    """family -> the m of every bundled registry entry of that family."""
    out = {}
    for e in corpus.select(corpus.load_default(), kind="FINITE_IDENTITY"):
        name, args = e.family
        out.setdefault(name, []).extend(args)
    return out


class TestOracle:
    @pytest.mark.parametrize("fam", sorted(ORACLE))
    def test_table_matches_oracle(self, fam):
        k0, term, rhs = ORACLE[fam]
        ms = _registry_ms().get(fam, []) + [1, -1, -640320 ** 3]
        for m in ms:
            for k in range(k0, 61):
                assert ox.family_term(fam, k, m) == term(k, m), (fam, m, k)
                assert ox.family_rhs(fam, k, m) == rhs(k, m), (fam, m, k)

    def test_every_telescoping_family_has_an_oracle(self):
        assert {n for n, f in ei.FAMILIES.items()
                if f.telescoping is not None} == set(ORACLE)
        assert set(ORACLE) <= set(_registry_ms())

    @pytest.mark.parametrize("fam,m,perturb", [
        ("L21_1", -64, "const"),
        ("L21_7", -640320 ** 3, "weight"),
        ("L22_4", -27, "const"),
        ("L22_6", -144, "weight"),
        ("GLAISHER", None, "weight"),
        ("GLAISHER", None, "const"),
    ])
    def test_off_by_one_is_caught(self, monkeypatch, fam, m, perturb):
        entry = ei.FAMILIES[fam]
        good = entry.telescoping

        def broken(m):
            ident = good(m)
            if perturb == "const":
                return replace(ident, const=ident.const + 1)
            w = ident.summand.weight
            summand = replace(ident.summand, weight=w[:-1] + (w[-1] + 1,))
            return replace(ident, summand=summand)

        assert ei.check_family(fam, m, 12).ok
        monkeypatch.setitem(ei.FAMILIES, fam, replace(entry,
                                                      telescoping=broken))
        rep = ei.check_family(fam, m, 12)
        k0 = ORACLE[fam][0]
        # a wrong constant shows at once; a wrong top weight coefficient
        # changes the summand from k = 1 on (from k0 when k0 > 0)
        assert rep.first_failure == (k0 if perturb == "const"
                                     else max(k0, 1))
        assert rep.checked == rep.first_failure - k0
        assert rep.detail.startswith("partial=")

    def test_sun_finite_step_sees_a_wrong_summand(self, monkeypatch):
        entry = ei.FAMILIES["GLAISHER"]
        ident = entry.telescoping(None)
        broken = replace(ident, summand=replace(ident.summand,
                                                weight=(-1, 5)))
        assert ei.check_sun_finite_step(12).ok
        monkeypatch.setitem(ei.FAMILIES, "GLAISHER", replace(
            entry, telescoping=lambda m: broken))
        assert ei.check_sun_finite_step(12).first_failure == 1


class TestTelescopingFamilies:
    def test_single_term_base_case(self):
        # k=0 term of the second downward family is (-8)(-1)^3 = 8
        assert ox.family_term("L21_2", 0, -64) == 8
        assert ox.family_rhs("L21_2", 0, -64) == 8

    def test_l21_1_closed_form_value(self):
        assert ox.family_rhs("L21_1", 3, -64) == Fraction(8 * 7 * comb(6, 3) ** 3,
                                                          (-64) ** 3)
        assert ox.family_rhs("L21_1", 3, -64) == Fraction(-875, 512)

    @pytest.mark.parametrize("fam,ms", [
        ("L21_1", [-64, 256]),
        ("L21_2", [-64, 256, -512, 4096]),
        ("L21_3", [-192, 216, -1728, 1458]),
        ("L21_4", [-192, 216]),
        ("L21_5", [648, -1024]),
        ("L21_6", [648, -1024]),
        ("L21_7", [8000, -32768, -640320 ** 3]),
        ("L21_8", [8000, -640320 ** 3]),
    ])
    def test_l21_families(self, fam, ms):
        for m in ms:
            assert ei.check_family(fam, m, 40).ok, (fam, m)

    @pytest.mark.parametrize("fam,ms", [
        ("L22_1", [16, -64]),
        ("L22_2", [-8, -64]),
        ("L22_3", [8, -27, 64]),
        ("L22_4", [8, -27]),
        ("L22_5", [81, -144]),
        ("L22_6", [81, -144]),
    ])
    def test_l22_families(self, fam, ms):
        for m in ms:
            assert ei.check_family(fam, m, 40).ok, (fam, m)

    def test_glaisher_small(self):
        # n=1: LHS = -1 + 3*16/256 = -13/16
        assert ox.family_term("GLAISHER", 0) + ox.family_term("GLAISHER", 1) \
            == Fraction(-13, 16)
        assert ox.family_rhs("GLAISHER", 1) == Fraction(-13, 16)
        assert ei.check_family("GLAISHER", None, 60).ok

    def test_sun_finite_step(self):
        assert ei.check_sun_finite_step(60).ok

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            ei.check_family("L21_1", 0, 10)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ei.check_family("NOPE", 1, 10)

    def test_broken_identity_detected(self):
        # sanity: a wrong m-slot combination must fail quickly, proving the
        # checker can actually see failures
        rep = ei.check_family("L21_1", -64, 5)
        assert rep.ok
        # perturb: compare family 1 sums against family 2 closed form
        partial = sum(ox.family_term("L21_1", k, -64) for k in range(3))
        assert partial != ox.family_rhs("L21_2", 2, -64)


class TestIntegerSnk:
    """s_{n,k} and t_n in integers, against their Fraction oracles."""

    def test_rows_equal_the_fraction_rows(self):
        # every s_{n,k} the finite checks read: n <= 2 * 150 + 2
        for n in range(303):
            row = ei.snk_row(n, n // 2)
            assert all(type(s) is int for s in row)
            assert row == ox.snk_row(n, n // 2), n

    def test_t_equals_the_fraction_sum(self):
        s = [ei.snk_row(m, m // 2) for m in range(63)]
        f = [ox.snk_row(m, m // 2) for m in range(63)]
        for n in range(31):
            t = ei.tsmall_direct(n, lambda m, k: s[m][k])
            assert type(t) is int
            assert t == ox.tsmall_direct(n, lambda m, k: f[m][k]), n

    def test_inexact_division_raises(self, monkeypatch):
        real = ei.snk_scaled

        def bumped(n, k_max):
            return [t + (k == 3) for k, t in enumerate(real(n, k_max))]

        monkeypatch.setattr(ei, "snk_scaled", bumped)
        with pytest.raises(ArithmeticError,
                           match=r"s_\(9,3\) is not an integer"):
            ei.snk_row(9, 4)
        with pytest.raises(ArithmeticError, match="is not an integer"):
            ei.check_franel_transform(5)

    def test_checks_see_a_changed_s(self, monkeypatch):
        # s_{n,1} one too large from n = 4 on: both checks fail at n = 4
        real = ei.snk_row

        def bumped(n, k_max):
            return [s + (k == 1 and n >= 4) for k, s in
                    enumerate(real(n, k_max))]

        monkeypatch.setattr(ei, "snk_row", bumped)
        rep = ei.check_sn_expansion(-2, 2, 8)
        assert (rep.family, rep.first_failure) == ("SN4C", 4)
        assert ei.check_franel_transform(8).first_failure is not None


class TestFranelTransform:
    def test_small_values(self):
        rep = ei.check_franel_transform(30)
        assert rep.ok

    def test_shared_snk_gives_the_same_t(self):
        calls = []

        def s(n, k):
            calls.append((n, k))
            return ei.snk_row(n, k)[k]

        for n in range(12):
            assert ei.tsmall_direct(n, s) == ox.tsmall_direct(n, ox.snk)
        assert len(calls) == 66   # every s_{n+k,k}, 0 < k <= n < 12

    def test_report_text(self):
        rep = ei.check_franel_transform(30)
        assert (rep.family, rep.checked, rep.first_failure) == \
            ("FRANEL_SF_TF", 31, None)

    @pytest.mark.parametrize("n_max", [0, 1, 2])
    def test_small_bounds(self, n_max):
        rep = ei.check_franel_transform(n_max)
        assert (rep.family, rep.checked, rep.first_failure) == \
            ("FRANEL_SF_TF", n_max + 1, None)

    def test_negative_bound(self):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            ei.check_franel_transform(-1)

    def test_u_first_values(self):
        f0 = ox.snk(0, 0)
        assert 4 ** 0 * f0 == 1


class TestSnExpansion:
    def test_small_sweep(self):
        assert ei.check_sn_expansion(-6, 6, 12).ok

    def test_n1_c_minus6(self):
        # S_1(4,-6) = 2*T_0*T_1 = 8
        assert ei._sn_bc(4, -6, 1) == 8


class TestSklBound:
    def test_boundary(self):
        assert ox.snk(1, 0) == 1  # equals the bound at k=0, l=1

    def test_sweep(self):
        assert ei.check_skl_bound(25, 25).ok

    @staticmethod
    def rational_oracle(k_max: int, l_max: int) -> ei.CheckReport:
        """The check as it was: every s_{k+l,k} a Fraction from snk."""
        for k in range(k_max + 1):
            for l in range(1, l_max + 1):
                if ox.snk(k + l, k) > \
                        (2 * k + 1) * 4 ** k * l * comb(k + l, l):
                    return ei.CheckReport("SKL_BOUND", (k, l), 0,
                                          first_failure=k,
                                          detail=f"k={k} l={l}")
        return ei.CheckReport("SKL_BOUND", (k_max, l_max),
                              (k_max + 1) * l_max)

    def test_integer_totals_match_snk(self):
        # C(n,k) s_{n,k} for the 1640 pairs of the registry's (40, 40)
        for n in range(1, 81):
            row = ei.snk_scaled(n, min(n - 1, 40))
            for k in range(max(0, n - 40), min(n - 1, 40) + 1):
                assert row[k] == ox.snk(n, k) * comb(n, k), (n, k)

    @pytest.mark.parametrize("k_max, l_max", [(1, 1), (7, 3), (3, 9),
                                              (40, 40)])
    def test_against_rational_oracle(self, k_max, l_max):
        assert ei.check_skl_bound(k_max, l_max) == \
            self.rational_oracle(k_max, l_max)

    def test_registry_detail(self):
        (row,) = corpus.run(corpus.load_default(), "skl-bound").rows
        assert (row.outcome, row.detail) == ("PASS", "checked 1640")

    def test_first_failure_in_k_then_l_order(self, monkeypatch):
        # inflate s_{8,3} (k=3, l=5) and s_{11,2} (k=2, l=9): the first
        # failure is the smaller k, though its n is the larger
        real_scaled, real_snk = ei.snk_scaled, ox.snk
        bumped = {(8, 3), (11, 2)}

        def scaled(n, k_max):
            return [t + 10 ** 40 * ((n, k) in bumped)
                    for k, t in enumerate(real_scaled(n, k_max))]

        def snk(n, k):
            return real_snk(n, k) + Fraction(10 ** 40 * ((n, k) in bumped),
                                             comb(n, k))

        monkeypatch.setattr(ei, "snk_scaled", scaled)
        monkeypatch.setattr(ox, "snk", snk)
        rep = ei.check_skl_bound(10, 10)
        assert rep == self.rational_oracle(10, 10)
        assert (rep.ok, rep.first_failure, rep.detail) == (False, 2, "k=2 l=9")

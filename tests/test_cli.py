from __future__ import annotations

import itertools
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from piseries import corpus
from piseries import sereval
from piseries import seqkit as sk
from piseries.cli import _fmt_weight, main


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _untimed(text: str) -> str:
    return re.sub(r" +\d+\.\d\ds ", " <t> ", text)


class TestRunReport:
    def test_workers_is_gone(self, capsys):
        code, out, err = _run(capsys, ["run", "--filter", "1.5", "--digits",
                                       "20", "--workers", "2"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --workers" in err

    def test_report_is_run(self, capsys):
        argv = ["--filter", "1.5", "--digits", "20"]
        code_run, out_run, _ = _run(capsys, ["run"] + argv)
        code_rep, out_rep, _ = _run(capsys, ["report"] + argv)
        assert code_run == code_rep == 0
        assert _untimed(out_rep) == _untimed(out_run)
        assert out_run.split()[:2] == ["1.5", "PASS"]

    def test_report_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.tsv"
        code, out, _ = _run(capsys, ["report", "--filter", "1.5", "--digits",
                                     "20", "--format", "tsv", "--out",
                                     str(path)])
        assert code == 0 and out == ""
        rows = path.read_text().splitlines()
        assert rows[0].split("\t")[:4] == ["id", "kind", "status", "outcome"]
        assert rows[1].split("\t")[:4] == ["1.5", "SERIES", "proven", "PASS"]

    @pytest.mark.parametrize("argv", [
        ["run", "--filter", "1.5", "--digits", "12"],
        ["report", "--filter", "1.5", "--digits", "12", "--format", "tsv"],
        ["verify", "exact", "--id", "l21-1-*", "--nmax", "20"],
    ])
    def test_stdout_and_out_file_hold_the_same_bytes(self, capsys,
                                                     monkeypatch, tmp_path,
                                                     argv):
        # one clock reading for every row, so that two runs print the same
        monkeypatch.setattr(corpus, "time",
                            SimpleNamespace(monotonic=lambda: 0.0))
        code, out, _ = _run(capsys, argv)
        assert code == 0 and out.endswith("\n") and not out.endswith("\n\n")
        if argv[0] != "verify":
            path = tmp_path / "out.txt"
            code, printed, _ = _run(capsys, argv + ["--out", str(path)])
            assert (code, printed) == (0, "")
            assert path.read_bytes() == out.encode()

    # a path that cannot be read or written is a usage error (exit 2),
    # not a traceback with the exit code of a failed proven claim
    def test_registry_directory_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = _run(capsys, ["run", "--registry", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 21] Is a directory: ")

    def test_registry_not_utf8_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("entry caf\xe9\n".encode("latin-1"))
        code, out, err = _run(capsys, ["run", "--registry", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not UTF-8 text (")

    def test_out_directory_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = _run(capsys, ["run", "--filter", "1.5", "--digits",
                                       "12", "--out", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 21] Is a directory: ")

    # a kind or status that no entry can have is a usage error, not an
    # empty report
    @pytest.mark.parametrize("option, value, allowed", [
        ("--kind", "series", "'SERIES', 'CONGRUENCE', 'FINITE_IDENTITY',"
                             " 'INTEGRALITY', 'SKIP'"),
        ("--status", "proved", "'proven', 'conjectural'"),
    ])
    def test_kind_and_status_are_choices(self, capsys, option, value,
                                         allowed):
        code, out, err = _run(capsys, ["run", option, value, "--digits",
                                       "12"])
        assert (code, out) == (2, "")
        assert f"argument {option}: invalid choice: '{value}'" \
            f" (choose from {allowed})" in err


class TestVerifySeries:
    """``verify series`` prints the SERIES rows of ``run``."""

    @pytest.mark.parametrize("ident, digits, row", [
        ("1.79", 12, "PASS <t>  gap<1e-14 terms=72"),
        # conjectural failures: a FAIL row with its gap, and exit 0
        ("1.72-alt", 20, "FAIL <t>  gap<1e20 terms=3"),
        ("1.24-verbatim", 20, "FAIL <t>  gap<1e-3 terms=8"),
        ("7.1", 20, "FAIL <t>  error: DivergentError('no moment certificate"
                    " available; cannot evaluate this series')"),
    ])
    def test_rows(self, capsys, ident, digits, row):
        code, out, err = _run(capsys, ["verify", "series", "--id", ident,
                                       "--digits", str(digits)])
        assert (code, err) == (0, "")
        assert _untimed(out) == f"{ident}  {row}\n-- 1 entries:" \
            f" {row.split()[0]}=1\n"

    def test_is_run_of_the_series(self, capsys):
        code, out, _ = _run(capsys, ["verify", "series", "--id", "1.7*",
                                     "--digits", "20"])
        code_run, out_run, _ = _run(capsys, ["run", "--kind", "SERIES",
                                             "--filter", "1.7*", "--digits",
                                             "20"])
        assert code == code_run == 0
        assert _untimed(out) == _untimed(out_run)

    def test_counts(self, capsys):
        code, out, _ = _run(capsys, ["run", "--kind", "SERIES", "--digits",
                                     "20"])
        assert code == 0
        assert out.splitlines()[-1] == "-- 240 entries: CONSISTENT=113," \
            " EVALUATED=2, FAIL=3, PASS=122"

    def test_no_match_is_a_usage_error(self, capsys):
        code, out, err = _run(capsys, ["verify", "series", "--id", "nomatch"])
        assert (code, out) == (2, "")
        assert err == "error: no series entry matches 'nomatch'\n"

    # a proven series that fails, or whose evaluation raises, sets exit 1
    @pytest.mark.parametrize("term, rhs, detail", [
        ("4*k+1 ; - ; CB2^3 ; m=-64 ; k0=0", "3*INV_PI",
         "gap<1e0 terms=55"),
        ("1 ; - ; D ; m=16 ; k0=0", "1",
         "error: DivergentError('no moment certificate available; cannot"
         " evaluate this series')"),
    ])
    def test_failing_proven_series(self, capsys, tmp_path, term, rhs,
                                   detail):
        path = tmp_path / "s.txt"
        path.write_text("entry s\nkind: SERIES\nstatus: proven\n"
                        f"term: {term}\nrhs: {rhs}\nanchor: \"x\"\nend\n")
        code, out, _ = _run(capsys, ["verify", "series", "--registry",
                                     str(path), "--digits", "12"])
        assert code == 1
        assert _untimed(out) == f"s  FAIL <t>  {detail}\n" \
            "-- 1 entries: FAIL=1\n"


class TestVerifyCongruence:
    # rows printed by the per-prime path, recorded before it was shared
    # with congruence.verify_claim
    @pytest.mark.parametrize("ident, rows", [
        ("I5-zero", ["5\tok\t0\t0", "13\tok\t0\t0", "17\tok\t0\t0",
                     "29\tok\t0\t0"]),
        ("log-a-p", ["5\tok\t11\t11", "7\tok\t30\t30", "11\tok\t44\t44",
                     "13\tok\t148\t148", "17\tok\t143\t143",
                     "19\tok\t291\t291", "23\tok\t48\t48",
                     "29\tok\t217\t217"]),
        ("rem3.1-b", ["5\tFAIL\t15\t10", "7\tok\t21\t21", "11\tFAIL\t44\t77",
                      "13\tok\t39\t39", "17\tFAIL\t17\t272",
                      "19\tok\t247\t247", "23\tFAIL\t138\t391",
                      "29\tFAIL\t87\t754"]),
    ])
    def test_rows(self, capsys, ident, rows):
        code, out, _ = _run(capsys, ["verify", "congruence", "--id", ident,
                                     "--pmax", "30"])
        # rem3.1-b is conjectural: its failures do not set the exit code
        assert code == 0
        assert out == "".join(f"{ident}\t{r}\n" for r in rows)

    # vh-d is proven and admits no prime <= 5: verify congruence once
    # printed nothing and exited 0, while run printed FAIL [] and exited 1
    def test_nothing_tested_fails_on_both_paths(self, capsys):
        code, out, _ = _run(capsys, ["run", "--filter", "vh-d", "--pmax",
                                     "5"])
        assert code == 1
        assert _untimed(out).startswith("vh-d  FAIL <t>  no prime tested\n")
        code, out, _ = _run(capsys, ["verify", "congruence", "--id", "vh-d",
                                     "--pmax", "5"])
        assert (code, out) == (1, "vh-d\t-\tFAIL\tno prime tested\t-\n")

    def test_rows_in_run_order_with_runs_exit_code(self, capsys):
        # quadform, refinement and sum rows of one corpus.run report: the
        # sum rows (ids ending in -p) one line per prime, the others as
        # run's rows
        argv = ["--pmax", "20", "--nmax", "2"]
        code, out, _ = _run(capsys, ["verify", "congruence", "--id",
                                     "[8V]*-[qp]*"] + argv)
        run_code, run_out, _ = _run(capsys, ["run", "--filter",
                                             "[8V]*-[qp]*", "--format",
                                             "tsv", "--kind", "CONGRUENCE"]
                                    + argv)
        rows = [line.split("\t") for line in run_out.splitlines()[1:]]
        lines = [line.split("\t") for line in out.splitlines()]
        assert code == run_code
        assert list(dict.fromkeys(r[0] for r in lines)) == \
            [r[0] for r in rows]
        assert [r for r in lines if r[1] == "-"] == \
            [[r[0], "-", r[3], r[5], "-"] for r in rows
             if not r[0].endswith("-p")]
        assert {r[0] for r in lines if r[1] != "-"} == \
            {r[0] for r in rows if r[0].endswith("-p")}

    # an id that two --registry files give is refused, as load_default
    # refuses it across the bundled files (once both rows ran)
    def test_id_given_by_two_registries(self, capsys, tmp_path):
        paths = []
        for name, selector in (("a.txt", "crhs: 1*Lp(3)"),
                               ("b.txt", "case: always ; zero")):
            path = tmp_path / name
            path.write_text("entry dup\nkind: CONGRUENCE\nstatus: proven\n"
                            "term: 1 ; - ; CB2 ; m=1 ; k0=0\n"
                            f"{selector}\nanchor: \"x\"\nend\n")
            paths += ["--registry", str(path)]
        code, out, err = _run(capsys, ["verify", "congruence"] + paths)
        assert (code, out) == (2, "")
        assert err == f"registry error: duplicate id 'dup' across" \
            f" {paths[1]} and {paths[3]}\n"

    def test_bad_registry_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("entry bad\nkind: CONGRUENCE\nstatus: conjectural\n"
                        "term: 1 ; - ; CB2^2 ; m=16 ; k0=0\ncrhs: 1\n"
                        "upper: p+1\nanchor: \"x\"\nend\n")
        code, out, err = _run(capsys, ["run", "--registry", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("registry error: line 6:")
        assert "bad upper 'p+1'" in err

    # a non-integral base under dual: (once read as m = 32), and a k0 that
    # is not an integer (once a ValueError traceback)
    @pytest.mark.parametrize("term, extra", [
        ("1 ; - ; T(1,1)*Z ; m=65/2 ; k0=0", "dual: d=3 ; D=-96"),
        ("1 ; - ; CB2^2 ; m=16 ; k0=x", "crhs: 1"),
    ])
    def test_bad_integer_is_a_usage_error(self, capsys, tmp_path, term,
                                          extra):
        path = tmp_path / "bad.txt"
        path.write_text("entry bad\nkind: CONGRUENCE\nstatus: conjectural\n"
                        f"term: {term}\n{extra}\nanchor: \"x\"\nend\n")
        code, out, err = _run(capsys, ["run", "--registry", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("registry error: line 4:")

    # an unknown case normalization (once a traceback, exit 1), and a
    # proven claim mod p^0 (once PASS, exit 0)
    @pytest.mark.parametrize("body", [
        "term: 1 ; - ; CB2^3 ; m=64 ; k0=0\n"
        "case: always ; p=x^2+y^2 ; BOGUS ; 4*x^2-2*p",
        "term: 1 ; - ; CB2^3 ; m=64 ; k0=0\nmod: p^0\ncrhs: 12345",
    ], ids=["case", "mod"])
    def test_vacuous_or_unknown_claim_is_a_usage_error(self, capsys,
                                                       tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_text("entry bad\nkind: CONGRUENCE\nstatus: proven\n"
                        f"{body}\nanchor: \"x\"\nend\n")
        code, out, err = _run(capsys, ["run", "--registry", str(path),
                                       "--pmax", "50"])
        assert (code, out) == (2, "")
        assert err.startswith("registry error: line 5:")

    # minp 2 admits p = 2, where the check would read (d|p): 8-1-q's body
    # (once a FAIL row with a ValueError and exit 0), and each crhs,
    # require and pn-delta symbol
    @pytest.mark.parametrize("body", [
        "term: 1 ; - ; T(4,1)*T(1,-1)^2 ; m=-50 ; k0=0\nminp: 2\n"
        "exclude: 5\n"
        "case: mod(20)=1,9 ; p=x^2+5*y^2 ; XY_NONNEG ; 4*x^2-2*p\n"
        "case: mod(20)=3,7 ; 2p=x^2+5*y^2 ; XY_NONNEG ; 2*x^2-2*p\n"
        "case: L(-5)=-1 ; zero",
        "term: 1 ; - ; CB2^3 ; m=64 ; k0=0\nminp: 2\ncase: always ; zero",
        "term: 1 ; - ; CB2^2 ; m=16 ; k0=0\nminp: 2\ncrhs: 1*L(-1)",
        "term: 1 ; - ; CB2^2 ; m=16 ; k0=0\nminp: 2\ncrhs: 1*Lp(3)",
        "term: 1 ; - ; CB2^2 ; m=16 ; k0=0\nminp: 2\ncrhs: 1\n"
        "require: L(-1)=1",
        "term: 1 ; - ; CB2^2 ; m=16 ; k0=0\nminp: 2\ncheck: refinement\n"
        "pn-delta: L(-1)",
    ], ids=["8-1-q", "case", "crhs-L", "crhs-Lp", "require", "pn-delta"])
    def test_minp_two_with_a_character_is_a_usage_error(self, capsys,
                                                        tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_text("entry bad\nkind: CONGRUENCE\nstatus: conjectural\n"
                        f"{body}\nanchor: \"x\"\nend\n")
        code, out, err = _run(capsys, ["run", "--registry", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("registry error: line 5:")
        assert "minp 2 admits p = 2" in err

    # a refinement with delta = 1 reads no character, so minp 2 tests p = 2
    # too: the symbol of no d is 1 there
    def test_minp_two_refinement_without_a_character(self, capsys,
                                                     tmp_path):
        path = tmp_path / "pn2.txt"
        path.write_text("entry pn2\nkind: CONGRUENCE\nstatus: conjectural\n"
                        "term: 1 ; - ; CB2^2 ; m=9 ; k0=0\nminp: 2\n"
                        "check: refinement\npn-delta: 1\nanchor: \"x\"\nend\n")
        code, out, err = _run(capsys, ["run", "--registry", str(path),
                                       "--nmax", "3"])
        assert (code, err) == (0, "")
        assert "pn2  FAIL <t>  [(2, 1, -2), (2, 2, -4), (2, 3, -2)]\n" \
            in _untimed(out)

    # Lp(d) is (p|d), a Jacobi symbol for a positive odd d only: an even
    # d in crhs or a case guard once read as a FAIL row with a ValueError
    @pytest.mark.parametrize("body", [
        "crhs: 1*Lp(4)", "crhs: 1*p*Lp(-3)", "crhs: 1*Lp(0)",
        "case: Lp(8)=1 ; zero", "case: mod(4)=1 Lp(-3)=1 ; zero",
    ])
    def test_lp_needs_a_positive_odd_d(self, capsys, tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_text("entry bad\nkind: CONGRUENCE\nstatus: proven\n"
                        "term: 1 ; - ; CB2^2 ; m=16 ; k0=0\n"
                        f"{body}\nanchor: \"x\"\nend\n")
        code, out, err = _run(capsys, ["run", "--registry", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("registry error: line 5: Lp(")
        assert "needs positive odd d" in err

    # no character read at p: p = 2 is checked; p = 2 excluded: the
    # character is read from p = 5 on (sum_{k<p} C(2k,k) = (p|3) mod p^2)
    @pytest.mark.parametrize("extra, verdict", [
        ("crhs: 1", "FAIL <t>  [(2, 3, 1), (3, 0, 1), (5, 24, 1)]"),
        ("crhs: 1*Lp(3)\nexclude: 2", "SUPPORTED <t>  6 primes"),
    ])
    def test_minp_two_without_a_character(self, capsys, tmp_path, extra,
                                          verdict):
        path = tmp_path / "ok.txt"
        path.write_text("entry ok\nkind: CONGRUENCE\nstatus: conjectural\n"
                        "term: 1 ; - ; CB2 ; m=1 ; k0=0\nminp: 2\n"
                        f"{extra}\nanchor: \"x\"\nend\n")
        code, out, err = _run(capsys, ["run", "--registry", str(path),
                                       "--pmax", "20"])
        assert (code, err) == (0, "")
        assert f"ok  {verdict}\n" in _untimed(out)


class TestVerifyExact:
    def test_no_match_is_a_usage_error(self, capsys):
        code, out, err = _run(capsys, ["verify", "exact", "--id", "nomatch"])
        assert (code, out) == (2, "")
        assert err == "error: no finite_identity entry matches 'nomatch'\n"

    def test_id_selects_entries(self, capsys):
        code, out, _ = _run(capsys, ["verify", "exact", "--id", "l21-1-*",
                                     "--nmax", "20"])
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()[:2]] \
            == ["l21-1-a", "l21-1-b"]
        assert "-- 2 entries: PASS=2" in out

    def test_run_filter_may_match_nothing(self, capsys):
        code, out, err = _run(capsys, ["run", "--filter", "nomatch"])
        assert (code, err) == (0, "")
        assert out.startswith("-- 0 entries")

    def test_family(self, capsys):
        code, out, _ = _run(capsys, ["verify", "exact", "--family",
                                     "glaisher", "--nmax", "20"])
        assert code == 0
        assert _untimed(out) == "GLAISHER  PASS <t>  checked 21\n" \
                                "-- 1 entries: PASS=1\n"

    def test_family_is_a_registry_row(self, capsys, tmp_path):
        # --family L21_7 --m M is the row of a proven entry whose family
        # line is "L21_7 ; m=M"
        m = "-262537412640768000"
        code, out, _ = _run(capsys, ["verify", "exact", "--family", "l21_7",
                                     "--m", m, "--nmax", "30"])
        path = tmp_path / "f.txt"
        path.write_text("entry L21_7\nkind: FINITE_IDENTITY\nstatus: proven\n"
                        f"family: L21_7 ; m={m}\nanchor: \"x\"\nend\n")
        code_run, out_run, _ = _run(capsys, ["run", "--registry", str(path),
                                             "--nmax", "30"])
        assert code == code_run == 0
        assert _untimed(out) == _untimed(out_run)
        assert "L21_7  PASS <t>  checked" in _untimed(out)

    # n_max = 1 checks n = 0 and 1: the bound is too small, not wrong
    @pytest.mark.parametrize("argv, ident", [
        (["run", "--filter", "franel-transform"], "franel-transform"),
        (["verify", "exact", "--family", "FRANEL_TRANSFORM"],
         "FRANEL_TRANSFORM"),
    ])
    def test_franel_transform_at_nmax_one(self, capsys, argv, ident):
        code, out, err = _run(capsys, argv + ["--nmax", "1"])
        assert (code, err) == (0, "")
        assert _untimed(out) == f"{ident}  PASS <t>  checked 2\n" \
                                "-- 1 entries: PASS=1\n"

    # l22-4 and l22-6 sum from k0 = 2, so n_max = 1 compares no n: once
    # read as PASS checked 0
    def test_family_that_checks_no_n_fails(self, capsys):
        code, out, err = _run(capsys, ["run", "--kind", "FINITE_IDENTITY",
                                       "--nmax", "1"])
        assert (code, err) == (1, "")
        failed = [line.split()[0] for line in _untimed(out).splitlines()
                  if line.endswith("FAIL <t>  no n checked")]
        assert failed == ["l22-4", "l22-6"]
        assert "-- 24 entries: FAIL=2, PASS=22" in out
        code, out, err = _run(capsys, ["verify", "exact", "--family", "L22_4",
                                       "--m", "-27", "--nmax", "1"])
        assert (code, err) == (1, "")
        assert _untimed(out) == "L22_4  FAIL <t>  no n checked\n" \
                                "-- 1 entries: FAIL=1\n"

    # w1-n starts at n = 2: once read as SUPPORTED n<= 1
    def test_integrality_that_checks_no_n_fails(self, capsys):
        code, out, err = _run(capsys, ["run", "--filter", "w1-n",
                                       "--nmax", "1"])
        assert (code, err) == (0, "")   # w1-n is conjectural
        assert _untimed(out) == "w1-n  FAIL <t>  no n checked\n" \
                                "-- 1 entries: FAIL=1\n"

    def test_unknown_family(self, capsys):
        code, out, err = _run(capsys, ["verify", "exact", "--family",
                                       "nosuch"])
        assert (code, out, err) == (2, "", "error: unknown family 'NOSUCH'\n")

    # the registry reader's messages for the family line --family builds
    @pytest.mark.parametrize("extra", [[], ["--m", "0"]])
    def test_family_needs_m(self, capsys, extra):
        code, out, err = _run(capsys, ["verify", "exact", "--family",
                                       "l21_1"] + extra)
        line = " ; ".join(["L21_1"] + [f"m={m}" for m in extra[1:]])
        assert (code, out, err) == (2, "", "error: family L21_1 needs"
                                    f" m=<non-zero integer>, got {line!r}\n")

    @pytest.mark.parametrize("family, message", [
        ("glaisher", "family GLAISHER takes no parameters, got"
                     " 'GLAISHER ; m=5'"),
        ("sn_expansion", "family SN_EXPANSION needs args=<integer>,<integer>,"
                         " got 'SN_EXPANSION ; m=5 ; args=-10,10'"),
    ])
    def test_family_without_m_refuses_it(self, capsys, family, message):
        code, out, err = _run(capsys, ["verify", "exact", "--family", family,
                                       "--m", "5"])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_sn_expansion_range(self, capsys):
        # c from -10 to 10, n from 0 to 7: 21 * 8 checks
        code, out, _ = _run(capsys, ["verify", "exact", "--family",
                                     "sn_expansion", "--nmax", "7"])
        assert code == 0
        assert _untimed(out) == "SN_EXPANSION  PASS <t>  checked 168\n" \
                                "-- 1 entries: PASS=1\n"

    @pytest.mark.parametrize("family", ["L21_1 ; m=-129/2", "L21_9 ; m=-64",
                                        "SN_EXPANSION ; args=1,x",
                                        "GLAISHER ; m=3"])
    def test_bad_family_line_is_a_usage_error(self, capsys, tmp_path,
                                              family):
        path = tmp_path / "f.txt"
        path.write_text("entry f\nkind: FINITE_IDENTITY\nstatus: proven\n"
                        f"family: {family}\nanchor: \"x\"\nend\n")
        code, out, err = _run(capsys, ["run", "--registry", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("registry error: line 4:")


class TestDiscover:
    def test_found_block_parses(self, capsys):
        # the abstract's sum (3k+1) S_k(1,25) / (-100)^k = 25 / (8 pi)
        code, out, err = _run(capsys, ["discover", "--seq", "S(1,25)", "--m",
                                       "-100", "--digits", "40"])
        assert (code, err) == (0, "")
        assert "term: 24*k+8 ; - ; S(1,25) ; m=-100 ; k0=0\n" in out
        (entry,) = corpus.parse_registry(out)
        assert entry.series.rhs.addends == ((25, 1, "INV_PI"),)

    def test_vanishing_sum(self, capsys):
        # (22742k - 307) T_k(62,9025) / 5184^k sums to 0; its block carries
        # the zero closed form, and m as it was given, and reads back
        code, out, err = _run(capsys, ["discover", "--seq", "T(62,9025)",
                                       "--m", "2^6*3^4", "--digits", "30"])
        assert (code, err) == (0, "")
        assert "term: 22742*k-307 ; - ; T(62,9025) ; m=2^6*3^4 ; k0=0\n" \
            in out
        assert "\nrhs: 0\n" in out
        (entry,) = corpus.parse_registry(out)
        assert entry.series.rhs.addends == ()
        assert sereval.verify_series_identity(entry.series, 30).passed

    def test_discovered_id_names_the_relation(self, capsys, monkeypatch):
        # one search prints the same block each time, however far apart
        # its runs are; two relations get two ids, so their blocks read
        # back as one registry
        clock = itertools.count(1.7e9, 1000.0)
        monkeypatch.setattr(time, "time", lambda: next(clock))
        abstract = ["discover", "--seq", "S(1,25)", "--m", "-100",
                    "--digits", "40"]
        vanishing = ["discover", "--seq", "T(62,9025)", "--m", "2^6*3^4",
                     "--digits", "30"]
        outs = [_run(capsys, argv)[1]
                for argv in (abstract, vanishing, abstract)]
        assert outs[0] == outs[2]
        ids = [out.splitlines()[0] for out in outs[:2]]
        assert all(re.fullmatch(r"entry discovered-[0-9a-f]{12}", i)
                   for i in ids)
        assert ids[0] != ids[1]
        entries = corpus.parse_registry(outs[0] + outs[1])
        assert [e.ident for e in entries] == [i[6:] for i in ids]

    def test_huge_m_is_not_found(self, capsys):
        # m has 1.8 million digits: every term past k = 0 is below the
        # search precision, so no relation can be seen (the sum is not 1)
        code, out, err = _run(capsys, ["discover", "--seq", "CB2^3",
                                       "--m=-2^6000000"])
        assert (code, err) == (0, "")
        assert out == "NOT FOUND: no search ran: every moment sum equals" \
            " its first term at the search precision\n"

    def test_huge_parameter_is_written_as_given(self, capsys):
        # b = 2^15000 has 4516 digits, which str() refuses: the sequence is
        # written as it was given, like m, and the block reads back
        code, out, err = _run(capsys, ["discover", "--seq", "T(2^15000,1)",
                                       "--m", "2^15002", "--digits", "20"])
        assert (code, err) == (0, "")
        assert " ; - ; T(2^15000,1) ; m=2^15002 ; k0=0\n" in out
        (entry,) = corpus.parse_registry(out)
        assert entry.series.spec.seq == ((sk.GCT(2 ** 15000, 1), 1),)
        assert entry.series.spec.m == 2 ** 15002

    @pytest.mark.parametrize("argv, reason", [
        # Franel sums alone are not a rational multiple of 1/pi
        (["--seq", "F", "--m", "-400", "--digits", "30", "--basis",
          "1*INV_PI"], "no integer relation within the norm bound"),
        # 20-digit balls are too wide for a norm bound of 10^18
        (["--seq", "CB2^3", "--m", "-64", "--digits", "20", "--max-norm",
          "1000000000000000000"],
         "the search ran out of precision before it could exclude a"
         " relation within the norm bound"),
    ], ids=["none", "precision-exhausted"])
    def test_not_found_says_why(self, capsys, argv, reason):
        code, out, err = _run(capsys, ["discover", *argv])
        assert (code, out, err) == (0, f"NOT FOUND: {reason}\n", "")

    def test_not_found_after_a_failed_re_verification(self, capsys,
                                                      monkeypatch):
        # the search finds the relation of the abstract's series, and its
        # re-verification (made to fail here, in the gap test that every
        # verification ends in) refuses it
        seen = []

        def refuse(series, terms, rhs, digits):
            seen.append(digits)
            return sereval.SeriesReport(False, 1, 0, terms)

        monkeypatch.setattr(sereval, "_gap_report", refuse)
        code, out, err = _run(capsys, ["discover", "--seq", "S(1,25)", "--m",
                                       "-100", "--digits", "40", "--basis",
                                       "1*INV_PI"])
        assert (code, err, seen) == (0, "", [60])
        assert out == "NOT FOUND: a found relation failed re-verification" \
            " at 60 digits\n"

    @pytest.mark.parametrize("weight,text", [
        ((-307, 22742), "22742*k-307"),
        ((8, 24), "24*k+8"),
        ((1, -1), "-k+1"),
        ((0, 0, -1), "-k^2"),
        ((-7, 0, 0, 3), "3*k^3-7"),
        ((Fraction(4, 27), Fraction(-5, 9)), "-5/9*k+4/27"),
        ((-1,), "-1"),
        ((0,), "0"),
    ])
    def test_weight_is_written_with_its_signs(self, weight, text):
        assert _fmt_weight(weight) == text
        assert corpus._weight(text, 1) == weight

    def test_scan_sums_the_moments_once(self, capsys, monkeypatch):
        # a bare basis name tries 15 multipliers sqrt(d); the moments do
        # not depend on d, so the search sums them once for all of them
        calls = []
        real = sereval.Moments

        def spy(spec, degree, digits, *args):
            calls.append(digits)
            return real(spec, degree, digits, *args)

        monkeypatch.setattr(sereval, "Moments", spy)
        code, out, err = _run(capsys, ["discover", "--seq", "F", "--m",
                                       "-400", "--digits", "30"])
        assert (code, err) == (0, "")
        assert out == "NOT FOUND: no integer relation within the norm bound\n"
        assert calls == [30]

    @pytest.mark.parametrize("m", ["__import__('os').getpid()", "1.5", "k",
                                   "1/0"])
    def test_bad_m(self, capsys, m):
        code, out, err = _run(capsys, ["discover", "--seq", "CB2^3", "--m", m])
        assert code == 2 and out == ""
        assert "bad --seq/--m" in err

    @pytest.mark.parametrize("basis, message", [
        ("x*INV_PI", "bad --basis entry 'x*INV_PI'"),
        ("", "--basis '' names no constant"),
        (",", "--basis ',' names no constant"),
    ])
    def test_bad_basis(self, capsys, basis, message):
        code, out, err = _run(capsys, ["discover", "--seq", "CB2^3", "--m",
                                       "-64", "--digits", "30", "--basis",
                                       basis])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    # sqrt(d) NAME and sqrt(d') NAME with d d' a square are rationally
    # dependent, so PSLQ would find that relation and call it a discovery
    @pytest.mark.parametrize("basis, pair", [
        ("PI,PI", "1*PI and 1*PI"), ("2*PI,8*PI", "2*PI and 8*PI"),
        ("3*INV_PI,5*INV_PI,12*INV_PI", "3*INV_PI and 12*INV_PI")])
    def test_dependent_basis(self, capsys, basis, pair):
        code, out, err = _run(capsys, ["discover", "--seq", "CB2^3", "--m",
                                       "-64", "--digits", "30", "--basis",
                                       basis])
        assert (code, out) == (2, "")
        assert err == f"error: basis entries {pair} are rational multiples" \
            " of each other\n"

    @pytest.mark.parametrize("seq", ["T3(1,1)", "CLF", "P(-1/4)"])
    def test_removed_kinds(self, capsys, seq):
        code, out, err = _run(capsys, ["discover", "--seq", seq, "--m",
                                       "100"])
        assert (code, out) == (2, "")
        assert err.startswith("error: bad --seq/--m: line 0:")

    def test_zero_m(self, capsys):
        code, out, err = _run(capsys, ["discover", "--seq", "CB2^3", "--m",
                                       "0"])
        assert (code, out) == (2, "")
        assert "bad --seq/--m" in err and "m must be nonzero" in err

    def test_divergent_series(self, capsys):
        code, out, err = _run(capsys, ["discover", "--seq", "CB2^3", "--m",
                                       "3/2", "--digits", "30"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "cannot evaluate" in err


class TestNumericArguments:
    @pytest.mark.parametrize("argv", [
        ["verify", "congruence", "--integrality", "--id", "w1-n", "--nmax",
         "0"],
        ["verify", "congruence", "--integrality", "--id", "w1-n", "--nmax",
         "-3"],
        ["verify", "congruence", "--id", "log-a-p", "--pmax", "0"],
        ["verify", "exact", "--family", "glaisher", "--nmax", "-1"],
        ["verify", "series", "--id", "1.5", "--digits", "0"],
        ["run", "--filter", "1.5", "--digits", "0"],
        ["run", "--filter", "1.5", "--pmax", "-5"],
        ["run", "--filter", "1.5", "--nmax", "0"],
        ["discover", "--seq", "S(1,25)", "--m", "-100", "--digits", "0"],
        ["discover", "--seq", "CB2^3", "--m", "-64", "--digits", "30",
         "--max-norm", "0"],
        ["discover", "--seq", "CB2^3", "--m", "-64", "--digits", "30",
         "--max-norm", "-7"],
        ["discover", "--seq", "CB2^3", "--m", "-64", "--digits", "30",
         "--degree", "-1"],
        ["discover", "--seq", "CB2^3", "--m", "-64", "--digits", "30",
         "--k0", "-1"],
        # d = 0 once searched forever, a = 0 divided by zero
        ["quadform", "represent", "--p", "5", "--d", "0"],
        ["quadform", "represent", "--p", "5", "--d", "-3"],
        ["quadform", "represent", "--d", "1", "--p", "5", "--a", "0"],
        ["quadform", "represent", "--d", "1", "--p", "5", "--mu", "0"],
        # p = 0 once printed 1*0 = 1*0^2 + 1*0^2, p = -5 "no solution"
        ["quadform", "represent", "--d", "1", "--p", "0"],
        ["quadform", "represent", "--d", "1", "--p", "-5"],
    ])
    def test_out_of_range_is_a_usage_error(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert f"argument {argv[-2]}:" in err

    def test_degree_zero_is_accepted(self, capsys):
        # a constant weight: sum a_k/(-64)^k is no rational multiple of
        # 1/pi, so the search ends without a relation, not in a usage error
        code, out, err = _run(capsys, ["discover", "--seq", "CB2^3", "--m",
                                       "-64", "--digits", "30", "--degree",
                                       "0", "--max-norm", "100"])
        assert (code, err) == (0, "")
        assert out.startswith("NOT FOUND")

    def test_degree_above_three(self, capsys):
        # once reported as the weight of the term spec the search builds
        code, out, err = _run(capsys, ["discover", "--seq", "CB2^3", "--m",
                                       "-64", "--digits", "30", "--degree",
                                       "4"])
        assert (code, out) == (2, "")
        assert err == "error: degree must be <= 3, got 4\n"

    @pytest.mark.parametrize("digits", ["12", "15"])
    def test_discover_below_search_precision(self, capsys, digits):
        code, out, err = _run(capsys, ["discover", "--seq", "S(1,25)", "--m",
                                       "-100", "--digits", digits])
        assert (code, out) == (2, "")
        assert err == f"error: digits must be >= 16, got {digits}\n"


class TestQuadform:
    def test_represent(self, capsys):
        code, out, err = _run(capsys, ["quadform", "represent", "--mu", "2",
                                       "--d", "1", "--p", "17"])
        assert (code, err) == (0, "")
        assert out.splitlines() == ["2*17 = 1*5^2 + 1*3^2",
                                    "2*17 = 1*3^2 + 1*5^2"]


class TestClosedPipe:
    def test_closed_stdout_exits_quietly(self):
        # the reader closes its end before the first row is written, as
        # ``piseries verify series | head`` does once head has its lines
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from piseries.cli import main;"
             " sys.exit(main(sys.argv[1:]))",
             "verify", "series", "--id", "1.7*", "--digits", "20"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        try:
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""

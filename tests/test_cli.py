from __future__ import annotations

import re

import pytest

from piseries.cli import main


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _untimed(text: str) -> str:
    return re.sub(r" +\d+\.\d\ds ", " <t> ", text)


class TestRunReport:
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

    def test_bad_registry_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("entry bad\nkind: CONGRUENCE\nstatus: conjectural\n"
                        "term: 1 ; - ; CB2^2 ; m=16 ; k0=0\ncrhs: 1\n"
                        "upper: p+1\nanchor: \"x\"\nend\n")
        code, out, err = _run(capsys, ["run", "--registry", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("registry error: line 6:")
        assert "bad upper 'p+1'" in err


class TestVerifyExact:
    def test_family(self, capsys):
        code, out, _ = _run(capsys, ["verify", "exact", "--family",
                                     "glaisher", "--nmax", "20"])
        assert (code, out) == (0, "GLAISHER\tPASS\tchecked 21\n")

    def test_unknown_family(self, capsys):
        code, _, err = _run(capsys, ["verify", "exact", "--family", "nosuch"])
        assert code == 2 and "unknown family" in err

    @pytest.mark.parametrize("extra", [[], ["--m", "0"]])
    def test_family_needs_m(self, capsys, extra):
        code, out, err = _run(capsys, ["verify", "exact", "--family",
                                       "l21_1"] + extra)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "needs a nonzero m" in err


class TestDiscover:
    @pytest.mark.parametrize("m", ["__import__('os').getpid()", "1.5", "k",
                                   "1/0"])
    def test_bad_m(self, capsys, m):
        code, out, err = _run(capsys, ["discover", "--seq", "CB2^3", "--m", m])
        assert code == 2 and out == ""
        assert "bad --seq/--m" in err

    def test_divergent_series(self, capsys):
        code, out, err = _run(capsys, ["discover", "--seq", "CB2^3", "--m",
                                       "3/2", "--digits", "30"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "cannot evaluate" in err

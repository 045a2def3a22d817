from __future__ import annotations

import ast
import dataclasses
import hashlib
import os
import random
import re
import subprocess
import sys
import textwrap
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from piseries import corpus, sereval

#: sha256 of the parsed payload of every bundled registry entry, in order
#: (see ``_payload``).  It pins the parser: a change to how any number,
#: weight, template or field is read changes it.
PAYLOAD_DIGEST = \
    "cad98113d8de09e1c1e50a95cd299863459052377cac3dd7d04b1247190cb9ca"


def _payload(e: corpus.RegistryEntry) -> tuple:
    integ = e.integrality
    if integ is not None:
        integ = (integ.weight, integ.seq, integ.base, integ.div, integ.alt,
                 integ.odd_set, integ.positive, integ.mul, integ.div_base,
                 integ.div_exp, integ.n_min)
    return (e.ident, e.kind, e.status, e.anchor, e.covers, e.series,
            e.counterpart, e.variant, e.claim, e.quadform, e.duality,
            e.dual_term, e.check, e.family, e.reason,
            e.raw.get("_spec"), integ)


def render_entry(entry: corpus.RegistryEntry) -> str:
    """Canonical text for an entry (stable under parse -> render): the
    common keys, then the keys of its check path in ``corpus._PATHS``
    order."""
    needs, reads, _ = corpus._PATHS[entry.check]
    raw = dict(entry.raw, kind=entry.kind, status=entry.status)
    if entry.kind != "SKIP" or entry.anchor:
        raw["anchor"] = f'"{entry.anchor}"'
    out = [f"entry {entry.ident}"]
    for key in ("kind", "covers", "status", "variant") + needs + reads \
            + ("anchor",):
        if key in raw:
            out += [f"{key}: {v}" for v in
                    (raw[key] if key == "case" else [raw[key]])]
    return "\n".join(out + ["end"]) + "\n"


@pytest.fixture(scope="module")
def entries():
    return corpus.load_default()


class TestRegistryPayload:
    def test_payload_digest(self, entries):
        assert len(entries) == 479
        h = hashlib.sha256()
        for e in entries:
            h.update(repr(_payload(e)).encode())
        assert h.hexdigest() == PAYLOAD_DIGEST

    def test_render_round_trip(self, entries):
        for e in entries:
            (back,) = corpus.parse_registry(render_entry(e))
            assert _payload(back) == _payload(e), e.ident

    def test_every_paper_label_is_covered(self, entries):
        assert len(set(PAPER_LABELS)) == 173
        covered = {label for e in entries for label in e.covers}
        assert [lab for lab in PAPER_LABELS if lab not in covered] == []


_SERIES = """\
entry bad
kind: SERIES
status: conjectural
term: {weight} ; - ; CB2^3 ; m={m} ; k0=0
rhs: none
anchor: "x"
end
"""

_QUADFORM = """\
entry bad
kind: CONGRUENCE
status: conjectural
term: 1 ; - ; CB2^2*T(8,-2) ; m=256 ; k0=0
case: mod(8)=1 ; p=x^2+4*y^2 ; Y_HALF_PARITY:Y_HALF ; 4*x^2-2*p
case: mod(8)=5 ; p=x^2+4*y^2 ; XY_HALF_PARITY:XY_HALF ; {template}
anchor: "x"
end
"""

_SPLIT_1009 = """\
entry split-1009
kind: CONGRUENCE
status: conjectural
term: 1 ; - ; CB2^3 ; m=64 ; k0=0
case: mod(4)=1 L(1009)=1 ; p=x^2+y^2 ; Y_HALF_PARITY ; 4*x^2-2*p
case: mod(4)=1 L(1009)=-1 ; p=x^2+y^2 ; Y_HALF_PARITY ; 4*x^2-2*p
case: mod(4)=3 ; zero
anchor: "x"
end
"""

_CONGRUENCE = """\
entry bad
kind: CONGRUENCE
status: conjectural
term: 4*k+1 ; - ; CB2^3 ; m=-64 ; k0=0
mod: p^3
crhs: 1*p*L(-1)
upper: {upper}
anchor: "x"
end
"""

_INTEGRALITY = """\
entry bad
kind: INTEGRALITY
status: conjectural
term: {weight} ; - ; D ; m=64 ; k0=0
idiv: {idiv}
anchor: "x"
end
"""

_FINITE = """\
entry bad
kind: FINITE_IDENTITY
status: proven
family: {family}
anchor: "x"
end
"""

_DUAL = """\
entry bad
kind: CONGRUENCE
status: conjectural
term: 1 ; - ; {seq} ; m=32 ; k0=0
{key}: {value}
anchor: "x"
end
"""

#: every label of the paper that an entry or a SKIP record must cover
PAPER_LABELS = (
    [f"1.{i}" for i in range(1, 89)] + [f"S{i}" for i in range(1, 11)]
    + [f"2.{i}" for i in range(1, 17)] + ["g-20"]
    + [f"conj{sec}.{i}" for sec, count in ((3, 12), (4, 16), (5, 5), (6, 6),
                                           (7, 5), (8, 7), (9, 4), (10, 3))
       for i in range(1, count + 1)])


class TestCounterparts:
    """Each ``counterpart: q * <id>`` line holds: this sum is q times the
    other's, |A - q B| < 10^-30 for their certified balls, read in integers
    at one exponent.  A is summed at 30 digits, radius below 10^-32, and B
    at as many more as q's numerator has, so that q times B's radius stays
    below 10^-32 too."""

    def test_s1_to_s10_are_paired(self, entries):
        paired = [e.ident for e in entries if e.counterpart is not None]
        assert paired == [f"S{i}" for i in range(1, 11)]

    @pytest.mark.parametrize("ident", [f"S{i}" for i in range(1, 11)])
    def test_relation_holds(self, entries, ident):
        by_id = {e.ident: e for e in entries}
        q, other = by_id[ident].counterpart
        a, b = q.numerator, q.denominator
        A = sereval.eval_series(by_id[ident].series.spec, 30)
        B = sereval.eval_series(by_id[other].series.spec,
                                30 + len(str(abs(a))))
        e = max(A.exp, B.exp)
        am, ar = A.mid << e - A.exp, A.rad << e - A.exp
        bm, br = B.mid << e - B.exp, B.rad << e - B.exp
        # |b A - a B| over b 2^e, with both radii added
        gap = abs(b * am - a * bm) + b * ar + abs(a) * br
        assert gap * 10 ** 30 < b << e


def _render_seq(seq) -> str:
    """The ``term:`` sequence field that ``corpus._seq`` reads back as
    ``seq``."""
    tags = {tag: name for name, tag in corpus._SEQ_NAMES.items()}
    parts = []
    for kind, e in seq:
        name = tags[kind.tag]
        if kind.params:
            name += "(" + ",".join(str(p) for p in kind.params) + ")"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) or "-"


class TestSequenceNames:
    # one sample factor per registry name, written as _render_seq writes it
    @pytest.mark.parametrize("text", [
        name + {"T": "(3,-2)", "T2": "(1,4)", "S": "(1,25)",
                "P": "(-20)"}.get(name, "") + "^2"
        for name in sorted(corpus._SEQ_NAMES)])
    def test_round_trip(self, text):
        seq = corpus._seq(text, 1)
        assert _render_seq(seq) == text

    def test_every_registry_seq(self, entries):
        for e in entries:
            if "term" in e.raw:
                field = e.raw["term"].split(";")[2].strip()
                seq = corpus._seq(field, 1)
                assert corpus._seq(_render_seq(seq), 1) == seq, e.ident

    @pytest.mark.parametrize("text", ["SBC(1,25)", "GCT(1,2)", "DOMB",
                                      "T(1)", "S(1/2,3)", "CB2(1)", "P",
                                      "X"])
    def test_rejected(self, text):
        with pytest.raises(corpus.CorpusError):
            corpus._seq(text, 1)

    # no entry reads GCT3 or CLF, and P's one argument is an integer
    @pytest.mark.parametrize("factor, why", [
        ("T3(1,1)", "unknown sequence factor"),
        ("CLF", "unknown sequence factor"),
        ("P(-1/4)", "P takes one integer"),
    ])
    def test_removed_kinds_name_their_line(self, factor, why):
        text = _DUAL.format(seq=factor, key="dual-term", value="d=- ; D=-8")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 4
        assert why in str(exc.value) and repr(factor) in str(exc.value)


class TestRunner:
    @pytest.mark.parametrize("status", corpus.STATUSES)
    @pytest.mark.parametrize("ident", ["1.5", "log-a-p", "I5-q", "ds-z1",
                                       "dt-t", "VI1-pn", "8-1-n", "l21-1-a"])
    def test_outcome_rule(self, entries, ident, status):
        # every check path reads PASS only for a proven entry
        (e,) = [e for e in entries if e.ident == ident]
        text = re.sub(r"^status: .*$", f"status: {status}",
                      render_entry(e), flags=re.M)
        (entry,) = corpus.parse_registry(text)
        (row,) = corpus.run([entry], digits=12, p_max=40, n_max=2).rows
        expected = "PASS" if status == "proven" else \
            "CONSISTENT" if e.kind == "SERIES" else "SUPPORTED"
        assert (row.outcome, row.status) == (expected, status), row.detail

    # the two-square table with its split case cut in two by (1009|p): no
    # guard holds at p = 1009, which divides L = 4036.  The proof names
    # the gap at every p_max, where a partition check of p <= 1000 once
    # read SUPPORTED; from 1009 on the claim's own NO_CASE row shows it.
    @pytest.mark.parametrize("p_max, detail", [
        (100, "partition gaps [(1009, 0, 1)]"),
        (300, "partition gaps [(1009, 0, 1)]"),
        (1008, "partition gaps [(1009, 0, 1)]"),
        (1100, "failures [(1009, 'NO_CASE', None)]"),
    ])
    def test_partition_gap_past_1000(self, p_max, detail):
        (entry,) = corpus.parse_registry(_SPLIT_1009)
        (row,) = corpus.run([entry], p_max=p_max).rows
        assert (row.outcome, row.detail) == ("FAIL", detail)

    def test_runs_in_calling_thread(self, entries, monkeypatch):
        seen = []
        real = corpus._run_entry

        def spy(entry, *args):
            seen.append(threading.get_ident())
            return real(entry, *args)

        monkeypatch.setattr(corpus, "_run_entry", spy)
        rep = corpus.run(entries, id_glob="l21-1-*", n_max=10)
        assert [r.ident for r in rep.rows] == ["l21-1-a", "l21-1-b"]
        assert seen == [threading.get_ident()] * 2

    def test_select(self, entries):
        picked = corpus.select(entries, "8-1-*", "INTEGRALITY", "conjectural")
        assert picked and all(e.ident.startswith("8-1-")
                              and e.kind == "INTEGRALITY" for e in picked)
        assert corpus.select(entries) == entries
        assert corpus.select(entries, "8-1-*", "SERIES") == []


class TestNumbers:
    @pytest.mark.parametrize("text, value", [
        ("-640320^3", -640320 ** 3), ("-2^10", -1024), ("(-2)^3", -8),
        ("-25/16", Fraction(-25, 16)), ("3*160^3/2", 3 * 160 ** 3 // 2),
        ("+7", 7), ("1/2/3", Fraction(1, 6)), ("0^0", 1), ("0^7", 0),
    ])
    def test_rational(self, text, value):
        assert corpus._rational(text, 1) == value

    @pytest.mark.parametrize("text, coeffs", [
        ("1", (1,)), ("0", (0,)), ("k-k", (0,)), ("42*k+5", (5, 42)),
        ("(4*k+1)^2", (1, 8, 16)), ("k^3/2-k", (0, -1, 0, Fraction(1, 2))),
        ("-(k+1)*(k-1)", (1, 0, -1)), ("(k+1)^3", (1, 3, 3, 1)),
        ("(k^3)^1", (0, 0, 0, 1)), ("(2*k)^0", (1,)),
    ])
    def test_weight(self, text, coeffs):
        got = corpus._weight(text, 1)
        assert got == coeffs
        assert all(type(c) is int for c, w in zip(got, coeffs)
                   if Fraction(w).denominator == 1)

    @pytest.mark.parametrize("text, coeffs", [
        ("4*x^2-2*p", (4, 0, -2)), ("8*x*y", (0, 8, 0)),
        ("-(2*x^2-p)", (-2, 0, 1)), ("x*x/2 + y*x", (Fraction(1, 2), 1, 0)),
    ])
    def test_template(self, text, coeffs):
        assert corpus._template(text, 1) == coeffs


class TestPowers:
    """A constant is raised to its power in one step, and a power of a
    non-constant above degree 3 is refused before any product: each
    returns or fails at once, whatever the exponent."""

    @staticmethod
    def _timed(f, *args):
        start = time.perf_counter()
        try:
            return f(*args)
        finally:
            assert time.perf_counter() - start < 1

    _CONSTANTS = [
        ("-2^200000", -2 ** 200000), ("(2/3)^5000", Fraction(2, 3) ** 5000),
        ("(1-1)^3000", 0), ("(-1)^100001", -1),
    ]

    @pytest.mark.parametrize("text, value", _CONSTANTS,
                             ids=[text for text, _ in _CONSTANTS])
    def test_constant_power(self, text, value):
        got = self._timed(corpus._rational, text, 1)
        assert got == value and type(got) is Fraction

    def test_huge_base_of_a_term(self):
        # as `piseries discover --m` reads it
        spec = self._timed(corpus._term_spec,
                           "1 ; - ; CB2^3 ; m=-2^6000000 ; k0=0", 0)
        assert spec.m == -2 ** 6000000

    @pytest.mark.parametrize("weight", ["(k+1)^3000", "(k^2)^2", "k^4",
                                        "((k+1)^3)^3", "(k*(k+1))^2"])
    def test_power_above_degree_three(self, weight):
        text = _SERIES.format(weight=weight, m="-64")
        with pytest.raises(corpus.CorpusError) as exc:
            self._timed(corpus.parse_registry, text)
        assert exc.value.line == 4 and "degree above 3" in str(exc.value)

    def test_template_power(self):
        assert corpus._template("(2*x)^2 - p^1", 1) == (4, 0, -1)
        with pytest.raises(corpus.CorpusError, match="degree above 3"):
            corpus._template("(x*y)^2", 1)


class TestLateFailures:
    """Values that the reader once accepted and that failed only at check
    time (a traceback, or a FAIL row reading ``error: ...`` or ``no prime
    tested``): each is a registry error at its line."""

    def test_zero_radicand(self):
        text = _SERIES.format(weight="4*k+1", m="-64").replace(
            "rhs: none", "rhs: 2*sqrt(0)*INV_PI")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 5 and "radicand 0" in str(exc.value)

    @pytest.mark.parametrize("den, k0, zero_at", [
        ("(k-1)", 0, 1), ("(k-1)", 1, 1), ("k^2", 0, 0), ("CB2*k", 0, 0),
    ])
    def test_zero_affine_denominator(self, den, k0, zero_at):
        text = _SERIES.format(weight="1", m="-64").replace(
            "; - ; CB2^3 ; m=-64 ; k0=0", f"; {den} ; CB2^3 ; m=-64 ; k0={k0}")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 4 \
            and f"is 0 at k = {zero_at}" in str(exc.value)

    @pytest.mark.parametrize("den, k0", [
        ("(k-1)", 2), ("k", 1), ("(k+1)", 0), ("(2k-1)", 0), ("CB2", 0),
    ])
    def test_nonzero_affine_denominator(self, den, k0):
        text = _SERIES.format(weight="1", m="-64").replace(
            "; - ; CB2^3 ; m=-64 ; k0=0", f"; {den} ; CB2^3 ; m=-64 ; k0={k0}")
        (entry,) = corpus.parse_registry(text)
        assert entry.raw["_spec"].k0 == k0

    @pytest.mark.parametrize("rep", ["p=0*x^2+4*y^2", "p=x^2+0*y^2"])
    def test_zero_representation_coefficient(self, rep):
        text = _QUADFORM.format(template="4*x*y").replace("p=x^2+4*y^2", rep,
                                                          1)
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 5 and "must be positive" in str(exc.value)

    def test_zero_guard_modulus(self):
        text = _QUADFORM.format(template="4*x*y").replace("mod(8)=1",
                                                          "mod(0)=1")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 5 and "'mod(0)=1'" in str(exc.value)

    @pytest.mark.parametrize("seq, key, value", [
        ("T(1,1)*Z", "dual", "d=1 ; D=0"), ("T(1,1)*Z", "dual", "d=0 ; D=-96"),
        ("T(3,1)", "dual-term", "d=1 ; D=0"),
        ("T(3,1)", "dual-term", "d=- ; D=0"),
        ("T(3,1)", "dual-term", "d=0 ; D=5"),
    ])
    def test_zero_duality(self, seq, key, value):
        text = _DUAL.format(seq=seq, key=key, value=value)
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 5 and "non-zero" in str(exc.value)


#: more decimal digits than Python converts between int and str
_LONG = "7" * 5000


class TestLongIntegers:
    """Integers past Python's 4300-digit limit on int/str conversions:
    each one the reader reads from a run of digits is a registry error at
    its line, and a row whose numbers are that long prints, as nothing
    takes the str() of a whole one."""

    @pytest.mark.parametrize("text, line", [
        (_SERIES.format(weight="1", m="-64").replace(
            "rhs: none", f"rhs: {_LONG}*sqrt(2)*INV_PI"), 5),
        (_SERIES.format(weight="1", m="-64").replace(
            "rhs: none", f"rhs: 1/{_LONG}"), 5),
        (_SERIES.format(weight="1", m="-64").replace(
            "rhs: none", f"rhs: 1*sqrt({_LONG})"), 5),
        (_SERIES.format(weight="1", m="-64").replace("CB2^3", f"CB2^{_LONG}"),
         4),
        (_SERIES.format(weight="1", m="-64").replace(
            "; - ;", f"; (2k+1)^{_LONG} ;"), 4),
        (_CONGRUENCE.format(upper="p-1").replace("L(-1)", f"L({_LONG})"), 6),
        (_CONGRUENCE.format(upper="p-1").replace("1*p*L(-1)",
                                                 f"1*p^{_LONG}"), 6),
        (_CONGRUENCE.format(upper="p-1").replace("1*p*L(-1)",
                                                 f"1*Q({_LONG})"), 6),
        (_QUADFORM.format(template="4*x*y").replace(
            "mod(8)=1 ;", f"mod({_LONG})=1 ;"), 5),
        (_QUADFORM.format(template="4*x*y").replace(
            "mod(8)=1 ;", f"mod(8)=1,{_LONG} ;"), 5),
        (_QUADFORM.format(template="4*x*y").replace(
            "p=x^2+4*y^2 ; Y_HALF", f"p=x^2+{_LONG}*y^2 ; Y_HALF"), 5),
        (_INTEGRALITY.format(weight="1", idiv=f"div={_LONG}"), 5),
    ], ids=["rhs", "rhs-den", "sqrt", "seq-exp", "den-exp", "symbol",
            "p-power", "fermat", "modulus", "residue", "representation",
            "idiv"])
    def test_reader_refuses(self, text, line):
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == line
        assert "integer of 5000 digits is too long" in str(exc.value)

    @pytest.mark.parametrize("old, new, why", [
        ("mod(8)=1 ;", "mod(8)=1,,5 ;", "bad guard condition"),
        ("mod(8)=1 ;", "mod(8)=1, ;", "bad guard condition"),
    ])
    def test_empty_residue(self, old, new, why):
        text = _QUADFORM.format(template="4*x*y").replace(old, new)
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 5 and why in str(exc.value)

    @pytest.mark.parametrize("rhs", ["3/0*PI", "3/00"])
    def test_rhs_divided_by_zero(self, rhs):
        text = _SERIES.format(weight="1", m="-64").replace("rhs: none",
                                                           f"rhs: {rhs}")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 5 and "bad rhs addend" in str(exc.value)

    @pytest.mark.parametrize("rhs", ["none", "1"])
    def test_rows_of_a_long_sum(self, rhs):
        # sum 2^15000 / 2^(20k), of 4516 digits
        text = _SERIES.format(weight="2^15000", m="2^20").replace(
            "; CB2^3 ;", "; - ;").replace("rhs: none", f"rhs: {rhs}")
        (entry,) = corpus.parse_registry(text)
        (row,) = corpus.run([entry], digits=12).rows
        if rhs == "none":
            ball = sereval.eval_series(entry.raw["_spec"], 12)
            mid = Fraction(ball.mid, 1 << ball.exp)
            assert (row.outcome, row.detail) == (
                "EVALUATED", f"value ~ {_nstr_oracle(mid, 12)}")
            assert row.detail == "value ~ 2.81796356705e+4515"
        else:
            # the gap is the sum less 1, below 10^4516; 753 terms leave a
            # tail below 10^-14
            assert (row.outcome, row.detail) == ("FAIL",
                                                 "gap<1e4516 terms=753")


class TestMalformed:
    @pytest.mark.parametrize("weight, m", [
        ("1", "1/0"), ("k/k", "1"), ("2^k", "1"), ("k^-1", "1"),
        ("1", "1.5"), ("j*k", "1"), ("1", "n"), ("True", "1"),
        ("1", "__import__('os').getpid()"),
        ("k*__import__('os').getpid()", "1"),
        ("1", "2^(1/2)"), ("1", "abs(-3)"), ("1", "[1]"), ("1", ""),
    ])
    def test_term_line(self, weight, m):
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(_SERIES.format(weight=weight, m=m))
        assert exc.value.line == 4

    def test_zero_rhs(self):
        # the literal 0 is the closed form with no addends: the exact ball 0
        text = _SERIES.format(weight="1", m="-64").replace("rhs: none",
                                                           "rhs: 0")
        (entry,) = corpus.parse_registry(text)
        assert entry.series.rhs == sereval.RHSForm(addends=())
        ball = sereval.eval_rhs(entry.series.rhs, 20)
        assert (ball.mid, ball.rad) == (0, 0)
        (back,) = corpus.parse_registry(render_entry(entry))
        assert back.series.rhs == entry.series.rhs

    @pytest.mark.parametrize("rhs", ["0*PI", "-0*sqrt(2)*INV_PI", "0/3",
                                     "1*PI + 0"])
    def test_zero_coefficient_rhs(self, rhs):
        text = _SERIES.format(weight="1", m="-64").replace("rhs: none",
                                                           f"rhs: {rhs}")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 5 and "coefficient 0" in str(exc.value)

    @pytest.mark.parametrize("template", ["x^3", "x^2*y", "y^2", "p^2", "1",
                                          "q*x"])
    def test_template_outside_span(self, template):
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(_QUADFORM.format(template=template))
        assert exc.value.line == 6

    # guards that can never hold, once read as SUPPORTED or as NO_CASE
    # rows, and a guard modulus L past its bound: registry errors at the
    # case line
    @pytest.mark.parametrize("guard, line, why", [
        ("mod(8)=1,9", 5, "guard mod(8) has a residue not below 8"),
        ("mod(8)=1 L(0)=1", 5, "guard symbol (0|p) is 0 at every prime"),
        ("mod(8)=1 L(2503)=1", 5,
         "guard modulus L = 20024 is above 10000"),
    ])
    def test_degenerate_guard(self, guard, line, why):
        text = _QUADFORM.format(template="4*x*y").replace(
            "case: mod(8)=1 ;", f"case: {guard} ;")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == line and why in str(exc.value)

    def test_degenerate_guard_on_a_later_case_line(self):
        text = _QUADFORM.format(template="4*x*y").replace(
            "case: mod(8)=5 ;", "case: mod(8)=5 L(0)=-1 ;")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 6

    # once a ValueError traceback from QuadFormCase, exit 1
    @pytest.mark.parametrize("norm, why", [
        ("BOGUS", "unknown normalization BOGUS"),
        ("XY_NONNEG:WEIRD", "unknown sign rule WEIRD"),
        ("XY_NONNEG:Y_HALF", "Y_HALF sign needs the y-even normalization"),
    ])
    def test_bad_case_normalization(self, norm, why):
        text = _QUADFORM.format(template="4*x*y").replace(
            "Y_HALF_PARITY:Y_HALF", norm)
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 5 and why in str(exc.value)

    def test_modulus_exponent_below_one(self):
        # p^0 makes every congruence hold: it once printed PASS
        text = _CONGRUENCE.format(upper="p-1").replace("p^3", "p^0")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 5 and "'p^0'" in str(exc.value)

    @pytest.mark.parametrize("upper", ["p-1", "p-2", "(p+1)/2"])
    def test_upper_accepted(self, upper):
        (entry,) = corpus.parse_registry(_CONGRUENCE.format(upper=upper))
        assert entry.claim.upper == upper

    # (p-1)/2: no registry entry sums to it, so no check reads it
    @pytest.mark.parametrize("upper", ["p+1", "pn-1", "p", "", "(p-1)/2"])
    def test_upper_rejected(self, upper):
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(_CONGRUENCE.format(upper=upper))
        assert exc.value.line == 7 and "upper" in str(exc.value)

    @pytest.mark.parametrize("check", ["sum", "refinement"])
    def test_check_accepted(self, check):
        text = _CONGRUENCE.format(upper="p-1")
        if check == "refinement":   # which reads no crhs, mod or upper
            text = re.sub(r"mod:.*\ncrhs:.*\nupper:.*\n", "pn-delta: L(-1)\n",
                          text)
        text = text.replace("anchor:", f"check: {check}\nanchor:")
        (entry,) = corpus.parse_registry(text)
        assert entry.check == check

    @pytest.mark.parametrize("check", ["refinment", "evaluate", "Sum", ""])
    def test_check_rejected(self, check):
        text = _CONGRUENCE.format(upper="p-1").replace(
            "anchor:", f"check: {check}\nanchor:")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 8 and "check" in str(exc.value)

    def test_integrality_accepted(self):
        (entry,) = corpus.parse_registry(_INTEGRALITY.format(
            weight="5*k+1", idiv="div=2 ; mul=-3 ; div-base=4 ; div-exp=half"
                                " ; alt ; odd=none ; any-sign ; nmin=2"))
        claim = entry.integrality
        assert (claim.weight, claim.div, claim.mul, claim.div_base,
                claim.div_exp, claim.alt, claim.odd_set, claim.positive,
                claim.n_min) == ((1, 5), 2, -3, 4, "half", True, None, False,
                                 2)

    @pytest.mark.parametrize("idiv", [
        "div-exp=bogus", "odd=bogus", "odd=", "div=x", "mul=1/2", "nmin=",
        "div", "alt=1", "bogus=3", "div=2 ; odd=pow3", "div=0",
        "div-base=0 ; div-exp=n-1",
    ])
    def test_integrality_bad_idiv(self, idiv):
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(_INTEGRALITY.format(weight="1", idiv=idiv))
        assert exc.value.line == 5 and "idiv" in str(exc.value)

    @pytest.mark.parametrize("idiv, repeated", [
        ("div=2 ; div=3 ; alt ; alt", "div=3"), ("alt ; alt", "alt"),
        ("any-sign ; div=2 ; any-sign", "any-sign"),
        ("odd=none ; odd=pow2", "odd=pow2"),
        ("div-exp=half ; div-exp=half", "div-exp=half"),
        ("nmin=2 ; mul=3 ; nmin=2", "nmin=2"),
    ])
    def test_integrality_repeated_idiv_option(self, idiv, repeated):
        # as for family and dual options, a key given twice is an error
        # at its line, not the last value silently kept
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(_INTEGRALITY.format(weight="1", idiv=idiv))
        assert exc.value.line == 5
        assert f"bad idiv option {repeated!r}" in str(exc.value)

    def test_integrality_flag_takes_no_value(self):
        for idiv in ("alt=1", "any-sign=", "div=2 ; alt=true"):
            with pytest.raises(corpus.CorpusError) as exc:
                corpus.parse_registry(_INTEGRALITY.format(weight="1",
                                                          idiv=idiv))
            assert exc.value.line == 5
            assert "bad idiv option 'a" in str(exc.value)

    @pytest.mark.parametrize("weight", ["(k+1)/2", "k/3", "1/2"])
    def test_integrality_rational_weight(self, weight):
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(_INTEGRALITY.format(weight=weight,
                                                      idiv="-"))
        assert exc.value.line == 4 and "integer" in str(exc.value)

    # the bundled registry holds every family in its own spelling
    @pytest.mark.parametrize("family, parsed", [
        ("L22_6 ;m = -144", ("L22_6", (-144,))),
        ("SN_EXPANSION ; args=-2^3, 4", ("SN_EXPANSION", (-8, 4))),
    ])
    def test_family_accepted(self, family, parsed):
        (entry,) = corpus.parse_registry(_FINITE.format(family=family))
        assert entry.family == parsed

    @pytest.mark.parametrize("family, why", [
        ("L21_1 ; m=-129/2", "is not an integer"),
        ("L21_9 ; m=-64", "unknown family"),
        ("l21_1 ; m=-64", "unknown family"),
        ("SN_EXPANSION ; args=1,x", "bad expression"),
        ("SN_EXPANSION", "needs args="),
        ("SN_EXPANSION ; args=3", "needs args="),
        ("SN_EXPANSION ; args=1,2,3", "needs args="),
        ("SN_EXPANSION ; m=3", "needs args="),
        ("L21_1", "needs m="),
        ("L21_1 ; m=0", "needs m="),
        ("L21_1 ; m=", "bad expression"),
        ("L21_1 ; m=-64 ; m=-64", "bad family option"),
        ("L21_1 ; m=-64 ; args=1,2", "needs m="),
        ("L21_1 ; n=-64", "bad family option"),
        ("L21_1 ; -64", "bad family option"),
        ("GLAISHER ; m=-64", "takes no parameters"),
        ("SKL_BOUND ; args=40,40", "takes no parameters"),
    ])
    def test_family_rejected(self, family, why):
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(_FINITE.format(family=family))
        assert exc.value.line == 4 and why in str(exc.value)

    @pytest.mark.parametrize("key, value, parsed", [
        ("dual", "D=-96;d=3", (3, -96)),
        ("dual-term", "d=- ; D=-8", (None, -8)),
    ])
    def test_duality_accepted(self, key, value, parsed):
        seq = "T(1,1)*Z" if key == "dual" else "F"
        (entry,) = corpus.parse_registry(_DUAL.format(seq=seq, key=key,
                                                      value=value))
        if key == "dual":
            assert (entry.duality.d, entry.duality.D) == parsed
        else:
            assert entry.dual_term[1:] == parsed

    @pytest.mark.parametrize("key, value", [
        ("dual", "d5"), ("dual", "d=5 ; D=x"), ("dual", "d=5"),
        ("dual", "d=- ; D=5"), ("dual", "d=1/2 ; D=5"),
        ("dual", "d=5 ; D=6 ; d=5"), ("dual", "d=5 ; E=6"),
        ("dual-term", "D=5"), ("dual-term", "d=- ; D="),
        ("dual-term", "d=- ; D=-"), ("dual-term", "d=3 ; D=5 ; x"),
    ])
    def test_duality_rejected(self, key, value):
        seq = "T(1,1)*Z" if key == "dual" else "F"
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(_DUAL.format(seq=seq, key=key,
                                               value=value))
        assert exc.value.line == 5

    def test_dual_needs_integer_base(self):
        text = _DUAL.format(seq="T(1,1)*Z", key="dual",
                            value="d=3 ; D=-96").replace("m=32", "m=65/2")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 4 and "integer base" in str(exc.value)

    @pytest.mark.parametrize("old, new, line", [
        ("k0=0", "k0=x", 4), ("k0=0", "k0=1/2", 4), ("k0=0", "k0=", 4),
        ("upper: p-1", "minp: five", 7), ("upper: p-1", "minp: 7/2", 7),
        ("upper: p-1", "exclude: 7,x", 7), ("upper: p-1", "exclude: 7,1/3", 7),
    ])
    def test_integer_fields(self, old, new, line):
        text = _CONGRUENCE.format(upper="p-1").replace(old, new)
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("old, new, message", [
        ("m=-64", "m=0", "m must be nonzero"),
        ("k0=0", "k0=-1", "k0 must be >= 0, got -1"),
    ])
    def test_term_spec_rejects(self, old, new, message):
        # a TermSpec the reader would build but that TermSpec refuses is
        # a registry error at the term line, not a traceback or a FAIL row
        text = _CONGRUENCE.format(upper="p-1").replace(old, new)
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 4 and message in str(exc.value)

    def test_integer_fields_accepted(self):
        text = _CONGRUENCE.format(upper="p-1").replace(
            "upper: p-1", "minp: 7\nexclude: 11, 13,2^4+1").replace(
            "k0=0", "k0=2")
        (entry,) = corpus.parse_registry(text)
        claim = entry.claim
        assert (claim.spec.k0, claim.min_p, claim.exclude) == \
            (2, 7, (11, 13, 17))


#: one valid block per check path, after a comment line, so that its
#: ``entry`` line is 2 and its ``anchor`` line the last but one
_PATH_BLOCKS = {
    "series": "kind: SERIES\nterm: 4*k+1 ; - ; CB2^3 ; m=-64 ; k0=0\n"
              "rhs: 2*INV_PI",
    "evaluate": "kind: SERIES\nterm: 1 ; - ; CB2 ; m=8 ; k0=0\nrhs: none",
    "sum": "kind: CONGRUENCE\nterm: 4*k+1 ; - ; CB2^3 ; m=-64 ; k0=0\n"
           "mod: p^3\ncrhs: 1*p*L(-1)",
    "refinement": "kind: CONGRUENCE\nterm: 4*k+1 ; - ; CB2^3 ; m=-64 ;"
                  " k0=0\ncheck: refinement\npn-delta: L(-1)",
    "quadform": "kind: CONGRUENCE\nterm: 1 ; - ; CB2^3 ; m=64 ; k0=0\n"
                "case: always ; zero",
    "dual": "kind: CONGRUENCE\nterm: 1 ; - ; T(1,1)*Z ; m=32 ; k0=0\n"
            "dual: d=3 ; D=-96",
    "dual-term": "kind: CONGRUENCE\nterm: 1 ; - ; F ; m=32 ; k0=0\n"
                 "dual-term: d=- ; D=-8",
    "integrality": "kind: INTEGRALITY\nterm: 1 ; - ; D ; m=64 ; k0=0\n"
                   "idiv: div=2",
    "finite": "kind: FINITE_IDENTITY\nfamily: GLAISHER",
    "skip": "kind: SKIP\nreason: \"x\"",
}


def _path_block(path: str, extra: str = "") -> str:
    """The block of ``path``, with ``extra`` lines before its anchor."""
    return (f"# one entry\nentry e\nstatus: proven\n{_PATH_BLOCKS[path]}\n"
            f"{extra}anchor: \"x\"\nend\n")


class TestCheckPaths:
    def test_every_entry_names_its_path(self, entries):
        counts = {}
        for e in entries:
            counts[e.check] = counts.get(e.check, 0) + 1
        assert counts == {
            "series": 238, "evaluate": 2, "sum": 56, "refinement": 46,
            "quadform": 47, "dual": 11, "dual-term": 6, "integrality": 42,
            "finite": 24, "skip": 7}
        assert counts.keys() == corpus._PATHS.keys() == corpus._CHECKS.keys()

    @pytest.mark.parametrize("path", list(_PATH_BLOCKS))
    def test_each_block_reads(self, path):
        (entry,) = corpus.parse_registry(_path_block(path))
        assert entry.check == path

    # a key that the path does not read, once dropped in silence (a case
    # table checked mod p^2 under mod: p^3, and listed by --pn under
    # check: refinement), or a second selector
    @pytest.mark.parametrize("path, extra, why", [
        ("series", "crhs: 7", "the series check does not read 'crhs'"),
        ("evaluate", "mod: p^2", "does not read 'mod'"),
        ("sum", "pn-delta: L(-1)", "the sum check does not read 'pn-delta'"),
        ("refinement", "upper: p-2", "does not read 'upper'"),
        ("quadform", "mod: p^3", "the quadform check does not read 'mod'"),
        ("quadform", "check: refinement",
         "'check' selects a second check path beside 'case' (line 6)"),
        ("dual", "minp: 50", "the dual check does not read 'minp'"),
        ("dual", "crhs: 7", "'crhs' selects a second check path beside"
                            " 'dual' (line 6)"),
        ("dual", "case: always ; zero", "'case' selects a second check"),
        ("dual-term", "upper: p-1", "does not read 'upper'"),
        ("integrality", "minp: 7", "does not read 'minp'"),
        ("finite", "term: 1 ; - ; CB2 ; m=8 ; k0=0", "does not read 'term'"),
        ("skip", "rhs: 1", "the skip check does not read 'rhs'"),
        ("sum", "bogus: 1", "does not read 'bogus'"),
    ])
    def test_stray_key_names_its_line(self, path, extra, why):
        text = _path_block(path, extra + "\n")
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == text.count("\n") - 2
        assert why in str(exc.value)

    # a missing key once gave an error with no line; a refinement entry
    # with no pn-delta once read as a FAIL row with a ValueError
    @pytest.mark.parametrize("path, key, why", [
        ("sum", "kind", "bad kind ''"),
        ("sum", "anchor", "anchor must be a quoted string"),
        ("series", "term", "the series check needs 'term'"),
        ("series", "rhs", "the series check needs 'rhs'"),
        ("integrality", "term", "the integrality check needs 'term'"),
        ("finite", "family", "the finite check needs 'family'"),
        ("skip", "reason", "the skip check needs 'reason'"),
        ("sum", "crhs", "congruence needs crhs, case lines, dual,"),
        ("refinement", "pn-delta", "the refinement check needs 'pn-delta'"),
    ])
    def test_missing_key_names_the_entry_line(self, path, key, why):
        text = re.sub(rf"^{key}:.*\n", "", _path_block(path), flags=re.M)
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == 2 and why in str(exc.value)

    # a check that tested nothing once read FAIL with the detail [] (or
    # "failures []" for a case table)
    @pytest.mark.parametrize("ident, detail", [
        ("vh-d", "no prime tested"), ("dt-t", "no prime tested"),
        ("ds-z1", "no prime tested"), ("cb2cubed-q", "no prime tested"),
        ("VI1-pn", "no (p,n) pair checked"),
    ])
    def test_nothing_tested_is_named(self, entries, ident, detail):
        (row,) = corpus.run(entries, id_glob=ident, p_max=3, n_max=2).rows
        assert (row.outcome, row.detail) == ("FAIL", detail)

    # nmin=2 and k0 = 2: n_max = 1 checks no n; once SUPPORTED and PASS
    @pytest.mark.parametrize("ident", ["w1-n", "l22-4", "l22-6"])
    def test_no_n_checked_is_named(self, entries, ident):
        (row,) = corpus.run(entries, id_glob=ident, n_max=1).rows
        assert (row.outcome, row.detail) == ("FAIL", "no n checked")
        (row,) = corpus.run(entries, id_glob=ident, n_max=2).rows
        assert row.outcome in ("PASS", "SUPPORTED")

    def test_integrality_report_lists_its_n(self, entries):
        (row,) = corpus.run(entries, id_glob="w1-n", n_max=6).rows
        assert row.report.tested == [2, 3, 4, 5, 6]
        (row,) = corpus.run(entries, id_glob="w1-n", n_max=1).rows
        assert row.report.tested == [] and not row.report.ok

    # every key that reads a character reads Lp(d) as one Legendre symbol,
    # and refuses an even or non-positive d at its line
    @pytest.mark.parametrize("sym", ["Lp(4)", "Lp(-3)", "Lp(0)"])
    @pytest.mark.parametrize("path, old, new", [
        ("sum", "crhs: 1*p*L(-1)", "crhs: 1*p*{}"),
        ("sum", "mod: p^3", "require: {}=1"),
        ("refinement", "pn-delta: L(-1)", "pn-delta: {}"),
        ("quadform", "case: always ; zero", "case: {}=1 ; zero"),
        ("quadform", "case: always ; zero",
         "sym-factor: {}\ncase: always ; zero"),
    ])
    def test_lp_needs_a_positive_odd_d(self, path, old, new, sym):
        text = _path_block(path).replace(old, new.format(sym))
        line = text[:text.index(sym)].count("\n") + 1
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert exc.value.line == line
        assert f"{sym} needs positive odd d" in str(exc.value)

    @pytest.mark.parametrize("path, old, new, read", [
        ("sum", "crhs: 1*p*L(-1)", "crhs: 1*p*Lp({})",
         lambda e: e.claim.rhs[0].sym),
        ("sum", "mod: p^3", "require: Lp({})=1",
         lambda e: tuple(d for d, _ in e.claim.require)),
        ("refinement", "pn-delta: L(-1)", "pn-delta: Lp({})",
         lambda e: e.claim.pn_delta),
        ("quadform", "case: always ; zero", "case: Lp({})=1 ; zero",
         lambda e: tuple(d for d, _ in e.quadform.table.cases[0].guard.syms)),
        ("quadform", "case: always ; zero",
         "sym-factor: Lp({})\ncase: always ; zero",
         lambda e: e.quadform.table.sym_factor),
    ])
    def test_lp_is_read_as_one_legendre_symbol(self, path, old, new, read):
        for d, star in ((3, -3), (5, 5), (15, -15), (59, -59), (1, 1)):
            (entry,) = corpus.parse_registry(
                _path_block(path).replace(old, new.format(d)))
            assert read(entry) == (star,)

    def test_row_carries_its_report(self, entries):
        (row,) = corpus.run(entries, id_glob="log-a-p", p_max=30).rows
        assert row.report.rows[:2] == [(5, 11, 11), (7, 30, 30)]
        assert row.report.tested == [p for p, _, _ in row.report.rows]
        # kept out of equality and out of both renderings
        bare = dataclasses.replace(row, report=None)
        assert bare == row
        for fmt in ("text", "tsv"):
            assert corpus.VerificationReport([bare]).render(fmt) == \
                corpus.VerificationReport([row]).render(fmt)
        (skip,) = corpus.run(entries, id_glob="I5-trio").rows
        assert skip.report is None


def old_poly(text: str, names: tuple) -> dict:
    """The registry grammar walked in Fraction arithmetic throughout, as
    corpus read it before its walk moved to ints: the oracle."""
    import ast
    one = (0,) * len(names)

    def add(a, b, sign=1):
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0) + sign * c
        return {m: c for m, c in out.items() if c}

    def mul(a, b):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(i + j for i, j in zip(ma, mb))
                out[m] = out.get(m, 0) + ca * cb
        return add({}, out)

    def walk(node):
        op, right = getattr(node, "op", None), getattr(node, "right", None)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return add({}, {one: Fraction(node.value)})
        if isinstance(node, ast.Name) and node.id in names:
            return {tuple(int(n == node.id) for n in names): Fraction(1)}
        if isinstance(op, (ast.UAdd, ast.USub)):
            return add({}, walk(node.operand),
                       -1 if isinstance(op, ast.USub) else 1)
        if isinstance(op, ast.Pow):
            out, base = {one: Fraction(1)}, walk(node.left)
            for _ in range(right.value):
                out = mul(out, base)
            return out
        a, b = walk(node.left), walk(node.right)
        if isinstance(op, (ast.Add, ast.Sub)):
            return add(a, b, -1 if isinstance(op, ast.Sub) else 1)
        if isinstance(op, ast.Mult):
            return mul(a, b)
        return {m: c / b[one] for m, c in a.items()}

    return walk(ast.parse(text.replace("^", "**"), mode="eval").body)


def old_rational(text):
    return old_poly(text, ()).get((), Fraction(0))


def old_weight(text):
    poly = old_poly(text, ("k",))
    degree = max((m[0] for m in poly), default=0)
    coeffs = (poly.get((j,), Fraction(0)) for j in range(degree + 1))
    return tuple(int(c) if c.denominator == 1 else c for c in coeffs)


def old_template(text):
    poly = old_poly(text, ("x", "y", "p"))
    return tuple(poly.get(m, Fraction(0)) for m in corpus._TEMPLATE_MONOMIALS)


def _typed(value):
    """``value`` with the type of every number in it, for comparing both."""
    if isinstance(value, tuple):
        return tuple(_typed(v) for v in value)
    return (type(value), value)


class TestIntegerWalk:
    @pytest.fixture(scope="class")
    def reads(self):
        """Every (reader, text) that loading the bundled registry asks
        for, recorded by wrapping the three readers."""
        seen = set()
        patch = pytest.MonkeyPatch()
        for name in ("_rational", "_weight", "_template"):
            real = getattr(corpus, name)

            def spy(text, line, real=real, name=name):
                seen.add((name, text))
                return real(text, line)

            patch.setattr(corpus, name, spy)
        try:
            assert len(corpus.load_default()) == 479
        finally:
            patch.undo()
        return seen

    def test_registry_reads_match_fraction_walk(self, reads):
        oracles = {"_rational": old_rational, "_weight": old_weight,
                   "_template": old_template}
        assert {name for name, _ in reads} == set(oracles)
        for name, text in sorted(reads):
            got = getattr(corpus, name)(text, 1)
            assert _typed(got) == _typed(oracles[name](text)), (name, text)

    @pytest.mark.parametrize("text", [
        "7/2*2", "6/3", "(2*k+1)/3*3", "-7/-2", "1/(1/2)", "k^3/2-k",
        "(k/2)*(k/2)*4", "0/5", "4*x^2-2*p", "x*x/2 + y*x",
    ])
    def test_divisions_match_fraction_walk(self, text):
        names = ("k", "x", "y", "p")
        assert corpus._poly(text, names, 1) == old_poly(text, names)

    def test_exact_division_stays_int(self):
        assert _typed(corpus._poly("-12/-3*k", ("k",), 1)[(1,)]) == (int, 4)
        assert _typed(corpus._poly("7/2", (), 1)[()]) \
            == (Fraction, Fraction(7, 2))

    def test_each_distinct_expression_walked_once(self):
        corpus._walk.cache_clear()
        keys = set()
        real = corpus._poly

        def spy(text, names, line):
            keys.add((text, names))
            return real(text, names, line)

        patch = pytest.MonkeyPatch()
        patch.setattr(corpus, "_poly", spy)
        try:
            corpus.load_default()
        finally:
            patch.undo()
        info = corpus._walk.cache_info()
        assert info.misses == len(keys) < info.misses + info.hits

    def test_returned_values_do_not_change_the_memo(self):
        first = corpus._poly("4*k+1", ("k",), 1)
        first[(1,)] = 99
        first.clear()
        assert corpus._poly("4*k+1", ("k",), 2) == {(0,): 1, (1,): 4}
        assert isinstance(corpus._walk("4*k+1", ("k",)), tuple)
        (entry,) = corpus.parse_registry(_SERIES.format(weight="4*k+1",
                                                        m="-64"))
        assert entry.raw["_spec"].weight == (1, 4)

    @staticmethod
    def _error_line(*ms: str) -> int:
        """Line of the error in a registry of one SERIES entry per m."""
        text = "".join(_SERIES.format(weight="4*k+1", m=m).replace(
            "entry bad", f"entry bad{i}") for i, m in enumerate(ms))
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(text)
        assert repr(ms[-1]) in str(exc.value)
        return exc.value.line

    def test_repeated_expression_reports_its_own_line(self):
        # "4*k+1" is a valid weight at line 4, and outside the grammar of
        # a number at line 11
        assert self._error_line("-64", "4*k+1") == 11
        # an error is not memoised: the same bad number is reported at
        # line 4 in one registry and at line 11 in the next
        assert self._error_line("2^k") == 4
        assert self._error_line("-64", "2^k") == 11


def test_parse_without_sympy():
    code = textwrap.dedent("""
        import sys
        from piseries import corpus
        assert len(corpus.load_default()) == 479
        print("sympy" in sys.modules)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_mpmath_never_loaded():
    # with mpmath poisoned, any import of it raises ImportError: an
    # EVALUATED row, a PSLQ search and a rediscovery all run without it
    code = textwrap.dedent("""
        import sys
        sys.modules["mpmath"] = None
        from fractions import Fraction
        import piseries.cli, piseries.relation
        from piseries import corpus, seqkit
        from piseries.sereval import Ball, TermSpec
        entries = corpus.load_default()
        assert len(entries) == 479
        (row,) = corpus.run([e for e in entries if e.ident == "open-a"],
                            digits=40).rows
        print(row.outcome)
        res = piseries.relation.pslq([Ball(1), Ball(2)], 10, 20)
        print(res.status)
        spec = TermSpec(weight=(1,), den=(), seq=((seqkit.CB2, 3),),
                        m=Fraction(-64), k0=0)
        cand = piseries.relation.rediscover(spec, [(1, "INV_PI")],
                                            digits=40, max_norm=1000)
        print(cand.coeffs, cand.confirmed)
        print(sys.modules["mpmath"])
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["EVALUATED", "FOUND",
                                        "(4, 1, -2) True", "None"]


def test_imports_only_the_standard_library():
    # pyproject.toml declares no dependency, so the package imports none
    pkg = Path(__file__).resolve().parents[1] / "src" / "piseries"
    outside = set()
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.update(f"{path.name}: {name}" for name in names
                           if name.split(".")[0]
                           not in sys.stdlib_module_names)
    assert not outside


def _nstr_oracle(x: Fraction, digits: int) -> str:
    """How an EVALUATED row printed its value before: mpmath's nstr."""
    import mpmath
    with mpmath.workdps(digits):
        return mpmath.nstr(mpmath.mpf(x.numerator) / x.denominator, digits)


class TestDecimalText:
    @pytest.mark.parametrize("digits", [1, 2, 3, 6, 12, 15, 20, 40, 80])
    def test_matches_mpmath(self, digits):
        rng = random.Random(digits)
        values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3),
                  Fraction(2, 3), Fraction(5, 10 ** (digits + 1)),
                  1 - Fraction(1, 10 ** (digits + 1)),
                  Fraction(10 ** digits - 1), Fraction(10 ** digits)]
        for e in range(-12, 13):
            scale = Fraction(10) ** e
            values += [scale, -scale, scale * Fraction(999, 1000)]
            # a digit string ending in 5 just past the last kept digit
            values.append(scale * Fraction(rng.randrange(10 ** digits) * 10
                                           + 5, 10 ** (digits + 1)))
            values.append(scale * (1 - Fraction(1, 10 ** (digits + 2))))
            for _ in range(20):
                num = rng.randrange(1, 10 ** rng.randint(1, 50))
                den = rng.randrange(1, 10 ** rng.randint(1, 50))
                values.append(scale * Fraction(num, den)
                              * rng.choice((1, -1)))
        for x in values:
            assert corpus._nstr(x.numerator, x.denominator, digits) \
                == _nstr_oracle(x, digits), x

    @pytest.mark.parametrize("digits", [1, 2, 12, 40])
    def test_past_the_int_string_limit(self, digits):
        # values whose integer part str() refuses, past 4300 digits
        for x in (Fraction(10 ** 5000), Fraction(-3 * 10 ** 5000, 7),
                  Fraction(2 ** 15000 * 2 ** 20, 2 ** 20 - 1),
                  Fraction(10 ** 6000 - 1, 10 ** 1000),
                  Fraction(1, 10 ** 5000) * 3):
            assert corpus._nstr(x.numerator, x.denominator, digits) \
                == _nstr_oracle(x, digits), x

    @pytest.mark.parametrize("ident", ["open-a", "open-b"])
    @pytest.mark.parametrize("digits", [12, 20, 40, 80])
    def test_evaluated_rows(self, entries, ident, digits):
        (entry,) = [e for e in entries if e.ident == ident]
        spec = entry.raw["_spec"]
        ball = sereval.eval_series(spec, digits)
        mid = Fraction(ball.mid, 1 << ball.exp)
        assert corpus._evaluate(spec, digits) == \
            f"value ~ {_nstr_oracle(mid, digits)}"


def _sci_oracle(x: Fraction) -> str:
    """1e<e> for the least e with x < 10^e, found by stepping e."""
    if x == 0:
        return "0"
    e = 0
    while x >= Fraction(10) ** e:
        e += 1
    while x < Fraction(10) ** (e - 1):
        e -= 1
    return f"1e{e}"


class TestGapText:
    """The printed gap bound of gap = (units, scale), standing for
    units 10^-scale, is the least power of ten above it, found in
    integers."""

    @pytest.mark.parametrize("gap, text", [
        # 1.79 and 5.13 at 12 digits; 1e-13 before
        ((446, 17), "1e-14"), ((959, 17), "1e-14"),
        ((1, 14), "1e-13"), ((10 ** 14 - 1, 28), "1e-14"),
        ((0, 40), "0"), ((7, 0), "1e1"), ((10, 0), "1e2"),
        ((333, 3), "1e0"), ((1000, 3), "1e1")])
    def test_examples(self, gap, text):
        assert sereval._sci(*gap) == text

    def test_against_stepping(self):
        rng = random.Random(5)
        for _ in range(3000):
            units = rng.randrange(1, 10 ** rng.randint(1, 30))
            scale = rng.randint(0, 30)
            assert sereval._sci(units, scale) == \
                _sci_oracle(Fraction(units, 10 ** scale)), (units, scale)
        for e in range(-30, 31):
            # 10^e, 0.999 10^e and 1.001 10^e
            for units in (1000, 999, 1001):
                units *= 10 ** (e + 30)
                x = Fraction(units, 10 ** 33)
                assert sereval._sci(units, 33) == _sci_oracle(x), x

    @pytest.mark.parametrize("gap, text", [
        # units past str()'s 4300 digits
        ((10 ** 5000, 0), "1e5001"), ((10 ** 5000 - 1, 0), "1e5000"),
        ((10 ** 5000 + 1, 4990), "1e11"),
        ((7, 5000), "1e-4999"),
        ((2 ** 15000 * 3, 5000), "1e-484")])
    def test_past_the_int_string_limit(self, gap, text):
        assert sereval._sci(*gap) == text

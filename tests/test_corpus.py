from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from piseries import corpus

#: sha256 of the parsed payload of every bundled registry entry, in order
#: (see ``_payload``).  It pins the parser: a change to how any number,
#: weight, template or field is read changes it.
PAYLOAD_DIGEST = \
    "ca0bae0ca6c4c4f940f9e4d0d47300d6245c2f55b109dcdab3b14ba72ac138c6"


def _payload(e: corpus.RegistryEntry) -> tuple:
    integ = e.integrality
    if integ is not None:
        integ = (integ.weight, integ.seq, integ.base, integ.div, integ.alt,
                 integ.odd_set, integ.positive, integ.mul, integ.div_base,
                 integ.div_exp, integ.n_min)
    return (e.ident, e.kind, e.status, e.anchor, e.covers, e.series,
            e.counterpart, e.variant, e.claim, e.quadform, e.duality,
            e.dual_term, e.check, e.family, e.reason, e.pmax,
            e.raw.get("_spec"), integ)


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
            (back,) = corpus.parse_registry(corpus.render_entry(e))
            assert _payload(back) == _payload(e), e.ident


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


class TestNumbers:
    @pytest.mark.parametrize("text, value", [
        ("-640320^3", -640320 ** 3), ("-2^10", -1024), ("(-2)^3", -8),
        ("-25/16", Fraction(-25, 16)), ("3*160^3/2", 3 * 160 ** 3 // 2),
        ("+7", 7), ("1/2/3", Fraction(1, 6)),
    ])
    def test_rational(self, text, value):
        assert corpus._rational(text, 1) == value

    @pytest.mark.parametrize("text, coeffs", [
        ("1", (1,)), ("0", (0,)), ("k-k", (0,)), ("42*k+5", (5, 42)),
        ("(4*k+1)^2", (1, 8, 16)), ("k^3/2-k", (0, -1, 0, Fraction(1, 2))),
        ("-(k+1)*(k-1)", (1, 0, -1)),
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

    @pytest.mark.parametrize("template", ["x^3", "x^2*y", "y^2", "p^2", "1",
                                          "q*x"])
    def test_template_outside_span(self, template):
        with pytest.raises(corpus.CorpusError) as exc:
            corpus.parse_registry(_QUADFORM.format(template=template))
        assert exc.value.line == 6


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

"""Registry of series, congruences, finite identities and integrality
claims, plus the batch verification runner.

Registry files are plain-text blocks::

    entry <id>
    kind: SERIES | CONGRUENCE | FINITE_IDENTITY | INTEGRALITY | SKIP
    covers: <label>[, <label> ...]
    status: proven | conjectural
    term: <weight poly in k> ; <den factors> ; <seq factors> ; m=<m> ; k0=<int>
    ... kind-specific keys ...
    anchor: "<verbatim source quote>"
    end

Numbers are exact: rationals like ``-25/16`` and powers like ``-640320^3``
are expanded during parsing; no floats appear in a registry.  Numbers,
weights (in ``k``) and quadform templates (in span(x^2, xy, p)) share one
grammar, read off Python's syntax tree (``^`` is ``**``, ``-2^10`` is -1024)::

    expr := int | name | (expr) | +expr | -expr | expr + expr | expr - expr
          | expr * expr | expr / nonzero-constant | expr ^ int-literal>=0

Any other node (a float, a bool, a call, an unknown name) is a
``CorpusError`` with its line: nothing in a registry is evaluated as Python.
A constant is raised to its power in one step; a power of a non-constant
whose degree passes ``sereval.MAX_DEGREE`` = 3, the highest degree that any
reader accepts (a weight in k; a template is of degree 2), is an error.

The sequence factors of a ``term:`` line are ``NAME[(args)][^e]`` joined
by ``*``: ``T(b,c)``, ``T2(b,c)`` and ``S(b,c)`` take two integers,
``P(x)`` one integer, and ``CB2``, ``CB3``, ``CB4``, ``CB63``, ``CB2S``,
``CAT``, ``D``, ``F``, ``F4``, ``G``, ``Z``, ``B`` and ``W`` none.  Any
other name or argument is a ``CorpusError`` with its line.

Reading the registry is set-up that every command pays before its first
check, so the walk is kept cheap.  It works in ``int`` coefficients; a
``Fraction`` appears only where a division by a constant is inexact, and
the readers convert at their return, so the parsed values are the same as
in ``Fraction`` arithmetic.  The bundled registry repeats most of its
expressions (about 1900 read, about 640 distinct), so each distinct
expression is walked once and its coefficients kept in a bounded memo;
errors are not kept, so each one names the line that gave it.

Each entry has one check path, ``entry.check``, and the runner reads
nothing else to choose its check.  The kind names the path; a
CONGRUENCE's one selector key does.  Every entry may give ``kind``,
``status``, ``covers``, ``anchor`` and ``variant``; each path reads the
keys below, those it needs first.  Any other key, or a second selector,
is a ``CorpusError`` at its line, and a needed key that is missing is one
at the ``entry`` line.

* ``series``, ``evaluate`` (SERIES; ``evaluate`` when ``rhs: none``):
  ``term``, ``rhs`` (``q[*sqrt(d)][*BASIS]`` addends joined by `` + ``,
  q non-zero, or ``0``), ``counterpart`` (``q * <entry-id>``: this sum is
  q times another registered sum).  ``variant`` marks erratum twins.
* ``sum`` (selector ``crhs``): ``term``, ``crhs`` (addends
  ``q[*p^j][*L(d)][*Lp(d)][*E][*Q(a)]``: (d|p), (p|d), E_{p-3} and the
  Fermat quotient (a^(p-1)-1)/p), ``mod`` (``p^s``, default ``p^2``),
  ``upper`` (``p-1``, ``p-2`` or ``(p+1)/2``), ``minp``,
  ``exclude``, ``require``, ``lhs-mul``, ``check: sum``; at p <= p_max.
* ``refinement`` (selector ``check: refinement``): ``term``, ``check``,
  ``pn-delta``, ``minp``, ``exclude``, ``require``; at p <= min(p_max, 50).
* ``quadform`` (selector ``case`` lines): ``term``, ``case``, ``minp``,
  ``exclude``, ``sym-factor``; mod p^2 at p <= p_max, and the cases'
  partition of the primes proved for every prime.
* ``dual`` (selector ``dual: d=<int> ; D=<int>``, d and D non-zero, an
  integer base m that divides D): ``term``, ``dual``; at
  p <= min(p_max, 200).
* ``dual-term`` (selector ``dual-term: d=<int|-> ; D=<int>``, d and D
  non-zero): ``term``, ``dual-term``; at p <= min(p_max, 97).
* ``integrality`` (INTEGRALITY): ``term`` with an integer weight, ``idiv``
  (``div=<int> ; mul=<int> ; div-base=<int> ;
  div-exp=none|n-1|half|half-up ; alt ; odd=pow2|pow2-pos|pow2-not2|none
  ; any-sign ; nmin=<int>``).
* ``finite`` (FINITE_IDENTITY): ``family: <name>`` with exactly the
  parameters that ``exactid.FAMILIES`` gives it: ``m=<non-zero integer>``
  for L21_1..L21_8 and L22_1..L22_6 (Lemmas 2.1 and 2.2),
  ``args=<c_lo>,<c_hi>`` for SN_EXPANSION, none for the others.
* ``skip`` (SKIP): ``reason``, for a label consciously left unverified.

Every character is one Legendre symbol (d|p), in ``crhs``, ``case``,
``require``, ``pn-delta`` and ``sym-factor`` alike: ``L(d)``, or
``Lp(d)``, the Jacobi symbol (p|d) of a positive odd d, read as (d*|p)
with d* = (-1)^((d-1)/2) d (equal at every odd p by reciprocity); any
other ``Lp`` is a ``CorpusError`` at its line.  A check tests the primes
minp <= p <= p_max (minp 5 by default) outside ``exclude`` that divide
neither m nor a coefficient denominator, Fermat base or symbol d, and at
which every ``require`` holds (``congruence.tested_primes``).
A ``minp`` that admits p = 2 is an error when the check reads a quadratic
character at p: a ``case`` table, or an ``L``/``Lp`` factor in ``crhs``,
``require`` or ``pn-delta``.
"""

from __future__ import annotations

import ast
import fnmatch
import math
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import congruence as cg
from . import exactid
from . import quadform as qf
from . import sereval
from . import seqkit
from .sereval import MAX_DEGREE, RHSForm, SeriesIdentity, TermSpec

__all__ = [
    "CorpusError",
    "RegistryEntry",
    "parse_registry",
    "load",
    "load_default",
    "default_paths",
    "select",
    "run",
    "VerificationReport",
    "ReportRow",
]

DATA_DIR = Path(__file__).parent / "data"

KINDS = ("SERIES", "CONGRUENCE", "FINITE_IDENTITY", "INTEGRALITY", "SKIP")
STATUSES = ("proven", "conjectural")


class CorpusError(ValueError):
    def __init__(self, msg: str, line: Optional[int] = None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


# --------------------------------------------------------------------------
# exact scalar / polynomial parsing
# --------------------------------------------------------------------------

#: exponent tuple -> non-zero coefficient; an ``int`` unless a division
#: by a constant was inexact
_Poly = Dict[Tuple[int, ...], Union[int, Fraction]]


def _quotient(c: Union[int, Fraction], d: Union[int, Fraction]):
    """c / d, an ``int`` when both are ints and d divides c."""
    if type(c) is int and type(d) is int:
        q, r = divmod(c, d)
        if not r:
            return q
    return Fraction(c) / d


@lru_cache(maxsize=4096)
def _walk(text: str, names: Tuple[str, ...]) -> Tuple[tuple, ...]:
    """The (exponents, coefficient) pairs of ``text``'s polynomial in
    ``names``, walked over the number grammar above; nothing is evaluated
    as Python.  Raises the exception that :func:`_poly` reports."""
    one = (0,) * len(names)

    def add(a: _Poly, b: _Poly, sign: int = 1) -> _Poly:
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0) + sign * c
        return {m: c for m, c in out.items() if c}

    def mul(a: _Poly, b: _Poly) -> _Poly:
        out: _Poly = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(i + j for i, j in zip(ma, mb))
                out[m] = out.get(m, 0) + ca * cb
        return add({}, out)

    def walk(node: ast.AST) -> _Poly:
        op, right = getattr(node, "op", None), getattr(node, "right", None)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return {one: node.value} if node.value else {}
        if isinstance(node, ast.Name) and node.id in names:
            return {tuple(int(n == node.id) for n in names): 1}
        if isinstance(op, (ast.UAdd, ast.USub)):
            sign = -1 if isinstance(op, ast.USub) else 1
            return add({}, walk(node.operand), sign)
        if isinstance(op, ast.Pow) and isinstance(right, ast.Constant) \
                and type(right.value) is int and right.value >= 0:
            base, e = walk(node.left), right.value
            if base.keys() <= {one}:    # a constant, 0 included
                c = base.get(one, 0) ** e
                return {one: c} if c else {}
            if e * max(map(sum, base)) > MAX_DEGREE:
                raise ValueError(f"{ast.unparse(node)!r} has degree above"
                                 f" {MAX_DEGREE}")
            out = {one: 1}
            for _ in range(e):
                out = mul(out, base)
            return out
        if isinstance(op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            a, b = walk(node.left), walk(node.right)
            if isinstance(op, (ast.Add, ast.Sub)):
                return add(a, b, -1 if isinstance(op, ast.Sub) else 1)
            if isinstance(op, ast.Mult):
                return mul(a, b)
            if b.keys() == {one}:   # a non-zero constant divisor
                return {m: _quotient(c, b[one]) for m, c in a.items()}
        raise ValueError(f"{ast.unparse(node)!r} is outside the grammar")

    return tuple(walk(ast.parse(text.replace("^", "**"), mode="eval")
                      .body).items())


def _poly(text: str, names: Tuple[str, ...], line: int) -> _Poly:
    """Exact polynomial in ``names`` read from ``text``, as a map from
    exponent tuples to non-zero coefficients.  The map is the caller's
    own; an error is a ``CorpusError`` carrying the caller's ``line``."""
    try:   # ValueError also covers a null byte, MemoryError deep nesting
        return dict(_walk(text, names))
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        why = str(exc) or "nested too deeply"
        raise CorpusError(f"bad expression {text!r}: {why}", line) from None


def _int(digits: str, line: int) -> int:
    """``int(digits)``; past Python's 4300 digits a ``CorpusError``."""
    try:
        return int(digits)
    except ValueError:
        raise CorpusError(f"an integer of {len(digits)} digits is too long"
                          " to read", line) from None


def _rational(text: str, line: int) -> Fraction:
    """Exact rational from an expression like ``-3*160^3`` or ``-25/16``."""
    return Fraction(_poly(text, (), line).get((), 0))


def _weight(text: str, line: int) -> Tuple[Union[int, Fraction], ...]:
    """Low-to-high coefficients of a polynomial in k: an ``int`` where the
    coefficient is integral, a ``Fraction`` otherwise."""
    poly = _poly(text, ("k",), line)
    degree = max((m[0] for m in poly), default=0)
    coeffs = (Fraction(poly.get((j,), 0)) for j in range(degree + 1))
    return tuple(int(c) if c.denominator == 1 else c for c in coeffs)


_DEN_FACTOR = re.compile(
    r"^\(?(?P<tag>[1-9]?k[+-]1|k|CB2|CB3|CB4)\)?(?:\^(?P<exp>\d+))?$")

#: sequence kind tag of each registry name, as ``_seq`` reads a ``term:``
#: line
_SEQ_NAMES = {
    "CB2": "CB2", "CB3": "CB3", "CB4": "CB4", "CB63": "CB63",
    "CB2S": "CB2SHIFT", "CAT": "CATALAN", "D": "DOMB", "F": "FRANEL",
    "F4": "FRANEL4", "G": "GSEQ", "Z": "ZAGIER", "B": "BETA", "W": "WZAG",
    "T": "GCT", "T2": "GCT2", "S": "SBC", "P": "GPOLY",
}
#: the number of integer arguments of each tag that takes any
_SEQ_ARITY = {"GCT": 2, "GCT2": 2, "SBC": 2, "GPOLY": 1}
_SEQ_FACTOR = re.compile(
    r"^(?P<head>[A-Z0-9]+)(?:\((?P<args>[^()]*)\))?(?:\^(?P<exp>\d+))?$")


def _split_factors(text: str) -> List[str]:
    """Split on '*' at paren depth zero."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _den(text: str, line: int) -> Tuple[Tuple[str, int], ...]:
    if text == "-":
        return ()
    out = []
    for part in _split_factors(text):
        m = _DEN_FACTOR.match(part)
        if not m:
            raise CorpusError(f"bad denominator factor {part!r}", line)
        out.append((m.group("tag"), _int(m.group("exp") or "1", line)))
    return tuple(out)


def _seq(text: str, line: int) -> Tuple[Tuple[seqkit.SequenceKind, int], ...]:
    if text == "-":
        return ()
    out = []
    for part in _split_factors(text):
        m = _SEQ_FACTOR.match(part)
        tag = _SEQ_NAMES.get(m.group("head")) if m else None
        if tag is None:
            raise CorpusError(f"unknown sequence factor {part!r}", line)
        head, args = m.group("head"), m.group("args")
        args = [] if args is None else \
            [_rational(a, line) for a in args.split(",")]
        arity = _SEQ_ARITY.get(tag, 0)
        if len(args) != arity or any(a.denominator != 1 for a in args):
            need = ("no arguments", "one integer", "two integers")[arity]
            raise CorpusError(f"{head} takes {need}: {part!r}", line)
        kind = seqkit.SequenceKind(tag, tuple(map(int, args)))
        out.append((kind, _int(m.group("exp") or "1", line)))
    return tuple(out)


def _term_spec(text: str, line: int) -> TermSpec:
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 5:
        raise CorpusError(
            "term needs 5 ';'-separated fields: weight;den;seq;m=..;k0=..",
            line)
    if not parts[3].startswith("m=") or not parts[4].startswith("k0="):
        raise CorpusError("term fields 4 and 5 must be m=... and k0=...", line)
    weight = _weight(parts[0], line)
    if len(weight) > MAX_DEGREE + 1:
        raise CorpusError(f"weight degree above {MAX_DEGREE} is unsupported",
                          line)
    den, seq = _den(parts[1], line), _seq(parts[2], line)
    m, k0 = _rational(parts[3][2:], line), _integer(parts[4][3:], line)
    try:
        return TermSpec(weight=weight, den=den, seq=seq, m=m, k0=k0)
    except ValueError as exc:       # m = 0, k0 < 0, a zero denominator
        raise CorpusError(str(exc), line) from None


_RHS_ADDEND = re.compile(
    r"^(?P<q>-?\d+)(?:/(?P<qden>\d*[1-9]\d*))?"
    r"(?:\*sqrt\((?P<d>\d+)\))?"
    r"(?:\*(?P<basis>ONE|PI2|PI|INV_PI|CATALAN_G|K3|LOG3))?$")


def _rhs(text: str, line: int) -> Optional[RHSForm]:
    """The closed form of an ``rhs:`` line: None for ``none``, no addends
    for the literal ``0``, else addends q*sqrt(d)*basis with q nonzero."""
    if text == "none":
        return None
    if text == "0":
        return RHSForm(addends=())
    addends = []
    for part in re.split(r"\s\+\s", text):
        m = _RHS_ADDEND.match(part.strip())
        if not m:
            raise CorpusError(f"bad rhs addend {part!r}", line)
        q = Fraction(_int(m.group("q"), line),
                     _int(m.group("qden") or "1", line))
        if q == 0:
            raise CorpusError(f"rhs addend {part!r} has coefficient 0;"
                              " a zero right-hand side is written 0", line)
        addends.append((q, _int(m.group("d") or "1", line),
                        m.group("basis") or "ONE"))
    try:
        return RHSForm(addends=tuple(addends))
    except ValueError as exc:       # a radicand 0
        raise CorpusError(str(exc), line) from None


_CRHS_FACTOR = re.compile(
    r"^(?:p(?:\^(?P<pj>\d+))?|(?P<E>E)|Q\((?P<Q>\d+)\))$")


def _crhs(text: str, line: int) -> Tuple[cg.RHSTerm, ...]:
    if text == "0":
        return ()
    terms = []
    for part in re.split(r"\s\+\s", text):
        factors = _split_factors(part.strip())
        if not factors:
            raise CorpusError(f"empty congruence rhs addend in {text!r}", line)
        coef = _rational(factors[0], line)
        ppow = 0
        sym: List[int] = []
        euler = False
        fermat = 0
        for f in factors[1:]:
            d = _symbol(f, line)
            if d is not None:
                sym.append(d)
                continue
            m = _CRHS_FACTOR.match(f)
            if not m:
                raise CorpusError(f"bad congruence rhs factor {f!r}", line)
            if m.group("E"):
                euler = True
            elif m.group("Q"):
                fermat = _int(m.group("Q"), line)
            else:
                ppow += _int(m.group("pj") or "1", line)
        terms.append(cg.RHSTerm(coef=coef, ppow=ppow, sym=tuple(sym),
                                euler=euler, fermat=fermat))
    return tuple(terms)


_SYMBOL = re.compile(r"^(?P<kind>L|Lp)\((?P<d>-?\d+)\)$")


def _symbol(text: str, line: int) -> Optional[int]:
    """The d of the Legendre symbol (d|p) that ``L(d)`` or ``Lp(d)``
    names, or None for any other text.  ``Lp(d)``, the Jacobi symbol (p|d)
    for a positive odd d, is (d*|p) with d* = (-1)^((d-1)/2) d."""
    m = _SYMBOL.match(text)
    if not m:
        return None
    d = _int(m.group("d"), line)
    if m.group("kind") == "L":
        return d
    if d <= 0 or d % 2 == 0:
        raise CorpusError(f"Lp({d}) needs positive odd d", line)
    return d if d % 4 == 1 else -d


def _symbols(text: str, line: int) -> Tuple[int, ...]:
    """The d of each factor L(d) / Lp(d), e.g. for pn-delta."""
    out = []
    for part in _split_factors(text):
        d = _symbol(part, line)
        if d is None:
            raise CorpusError(f"bad symbol factor {part!r}", line)
        out.append(d)
    return tuple(out)


def _condition(text: str, line: int, what: str) -> Tuple[int, int]:
    """(d, v) of a condition ``L(d)=v`` or ``Lp(d)=v``: (d|p) must be v."""
    sym, _, v = text.partition("=")
    d = _symbol(sym, line)
    if d is None or v not in ("1", "-1"):
        raise CorpusError(f"bad {what} condition {text!r}", line)
    return d, int(v)


_MOD_COND = re.compile(r"^mod\((?P<n>[1-9]\d*)\)=(?P<rs>\d+(?:,\d+)*)$")


def _guard(text: str, line: int) -> qf.Guard:
    syms, mods = [], []
    if text != "always":
        for cond in text.split():
            m = _MOD_COND.match(cond)
            if m:
                mods.append((_int(m.group("n"), line),
                             tuple(_int(r, line)
                                   for r in m.group("rs").split(","))))
            else:
                syms.append(_condition(cond, line, "guard"))
    try:
        return qf.Guard(syms=tuple(syms), mods=tuple(mods))
    except ValueError as exc:      # d = 0, a residue not below N
        raise CorpusError(str(exc), line) from None


_REP = re.compile(r"^(?P<mu>[124])?p=(?:(?P<a>\d+)\*)?x\^2\+(?:(?P<d>\d+)\*)?y\^2$")
_TEMPLATE_MONOMIALS = ((2, 0, 0), (1, 1, 0), (0, 0, 1))   # x^2, xy, p


def _template(text: str, line: int) -> Tuple[Fraction, Fraction, Fraction]:
    """Coefficients (x2, xy, p) of a template like ``4*x^2-2*p`` or ``4*x*y``."""
    poly = _poly(text, ("x", "y", "p"), line)
    if poly.keys() - set(_TEMPLATE_MONOMIALS):
        raise CorpusError(f"template {text!r} is not in span(x^2, xy, p)",
                          line)
    return tuple(Fraction(poly.get(m, 0)) for m in _TEMPLATE_MONOMIALS)


def _case(text: str, line: int) -> qf.QuadFormCase:
    parts = [p.strip() for p in text.split(";")]
    guard = _guard(parts[0], line)
    if len(parts) == 2 and parts[1] == "zero":
        return qf.QuadFormCase(guard, zero=True)
    if len(parts) != 4:
        raise CorpusError(
            "case needs 'guard ; rep ; norm[:sign] ; template' or"
            " 'guard ; zero'", line)
    m = _REP.match(parts[1].replace(" ", ""))
    if not m:
        raise CorpusError(f"bad representation {parts[1]!r}", line)
    norm, _, sign = parts[2].partition(":")
    x2, xy, p_coef = _template(parts[3], line)
    a, d = (_int(m.group(g) or "1", line) for g in ("a", "d"))
    try:
        return qf.QuadFormCase(guard, mu=int(m.group("mu") or 1), a=a, d=d,
                               norm=norm, sign=sign or "NONE", x2=x2, xy=xy,
                               p_coef=p_coef)
    except ValueError as exc:
        raise CorpusError(str(exc), line) from None


#: (arity, wording) of each kind of family parameters
_FAMILY_PARAMS = {
    exactid.NO_PARAMS: (0, "takes no parameters"),
    exactid.ONE_M: (1, "needs m=<non-zero integer>"),
    exactid.TWO_INTS: (2, "needs args=<integer>,<integer>"),
}


def _integer(text: str, line: int) -> int:
    value = _rational(text.strip(), line)
    if value.denominator != 1:
        raise CorpusError(f"{text!r} is not an integer", line)
    return int(value)


def _options(parts: List[str], keys: Tuple[str, ...], line: int,
             what: str, flags: Tuple[str, ...] = ()) -> Dict[str, str]:
    """{key: value} of ``key=value`` parts, each key one of ``keys`` and
    given at most once; a key of ``flags`` takes no value (``key`` alone,
    read as ''), and is given at most once too."""
    out: Dict[str, str] = {}
    for part in parts:
        key, sep, value = (x.strip() for x in part.partition("="))
        if key in out or key not in (keys if sep else flags):
            raise CorpusError(f"bad {what} option {part.strip()!r}", line)
        out[key] = value
    return out


def _family(text: str, line: int) -> Tuple[str, Tuple[int, ...]]:
    """(name, args) of ``<name> [; m=<int>] [; args=<int>,<int>]``, with
    exactly the parameters that ``exactid.FAMILIES`` says the family
    takes."""
    name, *options = text.split(";")
    name = name.strip()
    family = exactid.FAMILIES.get(name)
    if family is None:
        raise CorpusError(f"unknown family {name!r}", line)
    given = _options(options, ("m", "args"), line, "family")
    arity, need = _FAMILY_PARAMS[family.params]
    values = given.pop(family.params, None)
    args = () if values is None else \
        tuple(_integer(v, line) for v in values.split(","))
    if given or len(args) != arity \
            or (family.params == exactid.ONE_M and not args[0]):
        raise CorpusError(f"family {name} {need}, got {text!r}", line)
    return name, args


def _duality(text: str, line: int, blank_d: bool) -> Tuple[Optional[int], int]:
    """(d, D) of ``d=<int> ; D=<int>``, both non-zero; with ``blank_d``,
    ``d=-`` gives d = None."""
    opts = _options(text.split(";"), ("d", "D"), line, "duality")
    if len(opts) != 2:
        raise CorpusError(f"duality needs 'd=<int> ; D=<int>', got {text!r}",
                          line)
    d = None if blank_d and opts["d"] == "-" else _integer(opts["d"], line)
    D = _integer(opts["D"], line)
    if d == 0 or D == 0:
        raise CorpusError(f"duality needs d and D non-zero, got {text!r}",
                          line)
    return d, D


# --------------------------------------------------------------------------
# registry entries
# --------------------------------------------------------------------------

@dataclass
class RegistryEntry:
    ident: str
    kind: str
    status: str
    anchor: str
    check: str          # the check path, a key of ``_PATHS``
    covers: Tuple[str, ...] = ()
    raw: Dict[str, object] = field(default_factory=dict)  # key -> value lines
    # parsed payloads: the ones that the entry's check path reads
    series: Optional[SeriesIdentity] = None
    counterpart: Optional[Tuple[Fraction, str]] = None
    variant: Optional[str] = None
    claim: Optional[cg.CongruenceClaim] = None
    quadform: Optional[qf.QuadFormClaim] = None
    duality: Optional[cg.DualityClaim] = None
    dual_term: Optional[Tuple[seqkit.SequenceKind, Optional[int], int]] = None
    integrality: Optional[cg.IntegralityClaim] = None
    family: Optional[Tuple[str, tuple]] = None
    reason: str = ""


class _Block:
    """One entry's lines as {key: (line, value)}; the ``case`` lines are
    one key, at the first one's line, whose value lists each (line, value).
    ``line`` of a key that the block does not give is the ``entry`` line."""

    def __init__(self, ident: str, line: int, raw: Dict[str, tuple]):
        self.ident, self.entry_line, self.raw = ident, line, raw

    def get(self, key: str, default=None):
        return self.raw[key][1] if key in self.raw else default

    def line(self, key: str) -> int:
        return self.raw[key][0] if key in self.raw else self.entry_line

    def read(self, key: str, parse, default=None):   # parse(value, line)
        return parse(self.get(key), self.line(key)) if key in self.raw \
            else default

    def error(self, msg: str, key: str) -> CorpusError:
        return CorpusError(f"entry {self.ident}: {msg}", self.line(key))


def _read_series(entry: RegistryEntry, b: _Block, spec: TermSpec) -> None:
    rhs = b.read("rhs", _rhs)
    if rhs is not None:
        entry.series = SeriesIdentity(spec=spec, rhs=rhs)
    entry.variant = b.get("variant")
    if b.get("counterpart"):
        q_text, _, other = b.get("counterpart").partition("*")
        entry.counterpart = (_rational(q_text.strip(), b.line("counterpart")),
                             other.strip())
    # stash the spec even when there is no asserted closed form
    entry.raw["_spec"] = spec


def _p_power(text: str, line: int) -> int:
    """j of ``p^j``, one digit."""
    m = re.match(r"^p\^(\d)$", text)
    if not m:
        raise CorpusError(f"bad power of p {text!r}", line)
    return int(m.group(1))


def _require(text: str, line: int) -> Tuple[Tuple[int, int], ...]:
    """The (d, v) of each ``L(d)=v`` or ``Lp(d)=v``: (d|p) must be v."""
    return tuple(_condition(part.strip(), line, "require")
                 for part in text.split(",") if part.strip())


def _admitted(b: _Block, reads_character: bool) -> Tuple[int, tuple]:
    """(minp, exclude) of a congruence; a ``minp`` that admits p = 2 is an
    error when the check reads a quadratic character at p."""
    min_p = b.read("minp", _integer, 5)
    exclude = tuple(_integer(x, b.line("exclude"))
                    for x in b.get("exclude", "").split(",") if x.strip())
    if reads_character and min_p <= 2 and 2 not in exclude:
        raise b.error(f"minp {min_p} admits p = 2, but the check reads a"
                      " quadratic character at odd primes only", "minp")
    return min_p, exclude


def _read_sum(entry: RegistryEntry, b: _Block, spec: TermSpec) -> None:
    s = b.read("mod", _p_power, 2)
    if s < 1:
        raise b.error(f"modulus {b.get('mod')!r} has exponent below 1", "mod")
    crhs, require = b.read("crhs", _crhs), b.read("require", _require, ())
    min_p, exclude = _admitted(b, bool(require or any(t.sym for t in crhs)))
    upper = b.get("upper", "p-1")
    if upper not in cg.UPPERS:
        raise b.error(f"bad upper {upper!r}", "upper")
    entry.claim = cg.CongruenceClaim(
        ident=b.ident, spec=spec, s=s, rhs=crhs, upper=upper, min_p=min_p,
        exclude=exclude, require=require,
        lhs_ppow=b.read("lhs-mul", _p_power, 0))


def _read_refinement(entry: RegistryEntry, b: _Block, spec: TermSpec) -> None:
    text = b.get("pn-delta")
    pn_delta = () if text == "1" else _symbols(text, b.line("pn-delta"))
    require = b.read("require", _require, ())
    min_p, exclude = _admitted(b, bool(require or pn_delta))
    entry.claim = cg.CongruenceClaim(
        ident=b.ident, spec=spec, s=2, rhs=(), min_p=min_p, exclude=exclude,
        require=require, pn_delta=pn_delta)


def _read_quadform(entry: RegistryEntry, b: _Block, spec: TermSpec) -> None:
    min_p, exclude = _admitted(b, True)
    cases = tuple(_case(v, ln) for ln, v in b.get("case"))
    sym_factor = b.read("sym-factor", _symbols, ())
    try:
        table = qf.QuadFormTable(b.ident, cases, min_p, exclude, sym_factor)
    except ValueError as exc:      # the guards' modulus above its bound
        raise CorpusError(str(exc), b.line("case")) from None
    entry.quadform = qf.QuadFormClaim(b.ident, spec, table)


def _read_dual(entry: RegistryEntry, b: _Block, spec: TermSpec) -> None:
    d, D = _duality(b.get("dual"), b.line("dual"), blank_d=False)
    if spec.m.denominator != 1:
        raise b.error("dual needs integer base", "term")
    if D % spec.m.numerator:
        raise b.error(f"base {spec.m} does not divide D={D}", "dual")
    entry.duality = cg.DualityClaim(ident=b.ident, seq=spec.seq,
                                    m=int(spec.m), d=d, D=D)


def _read_dual_term(entry: RegistryEntry, b: _Block, spec: TermSpec) -> None:
    d, D = _duality(b.get("dual-term"), b.line("dual-term"), blank_d=True)
    if len(spec.seq) != 1 or spec.seq[0][1] != 1:
        raise b.error("dual-term needs a single sequence factor", "term")
    entry.dual_term = (spec.seq[0][0], d, D)


def _read_integrality(entry: RegistryEntry, b: _Block, spec: TermSpec) -> None:
    if spec.den or spec.m.denominator != 1:
        raise b.error("integrality term needs integer base, no denominator"
                      " factors", "term")
    if any(Fraction(c).denominator != 1 for c in spec.weight):
        raise b.error("integrality weight needs integer coefficients", "term")
    opts = {"div": 1, "mul": 1, "div-base": 1, "nmin": 1, "div-exp": "none",
            "odd": "pow2", "alt": False, "any-sign": False}
    line = b.line("idiv")
    given = _options([p for p in b.get("idiv", "-").split(";")
                      if p.strip() not in ("-", "")],
                     ("div", "mul", "div-base", "nmin", "div-exp", "odd"),
                     line, "idiv", flags=("alt", "any-sign"))
    for k, v in given.items():
        if k in ("alt", "any-sign"):
            v = True
        elif k in ("div", "mul", "div-base", "nmin") \
                and re.fullmatch(r"-?\d+", v):
            v = _int(v, line)
        elif not ((k == "div-exp" and v in cg.DIV_EXPS)
                  or (k == "odd" and (v in cg.ODD_SETS or v == "none"))):
            raise b.error(f"bad idiv option {k + '=' + v!r}", "idiv")
        opts[k] = v
    if not opts["div"] or not opts["div-base"]:
        raise b.error("bad idiv option: a divisor is 0", "idiv")
    entry.integrality = cg.IntegralityClaim(
        ident=b.ident, weight=spec.weight, seq=spec.seq, base=int(spec.m),
        div=opts["div"], alt=opts["alt"], positive=not opts["any-sign"],
        odd_set=None if opts["odd"] == "none" else opts["odd"],
        mul=opts["mul"], div_base=opts["div-base"], div_exp=opts["div-exp"],
        n_min=opts["nmin"])


def _read_finite(entry: RegistryEntry, b: _Block, spec: None) -> None:
    entry.family = b.read("family", _family)


def _read_skip(entry: RegistryEntry, b: _Block, spec: None) -> None:
    entry.reason = b.get("reason")
    if entry.reason.startswith('"') and entry.reason.endswith('"'):
        entry.reason = entry.reason[1:-1]
    if not entry.reason:
        raise b.error("SKIP needs a reason", "reason")


#: The keys that every entry may give, whatever its check path.
_COMMON_KEYS = ("kind", "status", "covers", "anchor", "variant")
#: check path -> (the keys it needs, the other keys it reads, beyond
#: ``_COMMON_KEYS``; the reader of its payload)
_PATHS = {
    "series": (("term", "rhs"), ("counterpart",), _read_series),
    "evaluate": (("term", "rhs"), ("counterpart",), _read_series),
    "sum": (("term", "crhs"), ("mod", "upper", "minp", "exclude", "require",
                               "lhs-mul", "check"), _read_sum),
    "refinement": (("term", "check", "pn-delta"),
                   ("minp", "exclude", "require"), _read_refinement),
    "quadform": (("term", "case"), ("minp", "exclude", "sym-factor"),
                 _read_quadform),
    "dual": (("term", "dual"), (), _read_dual),
    "dual-term": (("term", "dual-term"), (), _read_dual_term),
    "integrality": (("term",), ("idiv",), _read_integrality),
    "finite": (("family",), (), _read_finite),
    "skip": (("reason",), (), _read_skip),
}
#: CONGRUENCE's selector keys; ``check`` selects only as ``refinement``
_SELECTORS = {"crhs": "sum", "case": "quadform", "dual": "dual",
              "dual-term": "dual-term", "check": "refinement"}


def _path(b: _Block, kind: str) -> str:
    """The entry's check path: its kind's, a SERIES's by its ``rhs``, or
    the path of a CONGRUENCE's one selector key."""
    if kind != "CONGRUENCE":
        return {"SERIES": "evaluate" if b.get("rhs") == "none" else "series",
                "INTEGRALITY": "integrality", "FINITE_IDENTITY": "finite",
                "SKIP": "skip"}[kind]
    picked = [key for key in b.raw if key in _SELECTORS
              and (key != "check" or b.get(key) == "refinement")]
    if not picked:
        raise CorpusError(f"entry {b.ident}: congruence needs crhs, case"
                          " lines, dual, dual-term or check: refinement",
                          b.entry_line)
    if len(picked) > 1:
        raise b.error(f"{picked[1]!r} selects a second check path beside"
                      f" {picked[0]!r} (line {b.line(picked[0])})",
                      picked[1])
    return _SELECTORS[picked[0]]


def _parse_block(ident: str, line: int,
                 lines: List[Tuple[int, str]]) -> RegistryEntry:
    raw: Dict[str, tuple] = {}
    cases: List[Tuple[int, str]] = []
    for ln, text in lines:
        key, sep, val = text.partition(":")
        key = key.strip()
        if not sep:
            raise CorpusError(f"expected 'key: value', got {text!r}", ln)
        if key == "case":
            cases.append((ln, val.strip()))
            raw.setdefault("case", (ln, cases))
        elif key in raw:
            raise CorpusError(f"duplicate key {key!r} in entry {ident}", ln)
        else:
            raw[key] = (ln, val.strip())
    b = _Block(ident, line, raw)
    kind = b.get("kind", "")
    if kind not in KINDS:
        raise b.error(f"bad kind {kind!r}", "kind")
    status = b.get("status", "conjectural")
    if status not in STATUSES:
        raise b.error(f"bad status {status!r}", "status")
    check = _path(b, kind)
    if b.get("check", check) != check:
        raise b.error(f"bad check {b.get('check')!r}", "check")
    needs, reads, read = _PATHS[check]
    for key in raw:
        if key not in needs and key not in reads and key not in _COMMON_KEYS:
            raise b.error(f"the {check} check does not read {key!r}", key)
    for key in needs:
        if key not in raw:
            raise b.error(f"the {check} check needs {key!r}", key)
    anchor = b.get("anchor", "")
    if anchor.startswith('"') and anchor.endswith('"'):
        anchor = anchor[1:-1]
    elif kind != "SKIP":
        raise b.error("anchor must be a quoted string", "anchor")
    covers = tuple(c.strip() for c in b.get("covers", "").split(",")
                   if c.strip())
    entry = RegistryEntry(ident=ident, kind=kind, status=status,
                          anchor=anchor, check=check, covers=covers,
                          raw={k: v for k, (_, v) in raw.items()})
    if cases:
        entry.raw["case"] = [v for _, v in cases]
    read(entry, b, b.read("term", _term_spec))
    return entry


def parse_registry(text: str) -> List[RegistryEntry]:
    entries: List[RegistryEntry] = []
    seen: Dict[str, int] = {}
    block: Optional[tuple] = None     # (ident, entry line, its lines)
    for ln, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("entry "):
            if block is not None:
                raise CorpusError(f"entry {block[0]} not closed before new"
                                  " entry", ln)
            ident = stripped[len("entry "):].strip()
            if ident in seen:
                raise CorpusError(f"duplicate id {ident!r} (first at line"
                                  f" {seen[ident]})", ln)
            seen[ident] = ln
            block = (ident, ln, [])
        elif block is None:
            raise CorpusError("'end' outside an entry" if stripped == "end"
                              else f"content outside an entry: {stripped!r}",
                              ln)
        elif stripped == "end":
            entries.append(_parse_block(*block))
            block = None
        else:
            block[2].append((ln, stripped))
    if block is not None:
        raise CorpusError(f"entry {block[0]} missing 'end'", block[1])
    return entries


def default_paths() -> List[Path]:
    return sorted(DATA_DIR.glob("*.txt"))


def load(sources: Iterable[Tuple[str, str]]) -> List[RegistryEntry]:
    """The entries of each (name, text) registry, in order; an id that two
    of them give is a ``CorpusError``, as one that a registry repeats."""
    entries: List[RegistryEntry] = []
    seen: Dict[str, str] = {}
    for name, text in sources:
        for e in parse_registry(text):
            if e.ident in seen:
                raise CorpusError(f"duplicate id {e.ident!r} across"
                                  f" {seen[e.ident]} and {name}")
            seen[e.ident] = name
            entries.append(e)
    return entries


def load_default() -> List[RegistryEntry]:
    return load((path.name, path.read_text(encoding="utf-8"))
                for path in default_paths())


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------

@dataclass
class ReportRow:
    ident: str
    kind: str
    status: str
    outcome: str        # PASS | SUPPORTED | CONSISTENT | EVALUATED |
    #                     FAIL | SKIPPED
    seconds: float
    detail: str = ""
    #: the report that the row's check returned (None where it verifies
    #: nothing or raised); not compared, not rendered
    report: object = field(default=None, compare=False, repr=False)


@dataclass
class VerificationReport:
    rows: List[ReportRow]

    @property
    def exit_code(self) -> int:
        """1 when a proven entry failed, else 0."""
        return int(any(r.status == "proven" and r.outcome == "FAIL"
                       for r in self.rows))

    def render(self, fmt: str = "text") -> str:
        if fmt == "tsv":
            lines = ["id\tkind\tstatus\toutcome\tseconds\tdetail"]
            for r in self.rows:
                lines.append(f"{r.ident}\t{r.kind}\t{r.status}\t{r.outcome}"
                             f"\t{r.seconds:.3f}\t{r.detail}")
            return "\n".join(lines) + "\n"
        if fmt != "text":
            raise ValueError(f"unknown report format {fmt!r}")
        width = max([len(r.ident) for r in self.rows] or [4])
        lines = []
        for r in self.rows:
            lines.append(f"{r.ident:<{width}}  {r.outcome:<10}"
                         f" {r.seconds:7.2f}s  {r.detail}")
        c = Counter(r.outcome for r in self.rows)
        summary = ", ".join(f"{k}={v}" for k, v in sorted(c.items()))
        lines.append(f"-- {len(self.rows)} entries: {summary}")
        return "\n".join(lines) + "\n"


def _evaluate(spec: TermSpec, digits: int) -> str:
    ball = sereval.eval_series(spec, digits)
    return f"value ~ {_nstr(ball.mid, 1 << ball.exp, digits)}"


def _nearest_binary(a: int, b: int, prec: int) -> Tuple[int, int]:
    """(m, e) with m * 2^e the number of prec bits nearest to a/b > 0,
    ties to even."""
    shift = prec + 2 - a.bit_length() + b.bit_length()   # q: prec+2.. bits
    q, r = divmod(a << shift, b) if shift >= 0 else divmod(a, b << -shift)
    extra = q.bit_length() - prec
    m, low, half = q >> extra, q & ((1 << extra) - 1), 1 << (extra - 1)
    if low > half or (low == half and (r or m & 1)):
        m += 1
    return m, extra - shift


_LOG2_10 = math.log(10, 2)


def _nstr(num: int, den: int, digits: int) -> str:
    """``mpmath.nstr(mpf(num) / den, digits)`` under
    ``mpmath.workdps(digits)``, for digits >= 1 and den > 0, from integers
    alone and with no ``str()`` of more than digits + 1 digits.

    As in mpmath: the numerator and then the quotient are rounded to the
    working precision of round((digits + 1) log2 10) bits; the binary value
    is truncated to at least digits + 3 decimal digits, which are rounded
    half up to ``digits`` significant digits; trailing zeros are stripped;
    and the text is fixed-point exactly when the decimal exponent lies
    strictly between min(-(digits // 3), -5) and ``digits``."""
    if not num:
        return "0.0"
    prec = round((digits + 1) * 3.3219280948873626)   # mpmath's dps_to_prec
    m, e = _nearest_binary(abs(num), 1, prec)
    m, e = _nearest_binary(m << max(e, 0), den << max(-e, 0), prec)
    fixprec = max(int((digits + 3) * _LOG2_10) + 10 - e - m.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    fixed = m << (e + fixprec) if e + fixprec >= 0 else m >> -(e + fixprec)
    value = fixed * 10 ** fixdps >> fixprec
    length = sereval._decimal_length(value)
    # the leading digits + 1 digits of value: all that is read of it
    text = str(value // 10 ** max(length - digits - 1, 0))
    exponent = length - fixdps - 1
    head = text[:digits]
    if length > digits and text[digits] in "56789":
        head = str(int(head) + 1)
        if len(head) > digits:     # 99..9 rounded up to 100..0
            head = head[:digits]
            exponent += 1
    split = 1
    if min(-(digits // 3), -5) < exponent < digits:
        if exponent < 0:
            head = "0" * -exponent + head
        else:
            split = exponent + 1
        exponent = 0
    body = (head[:split] + "." + head[split:]).rstrip("0")
    if body.endswith("."):
        body += "0"
    sign = "-" if num < 0 else ""
    if exponent == 0:
        return sign + body
    return f"{sign}{body}e{'+' if exponent > 0 else ''}{exponent}"


def _verdict(rep, passed: str, tested=None, none: str = "no prime tested",
             failed: str = "") -> tuple:
    """(rep, ok, detail) of a check's report: ``none`` when ``tested``
    (``rep.tested`` by default) is empty, else its first three failures
    after ``failed``, or ``passed``."""
    if not (rep.tested if tested is None else tested):
        return rep, False, none
    if rep.failures:
        return rep, False, f"{failed}{rep.failures[:3]}"
    return rep, True, passed


def _primes(rep) -> tuple:
    """``_verdict`` of a report that tests prime by prime."""
    return _verdict(rep, f"{len(rep.tested)} primes")


def _check_series(entry: RegistryEntry, digits: int, p_max: int,
                  n_max: int) -> tuple:
    rep = sereval.verify_series_identity(entry.series, digits)
    return rep, rep.passed, \
        f"gap<{sereval._sci(rep.gap_units, rep.gap_scale)}" \
        f" terms={rep.terms_used}"


def _check_quadform(entry: RegistryEntry, digits: int, p_max: int,
                    n_max: int) -> tuple:
    rep = qf.verify_quadform_claim(entry.quadform, p_max)
    part = qf.check_partition(entry.quadform.table)
    if rep.ok and not part.ok:
        return rep, False, f"partition gaps {part.failures[:3]}"
    return _verdict(rep, f"p<=..{p_max}: {len(rep.tested)} primes",
                    failed="failures ")


def _check_refinement(entry: RegistryEntry, digits: int, p_max: int,
                      n_max: int) -> tuple:
    rep = cg.check_pn_refinement(entry.claim, p_max=min(p_max, 50),
                                 n_max=n_max)
    return _verdict(rep, f"{len(rep.checked)} (p,n) pairs, min margin"
                         f" {rep.min_margin}", rep.checked,
                    "no (p,n) pair checked")


def _check_finite(entry: RegistryEntry, digits: int, p_max: int,
                  n_max: int) -> tuple:
    name, args = entry.family
    rep = exactid.FAMILIES[name].check(args, n_max)
    if not rep.ok:
        return rep, False, f"first failure {rep.first_failure}: {rep.detail}"
    if not rep.checked:
        return rep, False, "no n checked"
    return rep, True, f"checked {rep.checked}"


#: check path -> its check, (entry, digits, p_max, n_max) -> (report, ok,
#: detail), with ok None on the two paths that verify nothing.  Each row
#: caps p_max itself: dual at 200, dual-term at 97 and refinement at 50;
#: the partition of a case table is proved for every prime.
_CHECKS = {
    "series": _check_series,
    "evaluate": lambda e, digits, p_max, n_max:
        (None, None, _evaluate(e.raw["_spec"], digits)),
    "sum": lambda e, digits, p_max, n_max:
        _primes(cg.verify_claim(e.claim, p_max)),
    "refinement": _check_refinement,
    "quadform": _check_quadform,
    "dual": lambda e, digits, p_max, n_max:
        _primes(cg.check_duality_sum(e.duality, p_max=min(p_max, 200))),
    "dual-term": lambda e, digits, p_max, n_max: _primes(
        cg.check_duality_term(e.ident, *e.dual_term, p_max=min(p_max, 97))),
    "integrality": lambda e, digits, p_max, n_max: _verdict(
        cg.check_integrality(e.integrality, n_max=n_max), f"n<= {n_max}",
        none="no n checked"),
    "finite": _check_finite,
    "skip": lambda e, digits, p_max, n_max: (None, None, e.reason),
}


def _run_entry(entry: RegistryEntry, digits: int, p_max: int,
               n_max: int) -> ReportRow:
    """Run the entry's check path and map its verdict to an outcome:
    SKIPPED or EVALUATED where the path verifies nothing, FAIL when the
    check fails, PASS when it holds for a proven entry, and otherwise
    CONSISTENT for a series and SUPPORTED for any other claim."""
    start = time.monotonic()
    report = None
    try:
        report, ok, detail = _CHECKS[entry.check](entry, digits, p_max,
                                                  n_max)
        if ok is None:
            outcome = "SKIPPED" if entry.check == "skip" else "EVALUATED"
        elif not ok:
            outcome = "FAIL"
        elif entry.status == "proven":
            outcome = "PASS"
        else:
            outcome = "CONSISTENT" if entry.check == "series" \
                else "SUPPORTED"
    except Exception as exc:  # surface, do not crash the batch
        outcome, detail = "FAIL", f"error: {exc!r}"
    return ReportRow(entry.ident, entry.kind, entry.status, outcome,
                     time.monotonic() - start, detail, report)


def select(entries: Sequence[RegistryEntry],
           id_glob: Optional[str] = None,
           kind: Optional[str] = None,
           status: Optional[str] = None) -> List[RegistryEntry]:
    """The entries whose id matches ``id_glob`` and whose kind and status
    match, in registry order; ``None`` matches everything."""
    return [e for e in entries
            if (id_glob is None or fnmatch.fnmatch(e.ident, id_glob))
            and (kind is None or e.kind == kind)
            and (status is None or e.status == status)]


def run(entries: Sequence[RegistryEntry],
        id_glob: Optional[str] = None,
        kind: Optional[str] = None,
        status: Optional[str] = None,
        digits: int = 40,
        p_max: int = 300,
        n_max: int = 128) -> VerificationReport:
    """Verify the matching entries one after another in the calling
    thread, and report the rows sorted by id."""
    rows = [_run_entry(e, digits, p_max, n_max)
            for e in select(entries, id_glob, kind, status)]
    rows.sort(key=lambda r: r.ident)
    return VerificationReport(rows)

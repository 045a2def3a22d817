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

Kind-specific keys:

* SERIES: ``rhs`` (sum of ``q[*sqrt(d)][*BASIS]`` addends, or ``none`` for
  a series evaluated without an asserted closed form), optional
  ``variant`` (``verbatim``/``corrected`` for erratum twins) and
  ``counterpart`` (``q * <entry-id>``: this sum equals q times another
  registered sum).
* CONGRUENCE: ``mod`` (``p^s``) with one of
  - ``crhs``: symbol combination ``q[*p^j][*L(d)][*Lp(d)][*E][*Q(a)]``
    (Legendre (d|p), Jacobi (p|d), Euler number E_{p-3}, Fermat quotient
    (a^(p-1)-1)/p), checked as a truncated-sum congruence;
  - ``case`` lines: a binary-quadratic-form dispatch table;
  - ``dual``: sum-level duality data ``d=<int> ; D=<int>``;
  - ``dual-term``: term-level duality ``d=<int|-> ; D=<int>``.
  Optional: ``upper`` (``p-1``, ``p-2``, ``(p+1)/2`` or ``(p-1)/2``),
  ``minp``, ``exclude``, ``require``, ``pn-delta``, ``sym-factor``,
  ``check: refinement`` (refinement-only entries).
* INTEGRALITY: a weight with integer coefficients, and ``idiv`` options
  ``div=<int> ; mul=<int> ; div-base=<int> ;
  div-exp=none|n-1|half|half-up ; alt ; odd=pow2|pow2-pos|pow2-not2|none ;
  any-sign ; nmin=<int>``.
* FINITE_IDENTITY: ``family: <name> [; m=<int>] [; args=a,b,...]``.
* SKIP: ``reason`` only; records a label consciously left unverified.
"""

from __future__ import annotations

import ast
import fnmatch
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import congruence as cg
from . import exactid
from . import quadform as qf
from . import sereval
from . import seqkit
from .sereval import RHSForm, SeriesIdentity, TermSpec

__all__ = [
    "CorpusError",
    "RegistryEntry",
    "parse_registry",
    "render_entry",
    "load_default",
    "default_paths",
    "run",
    "lint_registry",
    "coverage",
    "required_labels",
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

_Poly = Dict[Tuple[int, ...], Fraction]


def _poly(text: str, names: Tuple[str, ...], line: int) -> _Poly:
    """Exact polynomial in ``names`` read from ``text``, as a map from
    exponent tuples to non-zero coefficients, by walking its syntax tree
    over the number grammar above; nothing is evaluated as Python."""
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
            return add({}, {one: Fraction(node.value)})
        if isinstance(node, ast.Name) and node.id in names:
            return {tuple(int(n == node.id) for n in names): Fraction(1)}
        if isinstance(op, (ast.UAdd, ast.USub)):
            sign = -1 if isinstance(op, ast.USub) else 1
            return add({}, walk(node.operand), sign)
        if isinstance(op, ast.Pow) and isinstance(right, ast.Constant) \
                and type(right.value) is int and right.value >= 0:
            out, base = {one: Fraction(1)}, walk(node.left)
            for _ in range(right.value):
                out = mul(out, base)
            return out
        if isinstance(op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            a, b = walk(node.left), walk(node.right)
            if isinstance(op, (ast.Add, ast.Sub)):
                return add(a, b, -1 if isinstance(op, ast.Sub) else 1)
            if isinstance(op, ast.Mult):
                return mul(a, b)
            if b.keys() == {one}:   # a non-zero constant divisor
                return {m: c / b[one] for m, c in a.items()}
        raise ValueError(f"{ast.unparse(node)!r} is outside the grammar")

    try:   # ValueError also covers a null byte, MemoryError deep nesting
        return walk(ast.parse(text.replace("^", "**"), mode="eval").body)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        why = str(exc) or "nested too deeply"
        raise CorpusError(f"bad expression {text!r}: {why}", line) from None


def _rational(text: str, line: int) -> Fraction:
    """Exact rational from an expression like ``-3*160^3`` or ``-25/16``."""
    return _poly(text, (), line).get((), Fraction(0))


def _weight(text: str, line: int) -> Tuple[Fraction, ...]:
    """Low-to-high coefficients of a polynomial in k."""
    poly = _poly(text, ("k",), line)
    degree = max((m[0] for m in poly), default=0)
    coeffs = (poly.get((j,), Fraction(0)) for j in range(degree + 1))
    return tuple(int(c) if c.denominator == 1 else c for c in coeffs)


_DEN_FACTOR = re.compile(
    r"^\(?(?P<tag>[1-9]?k[+-]1|k|CB2|CB3|CB4)\)?(?:\^(?P<exp>\d+))?$")

_SEQ_SINGLETONS = {
    "CB2": seqkit.CB2, "CB3": seqkit.CB3, "CB4": seqkit.CB4,
    "CB63": seqkit.CB63, "CB2S": seqkit.CB2SHIFT, "CAT": seqkit.CATALAN,
    "D": seqkit.DOMB, "F": seqkit.FRANEL, "F4": seqkit.FRANEL4,
    "G": seqkit.GSEQ, "Z": seqkit.ZAGIER, "CLF": seqkit.CLF,
    "B": seqkit.BETA, "W": seqkit.WZAG,
}
_SEQ_PARAM = re.compile(
    r"^(?P<head>T2|T3|T|S|P)\((?P<args>[^()]*)\)(?:\^(?P<exp>\d+))?$")
_SEQ_PLAIN = re.compile(r"^(?P<head>[A-Z0-9]+)(?:\^(?P<exp>\d+))?$")


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
        out.append((m.group("tag"), int(m.group("exp") or 1)))
    return tuple(out)


def _seq(text: str, line: int) -> Tuple[Tuple[seqkit.SequenceKind, int], ...]:
    if text == "-":
        return ()
    out = []
    for part in _split_factors(text):
        m = _SEQ_PARAM.match(part)
        if m:
            args = [_rational(a, line) for a in m.group("args").split(",")]
            head = m.group("head")
            if head == "P":
                if len(args) != 1:
                    raise CorpusError(f"P takes one argument: {part!r}", line)
                kind = seqkit.GPOLY(args[0] if args[0].denominator != 1
                                    else int(args[0]))
            else:
                if len(args) != 2 or any(a.denominator != 1 for a in args):
                    raise CorpusError(
                        f"{head} takes two integers: {part!r}", line)
                ctor = {"T": seqkit.GCT, "T2": seqkit.GCT2,
                        "T3": seqkit.GCT3, "S": seqkit.SBC}[head]
                kind = ctor(int(args[0]), int(args[1]))
        else:
            m = _SEQ_PLAIN.match(part)
            if not m or m.group("head") not in _SEQ_SINGLETONS:
                raise CorpusError(f"unknown sequence factor {part!r}", line)
            kind = _SEQ_SINGLETONS[m.group("head")]
        out.append((kind, int(m.group("exp") or 1)))
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
    if len(weight) > 4:
        raise CorpusError("weight degree above 3 is unsupported", line)
    return TermSpec(weight=weight,
                    den=_den(parts[1], line),
                    seq=_seq(parts[2], line),
                    m=_rational(parts[3][2:], line),
                    k0=int(parts[4][3:]))


_RHS_ADDEND = re.compile(
    r"^(?P<q>-?\d+(?:/\d+)?)"
    r"(?:\*sqrt\((?P<d>\d+)\))?"
    r"(?:\*(?P<basis>ONE|PI2|PI|INV_PI|CATALAN_G|K3|LOG3))?$")


def _rhs(text: str, line: int) -> Optional[RHSForm]:
    if text == "none":
        return None
    addends = []
    for part in re.split(r"\s\+\s", text):
        m = _RHS_ADDEND.match(part.strip())
        if not m:
            raise CorpusError(f"bad rhs addend {part!r}", line)
        addends.append((Fraction(m.group("q")), int(m.group("d") or 1),
                        m.group("basis") or "ONE"))
    return RHSForm(addends=tuple(addends))


_CRHS_FACTOR = re.compile(
    r"^(?:p(?:\^(?P<pj>\d+))?|L\((?P<L>-?\d+)\)|Lp\((?P<Lp>\d+)\)"
    r"|(?P<E>E)|Q\((?P<Q>\d+)\))$")


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
        sym_p: List[int] = []
        euler = False
        fermat = 0
        for f in factors[1:]:
            m = _CRHS_FACTOR.match(f)
            if not m:
                raise CorpusError(f"bad congruence rhs factor {f!r}", line)
            if m.group("L"):
                sym.append(int(m.group("L")))
            elif m.group("Lp"):
                sym_p.append(int(m.group("Lp")))
            elif m.group("E"):
                euler = True
            elif m.group("Q"):
                fermat = int(m.group("Q"))
            else:
                ppow += int(m.group("pj") or 1)
        terms.append(cg.RHSTerm(coef=coef, ppow=ppow, sym=tuple(sym),
                                sym_p=tuple(sym_p), euler=euler,
                                fermat=fermat))
    return tuple(terms)


_SYMBOL = re.compile(r"^(?P<kind>L|Lp)\((?P<d>-?\d+)\)$")


def _symbols(text: str, line: int) -> Tuple[int, ...]:
    """The d of each factor L(d) / Lp(d), as its Legendre symbol (d|p),
    e.g. for pn-delta."""
    out = []
    for part in _split_factors(text):
        m = _SYMBOL.match(part)
        if not m:
            raise CorpusError(f"bad symbol factor {part!r}", line)
        out.append(_legendre_equivalent(m.group("kind"), int(m.group("d")),
                                        line))
    return tuple(out)


def _legendre_equivalent(kind: str, d: int, line: int) -> int:
    """Rewrite a Jacobi symbol (p|d) as a Legendre symbol (d*|p)."""
    if kind == "L":
        return d
    if d <= 0 or d % 2 == 0:
        raise CorpusError(f"Lp({d}) needs positive odd d", line)
    return d if d % 4 == 1 else -d


_GUARD_COND = re.compile(
    r"^(?:mod\((?P<n>\d+)\)=(?P<rs>[\d,]+)"
    r"|L\((?P<L>-?\d+)\)=(?P<Lv>-?1)|Lp\((?P<Lp>\d+)\)=(?P<Lpv>-?1))$")


def _guard(text: str, line: int) -> qf.Guard:
    syms, syms_p, mods = [], [], []
    if text != "always":
        for cond in text.split():
            m = _GUARD_COND.match(cond)
            if not m:
                raise CorpusError(f"bad guard condition {cond!r}", line)
            if m.group("n"):
                mods.append((int(m.group("n")),
                             tuple(int(r) for r in m.group("rs").split(","))))
            elif m.group("L"):
                syms.append((int(m.group("L")), int(m.group("Lv"))))
            else:
                syms_p.append((int(m.group("Lp")), int(m.group("Lpv"))))
    return qf.Guard(syms=tuple(syms), syms_p=tuple(syms_p), mods=tuple(mods))


_REP = re.compile(r"^(?P<mu>[124])?p=(?:(?P<a>\d+)\*)?x\^2\+(?:(?P<d>\d+)\*)?y\^2$")
_TEMPLATE_MONOMIALS = ((2, 0, 0), (1, 1, 0), (0, 0, 1))   # x^2, xy, p


def _template(text: str, line: int) -> Tuple[Fraction, Fraction, Fraction]:
    """Coefficients (x2, xy, p) of a template like ``4*x^2-2*p`` or ``4*x*y``."""
    poly = _poly(text, ("x", "y", "p"), line)
    if poly.keys() - set(_TEMPLATE_MONOMIALS):
        raise CorpusError(f"template {text!r} is not in span(x^2, xy, p)",
                          line)
    return tuple(poly.get(m, Fraction(0)) for m in _TEMPLATE_MONOMIALS)


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
    return qf.QuadFormCase(guard, mu=int(m.group("mu") or 1),
                           a=int(m.group("a") or 1), d=int(m.group("d") or 1),
                           norm=norm, sign=sign or "NONE",
                           x2=x2, xy=xy, p_coef=p_coef)


# --------------------------------------------------------------------------
# registry entries
# --------------------------------------------------------------------------

@dataclass
class RegistryEntry:
    ident: str
    kind: str
    status: str
    anchor: str
    covers: Tuple[str, ...] = ()
    raw: Dict[str, object] = field(default_factory=dict)  # key -> value lines
    # parsed payloads (exactly one family populated, depending on kind)
    series: Optional[SeriesIdentity] = None
    counterpart: Optional[Tuple[Fraction, str]] = None
    variant: Optional[str] = None
    claim: Optional[cg.CongruenceClaim] = None
    quadform: Optional[qf.QuadFormClaim] = None
    duality: Optional[cg.DualityClaim] = None
    dual_term: Optional[Tuple[seqkit.SequenceKind, Optional[int], int]] = None
    check: str = "sum"
    integrality: Optional[cg.IntegralityClaim] = None
    family: Optional[Tuple[str, tuple]] = None
    reason: str = ""
    pmax: Optional[int] = None


_KNOWN_KEYS = {
    "kind", "status", "covers", "anchor", "term", "rhs", "variant",
    "counterpart", "mod", "crhs", "upper", "minp", "exclude", "require",
    "pn-delta", "sym-factor", "case", "dual", "dual-term", "check", "idiv",
    "family", "reason", "pmax", "lhs-mul",
}


def _parse_block(ident: str, lines: List[Tuple[int, str]]) -> RegistryEntry:
    raw: Dict[str, object] = {}
    cases: List[Tuple[int, str]] = []
    for ln, text in lines:
        key, sep, val = text.partition(":")
        key = key.strip()
        if not sep:
            raise CorpusError(f"expected 'key: value', got {text!r}", ln)
        if key not in _KNOWN_KEYS:
            raise CorpusError(f"unknown key {key!r} in entry {ident}", ln)
        val = val.strip()
        if key == "case":
            cases.append((ln, val))
        elif key in raw:
            raise CorpusError(f"duplicate key {key!r} in entry {ident}", ln)
        else:
            raw[key] = (ln, val)

    def get(key: str, default: Optional[str] = None) -> Optional[str]:
        if key in raw:
            return raw[key][1]
        return default

    def line_of(key: str) -> int:
        return raw[key][0]

    kind = get("kind", "")
    if kind not in KINDS:
        raise CorpusError(f"entry {ident}: bad kind {kind!r}",
                          line_of("kind") if "kind" in raw else None)
    status = get("status", "conjectural")
    if status not in STATUSES:
        raise CorpusError(f"entry {ident}: bad status {status!r}",
                          line_of("status"))
    anchor = get("anchor", "")
    if anchor.startswith('"') and anchor.endswith('"'):
        anchor = anchor[1:-1]
    elif kind != "SKIP":
        raise CorpusError(f"entry {ident}: anchor must be a quoted string",
                          line_of("anchor") if "anchor" in raw else None)
    covers = tuple(c.strip() for c in get("covers", "").split(",")
                   if c.strip())
    entry = RegistryEntry(ident=ident, kind=kind, status=status,
                          anchor=anchor, covers=covers,
                          raw={k: v for k, (_, v) in raw.items()})
    if cases:
        entry.raw["case"] = [v for _, v in cases]
    if get("pmax"):
        entry.pmax = int(get("pmax"))

    if kind == "SKIP":
        reason = get("reason", "")
        if reason.startswith('"') and reason.endswith('"'):
            reason = reason[1:-1]
        entry.reason = reason
        if not entry.reason:
            raise CorpusError(f"entry {ident}: SKIP needs a reason", None)
        return entry

    if kind == "FINITE_IDENTITY":
        fam = get("family")
        if fam is None:
            raise CorpusError(f"entry {ident}: FINITE_IDENTITY needs family",
                              None)
        parts = [p.strip() for p in fam.split(";")]
        name = parts[0]
        args: List[object] = []
        for extra in parts[1:]:
            k, _, v = extra.partition("=")
            if k.strip() == "m":
                args.append(int(_rational(v.strip(), line_of("family"))))
            elif k.strip() == "args":
                args.extend(int(a) for a in v.split(","))
            else:
                raise CorpusError(f"bad family option {extra!r}",
                                  line_of("family"))
        entry.family = (name, tuple(args))
        return entry

    term = get("term")
    if term is None:
        raise CorpusError(f"entry {ident}: missing term", None)
    spec = _term_spec(term, line_of("term"))

    if kind == "SERIES":
        if "rhs" not in raw:
            raise CorpusError(f"entry {ident}: SERIES needs rhs", None)
        rhs = _rhs(get("rhs"), line_of("rhs"))
        if rhs is not None:
            entry.series = SeriesIdentity(ident=ident, spec=spec, rhs=rhs,
                                          proven=(status == "proven"))
        else:
            entry.series = None
            entry.check = "evaluate"
        entry.variant = get("variant")
        cp = get("counterpart")
        if cp:
            q_text, _, other = cp.partition("*")
            entry.counterpart = (_rational(q_text.strip(),
                                           line_of("counterpart")),
                                 other.strip())
        # stash the spec even when there is no asserted closed form
        entry.raw["_spec"] = spec
        return entry

    if kind == "INTEGRALITY":
        if spec.den or spec.m.denominator != 1:
            raise CorpusError(
                f"entry {ident}: integrality term needs integer base, no"
                " denominator factors", line_of("term"))
        if any(Fraction(c).denominator != 1 for c in spec.weight):
            raise CorpusError(f"entry {ident}: integrality weight needs"
                              " integer coefficients", line_of("term"))
        opts = {"div": 1, "mul": 1, "div_base": 1, "nmin": 1}
        div_exp, alt, odd, positive = "none", False, "pow2", True
        for part in [p.strip() for p in get("idiv", "-").split(";")]:
            if part in ("-", ""):
                continue
            k, _, v = (x.strip() for x in part.partition("="))
            if part == "alt":
                alt = True
            elif part == "any-sign":
                positive = False
            elif k in ("div", "mul", "div-base", "nmin") \
                    and re.fullmatch(r"-?\d+", v):
                opts[k.replace("-", "_")] = int(v)
            elif k == "div-exp" and v in cg.DIV_EXPS:
                div_exp = v
            elif k == "odd" and (v in cg.ODD_SETS or v == "none"):
                odd = v
            else:
                raise CorpusError(f"bad idiv option {part!r}", line_of("idiv"))
        if not opts["div"] or not opts["div_base"]:
            raise CorpusError("bad idiv option: a divisor is 0",
                              line_of("idiv"))
        entry.integrality = cg.IntegralityClaim(
            ident=ident, weight=spec.weight, seq=spec.seq, base=int(spec.m),
            div=opts["div"], alt=alt, odd_set=None if odd == "none" else odd,
            positive=positive, mul=opts["mul"], div_base=opts["div_base"],
            div_exp=div_exp, n_min=opts["nmin"])
        return entry

    # CONGRUENCE
    mod = get("mod", "p^2")
    m = re.match(r"^p\^(\d)$", mod)
    if not m:
        raise CorpusError(f"entry {ident}: bad modulus {mod!r}",
                          line_of("mod") if "mod" in raw else None)
    s = int(m.group(1))
    min_p = int(get("minp", "5"))
    exclude = tuple(int(x) for x in get("exclude", "").split(",") if x.strip())
    require: List[Tuple[int, int]] = []
    for part in [p.strip() for p in get("require", "").split(",") if p.strip()]:
        mm = re.match(r"^(L|Lp)\((-?\d+)\)=(-?1)$", part)
        if not mm:
            raise CorpusError(f"bad require condition {part!r}",
                              line_of("require"))
        d = _legendre_equivalent(mm.group(1), int(mm.group(2)),
                                 line_of("require"))
        require.append((d, int(mm.group(3))))
    pn_delta: Optional[Tuple[int, ...]] = None
    if get("pn-delta") is not None:
        pn_delta = () if get("pn-delta") == "1" else \
            _symbols(get("pn-delta"), line_of("pn-delta"))
    entry.check = get("check", "sum")

    if cases:
        sym_factor = _symbols(get("sym-factor"), line_of("sym-factor")) \
            if get("sym-factor") else ()
        table = qf.QuadFormTable(
            ident, tuple(_case(v, ln) for ln, v in cases),
            min_p=min_p, exclude=exclude, sym_factor=sym_factor)
        entry.quadform = qf.QuadFormClaim(ident, spec, table)
        return entry

    if get("dual") is not None:
        opts = dict(p.strip().split("=") for p in get("dual").split(";"))
        entry.duality = cg.DualityClaim(
            ident=ident, seq=spec.seq, m=int(spec.m),
            d=int(opts["d"]), D=int(opts["D"]))
        return entry

    if get("dual-term") is not None:
        opts = dict(p.strip().split("=") for p in get("dual-term").split(";"))
        if len(spec.seq) != 1 or spec.seq[0][1] != 1:
            raise CorpusError(
                f"entry {ident}: dual-term needs a single sequence factor",
                line_of("term"))
        d = None if opts["d"] == "-" else int(opts["d"])
        entry.dual_term = (spec.seq[0][0], d, int(opts["D"]))
        return entry

    lhs_ppow = 0
    if get("lhs-mul") is not None:
        mm = re.match(r"^p\^(\d)$", get("lhs-mul"))
        if not mm:
            raise CorpusError(f"bad lhs-mul {get('lhs-mul')!r}",
                              line_of("lhs-mul"))
        lhs_ppow = int(mm.group(1))
    crhs = _crhs(get("crhs"), line_of("crhs")) if "crhs" in raw else ()
    if "crhs" not in raw and not crhs and entry.check != "refinement":
        raise CorpusError(
            f"entry {ident}: congruence needs crhs, case lines, dual data,"
            " or check: refinement", None)
    upper = get("upper", "p-1")
    if upper not in cg.UPPERS:
        raise CorpusError(f"entry {ident}: bad upper {upper!r}",
                          line_of("upper"))
    entry.claim = cg.CongruenceClaim(
        ident=ident, spec=spec, s=s, rhs=crhs, upper=upper,
        min_p=min_p, exclude=exclude, require=tuple(require),
        pn_delta=pn_delta, proven=(status == "proven"), lhs_ppow=lhs_ppow)
    return entry


def parse_registry(text: str) -> List[RegistryEntry]:
    entries: List[RegistryEntry] = []
    seen: Dict[str, int] = {}
    block: Optional[Tuple[str, int]] = None
    lines: List[Tuple[int, str]] = []
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
            block = (ident, ln)
            lines = []
        elif stripped == "end":
            if block is None:
                raise CorpusError("'end' outside an entry", ln)
            entries.append(_parse_block(block[0], lines))
            block = None
        else:
            if block is None:
                raise CorpusError(f"content outside an entry: {stripped!r}",
                                  ln)
            lines.append((ln, stripped))
    if block is not None:
        raise CorpusError(f"entry {block[0]} missing 'end'", block[1])
    return entries


def render_entry(entry: RegistryEntry) -> str:
    """Canonical text for an entry (stable under parse -> render)."""
    out = [f"entry {entry.ident}"]
    order = ["kind", "covers", "status", "variant", "term", "rhs",
             "counterpart", "mod", "lhs-mul", "crhs", "upper", "minp",
             "exclude",
             "require", "pn-delta", "sym-factor", "case", "dual", "dual-term",
             "check", "idiv", "family", "pmax", "reason", "anchor"]
    raw = dict(entry.raw)
    raw.pop("_spec", None)
    raw["kind"] = entry.kind
    raw["status"] = entry.status
    if entry.kind != "SKIP" or entry.anchor:
        raw["anchor"] = f'"{entry.anchor}"'
    for key in order:
        if key not in raw:
            continue
        val = raw[key]
        if key == "case":
            for case in val:
                out.append(f"case: {case}")
        else:
            out.append(f"{key}: {val}")
    out.append("end")
    return "\n".join(out) + "\n"


def default_paths() -> List[Path]:
    return sorted(DATA_DIR.glob("*.txt"))


def load_default() -> List[RegistryEntry]:
    entries: List[RegistryEntry] = []
    seen: Dict[str, str] = {}
    for path in default_paths():
        for e in parse_registry(path.read_text(encoding="utf-8")):
            if e.ident in seen:
                raise CorpusError(
                    f"duplicate id {e.ident!r} across {seen[e.ident]} and"
                    f" {path.name}")
            seen[e.ident] = path.name
            entries.append(e)
    return entries


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


@dataclass
class VerificationReport:
    rows: List[ReportRow]
    digits: int
    p_max: int
    n_max: int

    @property
    def proven_failures(self) -> List[ReportRow]:
        return [r for r in self.rows
                if r.status == "proven" and r.outcome == "FAIL"]

    @property
    def failures(self) -> List[ReportRow]:
        return [r for r in self.rows if r.outcome == "FAIL"]

    @property
    def exit_code(self) -> int:
        return 1 if self.proven_failures else 0

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.rows:
            out[r.outcome] = out.get(r.outcome, 0) + 1
        return out

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
        c = self.counts()
        summary = ", ".join(f"{k}={v}" for k, v in sorted(c.items()))
        lines.append(f"-- {len(self.rows)} entries: {summary}")
        return "\n".join(lines) + "\n"


def _run_series(entry: RegistryEntry, digits: int) -> Tuple[str, str]:
    if entry.check == "evaluate":
        spec = entry.raw["_spec"]
        ball = sereval.eval_series(spec, digits)
        import mpmath
        with mpmath.workdps(digits):
            mid = mpmath.mpf(ball.mid.numerator) / ball.mid.denominator
            return "EVALUATED", f"value ~ {mpmath.nstr(mid, digits)}"
    report = sereval.verify_series_identity(entry.series, digits)
    detail = f"gap<{_sci(report.gap_upper)}" if report.passed \
        else report.status
    return report.status, detail


def _sci(x: Fraction) -> str:
    """Compact scientific upper bound for a nonnegative rational."""
    if x == 0:
        return "0"
    exp = len(str(abs(x.numerator))) - len(str(x.denominator)) + 1
    return f"1e{exp}"


def _run_congruence(entry: RegistryEntry, p_max: int,
                    n_max: int) -> Tuple[str, str]:
    if entry.quadform is not None:
        limit = min(p_max, entry.pmax) if entry.pmax else p_max
        rep = qf.verify_quadform_claim(entry.quadform, limit)
        part = qf.check_partition(entry.quadform.table,
                                  max(1000, limit))
        ok = rep.ok and part.ok
        detail = f"p<=..{limit}: {len(rep.tested)} primes"
        if not rep.ok:
            detail = f"failures {rep.failures[:3]}"
        elif not part.ok:
            detail = f"partition gaps {part.failures[:3]}"
        return ("PASS" if entry.status == "proven" else "SUPPORTED") \
            if ok else "FAIL", detail
    if entry.duality is not None:
        issues = entry.duality.lint()
        rep = cg.check_duality_sum(entry.duality, p_max=min(p_max, 200))
        ok = rep.ok and not issues
        detail = f"{len(rep.tested)} primes" if ok else \
            f"{issues or rep.failures[:3]}"
        return ("PASS" if entry.status == "proven" else "SUPPORTED") \
            if ok else "FAIL", detail
    if entry.dual_term is not None:
        kind, d, D = entry.dual_term
        rep = cg.check_duality_term(kind, d, D, p_max=min(p_max, 97))
        return ("PASS" if rep.ok else "FAIL",
                f"{len(rep.tested)} primes" if rep.ok
                else f"{rep.failures[:3]}")
    if entry.check == "refinement":
        rep = cg.check_pn_refinement(entry.claim, p_max=min(p_max, 50),
                                     n_max=n_max)
        ok = rep.ok
        detail = (f"{len(rep.checked)} (p,n) pairs, min margin"
                  f" {rep.min_margin}") if ok else f"{rep.failures[:3]}"
        return ("SUPPORTED" if ok else "FAIL"), detail
    limit = min(p_max, entry.pmax) if entry.pmax else p_max
    rep = cg.verify_claim(entry.claim, limit)
    ok = rep.ok
    detail = f"{len(rep.tested)} primes" if ok else f"{rep.failures[:3]}"
    return ("PASS" if entry.status == "proven" else "SUPPORTED") \
        if ok else "FAIL", detail


def _run_integrality(entry: RegistryEntry, n_max: int) -> Tuple[str, str]:
    rep = cg.check_integrality(entry.integrality, n_max=n_max)
    outcome = ("PASS" if entry.status == "proven" else "SUPPORTED") \
        if rep.ok else "FAIL"
    return outcome, f"n<= {n_max}" if rep.ok else f"{rep.failures[:3]}"


_FINITE_RUNNERS = {
    "FRANEL_TRANSFORM": lambda args, n: exactid.check_franel_transform(
        min(n, 150)),
    "SN_EXPANSION": lambda args, n: exactid.check_sn_expansion(
        args[0], args[1], min(n, 60)),
    "SKL_BOUND": lambda args, n: exactid.check_skl_bound(40, 40),
    "SUN_FINITE": lambda args, n: exactid.check_sun_finite_step(n),
}


def _run_finite(name: str, args: tuple, n_max: int) -> Tuple[str, str]:
    if name in _FINITE_RUNNERS:
        rep = _FINITE_RUNNERS[name](args, n_max)
    elif name in exactid.FAMILIES:
        rep = exactid.check_family(name, args[0] if args else None, n_max)
    else:
        return "FAIL", f"unknown family {name!r}"
    return ("PASS" if rep.ok else "FAIL",
            f"checked {rep.checked}" if rep.ok
            else f"first failure {rep.first_failure}: {rep.detail}")


def _run_entry(entry: RegistryEntry, digits: int, p_max: int,
               n_max: int) -> ReportRow:
    start = time.monotonic()
    try:
        if entry.kind == "SKIP":
            outcome, detail = "SKIPPED", entry.reason
        elif entry.kind == "SERIES":
            outcome, detail = _run_series(entry, digits)
        elif entry.kind == "CONGRUENCE":
            outcome, detail = _run_congruence(entry, p_max, n_max)
        elif entry.kind == "INTEGRALITY":
            outcome, detail = _run_integrality(entry, n_max)
        else:
            outcome, detail = _run_finite(*entry.family, n_max)
    except Exception as exc:  # surface, do not crash the batch
        outcome, detail = "FAIL", f"error: {exc!r}"
    return ReportRow(entry.ident, entry.kind, entry.status, outcome,
                     time.monotonic() - start, detail)


def run(entries: Sequence[RegistryEntry],
        id_glob: Optional[str] = None,
        kind: Optional[str] = None,
        status: Optional[str] = None,
        digits: int = 40,
        p_max: int = 300,
        n_max: int = 128,
        workers: int = 0) -> VerificationReport:
    """Verify matching entries and merge a deterministic report."""
    selected = [e for e in entries
                if (id_glob is None or fnmatch.fnmatch(e.ident, id_glob))
                and (kind is None or e.kind == kind)
                and (status is None or e.status == status)]
    if workers <= 0:
        workers = min(8, os.cpu_count() or 1)
    if workers == 1 or len(selected) <= 1:
        rows = [_run_entry(e, digits, p_max, n_max) for e in selected]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(
                lambda e: _run_entry(e, digits, p_max, n_max), selected))
    rows.sort(key=lambda r: r.ident)
    return VerificationReport(rows, digits, p_max, n_max)


# --------------------------------------------------------------------------
# lint and coverage
# --------------------------------------------------------------------------

def lint_registry(entries: Sequence[RegistryEntry]) -> List[str]:
    """Structural warnings: weight-constant vs symbol-coefficient sums,
    duality divisibility, and erratum flags.  Never mutates."""
    warnings: List[str] = []
    for e in entries:
        if e.variant == "verbatim":
            warnings.append(f"{e.ident}: ERRATUM_CANDIDATE (verbatim variant"
                            " kept alongside a corrected twin)")
        if e.duality is not None:
            for issue in e.duality.lint():
                warnings.append(f"{e.ident}: DUALITY_DIVISIBILITY {issue}")
        if e.claim is not None and e.claim.s == 2 and e.claim.rhs \
                and e.claim.upper == "p-1" and e.claim.spec.k0 == 0 \
                and not any(t.euler or t.fermat or t.ppow != 1
                            for t in e.claim.rhs) \
                and not e.claim.spec.den:
            c = Fraction(e.claim.spec.weight[0])
            issues = cg.wang_sun_lint(c, e.claim.rhs)
            for issue in issues:
                warnings.append(f"{e.ident}: WANG_SUN_MISMATCH {issue}")
    return warnings


def required_labels() -> List[str]:
    """Every source label that must be covered by an entry or a SKIP."""
    labels = [f"1.{i}" for i in range(1, 89)]
    labels += [f"S{i}" for i in range(1, 11)]
    labels += [f"2.{i}" for i in range(1, 17)]
    labels += ["g-20"]
    for sec, count in ((3, 12), (4, 16), (5, 5), (6, 6), (7, 5), (8, 7),
                       (9, 4), (10, 3)):
        labels += [f"conj{sec}.{i}" for i in range(1, count + 1)]
    return labels


def coverage(entries: Sequence[RegistryEntry]) -> List[str]:
    """Labels with neither a registry entry nor a SKIP record."""
    covered = set()
    for e in entries:
        covered.update(e.covers)
    return [lab for lab in required_labels() if lab not in covered]

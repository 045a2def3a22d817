"""Exact generators for the integer sequences used across the workbench.

Almost every sequence family is a recurrence, and :data:`OPERATORS`
describes each one once: an :class:`Operator` holds its initial rows and
its coefficient polynomials in n (and in the kind's parameters), whose
count fixes its order, and :func:`_operator_rows` grows every kind from
that table.
The defining sums, evaluated term by term, live in the tests as the
operators' oracles.  All arithmetic is exact, in Python integers, so the
rows can feed congruence checks directly.

The operators
-------------
- Order 1: the binomial kinds CB2, CB3, CB4, CB63, CATALAN and CB2SHIFT,
  from the ratio of consecutive rows.
- Order 2: GCT(b,c), FRANEL, BETA, WZAG, DOMB, ZAGIER and GSEQ, the
  classical three-term recurrences, FRANEL4 by Franel's recurrence for
  sum_k C(n,k)^4, and GCT2(b,c) (below).
- Order 3: GPOLY(x), g_n(x) = sum_k C(n,k)^2 C(2k,k) x^k for an integer x.
  The operator is written for x = P/Q on the integers Q^n g_n(P/Q); the
  rows take Q = 1.
- Order 4: SBC(b,c), S_n(b,c) = sum_k C(n,k)^2 T_k(b,c) T_{n-k}(b,c).  With
  p + q = b and pq = c it is the sum of the proper hypergeometric term
  C(n,m)^2 C(2m,m) C(2n-2m,n-m) p^m q^(n-m) (from T_k = sum_i C(k,i)^2
  p^i q^(k-i), C(n,k) C(k,i) C(n-k,m-i) = C(n,m) C(m,i) C(n-m,k-i) and
  Vandermonde), whose integer form is the Lucas sum of
  :func:`_sbc_direct`.

The SBC, GPOLY and FRANEL4 operators are proven, not guessed: each is
Zeilberger's creative telescoping on its summand (Petkovsek, Wilf and
Zeilberger, *A = B*, 1996).  Their certificates, and those of the FRANEL,
DOMB, ZAGIER and GSEQ recurrences, live in ``tests/test_operators.py``:
from the coefficients in :data:`OPERATORS` it solves Gosper's equation for
the polynomial certificate, with the parameters symbolic, and checks it and
the boundary terms exactly.

A row costs its arithmetic, not its interpretation.  Orders 1 and 2,
every kind but GPOLY and SBC, step in loops of their own that keep the
last rows in locals and combine them with explicit products
(c_0 a + c_1 b); orders 3 and 4 step in one general loop over a list of
the last r rows.  Each operator binds its parameters once per kind, and
its coefficients evaluate their polynomials in n by Horner's rule written
out, with no helper call per row.  On long rows the exact division by the
leading coefficient is most of the cost.

Every division by a leading coefficient is checked to be exact and raises
``ArithmeticError`` otherwise.  Where SBC's leading coefficient vanishes
(at most four n for each (b, c), or every n for (0, 0)), the general loop
takes that row from the Lucas sum instead.

The strided kind GCT2, u_n = T_{2n}(b,c), is an operator too: eliminating
the odd rows from three steps of GCT's recurrence leaves an order-2
recurrence for u_n, so a row costs one step and nothing grows T_k to 2n.
``tests/test_operators.py`` derives it from GCT's.

EULER is the one kind that is not an operator: it continues the secant
recurrence row by row.  Every row of every kind is an ``int``.

The sequence store
------------------
:class:`SequenceStore` holds the rows 0, 1, 2, ... of each
:class:`SequenceKind` once.  A kind grows from its last rows: each kind's
generator keeps the state its step needs (the last r rows of its
recurrence), so asking for more rows continues where the last request
stopped and nothing is ever rebuilt.  The rows a request lacks are pulled
from the generator in one ``list.extend`` over ``islice``.

A lock guards growth, so threads may share one store; reading a row that
already exists takes no lock and copies nothing.  :func:`rows` reads the
process-wide store :data:`STORE`.  :func:`table` builds a table from row 0
in a private store and shares nothing, which makes it the tests' reference
for the shared store's step-by-step growth.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import count, islice
from math import comb
from operator import index, mul
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

__all__ = [
    "SequenceKind",
    "SequenceTable",
    "SequenceStore",
    "GCT", "GCT2", "CB2", "CB3", "CB4", "CB63", "CB2SHIFT",
    "CATALAN", "SBC", "DOMB", "FRANEL", "FRANEL4", "GSEQ", "GPOLY",
    "ZAGIER", "BETA", "WZAG", "EULER",
    "Operator", "OPERATORS",
    "STORE", "rows", "memo_table", "table",
]


# --------------------------------------------------------------------------
# Sequence kinds
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceKind:
    """Tag plus parameters identifying one sequence family."""

    tag: str
    params: Tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.tag
        inner = ",".join(str(p) for p in self.params)
        return f"{self.tag}({inner})"


def GCT(b: int, c: int) -> SequenceKind:
    return SequenceKind("GCT", (b, c))


def GCT2(b: int, c: int) -> SequenceKind:
    return SequenceKind("GCT2", (b, c))


CB2 = SequenceKind("CB2")
CB3 = SequenceKind("CB3")
CB4 = SequenceKind("CB4")
CB63 = SequenceKind("CB63")
CB2SHIFT = SequenceKind("CB2SHIFT")
CATALAN = SequenceKind("CATALAN")
DOMB = SequenceKind("DOMB")
FRANEL = SequenceKind("FRANEL")
FRANEL4 = SequenceKind("FRANEL4")
GSEQ = SequenceKind("GSEQ")
ZAGIER = SequenceKind("ZAGIER")
BETA = SequenceKind("BETA")
WZAG = SequenceKind("WZAG")
EULER = SequenceKind("EULER")


def SBC(b: int, c: int) -> SequenceKind:
    return SequenceKind("SBC", (b, c))


def GPOLY(x: int) -> SequenceKind:
    return SequenceKind("GPOLY", (index(x),))


@dataclass(frozen=True)
class SequenceTable:
    """Immutable table of exact values indexed 0..n_max."""

    kind: SequenceKind
    values: Tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        return self.values[n]


# --------------------------------------------------------------------------
# The operator table
# --------------------------------------------------------------------------

def _lin(*terms) -> tuple:
    """sum_i w_i p_i over (w_i, p_i) pairs: each weight is a polynomial in
    the kind's parameters, each p_i a coefficient tuple of one length."""
    weights = [w for w, _ in terms]
    return tuple(sum(w * c for w, c in zip(weights, column))
                 for column in zip(*(p for _, p in terms)))


@dataclass(frozen=True)
class Operator:
    """The recurrence sum_{j=0}^{r} c_j(n) a_{n+j} = 0, for every n >= 0.

    ``coeffs(*params)`` binds the kind's parameters and returns the function
    n -> (c_0(n), ..., c_r(n)) of integer polynomials in n; whatever
    depends on the parameters alone is computed in the binding, once per
    kind.  Rows 0..s-1 (s >= r) are ``init(*params)``; each later row
    a_{n+r} is solved for, with the division by c_r(n) checked to be
    exact.  Where c_r(n) vanishes, ``direct(n + r, *params)`` gives the row
    by its defining sum instead; an operator with ``direct`` steps in the
    general loop whatever its order.  The coefficients use only +, - and
    *, so the tests can evaluate them on symbolic polynomials.
    """

    init: Callable[..., Tuple[int, ...]]
    coeffs: Callable[..., Callable[[int], Tuple[int, ...]]]
    direct: Optional[Callable[..., int]] = None


def _sbc_direct(n: int, b: int, c: int) -> int:
    """S_n(b,c) by the Lucas sum.

    With p + q = b and pq = c, T_k(b,c) = sum_i C(k,i)^2 p^i q^(k-i) gives
    S_n = sum_m h(n,m) p^m q^(n-m), h(n,m) = C(n,m)^2 C(2m,m) C(2n-2m,n-m).
    Pairing m with n - m leaves integers:
    S_n = sum_{m<n/2} h(n,m) c^m V_{n-2m} + [n even] C(n,n/2)^4 c^(n/2),
    where V_0 = 2, V_1 = b, V_j = b V_{j-1} - c V_{j-2}.
    """
    v = [2, b]
    for _ in range(n - 1):
        v.append(b * v[-1] - c * v[-2])
    total = sum(comb(n, m) ** 2 * comb(2 * m, m) * comb(2 * (n - m), n - m)
                * c ** m * v[n - 2 * m] for m in range((n + 1) // 2))
    if n % 2 == 0:
        total += comb(n, n // 2) ** 4 * c ** (n // 2)
    return total


def _sbc_coeffs(b, c):
    """SBC's order-4 operator, of degree 8 in n: with the quartic
    w(n) = b^2 (64n^4 + ...) - c (400n^4 + ...),
    c_0 = 256 c (b^2 - 4c) (n+1)^3 (n+2) w(n+1), c_4 = (n+3) (n+4)^3 w(n),
    c_1 = (n+2) p_1(n), c_2 = p_2(n) and c_3 = (n+3) p_3(n)."""
    w0, w1, w2, w3, w4 = _lin((b * b, (64, 448, 1156, 1305, 549)),
                              (-c, (400, 2800, 7180, 7980, 3264)))
    p10, p11, p12, p13, p14, p15, p16, p17 = _lin(
        (-8 * b ** 5, (512, 7936, 51872, 185304, 390732, 486378, 331047,
                       95094)),
        (8 * b ** 3 * c, (4224, 65472, 427840, 1527632, 3218776, 4002744,
                          2721048, 780432)),
        (-8 * b * c * c, (6400, 99200, 649280, 2326496, 4930624, 6183936,
                          4253040, 1238496)))
    p20, p21, p22, p23, p24, p25, p26, p27, p28 = _lin(
        (4 * b ** 4, (768, 14592, 119920, 556332, 1592200, 2876157, 3199939,
                      2003775, 540792)),
        (-4 * b * b * c, (5568, 105792, 868880, 4025244, 11492348, 20682645,
                          22885727, 14220270, 3796944)),
        (4 * c * c, (4800, 91200, 748960, 3469920, 9912748, 17868660,
                     19837192, 12398400, 3342336)))
    p30, p31, p32, p33, p34, p35, p36, p37 = _lin(
        (-6 * b ** 3, (128, 2240, 16456, 65654, 153373, 209578, 155125,
                       48096)),
        (6 * b * c, (800, 14000, 102760, 409052, 951352, 1289932, 942720,
                     286592)))
    k0 = 256 * c * (b * b - 4 * c)

    def coeffs(n):
        m, h, g = n + 1, n + 3, n + 4
        return (
            k0 * m * m * m * (n + 2)
            * ((((w0 * m + w1) * m + w2) * m + w3) * m + w4),
            (n + 2) * (((((((p10 * n + p11) * n + p12) * n + p13) * n + p14)
                         * n + p15) * n + p16) * n + p17),
            (((((((p20 * n + p21) * n + p22) * n + p23) * n + p24) * n + p25)
              * n + p26) * n + p27) * n + p28,
            h * (((((((p30 * n + p31) * n + p32) * n + p33) * n + p34) * n
                   + p35) * n + p36) * n + p37),
            h * g * g * g * ((((w0 * n + w1) * n + w2) * n + w3) * n + w4))
    return coeffs


def _gpoly_coeffs(P, Q):
    """GPOLY's order-3 operator on Q^n g_n(P/Q), of degree 3 in n."""
    p10, p11, p12, p13 = _lin((P * P, (64, 336, 576, 324)),
                              (P * Q, (0, 0, 4, 6)),
                              (Q * Q, (12, 63, 106, 57)))
    p20, p21, p22, p23 = _lin((-P, (32, 200, 404, 258)),
                              (-Q, (12, 75, 150, 93)))
    k0 = -Q * (4 * P - Q) ** 2

    def coeffs(n):
        m, h = n + 1, n + 3
        return (k0 * m * m * (4 * n + 9),
                ((p10 * n + p11) * n + p12) * n + p13,
                ((p20 * n + p21) * n + p22) * n + p23,
                h * h * (4 * n + 5))
    return coeffs


def _gct2_coeffs(b, c):
    """GCT2's operator on u_n = T_{2n}(b,c), of degree 3 in n:
    (n+2)(2n+3)(4n+3) u_{n+2} = (4n+5) w(n) u_{n+1}
    - (b^2-4c)^2 (n+1)(2n+1)(4n+7) u_n."""
    w0, w1, w2 = _lin((b * b, (4, 10, 5)), (c, (16, 40, 22)))
    k0 = (b * b - 4 * c) ** 2
    return lambda n: (k0 * (n + 1) * (2 * n + 1) * (4 * n + 7),
                      -(4 * n + 5) * ((w0 * n + w1) * n + w2),
                      (n + 2) * (2 * n + 3) * (4 * n + 3))


def _gct_coeffs(b, c):
    """(n+1) T_{n+1} = (2n+1) b T_n - n (b^2-4c) T_{n-1}, at n + 1."""
    d = b * b - 4 * c
    return lambda n: ((n + 1) * d, -(2 * n + 3) * b, n + 2)


def _one():
    return (1,)


#: The recurrence of every kind that has one, by tag.  GCT and SBC take
#: (b, c); GPOLY takes (P, Q) and describes Q^n g_n(P/Q).  The two-term
#: recurrences are written as the ratio den(n) a_{n+1} = num(n) a_n, and
#: the three-term ones as lead(n+1) a_{n+2} = A(n+1) a_{n+1} + B(n+1) a_n,
#: i.e. (-B, -A, lead) at n + 1.  tests/test_operators.py derives the
#: creative-telescoping certificate of SBC, GPOLY, FRANEL4, FRANEL, DOMB,
#: ZAGIER and GSEQ from the coefficients here and checks it exactly, and
#: derives GCT2's from GCT's recurrence.
OPERATORS: Dict[str, Operator] = {
    "CB2": Operator(_one, lambda: lambda n: (-2 * (2 * n + 1), n + 1)),
    "CB3": Operator(_one, lambda: lambda n: (
        -3 * (3 * n + 1) * (3 * n + 2), 2 * (n + 1) * (2 * n + 1))),
    "CB4": Operator(_one, lambda: lambda n: (
        -2 * (4 * n + 1) * (4 * n + 3), (n + 1) * (2 * n + 1))),
    "CB63": Operator(_one, lambda: lambda n: (
        -8 * (6 * n + 1) * (6 * n + 3) * (6 * n + 5),
        (3 * n + 1) * (3 * n + 2) * (3 * n + 3))),
    "CATALAN": Operator(_one, lambda: lambda n: (-2 * (2 * n + 1), n + 2)),
    # C(2n, n+1), from a_1 = 1
    "CB2SHIFT": Operator(lambda: (0, 1), lambda: lambda n: (
        -2 * (n + 1) * (2 * n + 1), n * (n + 2))),
    # (n+1)^2 a_{n+1} = (7n^2+7n+2) a_n + 8n^2 a_{n-1}
    "FRANEL": Operator(lambda: (1, 2), lambda: lambda n: (
        -8 * (n + 1) ** 2, -(7 * n * n + 21 * n + 16), (n + 2) ** 2)),
    # Apery's numbers for zeta(2): (n+1)^2 a_{n+1} = (11n^2+11n+3) a_n
    # + n^2 a_{n-1}
    "BETA": Operator(lambda: (1, 3), lambda: lambda n: (
        -(n + 1) ** 2, -(11 * n * n + 33 * n + 25), (n + 2) ** 2)),
    # (n+1)^2 a_{n+1} = (9n^2+9n+3) a_n - 27n^2 a_{n-1}
    "WZAG": Operator(lambda: (1, 3), lambda: lambda n: (
        27 * (n + 1) ** 2, -(9 * n * n + 27 * n + 21), (n + 2) ** 2)),
    # (n+1)^2 a_{n+1} = (10n^2+10n+3) a_n - 9n^2 a_{n-1}
    "GSEQ": Operator(lambda: (1, 3), lambda: lambda n: (
        9 * (n + 1) ** 2, -(10 * n * n + 30 * n + 23), (n + 2) ** 2)),
    # (n+1)^2 a_{n+1} = 4(3n^2+3n+1) a_n - 32n^2 a_{n-1}
    "ZAGIER": Operator(lambda: (1, 4), lambda: lambda n: (
        32 * (n + 1) ** 2, -4 * (3 * n * n + 9 * n + 7), (n + 2) ** 2)),
    # (n+1)^3 a_{n+1} = 2(2n+1)(5n^2+5n+2) a_n - 64n^3 a_{n-1}
    "DOMB": Operator(lambda: (1, 4), lambda: lambda n: (
        64 * (n + 1) ** 3, -2 * (2 * n + 3) * (5 * n * n + 15 * n + 12),
        (n + 2) ** 3)),
    # Franel's recurrence for sum_k C(n,k)^4
    "FRANEL4": Operator(lambda: (1, 2), lambda: lambda n: (
        -4 * (n + 1) * (4 * n + 3) * (4 * n + 5),
        -2 * (2 * n + 3) * (3 * n * n + 9 * n + 7), (n + 2) ** 3)),
    "GCT": Operator(lambda b, c: (1, b), _gct_coeffs),
    # T_{2n}(b,c)
    "GCT2": Operator(lambda b, c: (1, b * b + 2 * c), _gct2_coeffs),
    # sum_k C(n,k)^2 C(2k,k) P^k Q^(n-k)
    "GPOLY": Operator(
        lambda P, Q: (1, 2 * P + Q, 6 * P * P + 8 * P * Q + Q * Q),
        _gpoly_coeffs),
    # sum_m h(n,m) p^m q^(n-m) with p + q = b, pq = c (see _sbc_direct);
    # c_4(n) vanishes for at most four n, or for every n when b = c = 0
    "SBC": Operator(
        lambda b, c: tuple(_sbc_direct(n, b, c) for n in range(4)),
        _sbc_coeffs, direct=_sbc_direct),
}


def _stuck(kind: SequenceKind, n: int, why: str) -> ArithmeticError:
    return ArithmeticError(f"{why} in the {kind} recurrence at n={n}")


def _operator_rows(kind: SequenceKind, op: Operator,
                   params: Tuple[int, ...]) -> Iterator[int]:
    """The rows of ``kind`` by the recurrence ``op`` at ``params``.

    An operator of order 1 or 2 without ``direct`` rows steps in a loop of
    its own, which keeps the last rows in locals and combines them with
    explicit products; there a zero c_r(n) is the ``ZeroDivisionError`` of
    the division, raised as the general loop's ``ArithmeticError``.  Every
    other operator steps in the general loop over a list of its last r
    rows, which takes ``direct`` where c_r(n) vanishes.
    """
    coeffs = op.coeffs(*params)
    first = op.init(*params)
    yield from first
    r = len(coeffs(0)) - 1
    n = len(first) - r
    if op.direct is None and r in (1, 2):
        try:
            if r == 1:
                a = first[-1]
                for n in count(n):
                    c0, c1 = coeffs(n)
                    a, rem = divmod(c0 * a, -c1)
                    if rem:
                        raise _stuck(kind, n, "inexact division")
                    yield a
            else:
                a, b = first[-2:]
                for n in count(n):
                    c0, c1, c2 = coeffs(n)
                    a, (b, rem) = b, divmod(c0 * a + c1 * b, -c2)
                    if rem:
                        raise _stuck(kind, n, "inexact division")
                    yield b
        except ZeroDivisionError:
            raise _stuck(kind, n, "zero leading coefficient") from None
    last = list(first[len(first) - r:])
    for n in count(n):
        cs = coeffs(n)
        lead = cs[r]
        if lead:
            # map stops after the r rows in last: c_0..c_{r-1}
            nxt, rem = divmod(sum(map(mul, cs, last)), -lead)
            if rem:
                raise _stuck(kind, n, "inexact division")
        elif op.direct is not None:
            nxt = op.direct(n + r, *params)
        else:
            raise _stuck(kind, n, "zero leading coefficient")
        last.append(nxt)
        del last[0]
        yield nxt


def _euler() -> Iterator[int]:
    """E_0, E_1, ...: odd rows are 0 and sum_{j<=m} C(2m,2j) E_{2j} = 0."""
    even = [1]
    yield 1
    for m in count(1):
        yield 0
        even.append(-sum(comb(2 * m, 2 * j) * even[j] for j in range(m)))
        yield even[m]


def _generator(kind: SequenceKind) -> Iterator[int]:
    """The row generator of ``kind``."""
    tag = kind.tag
    if tag == "GPOLY":
        return _operator_rows(kind, OPERATORS[tag], (kind.params[0], 1))
    if tag in OPERATORS:
        return _operator_rows(kind, OPERATORS[tag],
                              tuple(map(index, kind.params)))
    if tag == "EULER":
        return _euler()
    raise ValueError(f"unknown sequence kind {kind}")


# --------------------------------------------------------------------------
# The store
# --------------------------------------------------------------------------

class SequenceStore:
    """Rows of each sequence kind, computed once and extended in place."""

    def __init__(self) -> None:
        self._rows: Dict[SequenceKind, List[int]] = {}
        self._gens: Dict[SequenceKind, Iterator[int]] = {}
        self._lock = threading.Lock()

    def rows(self, kind: SequenceKind, n: int) -> Sequence[int]:
        """Rows 0..n' of ``kind`` for some n' >= n.

        The result is the store's own list.  It only ever grows by
        appending, so a caller may keep it and index it; it must not
        modify it.
        """
        got = self._rows.get(kind)
        if got is not None and len(got) > n:
            return got
        with self._lock:
            got = self._rows.get(kind)
            if got is None:
                self._gens[kind] = _generator(kind)
                got = self._rows[kind] = []
            try:
                if len(got) <= n:
                    got.extend(islice(self._gens[kind], n + 1 - len(got)))
            except BaseException:
                # the generator is spent (or a value was lost between it and
                # the list): start the kind afresh on the next request
                del self._rows[kind]
                self._gens.pop(kind, None)
                raise
            return got


#: The process-wide store behind :func:`rows` and :func:`memo_table`.
STORE = SequenceStore()


def rows(kind: SequenceKind, n: int) -> Sequence[int]:
    """Rows 0..n' (n' >= n) of ``kind`` from the process-wide store."""
    return STORE.rows(kind, n)


def memo_table(kind: SequenceKind, n_max: int) -> SequenceTable:
    """Snapshot of the process-wide store: a table with n_max' >= n_max."""
    return SequenceTable(kind, tuple(STORE.rows(kind, n_max)))


def table(kind: SequenceKind, n_max: int) -> SequenceTable:
    """Rows 0..n_max of ``kind``, built from row 0 in a private store."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    vals = SequenceStore().rows(kind, n_max)
    return SequenceTable(kind, tuple(vals[:n_max + 1]))


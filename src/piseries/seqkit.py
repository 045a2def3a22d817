"""Exact generators for the integer/rational sequences used across the workbench.

Every sequence family comes in two independent flavours: a fast generator
(recurrence, or a convolution over Pascal's row) and an oracle (the defining
sum evaluated term by term).  All arithmetic is exact -- Python integers and
``fractions.Fraction`` -- so the rows can feed congruence checks directly.

The sequence store
------------------
:class:`SequenceStore` holds the rows 0, 1, 2, ... of each
:class:`SequenceKind` once.  A kind grows from its last row: each kind has a
generator that keeps the state its step needs (the last one or two values of
a recurrence, or Pascal's row of a convolution), so asking for more rows
continues where the last request stopped and nothing is ever rebuilt.

- Second-order recurrences ``lead(n) a_{n+1} = A(n) a_n + B(n) a_{n-1}``
  give GCT, FRANEL, BETA, WZAG, DOMB, ZAGIER, CLF and GSEQ; the binomial
  kinds (CB2, CB3, CB4, CB63) follow from the ratio of consecutive rows.
  Every division in these steps is checked to be exact and raises
  ``ArithmeticError`` otherwise.
- SBC, GPOLY and FRANEL4 are convolutions ``sum_k C(n,k)^e ...``; Pascal's
  row is carried from one row to the next.
- EULER continues the secant recurrence row by row.
- GCT2/GCT3 read every second/third row of their GCT kind, SBC reads the
  rows of its T_k(b,c), and CB2SHIFT, CATALAN and GPOLY read CB2, all from
  the same store.

A lock guards growth, so threads may share one store; reading a row that
already exists takes no lock and copies nothing.  :func:`rows` reads the
process-wide store :data:`STORE`.  :func:`table` builds a table from row 0
in a private store and shares nothing, which makes it the tests' reference
for the shared store's step-by-step growth.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import comb
from typing import Dict, Iterator, List, Sequence, Tuple, Union

Number = Union[int, Fraction]

__all__ = [
    "SequenceKind",
    "SequenceTable",
    "SequenceStore",
    "GCT", "GCT2", "GCT3", "CB2", "CB3", "CB4", "CB63", "CB2SHIFT",
    "CATALAN", "SBC", "DOMB", "FRANEL", "FRANEL4", "GSEQ", "GPOLY",
    "ZAGIER", "CLF", "BETA", "WZAG", "EULER",
    "STORE", "rows", "memo_table", "table", "gct_direct",
    "snk", "tsmall_direct", "legendre_eval",
]


# --------------------------------------------------------------------------
# Sequence kinds
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceKind:
    """Tag plus parameters identifying one sequence family."""

    tag: str
    params: Tuple[Number, ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.tag
        inner = ",".join(str(p) for p in self.params)
        return f"{self.tag}({inner})"


def GCT(b: int, c: int) -> SequenceKind:
    return SequenceKind("GCT", (b, c))


def GCT2(b: int, c: int) -> SequenceKind:
    return SequenceKind("GCT2", (b, c))


def GCT3(b: int, c: int) -> SequenceKind:
    return SequenceKind("GCT3", (b, c))


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
CLF = SequenceKind("CLF")
BETA = SequenceKind("BETA")
WZAG = SequenceKind("WZAG")
EULER = SequenceKind("EULER")


def SBC(b: int, c: int) -> SequenceKind:
    return SequenceKind("SBC", (b, c))


def GPOLY(x: Number) -> SequenceKind:
    if isinstance(x, Fraction) and x.denominator == 1:
        x = int(x)
    return SequenceKind("GPOLY", (x,))


@dataclass(frozen=True)
class SequenceTable:
    """Immutable table of exact values indexed 0..n_max."""

    kind: SequenceKind
    values: Tuple[Number, ...]

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> Number:
        return self.values[n]


# --------------------------------------------------------------------------
# Direct-sum definitions (the oracles)
# --------------------------------------------------------------------------

def gct_direct(b: int, c: int, n: int) -> int:
    """T_n(b,c) straight from the defining sum (the oracle)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 0
    for k in range(n // 2 + 1):
        total += comb(n, 2 * k) * comb(2 * k, k) * b ** (n - 2 * k) * c ** k
    return total


def _sbc_value(b: int, c: int, tb: Sequence[int], n: int) -> int:
    return sum(comb(n, k) ** 2 * tb[k] * tb[n - k] for k in range(n + 1))


def _domb_value(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(2 * k, k) * comb(2 * (n - k), n - k)
               for k in range(n + 1))


def _franel_value(n: int) -> int:
    return sum(comb(n, k) ** 3 for k in range(n + 1))


def _franel4_value(n: int) -> int:
    return sum(comb(n, k) ** 4 for k in range(n + 1))


def _gseq_value(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(2 * k, k) for k in range(n + 1))


def _gpoly_value(n: int, x: Number) -> Number:
    total: Number = 0
    for k in range(n + 1):
        total += comb(n, k) ** 2 * comb(2 * k, k) * x ** k
    return total


def _zagier_value(n: int) -> int:
    return sum(comb(n, k) * comb(2 * k, k) * comb(2 * (n - k), n - k)
               for k in range(n + 1))


def _beta_value(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(n + k, k) for k in range(n + 1))


def _wzag_value(n: int) -> int:
    return sum((-1) ** k * 3 ** (n - 3 * k) * comb(n, 3 * k) * comb(3 * k, k)
               * comb(2 * k, k) for k in range(n // 3 + 1))


# --------------------------------------------------------------------------
# s_{n,k} and t_n
# --------------------------------------------------------------------------

def snk(n: int, k: int) -> Fraction:
    """s_{n,k} = (1/C(n,k)) * sum_i C(n,2i) C(n,2(k-i)) C(2i,i) C(2(k-i),k-i)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    total = 0
    for i in range(k + 1):
        total += (comb(n, 2 * i) * comb(n, 2 * (k - i))
                  * comb(2 * i, i) * comb(2 * (k - i), k - i))
    return Fraction(total, comb(n, k))


def tsmall_direct(n: int) -> Fraction:
    """t_n = sum_{0<k<=n} C(n-1,k-1) (-1)^k 4^{n-k} s_{n+k,k}."""
    total = Fraction(0)
    for k in range(1, n + 1):
        total += comb(n - 1, k - 1) * (-1) ** k * 4 ** (n - k) * snk(n + k, k)
    return total


# --------------------------------------------------------------------------
# Legendre polynomials
# --------------------------------------------------------------------------

def legendre_eval(n: int, x):
    """P_n(x) by the three-term recurrence; exact when x is rational."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return x ** 0  # one, in the arithmetic type of x
    prev = x ** 0
    cur = x
    for m in range(1, n):
        nxt = ((2 * m + 1) * x * cur - m * prev) / (m + 1)
        prev, cur = cur, nxt
    return cur


# --------------------------------------------------------------------------
# Row generators
# --------------------------------------------------------------------------

def _exact(num: int, den: int, kind: SequenceKind, n: int) -> int:
    """num / den, which the recurrence of ``kind`` guarantees is exact."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(
            f"inexact division in the {kind} recurrence at n={n}")
    return q


#: a_0 = 1 and lead(n) a_{n+1} = A(n) a_n + B(n) a_{n-1}, with B(0) = 0:
#: (lead, A, B) per tag.
_RECURRENCES = {
    "FRANEL": (lambda n: (n + 1) ** 2, lambda n: 7 * n * n + 7 * n + 2,
               lambda n: 8 * n * n),
    # Apery's numbers for zeta(2)
    "BETA": (lambda n: (n + 1) ** 2, lambda n: 11 * n * n + 11 * n + 3,
             lambda n: n * n),
    "WZAG": (lambda n: (n + 1) ** 2, lambda n: 9 * n * n + 9 * n + 3,
             lambda n: -27 * n * n),
    "GSEQ": (lambda n: (n + 1) ** 2, lambda n: 10 * n * n + 10 * n + 3,
             lambda n: -9 * n * n),
    "ZAGIER": (lambda n: (n + 1) ** 2, lambda n: 4 * (3 * n * n + 3 * n + 1),
               lambda n: -32 * n * n),
    # 2^n times ZAGIER
    "CLF": (lambda n: (n + 1) ** 2, lambda n: 8 * (3 * n * n + 3 * n + 1),
            lambda n: -128 * n * n),
    "DOMB": (lambda n: (n + 1) ** 3,
             lambda n: 2 * (2 * n + 1) * (5 * n * n + 5 * n + 2),
             lambda n: -64 * n ** 3),
}

#: a_0 = 1 and a_{n+1} = a_n num(n) / den(n): (num, den) per tag.
_RATIOS = {
    "CB2": (lambda n: 2 * (2 * n + 1), lambda n: n + 1),
    "CB3": (lambda n: 3 * (3 * n + 1) * (3 * n + 2),
            lambda n: 2 * (n + 1) * (2 * n + 1)),
    "CB4": (lambda n: 2 * (4 * n + 1) * (4 * n + 3),
            lambda n: (n + 1) * (2 * n + 1)),
    "CB63": (lambda n: 8 * (6 * n + 1) * (6 * n + 3) * (6 * n + 5),
             lambda n: (3 * n + 1) * (3 * n + 2) * (3 * n + 3)),
}


def _three_term(kind: SequenceKind, lead, a, b) -> Iterator[int]:
    prev, cur = 0, 1
    for n in count():
        yield cur
        prev, cur = cur, _exact(a(n) * cur + b(n) * prev, lead(n), kind, n)


def _ratio(kind: SequenceKind, num, den) -> Iterator[int]:
    cur = 1
    for n in count():
        yield cur
        cur = _exact(cur * num(n), den(n), kind, n)


def _pascal_rows() -> Iterator[List[int]]:
    """Rows 0, 1, 2, ... of Pascal's triangle, each from the one before."""
    row = [1]
    while True:
        yield row
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]


def _sbc(store: "SequenceStore", base: SequenceKind) -> Iterator[int]:
    """S_n(b,c) = sum_k C(n,k)^2 T_k T_{n-k}; the terms k and n-k agree."""
    for n, row in enumerate(_pascal_rows()):
        tb = store.rows(base, n)
        half = sum(row[k] ** 2 * tb[k] * tb[n - k] for k in range((n + 1) // 2))
        mid = (row[n // 2] * tb[n // 2]) ** 2 if n % 2 == 0 else 0
        yield 2 * half + mid


def _gpoly(store: "SequenceStore", x: Number) -> Iterator[Number]:
    """g_n(x) = sum_k C(n,k)^2 C(2k,k) x^k, summed over integers with
    x = p/q as q^(-n) sum_k C(n,k)^2 C(2k,k) p^k q^(n-k)."""
    p, q = Fraction(x).numerator, Fraction(x).denominator
    pp, qp = [1], [1]
    for n, row in enumerate(_pascal_rows()):
        cb = store.rows(CB2, n)
        total = sum(row[k] ** 2 * cb[k] * pp[k] * qp[n - k]
                    for k in range(n + 1))
        yield total if q == 1 else Fraction(total, qp[n])
        pp.append(pp[-1] * p)
        qp.append(qp[-1] * q)


def _euler() -> Iterator[int]:
    """E_0, E_1, ...: odd rows are 0 and sum_{j<=m} C(2m,2j) E_{2j} = 0."""
    even = [1]
    yield 1
    for m in count(1):
        yield 0
        even.append(-sum(comb(2 * m, 2 * j) * even[j] for j in range(m)))
        yield even[m]


def _generator(kind: SequenceKind, store: "SequenceStore") -> Iterator[Number]:
    """The row generator of ``kind``; kinds it reads come from ``store``."""
    tag = kind.tag
    if tag in _RECURRENCES:
        return _three_term(kind, *_RECURRENCES[tag])
    if tag in _RATIOS:
        return _ratio(kind, *_RATIOS[tag])
    if tag == "GCT":
        b, c = (int(v) for v in kind.params)
        return _three_term(kind, lambda n: n + 1, lambda n: (2 * n + 1) * b,
                           lambda n: -n * (b * b - 4 * c))
    if tag in ("GCT2", "GCT3"):
        stride = 2 if tag == "GCT2" else 3
        base = GCT(*kind.params)
        return (store.rows(base, stride * n)[stride * n] for n in count())
    if tag == "SBC":
        return _sbc(store, GCT(*kind.params))
    if tag == "GPOLY":
        return _gpoly(store, kind.params[0])
    if tag == "FRANEL4":
        return (sum(v ** 4 for v in row) for row in _pascal_rows())
    if tag == "CB2SHIFT":   # C(2n, n+1) = C(2n, n) n / (n+1)
        return (_exact(store.rows(CB2, n)[n] * n, n + 1, kind, n)
                for n in count())
    if tag == "CATALAN":
        return (_exact(store.rows(CB2, n)[n], n + 1, kind, n)
                for n in count())
    if tag == "EULER":
        return _euler()
    raise ValueError(f"unknown sequence kind {kind}")


# --------------------------------------------------------------------------
# The store
# --------------------------------------------------------------------------

class SequenceStore:
    """Rows of each sequence kind, computed once and extended in place."""

    def __init__(self) -> None:
        self._rows: Dict[SequenceKind, List[Number]] = {}
        self._gens: Dict[SequenceKind, Iterator[Number]] = {}
        # re-entrant: growing SBC or GCT2 grows its GCT kind inside the lock
        self._lock = threading.RLock()

    def rows(self, kind: SequenceKind, n: int) -> Sequence[Number]:
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
                gen = _generator(kind, self)
                got = self._rows[kind] = []
                self._gens[kind] = gen
            gen = self._gens[kind]
            try:
                while len(got) <= n:
                    got.append(next(gen))
            except BaseException:
                # the generator is spent (or a value was lost between it and
                # the list): start the kind afresh on the next request
                del self._rows[kind], self._gens[kind]
                raise
            return got


#: The process-wide store behind :func:`rows` and :func:`memo_table`.
STORE = SequenceStore()


def rows(kind: SequenceKind, n: int) -> Sequence[Number]:
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


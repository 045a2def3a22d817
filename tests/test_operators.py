"""Certificates for the recurrences of ``seqkit.OPERATORS``.

The operators of SBC, GPOLY and FRANEL4, and the classical ones of FRANEL,
DOMB, ZAGIER and GSEQ, are proven here.  Each of them,
sum_j c_j(n) a_{n+j} = 0, comes from Zeilberger's creative telescoping on a
summand of the form

    F(n,m) = C(n,m)^e f(m) g(n-m) P^m Q^(n-m),   f, g in {1, C(2k,k)},

whose sum over m is a_n.  With J the order, k = n - m, E = e + [g = C(2k,k)]
and
H(m) = F(n,m) / ((k+1)...(k+J))^E, the telescoped sum
t_m = sum_j c_j(n) F(n+j,m) is H(m) p(m) for a polynomial p, and
H(m+1)/H(m) = a(m)/b(m+1) for polynomials a, b.  A polynomial x with

    a(m) x(m+1) - b(m) x(m) = p(m)                           (Gosper)

makes G(m) = b(m) x(m) H(m) satisfy t_m = G(m+1) - G(m) for 0 <= m < n,
so sum_j c_j(n) a_{n+j} = G(n,n) + sum_{n<=m<=n+J} t_m, since G(n,0) = 0
(b(0) = 0).  The right-hand side is f(n) P^n times a rational function of
n; when it vanishes identically the recurrence holds for every n >= 0.
R(n,m) = b(m) x(m) / ((k+1)...(k+J))^E is the certificate; it has no pole
for 0 <= m <= n.

The tests solve (Gosper) for x from the operator in ``seqkit`` and check
both identities exactly, with P and Q left symbolic: a polynomial identity
in P and Q holds for every SBC pair (b, c) = (P + Q, PQ) and every GPOLY
argument P/Q.  The GCT2 operator is not telescoped: it is eliminated
from GCT's own recurrence (at the end of this file).  Nothing
here needs sympy.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import pytest

from piseries import seqkit as sk

NVARS = 4   # n, m, P, Q


class Poly:
    """A sparse polynomial over Q in n, m, P, Q: {exponents: coefficient}."""

    __slots__ = ("t",)

    def __init__(self, terms=None):
        self.t = {e: c for e, c in (terms or {}).items() if c}

    @staticmethod
    def lift(x) -> "Poly":
        return x if isinstance(x, Poly) else Poly({(0,) * NVARS: x})

    def __add__(self, other):
        out = dict(self.t)
        for e, c in Poly.lift(other).t.items():
            out[e] = out.get(e, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.t.items()})

    def __sub__(self, other):
        return self + -Poly.lift(other)

    def __rsub__(self, other):
        return Poly.lift(other) - self

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.t.items():
            for e2, c2 in Poly.lift(other).t.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Poly.lift(1)
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.t)

    def by_m(self) -> list:
        """Coefficients of m^0, m^1, ...: polynomials free of m."""
        out = []
        for e, c in self.t.items():
            while len(out) <= e[1]:
                out.append({})
            out[e[1]][e[:1] + (0,) + e[2:]] = c
        return [Poly(d) for d in out]


def _var(i: int) -> Poly:
    return Poly({tuple(int(j == i) for j in range(NVARS)): 1})


N, M, P, Q = (_var(i) for i in range(NVARS))


def _quo(a, b):
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return Fraction(a) / b


def divide_exact(f: Poly, g: Poly) -> Poly:
    """f / g, which must be a polynomial (lex-order division)."""
    lead = max(g.t)
    rest = dict(f.t)
    out = {}
    while rest:
        top = max(rest)
        e = tuple(a - b for a, b in zip(top, lead))
        if min(e) < 0:
            raise ArithmeticError("no polynomial quotient")
        c = _quo(rest[top], g.t[lead])
        out[e] = c
        for eg, cg in g.t.items():
            key = tuple(a + b for a, b in zip(eg, e))
            v = rest.get(key, 0) - c * cg
            if v:
                rest[key] = v
            else:
                rest.pop(key, None)
    return Poly(out)


def _rising(x, j: int) -> Poly:
    """(x+1)(x+2)...(x+j)."""
    out = Poly.lift(1)
    for i in range(1, j + 1):
        out = out * (x + i)
    return out


def _binom_poly(x, j: int) -> Poly:
    """C(x+j, j) as a polynomial in x."""
    return _rising(x, j) * Fraction(1, factorial(j))


def _cb2_ratio_num(x, i: int) -> Poly:
    """prod_{l<i} 2(2x+2l+1): C(2x+2i,x+i)/C(2x,x) times (x+1)...(x+i)."""
    out = Poly.lift(1)
    for l in range(i):
        out = out * (2 * (2 * x + 2 * l + 1))
    return out


class Family:
    """The summand C(n,m)^e f(m) g(n-m) P^m Q^(n-m) and an operator."""

    def __init__(self, e, f_cb2, g_cb2, coeffs, P, Q):
        self.e, self.f, self.g = e, int(f_cb2), int(g_cb2)
        self.P, self.Q = Poly.lift(P), Poly.lift(Q)
        self.coeffs = list(coeffs)        # c_j(n) as polynomials in n, P, Q
        self.J = len(self.coeffs) - 1
        self.E = e + self.g

    def gosper(self):
        """The polynomials a(m), b(m) and p(m) of (Gosper)."""
        e, f, g, J, E = self.e, self.f, self.g, self.J, self.E
        P, Q = self.P, self.Q
        k = N - M
        a = 2 ** f * P * (2 * M + 1) ** f * (N + J - M) ** E
        b = 2 ** g * Q * M ** (e + f) * (2 * N - 2 * M + 1) ** g
        p = Poly()
        for j, c in enumerate(self.coeffs):
            gamma = _cb2_ratio_num(k, j) if g else 1
            p = p + (c * _rising(N, j) ** e * gamma * Q ** j
                     * _rising(k + j, J - j) ** E)
        return a, b, p

    def boundary(self, x) -> Poly:
        """(G(n,n) + sum_{n<=m<=n+J} t_m) D(n) / (f(n) P^n), where
        D(n) = (n+1)...(n+J) if f = C(2k,k), else 1."""
        e, f, g, J, E = self.e, self.f, self.g, self.J, self.E
        P, Q = self.P, self.Q
        x_at_n = Poly()
        for i, xi in enumerate(x):
            x_at_n = x_at_n + xi * N ** i
        D = _rising(N, J) if f else Poly.lift(1)
        total = (2 ** g * Q * N ** (e + f) * x_at_n * D
                 * Fraction(1, factorial(J) ** E))
        for i in range(J + 1):
            # f(n+i)/f(n) D(n) = prod_{l<i} 2(2n+2l+1) (n+i+1)...(n+J)
            ratio = (_cb2_ratio_num(N, i) * _rising(N + i, J - i)
                     if f else Poly.lift(1))
            for j in range(i, J + 1):
                gk = Fraction(factorial(2 * (j - i)),
                              factorial(j - i) ** 2) if g else 1
                total = total + (self.coeffs[j] * _binom_poly(N + i, j - i) ** e
                                 * ratio * gk * P ** i * Q ** (j - i))
        return total


def certificate(fam: Family) -> list:
    """The coefficients x_0, x_1, ... (polynomials in n, P, Q) of the
    polynomial solution of (Gosper); raise ArithmeticError if there is none
    of the degree the leading terms force."""
    a, b, p = fam.gosper()
    A, B, Pm = a.by_m(), b.by_m(), p.by_m()
    D = len(A) - 1
    assert len(B) - 1 == D
    equal_lead = not (A[D] - B[D])
    s = D - 1 if equal_lead else D
    d = len(Pm) - 1 - s
    if d < 0:
        raise ArithmeticError("p(m) has too low a degree")
    lhs = [Poly() for _ in range(d + D + 1)]
    x = [Poly() for _ in range(d + 1)]
    for l in range(d, -1, -1):
        pivot = (l * A[D] + A[D - 1] - B[D - 1]) if equal_lead \
            else A[D] - B[D]
        x[l] = divide_exact(Pm[l + s] - lhs[l + s], pivot)
        # add a(m) x_l (m+1)^l - b(m) x_l m^l to the left-hand side
        shifted = [x[l] * comb(l, i) for i in range(l + 1)]
        for i, ai in enumerate(A):
            for r, xs in enumerate(shifted):
                lhs[i + r] = lhs[i + r] + ai * xs
        for i, bi in enumerate(B):
            lhs[i + l] = lhs[i + l] - bi * x[l]
    residual = [lhs[i] - (Pm[i] if i < len(Pm) else 0)
                for i in range(len(lhs))]
    if any(residual):
        raise ArithmeticError("the Gosper equation has no polynomial solution")
    return x


#: tag -> (e, f = C(2k,k), g = C(2k,k), P, Q) of the summand; SBC's P and
#: Q are the roots p, q of x^2 - b x + c, so its coefficients read
#: b = P + Q and c = P Q.
SUMMANDS = {
    "SBC": (2, True, True, P, Q),
    "GPOLY": (2, True, False, P, Q),
    "FRANEL4": (4, False, False, 1, 1),
    "FRANEL": (3, False, False, 1, 1),
    "DOMB": (2, True, True, 1, 1),
    "ZAGIER": (1, True, True, 1, 1),
    "GSEQ": (2, True, False, 1, 1),
}


def _family(tag: str, op=None) -> Family:
    op = op or sk.OPERATORS[tag]
    e, f, g, p, q = SUMMANDS[tag]
    params = {"SBC": (P + Q, P * Q), "GPOLY": (P, Q)}.get(tag, ())
    return Family(e, f, g, op.coeffs(*params)(N), p, q)


def _proved(tag: str, op=None) -> bool:
    fam = _family(tag, op)
    x = certificate(fam)
    return not fam.boundary(x)


@pytest.mark.parametrize("tag", sorted(SUMMANDS))
def test_operator_has_a_telescoping_certificate(tag):
    assert _proved(tag)


@pytest.mark.parametrize("tag,j", [("SBC", 2), ("SBC", 4), ("GPOLY", 1),
                                   ("FRANEL4", 0), ("DOMB", 2)])
def test_corrupted_coefficient_has_no_certificate(tag, j):
    op = sk.OPERATORS[tag]

    def bad(*params):
        good = op.coeffs(*params)

        def coeffs(n):           # add n to c_j
            cs = list(good(n))
            cs[j] = cs[j] + n
            return tuple(cs)
        return coeffs

    broken = sk.Operator(op.init, bad, op.direct)
    try:
        proved = _proved(tag, broken)
    except ArithmeticError:      # no polynomial certificate
        proved = False
    assert not proved


def test_poly_division_and_coefficients_in_m():
    f = (N + 2 * P) * (P - Q) ** 2
    assert not divide_exact(f, P - Q) - (N + 2 * P) * (P - Q)
    with pytest.raises(ArithmeticError):
        divide_exact(f + 1, P - Q)
    assert [c.t for c in ((M + N) ** 2).by_m()] == [
        (N ** 2).t, (2 * N).t, Poly.lift(1).t]


# --------------------------------------------------------------------------
# GCT2: eliminated from GCT's recurrence
# --------------------------------------------------------------------------
#
# Here P stands for b and Q for c.  GCT's recurrence
# (k+1) T_{k+1} = (2k+1) b T_k - k (b^2-4c) T_{k-1} holds for every k >= 0,
# so with u = T_{sn}, v = T_{sn+1} each later row is d_j T_{sn+j} =
# x_j u + y_j v, where d_j = (sn+2)...(sn+j) and x_j, y_j are polynomials.
# Steps k = sn+1, ..., sn+2s-1 reach T_{s(n+2)}: 3 instances for s = 2.

def _strided_rows(s: int):
    """[(x_j, y_j)] for j = 0..2s, and the denominators [d_j]."""
    D = P * P - 4 * Q
    xy = [(Poly.lift(1), Poly()), (Poly(), Poly.lift(1))]
    d = [Poly.lift(1), Poly.lift(1)]
    for j in range(1, 2 * s):
        k = s * N + j
        # d_j T_{k-1} = r (x_{j-1}, y_{j-1}), r = d_j / d_{j-1}
        r = k if j > 1 else Poly.lift(1)
        (x1, y1), (x0, y0) = xy[j], xy[j - 1]
        xy.append(((2 * k + 1) * P * x1 - k * D * r * x0,
                   (2 * k + 1) * P * y1 - k * D * r * y0))
        d.append(d[j] * (k + 1))
    return xy, d


@pytest.mark.parametrize("tag,s", [("GCT2", 2)])
def test_strided_operator_is_eliminated_from_gct(tag, s):
    xy, d = _strided_rows(s)
    # columns of T_{sn}, T_{s(n+1)}, T_{s(n+2)} over the common d_{2s}
    lift = divide_exact(d[2 * s], d[s])
    cols = [(d[2 * s], Poly()), (lift * xy[s][0], lift * xy[s][1]),
            xy[2 * s]]
    # the elimination: the kernel of the 2 x 3 matrix of columns
    (a0, b0), (a1, b1), (a2, b2) = cols
    kernel = (a1 * b2 - b1 * a2, a2 * b0 - b2 * a0, a0 * b1 - b0 * a1)
    ops = sk.OPERATORS[tag].coeffs(P, Q)(N)
    # the operator is the kernel over a polynomial factor ...
    factor = divide_exact(kernel[2], ops[2])
    assert all(not (kc - factor * oc) for kc, oc in zip(kernel, ops))
    # ... and annihilates the columns: sum_j c_j(n) T_{s(n+j)} d_{2s} = 0
    # for every u, v, so for every n >= 0, where d_{2s} has no zero
    for i in range(2):
        assert not sum((c * col[i] for c, col in zip(ops, cols)), Poly())

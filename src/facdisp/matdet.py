"""Determinants, adjugates, Laplace and Markus expansions for matrices of
polynomials, and the coupling-parameter expansion that factorizes the
determinant of a two-subsystem matrix as G1*G2 plus a coupling remainder.

All five read their minors from one per-call table (`_MinorTable`): a minor is
expanded along its first row from memoized smaller minors, and constant real
matrices are computed in plain rational arithmetic.  The expansions are sums
of complementary minor products (`_complementary_sum`).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .polyalg import ComplexPoly, MultiPoly, format_poly, parse_poly

Entry = MultiPoly | ComplexPoly


def _coerce_entry(value) -> Entry:
    if isinstance(value, (MultiPoly, ComplexPoly)):
        return value
    return MultiPoly.const(value)


class PolyMatrix:
    """Square matrix over MultiPoly (or ComplexPoly) entries.

    Entries over different variable sets are embedded into the union lazily by
    the polynomial arithmetic itself.  If any entry is complex, all entries are
    promoted to ComplexPoly.
    """

    __slots__ = ("n", "entries")

    def __init__(self, rows):
        rows = [[_coerce_entry(e) for e in row] for row in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        if any(isinstance(e, ComplexPoly) for row in rows for e in row):
            rows = [[ComplexPoly._coerce(e) for e in row] for row in rows]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tuple(tuple(row) for row in rows))

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        one, zero = MultiPoly.const(1), MultiPoly.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag) -> "PolyMatrix":
        diag = [_coerce_entry(d) for d in diag]
        zero = MultiPoly.zero()
        n = len(diag)
        return cls([[diag[i] if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> "PolyMatrix":
        return cls([[MultiPoly.zero()] * n for _ in range(n)])

    @classmethod
    def block_diagonal(cls, a: "PolyMatrix", b: "PolyMatrix") -> "PolyMatrix":
        zero = MultiPoly.zero()
        n = a.n + b.n
        rows = [[zero] * n for _ in range(n)]
        for i in range(a.n):
            for j in range(a.n):
                rows[i][j] = a.entries[i][j]
        for i in range(b.n):
            for j in range(b.n):
                rows[a.n + i][a.n + j] = b.entries[i][j]
        return cls(rows)

    def __getitem__(self, ij) -> Entry:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.n == other.n and all(
            _entries_equal(self.entries[i][j], other.entries[i][j])
            for i in range(self.n)
            for j in range(self.n)
        )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return PolyMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return PolyMatrix(
            [
                [self.entries[i][j] - other.entries[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def scale(self, factor) -> "PolyMatrix":
        return PolyMatrix([[e * factor for e in row] for row in self.entries])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.entries[i][0] * other.entries[0][j]
                for k in range(1, n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(row)
        return PolyMatrix(rows)

    def trace(self) -> Entry:
        acc = self.entries[0][0]
        for i in range(1, self.n):
            acc = acc + self.entries[i][i]
        return acc

    def submatrix(self, rows, cols) -> "PolyMatrix":
        """Submatrix with the given 0-based row/column index sequences."""
        if len(rows) != len(cols) or not rows:
            raise ValueError("submatrix must be square and non-empty")
        return PolyMatrix([[self.entries[i][j] for j in cols] for i in rows])

    def subs(self, assignment) -> "PolyMatrix":
        return PolyMatrix([[e.subs(assignment) for e in row] for row in self.entries])

    def eval(self, assignment):
        """Numeric evaluation; returns a nested list of floats (or complex)."""
        return [[e.eval(assignment) for e in row] for row in self.entries]

    def is_complex(self) -> bool:
        return isinstance(self.entries[0][0], ComplexPoly)

    def is_hermitian(self) -> bool:
        """Entry (i,j) equals the conjugate of entry (j,i)."""
        for i in range(self.n):
            for j in range(self.n):
                a, b = self.entries[i][j], self.entries[j][i]
                if isinstance(a, ComplexPoly):
                    if not (a.re == b.re and a.im == -b.im):
                        return False
                elif a != b:
                    return False
        return True

    def det(self) -> Entry:
        """Exact determinant: the full minor of the matrix's minor table.

        Constant real matrices are expanded over Fractions and only the result
        is wrapped as a constant polynomial.
        """
        full = tuple(range(self.n))
        return _coerce_entry(_MinorTable(self).minor(full, full))

    def adjugate(self) -> "PolyMatrix":
        """Adjugate matrix: (i,j) entry is (-1)^(i+j) det of A with row j, col i deleted."""
        n, table = self.n, _MinorTable(self)

        def cofactor(i, j):
            minor = table.minor(_complement((j,), n), _complement((i,), n))
            return minor if (i + j) % 2 == 0 else -minor

        return PolyMatrix([[cofactor(i, j) for j in range(n)] for i in range(n)])

    def __str__(self) -> str:
        return format_matrix(self)

    def __repr__(self) -> str:
        return f"PolyMatrix({format_matrix(self)!r})"


def _entries_equal(a: Entry, b: Entry) -> bool:
    if isinstance(a, ComplexPoly) or isinstance(b, ComplexPoly):
        return ComplexPoly._coerce(a) == ComplexPoly._coerce(b)
    return a == b


class _MinorTable:
    """The minors of one matrix, computed on demand for the duration of one call.

    The minor on rows R and columns C (increasing 0-based tuples) is expanded
    along the first row of R from the minors of size |R|-1, which are memoized
    by (rows, cols); the zero-size minor is 1.  A constant real matrix is
    unwrapped to Fractions once, here, so its minors are rational numbers.
    """

    __slots__ = ("n", "entries", "zero", "memo")

    def __init__(self, m: PolyMatrix):
        entries = m.entries
        if m.is_complex():
            ring = ComplexPoly
        elif all(e.is_constant() for row in entries for e in row):
            entries = [[e.constant_value() for e in row] for row in entries]
            ring = Fraction
        else:
            ring = MultiPoly.const
        self.n, self.entries, self.zero = m.n, entries, ring(0)
        self.memo = {((), ()): ring(1)}

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]):
        if len(rows) == 1:
            return self.entries[rows[0]][cols[0]]
        key = (rows, cols)
        value = self.memo.get(key)
        if value is not None:
            return value
        head, tail = self.entries[rows[0]], rows[1:]
        for pos, c in enumerate(cols):
            e = head[c]
            if not e:
                continue
            term = e * self.minor(tail, cols[:pos] + cols[pos + 1 :])
            if pos % 2:
                term = -term
            value = term if value is None else value + term
        if value is None:
            value = self.zero
        self.memo[key] = value
        return value


def _complement(indices: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if i not in indices)


def _complementary_sum(ta: _MinorTable, tb: _MinorTable, alphas) -> Entry:
    """Sum of (-1)^(|alpha|+|beta|) A[alpha|beta] B[alpha^c|beta^c] over the row
    sets alpha given and every column set beta of the same size."""
    n = ta.n
    total = None
    for alpha in alphas:
        ac = _complement(alpha, n)
        for beta in itertools.combinations(range(n), len(alpha)):
            major = ta.minor(alpha, beta)
            if not major:
                continue
            term = major * tb.minor(ac, _complement(beta, n))
            if (sum(alpha) + sum(beta)) % 2:
                term = -term
            total = term if total is None else total + term
    return _coerce_entry(ta.zero if total is None else total)


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing 1-based index tuple inside an ambient dimension."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self):
        idx = tuple(self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise ValueError("index set must be non-empty")
        if any(i < 1 or i > self.n for i in idx) or any(
            a >= b for a, b in zip(idx, idx[1:])
        ):
            raise ValueError(f"indices must be strictly increasing within 1..{self.n}: {idx}")

    @property
    def r(self) -> int:
        return len(self.indices)

    @property
    def weight(self) -> int:
        """Sum of the (1-based) indices; drives the expansion signs."""
        return sum(self.indices)

    def complement(self) -> "IndexSet":
        rest = tuple(i for i in range(1, self.n + 1) if i not in self.indices)
        return IndexSet(rest, self.n)

    def zero_based(self) -> tuple[int, ...]:
        return tuple(i - 1 for i in self.indices)

    @staticmethod
    def all_of_size(r: int, n: int):
        """Every strictly increasing r-tuple in 1..n."""
        for combo in itertools.combinations(range(1, n + 1), r):
            yield IndexSet(combo, n)


def laplace_expand(m: PolyMatrix, rows: IndexSet) -> Entry:
    """Laplace expansion of det(m) along a fixed set of rows.

    Equals det(m) for every choice of rows; with all rows chosen it
    degenerates to a single term with sign +1.
    """
    if rows.n != m.n:
        raise ValueError(f"index set is over ambient dimension {rows.n}, matrix is {m.n}")
    table = _MinorTable(m)
    return _complementary_sum(table, table, [rows.zero_based()])


def markus_expansion(a: PolyMatrix, b: PolyMatrix) -> Entry:
    """det(A+B) via the sum over complementary minor products.

    det(A+B) = sum_{r=0}^{n} sum_{alpha,beta in Q_{r,n}} (-1)^{|alpha|+|beta|}
               det A[alpha|beta] det B[alpha^c|beta^c],

    where a zero-size minor is 1, so the r = 0 and r = n terms are det B and det A.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    n = a.n
    if n < 2:
        raise ValueError("expansion requires dimension >= 2")
    alphas = (alpha for r in range(n + 1) for alpha in itertools.combinations(range(n), r))
    return _complementary_sum(_MinorTable(a), _MinorTable(b), alphas)


def _entry_mentions(entry: Entry, var: str) -> bool:
    if isinstance(entry, ComplexPoly):
        return var in entry.re.variables or var in entry.im.variables
    return var in entry.variables


def coupled_b_expansion(
    a: PolyMatrix, bpoly: PolyMatrix, var: str = "b"
) -> tuple[Entry, list[Entry], Entry]:
    """Expand det(A + b*B(b)) in powers of the coupling variable.

    Returns (det A, [c_1(b), ..., c_{n-1}(b)], det B(b)), where

        det(A + b*B(b)) = det A + sum_r c_r(b) b^r + b^n det B(b),
        c_r(b) = sum_{alpha,beta in Q_{n-r,n}} (-1)^{|alpha|+|beta|}
                 det A[alpha|beta] det B(b)[alpha^c|beta^c].

    A must not involve the coupling variable; B may depend on it polynomially.
    """
    if a.n != bpoly.n:
        raise ValueError("dimension mismatch")
    for row in a.entries:
        for e in row:
            if _entry_mentions(e, var):
                raise ValueError(f"first matrix must not involve the variable {var!r}")
    n = a.n
    ta, tb = _MinorTable(a), _MinorTable(bpoly)
    det_a, *coeffs, det_b = [
        _complementary_sum(ta, tb, itertools.combinations(range(n), n - r))
        for r in range(n + 1)
    ]
    return det_a, coeffs, det_b


def reassemble_b_expansion(
    det_a: Entry, coeffs: list[Entry], det_b: Entry, var: str = "b"
) -> Entry:
    """Put the pieces of coupled_b_expansion back together as one polynomial."""
    b = MultiPoly.var(var)
    total = det_a
    for r, c in enumerate(coeffs, start=1):
        total = total + c * b**r
    return total + det_b * b ** (len(coeffs) + 1)


@dataclass(frozen=True)
class CoupledSystem:
    """Two subsystem matrices plus a polynomial coupling that vanishes at b=0.

    g1 and g2 are the subsystem dispersion functions det(Lambda_j); remainder
    is det(Lambda + coupling) - g1*g2, identically zero at b=0.
    """

    lambda1: PolyMatrix
    lambda2: PolyMatrix
    coupling: PolyMatrix
    var: str = "b"
    g1: Entry = field(init=False)
    g2: Entry = field(init=False)
    remainder: Entry = field(init=False)

    def __post_init__(self):
        n = self.lambda1.n + self.lambda2.n
        if self.coupling.n != n:
            raise ValueError(
                f"coupling must be {n}x{n} for subsystem sizes "
                f"{self.lambda1.n} and {self.lambda2.n}"
            )
        at_zero = self.coupling.subs({self.var: 0})
        if any(not e.is_zero() for row in at_zero.entries for e in row):
            raise ValueError(f"coupling must vanish at {self.var}=0")
        g1 = self.lambda1.det()
        g2 = self.lambda2.det()
        full = PolyMatrix.block_diagonal(self.lambda1, self.lambda2) + self.coupling
        remainder = full.det() - g1 * g2
        object.__setattr__(self, "g1", _realify(g1))
        object.__setattr__(self, "g2", _realify(g2))
        object.__setattr__(self, "remainder", _realify(remainder))

    def full_matrix(self) -> PolyMatrix:
        return PolyMatrix.block_diagonal(self.lambda1, self.lambda2) + self.coupling

    def full_determinant(self) -> Entry:
        return _realify(self.full_matrix().det())


def _realify(e: Entry) -> Entry:
    """Collapse a ComplexPoly with vanishing imaginary part to a MultiPoly."""
    if isinstance(e, ComplexPoly) and e.is_real():
        return e.re
    return e


# -- matrix text format ----------------------------------------------------------

def format_matrix(m: PolyMatrix) -> str:
    rows = []
    for row in m.entries:
        cells = []
        for e in row:
            if isinstance(e, ComplexPoly):
                raise ValueError("text format covers real polynomial matrices only")
            cells.append(format_poly(e))
        rows.append(", ".join(cells))
    return "[" + "; ".join(rows) + "]"


def parse_matrix(text: str) -> PolyMatrix:
    """Parse `[p11, p12; p21, p22]` with entries in the polynomial text format."""
    body = text.strip()
    if body.startswith("["):
        if not body.endswith("]"):
            raise ValueError("unbalanced matrix brackets")
        body = body[1:-1]
    rows = [r for r in re.split(r";", body)]
    if not rows or not rows[0].strip():
        raise ValueError("empty matrix")
    parsed = [[parse_poly(cell) for cell in row.split(",")] for row in rows]
    return PolyMatrix(parsed)

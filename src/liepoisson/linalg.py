"""Exact linear algebra over the rationals.

One sparse, fraction-free elimination engine, ``RowBasis``, takes rows as
lists of ``(column, nonzero value)`` pairs and stores each as a ``dict``
from column to integer entry, scaled to coprime integers.  A row is reduced
by repeatedly clearing its leading column with the stored row pivoted there,
using the cross-multiplication ``b*row - a*stored`` followed by division by
the gcd of the entries, so only nonzero entries are ever touched and no
rational arithmetic happens until results are read out.  Pivots are always
the leading column, so the reduced echelon form, its pivot set, the solution
with free variables zero and the kernel basis are canonical.  The dense API
(vectors are lists of ``Fraction``, matrices lists of rows) sits on the same
engine and scales its rows with the same helper; sums and intersections of
row spaces are one Zassenhaus elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]
Row = dict[int, int]
Pairs = list[tuple[int, Fraction | int]]


def _check_rectangular(m: Sequence[Sequence[Fraction]]) -> int:
    """Return the column count, raising on ragged input."""
    if not m:
        return 0
    cols = len(m[0])
    for row in m:
        if len(row) != cols:
            raise ValueError("matrix rows have inconsistent lengths")
    return cols


def _content_reduce(row: Row) -> Row:
    """Divide a sparse integer row by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {j: a // g for j, a in row.items()}
    return row


def _scaled(pairs: Pairs) -> Row:
    """A sparse rational row as a dict, scaled to coprime integers."""
    scale = lcm(*(a.denominator for _, a in pairs))
    return _content_reduce({j: a.numerator * (scale // a.denominator) for j, a in pairs})


def _eliminate(row: Row, pivot_row: Row, col: int) -> Row:
    """Clear ``row[col]`` with ``pivot_row`` by fraction-free cross-multiplication."""
    g = gcd(row[col], pivot_row[col])
    a, b = row[col] // g, pivot_row[col] // g
    out = {j: b * v for j, v in row.items()}
    for j, v in pivot_row.items():
        w = out.get(j, 0) - a * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _content_reduce(out)


class RowBasis:
    """Incrementally maintained row space with exact membership queries.

    Rows are sparse integer rows keyed by their pivot, which is always the
    row's leading column; insertion and membership reduce a row against
    them until its leading column is not a pivot or it vanishes.
    """

    def __init__(self, width: int):
        self.width = width
        self._rows: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, row: Row) -> Row:
        """Residual of a sparse row; empty exactly when it lies in the span."""
        rows = self._rows
        while row:
            p = min(row)
            stored = rows.get(p)
            if stored is None:
                break
            row = _eliminate(row, stored, p)
        return row

    def _add(self, row: Row) -> bool:
        row = self._reduce(row)
        if not row:
            return False
        self._rows[min(row)] = row
        return True

    def rref(self) -> dict[int, Row]:
        """Back-substituted rows keyed by pivot, in pivot order: each is zero in
        every other pivot column, and dividing it by its pivot entry gives the
        canonical reduced echelon row."""
        done: dict[int, Row] = {}
        for p in sorted(self._rows, reverse=True):
            row = self._rows[p]
            for q in [j for j in row if j in done]:
                row = _eliminate(row, done[q], q)
            done[p] = row
        return dict(sorted(done.items()))

    def _row(self, pairs: Pairs) -> Row:
        row = _scaled(pairs)
        if len(row) != len(pairs):
            raise ValueError("sparse row repeats a column")
        if row and not (0 <= min(row) and max(row) < self.width):
            raise ValueError(f"sparse row has a column outside [0, {self.width})")
        if not all(row.values()):
            raise ValueError("sparse row has a zero value")
        return row

    def insert(self, pairs: Pairs) -> bool:
        """Add a row of (column, nonzero value) pairs; True if the span grew."""
        return self._add(self._row(pairs))

    def contains(self, pairs: Pairs) -> bool:
        return not self._reduce(self._row(pairs))

    def tail(self, k: int) -> list[Pairs]:
        """Stored rows pivoted at column ``k`` or later, shifted left by ``k``:
        they span the part of the row space that vanishes before column ``k``."""
        return [[(j - k, a) for j, a in row.items()] for p, row in self._rows.items() if p >= k]

    def sum_and_intersection(self, other: RowBasis) -> tuple[int, RowBasis]:
        """Rank of the sum of two row spaces and a basis of their intersection.

        Zassenhaus: echelonize ``[r | r]`` for the rows of ``self`` and
        ``[r | 0]`` for those of ``other``; the rows pivoted in the left half
        span the sum, and the others are ``[0 | v]`` with ``v`` spanning the
        intersection.
        """
        w = self.width
        if other.width != w:
            raise ValueError("row spaces live in different ambient dimensions")
        both = RowBasis(2 * w)
        for row in self._rows.values():
            both._add({**row, **{j + w: a for j, a in row.items()}})
        for row in other._rows.values():
            both._add(dict(row))
        meet = RowBasis(w)
        for row in both.tail(w):
            meet._add(dict(row))
        return both.rank - meet.rank, meet

    def reduced_rows(self) -> Matrix:
        """Canonical reduced echelon basis (pivot entries 1, zeros above)."""
        out: Matrix = []
        for p, row in self.rref().items():
            vec = [Fraction(0)] * self.width
            for j, a in row.items():
                vec[j] = Fraction(a, row[p])
            out.append(vec)
        return out


def _basis_of(rows: Iterable[Sequence[Fraction]], width: int) -> RowBasis:
    rb = RowBasis(width)
    for row in rows:
        rb._add(_scaled([(j, a) for j, a in enumerate(row) if a]))
    return rb


def rank(m: Matrix) -> int:
    """Exact rank of a rational matrix."""
    return _basis_of(m, _check_rectangular(m)).rank


def in_span(v: Sequence[Fraction], basis: Matrix) -> bool:
    """Whether ``v`` is a rational linear combination of the basis rows."""
    cols = _check_rectangular(basis)
    if basis and len(v) != cols:
        raise ValueError(f"vector length {len(v)} does not match basis width {cols}")
    return _basis_of(basis, len(v)).contains([(j, a) for j, a in enumerate(v) if a])


def solve_linear(a: Matrix, b: Sequence[Fraction]) -> Vector | None:
    """Solve ``a @ x = b`` exactly; return some solution or None if inconsistent.

    Free variables are set to zero, so the returned solution is deterministic.
    """
    n = _check_rectangular(a)
    if len(b) != len(a):
        raise ValueError(f"right-hand side length {len(b)} does not match row count {len(a)}")
    if not a:
        return []
    rb = _basis_of(([*row, bv] for row, bv in zip(a, b)), n + 1)
    if n in rb._rows:
        return None
    x: Vector = [Fraction(0)] * n
    for p, row in rb.rref().items():
        x[p] = Fraction(row.get(n, 0), row[p])
    return x


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel of ``a``, one vector per free column."""
    n = _check_rectangular(a)
    if not a:
        return []
    rref = _basis_of(a, n).rref()
    kernel: dict[int, Vector] = {}
    for fc in range(n):
        if fc not in rref:
            kernel[fc] = [Fraction(0)] * n
            kernel[fc][fc] = Fraction(1)
    for p, row in rref.items():
        for j, c in row.items():
            if j != p:
                kernel[j][p] = Fraction(-c, row[p])
    return list(kernel.values())


def reduce_vector(v: Sequence[Fraction], rows: Sequence[Sequence[Fraction]]) -> Vector:
    """Residual of ``v`` after elimination against echelon rows.

    ``rows`` must have strictly increasing positions of first nonzero entry;
    the residual is zero exactly when ``v`` lies in their span.
    """
    vec = [Fraction(a) for a in v]
    start = 0
    for row in rows:
        # Leading positions increase, so each search resumes past the last one.
        p = next((j for j in range(start, len(row)) if row[j]), None)
        if p is None:
            continue
        start = p + 1
        if vec[p]:
            factor = vec[p] / row[p]
            for j in range(p, len(vec)):
                if row[j]:
                    vec[j] -= factor * row[j]
    return vec


def row_space_intersection(a: Matrix, b: Matrix) -> list[Vector]:
    """Basis of the intersection of the row spaces of ``a`` and ``b``."""
    if not a or not b:
        return []
    rows_a, rows_b = (_basis_of(m, _check_rectangular(m)) for m in (a, b))
    return rows_a.sum_and_intersection(rows_b)[1].reduced_rows()

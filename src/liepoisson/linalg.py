"""Exact linear algebra over the rationals.

One sparse, fraction-free elimination engine, ``RowBasis``, takes rows as
lists of ``(column, nonzero int)`` pairs and stores each as a ``dict`` from
column to integer entry, divided by the gcd of its entries.  A row is reduced
in place by clearing its leading column with the stored row pivoted there,
scaling the row only when the stored pivot does not divide that entry, and
is divided by the gcd of its entries once, after the last step.  Only
nonzero entries are touched, and no rational arithmetic happens until
results are read out.  Pivots are always the leading column, so the reduced
echelon form, its pivot set, the solution with free variables zero and the
kernel basis are canonical.  A basis inserts in one of two modes.
Semi-reduced (the default), stored rows may have entries in later pivot
columns, so a fresh row can cascade through clearings.  Full
(Gauss-Jordan), the stored rows are the reduced echelon form, and a fresh
row is cleared once per pivot in its support.  Sums and intersections of
row spaces are one Zassenhaus elimination.  The dense functions below
``RowBasis`` (vectors are lists of ``Fraction``, matrices lists of rows)
are called by no claim; they remain because the benchmark's layer hooks
wrap them by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]
Row = dict[int, int]
Pairs = list[tuple[int, int]]


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
    return {j: a // g for j, a in row.items()} if g > 1 else row


def _clear(row: Row, pivot_row: Row, col: int) -> None:
    """Clear ``row[col]`` in place with ``pivot_row``, scaling ``row`` only if needed."""
    a, b = row[col], pivot_row[col]
    g = gcd(a, b)
    if g == abs(b):
        f = a // b
    else:
        f, s = a // g, b // g
        for j in row:
            row[j] *= s
    for j, v in pivot_row.items():
        w = row.get(j, 0) - f * v
        if w:
            row[j] = w
        else:
            del row[j]


class RowBasis:
    """Incrementally maintained row space with exact membership queries.

    Rows are sparse integer rows keyed by their pivot, which is always the
    row's leading column.  Semi-reduced, insertion and membership reduce a
    row against them until its leading column is not a pivot or it
    vanishes.  With ``full=True`` no stored row has an entry in another
    row's pivot column, and the column index ``_cols`` maps each column to
    the pivots of the stored rows that have it.  A row then reduces in one
    pass over the pivots in its support, and accepting a row with pivot q
    clears column q, in place, from the rows indexed there, whose pivots lie
    left of q.  Full mode suits a span that ends near full rank and meets
    many rows it holds; a thin span in a wide space fills in under it.
    """

    def __init__(self, width: int, full: bool = False):
        self.width = width
        self._rows: dict[int, Row] = {}
        self._cols: dict[int, set[int]] | None = {} if full else None

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, row: Row) -> Row:
        """Reduce a fresh row in place to its residual, empty iff it is in the span."""
        rows = self._rows
        if self._cols is not None:
            for p in [j for j in row if j in rows]:
                _clear(row, rows[p], p)
            return row
        while row and (p := min(row)) in rows:
            _clear(row, rows[p], p)
        return row

    def _add(self, row: Row) -> Row | None:
        """Store the residual of a fresh row; the stored row, None if it was in the span."""
        row = self._reduce(row)
        if not row:
            return None
        q, stored, rows, cols = min(row), _content_reduce(row), self._rows, self._cols
        if cols is not None:
            for p in cols.pop(q, ()):
                other = rows[p]
                _clear(other, stored, q)
                for j in stored:
                    has = cols.setdefault(j, set())
                    if j in other:
                        has.add(p)
                    else:
                        has.discard(p)
                rows[p] = _content_reduce(other)
            for j in stored:
                cols.setdefault(j, set()).add(q)
        rows[q] = stored
        return stored

    def rref(self) -> dict[int, Row]:
        """Back-substituted rows keyed by pivot, in pivot order: each is zero in
        every other pivot column, and dividing it by its pivot entry gives the
        canonical reduced echelon row.  Fully reduced rows are copied as they
        stand."""
        done: dict[int, Row] = {}
        for p in sorted(self._rows, reverse=True):
            row = dict(self._rows[p])
            for q in [j for j in row if j in done]:
                _clear(row, done[q], q)
            done[p] = _content_reduce(row)
        return dict(sorted(done.items()))

    def _row(self, pairs: Pairs) -> Row:
        """The row of ``pairs`` as a dict, checking each entry once."""
        row: Row = {}
        width = self.width
        for j, a in pairs:
            if j in row:
                raise ValueError("sparse row repeats a column")
            if not 0 <= j < width:
                raise ValueError(f"sparse row has a column outside [0, {width})")
            if not a:
                raise ValueError("sparse row has a zero value")
            if type(a) is not int:
                raise ValueError("sparse row has a value that is not an int")
            row[j] = a
        return row

    def insert(self, pairs: Pairs) -> bool:
        """Add a row of (column, nonzero int) pairs; True if the span grew."""
        return self._add(self._row(pairs)) is not None

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
        scale = lcm(*(a.denominator for a in row))
        rb._add({j: a.numerator * (scale // a.denominator) for j, a in enumerate(row) if a})
    return rb


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

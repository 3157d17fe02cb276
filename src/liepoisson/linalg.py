"""Exact linear algebra over the rationals.

The public API takes and returns dense vectors (lists of ``Fraction``) and
matrices (lists of row vectors).  Underneath is one sparse, fraction-free
elimination engine, ``RowBasis``: each row is a ``dict`` from column to its
nonzero integer entry, scaled to coprime integers.  A vector is reduced by
repeatedly clearing its leading column with the stored row pivoted there,
using the cross-multiplication ``b*row - a*stored`` followed by division by
the gcd of the entries, so only nonzero entries are ever touched and no
rational arithmetic happens until results are read out.  Pivots are always
the leading column, so the reduced echelon form, its pivot set, the
solution with free variables zero and the kernel basis are canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]
Row = dict[int, int]


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


def _sparse(vec: Iterable[Fraction | int]) -> Row:
    """Nonzero entries of a rational vector, scaled to coprime integers."""
    nonzero = {j: a for j, a in enumerate(vec) if a}
    scale = lcm(*(a.denominator for a in nonzero.values()))
    return _content_reduce({j: a.numerator * (scale // a.denominator) for j, a in nonzero.items()})


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
    row's leading column; insertion and membership reduce a vector against
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

    def _rref(self) -> dict[int, Row]:
        """Back-substituted rows in pivot order: zero in every other pivot column."""
        done: dict[int, Row] = {}
        for p in sorted(self._rows, reverse=True):
            row = self._rows[p]
            for q in [j for j in row if j in done]:
                row = _eliminate(row, done[q], q)
            done[p] = row
        return dict(sorted(done.items()))

    def _row(self, vec: Sequence[Fraction | int]) -> Row:
        if len(vec) != self.width:
            raise ValueError(f"vector length {len(vec)} does not match width {self.width}")
        return _sparse(vec)

    def insert(self, vec: Sequence[Fraction | int]) -> bool:
        """Add a vector; return True if it enlarged the span."""
        return self._add(self._row(vec))

    def contains(self, vec: Sequence[Fraction | int]) -> bool:
        return not self._reduce(self._row(vec))

    def reduced_rows(self) -> Matrix:
        """Canonical reduced echelon basis (pivot entries 1, zeros above)."""
        out: Matrix = []
        for p, row in self._rref().items():
            vec = [Fraction(0)] * self.width
            for j, a in row.items():
                vec[j] = Fraction(a, row[p])
            out.append(vec)
        return out


def _basis_of(rows: Iterable[Sequence[Fraction]], width: int) -> RowBasis:
    rb = RowBasis(width)
    for row in rows:
        rb._add(_sparse(row))
    return rb


def rank(m: Matrix) -> int:
    """Exact rank of a rational matrix."""
    return _basis_of(m, _check_rectangular(m)).rank


def in_span(v: Sequence[Fraction], basis: Matrix) -> bool:
    """Whether ``v`` is a rational linear combination of the basis rows."""
    cols = _check_rectangular(basis)
    if basis and len(v) != cols:
        raise ValueError(f"vector length {len(v)} does not match basis width {cols}")
    return not _basis_of(basis, len(v))._reduce(_sparse(v))


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
    for p, row in rb._rref().items():
        x[p] = Fraction(row.get(n, 0), row[p])
    return x


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel of ``a``, one vector per free column."""
    n = _check_rectangular(a)
    if not a:
        return []
    rref = _basis_of(a, n)._rref()
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
    """Basis of the intersection of the row spaces of ``a`` and ``b``.

    Solves ``alpha @ a = beta @ b`` by taking the kernel of the stacked
    transpose ``[a^T | -b^T]`` and mapping the alpha part back through ``a``.
    """
    if not a or not b:
        return []
    cols = _check_rectangular(a)
    if _check_rectangular(b) != cols:
        raise ValueError("row spaces live in different ambient dimensions")
    ra, rb_n = len(a), len(b)
    stacked = [
        [a[i][c] for i in range(ra)] + [-b[i][c] for i in range(rb_n)]
        for c in range(cols)
    ]
    out = RowBasis(cols)
    for combo in nullspace(stacked):
        vec = [Fraction(0)] * cols
        for i in range(ra):
            if combo[i]:
                for c in range(cols):
                    vec[c] += combo[i] * a[i][c]
        out._add(_sparse(vec))
    return out.reduced_rows()

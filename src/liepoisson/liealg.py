"""Lie algebras presented by structure constants.

An algebra stores the sparse table of nonzero bracket coefficients
[xi_i, xi_j] = sum_k c(i,j,k) xi_k by ordered pair, completed
antisymmetrically when built: antisymmetry is a construction invariant,
and the Jacobi identity is the checkable property.  Built-in algebras
cover sl(2,R), so(3), and the Heisenberg family.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Mapping

from .linalg import RowBasis
from .poly import Polynomial, is_name


class LieAlgebraFormatError(ValueError):
    """Malformed algebra definition (builder input or JSON file)."""


class InvalidLieAlgebraError(ValueError):
    """An operation required a valid Lie algebra but validation failed."""


class LieAlgebra:
    """A finite-dimensional algebra given by basis names and bracket constants.

    ``brackets`` maps an index pair (i, j) to ``{k: c}`` for
    [xi_i, xi_j] = sum_k c xi_k, and is given on pairs in either order.
    The constructor drops zero coefficients, refuses a nonzero diagonal
    bracket and a pair given in both orders that does not negate, and
    completes the table antisymmetrically.  It keeps only the nonzero
    brackets, sorted by (i, j) and then k, and does not change them
    afterwards; the Jacobi identity is checked by ``validate``.
    """

    def __init__(
        self,
        names: tuple[str, ...] | list[str],
        brackets: Mapping[tuple[int, int], Mapping[int, Fraction | int]],
        name: str | None = None,
    ):
        self.names = tuple(names)
        self.name = name
        if len(set(self.names)) != len(self.names):
            raise LieAlgebraFormatError("basis names must be distinct")
        bad = next((b for b in self.names if not is_name(b)), None)
        if bad is not None:  # a name that the expression grammar cannot read back
            raise LieAlgebraFormatError(f"basis name {bad!r} is not a letter or '_' followed by letters, digits or '_'")
        d = len(self.names)
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), terms in brackets.items():
            terms = {k: Fraction(c) for k, c in terms.items() if c}
            if i == j and terms:
                raise LieAlgebraFormatError(f"nonzero bracket of basis element {i} with itself")
            if (i, j) in table:  # the negated bracket of the reverse pair, given earlier
                if table[(i, j)] != terms:
                    raise LieAlgebraFormatError(f"brackets ({i}, {j}) and ({j}, {i}) conflict with antisymmetry")
                continue
            for k in terms:
                if not all(0 <= t < d for t in (i, j, k)):
                    raise LieAlgebraFormatError(f"structure constant index {(i, j, k)} out of range")
            table[(i, j)] = terms
            table[(j, i)] = {k: -c for k, c in terms.items()}
        self.brackets = {pair: dict(sorted(row.items())) for pair, row in sorted(table.items()) if row}

    @property
    def dim(self) -> int:
        return len(self.names)

    def variable(self, i: int) -> Polynomial:
        return Polynomial.variable(self.dim, i)


class Violation:
    """One violated instance of an axiom: its kind, indices and a description."""

    def __init__(self, kind: str, indices: tuple[int, ...], detail: str):
        self.kind = kind
        self.indices = indices
        self.detail = detail


class ValidationReport:
    """Every violation ``validate`` found; ``ok`` when there is none."""

    def __init__(self, violations: list[Violation] | None = None):
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(algebra: LieAlgebra) -> ValidationReport:
    """Check the Jacobi identity instance by instance.

    Every violated instance (i, j, k, l) is reported, for strictly
    increasing i < j < k and each coordinate l with a nonzero Jacobi sum,
    in that order.  A term [[xi_a, xi_b], xi_e] of a Jacobi sum is nonzero
    only if some coordinate m of [xi_a, xi_b] has [xi_m, xi_e] != 0, so only
    the triples {a, b, e} found that way through the table are visited.
    """
    report = ValidationReport()
    brackets = algebra.brackets
    partners: dict[int, list[int]] = {}
    for m, e in brackets:
        partners.setdefault(m, []).append(e)
    triples = {
        tuple(sorted((a, b, e)))
        for (a, b), row in brackets.items() if a < b
        for m in row for e in partners.get(m, ()) if e != a and e != b
    }
    for i, j, k in sorted(triples):
        sums: dict[int, Fraction] = {}
        for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in brackets.get((a, b), {}).items():
                for l, c2 in brackets.get((m, e), {}).items():
                    sums[l] = sums.get(l, 0) + c * c2
        report.violations += [
            Violation("jacobi", (i, j, k, l), f"Jacobi sum at ({i},{j},{k}) in coordinate {l} is {s}")
            for l, s in sorted(sums.items()) if s
        ]
    return report


def killing_rows(algebra: LieAlgebra) -> list[dict[int, Fraction]]:
    """Sparse rows of the Killing matrix B[i][j] = trace(ad xi_i ad xi_j), the sum of
    c(i,l,k) c(j,k,l) over the nonzero constants, each c(i,l,k) read with its partners."""
    partners: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for (j, k), row in algebra.brackets.items():
        for l, c in row.items():
            partners.setdefault((k, l), []).append((j, c))
    rows: list[dict[int, Fraction]] = [{} for _ in range(algebra.dim)]
    for (i, l), row in algebra.brackets.items():
        for k, c in row.items():
            for j, c2 in partners.get((k, l), ()):
                rows[i][j] = rows[i].get(j, 0) + c * c2
    return rows


def killing_form(algebra: LieAlgebra) -> list[list[Fraction]]:
    """The dense Killing matrix, from ``killing_rows``, as ``validate`` reports print it."""
    zero = Fraction(0)
    return [[row.get(j, zero) for j in range(algebra.dim)] for row in killing_rows(algebra)]


def require_lie(algebra: LieAlgebra) -> None:
    """Raise InvalidLieAlgebraError naming the first violation ``validate``
    finds, if any."""
    report = validate(algebra)
    if not report.ok:
        first = report.violations[0]
        raise InvalidLieAlgebraError(f"not a Lie algebra: {first.kind} violation {first.detail}")


def is_semisimple(algebra: LieAlgebra) -> bool:
    """Cartan's criterion: the Killing form is non-degenerate.

    Requires a valid algebra; raises InvalidLieAlgebraError otherwise.
    """
    require_lie(algebra)
    return nondegenerate(killing_rows(algebra))


def nondegenerate(rows: list[Mapping[int, Fraction]]) -> bool:
    """Whether a square rational matrix, given by sparse rows {column: entry}, has
    full rank; each row enters a ``RowBasis`` scaled by the lcm of its denominators."""
    basis = RowBasis(len(rows))
    for row in rows:
        scale = lcm(*(a.denominator for a in row.values()))
        basis.insert([(j, a.numerator * (scale // a.denominator)) for j, a in row.items() if a])
    return basis.rank == len(rows)


def builtin(name: str, n: int | None = None) -> LieAlgebra:
    """Construct a built-in algebra: 'sl2r', 'so3', or 'heisenberg' (size n).

    sl2r uses the basis (x, y, z) with [y,z] = x, [z,x] = y, [x,y] = -z,
    so its quadratic Casimir is literally x^2 + y^2 - z^2.  The Heisenberg
    algebra of size n has dimension 2n+1 with [q_i, p_i] = z and z central.
    """
    if name in ("sl2r", "so3") and n is not None:
        raise LieAlgebraFormatError(f"{name} does not take a size parameter")
    if name == "sl2r":
        return LieAlgebra(("x", "y", "z"), {(1, 2): {0: 1}, (2, 0): {1: 1}, (0, 1): {2: -1}}, name="sl2r")
    if name == "so3":
        return LieAlgebra(("x", "y", "z"), {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}}, name="so3")
    if name == "heisenberg":
        if n is None or n < 1:
            raise LieAlgebraFormatError("heisenberg requires a size n >= 1")
        if n == 1:
            names = ("q", "p", "z")
        else:
            names = tuple(f"q{i + 1}" for i in range(n)) + tuple(f"p{i + 1}" for i in range(n)) + ("z",)
        brackets = {(i, n + i): {2 * n: 1} for i in range(n)}
        return LieAlgebra(names, brackets, name="heisenberg")
    raise LieAlgebraFormatError(f"unknown built-in algebra '{name}'")


def _index_of(index: dict[str, int], obj: object, what: str, key: str) -> int:
    """Basis index of the name ``obj[key]``, where ``obj`` is a ``what`` read
    from an algebra definition."""
    if not isinstance(obj, dict):
        raise LieAlgebraFormatError(f"each {what} must be an object, not {obj!r}")
    name = obj.get(key)
    if not isinstance(name, str):
        raise LieAlgebraFormatError(f"{what} key '{key}' must be a basis name, not {name!r}")
    if name not in index:
        raise LieAlgebraFormatError(f"{what} references unknown name {name!r}")
    return index[name]


def lie_algebra_from_dict(data: dict) -> LieAlgebra:
    """Build an algebra from the JSON definition format.

    Expected shape::

        {"dim": d, "basis": [names...],
         "brackets": [{"i": name, "j": name,
                       "terms": [{"k": name, "coeff": "p/q"}, ...]}, ...]}

    Unlisted brackets are zero; the antisymmetric completion is automatic
    and conflicting double definitions are errors.
    """
    if not isinstance(data, dict):
        raise LieAlgebraFormatError("algebra definition must be a JSON object")
    try:
        dim = data["dim"]
        basis = data["basis"]
    except KeyError as exc:
        raise LieAlgebraFormatError(f"missing required key {exc}") from None
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise LieAlgebraFormatError("'basis' must be a list of names")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise LieAlgebraFormatError(f"'dim' must be an integer, not {dim!r}")
    if dim != len(basis):
        raise LieAlgebraFormatError(f"'dim' is {dim} but 'basis' lists {len(basis)} names")
    index = {b: i for i, b in enumerate(basis)}
    entries = data.get("brackets", [])
    if not isinstance(entries, list):
        raise LieAlgebraFormatError("'brackets' must be a list")
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for entry in entries:
        i, j = _index_of(index, entry, "bracket", "i"), _index_of(index, entry, "bracket", "j")
        items = entry.get("terms", [])
        if not isinstance(items, list):
            raise LieAlgebraFormatError("a bracket's 'terms' must be a list")
        terms: dict[int, Fraction] = {}
        for t in items:
            k = _index_of(index, t, "bracket term", "k")
            try:
                coeff = Fraction(str(t.get("coeff")))
            except (ValueError, ZeroDivisionError) as exc:
                raise LieAlgebraFormatError(f"bad coefficient {t.get('coeff')!r}: {exc}") from None
            terms[k] = terms.get(k, Fraction(0)) + coeff
        if (i, j) in brackets:
            raise LieAlgebraFormatError(f"bracket ({entry['i']}, {entry['j']}) defined twice")
        brackets[(i, j)] = terms
    return LieAlgebra(tuple(basis), brackets)


def load_algebra(path: str | Path) -> LieAlgebra:
    """Load an algebra definition file, reporting JSON errors with position."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LieAlgebraFormatError(
            f"invalid JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    return lie_algebra_from_dict(data)

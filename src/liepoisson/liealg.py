"""Lie algebras presented by structure constants.

An algebra stores the raw sparse table c(i, j, k) of bracket coefficients
[xi_i, xi_j] = sum_k c(i,j,k) xi_k, so that antisymmetry and the Jacobi
identity are checkable properties rather than construction invariants.
Built-in algebras cover sl(2,R), so(3), and the Heisenberg family.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .linalg import Matrix, RowBasis
from .poly import Polynomial


class LieAlgebraFormatError(ValueError):
    """Malformed algebra definition (builder input or JSON file)."""


class InvalidLieAlgebraError(ValueError):
    """An operation required a valid Lie algebra but validation failed."""


class LieAlgebra:
    """A finite-dimensional algebra given by basis names and bracket constants.

    ``structure`` maps index triples (i, j, k) to the coefficient of xi_k in
    [xi_i, xi_j]; absent triples are zero.  The table is stored as given, so
    ``validate`` can report antisymmetry violations of raw input.
    """

    def __init__(
        self,
        names: tuple[str, ...],
        structure: Mapping[tuple[int, int, int], Fraction | int],
        name: str | None = None,
    ):
        self.names = tuple(names)
        self.name = name
        if len(set(self.names)) != len(self.names):
            raise LieAlgebraFormatError("basis names must be distinct")
        d = len(self.names)
        clean: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), c in structure.items():
            if not all(0 <= t < d for t in (i, j, k)):
                raise LieAlgebraFormatError(f"structure constant index {(i, j, k)} out of range")
            c = Fraction(c)
            if c:
                clean[(i, j, k)] = c
        self.structure = clean

    @property
    def dim(self) -> int:
        return len(self.names)

    def c(self, i: int, j: int, k: int) -> Fraction:
        return self.structure.get((i, j, k), Fraction(0))

    def variable(self, i: int) -> Polynomial:
        return Polynomial.variable(self.dim, i)

    @classmethod
    def from_brackets(
        cls,
        names: tuple[str, ...] | list[str],
        brackets: Mapping[tuple[int, int], Mapping[int, Fraction | int]],
        name: str | None = None,
    ) -> "LieAlgebra":
        """Build from brackets on index pairs, completing antisymmetrically.

        If both (i, j) and (j, i) are supplied they must negate each other.
        A nonzero diagonal bracket (i, i) is rejected.
        """
        structure: dict[tuple[int, int, int], Fraction] = {}
        seen: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), terms in brackets.items():
            terms = {k: Fraction(c) for k, c in terms.items() if Fraction(c)}
            if i == j and terms:
                raise LieAlgebraFormatError(f"nonzero bracket of basis element {i} with itself")
            if (j, i) in seen:
                mirrored = {k: -c for k, c in seen[(j, i)].items()}
                if mirrored != terms:
                    raise LieAlgebraFormatError(
                        f"brackets ({i}, {j}) and ({j}, {i}) conflict with antisymmetry"
                    )
                continue
            seen[(i, j)] = terms
            for k, c in terms.items():
                structure[(i, j, k)] = c
                structure[(j, i, k)] = -c
        return cls(tuple(names), structure, name=name)


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
    """Check antisymmetry and the Jacobi identity instance by instance.

    Every violated instance is reported: antisymmetry at (i, j, k) whenever
    c(i,j,k) + c(j,i,k) is nonzero (including nonzero diagonal brackets),
    and Jacobi at (i, j, k, l) for strictly increasing i < j < k.
    """
    report = ValidationReport()
    d = algebra.dim
    checked: set[tuple[int, int, int]] = set()
    for (i, j, k) in sorted(algebra.structure):
        lo, hi = min(i, j), max(i, j)
        key = (lo, hi, k)
        if key in checked:
            continue
        checked.add(key)
        s = algebra.c(lo, hi, k) + algebra.c(hi, lo, k)
        if i == j:
            report.violations.append(
                Violation("antisymmetry", (i, j, k), f"c({i},{i},{k}) = {algebra.c(i, i, k)} is nonzero")
            )
        elif s:
            report.violations.append(
                Violation("antisymmetry", (lo, hi, k), f"c({lo},{hi},{k}) + c({hi},{lo},{k}) = {s}")
            )
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                for l in range(d):
                    s = Fraction(0)
                    for m in range(d):
                        s += (
                            algebra.c(i, j, m) * algebra.c(m, k, l)
                            + algebra.c(j, k, m) * algebra.c(m, i, l)
                            + algebra.c(k, i, m) * algebra.c(m, j, l)
                        )
                    if s:
                        report.violations.append(
                            Violation("jacobi", (i, j, k, l), f"Jacobi sum at ({i},{j},{k}) in coordinate {l} is {s}")
                        )
    return report


def killing_form(algebra: LieAlgebra) -> Matrix:
    """Killing matrix B[i][j] = trace(ad xi_i composed with ad xi_j)."""
    d = algebra.dim
    b = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            s = Fraction(0)
            for k in range(d):
                for l in range(d):
                    cjk = algebra.c(j, k, l)
                    if cjk:
                        s += algebra.c(i, l, k) * cjk
            b[i][j] = s
            b[j][i] = s
    return b


def is_semisimple(algebra: LieAlgebra) -> bool:
    """Cartan's criterion: the Killing form is non-degenerate.

    Requires a valid algebra; raises InvalidLieAlgebraError otherwise.
    """
    report = validate(algebra)
    if not report.ok:
        first = report.violations[0]
        raise InvalidLieAlgebraError(f"not a Lie algebra: {first.kind} violation {first.detail}")
    killing = RowBasis(algebra.dim)
    for row in killing_form(algebra):
        killing.insert([(j, a) for j, a in enumerate(row) if a])
    return killing.rank == algebra.dim


def builtin(name: str, n: int | None = None) -> LieAlgebra:
    """Construct a built-in algebra: 'sl2r', 'so3', or 'heisenberg' (size n).

    sl2r uses the basis (x, y, z) with [y,z] = x, [z,x] = y, [x,y] = -z,
    so its quadratic Casimir is literally x^2 + y^2 - z^2.  The Heisenberg
    algebra of size n has dimension 2n+1 with [q_i, p_i] = z and z central.
    """
    if name == "sl2r":
        if n is not None:
            raise LieAlgebraFormatError("sl2r does not take a size parameter")
        return LieAlgebra.from_brackets(
            ("x", "y", "z"),
            {(1, 2): {0: 1}, (2, 0): {1: 1}, (0, 1): {2: -1}},
            name="sl2r",
        )
    if name == "so3":
        if n is not None:
            raise LieAlgebraFormatError("so3 does not take a size parameter")
        return LieAlgebra.from_brackets(
            ("x", "y", "z"),
            {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},
            name="so3",
        )
    if name == "heisenberg":
        if n is None or n < 1:
            raise LieAlgebraFormatError("heisenberg requires a size n >= 1")
        if n == 1:
            names = ("q", "p", "z")
        else:
            names = tuple(f"q{i + 1}" for i in range(n)) + tuple(f"p{i + 1}" for i in range(n)) + ("z",)
        brackets = {(i, n + i): {2 * n: 1} for i in range(n)}
        return LieAlgebra.from_brackets(names, brackets, name="heisenberg")
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
    if dim != len(basis):
        raise LieAlgebraFormatError(f"'dim' is {dim} but 'basis' lists {len(basis)} names")
    index = {b: i for i, b in enumerate(basis)}
    if len(index) != len(basis):
        raise LieAlgebraFormatError("basis names must be distinct")
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
            raise LieAlgebraFormatError(
                f"bracket ({entry['i']}, {entry['j']}) defined twice"
            )
        brackets[(i, j)] = terms
    return LieAlgebra.from_brackets(tuple(basis), brackets)


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

"""Layer tracing for the traced run, installed from outside the package.

``install`` replaces each layer's public entry points by wrappers that
record one span per call (name, start, end, parent span) and a few counts
measured where the work happens.  Methods are wrapped on their class;
module functions are wrapped at the name their caller binds, so
``structure.nullspace`` is wrapped in ``structure`` and the call inside
``linalg.row_space_intersection`` through ``linalg.nullspace``.  Spans are
kept in flat arrays in memory and written out once, by ``Tracer.dump``.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    """Spans of one operation, in call order, plus named counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn``; ``after(counts, args, result)`` runs once the span is closed."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, counts = self._stack, self.counts
        names_col, parent_col, start_col, end_col = self.name, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start_col)
            names_col.append(nid)
            parent_col.append(stack[-1])
            start_col.append(0.0)
            end_col.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start_col[idx] = t0
                end_col[idx] = t1
            if after is not None:
                after(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str) -> None:
        data = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _bits(rows) -> int:
    """Largest numerator or denominator bit length in a vector or matrix of Fractions."""
    best = 0
    for row in rows:
        for a in row if isinstance(row, (list, tuple)) else (row,):
            if a:
                best = max(best, a.numerator.bit_length(), a.denominator.bit_length())
    return best


def _max_bits(counts, result) -> None:
    if result:
        counts["linalg.max_bits"] = max(counts["linalg.max_bits"], _bits(result))


def _cells(counts, key, matrix) -> None:
    if matrix:
        counts[key] += len(matrix) * len(matrix[0])


def _after_insert(counts, args, result) -> None:
    counts["linalg.insert.accepted"] += bool(result)
    counts["linalg.insert.width"] += args[0].width
    counts["linalg.insert.nnz"] += sum(1 for a in args[1] if a)


def _after_bracket(counts, args, result) -> None:
    counts["poisson.bracket.nonzero"] += bool(result)


def _after_orbit_reduce(counts, args, result) -> None:
    counts["orbit.reduce.terms_in"] += len(args[1].terms)


def _after_solve(counts, args, result) -> None:
    _cells(counts, "linalg.solve.cells", args[0])
    _max_bits(counts, result)


def _after_nullspace(counts, args, result) -> None:
    _cells(counts, "linalg.nullspace.cells", args[0])
    _max_bits(counts, result)


def _after_bits(counts, args, result) -> None:
    _max_bits(counts, result)


STRUCTURE_ENTRY_POINTS = (
    "derived_membership",
    "derived_span",
    "invariants_basis",
    "poisson_ideal_closure",
    "verify_prop1",
    "verify_thm2",
    "verify_heisenberg",
    "verify_homogeneous_ideals",
    "nonexactness_check",
    "ideal_square_check",
    "simplicity_probe",
)


def targets():
    """(owner, attribute, span name, after-hook) for every wrapped entry point."""
    from liepoisson import linalg, orbit, poisson, poly, structure

    out = [
        (poly.Polynomial, "__mul__", "poly.mul", None),
        (poly.Polynomial, "__rmul__", "poly.mul", None),
        (orbit.OrbitIdeal, "reduce", "orbit.reduce", _after_orbit_reduce),
        (poisson.PoissonContext, "bracket", "poisson.bracket", _after_bracket),
        (poisson.PoissonContext, "reduce", "poisson.reduce", None),
        (linalg.RowBasis, "insert", "linalg.insert", _after_insert),
        (linalg.RowBasis, "contains", "linalg.contains", None),
        (linalg.RowBasis, "reduced_rows", "linalg.reduced_rows", _after_bits),
        (structure, "solve_linear", "linalg.solve", _after_solve),
        (structure, "nullspace", "linalg.nullspace", _after_nullspace),
        (linalg, "nullspace", "linalg.nullspace", _after_nullspace),
        (structure, "row_space_intersection", "linalg.intersection", _after_bits),
        (structure, "reduce_vector", "linalg.reduce_vector", _after_bits),
    ]
    out += [(structure, fn, f"structure.{fn}", None) for fn in STRUCTURE_ENTRY_POINTS]
    return out


def install(tracer: Tracer) -> None:
    """Replace every target with a wrapper that records into ``tracer``."""
    for owner, attr, name, after in targets():
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))


def installed() -> list[str]:
    """Span names of the targets that currently hold a wrapper."""
    return [name for owner, attr, name, _ in targets() if hasattr(getattr(owner, attr), "__wrapped__")]

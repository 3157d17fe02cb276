"""Degreewise structure checks for polynomial Poisson algebras.

Every operation here verifies a finite-dimensional projection of an
algebraic statement: subspaces of fixed degree are represented by exact
coefficient matrices over a canonical monomial enumeration, and verdicts
are always relative to the stated degree or source bound.  Reports
serialize deterministically to JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .liealg import LieAlgebra, is_semisimple
from .linalg import Matrix, RowBasis, Vector, nullspace, reduce_vector, row_space_intersection, solve_linear
from .orbit import OrbitDescriptor, OrbitType, builtin_casimir
from .poisson import PoissonContext
from .poly import Monomial, Polynomial, monomial_degree, monomials_of_degree


class Membership(Enum):
    IN_SPAN = "in_span"
    NOT_IN_SPAN_AT_BOUND = "not_in_span_at_bound"


@dataclass
class GradedSubspace:
    """A subspace of the degree-``degree`` coefficient space.

    ``monomials`` fixes the ambient coordinate order; ``basis`` holds the
    canonical reduced echelon rows spanning the subspace.
    """

    degree: int
    monomials: tuple[Monomial, ...]
    basis: tuple[tuple[Fraction, ...], ...]
    rank: int

    def contains(self, p: Polynomial) -> bool:
        return _span_contains(self.monomials, self.basis, p)


def _subspace(degree: int, monomials: Sequence[Monomial], rows: RowBasis) -> GradedSubspace:
    basis = tuple(tuple(row) for row in rows.reduced_rows())
    return GradedSubspace(degree, tuple(monomials), basis, rows.rank)


def _vector(p: Polynomial, index: dict[Monomial, int], width: int) -> Vector | None:
    """Coefficient vector of ``p`` on the indexed monomials.

    Returns None when ``p`` has support outside them.
    """
    vec = [Fraction(0)] * width
    for m, c in p.terms.items():
        i = index.get(m)
        if i is None:
            return None
        vec[i] = c
    return vec


def _span_contains(
    monomials: Sequence[Monomial], basis: Sequence[Sequence[Fraction]], p: Polynomial
) -> bool:
    """Whether ``p`` lies in the span of echelon ``basis`` rows over ``monomials``."""
    vec = _vector(p, {m: i for i, m in enumerate(monomials)}, len(monomials))
    return vec is not None and not any(reduce_vector(vec, basis))


def invariants_basis(algebra: LieAlgebra, degree: int) -> GradedSubspace:
    """Homogeneous polynomials of the given degree killed by every generator.

    Computed as the joint kernel of the bracket-with-generator operators on
    the degree-``degree`` coefficient space; for a semisimple algebra this
    is the degree slice of the Poisson center.
    """
    ctx = PoissonContext.free(algebra)
    mons = list(ctx.basis_monomials(degree))
    index = {m: i for i, m in enumerate(mons)}
    n = len(mons)
    stacked: Matrix = []
    for i in range(algebra.dim):
        gen = algebra.variable(i)
        block = [[Fraction(0)] * n for _ in range(n)]
        for col, m in enumerate(mons):
            image = ctx.bracket(gen, Polynomial.monomial(algebra.dim, m))
            for mm, c in image.terms.items():
                block[index[mm]][col] = c
        stacked.extend(block)
    rows = RowBasis(n)
    for vec in nullspace(stacked):
        rows.insert(vec)
    return _subspace(degree, mons, rows)


def _bracket_sources(ctx: PoissonContext, source_bound: int, all_pairs: bool) -> Iterator[Polynomial]:
    """Reduced brackets of monomial pairs within the source bound.

    Pairs (m_a, m_b) satisfy deg m_a + deg m_b - 1 <= source_bound.  With
    ``all_pairs`` false, first factors are restricted to the linear
    generators (sufficient for the free graded splitting; the full pair
    set is kept available for cross-validation and quotient spans).
    """
    if all_pairs:
        pool: list[Polynomial] = []
        degrees: list[int] = []
        for d in range(1, source_bound + 1):
            for m in ctx.basis_monomials(d):
                pool.append(Polynomial.monomial(ctx.nvars, m))
                degrees.append(d)
        for a in range(len(pool)):
            for b in range(a + 1, len(pool)):
                if degrees[a] + degrees[b] - 1 <= source_bound:
                    br = ctx.bracket(pool[a], pool[b])
                    if br:
                        yield br
    else:
        gens = [ctx.variable(i) for i in range(ctx.nvars)]
        for d in range(1, source_bound + 1):
            for m in ctx.basis_monomials(d):
                mb = Polynomial.monomial(ctx.nvars, m)
                for gen in gens:
                    br = ctx.bracket(gen, mb)
                    if br:
                        yield br


def derived_span(
    ctx: PoissonContext,
    degree: int,
    source_bound: int,
    all_pairs: bool = False,
) -> GradedSubspace:
    """Span of the degree-``degree`` components of reduced monomial brackets.

    Sources range over monomial pairs whose bracket degree is bounded by
    ``source_bound``.  In free mode, with ``source_bound = degree + 1`` and
    linear first factors, this is the degree slice of the span of all
    brackets (the derived ideal), since brackets with higher-degree factors
    reduce to brackets with linear ones.
    """
    mons = list(ctx.basis_monomials(degree))
    index = {m: i for i, m in enumerate(mons)}
    rows = RowBasis(len(mons))
    for br in _bracket_sources(ctx, source_bound, all_pairs):
        comp = br.graded_component(degree)
        if comp:
            rows.insert(_vector(comp, index, len(mons)))
    return _subspace(degree, mons, rows)


def derived_membership(ctx: PoissonContext, f: Polynomial, source_bound: int) -> Membership:
    """Whether ``f`` lies in the span of whole reduced brackets at the bound.

    The negative verdict is explicitly bound-relative: it says nothing
    about larger bounds.
    """
    f = ctx.reduce(f)
    if not f:
        return Membership.IN_SPAN
    top = max(source_bound, f.degree())
    mons = list(ctx.basis_monomials_up_to(top))
    index = {m: i for i, m in enumerate(mons)}
    rows = RowBasis(len(mons))
    for br in _bracket_sources(ctx, source_bound, all_pairs=True):
        rows.insert(_vector(br, index, len(mons)))
    if rows.contains(_vector(f, index, len(mons))):
        return Membership.IN_SPAN
    return Membership.NOT_IN_SPAN_AT_BOUND


@dataclass
class VerificationReport:
    """Per-degree records with an overall verdict; serializes to JSON."""

    claim: str
    params: dict
    records: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.get("verdict") == "pass" for r in self.records)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "records": self.records,
            "notes": self.notes,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"claim: {self.claim}"]
        if self.params:
            pairs = "  ".join(f"{k}={_text_cell(v)}" for k, v in self.params.items())
            lines.append(f"params: {pairs}")
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.records:
            columns: list[str] = []
            for record in self.records:
                for key in record:
                    if key != "verdict" and key not in columns:
                        columns.append(key)
            columns.append("verdict")
            table = [[_text_cell(r.get(c, "")) for c in columns] for r in self.records]
            widths = [
                max(len(columns[i]), max(len(row[i]) for row in table))
                for i in range(len(columns))
            ]
            lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip())
            for row in table:
                lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        lines.append(f"overall: {self.verdict}")
        return "\n".join(lines) + "\n"


def _text_cell(value) -> str:
    if isinstance(value, dict):
        return " ".join(f"{k}={_text_cell(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return ",".join(_text_cell(v) for v in value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _dim_of_degree(nvars: int, degree: int) -> int:
    return len(monomials_of_degree(nvars, degree))


def verify_prop1(algebra: LieAlgebra, max_degree: int) -> VerificationReport:
    """Degreewise splitting of the free algebra into invariants plus brackets.

    For each degree, checks that the invariant rank and the derived-span
    rank add up to the full dimension and that the two bases together still
    have full rank (direct sum).  Runs on non-semisimple input too and
    records the failures, since the splitting is expected to break there.
    """
    report = VerificationReport(
        "prop1",
        {"algebra": algebra.name or "user", "max_degree": max_degree},
    )
    if not is_semisimple(algebra):
        report.notes.append("algebra is not semisimple; the splitting is expected to fail")
    ctx = PoissonContext.free(algebra)
    for n in range(max_degree + 1):
        ambient = _dim_of_degree(algebra.dim, n)
        center = invariants_basis(algebra, n)
        derived = derived_span(ctx, n, n + 1)
        union = RowBasis(ambient)
        for row in center.basis:
            union.insert(row)
        for row in derived.basis:
            union.insert(row)
        sum_ok = center.rank + derived.rank == ambient
        direct_ok = union.rank == ambient
        record = {
            "degree": n,
            "dims": {
                "ambient": ambient,
                "center": center.rank,
                "derived": derived.rank,
                "union": union.rank,
            },
            "verdict": "pass" if (sum_ok and direct_ok) else "fail",
        }
        if not (sum_ok and direct_ok):
            overlap = row_space_intersection(
                [list(r) for r in center.basis], [list(r) for r in derived.basis]
            )
            if overlap:
                witness = Polynomial(
                    algebra.dim,
                    {m: c for m, c in zip(center.monomials, overlap[0]) if c},
                )
                record["witness"] = ctx.format(witness)
        report.records.append(record)
    return report


def verify_thm2(
    orbit: OrbitDescriptor,
    max_bound: int,
    monomial_degree_cap: int = 3,
) -> VerificationReport:
    """Two-sided splitting evidence on an orbit's polynomial algebra.

    Negative side: the constant 1 stays outside the span of whole reduced
    brackets for every source bound up to ``max_bound``.  Positive side:
    each normal-form monomial of low degree lies in the span of the
    degree-matched components of brackets at the top bound, so together
    with constants the bracket span reaches everything checked.  Monomials
    are checked up to degree ``min(monomial_degree_cap, max_bound)``, since
    brackets at a lower bound cannot reach higher degrees; the effective cap
    is recorded in the report.
    """
    ctx = orbit.context
    monomial_degree_cap = min(monomial_degree_cap, max_bound)
    report = VerificationReport(
        "thm2",
        {
            "algebra": orbit.algebra.name or "user",
            "relation": orbit.format(orbit.relation),
            "orbit_type": orbit.orbit_type.value,
            "max_bound": max_bound,
            "monomial_degree_cap": monomial_degree_cap,
        },
    )
    one = Polynomial.constant(ctx.nvars, 1)
    for bound in range(max_bound + 1):
        verdict = derived_membership(ctx, one, bound)
        report.records.append(
            {
                "check": "constants",
                "bound": bound,
                "membership": verdict.value,
                "verdict": "pass" if verdict is Membership.NOT_IN_SPAN_AT_BOUND else "fail",
            }
        )
    for d in range(1, monomial_degree_cap + 1):
        span = derived_span(ctx, d, max_bound, all_pairs=True)
        for m in ctx.basis_monomials(d):
            p = Polynomial.monomial(ctx.nvars, m)
            ok = span.contains(p)
            report.records.append(
                {
                    "check": "monomial",
                    "degree": d,
                    "monomial": ctx.format(p),
                    "membership": Membership.IN_SPAN.value if ok else Membership.NOT_IN_SPAN_AT_BOUND.value,
                    "verdict": "pass" if ok else "fail",
                }
            )
    return report


def verify_heisenberg(orbit: OrbitDescriptor, bound: int = 2) -> VerificationReport:
    """Counterexample check: constants are bracket-reachable on this orbit.

    On the standard symplectic orbit of a Heisenberg algebra the constant 1
    is itself a reduced bracket, so the splitting that holds in the
    semisimple case fails here.
    """
    ctx = orbit.context
    one = Polynomial.constant(ctx.nvars, 1)
    verdict = derived_membership(ctx, one, bound)
    report = VerificationReport(
        "heisenberg",
        {
            "algebra": orbit.algebra.name or "user",
            "relation": orbit.format(orbit.relation),
            "bound": bound,
        },
    )
    report.records.append(
        {
            "check": "constants",
            "bound": bound,
            "membership": verdict.value,
            "verdict": "pass" if verdict is Membership.IN_SPAN else "fail",
        }
    )
    return report


@dataclass
class ClosureResult:
    """Fixed point of the bounded Poisson-ideal closure moves.

    ``elements`` records a spanning set with provenance strings showing how
    each element was produced from the generators (multiplication by a
    generator or bracket with a generator), so every member of the span is
    a word in the closure moves by construction.
    """

    degree_bound: int
    monomials: tuple[Monomial, ...]
    basis: tuple[tuple[Fraction, ...], ...]
    rank: int
    dimension: int
    contains_one: bool
    proper_at_bound: bool
    elements: list[tuple[str, Polynomial]]

    def contains(self, p: Polynomial) -> bool:
        return _span_contains(self.monomials, self.basis, p)

    def is_graded(self) -> bool:
        """Whether the span is a direct sum of its degree components."""
        for row in self.basis:
            p = Polynomial(
                len(self.monomials[0]) if self.monomials else 0,
                {m: c for m, c in zip(self.monomials, row) if c},
            )
            degrees = {monomial_degree(m) for m in p.terms}
            for d in sorted(degrees):
                if not self.contains(p.graded_component(d)):
                    return False
        return True


def poisson_ideal_closure(
    ctx: PoissonContext,
    generators: Sequence[Polynomial],
    degree_bound: int,
) -> ClosureResult:
    """Smallest bounded subspace containing the generators and closed under
    multiplication by a generator variable (when the product degree stays
    within the bound) and bracketing with a generator variable.

    By the product rule these moves exhaust Poisson-ideal closure at the
    bound.  Iteration sweeps all moves over the current spanning set until
    a full sweep adds nothing; ranks are capped by the ambient dimension,
    so this terminates.
    """
    if not generators:
        raise ValueError("closure requires at least one generator")
    mons = list(ctx.basis_monomials_up_to(degree_bound))
    index = {m: i for i, m in enumerate(mons)}
    width = len(mons)
    rows = RowBasis(width)
    elements: list[tuple[str, Polynomial]] = []

    def admit(provenance: str, p: Polynomial) -> None:
        if p and rows.insert(_vector(p, index, width)):
            elements.append((provenance, p))

    for g in generators:
        g = ctx.reduce(g)
        if not g:
            raise ValueError("closure generators must be nonzero in the context")
        if g.degree() > degree_bound:
            raise ValueError("closure generator degree exceeds the bound")
        admit(ctx.format(g), g)

    names = ctx.algebra.names
    while True:
        grew = False
        k = 0
        while k < len(elements):
            provenance, e = elements[k]
            before = rows.rank
            for i in range(ctx.nvars):
                gen = ctx.variable(i)
                if e.degree() + 1 <= degree_bound:
                    admit(f"{names[i]}*({provenance})", ctx.reduce(gen * e))
                admit(f"{{{names[i]}, {provenance}}}", ctx.bracket(gen, e))
            if rows.rank > before:
                grew = True
            k += 1
        if not grew:
            break

    one_vec = _vector(Polynomial.constant(ctx.nvars, 1), index, width)
    return ClosureResult(
        degree_bound=degree_bound,
        monomials=tuple(mons),
        basis=tuple(tuple(row) for row in rows.reduced_rows()),
        rank=rows.rank,
        dimension=width,
        contains_one=rows.contains(one_vec),
        proper_at_bound=rows.rank < width,
        elements=elements,
    )


def simplicity_probe(
    orbit: OrbitDescriptor,
    trials: Sequence[Polynomial],
    degree_bound: int,
) -> VerificationReport:
    """Bounded probes of the simplicity dichotomy.

    Each trial generates a Poisson-ideal closure at the bound.  On a
    semisimple orbit every closure must reach 1; on a nilpotent orbit some
    trial must stay proper (a witness of non-simplicity).  For untagged
    orbits the closures are reported without a dichotomy claim.  A closure
    that fails to reach 1 at the bound is inconclusive evidence, never a
    refutation, and is noted as such.
    """
    ctx = orbit.context
    report = VerificationReport(
        "simplicity",
        {
            "algebra": orbit.algebra.name or "user",
            "relation": orbit.format(orbit.relation),
            "orbit_type": orbit.orbit_type.value,
            "degree_bound": degree_bound,
            "generators": [orbit.format(ctx.reduce(t)) for t in trials],
        },
    )
    results = []
    for trial in trials:
        reduced = ctx.reduce(trial)
        if not reduced or reduced.degree() == 0:
            raise ValueError("probe generators must be nonconstant and nonzero on the orbit")
        closure = poisson_ideal_closure(ctx, [reduced], degree_bound)
        results.append((reduced, closure))

    kind = orbit.orbit_type
    for reduced, closure in results:
        record = {
            "generator": orbit.format(reduced),
            "contains_one": closure.contains_one,
            "proper": closure.proper_at_bound,
            "rank": closure.rank,
            "dimension": closure.dimension,
        }
        if kind is OrbitType.SEMISIMPLE:
            record["verdict"] = "pass" if closure.contains_one else "fail"
            if not closure.contains_one:
                record["witness"] = "closure did not reach 1 at this bound (inconclusive)"
        else:
            record["verdict"] = "pass"
        report.records.append(record)
    if kind is OrbitType.NILPOTENT:
        found = any(closure.proper_at_bound for _, closure in results)
        report.records.append(
            {
                "check": "exists_proper_closure",
                "found": found,
                "verdict": "pass" if found else "fail",
            }
        )
    if kind is OrbitType.OTHER:
        report.notes.append("orbit type is untagged; closure outcomes are informational")
    return report


def verify_homogeneous_ideals(orbit: OrbitDescriptor, k: int, degree_bound: int) -> VerificationReport:
    """Graded-ideal checks on a conical (homogeneous-relation) orbit.

    Verifies that brackets of homogeneous degree-a and degree-b elements
    land in degree a+b-1, and that the span of all normal-form monomials of
    degree >= k, truncated at the bound, is a proper Poisson ideal: stable
    under the closure moves, graded, and not containing 1.
    """
    if k < 1:
        raise ValueError("the homogeneous ideal index k must be at least 1")
    if not orbit.ideal.is_homogeneous:
        raise ValueError("orbit relation is not homogeneous; the quotient is not graded")
    ctx = orbit.context
    report = VerificationReport(
        "nilpotent-ideals",
        {
            "algebra": orbit.algebra.name or "user",
            "relation": orbit.format(orbit.relation),
            "k": k,
            "degree_bound": degree_bound,
        },
    )
    for a in range(1, degree_bound + 1):
        for b in range(a, degree_bound + 1):
            if a + b - 1 > degree_bound:
                continue
            ok = True
            witness = None
            for ma in ctx.basis_monomials(a):
                for mb in ctx.basis_monomials(b):
                    br = ctx.bracket(
                        Polynomial.monomial(ctx.nvars, ma), Polynomial.monomial(ctx.nvars, mb)
                    )
                    if br and (not br.is_homogeneous() or br.degree() != a + b - 1):
                        ok = False
                        witness = (
                            f"{{{ctx.format(Polynomial.monomial(ctx.nvars, ma))}, "
                            f"{ctx.format(Polynomial.monomial(ctx.nvars, mb))}}} = {ctx.format(br)}"
                        )
                        break
                if not ok:
                    break
            record = {"check": "bracket_grading", "degrees": [a, b], "verdict": "pass" if ok else "fail"}
            if witness:
                record["witness"] = witness
            report.records.append(record)

    gens = [
        Polynomial.monomial(ctx.nvars, m)
        for d in range(k, degree_bound + 1)
        for m in ctx.basis_monomials(d)
    ]
    initial_rank = len(gens)
    closure = poisson_ideal_closure(ctx, gens, degree_bound)
    stable = closure.rank == initial_rank
    graded = closure.is_graded()
    ok = stable and graded and not closure.contains_one and closure.proper_at_bound
    report.records.append(
        {
            "check": "ideal",
            "k": k,
            "dims": {
                "ambient": closure.dimension,
                "initial": initial_rank,
                "closed": closure.rank,
            },
            "contains_one": closure.contains_one,
            "proper": closure.proper_at_bound,
            "graded": graded,
            "verdict": "pass" if ok else "fail",
        }
    )
    return report


def nonexactness_check(
    orbit: OrbitDescriptor,
    degree_bound: int,
) -> VerificationReport:
    """Infeasibility of 1 = {x,f} + {y,g} + {z,h} with bounded coefficients.

    Assembles, for each coefficient degree up to the bound, the exact
    linear system over the normal-form coefficients of f, g, h and asks the
    solver for a solution with right-hand side 1 (must be inconsistent) and
    with right-hand side 0 as a control (must be solvable).
    """
    algebra = orbit.algebra
    if algebra.name != "sl2r":
        raise ValueError("the non-exactness system is specific to sl2r")
    expected = builtin_casimir(algebra) - Polynomial.constant(algebra.dim, 1)
    if orbit.relation != expected:
        raise ValueError("the non-exactness system requires the hyperboloid relation (Casimir level 1)")
    ctx = orbit.context
    report = VerificationReport(
        "nonexact",
        {
            "algebra": algebra.name,
            "relation": orbit.format(orbit.relation),
            "max_coefficient_degree": degree_bound,
        },
    )
    gens = [ctx.variable(i) for i in range(ctx.nvars)]
    for d in range(degree_bound + 1):
        unknowns = list(ctx.basis_monomials_up_to(d))
        ambient = list(ctx.basis_monomials_up_to(d + 1))
        index = {m: i for i, m in enumerate(ambient)}
        columns: list[Vector] = []
        for gen in gens:
            for m in unknowns:
                image = ctx.bracket(gen, Polynomial.monomial(ctx.nvars, m))
                columns.append(_vector(image, index, len(ambient)))
        matrix = [[col[r] for col in columns] for r in range(len(ambient))]
        target = _vector(Polynomial.constant(ctx.nvars, 1), index, len(ambient))
        solution = solve_linear(matrix, target)
        report.records.append(
            {
                "check": "target_one",
                "coefficient_degree": d,
                "unknowns": 3 * len(unknowns),
                "equations": len(ambient),
                "feasible": solution is not None,
                "verdict": "pass" if solution is None else "fail",
            }
        )
        if d == degree_bound:
            control = solve_linear(matrix, [Fraction(0)] * len(ambient))
            record = {
                "check": "target_zero_control",
                "coefficient_degree": d,
                "feasible": control is not None,
                "verdict": "pass" if control is not None else "fail",
            }
            if control is not None:
                parts = []
                for block, label in enumerate(("f", "g", "h")):
                    coeffs = control[block * len(unknowns):(block + 1) * len(unknowns)]
                    p = Polynomial(ctx.nvars, {m: c for m, c in zip(unknowns, coeffs) if c})
                    parts.append(f"{label} = {ctx.format(p)}")
                record["witness"] = ", ".join(parts)
            report.records.append(record)
    return report


def _ideal_truncation(
    ctx: PoissonContext, generators: Sequence[Polynomial], degree_bound: int
) -> tuple[RowBasis, list[tuple[str, Polynomial]], tuple[Monomial, ...]]:
    """Span of reduced generator multiples with product degree at the bound."""
    mons = list(ctx.basis_monomials_up_to(degree_bound))
    index = {m: i for i, m in enumerate(mons)}
    rows = RowBasis(len(mons))
    elements: list[tuple[str, Polynomial]] = []
    for g in generators:
        gdeg = g.degree()
        for d in range(degree_bound - gdeg + 1):
            for m in ctx.basis_monomials(d):
                p = ctx.reduce(Polynomial.monomial(ctx.nvars, m) * g)
                if p and rows.insert(_vector(p, index, len(mons))):
                    mono = ctx.format(Polynomial.monomial(ctx.nvars, m))
                    elements.append((f"{mono}*({ctx.format(g)})", p))
    return rows, elements, tuple(mons)


def _bracket_closed(
    ctx: PoissonContext,
    rows: RowBasis,
    elements: Sequence[tuple[str, Polynomial]],
    index: dict[Monomial, int],
    width: int,
) -> tuple[bool, str | None]:
    """Whether brackets of the span with every generator stay in the span."""
    for i in range(ctx.nvars):
        gen = ctx.variable(i)
        for provenance, e in elements:
            br = ctx.bracket(gen, e)
            if br and not rows.contains(_vector(br, index, width)):
                return False, f"{{{ctx.algebra.names[i]}, {provenance}}}"
    return True, None


def ideal_square_check(
    ctx: PoissonContext,
    generators: Sequence[Polynomial],
    degree_bound: int,
) -> VerificationReport:
    """Strictness of I^2 inside I at the bound, with an explicit witness.

    Truncates the associative ideal generated by the given polynomials and
    the ideal generated by their pairwise products, then exhibits a
    generator outside the product span.  Bracket closure of both spans is
    recorded; the closure of the product span is only required to hold
    when the ideal itself is bracket-closed at the bound (otherwise the
    containment argument that makes it a Lie ideal does not apply).
    """
    if not generators:
        raise ValueError("the ideal check requires at least one generator")
    gens = [ctx.reduce(g) for g in generators]
    if any(not g for g in gens):
        raise ValueError("ideal generators must be nonzero in the context")
    report = VerificationReport(
        "lemma",
        {
            "algebra": ctx.algebra.name or "user",
            "mode": "quotient" if ctx.is_quotient else "free",
            "generators": [ctx.format(g) for g in gens],
            "degree_bound": degree_bound,
        },
    )
    if ctx.is_quotient:
        report.params["relation"] = ctx.format(ctx.ideal.relation)
    i_rows, i_elements, mons = _ideal_truncation(ctx, gens, degree_bound)
    index = {m: i for i, m in enumerate(mons)}
    width = len(mons)
    square_gens = []
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            p = ctx.reduce(gens[a] * gens[b])
            if p:
                square_gens.append(p)
    sq_rows, sq_elements, _ = (
        _ideal_truncation(ctx, square_gens, degree_bound)
        if square_gens
        else (RowBasis(width), [], mons)
    )
    report.records.append(
        {
            "check": "truncation_dims",
            "dims": {"ambient": width, "ideal": i_rows.rank, "square": sq_rows.rank},
            "verdict": "pass",
        }
    )
    witness = None
    for g in gens:
        if not sq_rows.contains(_vector(g, index, width)):
            witness = ctx.format(g)
            break
    record = {
        "check": "strict_inclusion",
        "verdict": "pass" if witness is not None else "fail",
    }
    if witness is not None:
        record["witness"] = witness
    report.records.append(record)
    i_closed, _ = _bracket_closed(ctx, i_rows, i_elements, index, width)
    sq_closed, sq_witness = _bracket_closed(ctx, sq_rows, sq_elements, index, width)
    closure_record = {
        "check": "bracket_closure",
        "ideal_closed": i_closed,
        "square_closed": sq_closed,
        "required": i_closed,
        "verdict": "pass" if (sq_closed or not i_closed) else "fail",
    }
    if i_closed and not sq_closed and sq_witness:
        closure_record["witness"] = sq_witness
    report.records.append(closure_record)
    return report

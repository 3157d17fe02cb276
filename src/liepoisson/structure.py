"""Degreewise structure checks for polynomial Poisson algebras.

Every operation here verifies a finite-dimensional projection of an
algebraic statement, and verdicts are always relative to the stated degree
or source bound.  Each bounded subspace is a ``Span``: a fixed tuple of
canonical monomials and one exact ``RowBasis`` over their coefficients.
``Span.vector`` is the only map from a ``Polynomial`` to coordinates (both
key monomials by packed int, as ``PoissonContext.basis_monomials`` does);
``insert`` and ``contains`` take polynomials, and ``basis`` reads the
canonical reduced echelon basis back as polynomials.  A claim's subspace is
returned as the ``Span`` that built it (``derived_span``,
``invariants_basis``, ``poisson_ideal_closure``), and callers read its
verdicts (membership of 1, rank, gradedness) from the span directly.
Coordinates stay sparse: a polynomial enters its span's ``RowBasis`` as
(column, integer numerator) pairs, and kernels and intersections are read
off one elimination each.  Every bracket span is built from the brackets
{x_i, m} with a linear first factor, since {f, g} = sum_i
{x_i, g * df/dx_i}; on an orbit this holds modulo the relation's ideal,
which is Poisson.  Reports serialize deterministically.
"""

from __future__ import annotations

import json
from bisect import insort
from enum import Enum
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .liealg import LieAlgebra, killing_rows, nondegenerate
# nullspace, reduce_vector, row_space_intersection and solve_linear are not
# called here: they are bound only because perfbench/spans.py wraps them here.
from .linalg import Pairs, RowBasis, nullspace, reduce_vector, row_space_intersection, solve_linear
from .orbit import OrbitDescriptor, OrbitType, builtin_casimir
from .poisson import PoissonContext
from .poly import EXPONENT_CAP, Polynomial


class Membership(Enum):
    IN_SPAN = "in_span"
    NOT_IN_SPAN_AT_BOUND = "not_in_span_at_bound"


class Span:
    """A growing subspace of the polynomials supported on fixed monomials.

    ``monomials``, keys of monomials in ``nvars`` variables, fix the
    coordinate order; ``rows`` is the exact row space of the coefficient
    vectors inserted so far, fully reduced if ``full`` (see ``RowBasis``).
    """

    def __init__(self, monomials: Iterable[int], nvars: int, full: bool = False):
        self.monomials = tuple(monomials)
        self.nvars = nvars
        self._index = {m: i for i, m in enumerate(self.monomials)}
        self.rows = RowBasis(len(self.monomials), full)

    @property
    def rank(self) -> int:
        return self.rows.rank

    def vector(self, p: Polynomial) -> Pairs | None:
        """(column, numerator) pairs of ``p``, that is, its coefficient vector
        times ``p.den``; None if its support leaves the monomials."""
        index = self._index
        try:
            return [(index[m], a) for m, a in p.num.items()]
        except KeyError:
            return None

    def insert(self, p: Polynomial) -> bool:
        """Add ``p``; return True if it enlarged the span."""
        if not p:
            return False
        vec = self.vector(p)
        if vec is None:
            raise ValueError("polynomial has support outside the span's monomials")
        return self.rows.insert(vec)

    def contains(self, p: Polynomial) -> bool:
        vec = self.vector(p)
        return vec is not None and self.rows.contains(vec)

    def basis(self) -> list[Polynomial]:
        """Canonical reduced echelon basis, one polynomial per pivot monomial."""
        return _polynomials(self.nvars, self.monomials, self.rows)

    def is_graded(self) -> bool:
        """Whether the span is the direct sum of its degree components, that
        is, whether its reduced echelon basis is homogeneous: the reduced
        echelon bases of a graded span's degree components have disjoint
        supports, so together they are reduced echelon, and by uniqueness
        they are the span's basis."""
        return all(p.is_homogeneous() for p in self.basis())


def _polynomials(nvars: int, monomials: Sequence[int], rows: RowBasis) -> list[Polynomial]:
    """The reduced echelon rows of ``rows`` as polynomials over ``monomials``:
    each back-substituted row is the numerators over its pivot entry."""
    return [
        Polynomial.from_numerators(nvars, {monomials[j]: a for j, a in row.items()}, row[p])
        for p, row in rows.rref().items()
    ]


def _check_bound(name: str, value: int, reach: int = 0) -> None:
    """Refuse a negative bound, and one at which a claim's results, of degree
    at most ``value + reach``, could pass the cap of a packed exponent."""
    if value < 0:
        raise ValueError(f"the bound {name} must be non-negative, got {value}")
    if value + reach > EXPONENT_CAP:
        raise ValueError(f"the bound {name}={value} reaches degree {value + reach}, past the cap {EXPONENT_CAP}")


def _free_degree_split(ctx: PoissonContext, degree: int) -> tuple[Span, Span]:
    """Center and derived slice of the free algebra at one degree, from one operator.

    D sends a degree-``degree`` monomial m to ({x_1, m}, ..., {x_dim, m}),
    read from ``ctx.ad_numerators`` over the one denominator of the
    structure constants, so each row [D(m_j) | e_j] is an integer row as it
    stands.  The center ker D is read off one elimination of these rows:
    those pivoted in the identity block are [0 | c], and their c span ker D.
    D is laid out monomial-major, coordinate c of {x_i, m_j} in column
    c * dim + i: each target monomial's dim coordinates are cleared
    together, where generator-major columns fill in the identity block.

    The rows go in from the last, lowest, monomial up.  The leading column
    of D(m_j) lies in the block of its largest target monomial.  In a
    non-sparse basis that is m_j with one unit moved from its lowest
    variable to the last, which does not fall as m_j rises.  So the rows
    already in have their columns at or right of the new row's leading
    block, and a row whose leading column is taken meets a row that went in
    unreduced, not the residual of an earlier clearing: on sl3 and sl4 from
    matrix units and on sl3 in rebased bases, no row met a residual.  From
    the top down, most rows meet residuals first and take on their identity
    entries (226 of 330 on sl3 in a rebased basis at degree 4).  The
    operator stays semi-reduced: its row space is thin in a wide space, and
    full reduction fills it in (0.63 to 23.9 s on sl3 in a rebased basis
    at degree 6).

    The derived slice, the span of the {x_i, m}, is all of {P, P} here.
    It is filled in the same ascending pass, each {x_i, m_j} as it is read,
    and kept fully reduced, so a bracket it already holds is cleared once
    per pivot in its support instead of in a cascade.  Its inserts stop
    once its rank is the slice's size: every later bracket lies in it.
    Being fully reduced, it also decides ``verify_prop1``'s union by
    reduction: the union's rank is the derived rank plus the rank of the
    center rows' residuals modulo it, and only a degree where those
    residuals are dependent takes the Zassenhaus elimination, for the
    overlap witness.
    """
    center = Span(ctx.basis_monomials(degree), ctx.nvars)
    derived = Span(center.monomials, ctx.nvars, full=True)
    size, dim, index, den = len(center.monomials), ctx.nvars, center._index, ctx.den
    operator, derived_rows = RowBasis((dim + 1) * size), derived.rows
    for j in reversed(range(size)):
        row = {dim * size + j: den}
        for i, num in enumerate(ctx.ad_numerators(center.monomials[j])):
            vec = {index[t]: a for t, a in num.items() if a}
            for c, a in vec.items():
                row[c * dim + i] = a
            if vec and derived_rows.rank < size:
                derived_rows._add(vec)
        operator._add(row)
    for row in operator.tail(dim * size):
        center.rows._add(dict(row))
    return center, derived


def invariants_basis(algebra: LieAlgebra, degree: int) -> Span:
    """Homogeneous polynomials of the given degree killed by every generator:
    for a semisimple algebra, the degree slice of the Poisson center."""
    return _free_degree_split(PoissonContext.free(algebra), degree)[0]


def _bracket_sources(ctx: PoissonContext, source_bound: int) -> Iterator[tuple[int, Polynomial]]:
    """Nonzero reduced brackets {x_i, m}, each with its source bound deg m.

    x_i runs over the normal linear monomials, m over the normal monomials
    with 1 <= deg m <= ``source_bound``, and a pair of linear monomials is
    taken once.  They span every monomial bracket {f, g} of bound
    deg f + deg g - 1 <= ``source_bound``, since {f, g} = sum_i
    {x_i, g * df/dx_i} (the second-derivative terms cancel by antisymmetry).
    On an orbit this holds modulo the relation's ideal, which is Poisson.
    """
    linear = [ctx.monomial(m) for m in ctx.basis_monomials(1)]
    for d in range(1, source_bound + 1):
        for b, m in enumerate(ctx.basis_monomials(d)):
            pm = ctx.monomial(m)
            for x in linear if d > 1 else linear[:b]:
                br = ctx.bracket(x, pm)
                if br:
                    yield d, br


def derived_span(ctx: PoissonContext, degree: int, source_bound: int) -> Span:
    """Span of the degree-``degree`` components of the brackets {x_i, m} with
    deg m <= ``source_bound``, which by {f, g} = sum_i {x_i, g * df/dx_i}
    (modulo the Poisson ideal on an orbit) is that of every monomial bracket
    at the bound.  In the free algebra, ``source_bound = degree + 1`` gives
    the degree slice of {P, P}.
    """
    span = Span(ctx.basis_monomials(degree), ctx.nvars)
    for _, br in _bracket_sources(ctx, source_bound):
        span.insert(br.graded_component(degree))
    return span


def derived_membership(ctx: PoissonContext, f: Polynomial, source_bound: int) -> Membership:
    """Whether ``f`` lies in the span of whole reduced brackets at the bound.

    The negative verdict is explicitly bound-relative: it says nothing
    about larger bounds.
    """
    if _entry_bound(ctx, f, _bracket_sources(ctx, source_bound), source_bound) is None:
        return Membership.NOT_IN_SPAN_AT_BOUND
    return Membership.IN_SPAN


def _entry_bound(
    ctx: PoissonContext, target: Polynomial, sources: Iterable[tuple[int, Polynomial]], source_bound: int
) -> int | None:
    """Least source bound whose brackets put the normal form of ``target`` in
    their span: 0 if it is zero, None if it never enters.  The ``(bound,
    bracket)`` sources must come in nondecreasing bound up to
    ``source_bound``, as ``_bracket_sources`` yields them; they are consumed
    one bound at a time and ``target`` is tested after each, so no bracket
    past the entry bound is evaluated.  The span is fully reduced: it ends
    near full rank, and most later brackets already lie in it.
    """
    target = ctx.reduce(target)
    span = Span(ctx.basis_monomials_up_to(max(source_bound, target.degree())), ctx.nvars, full=True)
    if span.contains(target):
        return 0
    for bound, group in groupby(sources, key=itemgetter(0)):
        for _, br in group:
            span.insert(br)
        if span.contains(target):
            return bound
    return None


class VerificationReport:
    """Per-degree records with an overall verdict; serializes to JSON."""

    def __init__(
        self,
        claim: str,
        params: dict,
        records: list[dict] | None = None,
        notes: list[str] | None = None,
    ):
        self.claim = claim
        self.params = params
        self.records = [] if records is None else records
        self.notes = [] if notes is None else notes

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
            columns = [*dict.fromkeys(k for r in self.records for k in r if k != "verdict"), "verdict"]
            table = [[_text_cell(r.get(c, "")) for c in columns] for r in self.records]
            widths = [max(len(columns[i]), max(len(row[i]) for row in table)) for i in range(len(columns))]
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


def verify_prop1(algebra: LieAlgebra, max_degree: int) -> VerificationReport:
    """Degreewise splitting of the free algebra into invariants plus brackets.

    For each degree, checks that the invariant rank and the derived-span
    rank add up to the full dimension and that the two bases together still
    have full rank (direct sum).  Runs on non-semisimple input too and
    records the failures, since the splitting is expected to break there.
    """
    _check_bound("max_degree", max_degree)
    report = VerificationReport("prop1", {"algebra": algebra.name or "user", "max_degree": max_degree})
    ctx = PoissonContext.free(algebra)  # refuses an algebra that is not Lie
    if not nondegenerate(killing_rows(algebra)):
        report.notes.append("algebra is not semisimple; the splitting is expected to fail")
    for n in range(max_degree + 1):
        center, derived = _free_degree_split(ctx, n)
        ambient = len(center.monomials)
        # the center rows' residuals modulo the fully reduced derived span
        # are independent iff the sum is direct; only then is Zassenhaus skipped
        residuals, overlap = RowBasis(ambient), None
        for row in center.rows.tail(0):
            residuals._add(derived.rows._reduce(dict(row)))
        union = derived.rank + residuals.rank
        if residuals.rank < center.rank:
            union, overlap = center.rows.sum_and_intersection(derived.rows)
        sum_ok = center.rank + derived.rank == ambient
        direct_ok = union == ambient
        record = {
            "degree": n,
            "dims": {
                "ambient": ambient,
                "center": center.rank,
                "derived": derived.rank,
                "union": union,
            },
            "verdict": "pass" if (sum_ok and direct_ok) else "fail",
        }
        if overlap is not None:
            record["witness"] = ctx.format(_polynomials(ctx.nvars, center.monomials, overlap)[0])
        report.records.append(record)
    return report


def _orbit_report(claim: str, ctx: PoissonContext, **params) -> VerificationReport:
    """An empty report whose params name the quotient's algebra and relation,
    then ``params`` in the order given."""
    return VerificationReport(
        claim, {"algebra": ctx.algebra.name or "user", "relation": ctx.format(ctx.ideal.relation), **params}
    )


# Highest degree whose normal-form monomials verify_thm2 checks one by one.
MONOMIAL_DEGREE_CAP = 3


def verify_thm2(orbit: OrbitDescriptor, max_bound: int) -> VerificationReport:
    """Two-sided splitting evidence on an orbit's polynomial algebra.

    Negative side: the constant 1 stays outside the span of whole reduced
    brackets for every source bound up to ``max_bound``.  Positive side:
    each normal-form monomial of low degree lies in the span of the
    degree-matched components of brackets at the top bound, so together
    with constants the bracket span reaches everything checked.  Monomials
    are checked up to degree ``min(MONOMIAL_DEGREE_CAP, max_bound)``, since
    brackets at a lower bound cannot reach higher degrees; the effective cap
    is recorded in the report.
    """
    _check_bound("max_bound", max_bound)
    ctx = orbit.context
    monomial_degree_cap = min(MONOMIAL_DEGREE_CAP, max_bound)
    report = _orbit_report(
        "thm2",
        ctx,
        orbit_type=orbit.orbit_type.value,
        max_bound=max_bound,
        monomial_degree_cap=monomial_degree_cap,
    )
    # The sources of each lower bound are those tagged with at most that bound.
    sources = list(_bracket_sources(ctx, max_bound))
    entry = _entry_bound(ctx, Polynomial.constant(ctx.nvars, 1), sources, max_bound)
    for bound in range(max_bound + 1):
        member = entry is not None and entry <= bound
        verdict = Membership.IN_SPAN if member else Membership.NOT_IN_SPAN_AT_BOUND
        report.records.append(
            {
                "check": "constants",
                "bound": bound,
                "membership": verdict.value,
                "verdict": "pass" if verdict is Membership.NOT_IN_SPAN_AT_BOUND else "fail",
            }
        )
    for d in range(1, monomial_degree_cap + 1):
        span = Span(ctx.basis_monomials(d), ctx.nvars)
        for _, br in sources:
            span.insert(br.graded_component(d))
        for m in span.monomials:
            p = ctx.monomial(m)
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
    if bound < 1:
        raise ValueError(f"the bracket bound --max-degree must be at least 1, got {bound}")
    _check_bound("--max-degree", bound)
    ctx = orbit.context
    one = Polynomial.constant(ctx.nvars, 1)
    verdict = derived_membership(ctx, one, bound)
    report = _orbit_report("heisenberg", ctx, bound=bound)
    report.records.append(
        {
            "check": "constants",
            "bound": bound,
            "membership": verdict.value,
            "verdict": "pass" if verdict is Membership.IN_SPAN else "fail",
        }
    )
    return report


def _reduced_generators(
    ctx: PoissonContext, generators: Sequence[Polynomial], degree_bound: int
) -> list[Polynomial]:
    """The generators in normal form, each nonzero and of degree at most the bound."""
    if not generators:
        raise ValueError("at least one generator is required")
    gens = [ctx.reduce(g) for g in generators]
    for g, r in zip(generators, gens):
        if not r:
            raise ValueError(f"generator {ctx.format(g)} is zero in the context")
        if r.degree() > degree_bound:
            raise ValueError(f"generator {ctx.format(r)} of degree {r.degree()} exceeds the bound {degree_bound}")
    return gens


def poisson_ideal_closure(ctx: PoissonContext, generators: Sequence[Polynomial], degree_bound: int) -> Span:
    """The span, over the monomials up to the bound, of the smallest subspace
    that contains the generators and is closed under multiplication by a
    generator variable (when the product degree stays within the bound) and
    bracketing with a generator variable.  Callers read its verdicts from
    the span: ``contains`` of 1, ``rank`` against ``len(monomials)``, and
    ``is_graded()``.

    By the product rule these moves exhaust Poisson-ideal closure at the
    bound.  They are applied to the span's stored rows, each read as a
    polynomial.  The stored rows are a basis of the span; their pivots are
    their leading columns, and the monomials come highest degree first, so
    the rows pivoted below the bound span the part of the span below it,
    combinations of elements at the bound that fall below it included.  So
    once every stored row has had its moves, the span is the closure,
    whatever order they ran in.  Pending rows are taken sparsest first, and
    the moves stop once the span is everything.
    """
    span = Span(ctx.basis_monomials_up_to(degree_bound), ctx.nvars)
    rows, index, monomials, size = span.rows, span._index, span.monomials, len(span.monomials)
    below = len(ctx.basis_monomials(degree_bound))  # the first column below the bound
    pending: list[tuple[int, int, dict[int, int]]] = []  # (-nonzeros, -pivot, row): pop() takes the sparsest

    def admit(p: Polynomial) -> None:
        row = rows._add({index[m]: a for m, a in p.num.items()})
        if row is not None:
            insort(pending, (-len(row), -min(row), row))

    for g in _reduced_generators(ctx, generators, degree_bound):
        admit(g)
    variables = [ctx.variable(i) for i in range(ctx.nvars)]
    while pending and rows.rank < size:
        row = pending.pop()[2]
        multiply = min(row) >= below
        e = Polynomial.from_numerators(ctx.nvars, {monomials[j]: a for j, a in row.items()}, 1)
        for gen in variables:
            if multiply:
                admit(ctx.product(gen, e))
            admit(ctx.bracket(gen, e))
    return span


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
    _check_bound("degree_bound", degree_bound)
    gens = _reduced_generators(ctx, trials, degree_bound)
    if any(g.degree() == 0 for g in gens):
        raise ValueError("probe generators must be nonconstant on the orbit")
    report = _orbit_report(
        "simplicity",
        ctx,
        orbit_type=orbit.orbit_type.value,
        degree_bound=degree_bound,
        generators=[ctx.format(g) for g in gens],
    )
    one = Polynomial.constant(ctx.nvars, 1)
    kind = orbit.orbit_type
    found = False
    for g in gens:
        span = poisson_ideal_closure(ctx, [g], degree_bound)
        contains_one, proper = span.contains(one), span.rank < len(span.monomials)
        found = found or proper
        record = {
            "generator": ctx.format(g),
            "contains_one": contains_one,
            "proper": proper,
            "rank": span.rank,
            "dimension": len(span.monomials),
        }
        if kind is OrbitType.SEMISIMPLE:
            record["verdict"] = "pass" if contains_one else "fail"
            if not contains_one:
                record["witness"] = "closure did not reach 1 at this bound (inconclusive)"
        else:
            record["verdict"] = "pass"
        report.records.append(record)
    if kind is OrbitType.NILPOTENT:
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
    if k > degree_bound:
        raise ValueError(f"the homogeneous ideal index k={k} exceeds the degree bound {degree_bound}")
    _check_bound("degree_bound", degree_bound)
    ctx = orbit.context
    if not ctx.ideal.relation.is_homogeneous():
        raise ValueError("orbit relation is not homogeneous; the quotient is not graded")
    report = _orbit_report("nilpotent-ideals", ctx, k=k, degree_bound=degree_bound)

    monomials = {d: [ctx.monomial(m) for m in ctx.basis_monomials(d)] for d in range(1, degree_bound + 1)}
    # {p_a, p_b} = sum_i dp_a/dx_i {x_i, p_b} over the normal linear x_i (a
    # normal p_a has no other), and the normal form of a homogeneous
    # polynomial is homogeneous of its degree.  So a record (a, b) holds once
    # the sources {x_i, m} with deg m = b, the pairs of record (1, b), are
    # homogeneous of degree b, and only for a failing b are its pairs searched.
    failing: set[int] = set()
    for a in range(1, degree_bound + 1):
        for b in range(a, degree_bound + 2 - a):
            brackets = ((pa, pb, ctx.bracket(pa, pb)) for pa in monomials[a] for pb in monomials[b])
            bad = None if a > 1 and b not in failing else next(
                (t for t in brackets if t[2] and (not t[2].is_homogeneous() or t[2].degree() != a + b - 1)),
                None,
            )
            record = {"check": "bracket_grading", "degrees": [a, b], "verdict": "pass" if bad is None else "fail"}
            if bad is not None:
                failing.add(b)
                fa, fb, fbr = map(ctx.format, bad)
                record["witness"] = f"{{{fa}, {fb}}} = {fbr}"
            report.records.append(record)

    gens = [p for d in range(k, degree_bound + 1) for p in monomials[d]]
    initial_rank = len(gens)
    span = poisson_ideal_closure(ctx, gens, degree_bound)
    contains_one = span.contains(Polynomial.constant(ctx.nvars, 1))
    proper = span.rank < len(span.monomials)
    graded = span.is_graded()
    ok = span.rank == initial_rank and graded and not contains_one and proper
    report.records.append(
        {
            "check": "ideal",
            "k": k,
            "dims": {
                "ambient": len(span.monomials),
                "initial": initial_rank,
                "closed": span.rank,
            },
            "contains_one": contains_one,
            "proper": proper,
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

    For each coefficient degree d up to the bound, the exact linear system
    over the normal-form coefficients of f, g, h of degree <= d must be
    inconsistent.  All degrees come from one span of the brackets {x_i, m},
    grown in bound order: the system at d is feasible exactly when 1 enters
    that span by bound d.  The relation may be any nonzero rational multiple
    of the level-1 Casimir relation, since a multiple generates the same ideal.
    """
    _check_bound("degree_bound", degree_bound, 1)  # the equations reach degree_bound + 1
    ctx = orbit.context
    if ctx.algebra.name != "sl2r":
        raise ValueError("the non-exactness system is specific to sl2r")
    expected = builtin_casimir(ctx.algebra) - Polynomial.constant(ctx.nvars, 1)
    relation = ctx.ideal.relation
    if relation * (expected.leading_term()[1] / relation.leading_term()[1]) != expected:
        raise ValueError("the non-exactness system requires a multiple of the hyperboloid relation (Casimir level 1)")
    report = _orbit_report("nonexact", ctx, max_coefficient_degree=degree_bound)
    # The degree-d system's columns are {x_i, m} with deg m <= d; constants
    # bracket to zero and {x_i, x_j} = -{x_j, x_i}, so the sources of bound
    # d span them, and the system is feasible iff 1 enters by bound d.
    one = Polynomial.constant(ctx.nvars, 1)
    entry = _entry_bound(ctx, one, _bracket_sources(ctx, degree_bound), degree_bound)
    for d in range(degree_bound + 1):
        feasible = entry is not None and entry <= d
        report.records.append(
            {
                "check": "target_one",
                "coefficient_degree": d,
                "unknowns": 3 * len(ctx.basis_monomials_up_to(d)),
                "equations": len(ctx.basis_monomials_up_to(d + 1)),
                "feasible": feasible,
                "verdict": "fail" if feasible else "pass",
            }
        )
    # The homogeneous system always has the zero solution, so this control
    # cannot fail; ROADMAP item 4 replaces it with one that can.
    report.records.append(
        {
            "check": "target_zero_control",
            "coefficient_degree": degree_bound,
            "feasible": True,
            "verdict": "pass",
            "witness": "f = 0, g = 0, h = 0",
        }
    )
    return report


def _ideal_truncation(
    ctx: PoissonContext, generators: Sequence[Polynomial], degree_bound: int
) -> tuple[Span, list[tuple[int, Polynomial, Polynomial]]]:
    """Span of reduced generator multiples with product degree at the bound,
    with the accepted elements as (monomial key, generator, reduced product)."""
    span = Span(ctx.basis_monomials_up_to(degree_bound), ctx.nvars)
    elements: list[tuple[int, Polynomial, Polynomial]] = []
    for g in generators:
        for d in range(degree_bound - g.degree() + 1):
            for m in ctx.basis_monomials(d):
                p = ctx.product(ctx.monomial(m), g)
                if span.insert(p):
                    elements.append((m, g, p))
    return span, elements


def _bracket_closed(
    ctx: PoissonContext, span: Span, elements: Sequence[tuple[int, Polynomial, Polynomial]]
) -> tuple[bool, str | None]:
    """Whether brackets of the span with every generator stay in the span;
    if not, the first failing bracket as text."""
    for i in range(ctx.nvars):
        gen = ctx.variable(i)
        for m, g, e in elements:
            br = ctx.bracket(gen, e)
            if br and not span.contains(br):
                mono = ctx.format(ctx.monomial(m))
                return False, f"{{{ctx.algebra.names[i]}, {mono}*({ctx.format(g)})}}"
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
    _check_bound("degree_bound", degree_bound, degree_bound)  # products of two generators
    gens = _reduced_generators(ctx, generators, degree_bound)
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
    i_span, i_elements = _ideal_truncation(ctx, gens, degree_bound)
    square_gens = []
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            p = ctx.product(gens[a], gens[b])
            if p:
                square_gens.append(p)
    sq_span, sq_elements = _ideal_truncation(ctx, square_gens, degree_bound)
    report.records.append(
        {
            "check": "truncation_dims",
            "dims": {"ambient": len(i_span.monomials), "ideal": i_span.rank, "square": sq_span.rank},
            "verdict": "pass",
        }
    )
    witness = next((ctx.format(g) for g in gens if not sq_span.contains(g)), None)
    record = {"check": "strict_inclusion", "verdict": "pass" if witness is not None else "fail"}
    if witness is not None:
        record["witness"] = witness
    report.records.append(record)
    i_closed, _ = _bracket_closed(ctx, i_span, i_elements)
    sq_closed, sq_witness = _bracket_closed(ctx, sq_span, sq_elements)
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

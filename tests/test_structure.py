"""Structure checks: graded splittings, spans, closures, and reports.

Derived expectations are recomputed here through independent routes
(plain rational elimination and the recursive product-rule bracket) before
being compared with the package's elimination results.
"""

import random
from collections import Counter
from itertools import groupby
from fractions import Fraction
from math import lcm
from operator import itemgetter

import pytest

from liepoisson import structure
from liepoisson.liealg import LieAlgebra, builtin
from liepoisson.linalg import RowBasis
from liepoisson.orbit import casimir_orbit, make_orbit
from liepoisson.poisson import PoissonContext
from liepoisson.poly import FIELD_BITS, Polynomial, monomials_of_degree, parse_polynomial, unpack
from liepoisson.structure import (
    Membership,
    Span,
    VerificationReport,
    _bracket_closed,
    _bracket_sources,
    _free_degree_split,
    _ideal_truncation,
    _polynomials,
    derived_membership,
    derived_span,
    ideal_square_check,
    invariants_basis,
    nonexactness_check,
    poisson_ideal_closure,
    simplicity_probe,
    verify_heisenberg,
    verify_homogeneous_ideals,
    verify_prop1,
    verify_thm2,
)

from oracles import (
    divides,
    division_normal_form,
    graded_component,
    graded_lex_key,
    kernel_basis,
    leibniz_bracket,
    nonzero_random_polynomial,
    rref,
    rref_rank,
    terms_mul,
)
from test_higher_rank import PROP1_CASES, borel
from test_poisson import SCALED_SL2R

SL2R = builtin("sl2r")
SO3 = builtin("so3")
FREE_SL2R = PoissonContext.free(SL2R)


def sl2(text):
    return parse_polynomial(text, SL2R.names)


def oracle_bracket_operator(algebra, mons):
    """The generator-bracket operators on the span of ``mons``, stacked.

    Assembled with the recursive-Leibniz bracket, independently of the
    package's span machinery; ``mons`` must be every monomial of one degree.
    """
    index = {m: i for i, m in enumerate(mons)}
    stacked = []
    for i in range(algebra.dim):
        gen = algebra.variable(i)
        block = [[Fraction(0)] * len(mons) for _ in mons]
        for col, m in enumerate(mons):
            image = leibniz_bracket(algebra, gen, Polynomial.monomial(algebra.dim, m))
            for mm, c in image.terms.items():
                block[index[mm]][col] = c
        stacked.extend(block)
    return stacked


def oracle_invariant_dimension(algebra, degree):
    """Kernel dimension of the stacked operators, by plain rational elimination."""
    mons = monomials_of_degree(algebra.dim, degree)
    return len(mons) - rref_rank(oracle_bracket_operator(algebra, mons))


def oracle_invariants(algebra, mons):
    """Reduced echelon basis, in the order of ``mons``, of the oracle kernel
    of the stacked operators, read as polynomials."""
    echelon, _ = rref(kernel_basis(oracle_bracket_operator(algebra, mons)))
    return [Polynomial(algebra.dim, {m: c for m, c in zip(mons, row) if c}) for row in echelon]


def oracle_linear_bracket_span_rank(algebra, degree):
    """Rank of the degree slice of brackets with linear generators."""
    mons = monomials_of_degree(algebra.dim, degree)
    index = {m: i for i, m in enumerate(mons)}
    rows = []
    for i in range(algebra.dim):
        gen = algebra.variable(i)
        for m in mons:
            image = leibniz_bracket(algebra, gen, Polynomial.monomial(algebra.dim, m))
            row = [Fraction(0)] * len(mons)
            for mm, c in image.terms.items():
                row[index[mm]] = c
            rows.append(row)
    return rref_rank(rows) if rows else 0


def test_invariants_of_sl2r_degree2_is_the_casimir_line():
    sub = invariants_basis(SL2R, 2)
    assert sub.rank == 1
    q = sl2("x^2 + y^2 - z^2")
    assert sub.contains(q)
    for i in range(3):
        assert FREE_SL2R.bracket(q, SL2R.variable(i)) == Polynomial.zero(3)


def test_invariants_degree3_empty_and_degree0_constants():
    assert invariants_basis(SL2R, 3).rank == 0
    assert invariants_basis(SL2R, 0).rank == 1


@pytest.mark.parametrize("algebra", [SL2R, SO3])
def test_invariant_dimensions_match_oracle(algebra):
    got = [invariants_basis(algebra, n).rank for n in range(5)]
    expected = [oracle_invariant_dimension(algebra, n) for n in range(5)]
    assert got == expected == [1, 0, 1, 0, 1]


def test_derived_span_ranks_match_oracle():
    assert derived_span(FREE_SL2R, 2, 3).rank == oracle_linear_bracket_span_rank(SL2R, 2) == 5
    assert derived_span(FREE_SL2R, 0, 1).rank == 0
    H = builtin("heisenberg", 1)
    ctx = casimir_orbit(H, 1).context
    sub = derived_span(ctx, 0, 1)
    assert sub.rank == 1
    assert sub.contains(Polynomial.constant(3, 1))


def test_derived_span_monotone_in_source_bound():
    ctx = casimir_orbit(SL2R, 1).context
    previous = None
    for bound in range(2, 6):
        sub = derived_span(ctx, 2, bound)
        if previous is not None:
            assert sub.rank >= previous.rank
            for p in previous.basis():
                assert sub.contains(p)
        previous = sub


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(m, 5) if m + n <= 6])
def test_pair_span_equals_linear_span_degreewise(m, n):
    # brackets of degree-m with degree-n elements span no more than brackets
    # of generators with degree-(m+n-1) elements, and the splitting forces equality
    degree = m + n - 1
    mons = monomials_of_degree(3, degree)
    index = {mm: i for i, mm in enumerate(mons)}

    def vec(p):
        return [(index[unpack(mm, 3)], a) for mm, a in p.num.items()]

    pair_rows = RowBasis(len(mons))
    for ma in monomials_of_degree(3, m):
        for mb in monomials_of_degree(3, n):
            br = FREE_SL2R.bracket(Polynomial.monomial(3, ma), Polynomial.monomial(3, mb))
            if br:
                pair_rows.insert(vec(br))
    linear_rows = RowBasis(len(mons))
    for i in range(3):
        for mb in monomials_of_degree(3, degree):
            br = FREE_SL2R.bracket(SL2R.variable(i), Polynomial.monomial(3, mb))
            if br:
                linear_rows.insert(vec(br))
    assert pair_rows.reduced_rows() == linear_rows.reduced_rows()


def _heisenberg_orbit(relation):
    H = builtin("heisenberg", 1)
    return make_orbit(H, parse_polynomial(relation, H.names))


SPAN_CONTEXTS = {
    "free-sl2r": lambda: FREE_SL2R,
    "sl2r-hyperboloid": lambda: casimir_orbit(SL2R, 1).context,
    "sl2r-cone": lambda: casimir_orbit(SL2R, 0).context,
    "so3-sphere": lambda: casimir_orbit(SO3, 1).context,
    "heisenberg-z-1": lambda: _heisenberg_orbit("z - 1").context,  # z is not a normal monomial
    "heisenberg-z2-1": lambda: _heisenberg_orbit("z^2 - 1").context,
}


@pytest.mark.parametrize("name", SPAN_CONTEXTS)
def test_pair_span_equals_bracket_sources_per_bound(name):
    # {f, g} = sum_i {x_i, g df/dx_i}, modulo the Poisson ideal on an orbit:
    # every monomial pair of bound deg a + deg b - 1 <= B, normal or not,
    # spans what the sources {x_i, m} with deg m <= B span
    ctx = SPAN_CONTEXTS[name]()
    top, n = 5, ctx.nvars

    def reduced(p):
        return division_normal_form(p, ctx.ideal.relation) if ctx.is_quotient else p

    mons = [m for d in range(top + 1) for m in monomials_of_degree(n, d)]
    index = {m: i for i, m in enumerate(mons)}
    pairs = [
        (sum(a) + sum(b) - 1, reduced(leibniz_bracket(ctx.algebra, Polynomial.monomial(n, a),
                                                      Polynomial.monomial(n, b))))
        for a in mons for b in mons if sum(a) and sum(b) and sum(a) + sum(b) - 1 <= top
    ]

    def row_span(terms):
        rows = RowBasis(len(mons))
        for t in terms:
            scale = lcm(*(c.denominator for c in t.values()))
            rows.insert([(index[m], int(c * scale)) for m, c in t.items()])
        return rows.reduced_rows()

    # the sources are exactly the {x_i, m} over every generator x_i and
    # normal m, as numerators; mapped through the rows of the normal
    # monomials up to the top bound, the nonzero ones are the normal forms up
    # to a nonzero factor, so the terms are compared over their first
    # coefficient
    def key(bound, terms):
        items = sorted(terms.items())
        return bound, tuple((m, c / items[0][1]) for m, c in items)

    span = Span(ctx.basis_monomials_up_to(top), n)

    def source_terms(row):
        return {unpack(span.monomials[c], n): Fraction(a) for c, a in row.items()}

    normal = [m for m in mons if reduced(Polynomial.monomial(n, m)) == Polynomial.monomial(n, m)]
    assert [unpack(m, n) for m in span.monomials] == sorted(normal, key=graded_lex_key, reverse=True)
    expected = Counter()
    for m in (m for m in normal if sum(m)):
        for i in range(n):
            br = reduced(leibniz_bracket(ctx.algebra, ctx.algebra.variable(i), Polynomial.monomial(n, m)))
            if br:
                expected[key(sum(m), br.terms)] += 1

    def rows(bound):
        return [(b, row) for b, num in _bracket_sources(ctx, bound) if (row := span.row(num))]

    all_sources = rows(top)
    assert Counter(key(b, source_terms(row)) for b, row in all_sources) == expected
    for bound in range(top + 1):
        sources = rows(bound)
        assert sources == [s for s in all_sources if s[0] <= bound]
        assert all(row and all(type(a) is int and a for a in row.values()) for _, row in sources)
        assert row_span(source_terms(row) for _, row in sources) == row_span(
            br.terms for b, br in pairs if b <= bound
        )


def oracle_filtered_split(ctx, top):
    """(|P_b|, rank B_b, whether 1 is in B_b) for b = 1..top, where P_b is
    spanned by the normal monomials of degree at most b and B_b by the
    normal forms of {x_i, m} for every generator x_i and normal monomial m
    with 1 <= deg m <= b: recursive Leibniz brackets, one-divisor division
    and plain rational elimination, grown one bound at a time."""
    n, algebra = ctx.nvars, ctx.algebra

    def nf(p):
        return division_normal_form(p, ctx.ideal.relation)

    mons = [m for d in range(top + 1) for m in monomials_of_degree(n, d)
            if nf(Polynomial.monomial(n, m)) == Polynomial.monomial(n, m)]
    index = {m: c for c, m in enumerate(mons)}
    one = [Fraction(int(not any(m))) for m in mons]
    rows, out = [], []
    for b in range(1, top + 1):
        for m in (m for m in mons if sum(m) == b):
            for i in range(n):
                row = [Fraction(0)] * len(mons)
                for mm, c in nf(leibniz_bracket(algebra, algebra.variable(i), Polynomial.monomial(n, m))).terms.items():
                    row[index[mm]] = c
                rows.append(row)
        reduced, pivots = rref(rows)
        rows = reduced[: len(pivots)]
        out.append((sum(1 for m in mons if sum(m) <= b), len(pivots), rref_rank(rows + [one]) == len(pivots)))
    return out


def filtered_split(ctx, top):
    """(|P_b|, rank B_b, whether 1 is in B_b) for b = 1..top, with B_b grown
    in bound order from the sources of _bracket_sources as rows of the span."""
    span = Span(ctx.basis_monomials_up_to(top), ctx.nvars, full=True)
    out = []
    for b, group in groupby(_bracket_sources(ctx, top), key=itemgetter(0)):
        for _, num in group:
            if row := span.row(num):
                span.rows._add(row)
        out.append((len(ctx.basis_monomials_up_to(b)), span.rank, span.contains(Polynomial.constant(ctx.nvars, 1))))
    return out


@pytest.mark.parametrize(
    "algebra,level", [(SL2R, 1), (SL2R, -1), (SL2R, 0), (SL2R, 2), (SO3, 1)],
    ids=["sl2r-1", "sl2r-minus-1", "sl2r-0", "sl2r-2", "so3-1"],
)
def test_filtered_split_of_the_orbit(algebra, level):
    # The finite form of P(O) = center + {P, P} on a semisimple orbit:
    # P_b = Q*1 + B_b, that is rank B_b = |P_b| - 1 with 1 outside B_b, at
    # every bound b, with B_b grown in bound order (not B_top meet P_b: the
    # relation lowers degrees)
    ctx = casimir_orbit(algebra, level).context
    split = filtered_split(ctx, 8)
    assert split == oracle_filtered_split(ctx, 8)
    assert [(rank, member) for _, rank, member in split] == [(size - 1, False) for size, _, _ in split]


def test_filtered_split_fails_on_the_heisenberg_orbit():
    # the paper's counterexample from the same check: 1 = {q, p} on z = 1
    ctx = casimir_orbit(builtin("heisenberg", 1), 1).context
    assert filtered_split(ctx, 1)[0][2] is oracle_filtered_split(ctx, 1)[0][2] is True


FREE_SPLIT_ALGEBRAS = {
    "sl2r": SL2R,
    "so3": SO3,
    "heisenberg1": builtin("heisenberg", 1),
    "heisenberg2": builtin("heisenberg", 2),
    "scaled-sl2r": SCALED_SL2R,
    # the rotated sl2r of the benchmark's seed 0, e'_1 = e_1 - e_2,
    # e'_2 = e_2 + e_3, e'_3 = e_3: every structure constant is nonzero
    "shear-sl2r": LieAlgebra(
        ("u", "v", "w"),
        {(0, 1): {0: -1, 1: -2, 2: 1}, (0, 2): {0: -1, 1: -2, 2: 2}, (1, 2): {0: 1, 1: 1, 2: -1}},
        "shear-sl2r",
    ),
    # D = 0: every operator row pivots in the identity block, so the center
    # is the whole slice and the derived slice is zero
    "abelian2": LieAlgebra(("a", "b"), {}, "abelian2"),
}


@pytest.mark.parametrize("name", FREE_SPLIT_ALGEBRAS)
def test_free_degree_split_matches_derived_span_and_oracle(name):
    algebra = FREE_SPLIT_ALGEBRAS[name]
    ctx = PoissonContext.free(algebra)
    for n in range(7):
        center, derived = _free_degree_split(ctx, n)
        assert derived.basis() == derived_span(ctx, n, n + 1).basis()
        if len(center.monomials) <= 70:  # the dense oracle is slow beyond this
            assert center.basis() == oracle_invariants(algebra, [unpack(m, algebra.dim) for m in center.monomials])


@pytest.mark.parametrize("name", SPAN_CONTEXTS)
def test_span_basis_is_the_reduced_echelon_rows(name):
    # the polynomial basis and the dense reduced rows are two renderings of
    # the same back-substitution
    ctx = SPAN_CONTEXTS[name]()
    for degree in range(4):
        span = derived_span(ctx, degree, degree + 1)
        dense = [
            Polynomial(ctx.nvars, {unpack(m, ctx.nvars): c for m, c in zip(span.monomials, row) if c})
            for row in span.rows.reduced_rows()
        ]
        assert span.basis() == dense
        assert len(dense) == span.rank


PROP1_SL2R_DIMS = [
    (0, 1, 1, 0),
    (1, 3, 0, 3),
    (2, 6, 1, 5),
    (3, 10, 0, 10),
    (4, 15, 1, 14),
]


@pytest.mark.parametrize("algebra", [SL2R, SO3])
def test_prop1_dimension_table(algebra):
    report = verify_prop1(algebra, 4)
    assert report.verdict == "pass"
    got = [
        (r["degree"], r["dims"]["ambient"], r["dims"]["center"], r["dims"]["derived"])
        for r in report.records
    ]
    assert got == PROP1_SL2R_DIMS
    for r in report.records:
        assert r["dims"]["union"] == r["dims"]["ambient"]


def test_prop1_fails_for_heisenberg():
    report = verify_prop1(builtin("heisenberg", 1), 2)
    assert report.verdict == "fail"
    assert report.notes
    by_degree = {r["degree"]: r for r in report.records}
    assert by_degree[0]["verdict"] == "pass"
    assert by_degree[1]["verdict"] == "fail"
    assert by_degree[1]["witness"] == "z"


def zassenhaus_prop1_records(algebra, max_degree):
    """prop1's records with every union and overlap witness from one
    Zassenhaus elimination, over a semi-reduced derived span filled from
    the top monomial down."""
    ctx = PoissonContext.free(algebra)
    records = []
    for n in range(max_degree + 1):
        center, _ = _free_degree_split(ctx, n)
        derived = Span(center.monomials, ctx.nvars)
        for m in center.monomials:
            for num in ctx.ad_numerators(m):
                derived.insert(Polynomial.from_numerators(ctx.nvars, num, 1))
        union, overlap = center.rows.sum_and_intersection(derived.rows)
        ambient = len(center.monomials)
        ok = center.rank + derived.rank == ambient == union
        record = {
            "degree": n,
            "dims": {"ambient": ambient, "center": center.rank, "derived": derived.rank, "union": union},
            "verdict": "pass" if ok else "fail",
        }
        if not ok and overlap.rank:
            record["witness"] = ctx.format(_polynomials(ctx.nvars, center.monomials, overlap)[0])
        records.append(record)
    return records


# name: (builder, max degree); the top-down semi-reduced span cascades on
# sl4 and the eight-operation sl3 at degree 5 (2-4 s each), so those stop at 4
UNION_CASES = {
    **{name: (build, min(d, 4) if name in ("sl4", "sl3-eight-operations") else d)
       for name, (build, _, d) in PROP1_CASES.items()},
    "borel-sl3": (lambda: borel(3), 3),
    "borel-sl4": (lambda: borel(4), 3),
    **{f"heisenberg{n}": (lambda n=n: builtin("heisenberg", n), 6) for n in (1, 2, 3)},
    "shear-sl2r": (lambda: FREE_SPLIT_ALGEBRAS["shear-sl2r"], 9),
}


@pytest.mark.parametrize("name", UNION_CASES)
def test_prop1_union_by_reduction_matches_zassenhaus(name):
    # verify_prop1 decides each union from the center rows' residuals modulo
    # the fully reduced derived span and runs Zassenhaus only for a witness
    build, max_degree = UNION_CASES[name]
    algebra = build()
    assert verify_prop1(algebra, max_degree).records == zassenhaus_prop1_records(algebra, max_degree)


def test_membership_on_the_hyperboloid():
    ctx = casimir_orbit(SL2R, 1).context
    one = Polynomial.constant(3, 1)
    for bound in range(4):
        assert derived_membership(ctx, one, bound) is Membership.NOT_IN_SPAN_AT_BOUND
    assert derived_membership(ctx, sl2("x"), 3) is Membership.IN_SPAN


def test_membership_on_the_heisenberg_orbit():
    H = builtin("heisenberg", 1)
    ctx = casimir_orbit(H, 1).context
    assert derived_membership(ctx, Polynomial.constant(3, 1), 2) is Membership.IN_SPAN


def test_pure_squares_split_off_a_constant():
    # x^2 - 1/3 is a bracket combination on the hyperboloid but x^2 is not:
    # admitting x^2 would put the constant 1/3 in the bracket span
    ctx = casimir_orbit(SL2R, 1).context
    assert derived_membership(ctx, sl2("x^2") - Fraction(1, 3), 5) is Membership.IN_SPAN
    assert derived_membership(ctx, sl2("x^2"), 5) is Membership.NOT_IN_SPAN_AT_BOUND


def test_verify_thm2_two_sided():
    report = verify_thm2(casimir_orbit(SL2R, 1), 4)
    assert report.verdict == "pass"
    kinds = {r["check"] for r in report.records}
    assert kinds == {"constants", "monomial"}


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_verify_thm2_small_bounds_cap_the_monomial_degree(bound):
    report = verify_thm2(casimir_orbit(SL2R, 1), bound)
    assert report.verdict == "pass"
    assert report.params["monomial_degree_cap"] == bound
    assert max((r["degree"] for r in report.records if r["check"] == "monomial"), default=0) == bound


@pytest.mark.parametrize(
    "orbit",
    [
        casimir_orbit(SL2R, 1),
        casimir_orbit(SO3, 2),
        _heisenberg_orbit("z - 1"),  # 1 = {q, p} enters at bound 1
        _heisenberg_orbit("z^2 - 1"),  # 1 = {q, p*z} enters at bound 2
    ],
    ids=["sl2r-hyperboloid", "so3-sphere", "heisenberg-z-1", "heisenberg-z2-1"],
)
def test_thm2_ladder_matches_derived_membership(orbit):
    one = Polynomial.constant(orbit.context.nvars, 1)
    report = verify_thm2(orbit, 4)
    ladder = [r["membership"] for r in report.records if r["check"] == "constants"]
    assert ladder == [derived_membership(orbit.context, one, b).value for b in range(5)]


def test_verify_heisenberg_counterexample():
    report = verify_heisenberg(casimir_orbit(builtin("heisenberg", 1), 1), 2)
    assert report.verdict == "pass"


def test_verify_heisenberg_rejects_bound_0():
    # bound 0 has no bracket sources, so a fail there would only restate the bound
    orbit = casimir_orbit(builtin("heisenberg", 1), 1)
    with pytest.raises(ValueError, match="--max-degree must be at least 1"):
        verify_heisenberg(orbit, 0)
    assert verify_heisenberg(orbit, 1).verdict == "pass"


def test_closure_reaches_one_on_the_hyperboloid():
    orbit = casimir_orbit(SL2R, 1)
    closure = poisson_ideal_closure(orbit.context, [SL2R.variable(2)], 3)
    assert closure.contains(Polynomial.constant(3, 1))
    assert closure.rank == len(closure.monomials)
    assert closure.contains(sl2("y")) and closure.contains(sl2("x"))  # picked up via brackets with z


def test_closure_on_the_cone_is_the_positive_degree_subspace():
    orbit = casimir_orbit(SL2R, 0)
    closure = poisson_ideal_closure(orbit.context, [SL2R.variable(2)], 5)
    assert not closure.contains(Polynomial.constant(3, 1))
    assert closure.rank == len(closure.monomials) - 1
    assert (0, 0, 0) in [unpack(m, 3) for m in closure.monomials]
    assert all((0, 0, 0) not in p.terms for p in closure.basis())
    assert closure.is_graded()


def test_closure_of_shifted_casimir_is_its_multiples():
    q = sl2("x^2 + y^2 - z^2")
    closure = poisson_ideal_closure(FREE_SL2R, [q - 1], 4)
    # multiples m*(q-1) with deg m <= 2: exactly the 10 monomial multipliers
    assert closure.rank == 10
    assert closure.contains(q - 1)
    assert closure.contains((q - 1) * sl2("x"))
    assert not closure.contains(Polynomial.constant(3, 1))
    assert closure.rank < len(closure.monomials)
    assert not closure.is_graded()


def _dense_rows(polys, monomials):
    """Dense ``Fraction`` rows of polynomials in x, y, z over monomial keys."""
    index = {unpack(m, 3): i for i, m in enumerate(monomials)}
    out = []
    for p in polys:
        row = [Fraction(0)] * len(index)
        for m, c in p.terms.items():
            row[index[m]] = c
        out.append(row)
    return out


def _oracle_is_graded(span):
    """dim V == sum over d of dim pi_d(V), on dense rows of a spanning set."""
    spanning = span.basis()
    degrees = {sum(unpack(m, 3)) for m in span.monomials}
    components = sum(rref_rank(_dense_rows([graded_component(p, d) for p in spanning], span.monomials))
                     for d in degrees)
    return rref_rank(_dense_rows(spanning, span.monomials)) == components


def _span_of(polys, bound):
    span = Span(FREE_SL2R.basis_monomials_up_to(bound), 3)
    for p in polys:
        span.insert(p)
    return span


def _seeded_span(seed, graded):
    """Seeded homogeneous polynomials of degree at most 3 and sums of two of
    them of different degrees, inserted in a seeded order.  The span that is
    not graded also gets a*u + b*v for a linear u and a cubic v that no other
    polynomial has, so its linear part a*u is in no combination of them."""
    rng = random.Random(f"graded-{seed}")
    lone = (rng.choice(monomials_of_degree(3, 1)), rng.choice(monomials_of_degree(3, 3)))
    homogeneous = []
    for _ in range(rng.randint(2, 5)):
        support = [m for m in monomials_of_degree(3, rng.randint(0, 3)) if m not in lone]
        chosen = rng.sample(support, min(len(support), rng.randint(1, 3)))
        homogeneous.append(Polynomial(3, {m: rng.choice([-2, -1, 1, 3]) for m in chosen}))
    polys = homogeneous + [f + g for f in homogeneous for g in homogeneous if f.degree() < g.degree()][:3]
    if not graded:
        polys.append(Polynomial(3, {lone[0]: rng.choice([-1, 2]), lone[1]: rng.choice([1, 3])}))
    rng.shuffle(polys)
    return _span_of(polys, 3)


SEEDED_SPANS = [(seed, graded) for seed in range(4) for graded in (True, False)]


@pytest.mark.parametrize(
    "build,graded",
    [
        (lambda: _span_of([sl2("x + y^2"), sl2("y^2")], 2), True),
        (lambda: _span_of([sl2("x + y^2")], 2), False),
        (lambda: _span_of([], 2), True),
        (lambda: poisson_ideal_closure(casimir_orbit(SL2R, 0).context, [SL2R.variable(2)], 5), True),
        (lambda: poisson_ideal_closure(FREE_SL2R, [sl2("x^2 + y^2 - z^2 - 1")], 4), False),
        *[(lambda seed=seed, graded=graded: _seeded_span(seed, graded), graded) for seed, graded in SEEDED_SPANS],
    ],
    ids=["x+y2-and-y2", "x+y2", "empty", "cone-closure-z-5", "shifted-casimir-4",
         *[f"seeded-{seed}-{'graded' if graded else 'not-graded'}" for seed, graded in SEEDED_SPANS]],
)
def test_span_is_graded_matches_the_component_rank_oracle(build, graded):
    span = build()
    assert span.is_graded() is graded
    assert _oracle_is_graded(span) is graded


def _cone_ideal_closure(bound):
    # the ideal verify_homogeneous_ideals checks at k = 1
    ctx = casimir_orbit(SL2R, 0).context
    gens = [ctx.monomial(m) for d in range(1, bound + 1) for m in ctx.basis_monomials(d)]
    return ctx, poisson_ideal_closure(ctx, gens, bound)


def _probe_closure(bound):
    ctx = casimir_orbit(SL2R, 1).context
    return ctx, poisson_ideal_closure(ctx, [sl2("x + y")], bound)


@pytest.mark.parametrize("build", [_probe_closure, _cone_ideal_closure], ids=["probe", "cone"])
def test_closure_is_closed_under_every_move(build):
    bound = 5
    ctx, closure = build(bound)
    for e in closure.basis():
        for i in range(3):
            gen = SL2R.variable(i)
            assert closure.contains(ctx.bracket(gen, e))
            if e.degree() + 1 <= bound:
                assert closure.contains(ctx.reduce(gen * e))


CLOSURE_CONTEXTS = {
    "free": (FREE_SL2R, None),
    **{f"level{c}": (casimir_orbit(SL2R, c).context, sl2("x^2 + y^2 - z^2") - c) for c in (1, 0, -1)},
}


@pytest.mark.parametrize("name", list(CLOSURE_CONTEXTS))
def test_closure_is_closed_against_the_oracles(name):
    # Each closure is checked with the recursive Leibniz bracket, the
    # division normal form and plain rational elimination: every reduced
    # echelon row's bracket with each x_i lies in the span, and so does
    # x_i times the row when the row is below the bound.  A closure that
    # multiplied only the elements it admitted failed this on such samples.
    ctx, relation = CLOSURE_CONTEXTS[name]
    nf = (lambda p: p) if relation is None else (lambda p: division_normal_form(p, relation))
    rng = random.Random(f"closure-{name}")
    one = Polynomial.constant(3, 1)
    for _ in range(25):
        bound, count = rng.randint(2, 5), rng.randint(1, 3)
        gens = []
        while len(gens) < count:
            g = nf(nonzero_random_polynomial(rng, 3, 2, max_terms=3))
            if g:
                gens.append(g)
        closure = poisson_ideal_closure(ctx, gens, bound)
        basis = closure.basis()
        images = list(gens)
        for e in basis:
            for i in range(3):
                x = SL2R.variable(i)
                images.append(nf(leibniz_bracket(SL2R, x, e)))
                if e.degree() < bound:
                    images.append(nf(Polynomial(3, terms_mul(x.terms, e.terms))))
        rows = _dense_rows(basis, closure.monomials)
        assert rref_rank(rows) == closure.rank
        if closure.rank < len(closure.monomials):  # else the rank alone shows it is everything
            assert rref_rank(rows + _dense_rows(images, closure.monomials)) == closure.rank
        if closure.contains(one):
            assert closure.rank == len(closure.monomials)
        if len(gens) > 1:
            swapped = [gens[1], gens[0], *gens[2:]]
            assert poisson_ideal_closure(ctx, swapped, bound).rank == closure.rank


def test_closure_stops_once_it_holds_one(monkeypatch):
    # -x+2*y+z holds 1 after the same few admitted rows at every bound, and
    # then the closure is everything; a closure that went on moving every
    # stored row made 133 inserts at bound 7 and 4,342 at bound 30.
    ctx = casimir_orbit(SL2R, 1).context
    add, calls = RowBasis._add, []
    monkeypatch.setattr(RowBasis, "_add", lambda self, row: calls.append(row) or add(self, row))
    counts = []
    for bound in (7, 30):
        calls.clear()
        closure = poisson_ideal_closure(ctx, [sl2("-x + 2*y + z")], bound)
        assert closure.rank == len(closure.monomials)
        counts.append(len(calls))
    assert counts[1] == counts[0]


def oracle_fixed_point_closure(algebra, relation, gens, bound):
    """Rank, whether it holds 1, and whether it is graded, of the closure at
    the bound on the orbit of ``relation``, by rounds of dense rational
    elimination until the rank stops growing: each round adds, for every
    reduced echelon element e, the Leibniz bracket {x_i, e} and, when
    deg e < bound, x_i * e, both in division normal form.  The columns are
    the normal monomials, highest degree first, so the elements of degree
    below the bound span the part of the span below it."""
    n = algebra.dim
    lead = max(relation.terms, key=graded_lex_key)
    columns = [m for d in range(bound, -1, -1) for m in monomials_of_degree(n, d) if not divides(lead, m)]
    index = {m: j for j, m in enumerate(columns)}

    def dense(polys):
        rows = []
        for p in polys:
            row = [Fraction(0)] * len(columns)
            for m, c in p.terms.items():
                row[index[m]] = c
            rows.append(row)
        return rows

    rows, rank = dense(gens), None
    while True:
        reduced, pivots = rref(rows)
        if len(pivots) == rank:
            break
        rank = len(pivots)
        basis = [Polynomial(n, {columns[j]: c for j, c in enumerate(row) if c}) for row in reduced[:rank]]
        if rank == len(columns):  # no move can add to everything
            break
        images = []
        for e in basis:
            for i in range(n):
                x = algebra.variable(i)
                images.append(division_normal_form(leibniz_bracket(algebra, x, e), relation))
                if e.degree() < bound:
                    images.append(division_normal_form(Polynomial(n, terms_mul(x.terms, e.terms)), relation))
        rows = dense(basis + [p for p in images if p])
    contains_one = rref_rank(dense(basis + [Polynomial.constant(n, 1)])) == rank
    components = sum(rref_rank(dense([graded_component(e, d) for e in basis])) for d in range(bound + 1))
    return rank, contains_one, components == rank


@pytest.mark.parametrize("algebra,level", [(SL2R, 1), (SL2R, -1), (SL2R, 2), (SO3, 1)],
                         ids=["sl2r-1", "sl2r--1", "sl2r-2", "so3-1"])
def test_closure_matches_a_fixed_point_that_never_stops_early(algebra, level):
    # Seeded generators of degree up to the bound, and a seeded monomial of
    # the bound's degree, whose closure can stay proper at a low bound.
    ctx = casimir_orbit(algebra, level).context
    relation = ctx.ideal.relation
    rng = random.Random(f"fixed-point-{algebra.name}-{level}")
    one = Polynomial.constant(3, 1)
    for bound in range(2, 7):
        gens, count = [], rng.randint(1, 2)
        while len(gens) < count:
            g = nonzero_random_polynomial(rng, 3, rng.randint(1, bound), max_terms=3)
            if g := division_normal_form(g, relation):
                gens.append(g)
        for trial in (gens, [ctx.monomial(rng.choice(ctx.basis_monomials(bound)))]):
            closure = poisson_ideal_closure(ctx, trial, bound)
            found = (closure.rank, closure.contains(one), closure.is_graded())
            assert found == oracle_fixed_point_closure(algebra, relation, trial, bound)


def _insert_outside_support_raises(span):
    with pytest.raises(ValueError):
        span.insert(sl2("z^3"))
    return True


@pytest.mark.parametrize(
    "check",
    [
        lambda span: not span.contains(sl2("x + y^2 + z^3")),
        _insert_outside_support_raises,
        lambda span: not span.insert(Polynomial.zero(3)),
        lambda span: not span.insert(Fraction(-3, 7) * sl2("x + y^2")),
    ],
    ids=["contains-outside-support", "insert-outside-support", "insert-zero", "insert-multiple"],
)
def test_span_edge_cases(check):
    span = Span(FREE_SL2R.basis_monomials_up_to(2), 3)
    assert span.insert(sl2("x + y^2"))
    assert check(span)
    assert span.rank == 1


def test_span_membership_is_the_same_for_a_rational_multiple():
    # Span.row takes p's integer numerators, which for c*p are another
    # multiple of the same coefficient vector (2*x + 4*y: 2, 4 over 1; times
    # 3/7: 6, 12 over 7)
    c = Fraction(3, 7)
    a, b = sl2("2*x + 4*y"), sl2("1/2*x^2 - 2/3*y*z + 5")
    span, scaled = Span(FREE_SL2R.basis_monomials_up_to(2), 3), Span(FREE_SL2R.basis_monomials_up_to(2), 3)
    for q in (a, b):
        span.insert(q)
        scaled.insert(c * q)
    assert scaled.basis() == span.basis()
    candidates = [(a, True), (b, True), (a - Fraction(5, 3) * b, True), (sl2("x^2"), False), (a + sl2("z"), False)]
    for q, member in candidates:
        assert span.contains(q) is member
        assert span.contains(c * q) is member


@pytest.mark.parametrize(
    "build",
    [
        lambda: derived_span(FREE_SL2R, 2, 3),
        lambda: poisson_ideal_closure(FREE_SL2R, [sl2("x + y^2")], 2),
    ],
    ids=["graded-subspace", "closure"],
)
def test_result_contains_edge_cases(build):
    result = build()
    assert not result.contains(sl2("x + y^2 + z^3"))
    assert result.contains(Polynomial.zero(3))


def test_bracket_closure_witness_names_the_failing_bracket():
    # {y, x} = z leaves the span of x, the only multiple at bound 1
    span, elements = _ideal_truncation(FREE_SL2R, [sl2("x")], 1)
    assert _bracket_closed(FREE_SL2R, span, elements) == (False, "{y, 1*(x)}")


@pytest.mark.parametrize(
    "check,name",
    [
        (lambda orbit: verify_prop1(SL2R, -1), "max_degree"),
        (lambda orbit: verify_thm2(orbit, -1), "max_bound"),
        (lambda orbit: nonexactness_check(orbit, -1), "degree_bound"),
    ],
    ids=["prop1", "thm2", "nonexact"],
)
def test_negative_bound_is_refused_not_passed(check, name):
    # a negative bound leaves no degree to check, so a report would pass vacuously
    with pytest.raises(ValueError, match=f"the bound {name} must be non-negative, got -1"):
        check(casimir_orbit(SL2R, 1))


def test_closure_input_validation():
    with pytest.raises(ValueError, match="at least one generator"):
        poisson_ideal_closure(FREE_SL2R, [], 3)
    with pytest.raises(ValueError, match="generator 0 is zero"):
        poisson_ideal_closure(FREE_SL2R, [Polynomial.zero(3)], 3)
    with pytest.raises(ValueError, match=r"generator x\^2 of degree 2 exceeds the bound 1"):
        poisson_ideal_closure(FREE_SL2R, [sl2("x^2")], 1)
    orbit = casimir_orbit(SL2R, 1)
    with pytest.raises(ValueError, match="is zero in the context"):
        poisson_ideal_closure(orbit.context, [orbit.context.ideal.relation], 3)  # reduces to zero


def test_simplicity_probe_semisimple_orbit():
    orbit = casimir_orbit(SL2R, 1)
    trials = [sl2("x"), sl2("z"), sl2("x + y")]
    report = simplicity_probe(orbit, trials, 4)
    assert report.verdict == "pass"
    assert all(r["contains_one"] for r in report.records)


def test_simplicity_probe_nilpotent_orbit():
    orbit = casimir_orbit(SL2R, 0)
    report = simplicity_probe(orbit, [sl2("z")], 4)
    assert report.verdict == "pass"
    summary = report.records[-1]
    assert summary["check"] == "exists_proper_closure"
    assert summary["found"]


def test_simplicity_probe_heisenberg_orbit_reaches_one():
    H = builtin("heisenberg", 1)
    orbit = casimir_orbit(H, 1)
    report = simplicity_probe(orbit, [H.variable(0)], 3)
    assert report.verdict == "pass"
    assert report.records[0]["contains_one"]
    assert report.notes  # untagged orbit: informational only


def test_simplicity_probe_rejects_constant_generator():
    orbit = casimir_orbit(SL2R, 1)
    with pytest.raises(ValueError):
        simplicity_probe(orbit, [Polynomial.constant(3, 2)], 3)
    with pytest.raises(ValueError):
        # x^2+y^2-z^2 is the constant 1 on this orbit
        simplicity_probe(orbit, [sl2("x^2 + y^2 - z^2")], 3)


def test_homogeneous_ideals_on_the_cone():
    cone = casimir_orbit(SL2R, 0)
    report = verify_homogeneous_ideals(cone, 1, 4)
    assert report.verdict == "pass"
    grading = [r for r in report.records if r["check"] == "bracket_grading"]
    record_22 = next(r for r in grading if r["degrees"] == [2, 2])
    assert record_22["verdict"] == "pass"
    ideal = [r for r in report.records if r["check"] == "ideal"][0]
    assert ideal["proper"] and ideal["graded"] and not ideal["contains_one"]


def test_homogeneous_ideals_name_a_bracket_of_the_wrong_degree(monkeypatch):
    # The real bracket lowers degree by one, so this branch needs a wrong one:
    # every bracket is x, whose degree is right only for two linear operands.
    # The records read the sources {x_i, m} from ad_numerators and search the
    # pairs of a failing record with bracket, so both are replaced.
    cone = casimir_orbit(SL2R, 0)
    monkeypatch.setattr(PoissonContext, "bracket", lambda self, f, g: self.variable(0))
    monkeypatch.setattr(PoissonContext, "ad_numerators", lambda self, m: [dict(self.variable(0).num)] * self.nvars)
    report = verify_homogeneous_ideals(cone, 1, 2)
    grading = [r for r in report.records if r["check"] == "bracket_grading"]
    assert grading[0] == {"check": "bracket_grading", "degrees": [1, 1], "verdict": "pass"}
    assert grading[1] == {"check": "bracket_grading", "degrees": [1, 2], "verdict": "fail",
                          "witness": "{z, y*z} = x"}
    assert report.verdict == "fail"


def _grading_records(report):
    return [r for r in report.records if r["check"] == "bracket_grading"]


def _all_pairs_grading(bracket, monomials, degree_bound, format):
    """The bracket_grading records from every monomial pair of each (a, b),
    in the report's order, each failure with its first misgraded pair."""
    records = []
    for a in range(1, degree_bound + 1):
        for b in range(a, degree_bound + 2 - a):
            record = {"check": "bracket_grading", "degrees": [a, b], "verdict": "pass"}
            for pa in monomials[a]:
                bad = next((pb for pb in monomials[b] if (br := bracket(pa, pb))
                            and (not br.is_homogeneous() or br.degree() != a + b - 1)), None)
                if bad is not None:
                    record.update(verdict="fail", witness=f"{{{format(pa)}, {format(bad)}}} = {format(br)}")
                    break
            records.append(record)
    return records


def test_homogeneous_ideals_grading_matches_the_all_pairs_oracle():
    # Records decided from the sources {x_i, m} against every monomial pair,
    # bracketed by the recursive Leibniz oracle and divided by the relation.
    relation = sl2("x^2 + y^2 - z^2")
    lead = max(relation.terms, key=graded_lex_key)
    monomials = {d: [Polynomial.monomial(3, m) for m in sorted(monomials_of_degree(3, d), key=graded_lex_key,
                                                              reverse=True) if not divides(lead, m)]
                 for d in range(1, 10)}
    oracle = _all_pairs_grading(lambda f, g: division_normal_form(leibniz_bracket(SL2R, f, g), relation),
                                monomials, 9, FREE_SL2R.format)
    cone = casimir_orbit(SL2R, 0)
    for bound in range(1, 10):
        expected = [r for r in oracle if sum(r["degrees"]) <= bound + 1]
        for k in (1, 2):
            if k <= bound:
                assert _grading_records(verify_homogeneous_ideals(cone, k, bound)) == expected


def test_homogeneous_ideals_failing_source_gives_the_all_pairs_records():
    # A bracket table whose [x, y] gains the constant 1 (and [y, x] its
    # negative) adds a term one degree low to every {x, m} with y in m, so
    # every record fails, and those with a > 1 search their pairs for the
    # witness the all-pairs path names.
    cone = casimir_orbit(SL2R, 0)
    ctx = cone.context
    to_one = -(1 + (1 << FIELD_BITS) + (2 << 3 * FIELD_BITS))  # x*y*m to m: two degrees down
    for i, j, c in ((0, 1, 1), (1, 0, -1)):
        ctx._ad[i] = [(jj, [*deltas, (to_one, c)] if jj == j else deltas) for jj, deltas in ctx._ad[i]]
    bound = 4
    report = verify_homogeneous_ideals(cone, 1, bound)
    monomials = {d: [ctx.monomial(m) for m in ctx.basis_monomials(d)] for d in range(1, bound + 1)}
    expected = _all_pairs_grading(ctx.bracket, monomials, bound, ctx.format)
    assert _grading_records(report) == expected
    assert [r["verdict"] for r in expected] == ["fail"] * len(expected)
    assert expected[1]["witness"] == "{y, x*z} = y^2 + 2*x^2 - z"  # {y, x} = z - 1, and z^2 = x^2 + y^2
    assert expected[4] == {"check": "bracket_grading", "degrees": [2, 2], "verdict": "fail",
                           "witness": "{y*z, x*z} = 2*y^2*z + 2*x^2*z - y^2 - x^2"}
    # every degree fails, so the ideal record comes from a closure
    assert report.records[-1] == _closure_ideal_record(ctx, 1, bound)


def _closure_ideal_record(ctx, k, bound):
    """The ideal record from the closure of the monomials of degree k to the bound."""
    gens = [ctx.monomial(m) for d in range(k, bound + 1) for m in ctx.basis_monomials(d)]
    closure = poisson_ideal_closure(ctx, gens, bound)
    contains_one, graded = closure.contains(Polynomial.constant(ctx.nvars, 1)), closure.is_graded()
    proper = closure.rank < len(closure.monomials)
    return {
        "check": "ideal",
        "k": k,
        "dims": {"ambient": len(closure.monomials), "initial": len(gens), "closed": closure.rank},
        "contains_one": contains_one,
        "proper": proper,
        "graded": graded,
        "verdict": "pass" if closure.rank == len(gens) and graded and not contains_one and proper else "fail",
    }


@pytest.mark.parametrize("algebra", [SL2R, SO3], ids=["sl2r", "so3"])
def test_homogeneous_ideals_certified_record_matches_the_closure(algebra, monkeypatch):
    # On a cone no source leaves its degree, so the record is certified
    # from the grading records, without a closure.
    cone = casimir_orbit(algebra, 0)
    records = {}
    with monkeypatch.context() as patch:
        patch.setattr(structure, "poisson_ideal_closure", None)
        for k in (1, 2, 3):
            for bound in range(k, 11):
                records[k, bound] = verify_homogeneous_ideals(cone, k, bound).records[-1]
    for (k, bound), ideal in records.items():
        assert ideal == _closure_ideal_record(cone.context, k, bound)


@pytest.mark.parametrize("algebra", [SL2R, SO3], ids=["sl2r", "so3"])
def test_homogeneous_ideals_build_no_polynomial_when_no_source_fails(algebra, monkeypatch):
    # On a cone no source leaves its degree, so every record is read from
    # the keys of the sources and the monomial counts: no monomial is built
    # as a polynomial, nothing is bracketed and no span is made.
    cone = casimir_orbit(algebra, 0)
    expected = {(k, bound): verify_homogeneous_ideals(cone, k, bound).records for k in (1, 2) for bound in range(k, 9)}

    def refuse(*args):
        raise AssertionError("called on a cone whose sources keep their degrees")

    with monkeypatch.context() as patch:
        patch.setattr(PoissonContext, "monomial", refuse)
        patch.setattr(PoissonContext, "bracket", refuse)
        patch.setattr(structure, "Span", refuse)
        for (k, bound), records in expected.items():
            assert verify_homogeneous_ideals(cone, k, bound).records == records


@pytest.mark.parametrize("nvars", [2, 4])
def test_another_variable_count_is_refused(nvars):
    # In free mode nothing reduces a polynomial, so without the check a span
    # would read another count's keys as its own: x in two variables would
    # miss the bracket span of sl2r at bound 2, though x = {y, z}, and the
    # closure of y would have rank 0 of 20.
    x, y = Polynomial.variable(nvars, 0), Polynomial.variable(nvars, 1)
    span = Span(FREE_SL2R.basis_monomials_up_to(2), 3)
    for ctx in (FREE_SL2R, casimir_orbit(SL2R, 1).context):
        calls = [
            lambda: ctx.reduce(x),
            lambda: derived_membership(ctx, x, 2),
            lambda: poisson_ideal_closure(ctx, [y], 3),
            lambda: ideal_square_check(ctx, [x], 2),
            lambda: span.insert(x),
            lambda: span.contains(x),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="do not match the context's variables"):
                call()
    assert span.rank == 0
    assert derived_membership(FREE_SL2R, SL2R.variable(0), 2) is Membership.IN_SPAN


def test_homogeneous_ideals_rejects_bad_inputs():
    cone = casimir_orbit(SL2R, 0)
    with pytest.raises(ValueError):
        verify_homogeneous_ideals(cone, 0, 4)
    hyp = casimir_orbit(SL2R, 1)
    with pytest.raises(ValueError):
        verify_homogeneous_ideals(hyp, 1, 4)


def test_nonexactness_small_bound():
    report = nonexactness_check(casimir_orbit(SL2R, 1), 2)
    assert report.verdict == "pass"
    ones = [r for r in report.records if r["check"] == "target_one"]
    assert [r["feasible"] for r in ones] == [False, False, False]
    control = [r for r in report.records if r["check"] == "target_zero_control"][0]
    assert control["feasible"]
    assert "witness" in control


def oracle_nonexact_system(orbit, degree):
    """(feasible, unknowns, equations) of 1 = {x,f} + {y,g} + {z,h} with
    deg f, g, h <= ``degree``, assembled densely from the recursive-Leibniz
    bracket and one-divisor division, and decided by rank A = rank [A | b]."""
    ctx = orbit.context

    def nf(p):
        return division_normal_form(p, ctx.ideal.relation)

    def normal(k):
        mons = [unpack(m, 3) for m in FREE_SL2R.basis_monomials_up_to(k)]
        return [m for m in mons if nf(Polynomial.monomial(3, m)) == Polynomial.monomial(3, m)]

    unknowns, equations = normal(degree), normal(degree + 1)
    index = {m: i for i, m in enumerate(equations)}
    columns = []
    for i in range(3):
        for m in unknowns:
            column = [Fraction(0)] * len(equations)
            image = nf(leibniz_bracket(SL2R, SL2R.variable(i), Polynomial.monomial(3, m)))
            for mm, c in image.terms.items():
                column[index[mm]] = c
            columns.append(column)
    a = [list(row) for row in zip(*columns)]
    b = [Fraction(int(m == (0, 0, 0))) for m in equations]
    feasible = rref_rank([[*row, v] for row, v in zip(a, b)]) == rref_rank(a)
    return feasible, 3 * len(unknowns), len(equations)


def test_nonexactness_records_match_a_dense_oracle_system():
    orbit = casimir_orbit(SL2R, 1)
    systems = [oracle_nonexact_system(orbit, d) for d in range(7)]
    for bound in range(7):
        ones = [r for r in nonexactness_check(orbit, bound).records if r["check"] == "target_one"]
        assert [(r["feasible"], r["unknowns"], r["equations"]) for r in ones] == systems[: bound + 1]


def test_nonexactness_requires_the_hyperboloid():
    with pytest.raises(ValueError):
        nonexactness_check(casimir_orbit(SL2R, 0), 2)
    with pytest.raises(ValueError):
        nonexactness_check(casimir_orbit(builtin("so3"), 1), 2)


def test_ideal_square_variable_in_free_algebra():
    report = ideal_square_check(FREE_SL2R, [sl2("x")], 4)
    assert report.verdict == "pass"
    strict = [r for r in report.records if r["check"] == "strict_inclusion"][0]
    assert strict["witness"] == "x"
    closure = [r for r in report.records if r["check"] == "bracket_closure"][0]
    assert not closure["ideal_closed"]  # (x) is not a Lie ideal, so no requirement


def test_ideal_square_positive_degree_ideal_on_cone():
    cone = casimir_orbit(SL2R, 0)
    gens = [SL2R.variable(i) for i in range(3)]
    report = ideal_square_check(cone.context, gens, 4)
    assert report.verdict == "pass"
    dims = [r for r in report.records if r["check"] == "truncation_dims"][0]["dims"]
    # positive-degree and degree->=2 truncations on the cone at degree 4
    assert dims == {"ambient": 25, "ideal": 24, "square": 21}
    closure = [r for r in report.records if r["check"] == "bracket_closure"][0]
    assert closure["ideal_closed"] and closure["square_closed"]


def test_ideal_square_names_a_bracket_that_leaves_the_square(monkeypatch):
    # No small real ideal was found that is bracket-closed at the bound while
    # its square is not, so every bracket is made x: it stays in (x) and
    # leaves (x^2).  The lemma brackets its stored rows through _add_bracket.
    monkeypatch.setattr(PoissonContext, "_add_bracket", lambda self, acc, f, g, s=1: dict(self.variable(0).num))
    report = ideal_square_check(FREE_SL2R, [sl2("x")], 2)
    closure = [r for r in report.records if r["check"] == "bracket_closure"][0]
    assert closure == {"check": "bracket_closure", "ideal_closed": True, "square_closed": False,
                       "required": True, "verdict": "fail", "witness": "{x, 1*(x^2)}"}
    assert report.verdict == "fail"


def test_ideal_square_shifted_casimir():
    q = sl2("x^2 + y^2 - z^2")
    report = ideal_square_check(FREE_SL2R, [q - 1], 4)
    assert report.verdict == "pass"
    closure = [r for r in report.records if r["check"] == "bracket_closure"][0]
    assert closure["ideal_closed"] and closure["square_closed"]


def test_report_serialization_is_deterministic():
    r1 = verify_prop1(SL2R, 2)
    r2 = verify_prop1(SL2R, 2)
    assert r1.to_json() == r2.to_json()
    assert r1.render_text() == r2.render_text()
    assert "overall: pass" in r1.render_text()


def test_report_verdict_follows_records():
    report = VerificationReport("demo", {})
    assert report.verdict == "pass"
    report.records.append({"verdict": "pass"})
    assert report.passed
    report.records.append({"verdict": "fail"})
    assert report.verdict == "fail"

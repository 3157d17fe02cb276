"""Lie-Poisson bracket: anchored values, axioms, and the quotient push-down."""

import itertools
import random
from fractions import Fraction

import pytest

from liepoisson import poisson
from liepoisson.liealg import LieAlgebra, builtin, is_semisimple, killing_form, lie_algebra_from_dict, validate
from liepoisson.orbit import OrbitIdeal, builtin_casimir, casimir_orbit, make_orbit
from liepoisson.poisson import BracketClosureError, PoissonContext, jacobi_defect, leibniz_defect
from liepoisson.poly import EXPONENT_CAP, Polynomial, monomials_of_degree, pack, parse_polynomial, unpack

from oracles import (
    assert_canonical, divides, division_normal_form, graded_lex_key, leibniz_bracket, nonzero_random_polynomial,
    random_polynomial,
)

SL2R = builtin("sl2r")
FREE_SL2R = PoissonContext.free(SL2R)


def sl2(text):
    return parse_polynomial(text, SL2R.names)


def test_linear_brackets_match_structure_constants():
    x, y, z = (SL2R.variable(i) for i in range(3))
    assert FREE_SL2R.bracket(x, y) == sl2("-z")
    assert FREE_SL2R.bracket(y, z) == sl2("x")
    assert FREE_SL2R.bracket(z, x) == sl2("y")


def test_casimir_annihilates_everything():
    q = sl2("x^2 + y^2 - z^2")
    assert FREE_SL2R.bracket(q, sl2("x*y*z")) == Polynomial.zero(3)
    rng = random.Random(23)
    for _ in range(20):
        assert FREE_SL2R.bracket(q, random_polynomial(rng, 3, 3)) == Polynomial.zero(3)


def test_quotient_bracket_of_conjugate_pair_is_one():
    H = builtin("heisenberg", 1)
    orbit = casimir_orbit(H, 1)  # relation z - 1
    q, p = H.variable(0), H.variable(1)
    assert orbit.context.bracket(q, p) == Polynomial.constant(3, 1)


def test_jacobi_defect_examples():
    x, y, z = (SL2R.variable(i) for i in range(3))
    assert jacobi_defect(FREE_SL2R, x, y, z) == Polynomial.zero(3)
    assert jacobi_defect(FREE_SL2R, sl2("x^2"), y, z) == Polynomial.zero(3)
    f, g = sl2("x*y - z"), sl2("y^2 + 2*x")
    assert jacobi_defect(FREE_SL2R, f, f, g) == Polynomial.zero(3)


def test_leibniz_defect_examples():
    x, y, z = (SL2R.variable(i) for i in range(3))
    assert leibniz_defect(FREE_SL2R, x, y, z) == (Polynomial.zero(3), Polynomial.zero(3))
    one = Polynomial.constant(3, 1)
    assert leibniz_defect(FREE_SL2R, one, sl2("x*z"), sl2("y^2")) == (Polynomial.zero(3), Polynomial.zero(3))
    assert leibniz_defect(FREE_SL2R, x, y, sl2("x^2 + y^2 - z^2")) == (Polynomial.zero(3), Polynomial.zero(3))


def scaled_basis(algebra, scales):
    """The algebra in the basis s_i xi_i: c_ij^k becomes c_ij^k s_i s_j / s_k."""
    brackets = {
        (i, j): {k: c * scales[i] * scales[j] / scales[k] for k, c in row.items()}
        for (i, j), row in algebra.brackets.items()
    }
    return LieAlgebra(algebra.names, brackets)


# sl2r in the basis (x/2, 2y/3, 3z): constants -1/9, 4 and 9/4, so the
# bracket's common denominator is not 1
SCALED_SL2R = scaled_basis(SL2R, (Fraction(1, 2), Fraction(2, 3), Fraction(3)))


def test_scaled_sl2r_is_a_lie_algebra_with_rational_constants():
    assert validate(SCALED_SL2R).ok
    assert {c.denominator for row in SCALED_SL2R.brackets.values() for c in row.values()} == {1, 4, 9}


def test_cartans_criterion_holds_in_a_basis_with_rational_constants():
    # the Killing matrix has fractional entries here, so its rows are scaled
    # to integers before they enter the rank test
    assert any(a.denominator > 1 for row in killing_form(SCALED_SL2R) for a in row)
    assert is_semisimple(SCALED_SL2R)
    assert not is_semisimple(scaled_basis(builtin("heisenberg", 1), (Fraction(1, 2), Fraction(2, 3), Fraction(3))))


@pytest.fixture(scope="module")
def contexts():
    return [
        PoissonContext.free(builtin("sl2r")),
        PoissonContext.free(builtin("so3")),
        PoissonContext.free(builtin("heisenberg", 1)),
        PoissonContext.free(SCALED_SL2R),
    ]


def test_axioms_on_random_triples(contexts):
    rng = random.Random(29)
    for ctx in contexts:
        n = ctx.nvars
        for _ in range(30):
            f = random_polynomial(rng, n, 3)
            g = random_polynomial(rng, n, 3)
            h = random_polynomial(rng, n, 3)
            assert jacobi_defect(ctx, f, g, h) == Polynomial.zero(n)
            assert leibniz_defect(ctx, f, g, h) == (Polynomial.zero(n), Polynomial.zero(n))
            assert ctx.bracket(f, g) == -ctx.bracket(g, f)


def test_bilinearity(contexts):
    rng = random.Random(31)
    for ctx in contexts:
        n = ctx.nvars
        for _ in range(15):
            f = random_polynomial(rng, n, 3)
            g = random_polynomial(rng, n, 3)
            h = random_polynomial(rng, n, 3)
            a, b = Fraction(3, 2), Fraction(-2)
            lhs = ctx.bracket(a * f + b * g, h)
            rhs = a * ctx.bracket(f, h) + b * ctx.bracket(g, h)
            assert lhs == rhs


def test_degree_bound_in_free_mode(contexts):
    rng = random.Random(37)
    for ctx in contexts:
        n = ctx.nvars
        for _ in range(30):
            f = random_polynomial(rng, n, 3)
            g = random_polynomial(rng, n, 3)
            br = ctx.bracket(f, g)
            if f and g:
                assert br.degree() <= f.degree() + g.degree() - 1


def test_bracket_matches_leibniz_expansion_oracle(contexts):
    # the quotients include a rational level and a relation whose leading
    # coefficient is -1/9: the Casimir of SCALED_SL2R at level 1/2
    scaled_relation = parse_polynomial("4*x^2 + 9/4*y^2 - 1/9*z^2 - 1/2", SCALED_SL2R.names)
    quotients = [
        casimir_orbit(SL2R, Fraction(1, 2)).context,
        casimir_orbit(builtin("heisenberg", 1), 1).context,
        make_orbit(SCALED_SL2R, scaled_relation).context,
    ]
    rng = random.Random(41)
    for ctx in contexts + quotients:
        n = ctx.nvars
        for _ in range(20):
            f = random_polynomial(rng, n, 3)
            g = random_polynomial(rng, n, 3)
            expected = leibniz_bracket(ctx.algebra, f, g)
            if ctx.is_quotient:
                expected = division_normal_form(expected, ctx.ideal.relation)
            br = ctx.bracket(f, g)
            assert_canonical(br)
            assert br == expected


LINEAR_FIRST_CONTEXTS = {
    "free-sl2r": lambda: FREE_SL2R,
    "sl2r-hyperboloid": lambda: casimir_orbit(SL2R, 1).context,
    "sl2r-cone": lambda: casimir_orbit(SL2R, 0).context,
    "free-so3": lambda: PoissonContext.free(builtin("so3")),
    "so3-sphere": lambda: casimir_orbit(builtin("so3"), 1).context,
    "free-heisenberg2": lambda: PoissonContext.free(builtin("heisenberg", 2)),
    "heisenberg1-z-1": lambda: casimir_orbit(builtin("heisenberg", 1), 1).context,
    "free-scaled-sl2r": lambda: PoissonContext.free(SCALED_SL2R),
    "scaled-sl2r-level-1/2": lambda: make_orbit(
        SCALED_SL2R, parse_polynomial("4*x^2 + 9/4*y^2 - 1/9*z^2 - 1/2", SCALED_SL2R.names)
    ).context,
}


@pytest.mark.parametrize("name", LINEAR_FIRST_CONTEXTS)
def test_linear_first_factor_matches_the_leibniz_oracle(name):
    # {x_i, x^m}, the bracket every span source takes, reads only ad[i], and
    # prop1's operator reads all of them at once from ad_numerators over the
    # one denominator of the constants: check both for every generator and
    # monomial to degree 4
    ctx = LINEAR_FIRST_CONTEXTS[name]()
    n = ctx.nvars
    for d in range(5):
        for m in monomials_of_degree(n, d):
            pm = Polynomial.monomial(n, m)
            numerators = ctx.ad_numerators(pack(m))
            assert len(numerators) == n
            for i in range(n):
                expected = leibniz_bracket(ctx.algebra, ctx.variable(i), pm)
                if ctx.is_quotient:
                    expected = division_normal_form(expected, ctx.ideal.relation)
                    from_table = ctx.ideal.reduce_numerators(numerators[i], ctx.den)
                else:
                    from_table = Polynomial.from_numerators(n, numerators[i], ctx.den)
                assert ctx.bracket(ctx.variable(i), pm) == expected
                assert from_table == expected


@pytest.mark.parametrize("m", [255, 256, 1000, 32767])
def test_linear_first_factor_reads_whole_exponent_fields(m):
    # [z, x] = y in sl2r, so {z, x^m} = m x^(m-1) y, at exponents that fill
    # a byte, pass it, and reach the cap of a 16-bit field
    z, xm = SL2R.variable(2), Polynomial.monomial(3, (m, 0, 0))
    assert FREE_SL2R.bracket(z, xm) == m * Polynomial.monomial(3, (m - 1, 1, 0))
    assert FREE_SL2R.bracket(xm, z) == -m * Polynomial.monomial(3, (m - 1, 1, 0))


@pytest.mark.parametrize("name,level", [("sl2r", 1), ("sl2r", 0), ("so3", 1), ("heisenberg", 1)])
def test_quotient_compatibility(name, level):
    algebra = builtin(name, 1 if name == "heisenberg" else None)
    orbit = casimir_orbit(algebra, level)
    free = PoissonContext.free(algebra)
    ctx = orbit.context
    rng = random.Random(43)
    n = algebra.dim
    for _ in range(30):
        f = random_polynomial(rng, n, 3)
        g = random_polynomial(rng, n, 3)
        assert ctx.reduce(free.bracket(f, g)) == ctx.bracket(ctx.reduce(f), ctx.reduce(g))


def test_quotient_results_are_normal_forms():
    orbit = casimir_orbit(SL2R, 1)
    ctx = orbit.context
    rng = random.Random(47)
    for _ in range(20):
        f = random_polynomial(rng, 3, 3)
        g = random_polynomial(rng, 3, 3)
        br = ctx.bracket(f, g)
        assert ctx.reduce(br) == br


def test_context_rejects_unclosed_relation():
    from liepoisson.orbit import make_orbit

    with pytest.raises(BracketClosureError) as err:
        make_orbit(SL2R, sl2("z - 1"))
    assert "{relation, x}" in str(err.value)


def test_constructor_checks_the_relation():
    with pytest.raises(BracketClosureError) as err:
        PoissonContext(SL2R, OrbitIdeal(sl2("x^2 - 1")))
    assert (err.value.generator, err.value.residual) == ("y", "-2*x*z")
    h2 = builtin("heisenberg", 2)
    with pytest.raises(ValueError, match="variable count"):
        PoissonContext(SL2R, OrbitIdeal(builtin_casimir(h2) - Polynomial.constant(h2.dim, 1)))
    assert PoissonContext(SL2R, OrbitIdeal(builtin_casimir(SL2R) - Polynomial.constant(3, 1))).is_quotient


def test_bracket_variable_mismatch():
    H = builtin("heisenberg", 2)
    with pytest.raises(ValueError):
        FREE_SL2R.bracket(SL2R.variable(0), H.variable(0))


def _heisenberg2_z_minus_1():
    H2 = builtin("heisenberg", 2)
    return make_orbit(H2, parse_polynomial("z - 1", H2.names)).context


MONOMIAL_CONTEXTS = {
    "free-sl2r": lambda: FREE_SL2R,
    "sl2r-hyperboloid": lambda: casimir_orbit(SL2R, 1).context,
    "sl2r-cone": lambda: casimir_orbit(SL2R, 0).context,
    "heisenberg2-z-1": _heisenberg2_z_minus_1,
    "free-so3": lambda: PoissonContext.free(builtin("so3")),
}


@pytest.mark.parametrize("name", MONOMIAL_CONTEXTS)
def test_monomials_up_to_concatenate_descending_degree_slices(name):
    # the graded order puts higher degrees first, so the slices need no re-sort
    ctx = MONOMIAL_CONTEXTS[name]()
    for bound in range(8):
        n = ctx.nvars
        slices = [unpack(m, n) for d in range(bound + 1) for m in ctx.basis_monomials(d)]
        up_to = [unpack(m, n) for m in ctx.basis_monomials_up_to(bound)]
        assert up_to == sorted(slices, key=graded_lex_key, reverse=True)
        free = [m for m in itertools.product(range(bound + 1), repeat=n) if sum(m) <= bound]
        expected = sorted(free, key=graded_lex_key, reverse=True)
        assert [unpack(m, n) for m in PoissonContext.free(ctx.algebra).basis_monomials_up_to(bound)] == expected


ABELIAN_CONTEXTS = {
    f"free-abelian-{dim}": lambda dim=dim: PoissonContext.free(lie_algebra_from_dict({"dim": dim, "basis": ["t"][:dim]}))
    for dim in (1, 0)
}


@pytest.mark.parametrize("name", [*MONOMIAL_CONTEXTS, *ABELIAN_CONTEXTS])
def test_basis_monomials_are_the_packed_normal_tuples_in_order(name):
    # basis_monomials and monomials_of_degree both come from monomial_keys,
    # so the reference is the brute-force box of exponent tuples, sorted and
    # filtered by the relation's leading monomial with the oracles
    ctx = {**MONOMIAL_CONTEXTS, **ABELIAN_CONTEXTS}[name]()
    n = ctx.nvars
    lead = max(ctx.ideal.relation.terms, key=graded_lex_key) if ctx.is_quotient else None
    for degree in range(9):
        box = [m for m in itertools.product(range(degree + 1), repeat=n) if sum(m) == degree]
        normal = sorted((m for m in box if lead is None or not divides(lead, m)), key=graded_lex_key, reverse=True)
        assert [unpack(m, n) for m in ctx.basis_monomials(degree)] == normal
    for degree in (-1, EXPONENT_CAP + 1):
        with pytest.raises(ValueError, match="outside"):
            ctx.basis_monomials(degree)


def unfused_defects(ctx, f, g, h):
    """Jacobi and both Leibniz defects as sums of separately reduced terms:
    brackets by the Leibniz-expansion oracle and products by ``*``, each
    reduced by the division oracle in quotient mode."""

    def nf(p):
        return division_normal_form(p, ctx.ideal.relation) if ctx.is_quotient else p

    def br(a, b):
        return nf(leibniz_bracket(ctx.algebra, a, b))

    def mul(a, b):
        return nf(a * b)

    jacobi = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
    fg, gh, fh = mul(f, g), mul(g, h), mul(f, h)
    lead = br(fg, h)
    return jacobi, lead - mul(f, br(g, h)) - mul(g, br(f, h)), lead - br(f, gh) - br(g, fh)


def assert_fused_defects_match(ctx, seed, count):
    """The defects on seeded rational triples equal the unfused sums; returns
    how many of the Jacobi, product-rule and symmetrized defects were nonzero."""
    rng = random.Random(seed)
    nonzero = [0, 0, 0]
    for _ in range(count):
        f, g, h = (nonzero_random_polynomial(rng, ctx.nvars, 3, max_terms=3) for _ in range(3))
        got = (jacobi_defect(ctx, f, g, h), *leibniz_defect(ctx, f, g, h))
        for k, (defect, expected) in enumerate(zip(got, unfused_defects(ctx, f, g, h))):
            assert_canonical(defect)
            assert defect == expected
            nonzero[k] += bool(defect)
    return nonzero


# a, b, c, z with [a,b] = c, [b,c] = a, [c,a] = a: antisymmetric but not Lie,
# since [a,[b,c]] + [b,[c,a]] + [c,[a,b]] = -c; z is central
NON_LIE = LieAlgebra(("a", "b", "c", "z"), {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {0: 1}})


def test_jacobi_defect_of_a_table_that_is_not_lie(monkeypatch):
    # the contexts refuse such a table, so its check is patched out here; the
    # defect is then nonzero, and a fused sum that drops or mis-scales an
    # outer bracket differs from the six-bracket formula
    assert not validate(NON_LIE).ok
    monkeypatch.setattr(poisson, "require_lie", lambda algebra: None)
    free = PoissonContext.free(NON_LIE)
    a, b, c = (NON_LIE.variable(i) for i in range(3))
    assert jacobi_defect(free, a, b, c) == -c
    level = make_orbit(NON_LIE, parse_polynomial("z - 5/3", NON_LIE.names)).context
    for seed, ctx in enumerate([free, level]):
        jacobi, product_rule, symmetrized = assert_fused_defects_match(ctx, seed, 25)
        assert jacobi >= 5 and product_rule == symmetrized == 0


def halved(algebra):
    """The algebra with every structure constant halved: still Lie, over den 2."""
    brackets = {pair: {k: c / 2 for k, c in row.items()} for pair, row in algebra.brackets.items()}
    return LieAlgebra(algebra.names, brackets)


def _unclosed_sl2r():
    # x^2 - 1 is not bracket-closed, so the constructor refuses it; attached
    # afterwards, the reduced products no longer commute with the bracket and
    # both Leibniz defects are nonzero
    ctx = PoissonContext.free(SL2R)
    ctx.ideal = OrbitIdeal(sl2("x^2 - 1"))
    return ctx


FUSED_CONTEXTS = {
    "free-halved-sl2r": lambda: PoissonContext.free(halved(SL2R)),
    "halved-sl2r-level-1/2": lambda: make_orbit(halved(SL2R), sl2("x^2 + y^2 - z^2 - 1/2")).context,
    "sl2r-level-3/2": lambda: casimir_orbit(SL2R, Fraction(3, 2)).context,
    "heisenberg1-level-5/3": lambda: casimir_orbit(builtin("heisenberg", 1), Fraction(5, 3)).context,
    "sl2r-unclosed-x^2-1": _unclosed_sl2r,
}


@pytest.mark.parametrize("name", FUSED_CONTEXTS)
def test_fused_defects_match_the_unfused_formulas(name):
    ctx = FUSED_CONTEXTS[name]()
    if name.startswith("free-halved"):
        assert ctx.den == 2
    if name == "sl2r-level-3/2":
        relation = ctx.ideal.relation
        assert relation.den == 2 and relation.num[max(relation.num)] == -2
    jacobi, product_rule, symmetrized = assert_fused_defects_match(ctx, 53, 25)
    if name == "sl2r-unclosed-x^2-1":
        assert jacobi >= 5 and product_rule >= 5 and symmetrized >= 5


def test_fused_defects_keep_the_cap_and_variable_checks():
    x, y, z = (sl2(f"{v}^{e}") for v, e in (("x", 2000), ("y", 16000), ("z", 16000)))
    # {y^16000, z^16000} has degree 31999, and {x^2000, {y^16000, z^16000}} 33998
    with pytest.raises(ValueError, match="a bracket of degree 33998 exceeds the cap 32767"):
        jacobi_defect(FREE_SL2R, x, y, z)
    with pytest.raises(ValueError, match="a product of degree 40000 exceeds the cap 32767"):
        leibniz_defect(FREE_SL2R, sl2("x^20000"), sl2("y^20000"), sl2("z"))
    h, f, g = builtin("heisenberg", 2).variable(0), sl2("x*y"), sl2("z^2 - x")
    for ctx in (FREE_SL2R, casimir_orbit(SL2R, 1).context):
        for args in [(h, f, g), (f, h, g), (f, g, h)]:
            with pytest.raises(ValueError, match="variables"):
                jacobi_defect(ctx, *args)
            with pytest.raises(ValueError, match="variable"):
                leibniz_defect(ctx, *args)
        with pytest.raises(ValueError, match="variables"):
            ctx.product(f, h)


def test_product_is_the_reduced_product():
    rng = random.Random(59)
    for ctx in (FREE_SL2R, casimir_orbit(SL2R, Fraction(3, 2)).context, casimir_orbit(SL2R, 0).context):
        for _ in range(20):
            f, g = random_polynomial(rng, 3, 3), random_polynomial(rng, 3, 3)
            p = ctx.product(f, g)
            assert_canonical(p)
            assert p == ctx.reduce(f * g)

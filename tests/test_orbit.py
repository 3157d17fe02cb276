"""Orbit descriptors: classification, projection, and quotient dimensions."""

import random

import pytest

from liepoisson.liealg import builtin
from liepoisson.orbit import (
    OrbitIdeal,
    OrbitType,
    builtin_casimir,
    casimir_orbit,
    make_orbit,
)
from liepoisson.poisson import BracketClosureError
from liepoisson.poly import Polynomial, parse_polynomial

from oracles import NORMAL_FORM_RELATIONS, division_normal_form, graded_component, random_polynomial

SL2R = builtin("sl2r")


def sl2(text):
    return parse_polynomial(text, SL2R.names)


def test_classification_matches_casimir_level():
    assert casimir_orbit(SL2R, 1).orbit_type is OrbitType.SEMISIMPLE
    assert casimir_orbit(SL2R, 0).orbit_type is OrbitType.NILPOTENT
    assert casimir_orbit(builtin("so3"), -2).orbit_type is OrbitType.SEMISIMPLE
    assert casimir_orbit(builtin("heisenberg", 1), 1).orbit_type is OrbitType.OTHER


def test_classification_override():
    orbit = make_orbit(SL2R, sl2("x^2 + y^2 - z^2"), orbit_type=OrbitType.OTHER)
    assert orbit.orbit_type is OrbitType.OTHER


def test_relation_from_text_classifies_by_constant_term():
    orbit = make_orbit(SL2R, sl2("x^2 + y^2 - z^2 - 1"))
    assert orbit.orbit_type is OrbitType.SEMISIMPLE


def test_project_hyperboloid_examples():
    reduce = casimir_orbit(SL2R, 1).context.reduce
    assert reduce(sl2("z^2")) == sl2("x^2 + y^2 - 1")
    assert reduce(sl2("x^2 + y^2 - z^2")) == Polynomial.constant(3, 1)


def test_project_heisenberg_substitutes_center():
    H = builtin("heisenberg", 1)
    f = parse_polynomial("3*z + q", H.names)
    assert casimir_orbit(H, 1).context.reduce(f) == parse_polynomial("3 + q", H.names)


def test_project_is_idempotent_linear_algebra_map():
    reduce = casimir_orbit(SL2R, 1).context.reduce
    rng = random.Random(53)
    for _ in range(30):
        f = random_polynomial(rng, 3, 4)
        g = random_polynomial(rng, 3, 3)
        pf, pg = reduce(f), reduce(g)
        assert reduce(pf) == pf
        assert reduce(f + g) == pf + pg
        assert reduce(f * g) == reduce(pf * pg)


def test_relation_is_bracket_closed_for_builtin_orbits():
    for algebra, level in ((SL2R, 1), (SL2R, 0), (builtin("so3"), 1), (builtin("heisenberg", 2), 1)):
        orbit = casimir_orbit(algebra, level)
        ctx = orbit.context
        for i in range(algebra.dim):
            assert ctx.bracket(ctx.ideal.relation, algebra.variable(i)) == Polynomial.zero(algebra.dim)


def test_projection_commutes_with_grading_on_the_cone():
    reduce = casimir_orbit(SL2R, 0).context.reduce
    rng = random.Random(59)
    for _ in range(30):
        f = random_polynomial(rng, 3, 4)
        pf = reduce(f)
        for n in range(5):
            assert graded_component(pf, n) == reduce(graded_component(f, n))


def test_quotient_dimension_cone():
    cone = casimir_orbit(SL2R, 0).context
    assert len(cone.basis_monomials(2)) == 5
    assert len(cone.basis_monomials(0)) == 1
    # homogeneous quotient: graded dimensions 2n+1 for n >= 1
    assert [len(cone.basis_monomials(n)) for n in range(1, 6)] == [3, 5, 7, 9, 11]


def test_quotient_dimension_hyperboloid_counts_up_to_degree():
    hyp = casimir_orbit(SL2R, 1).context
    assert len(hyp.basis_monomials_up_to(1)) == 4
    assert len(hyp.basis_monomials_up_to(2)) == 9


@pytest.mark.parametrize("relation", NORMAL_FORM_RELATIONS)
def test_reused_orbit_ideal_matches_division_oracle(relation):
    # one ideal serves every call, in shuffled order, so normal forms cached
    # by earlier calls are what later calls reuse; the homogeneous slices
    # repeat monomials of the whole polynomials
    ideal = OrbitIdeal(sl2(relation))
    rng = random.Random(67)
    polys = [sl2("z^12")] + [random_polynomial(rng, 3, 8, max_terms=6) for _ in range(40)]
    polys += [graded_component(f, n) for f in polys[:10] for n in range(9)]
    rng.shuffle(polys)
    for f in polys:
        assert ideal.reduce(f) == division_normal_form(f, ideal.relation)


def test_orbit_ideal_rejects_degenerate_relations():
    with pytest.raises(ValueError):
        OrbitIdeal(Polynomial.zero(3))
    with pytest.raises(ValueError):
        OrbitIdeal(Polynomial.constant(3, 2))


def test_make_orbit_rejects_unclosed_relation():
    with pytest.raises(BracketClosureError):
        make_orbit(SL2R, sl2("x"))


def test_builtin_casimirs():
    assert builtin_casimir(SL2R) == sl2("x^2 + y^2 - z^2")
    so3 = builtin("so3")
    assert builtin_casimir(so3) == parse_polynomial("x^2 + y^2 + z^2", so3.names)
    h2 = builtin("heisenberg", 2)
    assert builtin_casimir(h2) == h2.variable(4)


def test_builtin_casimir_unavailable_for_user_algebras():
    from liepoisson.liealg import LieAlgebra

    nameless = LieAlgebra(("a", "b", "c"), SL2R.brackets)
    with pytest.raises(ValueError):
        builtin_casimir(nameless)

"""Every verdict is invariant under a rational change of basis of sl2r.

The claims key their fast paths on the basis: the ``ad`` table and its
common denominator, the packed monomial order, the relation's leading
monomial and so the normal monomials, and the order in which rows go in.
An isomorphic input runs all of them differently.  Here sl2r is rebased by
a seeded rational matrix that is not unimodular, so the structure
constants get a common denominator above 1, and the Casimir relation and
the generators are carried into the new coordinates with the oracle
arithmetic of ``tests/oracles.py``.  Each claim's overall verdict and every
record field must agree with the original basis, except the texts of
polynomials and witnesses, which name other monomials.
"""

import random
from fractions import Fraction

import pytest

from liepoisson.liealg import LieAlgebra, builtin
from liepoisson.orbit import builtin_casimir, casimir_orbit, make_orbit
from liepoisson.poisson import PoissonContext
from liepoisson.poly import Polynomial, parse_polynomial
from liepoisson.structure import (
    ideal_square_check,
    nonexactness_check,
    simplicity_probe,
    verify_homogeneous_ideals,
    verify_prop1,
    verify_thm2,
)

from oracles import rref, terms_add, terms_mul

SL2R = builtin("sl2r")
BOUND = 5
TEXT_FIELDS = {"generator", "monomial", "witness"}


def sl2(text):
    return parse_polynomial(text, SL2R.names)


def rebased_sl2r(seed):
    """sl2r in the basis e'_a = sum_i t[a][i] e_i for a seeded rational
    matrix t, with the inverse s of t: e_k = sum_l s[k][l] e'_l, and the
    old coordinates are x_k = sum_l s[k][l] x'_l.  Matrices are drawn until
    one is invertible and the new constants are not all integers."""
    rng = random.Random(f"rebase-{seed}")
    while True:
        t = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(3)] for _ in range(3)]
        reduced, pivots = rref([row + [Fraction(int(i == j)) for j in range(3)] for i, row in enumerate(t)])
        if pivots != [0, 1, 2]:
            continue
        s = [row[3:] for row in reduced]
        brackets = {}
        for a in range(3):
            for b in range(a + 1, 3):
                out = [Fraction(0)] * 3
                for (i, j), row in SL2R.brackets.items():
                    for k, c in row.items():
                        for l in range(3):
                            out[l] += t[a][i] * t[b][j] * c * s[k][l]
                brackets[(a, b)] = dict(enumerate(out))
        algebra = LieAlgebra(("u", "v", "w"), brackets, "rebased-sl2r")
        if PoissonContext.free(algebra).den > 1:
            return algebra, s


def mapped(p, s):
    """``p`` in the new coordinates: each x_k replaced by sum_l s[k][l] x'_l."""
    linear = [{tuple(int(i == l) for i in range(3)): s[k][l] for l in range(3) if s[k][l]} for k in range(3)]
    out = {}
    for m, c in p.terms.items():
        term = {(0, 0, 0): c}
        for k, e in enumerate(m):
            for _ in range(e):
                term = terms_mul(term, linear[k])
        out = terms_add(out, term)
    return Polynomial(3, out)


def shape(report):
    """The overall verdict and every record without its texts."""
    return report.verdict, [{k: v for k, v in r.items() if k not in TEXT_FIELDS} for r in report.records]


@pytest.mark.parametrize("seed", [0, 1])
def test_verdicts_survive_a_rational_change_of_basis(seed):
    algebra, s = rebased_sl2r(seed)
    free, image_free = PoissonContext.free(SL2R), PoissonContext.free(algebra)
    assert image_free.den > 1
    assert shape(verify_prop1(algebra, BOUND)) == shape(verify_prop1(SL2R, BOUND))
    x, trials = sl2("x"), [sl2("x"), sl2("x + y"), sl2("x*y - z")]
    assert shape(ideal_square_check(image_free, [mapped(x, s)], BOUND)) == shape(ideal_square_check(free, [x], BOUND))
    for level in (1, 0, -1):
        orbit = casimir_orbit(SL2R, level)
        image = make_orbit(algebra, mapped(builtin_casimir(SL2R) - level, s), orbit.orbit_type)
        assert shape(verify_thm2(image, 2 * BOUND)) == shape(verify_thm2(orbit, 2 * BOUND))
        assert shape(simplicity_probe(image, [mapped(g, s) for g in trials], BOUND)) == shape(
            simplicity_probe(orbit, trials, BOUND)
        )
        assert shape(ideal_square_check(image.context, [mapped(x, s)], BOUND)) == shape(
            ideal_square_check(orbit.context, [x], BOUND)
        )
        if level == 0:
            for k in (1, 2):
                assert shape(verify_homogeneous_ideals(image, k, BOUND)) == shape(
                    verify_homogeneous_ideals(orbit, k, BOUND)
                )
        # nonexactness_check is keyed on the algebra's name, so it refuses
        # the rebased sl2r instead of checking the mapped system
        with pytest.raises(ValueError, match="specific to sl2r"):
            nonexactness_check(image, BOUND)

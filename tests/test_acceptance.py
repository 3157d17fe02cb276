"""Acceptance suite: one test per criterion, one printed line per criterion.

All checks are exact (rational arithmetic, zero tolerance).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import json
import random

from liepoisson.cli import EXIT_PASS, run
from liepoisson.liealg import builtin
from liepoisson.orbit import casimir_orbit
from liepoisson.poisson import PoissonContext, jacobi_defect, leibniz_defect
from liepoisson.poly import Polynomial, parse_polynomial
from liepoisson.structure import (
    Membership,
    derived_membership,
    derived_span,
    ideal_square_check,
    invariants_basis,
    nonexactness_check,
    poisson_ideal_closure,
    simplicity_probe,
    verify_homogeneous_ideals,
    verify_prop1,
    verify_thm2,
)

from oracles import random_polynomial

SEED = 20250808

SL2R = builtin("sl2r")
SO3 = builtin("so3")


def sl2(text):
    return parse_polynomial(text, SL2R.names)


def _announce(number, slug, ok):
    print(f"ACCEPTANCE {number} {slug}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_graded_splitting_profile():
    ok = False
    try:
        expected_center = [1, 0, 1, 0, 1, 0, 1]
        for algebra in (SL2R, SO3):
            report = verify_prop1(algebra, 6)
            assert report.verdict == "pass"
            for n, record in enumerate(report.records):
                ambient = (n + 1) * (n + 2) // 2
                dims = record["dims"]
                assert dims["ambient"] == ambient
                assert dims["center"] == expected_center[n]
                assert dims["center"] + dims["derived"] == ambient
                assert dims["union"] == ambient
            # independent slice check: the center ranks come from the kernel op
            assert [invariants_basis(algebra, n).rank for n in range(7)] == expected_center
        ok = True
    finally:
        _announce(1, "center/derived splitting, degrees 0..6", ok)


def test_criterion_2_hyperboloid_two_sided_splitting():
    ok = False
    try:
        orbit = casimir_orbit(SL2R, 1)
        ctx = orbit.context
        one = Polynomial.constant(3, 1)
        for bound in range(6):
            assert derived_membership(ctx, one, bound) is Membership.NOT_IN_SPAN_AT_BOUND
        checked = 0
        for degree in (1, 2, 3):
            span = derived_span(ctx, degree, 5)
            for m in ctx.basis_monomials(degree):
                assert span.contains(Polynomial.monomial(3, m))
                checked += 1
        assert checked == 3 + 5 + 7
        report = verify_thm2(orbit, 5)
        assert report.verdict == "pass"
        ok = True
    finally:
        _announce(2, "orbit splitting on the hyperboloid, bounds <= 5", ok)


def test_criterion_3_heisenberg_counterexample():
    ok = False
    try:
        for n in (1, 2):
            algebra = builtin("heisenberg", n)
            ctx = casimir_orbit(algebra, 1).context
            one = Polynomial.constant(algebra.dim, 1)
            assert derived_membership(ctx, one, 2) is Membership.IN_SPAN
        ok = True
    finally:
        _announce(3, "constants bracket-reachable on heisenberg orbits", ok)


def test_criterion_4_nonexactness_system():
    ok = False
    try:
        report = nonexactness_check(casimir_orbit(SL2R, 1), 4)
        assert report.verdict == "pass"
        ones = [r for r in report.records if r["check"] == "target_one"]
        assert [r["coefficient_degree"] for r in ones] == [0, 1, 2, 3, 4]
        assert all(not r["feasible"] for r in ones)
        control = [r for r in report.records if r["check"] == "target_zero_control"][0]
        assert control["feasible"]
        ok = True
    finally:
        _announce(4, "1 = {x,f}+{y,g}+{z,h} infeasible for D <= 4", ok)


def test_criterion_5_simplicity_dichotomy():
    ok = False
    try:
        hyperboloid = casimir_orbit(SL2R, 1)
        report = simplicity_probe(hyperboloid, [sl2("x"), sl2("z"), sl2("x + y")], 4)
        assert report.verdict == "pass"
        assert all(r["contains_one"] for r in report.records)

        cone = casimir_orbit(SL2R, 0)
        closure = poisson_ideal_closure(cone.context, [SL2R.variable(2)], 5)
        assert not closure.contains(Polynomial.constant(3, 1))
        assert closure.rank == len(closure.monomials) - 1
        assert (0, 0, 0) in closure.monomials
        assert all((0, 0, 0) not in p.terms for p in closure.basis())

        for k in (1, 2):
            assert verify_homogeneous_ideals(cone, k, 5).verdict == "pass"
        ok = True
    finally:
        _announce(5, "simplicity probes and proper graded ideals", ok)


def test_criterion_6_ideal_square_instances():
    ok = False
    try:
        free = PoissonContext.free(SL2R)
        report = ideal_square_check(free, [sl2("x")], 4)
        assert report.verdict == "pass"
        witness = [r for r in report.records if r["check"] == "strict_inclusion"][0]["witness"]
        assert witness == "x"

        cone = casimir_orbit(SL2R, 0)
        gens = [SL2R.variable(i) for i in range(3)]
        report = ideal_square_check(cone.context, gens, 4)
        assert report.verdict == "pass"
        witness = [r for r in report.records if r["check"] == "strict_inclusion"][0]["witness"]
        assert witness in ("x", "y", "z")
        ok = True
    finally:
        _announce(6, "ideal square strictly smaller, with witness", ok)


def test_criterion_7_axiom_property_suite():
    ok = False
    try:
        rng = random.Random(SEED)
        free_contexts = [
            PoissonContext.free(SL2R),
            PoissonContext.free(SO3),
            PoissonContext.free(builtin("heisenberg", 1)),
        ]
        for ctx in free_contexts:
            n = ctx.nvars
            zero = Polynomial.zero(n)
            for _ in range(100):
                f = random_polynomial(rng, n, 3)
                g = random_polynomial(rng, n, 3)
                h = random_polynomial(rng, n, 3)
                assert jacobi_defect(ctx, f, g, h) == zero
                assert leibniz_defect(ctx, f, g, h) == (zero, zero)
                br = ctx.bracket(f, g)
                assert br == -ctx.bracket(g, f)
                if f and g:
                    assert br.degree() <= f.degree() + g.degree() - 1

        orbits = [
            casimir_orbit(SL2R, 1),
            casimir_orbit(SL2R, 0),
            casimir_orbit(SO3, 1),
            casimir_orbit(builtin("heisenberg", 1), 1),
        ]
        for orbit in orbits:
            ctx = orbit.context
            free = PoissonContext.free(orbit.algebra)
            n = ctx.nvars
            for _ in range(100):
                f = random_polynomial(rng, n, 3)
                g = random_polynomial(rng, n, 3)
                assert ctx.reduce(free.bracket(f, g)) == ctx.bracket(ctx.reduce(f), ctx.reduce(g))
        ok = True
    finally:
        _announce(7, "bracket axioms on 100 seeded samples per context", ok)


def test_criterion_8_deterministic_reports():
    ok = False
    try:
        commands = [
            ["verify", "prop1", "--algebra", "sl2r", "--max-degree", "4"],
            ["verify", "thm2", "--algebra", "sl2r", "--casimir", "1", "--max-degree", "4"],
            ["verify", "heisenberg", "--n", "1", "--max-degree", "2"],
            ["verify", "nilpotent-ideals", "--algebra", "sl2r", "--max-degree", "4"],
            ["verify", "nonexact", "--algebra", "sl2r", "--max-degree", "2"],
            ["verify", "lemma", "--algebra", "sl2r", "--gen", "x", "--max-degree", "4"],
        ]
        for args in commands:
            argv = args + ["--json"]
            first = run(argv)
            second = run(argv)
            assert first == second
            status, text = first
            assert status == EXIT_PASS
            payload = json.loads(text)
            assert payload["verdict"] == "pass"
        ok = True
    finally:
        _announce(8, "byte-identical JSON reports per command", ok)

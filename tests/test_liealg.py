"""Structure constants, bracket axioms, Killing form, and the JSON format."""

import json
import random
from fractions import Fraction

import pytest

from liepoisson.liealg import (
    InvalidLieAlgebraError,
    LieAlgebra,
    LieAlgebraFormatError,
    builtin,
    is_semisimple,
    killing_form,
    lie_algebra_from_dict,
    load_algebra,
    validate,
)
from liepoisson.poisson import PoissonContext

from oracles import basis_bracket, dense_killing_form, dense_violations, random_brackets
from test_higher_rank import rebased_sl3, sl3, so4, sp4

F = Fraction


def diag(*entries):
    n = len(entries)
    return [[F(entries[i]) if i == j else F(0) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name,n", [("sl2r", None), ("so3", None), ("heisenberg", 1), ("heisenberg", 2), ("heisenberg", 3)])
def test_builtins_validate_clean(name, n):
    assert validate(builtin(name, n)).ok


def test_constructed_antisymmetry_violation():
    with pytest.raises(LieAlgebraFormatError, match=r"brackets \(1, 0\) and \(0, 1\) conflict with antisymmetry"):
        LieAlgebra(("a", "b", "c"), {(0, 1): {2: F(1)}, (1, 0): {2: F(1)}})


def test_diagonal_bracket_violation():
    with pytest.raises(LieAlgebraFormatError, match="nonzero bracket of basis element 0 with itself"):
        LieAlgebra(("a", "b"), {(0, 0): {1: F(1)}})


# antisymmetric, but [[c,a],b] = a while the other two cyclic terms vanish
NOT_JACOBI = (("a", "b", "c"), {(0, 1): {2: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}})


def test_jacobi_violation_detected():
    report = validate(LieAlgebra(*NOT_JACOBI))
    assert any(v.kind == "jacobi" for v in report.violations)


def test_so3_in_either_orientation_is_the_same_algebra():
    # the builtin's pairs (0, 1), (1, 2), (2, 0), and the same brackets on the reverse pairs
    forward = builtin("so3")
    reverse = LieAlgebra(("x", "y", "z"), {(1, 0): {2: -1}, (2, 1): {0: -1}, (0, 2): {1: -1}})
    assert list(reverse.brackets.items()) == list(forward.brackets.items())
    contexts = PoissonContext.free(forward), PoissonContext.free(reverse)
    for i in range(3):
        for j in range(3):
            a, b = (ctx.bracket(ctx.variable(i), ctx.variable(j)) for ctx in contexts)
            assert a == b
    y, x = reverse.variable(1), reverse.variable(0)
    assert contexts[1].bracket(y, x) == -reverse.variable(2)


def test_sl2r_bracket_table():
    L = builtin("sl2r")
    assert L.names == ("x", "y", "z")
    assert basis_bracket(L, 1, 2) == {0: F(1)}   # [y,z] = x
    assert basis_bracket(L, 2, 0) == {1: F(1)}   # [z,x] = y
    assert basis_bracket(L, 0, 1) == {2: F(-1)}  # [x,y] = -z


def test_killing_form_sl2r():
    assert killing_form(builtin("sl2r")) == diag(2, 2, -2)


def test_killing_form_so3():
    assert killing_form(builtin("so3")) == diag(-2, -2, -2)


def test_killing_form_heisenberg_vanishes():
    L = builtin("heisenberg", 1)
    assert killing_form(L) == diag(0, 0, 0)


@pytest.mark.parametrize("name,n,expected", [
    ("sl2r", None, True),
    ("so3", None, True),
    ("heisenberg", 1, False),
    ("heisenberg", 2, False),
    ("heisenberg", 3, False),
])
def test_semisimplicity(name, n, expected):
    assert is_semisimple(builtin(name, n)) is expected


def test_killing_form_symmetric_for_builtins():
    for name, n in (("sl2r", None), ("so3", None), ("heisenberg", 2)):
        b = killing_form(builtin(name, n))
        assert b == [list(col) for col in zip(*b)]


def assert_matches_dense_oracle(algebra):
    assert killing_form(algebra) == dense_killing_form(algebra)
    found = [(v.kind, v.indices, v.detail) for v in validate(algebra).violations]
    assert found == dense_violations(algebra)


@pytest.mark.parametrize(
    "build",
    [
        lambda: builtin("sl2r"),
        lambda: builtin("so3"),
        lambda: builtin("heisenberg", 1),
        lambda: builtin("heisenberg", 3),
        sl3,
        so4,
        sp4,
        rebased_sl3,
        lambda: rebased_sl3(seed=2, ops=8),
    ],
    ids=["sl2r", "so3", "heisenberg-1", "heisenberg-3", "sl3", "so4", "sp4", "sl3-rebased", "sl3-eight-operations"],
)
def test_killing_form_and_validate_match_the_dense_oracle(build):
    assert_matches_dense_oracle(build())


def test_killing_form_and_validate_match_the_dense_oracle_on_raw_tables():
    # tables that break antisymmetry or have a nonzero diagonal are refused
    # when built; every other table is compared with the oracle
    rng = random.Random(20261018)
    kinds, built = set(), 0
    for _ in range(300):
        d = rng.randint(2, 6)
        try:
            algebra = LieAlgebra(tuple(f"b{i}" for i in range(d)), random_brackets(rng, d))
        except LieAlgebraFormatError as exc:
            kinds.add("diagonal" if "with itself" in str(exc) else "antisymmetry")
            continue
        built += 1
        assert_matches_dense_oracle(algebra)
        kinds.update(v.kind for v in validate(algebra).violations)
    assert kinds == {"antisymmetry", "jacobi", "diagonal"}
    assert built >= 100


def test_is_semisimple_rejects_invalid_algebra():
    with pytest.raises(InvalidLieAlgebraError, match="not a Lie algebra: jacobi violation Jacobi sum at"):
        is_semisimple(LieAlgebra(*NOT_JACOBI))


def test_heisenberg_shapes():
    h1 = builtin("heisenberg", 1)
    assert h1.names == ("q", "p", "z")
    assert basis_bracket(h1, 0, 1) == {2: F(1)}
    h2 = builtin("heisenberg", 2)
    assert h2.names == ("q1", "q2", "p1", "p2", "z")
    assert h2.dim == 5
    assert basis_bracket(h2, 0, 2) == {4: F(1)}
    assert basis_bracket(h2, 1, 3) == {4: F(1)}
    assert basis_bracket(h2, 0, 3) == {}


def test_builtin_errors():
    with pytest.raises(LieAlgebraFormatError):
        builtin("su5")
    with pytest.raises(LieAlgebraFormatError):
        builtin("heisenberg")
    with pytest.raises(LieAlgebraFormatError):
        builtin("heisenberg", 0)
    with pytest.raises(LieAlgebraFormatError):
        builtin("sl2r", 2)


def test_reverse_pairs_must_negate():
    with pytest.raises(LieAlgebraFormatError):
        LieAlgebra(("a", "b"), {(0, 1): {0: 1}, (1, 0): {0: 1}})
    # a consistent double definition is accepted
    L = LieAlgebra(("a", "b"), {(0, 1): {0: 1}, (1, 0): {0: -1}})
    assert basis_bracket(L, 0, 1) == {0: F(1)}
    # a zero bracket against a nonzero reverse conflicts too
    for zero in ({}, {0: 0}):
        with pytest.raises(LieAlgebraFormatError, match=r"brackets \(1, 0\) and \(0, 1\) conflict"):
            LieAlgebra(("a", "b"), {(0, 1): zero, (1, 0): {0: 1}})
    with pytest.raises(LieAlgebraFormatError):
        LieAlgebra(("a", "b"), {(0, 0): {1: 1}})
    with pytest.raises(LieAlgebraFormatError, match=r"structure constant index \(0, 1, 2\) out of range"):
        LieAlgebra(("a", "b"), {(0, 1): {2: 1}})


SL2R_JSON = {
    "dim": 3,
    "basis": ["x", "y", "z"],
    "brackets": [
        {"i": "y", "j": "z", "terms": [{"k": "x", "coeff": "1"}]},
        {"i": "z", "j": "x", "terms": [{"k": "y", "coeff": "1"}]},
        {"i": "x", "j": "y", "terms": [{"k": "z", "coeff": "-1"}]},
    ],
}


def test_json_round_trip_matches_builtin():
    L = lie_algebra_from_dict(SL2R_JSON)
    ref = builtin("sl2r")
    assert L.names == ref.names
    assert L.brackets == ref.brackets
    assert validate(L).ok


def test_json_rational_coefficients():
    data = {
        "dim": 2,
        "basis": ["a", "b"],
        "brackets": [{"i": "a", "j": "b", "terms": [{"k": "a", "coeff": "-3/2"}]}],
    }
    L = lie_algebra_from_dict(data)
    assert L.brackets == {(0, 1): {0: F(-3, 2)}, (1, 0): {0: F(3, 2)}}


def test_json_errors():
    with pytest.raises(LieAlgebraFormatError):
        lie_algebra_from_dict({"dim": 2, "basis": ["a"]})
    with pytest.raises(LieAlgebraFormatError):
        lie_algebra_from_dict({"dim": 1, "basis": ["a"], "brackets": [{"i": "a", "j": "q", "terms": []}]})
    with pytest.raises(LieAlgebraFormatError):
        lie_algebra_from_dict(
            {"dim": 2, "basis": ["a", "b"],
             "brackets": [{"i": "a", "j": "b", "terms": [{"k": "a", "coeff": "1/0"}]}]}
        )
    conflicting = {
        "dim": 2,
        "basis": ["a", "b"],
        "brackets": [
            {"i": "a", "j": "b", "terms": [{"k": "a", "coeff": "1"}]},
            {"i": "b", "j": "a", "terms": [{"k": "a", "coeff": "1"}]},
        ],
    }
    with pytest.raises(LieAlgebraFormatError):
        lie_algebra_from_dict(conflicting)


@pytest.mark.parametrize("name", ["2", "y z", "x-1", "x^2", "", "\u00b2"])
def test_basis_names_must_read_back_as_variables(name):
    with pytest.raises(LieAlgebraFormatError, match="followed by letters, digits or '_'"):
        LieAlgebra(("a", name), {})
    with pytest.raises(LieAlgebraFormatError):
        lie_algebra_from_dict({"dim": 2, "basis": ["a", name]})


def test_grammar_names_are_accepted_as_basis_names():
    assert LieAlgebra(("_", "x1", "q_2", "\u00e9t\u00e9", "B", "x\u00b2"), {}).dim == 6


def test_load_algebra_file(tmp_path):
    path = tmp_path / "sl2r.json"
    path.write_text(json.dumps(SL2R_JSON))
    assert load_algebra(path).brackets == builtin("sl2r").brackets


def test_load_algebra_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 3, "basis": [')
    with pytest.raises(LieAlgebraFormatError) as err:
        load_algebra(path)
    assert "line" in str(err.value) and "column" in str(err.value)

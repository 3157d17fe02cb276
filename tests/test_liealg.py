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

from oracles import basis_bracket, dense_killing_form, dense_violations, random_structure
from test_higher_rank import rebased_sl3, sl3, so4, sp4

F = Fraction


def diag(*entries):
    n = len(entries)
    return [[F(entries[i]) if i == j else F(0) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name,n", [("sl2r", None), ("so3", None), ("heisenberg", 1), ("heisenberg", 2), ("heisenberg", 3)])
def test_builtins_validate_clean(name, n):
    assert validate(builtin(name, n)).ok


def test_constructed_antisymmetry_violation():
    bad = LieAlgebra(("a", "b", "c"), {(0, 1, 2): F(1), (1, 0, 2): F(1)})
    report = validate(bad)
    assert not report.ok
    assert report.violations[0].kind == "antisymmetry"
    assert report.violations[0].indices == (0, 1, 2)


def test_diagonal_bracket_violation():
    bad = LieAlgebra(("a", "b"), {(0, 0, 1): F(1)})
    report = validate(bad)
    assert [v.kind for v in report.violations] == ["antisymmetry"]


def test_jacobi_violation_detected():
    # antisymmetric, but [[c,a],b] = a while the other two cyclic terms vanish
    bad = LieAlgebra.from_brackets(
        ("a", "b", "c"), {(0, 1): {2: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}}
    )
    report = validate(bad)
    assert any(v.kind == "jacobi" for v in report.violations)


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
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(300):
        d = rng.randint(2, 6)
        algebra = LieAlgebra(tuple(f"b{i}" for i in range(d)), random_structure(rng, d))
        assert_matches_dense_oracle(algebra)
        kinds.update(v.kind for v in validate(algebra).violations)
        kinds.update("diagonal" for i, j, k in algebra.structure if i == j)
    assert kinds == {"antisymmetry", "jacobi", "diagonal"}


def test_is_semisimple_rejects_invalid_algebra():
    bad = LieAlgebra(("a", "b", "c"), {(0, 1, 2): F(1), (1, 0, 2): F(1)})
    with pytest.raises(InvalidLieAlgebraError):
        is_semisimple(bad)


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


def test_from_brackets_conflict_detection():
    with pytest.raises(LieAlgebraFormatError):
        LieAlgebra.from_brackets(("a", "b"), {(0, 1): {0: 1}, (1, 0): {0: 1}})
    # a consistent double definition is accepted
    L = LieAlgebra.from_brackets(("a", "b"), {(0, 1): {0: 1}, (1, 0): {0: -1}})
    assert basis_bracket(L, 0, 1) == {0: F(1)}
    with pytest.raises(LieAlgebraFormatError):
        LieAlgebra.from_brackets(("a", "b"), {(0, 0): {1: 1}})


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
    assert L.structure == ref.structure
    assert validate(L).ok


def test_json_rational_coefficients():
    data = {
        "dim": 2,
        "basis": ["a", "b"],
        "brackets": [{"i": "a", "j": "b", "terms": [{"k": "a", "coeff": "-3/2"}]}],
    }
    L = lie_algebra_from_dict(data)
    assert L.structure == {(0, 1, 0): F(-3, 2), (1, 0, 0): F(3, 2)}
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
    assert load_algebra(path).structure == builtin("sl2r").structure


def test_load_algebra_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 3, "basis": [')
    with pytest.raises(LieAlgebraFormatError) as err:
        load_algebra(path)
    assert "line" in str(err.value) and "column" in str(err.value)

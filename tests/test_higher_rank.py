"""prop1 beyond rank 1: sl3, so4, sp4 and sl4 built from matrix units.

By Chevalley's theorem the invariants of a semisimple algebra of rank r
form a polynomial ring on r generators of degrees (d1, ..., dr), so the
center of the free Poisson algebra has dimension
[t^n] 1/((1-t^d1)...(1-t^dr)) in degree n, and the bracket span fills the
rest.  The Borel subalgebras of sl3 and sl4 are solvable and are the
controls that must fail.
"""

import json
import random
from fractions import Fraction

import pytest

from liepoisson.cli import EXIT_FAIL, EXIT_PASS, main
from liepoisson.liealg import LieAlgebra, is_semisimple, validate
from liepoisson.structure import verify_prop1

from oracles import rref


def unit(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i][j] = 1
    return m


def combo(*terms):
    """sum of c * M over the (c, M) pairs."""
    n = len(terms[0][1])
    return [[sum(c * m[r][s] for c, m in terms) for s in range(n)] for r in range(n)]


def matrix_algebra(names, mats):
    """The Lie algebra spanned by linearly independent matrices under the
    commutator, with structure constants solved by the oracle's elimination."""
    n = len(mats[0])
    flat = [[Fraction(m[r][s]) for r in range(n) for s in range(n)] for m in mats]

    def coordinates(x):
        aug = [[v[p] for v in flat] + [x[p]] for p in range(n * n)]
        reduced, pivots = rref(aug)
        assert pivots == list(range(len(flat))), "commutator left the span"
        return [reduced[r][-1] for r in range(len(flat))]

    brackets = {}
    for i, a in enumerate(mats):
        for j, b in enumerate(mats[i + 1:], i + 1):
            ab = [sum(a[r][t] * b[t][s] - b[r][t] * a[t][s] for t in range(n)) for r in range(n) for s in range(n)]
            brackets[(i, j)] = dict(enumerate(coordinates(ab)))
    return LieAlgebra(tuple(names), brackets)


def sl_matrices(n):
    """Names and matrices of sl(n): the units e_ij off the diagonal, then
    h_i = e_ii - e_(i+1)(i+1)."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    mats = [unit(n, i, j) for i, j in off]
    mats += [combo((1, unit(n, i, i)), (-1, unit(n, i + 1, i + 1))) for i in range(n - 1)]
    return [f"e{i + 1}{j + 1}" for i, j in off] + [f"h{i + 1}" for i in range(n - 1)], mats


def sl3():
    return matrix_algebra(*sl_matrices(3))


def sl4():
    return matrix_algebra(*sl_matrices(4))


def so4():
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return matrix_algebra(
        [f"a{i + 1}{j + 1}" for i, j in pairs],
        [combo((1, unit(4, i, j)), (-1, unit(4, j, i))) for i, j in pairs],
    )


def sp4():
    # [[A, B], [C, -A^T]] with B and C symmetric preserves J = [[0, I], [-I, 0]]
    names, mats = [], []
    for i in range(2):
        for j in range(2):
            names.append(f"a{i + 1}{j + 1}")
            mats.append(combo((1, unit(4, i, j)), (-1, unit(4, 2 + j, 2 + i))))
    for block, (r, s) in (("b", (0, 2)), ("c", (2, 0))):
        for i, j in ((0, 0), (0, 1), (1, 1)):
            names.append(f"{block}{i + 1}{j + 1}")
            m = unit(4, r + i, s + j)
            mats.append(m if i == j else combo((1, m), (1, unit(4, r + j, s + i))))
    return matrix_algebra(names, mats)


def borel(n):
    """The upper triangular subalgebra of sl(n): the e_ij with i < j and the h_i."""
    names, mats = sl_matrices(n)
    keep = [k for k, name in enumerate(names) if name[0] == "h" or name[1] < name[2]]
    return matrix_algebra([names[k] for k in keep], [mats[k] for k in keep])


def rebased_sl3(seed=1, ops=3):
    """sl3 in the basis e'_a = sum_i u[a][i] e_i for a seeded unimodular
    integer matrix u, a product of ``ops`` elementary row operations, so the
    structure constants fill in as ``ops`` grows."""
    names, mats = sl_matrices(3)
    rng = random.Random(seed)
    u = [[int(i == j) for j in range(8)] for i in range(8)]
    for _ in range(ops):
        a, b = rng.sample(range(8), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[a] = [x + c * y for x, y in zip(u[a], u[b])]
    rebased = [combo(*((u[a][i], mats[i]) for i in range(8) if u[a][i])) for a in range(8)]
    return matrix_algebra([f"u{a}" for a in range(8)], rebased)


def series_coefficient(n, *degrees):
    """[t^n] 1/((1 - t^d1)...(1 - t^dr)): the ways to write n as a
    non-negative combination of the degrees."""
    if not degrees:
        return int(n == 0)
    d, rest = degrees[0], degrees[1:]
    return sum(series_coefficient(n - a * d, *rest) for a in range(n // d + 1))


# name: (builder, invariant degrees, max degree)
PROP1_CASES = {
    "sl3": (sl3, (2, 3), 5),
    "so4": (so4, (2, 2), 6),
    "sp4": (sp4, (2, 4), 4),
    "sl4": (sl4, (2, 3, 4), 5),
    "sl3-unimodular-basis-change": (rebased_sl3, (2, 3), 4),
    # non-sparse bases: with generator-major operator columns, or rows
    # inserted from the top monomial down, the [D | I] elimination fills in;
    # with a derived span that is not fully reduced, each bracket it already
    # holds is cleared in a cascade (23-37 s to degree 6 on eight operations,
    # against about 1.5 s fully reduced)
    "sl3-four-operations": (lambda: rebased_sl3(seed=2, ops=4), (2, 3), 5),
    "sl3-eight-operations": (lambda: rebased_sl3(seed=2, ops=8), (2, 3), 6),
}


@pytest.mark.parametrize("build,degrees,max_degree", list(PROP1_CASES.values()), ids=list(PROP1_CASES))
def test_prop1_center_dims_follow_the_invariant_degrees(build, degrees, max_degree):
    algebra = build()
    assert validate(algebra).ok
    report = verify_prop1(algebra, max_degree)
    assert report.verdict == "pass"
    for n, record in enumerate(report.records):
        dims = record["dims"]
        assert dims["center"] == series_coefficient(n, *degrees)
        assert dims["derived"] == dims["ambient"] - dims["center"]


def test_series_coefficient_at_the_sl4_degrees():
    assert [series_coefficient(n, 2, 3, 4) for n in range(6)] == [1, 0, 1, 1, 2, 1]


def test_borel_subalgebra_of_sl4_fails_prop1():
    b = borel(4)
    assert b.dim == 9
    assert validate(b).ok and not is_semisimple(b)
    assert verify_prop1(b, 2).verdict == "fail"


def test_borel_subalgebra_of_sl3_fails_prop1(tmp_path, capsys):
    b = borel(3)
    assert validate(b).ok and not is_semisimple(b)
    assert verify_prop1(b, 2).verdict == "fail"
    names = b.names
    brackets = [
        {"i": names[i], "j": names[j], "terms": [{"k": names[k], "coeff": str(c)} for k, c in row.items()]}
        for (i, j), row in b.brackets.items() if i < j
    ]
    path = tmp_path / "borel.json"
    path.write_text(json.dumps({"dim": b.dim, "basis": list(names), "brackets": brackets}))
    assert main(["verify", "prop1", "--algebra", str(path), "--max-degree", "2"]) == EXIT_FAIL
    assert "overall: fail" in capsys.readouterr().out


def test_prop1_on_heisenberg_of_dimension_33_validates_quickly(capsys):
    # A Jacobi check over dense indices costs O(d^5), about 105 s at d = 33 on
    # CPython 3.11; CI runs this file under a 60-s timeout, so that fails here.
    assert main(["verify", "prop1", "--algebra", "heisenberg", "--n", "16", "--max-degree", "0"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "algebra is not semisimple" in out and "overall: pass" in out

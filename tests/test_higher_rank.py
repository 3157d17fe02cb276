"""prop1 beyond rank 1: sl3, so4 and sp4 built from matrix units.

By Chevalley's theorem the invariants of a semisimple algebra of rank 2
form a polynomial ring on two generators of degrees (d1, d2), so the
center of the free Poisson algebra has dimension [t^n] 1/((1-t^d1)(1-t^d2))
in degree n, and the bracket span fills the rest.  The Borel subalgebra of
sl3 is solvable and is the control that must fail.
"""

import json
import random
from fractions import Fraction

import pytest

from liepoisson.cli import EXIT_FAIL, main
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

    structure = {}
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            ab = [sum(a[r][t] * b[t][s] - b[r][t] * a[t][s] for t in range(n)) for r in range(n) for s in range(n)]
            for k, c in enumerate(coordinates(ab)):
                if c:
                    structure[(i, j, k)] = c
    return LieAlgebra(tuple(names), structure)


def sl3_matrices():
    off = [(i, j) for i in range(3) for j in range(3) if i != j]
    mats = [unit(3, i, j) for i, j in off]
    mats += [combo((1, unit(3, 0, 0)), (-1, unit(3, 1, 1))), combo((1, unit(3, 1, 1)), (-1, unit(3, 2, 2)))]
    return [f"e{i + 1}{j + 1}" for i, j in off] + ["h1", "h2"], mats


def sl3():
    return matrix_algebra(*sl3_matrices())


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


def sl3_borel():
    names, mats = sl3_matrices()
    keep = [k for k, name in enumerate(names) if name in ("e12", "e13", "e23", "h1", "h2")]
    return matrix_algebra([names[k] for k in keep], [mats[k] for k in keep])


def rebased_sl3(seed=1, ops=3):
    """sl3 in the basis e'_a = sum_i u[a][i] e_i for a seeded unimodular
    integer matrix u, a product of ``ops`` elementary row operations, so the
    structure constants fill in as ``ops`` grows."""
    names, mats = sl3_matrices()
    rng = random.Random(seed)
    u = [[int(i == j) for j in range(8)] for i in range(8)]
    for _ in range(ops):
        a, b = rng.sample(range(8), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[a] = [x + c * y for x, y in zip(u[a], u[b])]
    rebased = [combo(*((u[a][i], mats[i]) for i in range(8) if u[a][i])) for a in range(8)]
    return matrix_algebra([f"u{a}" for a in range(8)], rebased)


def series_coefficient(n, d1, d2):
    """[t^n] 1/((1 - t^d1)(1 - t^d2))."""
    return sum(1 for a in range(n // d1 + 1) if (n - a * d1) % d2 == 0)


@pytest.mark.parametrize(
    "build,degrees,max_degree",
    [
        (sl3, (2, 3), 5),
        (so4, (2, 2), 6),
        (sp4, (2, 4), 4),
        (rebased_sl3, (2, 3), 4),
        # non-sparse bases: with generator-major operator columns the [D | I]
        # elimination fills in, and these two take over a minute together
        (lambda: rebased_sl3(seed=2, ops=4), (2, 3), 4),
        (lambda: rebased_sl3(seed=2, ops=8), (2, 3), 4),
    ],
    ids=["sl3", "so4", "sp4", "sl3-unimodular-basis-change", "sl3-four-operations", "sl3-eight-operations"],
)
def test_prop1_center_dims_follow_the_invariant_degrees(build, degrees, max_degree):
    algebra = build()
    assert validate(algebra).ok
    report = verify_prop1(algebra, max_degree)
    assert report.verdict == "pass"
    for n, record in enumerate(report.records):
        dims = record["dims"]
        assert dims["center"] == series_coefficient(n, *degrees)
        assert dims["derived"] == dims["ambient"] - dims["center"]


def test_borel_subalgebra_of_sl3_fails_prop1(tmp_path, capsys):
    borel = sl3_borel()
    assert validate(borel).ok and not is_semisimple(borel)
    assert verify_prop1(borel, 2).verdict == "fail"
    names = borel.names
    terms = {}
    for (i, j, k), c in sorted(borel.structure.items()):
        if i < j:
            terms.setdefault((i, j), []).append({"k": names[k], "coeff": str(c)})
    brackets = [{"i": names[i], "j": names[j], "terms": t} for (i, j), t in terms.items()]
    path = tmp_path / "borel.json"
    path.write_text(json.dumps({"dim": borel.dim, "basis": list(borel.names), "brackets": brackets}))
    assert main(["verify", "prop1", "--algebra", str(path), "--max-degree", "2"]) == EXIT_FAIL
    assert "overall: fail" in capsys.readouterr().out

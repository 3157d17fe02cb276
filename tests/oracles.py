"""Independent reference computations used to check the package.

Everything here deliberately avoids the package's elimination and bracket
code paths: rank and kernels use plain rational Gauss-Jordan, the
bracket oracle expands recursively through the product rule instead of the
closed bidifferential formula, and normal forms come from the textbook
division loop instead of the package's memoized reducer.  Polynomial
arithmetic here runs on ``Fraction`` coefficient dicts (``terms_add``,
``terms_scale``, ``terms_mul``), so a ``Polynomial`` is read only through
its ``terms`` and built only through its constructor.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from liepoisson.liealg import LieAlgebra
from liepoisson.poly import Monomial, Polynomial


def rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by textbook rational elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        m[r] = [a / piv for a in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rref_rank(matrix: list[list[Fraction]]) -> int:
    return len(rref(matrix)[1])


def basis_bracket(algebra: LieAlgebra, i: int, j: int) -> dict[int, Fraction]:
    """Nonzero coefficients of [xi_i, xi_j], read from ``algebra.brackets``."""
    return dict(algebra.brackets.get((i, j), {}))


def ad_matrix(algebra: LieAlgebra, i: int) -> list[list[Fraction]]:
    """ad xi_i as a dense matrix: column l holds the coordinates of [xi_i, xi_l]."""
    d = algebra.dim
    return [[basis_bracket(algebra, i, l).get(k, Fraction(0)) for l in range(d)] for k in range(d)]


def dense_killing_form(algebra: LieAlgebra) -> list[list[Fraction]]:
    """B[i][j] = trace(ad xi_i ad xi_j), by explicit dense matrix products."""
    d = algebra.dim
    ads = [ad_matrix(algebra, i) for i in range(d)]
    return [
        [sum((ads[i][k][l] * ads[j][l][k] for k in range(d) for l in range(d)), Fraction(0)) for j in range(d)]
        for i in range(d)
    ]


def dense_violations(algebra: LieAlgebra) -> list[tuple[str, tuple[int, ...], str]]:
    """(kind, indices, detail) of every antisymmetry and Jacobi violation, by
    dense index scans over ``algebra.brackets``.

    Antisymmetry comes first, in the lexicographic scan over (i, j, k): a
    nonzero diagonal constant at (i, i, k), and a pair i != j whose sum
    c(i,j,k) + c(j,i,k) is nonzero where the scan first meets a nonzero
    constant of it.  The constructor completes every table antisymmetrically,
    so on a ``LieAlgebra`` this scan must find nothing; it stays as an
    independent check of that invariant.  Jacobi follows, by triple
    i < j < k, then coordinate l.
    """
    d = algebra.dim
    c = [[[basis_bracket(algebra, i, j).get(k, Fraction(0)) for k in range(d)] for j in range(d)] for i in range(d)]
    out = []
    for i, j, k in product(range(d), repeat=3):
        s = c[i][j][k] + c[j][i][k]
        if i == j and c[i][i][k]:
            out.append(("antisymmetry", (i, i, k), f"c({i},{i},{k}) = {c[i][i][k]} is nonzero"))
        elif i != j and c[i][j][k] and (i < j or not c[j][i][k]) and s:
            lo, hi = min(i, j), max(i, j)
            out.append(("antisymmetry", (lo, hi, k), f"c({lo},{hi},{k}) + c({hi},{lo},{k}) = {s}"))
    for i, j, k in combinations(range(d), 3):
        for l in range(d):
            s = sum(
                (c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l] + c[k][i][m] * c[m][j][l] for m in range(d)),
                Fraction(0),
            )
            if s:
                out.append(("jacobi", (i, j, k, l), f"Jacobi sum at ({i},{j},{k}) in coordinate {l} is {s}"))
    return out


def random_brackets(rng: random.Random, d: int) -> dict[tuple[int, int], dict[int, Fraction]]:
    """A raw bracket table {(i, j): {k: c}} on d basis elements: antisymmetric
    brackets on random pairs (so Jacobi can fail), then a few arbitrary
    entries, which may be diagonal, break antisymmetry or cancel an entry to
    zero against a nonzero reverse."""
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for _ in range(rng.randint(0, 2 * d)):
        i, j, k = rng.sample(range(d), 2) + [rng.randrange(d)]
        c = Fraction(rng.choice(COEFF_NUMERATORS), rng.choice(COEFF_DENOMINATORS))
        table.setdefault((i, j), {})[k] = c
        table.setdefault((j, i), {})[k] = -c
    for _ in range(rng.randint(0, 3)):
        table.setdefault((rng.randrange(d), rng.randrange(d)), {})[rng.randrange(d)] = Fraction(rng.randint(-2, 2))
    return table


def mat_vec(a: list[list[Fraction]], x: list[Fraction]) -> list[Fraction]:
    return [sum((row[j] * x[j] for j in range(len(x))), Fraction(0)) for row in a]


def system_is_solvable(a: list[list[Fraction]], b: list[Fraction]) -> bool:
    return rref_rank(a) == rref_rank([row + [bv] for row, bv in zip(a, b)])


def free_zero_solution(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """The solution of ``a @ x = b`` with every free variable zero, or None."""
    n = len(a[0])
    reduced, pivots = rref([row + [bv] for row, bv in zip(a, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = reduced[r][n]
    return x


def kernel_basis(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Canonical kernel basis: one vector per free column, other free entries zero."""
    n = len(a[0])
    reduced, pivots = rref(a)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            x[c] = -reduced[r][fc]
        basis.append(x)
    return basis


Terms = dict[Monomial, Fraction]


def terms_add(a: Terms, b: Terms) -> Terms:
    """Sum of two coefficient dicts, without zero coefficients."""
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def terms_scale(a: Terms, c: Fraction) -> Terms:
    return {m: c * x for m, x in a.items()} if c else {}


def graded_component(p: Polynomial, n: int) -> Polynomial:
    """The terms of ``p`` of total degree ``n``, on ``Fraction`` coefficient dicts."""
    return Polynomial(p.nvars, {m: c for m, c in p.terms.items() if sum(m) == n})


def terms_mul(a: Terms, b: Terms) -> Terms:
    """Product of two coefficient dicts, term pair by term pair."""
    out: Terms = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def assert_canonical(p: Polynomial) -> None:
    """The stored form: nonzero int numerators over a positive int
    denominator, with no common factor."""
    assert type(p.den) is int and p.den > 0
    assert all(type(a) is int and a for a in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1


def leibniz_bracket(algebra: LieAlgebra, f: Polynomial, g: Polynomial) -> Polynomial:
    """Free Lie-Poisson bracket by recursive product-rule expansion, on
    ``Fraction`` coefficient dicts."""
    n = algebra.dim

    def var_mono(i: int) -> Monomial:
        exps = [0] * n
        exps[i] = 1
        return tuple(exps)

    memo: dict[tuple[Monomial, Monomial], Terms] = {}

    def mono(ma: Monomial, mb: Monomial) -> Terms:
        key = (ma, mb)
        if key in memo:
            return memo[key]
        da, db = sum(ma), sum(mb)
        if da == 0 or db == 0:
            res = {}
        elif da == 1 and db == 1:
            res = {var_mono(k): c for k, c in basis_bracket(algebra, ma.index(1), mb.index(1)).items()}
        elif da == 1:
            res = terms_scale(mono(mb, ma), Fraction(-1))
        else:
            i = next(k for k, e in enumerate(ma) if e)
            rest = list(ma)
            rest[i] -= 1
            rest_m = tuple(rest)
            res = terms_add(
                terms_mul({var_mono(i): Fraction(1)}, mono(rest_m, mb)),
                terms_mul({rest_m: Fraction(1)}, mono(var_mono(i), mb)),
            )
        memo[key] = res
        return res

    out: Terms = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            out = terms_add(out, terms_scale(mono(ma, mb), ca * cb))
    return Polynomial(n, out)


def graded_lex_key(m: Monomial) -> tuple:
    """Graded lexicographic sort key: total degree, then the exponents from
    the last variable to the first."""
    return (sum(m), tuple(reversed(m)))


def divides(a: Monomial, b: Monomial) -> bool:
    """Whether ``x^a`` divides ``x^b``."""
    return all(x <= y for x, y in zip(a, b))


def exponent_difference(a: Monomial, b: Monomial) -> Monomial:
    """The exponents of ``x^a / x^b``, for ``x^b`` dividing ``x^a``."""
    return tuple(x - y for x, y in zip(a, b))


def division_normal_form(f: Polynomial, divisor: Polynomial) -> Polynomial:
    """Remainder of ``f`` by repeatedly eliminating its largest reducible
    monomial in the graded lexicographic order, on ``Fraction`` coefficient
    dicts."""
    tail = divisor.terms
    lm = max(tail, key=graded_lex_key)
    lc = tail.pop(lm)
    work = f.terms
    while True:
        reducible = [m for m in work if divides(lm, m)]
        if not reducible:
            return Polynomial(f.nvars, work)
        m = max(reducible, key=graded_lex_key)
        c = work.pop(m)
        # m maps to -(c/lc) * x^u * tail, which is strictly smaller in the order
        work = terms_add(work, terms_mul({exponent_difference(m, lm): -c / lc}, tail))


# Divisors over (x, y, z) that the normal-form tests reduce modulo: the
# hyperboloid, a rational level (non-integer tail), the cone, the so3 sphere,
# the Heisenberg central level z = 1 in the basis (q, p, z), and a divisor
# that is no orbit relation but whose tail mixes reducible and normal terms
# with different denominators.
NORMAL_FORM_RELATIONS = [
    "x^2 + y^2 - z^2 - 1",
    "x^2 + y^2 - z^2 - 1/2",
    "x^2 + y^2 - z^2",
    "x^2 + y^2 + z^2 - 1",
    "z - 1",
    "2*z^2 + x*z - 1/3*y",
]


COEFF_NUMERATORS = [-4, -3, -2, -1, 1, 2, 3, 4]
COEFF_DENOMINATORS = [1, 1, 2, 3]


def random_monomial(rng: random.Random, nvars: int, max_degree: int) -> Monomial:
    exps = [0] * nvars
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_polynomial(rng: random.Random, nvars: int, max_degree: int, max_terms: int = 4) -> Polynomial:
    terms: Terms = {}
    for _ in range(rng.randint(0, max_terms)):
        c = Fraction(rng.choice(COEFF_NUMERATORS), rng.choice(COEFF_DENOMINATORS))
        terms = terms_add(terms, {random_monomial(rng, nvars, max_degree): c})
    return Polynomial(nvars, terms)


def nonzero_random_polynomial(rng: random.Random, nvars: int, max_degree: int, max_terms: int = 4) -> Polynomial:
    while True:
        p = random_polynomial(rng, nvars, max_degree, max_terms)
        if p:
            return p

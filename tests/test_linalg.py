"""Exact linear algebra: frozen examples plus oracle cross-checks."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepoisson.linalg import RowBasis, nullspace, row_space_intersection, solve_linear

from oracles import free_zero_solution, kernel_basis, mat_vec, rref, rref_rank, system_is_solvable

F = Fraction


def fr(rows):
    return [[F(x) for x in row] for row in rows]


def pairs(row):
    """The (column, nonzero int) pairs that RowBasis takes for a dense rational
    row, scaled by the lcm of its denominators (which leaves its span as it is)."""
    scale = lcm(*(F(a).denominator for a in row))
    return [(j, int(a * scale)) for j, a in enumerate(row) if a]


def basis_of(rows):
    rb = RowBasis(len(rows[0]))
    for row in rows:
        rb.insert(pairs(row))
    return rb


def test_rank_proportional_rows():
    assert basis_of(fr([[1, 2], [2, 4]])).rank == 1


def test_rank_zero_matrix():
    assert basis_of(fr([[0, 0, 0]] * 3)).rank == 0


def test_rank_identity():
    eye = fr([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert basis_of(eye).rank == 4


def test_in_span_examples():
    assert not basis_of(fr([[1, 0]])).contains([(1, 1)])
    assert basis_of(fr([[1, 2]])).contains([(0, 2), (1, 4)])
    assert basis_of(fr([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).contains([(0, 1), (1, 1), (2, 1)])


def test_solve_identity_system():
    a = fr([[1, 0], [0, 1]])
    assert solve_linear(a, [F(3), F(-1, 2)]) == [F(3), F(-1, 2)]


def test_solve_inconsistent_duplicate_rows():
    assert solve_linear(fr([[1, 1], [1, 1]]), [F(0), F(1)]) is None


def test_solve_scalar_division():
    assert solve_linear(fr([[2]]), [F(1)]) == [F(1, 2)]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(fr([[1, 2]]), [F(1), F(2)])


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    return [[draw(fractions_st) for _ in range(cols)] for _ in range(rows)]


@given(matrices())
@settings(deadline=None)
def test_rank_matches_oracle_and_transpose(m):
    r = basis_of(m).rank
    assert r == rref_rank(m)
    transpose = [list(col) for col in zip(*m)]
    assert r == basis_of(transpose).rank


@given(matrices(), st.data())
@settings(deadline=None)
def test_in_span_iff_rank_unchanged(m, data):
    cols = len(m[0])
    v = data.draw(st.lists(fractions_st, min_size=cols, max_size=cols))
    rb = basis_of(m)
    member = rb.contains(pairs(v))
    assert member == (rref_rank(m + [v]) == rref_rank(m))
    assert rb.insert(pairs(v)) is not member
    assert rb.rank == rref_rank(m + [v])


@given(matrices(), st.data())
@settings(deadline=None)
def test_solve_is_exact_and_complete(m, data):
    rows = len(m)
    b = data.draw(st.lists(fractions_st, min_size=rows, max_size=rows))
    x = solve_linear(m, b)
    if x is None:
        assert not system_is_solvable(m, b)
    else:
        assert mat_vec(m, x) == [F(v) for v in b]


@given(matrices())
@settings(deadline=None)
def test_nullspace_vectors_annihilate(m):
    basis = nullspace(m)
    cols = len(m[0])
    assert len(basis) == cols - rref_rank(m)
    for v in basis:
        assert mat_vec(m, v) == [F(0)] * len(m)


@given(matrices())
@settings(deadline=None)
def test_rowbasis_membership_matches_in_span(m):
    rb = basis_of(m)
    assert rb.rank == rref_rank(m)
    for row in m:
        assert rb.contains(pairs(row))


@given(matrices(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_reduced_rows_canonical_under_insertion_order(m, rng):
    rb1 = RowBasis(len(m[0]))
    for row in m:
        rb1.insert(pairs(row))
    shuffled = list(m)
    rng.shuffle(shuffled)
    rb2 = RowBasis(len(m[0]))
    for row in shuffled:
        rb2.insert(pairs(row))
    assert rb1.reduced_rows() == rb2.reduced_rows()


@pytest.mark.parametrize(
    "row",
    [[(3, 1)], [(-1, 1)]],
    ids=["column-at-width", "negative-column"],
)
def test_rowbasis_rejects_column_outside_width(row):
    rb = RowBasis(3)
    for method in (rb.insert, rb.contains):
        with pytest.raises(ValueError):
            method(row)
    assert rb.rank == 0


def test_rowbasis_rejects_zero_value():
    rb = RowBasis(3)
    for method in (rb.insert, rb.contains):
        with pytest.raises(ValueError):
            method([(0, 1), (2, 0)])
    assert rb.rank == 0


def test_rowbasis_rejects_repeated_column():
    rb = RowBasis(3)
    for method in (rb.insert, rb.contains):
        with pytest.raises(ValueError):
            method([(1, 1), (1, 2)])
    assert rb.rank == 0


@pytest.mark.parametrize(
    "row,message",
    [([(0, 1), (2, F(1, 2))], "not an int"), ([(0, 1), (2, F(2))], "not an int"), ([(0, F(0))], "zero value")],
    ids=["fraction", "integral-fraction", "zero-fraction"],
)
def test_rowbasis_takes_nonzero_int_entries_only(row, message):
    rb = RowBasis(3)
    rb.insert([(1, 1)])
    for method in (rb.insert, rb.contains):
        with pytest.raises(ValueError, match=message):
            method(row)
    assert rb.rank == 1


def test_rowbasis_tail_spans_rows_vanishing_before_the_split():
    rb = RowBasis(4)
    for row in ([(0, 1), (2, 1)], [(0, 1), (3, 2)], [(1, 1), (2, 2)]):
        rb.insert(row)
    # the rows vanishing on columns 0 and 1 form the line through (1, -2)
    tail = RowBasis(2)
    for row in rb.tail(2):
        tail.insert(row)
    assert tail.reduced_rows() == [[F(1), F(-2)]]


SMALL_NONZERO = sorted({F(n, d) for n in (-4, -3, -2, -1, 1, 2, 3, 4) for d in (1, 2, 3)})
small_nonzero_st = st.sampled_from(SMALL_NONZERO)
small_st = st.sampled_from([F(0)] + SMALL_NONZERO)


@st.composite
def sparse_matrices(draw):
    """Wide matrices with 1-3 nonzeros per row, the shape span claims produce."""
    cols = draw(st.integers(20, 60))
    entries = st.tuples(st.integers(0, cols - 1), small_nonzero_st)
    m = []
    for _ in range(draw(st.integers(1, 30))):
        row = [F(0)] * cols
        for j, a in draw(st.lists(entries, min_size=1, max_size=3, unique_by=lambda e: e[0])):
            row[j] = a
        m.append(row)
    return m


@given(sparse_matrices())
@settings(deadline=None, max_examples=50)
def test_sparse_reduced_rows_match_oracle_rref(m):
    rb = RowBasis(len(m[0]))
    for row in m:
        rb.insert(pairs(row))
    reduced, pivots = rref(m)
    assert rb.reduced_rows() == reduced[: len(pivots)]


@given(sparse_matrices(), st.data())
@settings(deadline=None, max_examples=50)
def test_sparse_solve_matches_oracle_free_zero_solution(m, data):
    if data.draw(st.booleans()):
        b = data.draw(st.lists(small_st, min_size=len(m), max_size=len(m)))
    else:
        x = data.draw(st.lists(small_st, min_size=len(m[0]), max_size=len(m[0])))
        b = mat_vec(m, x)
    solution = solve_linear(m, b)
    assert (solution is None) == (not system_is_solvable(m, b))
    assert solution == free_zero_solution(m, b)


@given(sparse_matrices())
@settings(deadline=None, max_examples=50)
def test_sparse_nullspace_matches_oracle_kernel_basis(m):
    assert nullspace(m) == kernel_basis(m)


@given(sparse_matrices(), st.data())
@settings(deadline=None, max_examples=50)
def test_queries_leave_both_operands_unchanged(m, data):
    # rows are reduced in place, so no query may write to a stored row, and
    # the rows tail hands out must not change under later inserts
    split = data.draw(st.integers(0, len(m)))
    a, b = RowBasis(len(m[0])), RowBasis(len(m[0]))
    for row in m[:split]:
        a.insert(pairs(row))
    for row in m[split:]:
        b.insert(pairs(row))
    before = [(rb.rank, rb.rref()) for rb in (a, b)]
    tail = a.tail(data.draw(st.integers(0, len(m[0]))))
    tail_before = [list(row) for row in tail]
    for row in m:
        a.contains(pairs(row))
        b.contains(pairs(row))
    a.rref()
    b.rref()
    a.sum_and_intersection(b)
    b.sum_and_intersection(a)
    assert [(rb.rank, rb.rref()) for rb in (a, b)] == before
    assert all(a.contains(pairs(row)) for row in m[:split])
    for row in m[split:]:
        a.insert(pairs(row))
    assert tail == tail_before


def assert_fully_reduced(rb):
    """No stored row has an entry in another row's pivot column, and the
    column index lists exactly the stored rows that have each column."""
    for p, row in rb._rows.items():
        assert min(row) == p
        assert not any(j in rb._rows for j in row if j != p)
    index = {}
    for p, row in rb._rows.items():
        for j in row:
            index.setdefault(j, set()).add(p)
    assert {j: ps for j, ps in rb._cols.items() if ps} == index


def monic(rb):
    """``rb.rref()`` with each row divided by its pivot entry: the canonical
    reduced echelon form, which fixes the sign ``rref()`` leaves open."""
    return {p: {j: F(a, row[p]) for j, a in row.items()} for p, row in rb.rref().items()}


def spanned(width, rows):
    rb = RowBasis(width)
    for row in rows:
        rb.insert(row)
    return monic(rb)


@given(sparse_matrices(), st.data())
@settings(deadline=None, max_examples=50)
def test_full_and_semi_reduced_insertion_agree_with_the_oracle(m, data):
    cols = len(m[0])
    semi, full = RowBasis(cols), RowBasis(cols, full=True)
    for row in m:
        assert full.insert(pairs(row)) is semi.insert(pairs(row))
        assert_fully_reduced(full)
    reduced, pivots = rref(m)
    assert full.rank == semi.rank == len(pivots)
    assert monic(full) == monic(semi)
    assert full.reduced_rows() == semi.reduced_rows() == reduced[: len(pivots)]
    # fully reduced, the stored rows are the back-substituted ones as they stand
    assert full.rref() == dict(sorted(full._rows.items()))
    probes = [pairs(row) for row in m]
    probes += [pairs(data.draw(st.lists(small_st, min_size=cols, max_size=cols))) for _ in range(3)]
    for v in probes:
        if v:
            assert full.contains(v) is semi.contains(v)
    k = data.draw(st.integers(0, cols))
    assert spanned(cols - k, full.tail(k)) == spanned(cols - k, semi.tail(k))


@given(sparse_matrices(), st.booleans())
@settings(deadline=None, max_examples=20)
def test_fill_stores_the_whole_space(m, full):
    cols = len(m[0])
    rb = RowBasis(cols, full)
    for row in m:
        rb.insert(pairs(row))
    rb.fill()
    assert rb.rank == cols
    assert monic(rb) == {j: {j: 1} for j in range(cols)}
    if full:
        assert_fully_reduced(rb)
    assert not rb.insert(pairs(m[0]))
    assert rb.contains([(j, 1) for j in range(cols)])


def test_row_space_intersection_planes():
    a = fr([[1, 0, 0], [0, 1, 0]])
    b = fr([[0, 1, 0], [0, 0, 1]])
    meet = row_space_intersection(a, b)
    assert meet == fr([[0, 1, 0]])


def test_row_space_intersection_trivial():
    a = fr([[1, 0]])
    b = fr([[0, 1]])
    assert row_space_intersection(a, b) == []


def test_row_space_intersection_dimension_mismatch():
    with pytest.raises(ValueError):
        row_space_intersection(fr([[1, 0]]), fr([[1]]))


@given(matrices(max_rows=10), st.data())
@settings(deadline=None)
def test_row_space_intersection_matches_oracle(m, data):
    split = data.draw(st.integers(1, len(m)))
    a, b = m[:split], m[split:]
    meet = row_space_intersection(a, b)
    reduced, pivots = rref(meet)
    assert meet == reduced[: len(pivots)]
    for row in meet:
        assert rref_rank(a + [row]) == rref_rank(a)
        assert rref_rank(b + [row]) == rref_rank(b)
    assert len(meet) == rref_rank(a) + rref_rank(b) - rref_rank(a + b)

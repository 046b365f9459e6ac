from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from spankit import ratlin


def oracle_rref(a):
    """Gauss-Jordan on dense Fraction rows: the elimination ratlin used
    before its integer kernel, kept as an independent reference."""
    r, c = ratlin.shape(a)
    m = [list(row) for row in a]
    pivots = []
    pr = 0
    for pc in range(c):
        pivot_row = None
        for i in range(pr, r):
            if m[i][pc] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        pv = m[pr][pc]
        m[pr] = [x / pv for x in m[pr]]
        for i in range(r):
            if i != pr and m[i][pc] != 0:
                f = m[i][pc]
                m[i] = [x - f * y for x, y in zip(m[i], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == r:
            break
    return tuple(tuple(row) for row in m), pivots


def matrices(rows=3, cols=3):
    entry = st.fractions(min_value=-5, max_value=5,
                         max_denominator=4)
    return st.integers(1, rows).flatmap(
        lambda r: st.integers(1, cols).flatmap(
            lambda c: st.lists(
                st.lists(entry, min_size=c, max_size=c),
                min_size=r, max_size=r).map(ratlin.mat)))


@st.composite
def oracle_matrices(draw, max_dim=5):
    """Matrices with zero rows or columns allowed, entries with
    denominators up to 10^6, and half of them of low rank: a product of
    an r x k and a k x c factor with k at most 2."""
    r, c = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        st.builds(Fraction, st.integers(-10**6, 10**6),
                  st.integers(1, 10**6)))

    def block(rows, cols):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        left, right = block(r, k), block(k, c)
        return tuple(tuple(sum((left[i][t] * right[t][j] for t in range(k)),
                               Fraction(0)) for j in range(c))
                     for i in range(r))
    return ratlin.mat(block(r, c))


def square_matrices(n=3):
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.integers(1, n).flatmap(
        lambda k: st.lists(
            st.lists(entry, min_size=k, max_size=k),
            min_size=k, max_size=k).map(ratlin.mat))


class TestBasics:
    def test_mat_normalizes_to_fractions(self):
        a = ratlin.mat([[1, 2], [3, 4]])
        assert all(isinstance(x, Fraction) for row in a for x in row)

    def test_matmul_example(self):
        a = ratlin.mat([[2], [3]])
        b = ratlin.mat([[1, 4]])
        assert ratlin.matmul(a, b) == ratlin.mat([[2, 8], [3, 12]])

    def test_matmul_shape_check(self):
        with pytest.raises(ValueError):
            ratlin.matmul(ratlin.identity(2), ratlin.zeros(3, 1))

    def test_kron_first_factor_major(self):
        a = ratlin.mat([[0, 1], [1, 0]])
        b = ratlin.identity(2)
        k = ratlin.kron(a, b)
        assert ratlin.shape(k) == (4, 4)
        assert k[0][2] == 1 and k[0][0] == 0

    def test_stacking(self):
        a = ratlin.mat([[1, 2]])
        b = ratlin.mat([[3, 4]])
        assert ratlin.vstack([a, b]) == ratlin.mat([[1, 2], [3, 4]])
        assert ratlin.hstack([a, b]) == ratlin.mat([[1, 2, 3, 4]])


class TestEchelon:
    def test_rank_examples(self):
        assert ratlin.rank(ratlin.identity(3)) == 3
        assert ratlin.rank(ratlin.mat([[1, 2], [2, 4]])) == 1
        assert ratlin.rank(ratlin.zeros(2, 2)) == 0

    @given(square_matrices())
    def test_inverse_roundtrip(self, a):
        n = len(a)
        if ratlin.rank(a) < n:
            assert not ratlin.is_invertible(a)
            return
        inv = ratlin.inverse(a)
        assert ratlin.matmul(a, inv) == ratlin.identity(n)
        assert ratlin.matmul(inv, a) == ratlin.identity(n)

    @given(matrices())
    def test_nullspace_annihilates(self, a):
        basis = ratlin.nullspace(a)  # columns span the kernel
        cols = len(a[0])
        r, k = ratlin.shape(basis)
        assert r == cols
        assert k == cols - ratlin.rank(a)
        if k:
            out = ratlin.matmul(a, basis)
            assert all(x == 0 for row in out for x in row)

    @given(matrices(), st.lists(st.fractions(min_value=-3, max_value=3,
                                             max_denominator=3),
                                min_size=3, max_size=3))
    def test_solve_consistent_systems(self, a, xs):
        cols = len(a[0])
        x = ratlin.mat([[v] for v in xs[:cols]] + [[0]] * max(0, cols - 3))
        b = ratlin.matmul(a, x)
        sol = ratlin.solve(a, b)
        assert sol is not None
        assert ratlin.matmul(a, sol) == b

    def test_solve_inconsistent(self):
        a = ratlin.mat([[1, 1], [1, 1]])
        b = ratlin.mat([[0], [1]])
        assert ratlin.solve(a, b) is None

    @given(matrices())
    def test_rref_pivots(self, a):
        r, pivots = ratlin.rref(a)
        for row, col in enumerate(pivots):
            assert r[row][col] == 1
            assert all(r[other][col] == 0
                       for other in range(len(r)) if other != row)


def _built_on_rref(a, b):
    """nullspace, solve against b and against a itself, and inverse (None
    when singular or not square) of a, all computed through ratlin.rref."""
    r, c = ratlin.shape(a)
    try:
        inv = ratlin.inverse(a) if r == c else None
    except ValueError:
        inv = None
    return ratlin.nullspace(a), ratlin.solve(a, b), ratlin.solve(a, a), inv


class TestAgainstOracle:
    """The integer kernel against the Fraction Gauss-Jordan it replaced:
    rref must agree exactly, and solve, nullspace and inverse, which are
    built on rref, must give what they give on top of the oracle."""

    @given(oracle_matrices(), st.data())
    def test_matches_fraction_gauss_jordan(self, a, data):
        r, c = ratlin.shape(a)
        want_r, want_pivots = oracle_rref(a)
        assert ratlin.rref(a) == (want_r, want_pivots)
        assert ratlin.rank(a) == len(want_pivots)
        assert ratlin.is_invertible(a) == (r == c and len(want_pivots) == r)
        b = ratlin.mat(data.draw(st.lists(
            st.lists(st.fractions(min_value=-9, max_value=9,
                                  max_denominator=10**6),
                     min_size=1, max_size=1), min_size=r, max_size=r)))
        got = _built_on_rref(a, b)
        with mock.patch.object(ratlin, "rref", oracle_rref):
            assert got == _built_on_rref(a, b)


@st.composite
def sparse_rows(draw, max_dim=5):
    """Sparse {column: rational} rows as the crw equation builders make
    them: keys in any order, explicit zero values (terms that cancelled),
    empty rows, and no rows at all; with the number of columns."""
    c = draw(st.integers(0, max_dim))
    entry = st.one_of(
        st.just(0), st.just(Fraction(0)), st.integers(-4, 4),
        st.fractions(min_value=-5, max_value=5, max_denominator=6))
    col = st.integers(0, c - 1) if c else st.nothing()
    rows = draw(st.lists(st.dictionaries(col, entry, max_size=c),
                         max_size=max_dim))
    return rows, c


class TestSparseRows:
    @given(sparse_rows())
    def test_sparse_rank_is_dense_rank(self, drawn):
        rows, c = drawn
        dense = tuple(tuple(Fraction(row.get(j, 0)) for j in range(c))
                      for row in rows)
        want = len(oracle_rref(dense)[1])
        assert ratlin.sparse_rank(rows) == ratlin.rank(dense) == want
        assert ratlin.sparse_rank(reversed(rows)) == want

    @given(sparse_rows())
    def test_sparse_rref_is_dense_rref(self, drawn):
        # the same pivots, and the same rows once each is divided by its
        # pivot, as ratlin.rref and the Gauss-Jordan oracle, in any row
        # order
        rows, c = drawn
        dense = tuple(tuple(Fraction(row.get(j, 0)) for j in range(c))
                      for row in rows)
        want, pivots = ratlin.rref(dense)
        assert oracle_rref(dense) == (want, pivots)
        for order in (rows, rows[::-1]):
            got, got_pivots = ratlin.sparse_rref(order)
            assert got_pivots == pivots
            assert [tuple(Fraction(row.get(j, 0), row[p]) for j in range(c))
                    for row, p in zip(got, got_pivots)] \
                == list(want[:len(pivots)])

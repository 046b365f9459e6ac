import hashlib
import itertools
import random
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


@st.composite
def product_factors(draw):
    """Two factors a, b for a b (r x k times k x c) with each of r, k, c
    either 1 or one n <= 5, so row, column and square factors all come
    up; entries are zeros, ints and fractions with denominators up to
    10^6, mixed in one matrix."""
    n = draw(st.integers(1, 5))
    r, k, c = (draw(st.sampled_from((1, n))) for _ in range(3))
    entry = st.one_of(
        st.just(0), st.just(Fraction(0)), st.integers(-10**6, 10**6),
        st.builds(Fraction, st.integers(-10**6, 10**6),
                  st.integers(1, 10**6)))

    def block(rows, cols):
        return tuple(tuple(draw(st.lists(entry, min_size=cols,
                                         max_size=cols)))
                     for _ in range(rows))
    return block(r, k), block(k, c)


class TestProductsAgainstFractions:
    """matmul and kron against products summed one Fraction at a time:
    every entry is a Fraction, whatever mix of ints and Fractions goes
    in."""

    @staticmethod
    def assert_fractions(got, want):
        assert got == tuple(tuple(row) for row in want)
        assert all(type(x) is Fraction for row in got for x in row)

    @given(product_factors())
    def test_matmul(self, factors):
        a, b = factors
        want = [[sum((Fraction(x) * y for x, y in zip(row, col)),
                     Fraction(0)) for col in zip(*b)] for row in a]
        self.assert_fractions(ratlin.matmul(a, b), want)

    @given(product_factors(), st.booleans())
    def test_kron(self, factors, swap):
        a, b = factors[::-1] if swap else factors
        want = [[Fraction(x) * y for x in ra for y in rb]
                for ra in a for rb in b]
        self.assert_fractions(ratlin.kron(a, b), want)


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

    def test_zero_row_systems(self):
        # a matrix with no rows is () and has no column count left
        assert ratlin.nullspace(()) == ratlin.identity(0) == ()
        assert ratlin.solve((), ()) == ratlin.zeros(0, 0) == ()

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


def pinned_inputs():
    """200 seeded inputs for ``_reduce``: dense matrices (some of
    low rank, with denominators up to 10^3) as {column: rational} rows,
    and sparse rows keyed as crw keys its term order, (factor count, the
    monomial negated), with int and Fraction values."""
    rng = random.Random(30)
    inputs = []
    for _ in range(120):
        r, c = rng.randint(0, 8), rng.randint(0, 8)
        den = rng.choice((1, 4, 1000))

        def entry():
            if rng.random() < 0.25:
                return Fraction(0)
            return Fraction(rng.randint(-30, 30), rng.randint(1, den))
        if rng.random() < 0.5 and r and c:
            k = rng.randint(1, 3)
            left = [[entry() for _ in range(k)] for _ in range(r)]
            right = [[entry() for _ in range(c)] for _ in range(k)]
            rows = [[sum((left[i][t] * right[t][j] for t in range(k)),
                         Fraction(0)) for j in range(c)] for i in range(r)]
        else:
            rows = [[entry() for _ in range(c)] for _ in range(r)]
        inputs.append([dict(enumerate(row)) for row in rows])
    monos = [m for m in itertools.product(range(4), repeat=3) if sum(m) <= 4]
    keys = [(sum(m), tuple(-e for e in m)) for m in monos]
    for _ in range(80):
        rows = []
        for _ in range(rng.randint(1, 12)):
            support = rng.sample(keys, rng.randint(1, 6))
            rows.append({k: rng.choice((rng.randint(-6, 6),
                                        Fraction(rng.randint(-9, 9),
                                                 rng.randint(1, 12))))
                         for k in support})
        inputs.append(rows)
    return inputs


class TestPinnedRows:
    """The integer rows and pivots ``_reduce`` returns, pinned by
    digests: a row scaled differently or with its sign flipped changes
    them, though the rational results built on the rows may not move."""

    INPUTS = pinned_inputs()

    @staticmethod
    def digest(results):
        return hashlib.sha256(repr(results).encode()).hexdigest()

    def test_full_pass(self):
        assert self.digest([ratlin.sparse_rref(rows)
                            for rows in self.INPUTS]) == (
            "1c805202677cb77c152a0d4be8772e3d83964d2c805cf14bf9f69aef85717c66")

    def test_forward_pass(self):
        assert self.digest([ratlin._reduce(rows, False)
                            for rows in self.INPUTS]) == (
            "09e12bad9ddd1625a4cdbe605cfbe3fa183975b90afe91bd63bfdda26c971564")


class TestGrowthGuard:
    def test_rows_stay_small_on_long_update_chains(self, monkeypatch):
        # a dense 40 x 40 matrix of fractions p/q takes long chains of
        # updates; rows divided only when they are stored reach leading
        # entries of about 16600 bits there, against about 1900 bits
        # for rows divided whenever their lead has doubled
        rng = random.Random(0)
        a = ratlin.mat([[Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                         for _ in range(40)] for _ in range(40)])
        eliminate, bits = ratlin._eliminate, []

        def spy(row, pivot_row, col):
            bits.append(abs(row[col]).bit_length())
            return eliminate(row, pivot_row, col)
        monkeypatch.setattr(ratlin, "_eliminate", spy)
        assert ratlin.rank(a) == 40
        assert max(bits) < 4000

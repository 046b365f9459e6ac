import pytest
from hypothesis import given, strategies as st

from spankit import simplex
from spankit.simplex import MonotoneMap, PointedMap


def monotone_maps(max_size=4):
    def build(draw_sizes):
        m, n, seed = draw_sizes
        vals = sorted(seed[: m + 1])
        return MonotoneMap(m, n, tuple(min(v, n) for v in vals))
    return st.tuples(
        st.integers(0, max_size), st.integers(0, max_size),
        st.lists(st.integers(0, max_size), min_size=max_size + 1,
                 max_size=max_size + 1)).map(build)


class TestMonotoneMap:
    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            MonotoneMap(1, 2, (2, 1))

    def test_identity_and_compose(self):
        f = MonotoneMap(2, 3, (0, 1, 3))
        assert MonotoneMap.identity(3).compose(f) == f
        assert f.compose(MonotoneMap.identity(2)) == f

    @given(monotone_maps(), monotone_maps())
    def test_compose_values(self, f, g):
        if g.target_size != f.source_size:
            return
        h = f.compose(g)
        for j in range(g.source_size + 1):
            assert h(j) == f(g(j))

    def test_inert_recognition(self):
        assert MonotoneMap.inert(1, 2, 4).is_inert
        assert not MonotoneMap(1, 2, (0, 2)).is_inert

    def test_all_monotone_maps_count(self):
        # |Hom([m],[n])| = C(m+n+1, m+1)
        assert len(simplex.all_monotone_maps(1, 2)) == 6
        assert len(simplex.all_monotone_maps(2, 2)) == 10


class TestPointedMap:
    def test_identity_compose(self):
        f = PointedMap(3, 2, (0, 2, 1))
        assert PointedMap.identity(2).compose(f) == f
        assert f.compose(PointedMap.identity(3)) == f

    def test_smash_encoding(self):
        # (a, b) is encoded as (b-1)m + a; identities smash to identity
        idm = PointedMap.identity(2).smash(PointedMap.identity(3))
        assert idm == PointedMap.identity(6)

    def test_smash_bifunctorial(self):
        f1 = PointedMap(2, 1, (1, 0))
        f2 = PointedMap(1, 2, (2,))
        g1 = PointedMap(1, 1, (1,))
        g2 = PointedMap(1, 1, (0,))
        lhs = (f2.compose(f1)).smash(g2.compose(g1))
        rhs = f2.smash(g2).compose(f1.smash(g1))
        assert lhs == rhs

    def test_segal_tau(self):
        tau = PointedMap.segal_tau(2, 3)
        assert [tau(k) for k in range(4)] == [0, 0, 1, 0]

    def test_smash_segal_shape_and_splitting(self):
        for n in range(1, 4):
            for k in range(1, 4):
                for i in range(1, n + 1):
                    kappa = simplex.smash_segal(
                        k, PointedMap.segal_tau(i, n))
                    assert kappa.source_size == n * k
                    assert kappa.target_size == k
                    hit = [kappa((b - 1) * n + i) for b in range(1, k + 1)]
                    assert sorted(hit) == list(range(1, k + 1))

    def test_wedge_block_sum(self):
        f = PointedMap(1, 1, (1,))
        g = PointedMap(2, 1, (0, 1))
        w = f.wedge(g)
        assert w.source_size == 3 and w.target_size == 2
        assert [w(k) for k in range(1, 4)] == [1, 0, 2]


class TestUnderlyingMonoid:
    def test_cut_rule_values(self):
        # phi = (0, 2) : [1] -> [2]; level 1 and level 2 both first
        # reached at j = 1
        u = simplex.underlying_monoid(MonotoneMap(1, 2, (0, 2)))
        assert u.values == (1, 1)

    def test_surjection(self):
        u = simplex.underlying_monoid(MonotoneMap(2, 1, (0, 0, 1)))
        assert u.values == (2,)

    def test_unreached_level_goes_to_basepoint(self):
        u = simplex.underlying_monoid(MonotoneMap(1, 2, (0, 1)))
        assert u.values == (1, 0)

    @given(st.data())
    def test_functorial(self, data):
        sizes = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4),
                                    st.integers(1, 4)))
        m, n, p = sizes
        alpha = data.draw(st.lists(st.integers(0, n), min_size=m + 1,
                                   max_size=m + 1).map(
            lambda v: MonotoneMap(m, n, tuple(sorted(v)))))
        beta = data.draw(st.lists(st.integers(0, p), min_size=n + 1,
                                  max_size=n + 1).map(
            lambda v: MonotoneMap(n, p, tuple(sorted(v)))))
        lhs = simplex.underlying_monoid(beta.compose(alpha))
        rhs = simplex.underlying_monoid(alpha).compose(
            simplex.underlying_monoid(beta))
        assert lhs == rhs

    def test_preserves_segal_maps(self):
        # rho_i : [1] -> [n] goes to tau_{i+1} : <n> -> <1>
        for n in range(1, 5):
            for i in range(n):
                u = simplex.underlying_monoid(MonotoneMap.segal_rho(i, n))
                assert u == PointedMap.segal_tau(i + 1, n)


class TestPosets:
    def test_sigma_counts(self):
        for n in range(5):
            p = simplex.build_sigma(n)
            assert len(p.objects) == (n + 1) * (n + 2) // 2
            assert all(o.is_inert for o in p.objects)

    def test_sigma3_figures(self):
        p = simplex.build_sigma(3)
        assert len(p.objects) == 10
        assert sum(1 for f in p.lambda_flags if f) == 7

    def test_theta2_figures(self):
        p = simplex.build_theta(2)
        assert len(p.objects) == 7
        assert sum(1 for f in p.xi_flags if f) == 3

    def test_theta_counts(self):
        for n in range(5):
            p = simplex.build_theta(n)
            assert len(p.objects) == 2 ** (n + 1) - 1
            assert sum(1 for f in p.xi_flags if f) == n + 1

    def test_sigma_order_is_containment(self):
        # leq(a, b): arrow a -> b, meaning b is a subinterval of a
        p = simplex.build_sigma(2)
        small = MonotoneMap.inert(0, 1, 2)
        big = MonotoneMap.inert(0, 2, 2)
        assert p.leq(big, small)
        assert not p.leq(small, big)

    def test_theta_order_is_containment(self):
        p = simplex.build_theta(2)
        assert p.leq((0, 2), (0,))
        assert not p.leq((0, 2), (1,))

    def test_hasse_edges_are_covers(self):
        p = simplex.build_sigma(3)
        for (i, j) in p.hasse_edges:
            a, b = p.objects[i], p.objects[j]
            assert p.leq(a, b) and a != b
            between = [c for c in p.objects
                       if p.leq(a, c) and p.leq(c, b) and c not in (a, b)]
            assert not between


class TestPushforwards:
    def test_push_sigma_example(self):
        alpha = MonotoneMap(2, 3, (0, 2, 3))
        phi = MonotoneMap.inert(0, 2, 2)
        assert simplex.push_sigma(alpha, phi) == MonotoneMap.inert(0, 3, 3)

    def test_push_theta_collapses(self):
        alpha = MonotoneMap(2, 1, (0, 1, 1))
        assert simplex.push_theta(alpha, (0, 1, 2)) == (0, 1)

    def test_functorial(self):
        alpha = MonotoneMap(2, 3, (0, 1, 3))
        beta = MonotoneMap(3, 2, (0, 0, 1, 2))
        comp = alpha.compose(beta)
        for phi in simplex.build_sigma(3).objects:
            assert simplex.push_sigma(comp, phi) == simplex.push_sigma(
                alpha, simplex.push_sigma(beta, phi))
        for s in simplex.build_theta(3).objects:
            assert simplex.push_theta(comp, s) == simplex.push_theta(
                alpha, simplex.push_theta(beta, s))


class TestFaceMap:
    def test_validity(self):
        base = MonotoneMap(1, 2, (0, 1))
        arrow = simplex.ElementsArrow(
            "sigma", base, MonotoneMap.inert(0, 2, 2),
            MonotoneMap.inert(0, 1, 1))
        out = simplex.face_map("sigma", base, arrow)
        assert out.source_size == 1 and out.target_size == 2

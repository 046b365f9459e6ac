import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from spankit import pushpull as pp, ratlin
from spankit.instances import conjugated, point_span, unit_spine
from spankit.pushpull import FamilyMap, SetMap, VectorFamily
from spankit.spans import Span


def random_setmap(rng, src_size, tgt_size):
    src = tuple(range(src_size))
    tgt = tuple(range(tgt_size))
    return SetMap.build(src, tgt, lambda x: rng.choice(tgt))


def random_family(rng, base, top=3):
    return VectorFamily.build(base, lambda x: rng.randrange(0, top + 1))


def random_family_map(rng, src, tgt):
    return FamilyMap.build(src, tgt, lambda x: tuple(
        tuple(Fraction(rng.randrange(-3, 4)) for _ in range(src.dim(x)))
        for _ in range(tgt.dim(x))))


def random_span(rng, name, left_foot, right_foot):
    apex = tuple("%s%d" % (name, i) for i in range(rng.randrange(1, 4)))
    return Span(left_foot, apex, right_foot,
                tuple((a, rng.choice(left_foot)) for a in apex),
                tuple((a, rng.choice(right_foot)) for a in apex))


def horizontal_pairs(rng, count):
    """count 2-morphisms over a random pair of spans X <- . -> Y and count
    over a random pair Y <- . -> Z, dimensions 0-2; Y has two points, so
    some points of the composite intersection lie off the image of the
    paired intersections."""
    x, y, z = (0,), ("y0", "y1"), (0,)
    left = [random_span(rng, n, x, y) for n in "lm"]
    right = [random_span(rng, n, y, z) for n in "pq"]
    return ([pp.TwoMorphism.from_dims(*left, lambda t: rng.randrange(0, 3))
             for _ in range(count)],
            [pp.TwoMorphism.from_dims(*right, lambda t: rng.randrange(0, 3))
             for _ in range(count)])


def offsets(fam, points):
    """Offset of each point's block in the direct sum over points."""
    out, off = {}, 0
    for x in points:
        out[x] = off
        off += fam.dim(x)
    return out


def zero_one(n_rows, n_cols, ones):
    """The n_rows x n_cols matrix with a 1 at each (row, col) in ones."""
    return tuple(tuple(Fraction(int((r, c) in ones)) for c in range(n_cols))
                 for r in range(n_rows))


class TestBasics:
    def test_setmap_totality_checked(self):
        with pytest.raises(ValueError):
            SetMap((0, 1), (0,), ((0, 0),))

    def test_fibers_are_source_order_scans(self):
        # sources listed in shuffled order, and targets larger than the
        # image, so some fibers are empty
        rng = random.Random(31)
        for _ in range(50):
            src = list(range(rng.randrange(0, 8)))
            rng.shuffle(src)
            tgt = tuple("t%d" % k for k in range(rng.randrange(1, 6)))
            f = SetMap.build(src, tgt, lambda x: rng.choice(tgt))
            for y in tgt:
                assert f.fiber(y) == [x for x in f.source if f(x) == y]

    def test_family_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            VectorFamily((0,), ((0, -1),))

    def test_family_map_shape_checked(self):
        v = VectorFamily.build((0,), lambda x: 2)
        w = VectorFamily.build((0,), lambda x: 1)
        with pytest.raises(ValueError):
            FamilyMap(v, w, ((0, ((1, 2, 3),)),))

    def test_family_map_blocks_on_the_base(self):
        v = VectorFamily.build((0,), lambda x: 1)
        # a missing point used to raise KeyError, a stray or repeated one
        # was kept
        for mats in ((), ((0, ((1,),)), (1, ((1,),))),
                     ((0, ((1,),)), (0, ((2,),)))):
            with pytest.raises(ValueError, match="not indexed by the base"):
                FamilyMap(v, v, mats)

    def test_family_map_ragged_block_rejected(self):
        # the first row has the right length, the second does not
        v = VectorFamily.build((0,), lambda x: 2)
        with pytest.raises(ValueError, match="column count"):
            FamilyMap(v, v, ((0, ((1, 0), (1,))),))

    def test_pullback_pushforward_dims(self):
        rng = random.Random(0)
        for _ in range(20):
            f = random_setmap(rng, rng.randrange(1, 5), rng.randrange(1, 4))
            v = random_family(rng, f.source)
            w = random_family(rng, f.target)
            fw = pp.pullback_ls(f, w)
            fv = pp.pushforward_ls(f, v)
            assert all(fw.dim(x) == w.dim(f(x)) for x in f.source)
            assert fv.total_dim() == v.total_dim()

    def test_push_composite_iso(self):
        rng = random.Random(1)
        for _ in range(15):
            f = random_setmap(rng, rng.randrange(1, 5), rng.randrange(1, 4))
            g = random_setmap(rng, len(f.target), rng.randrange(1, 3))
            v = random_family(rng, f.source)
            iso = pp.push_composite_iso(f, g, v)
            assert iso.is_invertible()
            assert iso.source == pp.pushforward_ls(g, pp.pushforward_ls(f, v))
            assert iso.target == pp.pushforward_ls(g.compose(f), v)
            # rows in the fiber order of g.f, columns in the nested order
            for z in g.target:
                flat = offsets(v, g.compose(f).fiber(z))
                nested = offsets(v, [x for y in g.fiber(z)
                                     for x in f.fiber(y)])
                n = iso.target.dim(z)
                assert iso.mat(z) == zero_one(n, n, {
                    (flat[x] + i, nested[x] + i)
                    for x in flat for i in range(v.dim(x))})

    def test_compose_through_zero_dimensions(self):
        base = (0,)
        one, zero = VectorFamily.unit(base), VectorFamily.zero(base)
        to_zero = FamilyMap.build(one, zero, lambda x: ())
        from_zero = FamilyMap.build(zero, one, lambda x: ((),))
        ident = FamilyMap.identity(one)
        # 1 -> 1 -> 0: no rows
        assert to_zero.compose(ident).mat(0) == ()
        # 1 -> 0 -> 1: the zero 1 x 1 matrix
        assert from_zero.compose(to_zero).mat(0) == ((Fraction(0),),)
        assert to_zero.compose(from_zero).mat(0) == ()

    def test_invertible_only_between_equal_dimensions(self):
        # a block into dimension 0 is () whatever its source dimension
        base = (0,)
        three = VectorFamily.build(base, lambda x: 3)
        zero = VectorFamily.zero(base)
        assert not FamilyMap.build(three, zero, lambda x: ()).is_invertible()
        assert not FamilyMap.build(zero, three,
                                   lambda x: ((),) * 3).is_invertible()
        assert FamilyMap.build(zero, zero, lambda x: ()).is_invertible()


class TestAdjunction:
    def test_roundtrip(self):
        rng = random.Random(2)
        for _ in range(15):
            f = random_setmap(rng, rng.randrange(1, 5), rng.randrange(1, 4))
            v = random_family(rng, f.source)
            w = random_family(rng, f.target)
            fw = pp.pullback_ls(f, w)
            samples = [random_family_map(rng, fw, v) for _ in range(3)]
            assert pp.check_adjunction(f, v, w, samples)

    def test_triangle_identities(self):
        rng = random.Random(3)
        for _ in range(15):
            f = random_setmap(rng, rng.randrange(1, 5), rng.randrange(1, 4))
            v = random_family(rng, f.source)
            w = random_family(rng, f.target)
            fw = pp.pullback_ls(f, w)
            # counit at f*W after the pulled-back unit is the identity
            left = pp.counit_map(f, fw).compose(
                pp.pullback_map(f, pp.unit_map(f, w)))
            assert left.mats == FamilyMap.identity(fw).mats
            # pushed counit after the unit at f_*V is the identity
            fv = pp.pushforward_ls(f, v)
            right = pp.pushforward_map(f, pp.counit_map(f, v)).compose(
                pp.unit_map(f, fv))
            assert right.mats == FamilyMap.identity(fv).mats

    def test_counit_selects_own_block(self):
        rng = random.Random(14)
        for _ in range(15):
            f = random_setmap(rng, rng.randrange(1, 5), rng.randrange(1, 4))
            v = random_family(rng, f.source)
            counit = pp.counit_map(f, v)
            for x in f.source:
                fiber = offsets(v, f.fiber(f(x)))
                n_cols = sum(v.dim(z) for z in fiber)
                assert counit.mat(x) == zero_one(v.dim(x), n_cols, {
                    (i, fiber[x] + i) for i in range(v.dim(x))})


class TestBaseChange:
    def test_invertible_on_pullback_squares(self):
        rng = random.Random(4)
        for _ in range(15):
            xs = tuple(range(rng.randrange(1, 4)))
            ys = tuple(range(rng.randrange(1, 4)))
            zs = tuple(range(rng.randrange(1, 3)))
            f = SetMap.build(xs, zs, lambda x: rng.choice(zs))
            g = SetMap.build(ys, zs, lambda y: rng.choice(zs))
            # apex order unrelated to the fiber order of g
            pb = [(x, y) for x in xs for y in ys if f(x) == g(y)]
            rng.shuffle(pb)
            p = SetMap.build(pb, xs, lambda t: t[0])
            q = SetMap.build(pb, ys, lambda t: t[1])
            v = random_family(rng, ys)
            iso = pp.base_change(f, g, p, q, v)
            assert iso.is_invertible()
            # rows: the p-fiber blocks of q*V at x; columns: the g-fiber
            # blocks of V at f(x); the block of t meets that of q(t)
            for x in xs:
                g_fib = offsets(v, g.fiber(f(x)))
                rows = [(q(t), i) for t in p.fiber(x)
                        for i in range(v.dim(q(t)))]
                n_cols = sum(v.dim(a) for a in g_fib)
                assert iso.mat(x) == zero_one(len(rows), n_cols, {
                    (r, g_fib[a] + i) for r, (a, i) in enumerate(rows)})

    def test_non_pullback_rejected(self):
        xs = ys = zs = (0, 1)
        ident = SetMap.identity(xs)
        f = g = ident
        # the "pullback" misses the point (1, 1)
        pb = ((0, 0),)
        p = SetMap.build(pb, xs, lambda t: t[0])
        q = SetMap.build(pb, ys, lambda t: t[1])
        v = VectorFamily.unit(ys)
        with pytest.raises(ValueError):
            pp.base_change(f, g, p, q, v)


class TestProjectionIsos:
    def test_right_projection(self):
        rng = random.Random(5)
        for _ in range(10):
            f = random_setmap(rng, rng.randrange(1, 5), rng.randrange(1, 4))
            a = random_family(rng, f.source)
            b = random_family(rng, f.target)
            iso = pp.projection_iso(f, a, b)
            assert iso.is_invertible()
            assert iso.source == pp.tensor_family(pp.pushforward_ls(f, a), b)
            assert iso.target == pp.pushforward_ls(
                f, pp.tensor_family(a, pp.pullback_ls(f, b)))
            for y in f.target:
                assert iso.mat(y) == ratlin.identity(iso.source.dim(y))

    def test_left_projection(self):
        rng = random.Random(6)
        for _ in range(30):
            f = random_setmap(rng, rng.randrange(1, 5), rng.randrange(1, 4))
            a = random_family(rng, f.target)
            b = random_family(rng, f.source)
            iso = pp.projection_iso_left(f, a, b)
            assert iso.is_invertible()
            # source A (x) f_*B: (i, (x, j)) with i major; target
            # f_*(f*A (x) B): (x, (i, j)) with the fiber block major
            for y in f.target:
                na, fib = a.dim(y), offsets(b, f.fiber(y))
                nb = sum(b.dim(x) for x in fib)
                assert iso.mat(y) == zero_one(na * nb, na * nb, {
                    (na * fib[x] + i * b.dim(x) + j, i * nb + fib[x] + j)
                    for i in range(na) for x in fib
                    for j in range(b.dim(x))})


class TestTwoMorphisms:
    def test_vertical_dims_are_matrix_product(self):
        rng = random.Random(7)
        for _ in range(30):
            l = point_span("l", rng.randrange(1, 4))
            m = point_span("m", rng.randrange(1, 4))
            n = point_span("n", rng.randrange(1, 4))
            mm = pp.TwoMorphism.from_dims(l, m, lambda t: rng.randrange(0, 3))
            nn = pp.TwoMorphism.from_dims(m, n, lambda t: rng.randrange(0, 3))
            out = pp.compose2_vertical(mm, nn)
            for a in l.apex:
                for c in n.apex:
                    assert out.payload.dim((a, c)) == sum(
                        mm.payload.dim((a, b)) * nn.payload.dim((b, c))
                        for b in m.apex)

    def test_vertical_unit_laws(self):
        rng = random.Random(8)
        for _ in range(10):
            l = point_span("l", rng.randrange(1, 4))
            m = point_span("m", rng.randrange(1, 4))
            mm = pp.TwoMorphism.from_dims(l, m, lambda t: rng.randrange(0, 3))
            left = pp.compose2_vertical(pp.vertical_unit(l), mm)
            right = pp.compose2_vertical(mm, pp.vertical_unit(m))
            for out in (left, right):
                for t in out.payload.base:
                    assert out.payload.dim(t) == mm.payload.dim(t)

    def test_unit_law_iso_is_identity(self):
        rng = random.Random(9)
        for _ in range(5):
            l = point_span("l", rng.randrange(1, 4))
            m = point_span("m", rng.randrange(1, 4))
            mm = pp.TwoMorphism.from_dims(l, m, lambda t: rng.randrange(0, 3))
            composite, iso = pp.vertical_unit_law_iso(mm)
            for x in iso.source.base:
                a = iso.mat(x)
                assert a == ratlin.identity(len(a))

    def test_horizontal_dims_multiply(self):
        rng = random.Random(10)
        for _ in range(10):
            l = point_span("l", 2)
            m = point_span("m", 2)
            mm = pp.TwoMorphism.from_dims(l, m, lambda t: rng.randrange(1, 3))
            mp = pp.TwoMorphism.from_dims(l, m, lambda t: rng.randrange(1, 3))
            out = pp.compose2_horizontal(mm, mp)
            for ((a, ap), (b, bp)) in out.payload.base:
                assert out.payload.dim(((a, ap), (b, bp))) == (
                    mm.payload.dim((a, b)) * mp.payload.dim((ap, bp)))

    def test_horizontal_unit_shape(self):
        u = pp.horizontal_unit((0, 1))
        assert all(u.payload.dim(t) == (1 if t[0] == t[1] else 0)
                   for t in u.payload.base)


class TestThreeMorphisms:
    def test_transversal_is_matrix_composition(self):
        rng = random.Random(11)
        base = ((0, 0),)
        a = VectorFamily.build(base, lambda t: 2)
        b = VectorFamily.build(base, lambda t: 2)
        c = VectorFamily.build(base, lambda t: 2)
        alpha = random_family_map(rng, a, b)
        beta = random_family_map(rng, b, c)
        out = pp.compose3_transversal(alpha, beta)
        assert out.mat(base[0]) == ratlin.matmul(
            beta.mat(base[0]), alpha.mat(base[0]))

    def test_horizontal_interchange_law(self):
        # (a2 . a1) * (b2 . b1) = (a2 * b2) . (a1 * b1), with * the
        # horizontal and . the transversal composite
        rng = random.Random(14)
        for _ in range(20):
            mm, mp = horizontal_pairs(rng, 3)
            a1, a2 = (random_family_map(rng, mm[k].payload, mm[k + 1].payload)
                      for k in (0, 1))
            b1, b2 = (random_family_map(rng, mp[k].payload, mp[k + 1].payload)
                      for k in (0, 1))
            whole = pp.compose3_horizontal(
                mm[0], mm[2], mp[0], mp[2],
                pp.compose3_transversal(a1, a2),
                pp.compose3_transversal(b1, b2))
            assert whole == pp.compose3_transversal(
                pp.compose3_horizontal(mm[0], mm[1], mp[0], mp[1], a1, b1),
                pp.compose3_horizontal(mm[1], mm[2], mp[1], mp[2], a2, b2))

    def test_horizontal_preserves_identities(self):
        rng = random.Random(15)
        for _ in range(20):
            (mm,), (mp,) = horizontal_pairs(rng, 1)
            out = pp.compose3_horizontal(mm, mm, mp, mp,
                                         FamilyMap.identity(mm.payload),
                                         FamilyMap.identity(mp.payload))
            assert out == FamilyMap.identity(
                pp.compose2_horizontal(mm, mp).payload)

    def test_horizontal_maps_must_run_between_the_payloads(self):
        # seed 18 gives a composite with points of dimension 2 and 4
        (mm,), (mp,) = horizontal_pairs(random.Random(18), 1)
        ident = FamilyMap.identity(mp.payload)
        bigger = VectorFamily.build(mm.payload.base,
                                    lambda t: mm.payload.dim(t) + 1)
        with pytest.raises(ValueError, match="between the payloads"):
            pp.compose3_horizontal(mm, mm, mp, mp,
                                   FamilyMap.identity(bigger), ident)

    def test_horizontal_composites_pinned(self):
        # pins the payloads and maps of horizontal composites, zero off
        # the image of the paired intersections
        assert horizontal_digest() == (
            "773bfa0910483ce0541dff53f64fe4cf65d5cf2d926740ced02d470e482d3673")

    def test_vertical_three_morphism_endpoints(self):
        rng = random.Random(12)
        l = point_span("l", 2)
        m = point_span("m", 2)
        n = point_span("n", 2)
        mm1 = pp.TwoMorphism.from_dims(l, m, lambda t: rng.randrange(1, 3))
        mm2 = pp.TwoMorphism.from_dims(l, m, lambda t: rng.randrange(1, 3))
        nn1 = pp.TwoMorphism.from_dims(m, n, lambda t: rng.randrange(1, 3))
        nn2 = pp.TwoMorphism.from_dims(m, n, lambda t: rng.randrange(1, 3))
        alpha = random_family_map(rng, mm1.payload, mm2.payload)
        beta = random_family_map(rng, nn1.payload, nn2.payload)
        out = pp.compose3_vertical((l, m, n), alpha, beta)
        assert out.source == pp.compose2_vertical(mm1, nn1).payload
        assert out.target == pp.compose2_vertical(mm2, nn2).payload


def filling_residual_ok(d1, d2, psi):
    """True iff psi commutes with every structure map and vertical chain
    map of d1 and d2, checked point by point with explicit Kronecker
    products (every dimension must be positive)."""
    def at(fmap, x):
        return dict(fmap.mats)[x]

    for s in d1._faces():
        for i in range(d1.club + 1):
            for x in itertools.product(*[d1.vertices[c] for c in s]):
                kron = functools.reduce(ratlin.kron, (
                    at(psi[(s[j], s[j + 1])][i], (x[j], x[j + 1]))
                    for j in range(len(s) - 1)))
                lhs = ratlin.matmul(kron, at(d1.phi[s][i], x))
                rhs = ratlin.matmul(at(d2.phi[s][i], x),
                                    at(psi[(s[0], s[-1])][i], (x[0], x[-1])))
                if lhs != rhs:
                    return False
    for pr in d1._pairs():
        for i in range(d1.club):
            for y in d1.r[pr][i].base:
                lhs = ratlin.matmul(at(psi[pr][i + 1], y),
                                    at(d1.vertical[pr][i], y))
                rhs = ratlin.matmul(at(d2.vertical[pr][i], y),
                                    at(psi[pr][i], y))
                if lhs != rhs:
                    return False
    return True


def seeded_filling(rng, l, club):
    """The canonical filling of a random spine: one to three points per
    vertex, spine dimensions 0 to 2, random chain maps between heights."""
    vertices = [tuple("p%d" % k for k in range(rng.randint(1, 3)))
                for _ in range(l + 1)]
    spine, spine_vertical = {}, {}
    for a in range(l):
        base = tuple(itertools.product(vertices[a], vertices[a + 1]))
        spine[a] = [random_family(rng, base, top=2) for _ in range(club + 1)]
        spine_vertical[a] = [random_family_map(rng, spine[a][i],
                                               spine[a][i + 1])
                             for i in range(club)]
    return pp.synthesize_filling(vertices, club, spine, spine_vertical)


def fillings_digest():
    """SHA-256 of the systems, chain maps and structure maps of two seeded
    fillings for each l = 2, 3, 4 and club 0, 1."""
    digest = hashlib.sha256()
    for l in (2, 3, 4):
        for club in (0, 1):
            rng = random.Random(10 * l + club)
            for _ in range(2):
                d = seeded_filling(rng, l, club)
                digest.update(repr((sorted(d.phi.items()),
                                    sorted(d.vertical.items()),
                                    sorted(d.r.items()))).encode())
    return digest.hexdigest()


def horizontal_digest():
    """SHA-256 of the payloads of seeded horizontal 2-morphism composites
    and of the maps between them, over random spans whose composite
    intersections have points off the image and of dimension 0."""
    digest = hashlib.sha256()
    rng = random.Random(32)
    for _ in range(30):
        mm, mp = horizontal_pairs(rng, 2)
        alpha = random_family_map(rng, mm[0].payload, mm[1].payload)
        beta = random_family_map(rng, mp[0].payload, mp[1].payload)
        digest.update(repr((
            pp.compose2_horizontal(mm[0], mp[0]).payload,
            pp.compose2_horizontal(mm[1], mp[1]).payload,
            pp.compose3_horizontal(mm[0], mm[1], mp[0], mp[1],
                                   alpha, beta))).encode())
    return digest.hexdigest()


BREAKS = ["missing heights", "family on wrong base", "vertical chain mismatch",
          "phi source mismatch", "phi target mismatch",
          "phi does not commute with the tower"]


def broken_filling(kind):
    """The canonical filling of unit spines at club 1 on three vertices,
    as constructor arguments, broken in the way ``kind`` names."""
    vertices = [("a", "b"), ("a",), ("a", "b")]
    spine, spine_vertical = unit_spine(vertices, club=1)
    d = pp.synthesize_filling(vertices, 1, spine, spine_vertical)
    r, vertical, phi = dict(d.r), dict(d.vertical), dict(d.phi)
    s = (0, 1, 2)
    src, tgt = phi[s][0].source, phi[s][0].target

    def bigger(fam):
        return VectorFamily.build(fam.base, lambda x: fam.dim(x) + 1)

    def zero(a, b):
        return FamilyMap.build(a, b, lambda x: ratlin.zeros(b.dim(x),
                                                            a.dim(x)))

    if kind == "missing heights":
        r[(0, 1)] = r[(0, 1)][:1]
    elif kind == "family on wrong base":
        r[(0, 1)] = [r[(1, 2)][0], r[(0, 1)][1]]
    elif kind == "vertical chain mismatch":
        vertical[(0, 1)] = [FamilyMap.identity(bigger(r[(0, 1)][0]))]
    elif kind == "phi source mismatch":
        phi[s] = [zero(bigger(src), tgt), phi[s][1]]
    elif kind == "phi target mismatch":
        phi[s] = [zero(src, bigger(tgt)), phi[s][1]]
    elif kind == "phi does not commute with the tower":
        # the chain maps are identities, so the square asks that
        # phi[S][0] == phi[S][1]
        phi[s] = [zero(src, tgt), phi[s][1]]
    return vertices, 1, r, vertical, phi


class TestFillings:
    def test_canonical_filling_is_pushpull(self):
        for l in (2, 3):
            vertices = [("a", "b")[:1 + (a % 2)] for a in range(l + 1)]
            spine, _ = unit_spine(vertices)
            d = pp.synthesize_filling(vertices, 0, spine)
            assert pp.is_pushpull(d)

    def test_synthesized_fillings_pinned(self):
        # pins the basis order of pushforward_map and of the structure
        # maps on spines with points of dimension 0
        assert fillings_digest() == (
            "b5ba840d760f2197b6ca4a054b8154fe38d5c88fdc6e7003e4793a4bd0380a9a")

    def test_filling_with_heights(self):
        vertices = [("a",), ("a", "b"), ("a",)]
        spine, spine_vertical = unit_spine(vertices, club=1)
        d = pp.synthesize_filling(vertices, 1, spine, spine_vertical)
        assert pp.is_pushpull(d)
        assert pp.fillings_isomorphic(d, d)

    def test_conjugated_fillings_are_isomorphic(self):
        rng = random.Random(13)
        vertices = [("a", "b"), ("a",), ("a", "b")]
        spine, _ = unit_spine(vertices)
        d = pp.synthesize_filling(vertices, 0, spine)
        for _ in range(5):
            dc, _ = conjugated(rng, d)
            assert pp.is_pushpull(dc)
            assert pp.fillings_isomorphic(d, dc)

    def test_degenerate_structure_maps_rejected(self):
        vertices = [("a", "b"), ("a",), ("a", "b")]
        spine, _ = unit_spine(vertices)
        d1 = pp.synthesize_filling(vertices, 0, spine)
        phi = dict(d1.phi)
        s = (0, 1, 2)
        zero = FamilyMap.build(
            d1.phi[s][0].source, d1.phi[s][0].target,
            lambda x: ratlin.zeros(d1.phi[s][0].target.dim(x),
                                   d1.phi[s][0].source.dim(x)))
        phi[s] = [zero]
        d2 = pp.PushPullThetaDiagram(vertices, 0, d1.r, d1.vertical, phi)
        assert not pp.is_pushpull(d2)
        assert not pp.fillings_isomorphic(d1, d2)

    def test_structure_map_onto_dimension_zero_is_not_pushpull(self):
        # r_02 = 1 and r_01 = r_12 = 0 on one point per vertex: the one
        # structure map goes from dimension 1 to dimension 0
        vertices = [("a",), ("b",), ("c",)]
        r = {(0, 1): [VectorFamily.zero((("a", "b"),))],
             (1, 2): [VectorFamily.zero((("b", "c"),))],
             (0, 2): [VectorFamily.unit((("a", "c"),))]}
        top = (("a", "b", "c"),)
        phi = {(0, 1, 2): [FamilyMap.build(
            VectorFamily.unit(top), VectorFamily.zero(top), lambda x: ())]}
        d = pp.PushPullThetaDiagram(vertices, 0, r, {pr: [] for pr in r},
                                    phi)
        assert not pp.is_pushpull(d)

    def test_zero_dimensional_points(self):
        # every 0/1 spine on these vertices, including those whose
        # composites pass through or land in dimension 0
        vertices = [("a",), ("a", "b"), ("a",)]
        bases = [tuple((x, y) for x in vertices[a] for y in vertices[a + 1])
                 for a in range(2)]
        for dims in itertools.product((0, 1), repeat=4):
            it = iter(dims)
            spine = {}
            for a, base in enumerate(bases):
                fixed = {t: next(it) for t in base}
                spine[a] = [VectorFamily.build(base, fixed.__getitem__)]
            d = pp.synthesize_filling(vertices, 0, spine)
            assert pp.fillings_isomorphic(d, d), dims

    def test_mismatched_spines_rejected(self):
        vertices = [("a",), ("a", "b"), ("a",)]
        spine1, _ = unit_spine(vertices)
        spine2 = {a: [VectorFamily.build(spine1[a][0].base, lambda t: 2)]
                  for a in spine1}
        d1 = pp.synthesize_filling(vertices, 0, spine1)
        d2 = pp.synthesize_filling(vertices, 0, spine2)
        with pytest.raises(ValueError):
            pp.filling_iso_solutions(d1, d2)

    @pytest.mark.parametrize("message", BREAKS)
    def test_broken_filling_rejected(self, message):
        pp.PushPullThetaDiagram(*broken_filling(None))
        with pytest.raises(ValueError, match=message):
            pp.PushPullThetaDiagram(*broken_filling(message))

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_conjugation_recovered_exactly(self, l):
        # at l = 4 the face {0, 2, 4} couples the unknowns psi_02 and
        # psi_24, so its constraint is bilinear, not linear
        rng = random.Random(20 + l)
        vertices = [("a", "b")[:1 + (a % 2)] for a in range(l + 1)]
        spine, _ = unit_spine(vertices)
        spine[1] = [VectorFamily.build(spine[1][0].base, lambda t: 2)]
        d = pp.synthesize_filling(vertices, 0, spine)
        for _ in range(2):
            dc, psi = conjugated(rng, d)
            assert pp.filling_iso_solutions(d, dc) == (psi, 0)
            assert pp.fillings_isomorphic(d, dc)

    def test_solution_commutes_with_faces_and_verticals(self):
        rng = random.Random(17)
        vertices = [("a", "b"), ("a",), ("a", "b"), ("a",)]
        spine, spine_vertical = unit_spine(vertices, club=1)
        d = pp.synthesize_filling(vertices, 1, spine, spine_vertical)
        for _ in range(2):
            dc, psi = conjugated(rng, d)
            got, dof = pp.filling_iso_solutions(d, dc)
            assert dof == 0 and got == psi
            assert filling_residual_ok(d, dc, got)
            # the residual is not vacuous: the identities of (d, d) fail it
            ident, _ = pp.filling_iso_solutions(d, d)
            assert filling_residual_ok(d, d, ident)
            assert not filling_residual_ok(d, dc, ident)

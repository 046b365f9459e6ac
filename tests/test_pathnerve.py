import collections
import hashlib
import itertools
import random

import pytest

from spankit import fincat, pathnerve as pn, simplex
from spankit.instances import square_fiber_product
from spankit.simplex import MonotoneMap


class TestPathCategory:
    def test_hom_sizes(self):
        for l in range(6):
            cat = pn.build_path(l)
            for i in range(l + 1):
                for j in range(i + 1, l + 1):
                    assert len(cat.hom(i, j)) == 2 ** (j - i - 1)

    def test_hom_elements_contain_endpoints(self):
        cat = pn.build_path(3)
        for s in cat.hom(0, 3):
            assert s[0] == 0 and s[-1] == 3

    def test_composition_is_union(self):
        cat = pn.build_path(3)
        assert cat.compose((0, 2), (2, 3)) == (0, 2, 3)


class TestNerveCells:
    def test_level2_nondegenerate_counts(self):
        table = pn.nondegenerate_table(2, bound=2)
        counts = {k: len(v) for k, v in table.items()}
        assert counts[(0, 0)] == 3
        assert counts[(1, 0)] == 4
        assert counts[(2, 0)] == 1
        assert counts[(1, 1)] == 1
        assert counts[(0, 1)] == 0

    def test_vanishing_above_level(self):
        for l in range(4):
            table = pn.nondegenerate_table(l, bound=l + 2)
            for (u, v), cells in table.items():
                if u + v > l:
                    assert cells == []

    def test_generated_table_matches_the_filtered_nerve(self):
        # the filter over the whole nerve is the independent oracle
        for l in range(5):
            for bound in (l, l + 2):
                table = pn.nondegenerate_table(l, bound=bound)
                assert list(table) == [(u, v) for u in range(bound + 1)
                                       for v in range(bound + 1 - u)]
                for (u, v), cells in table.items():
                    assert cells == [s for s in pn.nerve(l, u, v)
                                     if not pn.is_degenerate(s)]
                    assert all(pn.nondegenerate_core(s) == s for s in cells)
        table = pn.nondegenerate_table(5)
        assert sum(map(len, table.values())) == 851

    def test_degeneracy_detection(self):
        # a (0,1) cell is constant in the u direction, hence degenerate
        cells = pn.nerve(2, 0, 1)
        assert cells
        assert all(pn.is_degenerate(c) for c in cells)

    def test_core_of_degenerate_cell(self):
        c = pn.nerve(2, 0, 1)[0]
        core = pn.nondegenerate_core(c)
        assert (core.u, core.v) == (0, 0)

    def test_act_functorial(self):
        rng = random.Random(0)
        cells = pn.nerve(3, 2, 1)
        for _ in range(30):
            c = rng.choice(cells)
            a1 = MonotoneMap(1, 2, tuple(sorted(
                rng.randrange(3) for _ in range(2))))
            a2 = MonotoneMap(1, 1, tuple(sorted(
                rng.randrange(2) for _ in range(2))))
            b1 = MonotoneMap(1, 1, tuple(sorted(
                rng.randrange(2) for _ in range(2))))
            b2 = MonotoneMap(0, 1, (rng.randrange(2),))
            one = pn.act(pn.act(c, a1, b1), a2, b2)
            two = pn.act(c, a1.compose(a2), b1.compose(b2))
            assert one == two


def nerve_by_filtering(l, u, v):
    """Oracle for nerve(): every tuple of hom elements, kept when each
    consecutive chain is weakly increasing, in product order."""
    path = pn.build_path(l)
    out = []
    for objs in itertools.combinations_with_replacement(range(l + 1), u + 1):
        per_pair = []
        for a in range(u):
            homs = path.hom(objs[a], objs[a + 1])
            per_pair.append([
                c for c in itertools.product(homs, repeat=v + 1)
                if all(set(c[b]) <= set(c[b + 1]) for b in range(v))])
        out.extend(pn.BiSimplex(u, v, objs, pick)
                   for pick in itertools.product(*per_pair))
    return out


class TestNerveGeneration:
    @pytest.mark.parametrize("l", range(5))
    def test_matches_product_filter_in_order(self, l):
        for u in range(5):
            for v in range(5 - u):
                assert pn.nerve(l, u, v) == nerve_by_filtering(l, u, v)


def face_maps(u, v):
    """Every pair of injective monotone maps into ([u], [v])."""
    for up in range(u + 1):
        for vp in range(v + 1):
            for a in itertools.combinations(range(u + 1), up + 1):
                for b in itertools.combinations(range(v + 1), vp + 1):
                    yield MonotoneMap(up, u, a), MonotoneMap(vp, v, b)


class TestAction:
    def test_square_of_nerve(self):
        X = pn.SquareOfNerve(fincat.FinCategory.from_monoid(
            [[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0))
        for u in range(3):
            for v in range(3 - u):
                for alpha, beta in face_maps(u, v):
                    for x in X.values(u, v):
                        want = pn.grid_act(X.cat, x, (alpha, beta))
                        assert X.act(alpha, beta, x) == want

    def test_tensor_grid_object(self):
        Q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
        X = pn.TensorGridObject(Q, 1, 1)
        idn = MonotoneMap.identity(1)
        for u in range(3):
            for v in range(3 - u):
                for alpha, beta in face_maps(u, v):
                    psi = simplex.PointedMap.identity(1).smash(
                        simplex.underlying_monoid(alpha))
                    for x in X.values(u, v):
                        grids = tuple(pn.grid_act(Q.cat, g, (beta, idn))
                                      for g in x)
                        want = X.gamma_act(psi, grids, beta.source_size)
                        assert X.act(alpha, beta, x) == want

    def test_width_mismatch_rejected(self):
        Q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
        X = pn.TensorGridObject(Q, 1, 1)
        x = X.values(1, 0)[0]
        with pytest.raises(ValueError):
            X.act(MonotoneMap.identity(2), MonotoneMap.identity(0), x)


def grids_by_filtering(cat, dims):
    """Every functor from the grid poset of shape dims to cat, as a pair
    of dicts (node -> object, (node, axis) -> morphism), by product and
    filter along the first axis: k + 1 grids of the remaining shape (the
    slices) and, between consecutive slices, a morphism per node from
    its hom-set, kept when every square these close commutes."""
    if not dims:
        return [({(): o}, {}) for o in range(cat.n_objects)]
    nodes = list(itertools.product(*[range(r + 1) for r in dims[1:]]))
    # a square per slice edge r -> r2 (axis ax) and step i -> i + 1, with
    # the places in the joins of its morphisms out of r and out of r2
    width = len(nodes)
    squares = [(i, r, ax, i * width + a, i * width + nodes.index(r2))
               for i in range(dims[0]) for a, r in enumerate(nodes)
               for ax in range(len(dims) - 1) if r[ax] < dims[ax + 1]
               for r2 in [tuple(c + (j == ax) for j, c in enumerate(r))]]
    out = []
    for seq in itertools.product(grids_by_filtering(cat, dims[1:]),
                                 repeat=dims[0] + 1):
        homs = [cat.hom(seq[i][0][r], seq[i + 1][0][r])
                for i in range(dims[0]) for r in nodes]
        for joins in itertools.product(*homs):
            if all(cat.comp[joins[b], seq[i][1][r, ax]]
                   == cat.comp[seq[i + 1][1][r, ax], joins[a]]
                   for i, r, ax, a, b in squares):
                objs = {(i,) + r: o for i, (g, _) in enumerate(seq)
                        for r, o in g.items()}
                edges = {((i,) + r, ax + 1): f for i, (_, g) in enumerate(seq)
                         for (r, ax), f in g.items()}
                edges.update({((i,) + r, 0): f for (i, r), f in zip(
                    itertools.product(range(dims[0]), nodes), joins)})
                out.append((objs, edges))
    return out


def square_n_by_filtering(cat, dims):
    """The grids of ``grids_by_filtering`` in the order of square_n: by
    each node's object, then the morphisms into it in axis order."""
    nodes = list(itertools.product(*[range(k + 1) for k in dims]))

    def key(grid):
        objs, edges = grid
        return [x for q in nodes for x in [objs[q]] + [
            edges[tuple(c - (i == ax) for i, c in enumerate(q)), ax]
            for ax in range(len(dims)) if q[ax]]]

    return [pn.GridElement(dims, tuple(sorted(objs.items())),
                           tuple(sorted(edges.items())))
            for objs, edges in sorted(grids_by_filtering(cat, dims), key=key)]


class TestGrids:
    def test_square_n_matches_product_filter_in_order(self):
        cyclic = [fincat.FinCategory.from_monoid(
            [[(i + j) % k for j in range(k)] for i in range(k)], 0)
            for k in (2, 3)]
        vee = fincat.FinCategory.from_poset(
            3, lambda a, b: a == b or (a, b) in {(0, 1), (0, 2)})
        cats = cyclic + [fincat.FinCategory.chain(1),
                         fincat.FinCategory.chain(2), vee]
        shapes = [(u, v) for u in range(3) for v in range(2)]
        shapes += [(1, 2), (0, 3), (1, 1, 1)]
        for cat in cats:
            for dims in shapes:
                got, want = pn.square_n(cat, dims), square_n_by_filtering(
                    cat, dims)
                assert got == want and repr(got) == repr(want)
        # twelve edges, five independent faces: the sixth commutes by the rest
        assert len(pn.square_n(cyclic[1], (1, 1, 1))) == 3 ** 7

    def test_lookups_leave_identity_unchanged(self):
        cat = fincat.FinCategory.chain(2)
        for g in pn.square_n(cat, (1, 1)):
            twin = pn.GridElement(g.dims, g.objs, g.edges)
            before = (hash(g), repr(g))
            for node, obj in g.objs:
                assert g.obj(node) == obj
            for (node, axis), f in g.edges:
                assert g.edge(node, axis) == f
            assert (hash(g), repr(g)) == before
            assert g == twin and hash(g) == hash(twin)
            assert hash(g) == hash((g.dims, g.objs, g.edges))

    def test_square_counts_for_walking_arrow(self):
        cat = fincat.FinCategory.chain(1)
        X = pn.SquareOfNerve(cat)
        assert len(X.values(1, 1)) == 6

    def test_column_values_are_nerve(self):
        cat = fincat.FinCategory.chain(2)
        X = pn.SquareOfNerve(cat)
        # (k, 0) grids are k-chains of composable morphisms
        for k in range(3):
            chains = 0
            n = cat.n_objects
            if k == 0:
                chains = n
            elif k == 1:
                chains = len(cat.morphisms)
            else:
                chains = sum(1 for f in range(len(cat.morphisms))
                             for g in range(len(cat.morphisms))
                             if cat.dst(f) == cat.src(g))
            assert len(X.values(k, 0)) == chains

    def test_squares_match_composable_factorizations(self):
        # (1,1) grids correspond to pairs of 2-chains with equal composite
        for mk in (lambda: fincat.FinCategory.chain(1),
                   lambda: fincat.FinCategory.chain(2)):
            cat = mk()
            X = pn.SquareOfNerve(cat)
            pairs = 0
            for f1 in range(len(cat.morphisms)):
                for g1 in range(len(cat.morphisms)):
                    if cat.dst(f1) != cat.src(g1):
                        continue
                    c1 = cat.compose(g1, f1)
                    for f2 in range(len(cat.morphisms)):
                        for g2 in range(len(cat.morphisms)):
                            if cat.dst(f2) != cat.src(g2):
                                continue
                            if cat.compose(g2, f2) == c1:
                                pairs += 1
            # each commuting square yields the pair (bottom-then-right,
            # left-then-top) with a common diagonal
            squares = len(X.values(1, 1))
            assert pairs == squares

    def test_grid_act_functorial(self):
        rng = random.Random(1)
        cat = fincat.FinCategory.chain(2)
        X = pn.SquareOfNerve(cat)
        for _ in range(20):
            e = rng.choice(X.values(2, 1))
            a1 = MonotoneMap(1, 2, tuple(sorted(
                rng.randrange(3) for _ in range(2))))
            a2 = MonotoneMap(1, 1, tuple(sorted(
                rng.randrange(2) for _ in range(2))))
            b1 = MonotoneMap(1, 1, tuple(sorted(
                rng.randrange(2) for _ in range(2))))
            b2 = MonotoneMap(1, 1, tuple(sorted(
                rng.randrange(2) for _ in range(2))))
            one = X.act(a2, b2, X.act(a1, b1, e))
            two = X.act(a1.compose(a2), b1.compose(b2), e)
            assert one == two


class TestLabelledLimit:
    def test_level0_and_level1(self):
        cat = fincat.FinCategory.chain(2)
        X = pn.SquareOfNerve(cat)
        assert len(pn.labelled_limit(X, 0)) == len(X.values(0, 0))
        assert len(pn.labelled_limit(X, 1)) == len(X.values(1, 0))

    def test_level2_closed_form(self):
        for mk in (lambda: fincat.FinCategory.chain(1),
                   lambda: fincat.FinCategory.chain(2),
                   lambda: fincat.FinCategory.from_monoid(
                       [[0, 1], [1, 0]], 0)):
            X = pn.SquareOfNerve(mk())
            assert len(pn.labelled_limit(X, 2)) == len(
                square_fiber_product(X))

    def test_matches_full_window_limit(self):
        cat = fincat.FinCategory.chain(1)
        X = pn.SquareOfNerve(cat)
        for l in range(3):
            assert len(pn.labelled_limit(X, l)) == len(
                pn.labelled_limit_full(X, l))

    def test_full_window_pins_identity_edges_along_v(self):
        # the full window forces each (0,1)-simplex, a degeneracy of its
        # vertex, to carry an identity: at l = 2 that cuts the limit down
        # to the families whose spine square has identity edges along v
        def cyclic(n):
            return [[(i + j) % n for j in range(n)] for i in range(n)]

        for cat, truncated, full in [
                (fincat.FinCategory.from_monoid(cyclic(2), 0), 16, 4),
                (fincat.FinCategory.from_monoid(cyclic(3), 0), 81, 9),
                (fincat.FinCategory.chain(2), 10, 10)]:
            X = pn.SquareOfNerve(cat)
            fams = pn.labelled_limit(X, 2)
            fulls = pn.labelled_limit_full(X, 2)
            assert (len(fams), len(fulls)) == (truncated, full)
            keys = list(fams[0])
            spine = pn.spine_square_simplex(2)

            def flat_along_v(grid):
                return all(f == cat.identities[grid.obj(node)]
                           for (node, axis), f in grid.edges if axis == 1)

            cut = [tuple(e[k] for k in keys) for e in fulls]
            assert len(set(cut)) == full  # cutting down merges no families
            assert set(cut) == {tuple(e[k] for k in keys) for e in fams
                                if flat_along_v(e[spine])}
            # the l = 1 window has no (0,2)-simplex whose faces would
            # make a (0,1) value idempotent, so there the degeneracies
            # alone leave one family per morphism
            assert len(pn.labelled_limit_full(X, 1)) == len(X.values(1, 0))

    def test_full_window_generators_compose_every_map(self):
        # every monotone map [m] -> [n], m, n <= 3, composes from faces
        # and degeneracies through [0], ..., [3]
        for n in range(4):
            reached, todo = set(), [MonotoneMap.identity(n)]
            while todo:
                f = todo.pop()
                if f not in reached:
                    reached.add(f)
                    todo += [f.compose(g)
                             for g in pn._generators(f.source_size)
                             if g.source_size <= 3]
            assert reached == {f for m in range(4)
                               for f in simplex.all_monotone_maps(m, n)}

    def test_xi_projection(self):
        Q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
        X = pn.TensorGridObject(Q, 1, 1)
        for el in pn.labelled_limit(X, 2):
            v = pn.xi(el, 2)
            assert v in X.values(1, 1)


class CountingX:
    """A memo-less X that counts its act calls per (alpha, beta, element)."""

    def __init__(self, X):
        self.X = X
        self.calls = collections.Counter()

    def values(self, u, v):
        return self.X.values(u, v)

    def act(self, alpha, beta, element):
        self.calls[alpha, beta, element] += 1
        return self.X.act(alpha, beta, element)


class TestLimitBuilder:
    def test_each_face_acts_once_per_element(self):
        Q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
        C2 = fincat.FinCategory.from_monoid([[0, 1], [1, 0]], 0)
        runs = [(pn.labelled_limit, pn.SquareOfNerve(C2), (2,)),
                (pn.labelled_limit, pn.TensorGridObject(Q, 1, 1), (2,)),
                (pn.labelled_limit_full, pn.SquareOfNerve(C2), (1,)),
                (pn.labelled_limit_full, pn.TensorGridObject(Q, 1, 1),
                 (2, 1, 1))]
        for limit, X, args in runs:
            counting = CountingX(X)
            assert limit(counting, *args) == limit(X, *args)
            assert counting.calls
            assert max(counting.calls.values()) == 1

    def test_build_cq_level3_pinned(self):
        # the ordered family list is pinned, not only its length
        Q = pn.FinSymMonCat.subsets_under_union(1)
        fams = pn.build_cq(Q, 1, 1, 1, 3)
        assert len(fams) == 356
        assert hashlib.sha256(repr(fams).encode()).hexdigest() == (
            "a5ffad41dbda7bb1aef5bbe523ac750976e5a77d31ed43aa7ce26c7678d969d2")

    def test_nerve_square_z2_level3_pinned(self):
        # the growth law |G|^(2^(l+1) - l - 2) breaks here: 2^9, not 2^11
        C2 = fincat.FinCategory.from_monoid([[0, 1], [1, 0]], 0)
        fams = pn.labelled_limit(pn.SquareOfNerve(C2), 3)
        assert len(fams) == 2 ** 9
        assert hashlib.sha256(repr(fams).encode()).hexdigest() == (
            "d2b96e9301de326ee2ba5bf0d25fda8d8116de5bf3bb449063702fe3e72cf886")


class TestSymmetricMonoidal:
    def test_from_commutative_monoid(self):
        q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
        assert q.cat.n_objects == 1

    def test_subsets_under_union(self):
        q = pn.FinSymMonCat.subsets_under_union(2)
        assert q.cat.n_objects == 4

    def test_non_symmetric_rejected(self):
        # a left-zero band {1, 2} with a unit 0 adjoined: a monoid, so a
        # category, whose product is not commutative
        band = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]
        with pytest.raises(ValueError, match="not commutative"):
            pn.FinSymMonCat.from_commutative_monoid(band, 0)

    @pytest.mark.parametrize("field, key, value, message", [
        ("mor_tensor", (1, 1), None, "morphism tensor not total"),
        ("obj_tensor", (0, 0), None, "object tensor not total"),
        ("mor_tensor", (1, 1), 2, "morphism tensor names an unknown"),
        ("obj_tensor", (0, 0), 1, "object tensor names an unknown"),
        ("unit", None, 1, "unit names an unknown object"),
    ])
    def test_tensor_table_defects_rejected(self, field, key, value, message):
        # Z/2; a value of None deletes the key
        q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
        fields = {"unit": q.unit, "obj_tensor": dict(q.obj_tensor),
                  "mor_tensor": dict(q.mor_tensor)}
        if key is None:
            fields[field] = value
        elif value is None:
            del fields[field][key]
        else:
            fields[field][key] = value
        with pytest.raises(ValueError, match=message):
            pn.FinSymMonCat(q.cat, **fields)

    BASES = {
        # objects {} = 0 (the unit) and {0} = 1
        "subsets of {0}": lambda: pn.FinSymMonCat.subsets_under_union(1),
        "Z/2": lambda: pn.FinSymMonCat.from_commutative_monoid(
            [[0, 1], [1, 0]], 0),
        "Z/3": lambda: pn.FinSymMonCat.from_commutative_monoid(
            [[(i + j) % 3 for j in range(3)] for i in range(3)], 0),
    }

    @pytest.mark.parametrize("base, field, change, message", [
        # {0} (x) {} := {}
        ("subsets of {0}", "obj_tensor", {(1, 0): 0, (0, 1): 0},
         "unit law fails on objects"),
        # 1 (x) 0 := 0
        ("Z/2", "mor_tensor", {(1, 0): 0, (0, 1): 0},
         "unit law fails on morphisms"),
        # commutative and unital, but (1.1).2 = 1 while 1.(1.2) = 2
        ("Z/3", "mor_tensor", {(1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 1},
         "morphism tensor not associative"),
    ])
    def test_tensor_law_defects_rejected(self, base, field, change, message):
        # each change keeps the tables total and commutative
        q = self.BASES[base]()
        fields = {"obj_tensor": dict(q.obj_tensor),
                  "mor_tensor": dict(q.mor_tensor)}
        fields[field].update(change)
        with pytest.raises(ValueError, match=message):
            pn.FinSymMonCat(q.cat, q.unit, **fields)

    def test_tensor_breaking_endpoints_rejected(self):
        # subsets of {0}: id of {} = 0, {} <= {0} = 1, id of {0} = 2;
        # 1 (x) 2 must be the identity of {0}, and 1 keeps the tensor
        # commutative, unital and associative
        q = pn.FinSymMonCat.subsets_under_union(1)
        mor = dict(q.mor_tensor)
        assert mor[(1, 2)] == 2
        mor[(1, 2)] = mor[(2, 1)] = 1
        with pytest.raises(ValueError, match="functor breaks endpoints"):
            pn.FinSymMonCat(q.cat, q.unit, q.obj_tensor, mor)

    def test_tensor_breaking_interchange_rejected(self):
        # max on {0, 1} is a commutative monoid but does not commute with
        # composition in Z/2: max(1 + 0, 0 + 1) = 1, max(1, 0) + max(0, 1) = 0
        q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
        mor = dict(q.mor_tensor)
        mor[(1, 1)] = 1
        with pytest.raises(ValueError, match="functor breaks composition"):
            pn.FinSymMonCat(q.cat, q.unit, q.obj_tensor, mor)


class TestTensorPipeline:
    def test_level0_is_point(self):
        Q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
        assert len(pn.build_cq(Q, 1, 1, 1, 0)) == 1

    def test_level1_is_object_set(self):
        Q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
        assert len(pn.build_cq(Q, 1, 1, 1, 1)) == len(pn.qpow(Q, 1, 1))

    def test_level2_closed_form(self):
        Q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
        X = pn.TensorGridObject(Q, 1, 1)
        assert len(pn.build_cq(Q, 1, 1, 1, 2)) == len(
            square_fiber_product(X))

    def test_tensor_object_action_functorial(self):
        rng = random.Random(2)
        Q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
        X = pn.TensorGridObject(Q, 2, 1)
        vals = X.values(2, 1)
        for _ in range(15):
            e = rng.choice(vals)
            a1 = MonotoneMap(1, 2, tuple(sorted(
                rng.randrange(3) for _ in range(2))))
            a2 = MonotoneMap(1, 1, tuple(sorted(
                rng.randrange(2) for _ in range(2))))
            b1 = MonotoneMap(1, 1, tuple(sorted(
                rng.randrange(2) for _ in range(2))))
            b2 = MonotoneMap(1, 1, tuple(sorted(
                rng.randrange(2) for _ in range(2))))
            one = X.act(a2, b2, X.act(a1, b1, e))
            two = X.act(a1.compose(a2), b1.compose(b2), e)
            assert one == two

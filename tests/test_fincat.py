import itertools
import random

import pytest

from spankit import fincat
from spankit.fincat import Diagram, FinCategory, FinFunctor
from spankit.instances import (chain_diagram, monotone_functor,
                               random_poset_category)


class TestFinCategory:
    def test_chain_hom_sizes(self):
        c = FinCategory.chain(3)
        for i in range(4):
            for j in range(4):
                assert len(c.hom(i, j)) == (1 if i <= j else 0)

    def test_from_monoid(self):
        z3 = FinCategory.from_monoid(
            [[(i + j) % 3 for j in range(3)] for i in range(3)], 0)
        assert z3.n_objects == 1
        assert len(z3.morphisms) == 3

    def test_opposite_involution(self):
        rng = random.Random(0)
        c = random_poset_category(rng, 4)
        assert c.opposite().opposite().morphisms == c.morphisms

    def test_bad_tables_rejected(self):
        # identity law broken: id . f comes out as id
        with pytest.raises(ValueError):
            FinCategory(1, [(0, 0), (0, 0)], [0],
                        {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0})
        # a composite of morphism 1 in a category with one morphism
        with pytest.raises(ValueError, match="unknown morphism"):
            FinCategory(1, [(0, 0)], [0], {(0, 0): 0, (0, 1): 0})

    # [1] is id0 = 0, 0 -> 1 = 1 and id1 = 2
    CHAIN1 = {(0, 0): 0, (1, 0): 1, (2, 1): 1, (2, 2): 2}

    @pytest.mark.parametrize("change, message", [
        ({(0, 1): 1}, "composite of non-composable pair"),
        ({(2, 1): None}, "missing composite"),
        ({(1, 0): 0}, "composite has wrong endpoints"),
        ({(5, 0): 1}, "unknown morphism"),
        ({(-1, 1): 1}, "unknown morphism"),
        ({(1, 0): 3}, "unknown morphism"),
        ({"identities": [5, 2]}, "identity names an unknown morphism"),
        ({"identities": [-1, 2]}, "identity names an unknown morphism"),
        ({"morphisms": [(0, 0), (0, 2), (1, 1)]},
         "morphism names an unknown object"),
        ({"morphisms": [(0, 0), (-1, 1), (1, 1)]},
         "morphism names an unknown object"),
    ])
    def test_table_defects_rejected(self, change, message):
        fields = {"morphisms": [(0, 0), (0, 1), (1, 1)], "identities": [0, 2],
                  "comp": dict(self.CHAIN1)}
        for key, h in change.items():
            if key in fields:
                fields[key] = h
            elif h is None:
                del fields["comp"][key]
            else:
                fields["comp"][key] = h
        with pytest.raises(ValueError, match=message):
            FinCategory(2, **fields)

    def test_product_tables_pass_the_check(self):
        # product and opposite skip the check, so their tables must pass
        # it on their own and hold the fields that __init__ would make of
        # them
        rng = random.Random(7)
        monoids = [([[(i + j) % k for j in range(k)] for i in range(k)], 0)
                   for k in (1, 2, 3)]
        monoids.append(([[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0))  # a band
        cats = [FinCategory.from_monoid(*m) for m in monoids]
        cats += [random_poset_category(rng, n) for n in (1, 2, 3, 3, 4)]
        for a in cats:
            derived = [a.opposite()] + [a.product(b)
                                        for b in rng.sample(cats, 4)]
            for p in derived:
                q = FinCategory(p.n_objects, p.morphisms, p.identities,
                                p.comp)
                assert (q.morphisms, q.identities, q.comp) == (
                    p.morphisms, p.identities, p.comp)

    def test_product_codes(self):
        a = FinCategory.chain(1)
        b = FinCategory.from_monoid([[0, 1], [1, 0]], 0)
        p = a.product(b)
        assert p.factors == (a, b) and p.n_objects == 2
        for f, (sf, df) in enumerate(a.morphisms):
            for g in range(2):
                assert p.morphisms[f * 2 + g] == (sf, df)
        for (g1, f1), h1 in a.comp.items():
            for (g2, f2), h2 in b.comp.items():
                assert p.compose(g1 * 2 + g2, f1 * 2 + f2) == h1 * 2 + h2

    def test_non_associative_rejected(self):
        # unital but (1.1).2 = 1 while 1.(1.2) = 2
        with pytest.raises(ValueError, match="associativity fails"):
            FinCategory.from_monoid([[0, 1, 2], [1, 2, 1], [2, 2, 1]], 0)
        # Z/2 = {0, 1} on object 0 and p = 3, q = 4 : 0 -> 1 with p.1 = q
        # and q.1 = q, so (p.1).1 = q but p.(1.1) = p
        comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0, (2, 2): 2,
                (3, 0): 3, (4, 0): 4, (3, 1): 4, (4, 1): 4,
                (2, 3): 3, (2, 4): 4}
        with pytest.raises(ValueError, match="associativity fails"):
            FinCategory(2, [(0, 0), (0, 0), (1, 1), (0, 1), (0, 1)], [0, 2],
                        comp)


class TestShapeCounts:
    # one object, its identity
    POINT = FinCategory.chain(0)

    @pytest.mark.parametrize("on_objects, on_morphisms, message", [
        # two value lists on one object used to make limit return pairs
        ([["a"], ["b", "c"]], [{"a": "a"}], "one value list per object"),
        ([], [{}], "one value list per object"),
        ([["a"]], [], "one morphism map per morphism"),
        ([["a"]], [{"a": "a"}, {"a": "a"}], "one morphism map per morphism"),
    ])
    def test_diagram_lists_match_the_shape(self, on_objects, on_morphisms,
                                           message):
        with pytest.raises(ValueError, match=message):
            Diagram(self.POINT, on_objects, on_morphisms)

    @pytest.mark.parametrize("obj_map, mor_map, message", [
        ([0, 0], [0], "one object image per source object"),
        ([], [0], "one object image per source object"),
        ([0], [], "one morphism image per source morphism"),
        ([0], [0, 0], "one morphism image per source morphism"),
    ])
    def test_functor_maps_match_the_source(self, obj_map, mor_map, message):
        with pytest.raises(ValueError, match=message):
            FinFunctor(self.POINT, self.POINT, obj_map, mor_map)

    @pytest.mark.parametrize("n, obj_map, mor_map, message", [
        # an IndexError once
        (0, [0], [7], "morphism image names an unknown morphism"),
        # a KeyError once: -2 passed the endpoint check as morphism 1
        (1, [0, 1], [0, -2, 2], "morphism image names an unknown morphism"),
        # accepted once, as object 1 and its identity
        (0, [-1], [2], "object image names an unknown object"),
        # "functor breaks endpoints" once
        (0, [2], [2], "object image names an unknown object"),
    ])
    def test_functor_images_name_target_cells(self, n, obj_map, mor_map,
                                              message):
        with pytest.raises(ValueError, match=message):
            FinFunctor(FinCategory.chain(n), FinCategory.chain(1), obj_map,
                       mor_map)


def zk_set_diagram(rng, k):
    """A random Z/k-set as a diagram on the one-object category Z/k:
    a disjoint union of orbits, morphism i acting as the i-th power of
    the generator, so every arrow goes from the object to itself."""
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    sizes = [rng.choice(divisors) for _ in range(rng.randrange(1, 4))]
    points = ["p%d" % i for i in range(sum(sizes))]
    rng.shuffle(points)
    gen, start = {}, 0
    for size in sizes:
        orbit = points[start:start + size]
        start += size
        for i, x in enumerate(orbit):
            gen[x] = orbit[(i + 1) % size]
    powers = [{x: x for x in points}]
    for _ in range(k - 1):
        powers.append({x: gen[powers[-1][x]] for x in points})
    shape = FinCategory.from_monoid(
        [[(i + j) % k for j in range(k)] for i in range(k)], 0)
    return Diagram(shape, [points], powers)


def parallel_pair_diagram(rng):
    """Two random maps X => Y: the limit is their equalizer."""
    shape = FinCategory(2, [(0, 0), (1, 1), (0, 1), (0, 1)], [0, 1],
                        {(0, 0): 0, (1, 1): 1, (2, 0): 2, (3, 0): 3,
                         (1, 2): 2, (1, 3): 3})
    xs = ["x%d" % i for i in range(rng.randrange(1, 5))]
    ys = ["y%d" % i for i in range(rng.randrange(1, 4))]
    f = {x: rng.choice(ys) for x in xs}
    g = {x: rng.choice(ys) for x in xs}
    return Diagram(shape, [xs, ys],
                   [{x: x for x in xs}, {y: y for y in ys}, f, g])


def bipartite_diagram(rng, lows, highs):
    """Random maps from low objects 0..lows-1 into the high objects above
    them, so two earlier objects can force different values on a later
    one."""
    leq = {(a, b) for a in range(lows) for b in range(lows, lows + highs)
           if rng.random() < 0.7}
    shape = FinCategory.from_poset(
        lows + highs, lambda a, b: a == b or (a, b) in leq)
    sets = [["v%d_%d" % (a, i) for i in range(rng.randrange(1, 4))]
            for a in range(lows + highs)]
    maps = [{x: (x if s == d else rng.choice(sets[d])) for x in sets[s]}
            for (s, d) in shape.morphisms]
    return Diagram(shape, sets, maps)


class TestLimits:
    def test_limit_matches_bruteforce(self):
        rng = random.Random(1)
        diagrams = [chain_diagram(rng, rng.randrange(1, 4))
                    for _ in range(20)]
        diagrams += [zk_set_diagram(rng, k) for k in (2, 3, 4)
                     for _ in range(10)]
        diagrams += [parallel_pair_diagram(rng) for _ in range(20)]
        diagrams += [bipartite_diagram(rng, rng.randrange(1, 4),
                                       rng.randrange(1, 3))
                     for _ in range(20)]
        # the empty diagram has one family, ()
        diagrams.append(Diagram(FinCategory(0, [], [], {}), [], []))
        for d in diagrams:
            # same families in the same order
            assert fincat.limit(d).apex == fincat.limit_bruteforce(d)

    def test_compatible_families_on_arbitrary_arrows(self):
        # arrows need not come from a category: no identities, self
        # arrows, backward arrows, cycles and several arrows into one
        # position; the solver keeps the caller's order only when no
        # arrow points back, and the families come out sorted either way
        rng = random.Random(6)
        selfs = cycles = long_reach = forward = 0
        for _ in range(300):
            n = rng.randrange(0, 7)
            sizes = [rng.randrange(1, 4) for _ in range(n)]
            arrows = [[] for _ in range(n)]
            ahead = rng.random() < 0.3  # then no arrow points back
            for _ in range(rng.randrange(0, 11) if n else 0):
                i, j = rng.randrange(n), rng.randrange(n)
                if ahead:
                    i, j = min(i, j), max(i, j)
                table = [rng.randrange(sizes[j]) for _ in range(sizes[i])]
                arrows[i].append((j, rng.choice(
                    [table, tuple(table), dict(enumerate(table))])))
            want = [fam for fam in itertools.product(*map(range, sizes))
                    if all(table[fam[i]] == fam[j]
                           for i in range(n) for (j, table) in arrows[i])]
            assert fincat.compatible_families(sizes, arrows) == want
            forward += any(j > i for i in range(n) for j, _ in arrows[i]) \
                and all(j >= i for i in range(n) for j, _ in arrows[i])
            # the shapes drawn: steps[i][j] is the fewest arrows i -> j
            steps = [{j: 1 for j, _ in arrows[i]} for i in range(n)]
            for i in range(n):
                todo = list(steps[i])
                while todo:
                    k = todo.pop(0)
                    for j, _ in arrows[k]:
                        if j not in steps[i]:
                            steps[i][j] = steps[i][k] + 1
                            todo.append(j)
            selfs += any(i == j for i in range(n) for j, _ in arrows[i])
            cycles += any(steps[i].get(i, 0) > 1 for i in range(n))
            long_reach += any(k >= 3 for s in steps for k in s.values())
        assert (selfs > 80 and cycles > 35 and long_reach > 15
                and forward > 50), (selfs, cycles, long_reach, forward)

    def test_limit_of_pullback_shape(self):
        # cospan x -> z <- y with two-point fibers
        shape = fincat.FinCategory.from_poset(
            3, lambda i, j: i == j or j == 2)
        sets = [["x0", "x1"], ["y0", "y1"], ["z0", "z1"]]
        maps = []
        for f, (s, d) in enumerate(shape.morphisms):
            if s == d:
                maps.append({v: v for v in sets[s]})
            elif s == 0:
                maps.append({"x0": "z0", "x1": "z1"})
            else:
                maps.append({"y0": "z0", "y1": "z0"})
        d = fincat.Diagram(shape, sets, maps)
        apex = fincat.limit(d).apex
        assert sorted(apex) == [("x0", "y0", "z0"), ("x0", "y1", "z0")]
        assert fincat.check_cone_terminal(d, fincat.limit(d))


class TestEndsAndNat:
    def test_end_of_hom_is_nat(self):
        rng = random.Random(2)
        pairs = []
        for _ in range(10):
            n = rng.randrange(1, 3)
            pairs.append((chain_diagram(rng, n), chain_diagram(rng, n)))
        # on Z/k a twisted arrow (p, q) from f to q.f.p may return to f
        # with p and q not both identities, unlike on a chain
        for k in (2, 3):
            zk = cyclic(k)
            regular = Diagram(zk, [list(range(k))],
                              [{x: (x + i) % k for x in range(k)}
                               for i in range(k)])
            trivial = Diagram(zk, [["t0", "t1"]],
                              [{"t0": "t0", "t1": "t1"}] * k)
            pairs += itertools.product([regular, trivial], repeat=2)
        for f, g in pairs:
            h = fincat.hom_bifunctor(f, g)
            wedges = fincat.end(h)
            nats = fincat.nat_transformations(f, g)
            assert len(wedges) == len(nats)
            wedge_keys = sorted(
                tuple(sorted(w[a]) for a in sorted(w)) for w in wedges)
            nat_keys = sorted(
                tuple(sorted(eta[a].items())
                      for a in range(len(eta))) for eta in nats)
            assert wedge_keys == nat_keys

    def test_hom_diagram_passes_the_check(self):
        # hom_bifunctor builds its diagram unchecked, so the checked
        # constructor must accept it
        rng = random.Random(4)
        pairs = []
        for _ in range(10):
            n = rng.randrange(1, 3)
            pairs.append((chain_diagram(rng, n), chain_diagram(rng, n)))
        for k in (2, 3, 4):
            # the regular Z/k-set and random ones of at most 4 points
            sets = [Diagram(cyclic(k), [list(range(k))],
                            [{x: (x + i) % k for x in range(k)}
                             for i in range(k)])]
            while len(sets) < 4:
                d = zk_set_diagram(rng, k)
                if len(d.on_objects[0]) <= 4:
                    sets.append(d)
            pairs += itertools.product(sets, repeat=2)
        for f, g in pairs:
            h = fincat.hom_bifunctor(f, g)
            Diagram(h.shape, h.on_objects, h.on_morphisms)

    def test_altered_hom_action_rejected(self):
        # on [1], the action of (p, p) for p : 0 -> 1 is the composite
        # of (p, id) and (id, p), so one altered value breaks composition
        shape = FinCategory.chain(1)
        f = Diagram(shape, [[0, 1], [0, 1]], [{0: 0, 1: 1}] * 3)
        h = fincat.hom_bifunctor(f, f)
        assert h.shape.factors[1] is shape
        maps = [dict(m) for m in h.on_morphisms]
        pq = 1 * 3 + 1
        x, y = next(iter(maps[pq].items()))
        maps[pq][x] = next(z for z in h.on_objects[1] if z != y)  # H(0, 1)
        with pytest.raises(ValueError, match="diagram breaks composition"):
            Diagram(h.shape, h.on_objects, maps)

    def test_coend_point_count(self):
        rng = random.Random(3)
        f = chain_diagram(rng, 2)
        g = chain_diagram(rng, 2)
        h = fincat.hom_bifunctor(f, g)
        classes, quotient = fincat.coend(h)
        assert sum(len(c) for c in classes) == len(quotient)


def cyclic(k):
    return FinCategory.from_monoid(
        [[(i + j) % k for j in range(k)] for i in range(k)], 0)


def kan_families(via_comma, n):
    """Families of ``right_kan``, keyed by comma objects (a, m), in the
    form of ``right_kan_end_formula``: a -> the pairs (m, value), sorted."""
    return [{a: tuple(sorted((m, x) for (a2, m), x in fam.items() if a2 == a))
             for a in range(n)} for fam in via_comma]


class TestRightKan:
    def test_comma_equals_end_formula(self):
        rng = random.Random(4)
        cases = []
        for _ in range(25):
            chain = FinCategory.chain(rng.randrange(1, 3))
            poset = random_poset_category(rng, rng.randrange(2, 4))
            cases.append((monotone_functor(rng, chain, poset),
                          chain_diagram(rng, chain.n_objects - 1)))
        # out of Z/k every morphism is an endomorphism: here a naturality
        # square from an object to itself is not the identity's
        for k in (2, 3):
            zk = cyclic(k)
            regular = Diagram(zk, [list(range(k))],
                              [{x: (x + i) % k for x in range(k)}
                               for i in range(k)])
            functors = [FinFunctor(zk, zk, [0], range(k)),
                        FinFunctor(zk, cyclic(6), [0],
                                   [6 // k * i for i in range(k)]),
                        FinFunctor(zk, cyclic(1), [0], [0] * k)]
            cases += [(f, g) for f in functors
                      for g in [regular] + [zk_set_diagram(rng, k)
                                            for _ in range(3)]]
        for f, g in cases:
            for b in range(f.target.n_objects):
                via_comma, _ = fincat.right_kan(f, g, b)
                via_end = fincat.right_kan_end_formula(f, g, b)
                assert (sorted(map(repr, kan_families(via_comma,
                                                      f.source.n_objects)))
                        == sorted(map(repr, via_end)))
        # the identity of Z/3 on its regular set: the three translations
        via_end = fincat.right_kan_end_formula(functors[0], regular, 0)
        assert len(via_end) == 3

    def test_kan_along_identity(self):
        rng = random.Random(5)
        chain = FinCategory.chain(2)
        ident = FinFunctor(chain, chain, [0, 1, 2],
                           list(range(len(chain.morphisms))))
        g = chain_diagram(rng, 2)
        for b in range(3):
            fams, _ = fincat.right_kan(ident, g, b)
            assert len(fams) == len(g.on_objects[b])


class TestCotensor:
    def test_function_set_size(self):
        assert len(fincat.cotensor(["t0", "t1"], ["a", "b", "c"])) == 9
        assert len(fincat.cotensor([], ["a"])) == 1

import hashlib
import itertools
import random

import pytest

from spankit import spans as sp
from spankit.fincat import compatible_families
from spankit.instances import random_bottom_diagram
from spankit.simplex import MonotoneMap, PointedMap


def factor_leq(poset, a, b):
    """The product order taken factor by factor."""
    return all(f.leq(x, y) for f, x, y in zip(poset.factors, a, b))


def slice_objects(poset, x):
    """The bottom objects under x, in ``bottom()`` order."""
    return [poset.objects[y] for y in poset._slices_c[poset._code[x]]]


def oracle_slice_limit(F, objs, slot):
    """The slice limit with the order relation taken factor by factor
    and the value maps of ``get_map``, each value numbered by its
    position in its label list: the families come out in the
    lexicographic order of those positions."""
    labels = [F.labels[y][slot] for y in objs]
    arrows = [[] for _ in objs]
    for i, y in enumerate(objs):
        for j, z in enumerate(objs):
            if i != j and factor_leq(F.poset, y, z):
                m = F.get_map(y, z)[slot]
                arrows[i].append((j, [labels[j].index(m[v])
                                      for v in labels[i]]))
    fams = compatible_families(list(map(len, labels)), arrows)
    return [tuple(map(list.__getitem__, labels, fam)) for fam in fams]


def oracle_is_cartesian(F):
    """``is_cartesian`` over ``oracle_slice_limit``: every label maps one
    to one onto its slice limit."""
    for x in F.poset.objects:
        objs = slice_objects(F.poset, x)
        for s in range(F.width):
            fams = oracle_slice_limit(F, objs, s)
            legs = [F.get_map(x, y)[s] for y in objs]
            image = [tuple(leg[e] for leg in legs) for e in F.labels[x][s]]
            if len(set(image)) != len(image) or set(image) != set(fams):
                return False, (x, s)
    return True, None


def slice_values(F, slot):
    """``_SliceLimits`` with each position replaced by its value, keyed
    by object."""
    out = {}
    table = sp._SliceLimits(F, slot)
    for x, code in F.poset._code.items():
        fams = table[code]
        values = [F.labels[y][slot] for y in slice_objects(F.poset, x)]
        out[x] = [tuple(map(list.__getitem__, values, fam)) for fam in fams]
    return out


def random_span(rng, name, apex_size, feet_size):
    apex = tuple("%s%d" % (name, i) for i in range(apex_size))
    feet = tuple(range(feet_size))
    return sp.Span(feet, apex, feet,
                   tuple((a, rng.choice(feet)) for a in apex),
                   tuple((a, rng.choice(feet)) for a in apex))


class TestSpanComposition:
    def test_pullback_apex(self):
        s1 = sp.Span(("x",), ("a", "b"), ("y", "z"),
                     (("a", "x"), ("b", "x")),
                     (("a", "y"), ("b", "z")))
        s2 = sp.Span(("y", "z"), ("c",), ("w",),
                     (("c", "y"),), (("c", "w"),))
        out = sp.compose_spans(s1, s2)
        assert out.apex == (("a", "c"),)
        assert out.left(("a", "c")) == "x"
        assert out.right(("a", "c")) == "w"

    def test_identity_neutral_up_to_relabeling(self):
        rng = random.Random(0)
        for _ in range(20):
            s = random_span(rng, "a", rng.randrange(1, 5),
                            rng.randrange(1, 4))
            left = sp.compose_spans(sp.Span.identity(s.left_foot), s)
            right = sp.compose_spans(s, sp.Span.identity(s.right_foot))
            for t in (left, right):
                assert sorted((t.left(a), t.right(a)) for a in t.apex) == \
                    sorted((s.left(a), s.right(a)) for a in s.apex)

    def test_element_listed_twice_rejected(self):
        legs = (("a", 0), ("b", 0))
        for feet, apex in [((0, 0), ("a", "b")), ((0,), ("a", "a"))]:
            with pytest.raises(ValueError, match="lists an element twice"):
                sp.Span(feet, apex, (0,), legs, legs)
            with pytest.raises(ValueError, match="lists an element twice"):
                sp.Span((0,), apex, feet, legs, legs)

    def test_leg_not_a_function_on_the_apex_rejected(self):
        # a leg lists one apex point twice, or a point outside the apex
        for left in [(("a", "x1"), ("a", "x2")), (("a", "x1"), ("b", "x2"))]:
            for legs in [(left, (("a", "y"),)), ((("a", "y"),), left)]:
                with pytest.raises(ValueError, match="not a function"):
                    sp.Span(("x1", "x2", "y"), ("a",), ("x1", "x2", "y"),
                            *legs)

    def test_incompatible_feet_rejected(self):
        s1 = sp.Span((0,), ("a",), (1,), (("a", 0),), (("a", 1),))
        s2 = sp.Span((2,), ("b",), (3,), (("b", 2),), (("b", 3),))
        with pytest.raises(ValueError):
            sp.compose_spans(s1, s2)


class TestProductPoset:
    def test_object_count(self):
        p = sp.ProductPoset((2,), (1,))
        assert len(p.objects) == 6 * 3

    def test_bottom_objects(self):
        p = sp.ProductPoset((2,), ())
        bottoms = [x for x in p.objects if p.is_bottom(x)]
        assert len(bottoms) == 5  # lengths 0 and 1 only

    def test_covers_componentwise(self):
        p = sp.ProductPoset((1,), (1,))
        for (a, b) in p.covers:
            changed = sum(1 for x, y in zip(a, b) if x != y)
            assert changed == 1

    def test_order_relation_is_the_product_of_factor_orders(self):
        shapes = ([((k,), (l,)) for k in range(4) for l in range(4)]
                  + [((1, 1), (1,)), ((1,), (2, 1))])
        for levels in shapes:
            p = sp.ProductPoset(*levels)
            for a in p.objects:
                want = [b for b in p.objects if factor_leq(p, a, b)]
                down = p._down_c[p._code[a]]
                assert [p.objects[b] for b in down] == want, (levels, a)
                below = set(want)
                for b in p.objects:
                    assert p.leq(a, b) == (b in below), (levels, a, b)


class TestCartesian:
    def test_bottom_generated_diagrams_are_cartesian(self):
        rng = random.Random(1)
        for levels in [((2,), ()), ((), (2,)), ((1,), (1,))]:
            F = random_bottom_diagram(rng, *levels)
            ok, witness = sp.is_cartesian(F)
            assert ok, witness

    def test_label_set_repeating_a_value_rejected(self):
        # a repeated value would be one element listed twice: the
        # replaced label would list its family twice
        p = sp.ProductPoset((1,), ())
        left, right, edge = p.objects
        assert (edge, left) in p.covers and (edge, right) in p.covers
        labels = {edge: [["u", "v", "u"]], left: [["u", "v"]],
                  right: [["u", "v"]]}
        ident = [{"u": "u", "v": "v"}]
        maps = {(edge, left): ident, (edge, right): ident}
        with pytest.raises(ValueError, match="label set repeats a value"):
            sp.GeneralizedSpanDiagram(p, 1, labels, maps)
        # the replacement is not checked, so the bottom labels are
        bottom = {edge: [["u", "u"]], left: [["v"]], right: [["v"]]}
        to_v = [{"u": "v"}]
        with pytest.raises(ValueError, match="label set repeats a value"):
            sp.diagram_from_bottom(p, 1, bottom,
                                   {(edge, left): to_v, (edge, right): to_v})

    def test_failure_witness(self):
        rng = random.Random(2)
        F = random_bottom_diagram(rng, (2,), ())
        # break the top label by duplicating an element
        top = max(F.poset.objects,
                  key=lambda x: x[0].source_size)
        F.labels[top][0].append("extra")
        for (a, b) in F.poset.covers:
            if a == top:
                tgt = F.labels[b][0][0]
                F.maps[(a, b)][0]["extra"] = tgt
        G = sp.GeneralizedSpanDiagram(F.poset, F.width, F.labels, F.maps,
                                      check=False)
        ok, witness = sp.is_cartesian(G)
        assert not ok
        assert witness[0] == top

    def test_non_functorial_diagram_rejected(self):
        # [0,2] reaches the point {1} through [0,1] and through [1,2];
        # move one value on the first route only
        F = random_bottom_diagram(random.Random(0), (2,), ())
        top = (MonotoneMap(2, 2, (0, 1, 2)),)
        left = (MonotoneMap(1, 2, (0, 1)),)
        point = (MonotoneMap(0, 2, (1,)),)
        assert F.labels[top][0] and len(F.labels[point][0]) > 1
        y = F.maps[(top, left)][0][F.labels[top][0][0]]
        down = F.maps[(left, point)][0]
        down[y] = next(z for z in F.labels[point][0] if z != down[y])
        with pytest.raises(ValueError, match="not functorial"):
            sp.GeneralizedSpanDiagram(F.poset, F.width, F.labels, F.maps)

    def test_paths_disagreeing_across_factors_rejected(self):
        # in the square Sigma^1 x Theta^1 each factor has one path from
        # its top to a point; the two paths from the top corner to
        # (point 0, {0}) step the factors in the two orders
        p = sp.ProductPoset((1,), (1,))
        bottom_labels = {x: [["u", "v"]] for x in p.objects if p.is_bottom(x)}
        bottom_maps = {(a, b): [{"u": "u", "v": "v"}]
                       for (a, b) in p.covers if p.is_bottom(a)}
        F = sp.diagram_from_bottom(p, 1, bottom_labels, bottom_maps)
        top = (MonotoneMap(1, 1, (0, 1)), (0, 1))
        via_sigma = (MonotoneMap(0, 1, (0,)), (0, 1))
        corner = (MonotoneMap(0, 1, (0,)), (0,))
        assert (top, via_sigma) in p.covers and (via_sigma, corner) in p.covers
        assert len(F.labels[top][0]) == 4
        maps = dict(F.maps)
        u, v = F.labels[corner][0]
        swap = {u: v, v: u}
        maps[(via_sigma, corner)] = [
            {fam: swap[y] for fam, y in maps[(via_sigma, corner)][0].items()}]
        with pytest.raises(ValueError, match="not functorial at") as err:
            sp.GeneralizedSpanDiagram(p, 1, F.labels, maps)
        assert repr(corner) in str(err.value)
        # unchecked, the composite runs through the first cover step out
        # of top that lies above corner: via_sigma, with the swap
        unchecked = sp.GeneralizedSpanDiagram(p, 1, F.labels, maps,
                                              check=False)
        assert p.objects[p._up_c[p._code[top]][0]] == via_sigma
        uu, uv, vu, vv = [("u",) * 6, ("u", "v") * 3, ("v", "u") * 3,
                          ("v",) * 6]
        assert F.labels[top][0] == [uu, uv, vu, vv]
        assert unchecked.get_map(top, corner) == [
            {uu: ("v",), uv: ("v",), vu: ("u",), vv: ("u",)}]

    @staticmethod
    def scrambled():
        """A bottom-generated diagram on Sigma^2 x Theta^1 whose top label
        keeps only its first value: not cartesian, built unchecked."""
        F = random_bottom_diagram(random.Random(3), (2,), (1,))
        top = max(F.poset.objects,
                  key=lambda x: (x[0].source_size, len(x[1])))
        F.labels[top][0] = F.labels[top][0][:1]
        for (a, b) in F.poset.covers:
            if a == top:
                F.maps[(a, b)][0] = {e: F.maps[(a, b)][0][e]
                                     for e in F.labels[top][0]}
        return sp.GeneralizedSpanDiagram(F.poset, F.width, F.labels,
                                         F.maps, check=False)

    def test_replacement_fixes_and_is_idempotent(self):
        G, comparison = sp.cartesian_replacement(self.scrambled())
        ok, witness = sp.is_cartesian(G)
        assert ok, witness
        H, _ = sp.cartesian_replacement(G)
        for x in G.poset.objects:
            assert [len(s) for s in H.labels[x]] == \
                [len(s) for s in G.labels[x]]

    def test_comparison_maps_built_on_first_read(self, monkeypatch):
        F = TestSliceLimit.shuffled(random.Random(29), ((1,), (1,)), "top", 2)
        assert not sp.is_cartesian(F)[0]
        plain = sp.comparison_map
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return plain(*args)
        monkeypatch.setattr(sp, "comparison_map", counting)
        G, comparison = sp.cartesian_replacement(F)
        p = F.poset
        assert list(comparison) == p.objects
        assert len(comparison) == len(p.objects)
        assert all(x in comparison for x in p.objects)
        assert "x" not in comparison
        with pytest.raises(TypeError):
            comparison[p.objects[0]] = []
        assert calls[0] == 0
        for x in p.objects:
            assert comparison[x] is comparison[x]
            for s in range(F.width):
                assert comparison[x][s] == plain(F, x, s)
                assert set(comparison[x][s].values()) <= set(G.labels[x][s])
        assert calls[0] == len(p.objects) * F.width

    def test_checked_constructor_accepts_every_replacement(self):
        """The replacement is built unchecked; the checked constructor
        accepts it (labels repeat no value, maps are total and land in
        their targets, every route gives one composite)."""
        rng = random.Random(28)
        inputs = [self.scrambled()]
        for levels in TestSliceLimit.SHAPES:
            for width in (1, 2):
                inputs.append(random_bottom_diagram(rng, *levels, width=width))
                for variant in ("top", "extra"):
                    inputs.append(TestSliceLimit.shuffled(rng, levels, variant,
                                                          width))
        for F in inputs:
            G, _ = sp.cartesian_replacement(F)
            sp.GeneralizedSpanDiagram(G.poset, G.width, G.labels, G.maps)

    def test_replacement_pinned(self):
        """labels, maps and get_map of every pair of the replacement of
        seeded diagrams up to Sigma^3 x Theta^3, pinned to a digest."""
        rng = random.Random(28)
        h = hashlib.sha256()
        pairs = 0
        for k in range(4):
            for l in range(4):
                F = random_bottom_diagram(rng, (k,), (l,),
                                          width=rng.randint(1, 2))
                G, _ = sp.cartesian_replacement(F)
                p = G.poset
                h.update(repr([G.labels[x] for x in p.objects]).encode())
                h.update(repr([G.maps[e] for e in p.covers]).encode())
                for a in p.objects:
                    for b in p.objects:
                        if p.leq(a, b):
                            # the keys are a's label, in its order
                            h.update(repr([list(m.values())
                                           for m in G.get_map(a, b)]).encode())
                            pairs += 1
        assert pairs == 5040
        assert h.hexdigest() == (
            "c478f6798eb73397a05abe7466ecbf369edd7effba82c6a33d27de07cb168a3e")


class TestComposites:
    def test_get_map_is_the_composite_along_any_cover_path(self):
        # pairs are read in a shuffled order: an unchecked diagram fills a
        # composite on its first read, a checked one builds them all
        rng = random.Random(21)
        for levels in TestSliceLimit.SHAPES:
            F = random_bottom_diagram(rng, *levels, width=rng.randint(1, 2))
            p = F.poset
            out = {a: [b for (x, b) in p.covers if x == a] for a in p.objects}
            pairs = list(itertools.product(p.objects, repeat=2))
            for check in (True, False):
                G = sp.GeneralizedSpanDiagram(p, F.width, F.labels, F.maps,
                                              check=check)
                rng.shuffle(pairs)
                for a, b in pairs:
                    if not factor_leq(p, a, b):
                        with pytest.raises(ValueError, match="no arrow"):
                            G.get_map(a, b)
                        continue
                    # compose the cover maps along a random path a -> b
                    path, x = [{k: k for k in s} for s in G.labels[a]], a
                    while x != b:
                        m = rng.choice([m for m in out[x]
                                        if factor_leq(p, m, b)])
                        path = [{k: d[v] for k, v in c.items()}
                                for c, d in zip(path, G.maps[(x, m)])]
                        x = m
                    assert G.get_map(a, b) == path, (levels, check, a, b)


class TestSliceLimit:
    """``_SliceLimits`` on codes and composite tables returns the
    families of the oracle on labels and value maps, in the same order."""

    SHAPES = ([((k,), (l,)) for k in range(3) for l in range(3)]
              + [((1, 1), (1,))])
    # slices joined from joined slices, and repeated factors
    JOINS = [((3,), (1,)), ((), (1, 1)), ((1,), (1, 2)), ((2,), (1, 1))]

    @staticmethod
    def shuffled(rng, levels, variant, width=None):
        """A bottom-generated diagram (of a random width unless given)
        with every bottom label list shuffled.  ``top`` then doubles the first value of the top label
        and ``extra`` gives a minimal object a value that no map reaches,
        which breaks cartesianness wherever those labels take part."""
        F = random_bottom_diagram(rng, *levels,
                                  width=width or rng.randint(1, 2))
        p = F.poset
        labels = {x: [list(s) for s in F.labels[x]] for x in p.objects}
        maps = {e: [dict(d) for d in F.maps[e]] for e in p.covers}
        for x in p.bottom():
            for s in labels[x]:
                rng.shuffle(s)
        if variant == "top":
            top = max(p.objects, key=lambda x: len(p._down_c[p._code[x]]))
            if labels[top][0]:
                labels[top][0].append(("extra",))
                for (a, b) in p.covers:
                    if a == top:
                        maps[(a, b)][0][("extra",)] = \
                            maps[(a, b)][0][labels[top][0][0]]
        elif variant == "extra":
            sources = {a for (a, _) in p.covers}
            x = rng.choice([y for y in p.objects if y not in sources])
            labels[x][0].insert(rng.randint(0, len(labels[x][0])),
                                ("extra",))
        return sp.GeneralizedSpanDiagram(p, F.width, labels, maps,
                                         check=False)

    def test_matches_solving_in_slice_order(self):
        rng = random.Random(12)
        reordered = broken = 0
        cases = ([(levels, ("bottom", "top", "extra") * 4)
                  for levels in self.SHAPES]
                 + [(levels, ("bottom", "top", "extra"))
                    for levels in self.JOINS])
        for levels, variants in cases:
            for variant in variants:
                F = self.shuffled(rng, levels, variant)
                broken += not sp.is_cartesian(F)[0]
                for s in range(F.width):
                    got = slice_values(F, s)
                    for x in F.poset.objects:
                        want = oracle_slice_limit(
                            F, slice_objects(F.poset, x), s)
                        assert got[x] == want, (levels, variant, x, s)
                        reordered += want != sorted(want)
        # the shuffles make the label order differ from the value order
        assert reordered > 100 and broken > 30, (reordered, broken)


    def test_cartesian_check_and_replacement_match_the_oracle(self):
        rng = random.Random(19)
        reordered = broken = 0
        cases = ([(levels, ("bottom", "top", "extra") * 3)
                  for levels in self.SHAPES]
                 + [(levels, ("bottom", "top", "extra"))
                    for levels in self.JOINS])
        for levels, variants in cases:
            for variant in variants:
                F = self.shuffled(rng, levels, variant)
                got = [slice_values(F, s) for s in range(F.width)]
                want = {x: [oracle_slice_limit(F, slice_objects(F.poset, x),
                                               s)
                            for s in range(F.width)]
                        for x in F.poset.objects}
                for x, fams in want.items():
                    for s, fam in enumerate(fams):
                        assert got[s][x] == fam, (levels, variant, x, s)
                        reordered += fam != sorted(fam)
                flag = oracle_is_cartesian(F)
                broken += not flag[0]
                assert sp.is_cartesian(F) == flag, (levels, variant)
                G, _ = sp.cartesian_replacement(F)
                assert G.labels == want, (levels, variant)
        # the label order differs from the value order, and some
        # diagrams are not cartesian
        assert reordered > 500 and broken > 20, (reordered, broken)


class TestHashing:
    def test_hash_calls_grow_with_covers(self, monkeypatch):
        """Building a diagram and checking it hash each object and each
        cover a bounded number of times, whatever the number of pairs
        a >= b and of routes between them."""
        F = random_bottom_diagram(random.Random(19), (3,), (3,))
        p = F.poset
        assert (len(p.objects), len(p.covers)) == (150, 460)
        calls = [0]
        plain = MonotoneMap.__hash__

        def counting(self):
            calls[0] += 1
            return plain(self)
        monkeypatch.setattr(MonotoneMap, "__hash__", counting)
        G = sp.GeneralizedSpanDiagram(p, F.width, F.labels, F.maps)
        assert sp.is_cartesian(G) == (True, None)
        assert calls[0] <= 16 * (len(p.objects) + len(p.covers)), calls[0]


class TestReindexing:
    def test_gamma_act_on_width(self):
        rng = random.Random(4)
        F = random_bottom_diagram(rng, (1,), (), width=2)
        psi = PointedMap(2, 1, (1, 1))
        G = sp.gamma_act(psi, F)
        assert G.width == 1
        bottom = F.poset.bottom()[0]
        # the single new slot is the product of the two old slots
        assert len(G.labels[bottom][0]) == (
            len(F.labels[bottom][0]) * len(F.labels[bottom][1]))

    def test_gamma_act_empty_preimage_is_unit(self):
        rng = random.Random(5)
        F = random_bottom_diagram(rng, (1,), (), width=1)
        psi = PointedMap(1, 2, (2,))
        G = sp.gamma_act(psi, F)
        assert G.width == 2
        bottom = F.poset.bottom()[0]
        assert len(G.labels[bottom][0]) == 1

    def test_gamma_act_functorial(self):
        rng = random.Random(6)
        F = random_bottom_diagram(rng, (1,), (), width=2)
        p1 = PointedMap(2, 2, (2, 1))
        p2 = PointedMap(2, 1, (1, 1))
        lhs = sp.gamma_act(p2, sp.gamma_act(p1, F))
        rhs = sp.gamma_act(p2.compose(p1), F)
        for x in F.poset.objects:
            assert [len(s) for s in lhs.labels[x]] == \
                [len(s) for s in rhs.labels[x]]

    def test_delta_act_sigma_functorial(self):
        rng = random.Random(7)
        F = random_bottom_diagram(rng, (1,), ())
        a1 = MonotoneMap(1, 1, (0, 0))
        a0 = MonotoneMap(0, 1, (1,))
        lhs = sp.delta_act(sp.delta_act(F, 0, a1), 0, a0)
        rhs = sp.delta_act(F, 0, a1.compose(a0))
        assert lhs.labels == rhs.labels and lhs.maps == rhs.maps

    def test_delta_act_preserves_cartesian(self):
        rng = random.Random(8)
        F = random_bottom_diagram(rng, (2,), ())
        alpha = MonotoneMap(2, 2, (0, 0, 1))
        G = sp.delta_act(F, 0, alpha)
        ok, witness = sp.is_cartesian(G)
        assert ok, witness

    def test_delta_act_theta_collapse_gives_products(self):
        # pulling a level-1 subset diagram back along the collapse
        # [2] -> [1] makes the doubled face the product of its points
        rng = random.Random(9)
        F = random_bottom_diagram(rng, (), (1,))
        alpha = MonotoneMap(2, 1, (0, 0, 1))
        G = sp.delta_act(F, 0, alpha)
        ok, witness = sp.is_cartesian(G)
        assert ok, witness
        collapsed = next(x for x in G.poset.objects if x[0] == (0, 1))
        p0 = next(x for x in G.poset.objects if x[0] == (0,))
        p1 = next(x for x in G.poset.objects if x[0] == (1,))
        assert len(G.labels[collapsed][0]) == (
            len(G.labels[p0][0]) * len(G.labels[p1][0]))

    def test_actions_built_unchecked_match_the_checked_build(self,
                                                            monkeypatch):
        # both actions build their result unchecked; with every diagram
        # forced through the checked constructor (which raises on a
        # non-functorial diagram) they must give the same labels and
        # the same composite for every arrow
        checked_diagram = sp.GeneralizedSpanDiagram

        def checked(poset, width, labels, maps, check=True):
            return checked_diagram(poset, width, labels, maps)

        def assert_same(got, want):
            objs = want.poset.objects
            assert got.labels == want.labels
            for a, b in itertools.product(objs, repeat=2):
                if want.poset.leq(a, b):
                    assert got.get_map(a, b) == want.get_map(a, b)

        rng = random.Random(30)
        for levels in [((1,), ()), ((2,), ()), ((), (2,)), ((1,), (1,)),
                       ((2,), (1,))]:
            for _ in range(3):
                width = rng.randint(1, 3)
                F = random_bottom_diagram(rng, *levels, width=width)
                target = rng.randint(1, 3)
                psi = PointedMap(width, target, [rng.randint(0, target)
                                                 for _ in range(width)])
                fi = rng.randrange(len(F.poset.factors))
                level = F.poset.factors[fi].level
                source = rng.randint(0, 3)
                alpha = MonotoneMap(source, level, sorted(
                    rng.randint(0, level) for _ in range(source + 1)))
                got = (sp.gamma_act(psi, F), sp.delta_act(F, fi, alpha))
                with monkeypatch.context() as m:
                    m.setattr(sp, "GeneralizedSpanDiagram", checked)
                    want = (sp.gamma_act(psi, F), sp.delta_act(F, fi, alpha))
                for g, w in zip(got, want):
                    assert_same(g, w)


class TestDecorations:
    def test_weights_must_be_total(self):
        rng = random.Random(10)
        F = random_bottom_diagram(rng, (1,), ())
        weights = {x: [{}] for x in F.poset.objects}
        with pytest.raises(ValueError):
            sp.DecoratedSpanDiagram(F, weights)

    def test_gamma_act_adds_weights(self):
        rng = random.Random(11)
        F = random_bottom_diagram(rng, (1,), (), width=2)
        weights = {x: [{e: 1 for e in s} for s in F.labels[x]]
                   for x in F.poset.objects}
        D = sp.DecoratedSpanDiagram(F, weights)
        psi = PointedMap(2, 1, (1, 1))
        E = D.gamma_act(psi)
        bottom = F.poset.bottom()[0]
        for e, w in E.weights[bottom][0].items():
            assert w == 2  # both slots contribute weight 1

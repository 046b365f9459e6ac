import random

import pytest

from spankit import spans as sp
from spankit.instances import random_bottom_diagram
from spankit.simplex import MonotoneMap, PointedMap


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


class TestCartesian:
    def test_bottom_generated_diagrams_are_cartesian(self):
        rng = random.Random(1)
        for levels in [((2,), ()), ((), (2,)), ((1,), (1,))]:
            F = random_bottom_diagram(rng, *levels)
            ok, witness = sp.is_cartesian(F)
            assert ok, witness

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

    def test_replacement_fixes_and_is_idempotent(self):
        rng = random.Random(3)
        F = random_bottom_diagram(rng, (2,), (1,))
        # scramble a non-bottom label set
        top = max(F.poset.objects,
                  key=lambda x: (x[0].source_size, len(x[1])))
        F.labels[top][0] = F.labels[top][0][:1]
        for (a, b) in F.poset.covers:
            if a == top:
                F.maps[(a, b)][0] = {e: F.maps[(a, b)][0][e]
                                     for e in F.labels[top][0]}
        broken = sp.GeneralizedSpanDiagram(F.poset, F.width, F.labels,
                                           F.maps, check=False)
        G, comparison = sp.cartesian_replacement(broken)
        ok, witness = sp.is_cartesian(G)
        assert ok, witness
        H, _ = sp.cartesian_replacement(G)
        for x in G.poset.objects:
            assert [len(s) for s in H.labels[x]] == \
                [len(s) for s in G.labels[x]]


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

"""End-to-end acceptance checks: each test states its exactness claim
and asserts a wall-clock budget alongside it."""

import hashlib
import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from spankit import crw, fincat, pathnerve as pn, pushpull as pp, ratlin
from spankit import simplex, spans as sp
from spankit.fincat import FinCategory
from spankit.instances import (chain_diagram, conjugated, monotone_functor,
                               point_span, random_bottom_diagram,
                               random_poset_category, square_fiber_product)
from spankit.pushpull import VectorFamily
from spankit.simplex import MonotoneMap


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, "exceeded %.0fs budget (%.1fs)" % (
        seconds, elapsed)


# ---------------------------------------------------------------------------
# builders and oracles used only here
# ---------------------------------------------------------------------------

def random_category(rng, max_objects=5):
    kind = rng.randrange(3)
    if kind == 0:
        return FinCategory.chain(rng.randrange(1, max_objects))
    if kind == 1:
        return random_poset_category(rng, rng.randrange(2, max_objects + 1))
    k = rng.randrange(2, 5)
    return FinCategory.from_monoid(
        [[(i + j) % k for j in range(k)] for i in range(k)], 0)


def chain_count(cat, k):
    """Number of k-chains of composable morphisms."""
    if k == 0:
        return cat.n_objects
    counts = {f: 1 for f in range(len(cat.morphisms))}
    for _ in range(k - 1):
        counts = {g: sum(c for f, c in counts.items()
                         if cat.dst(f) == cat.src(g))
                  for g in range(len(cat.morphisms))}
    return sum(counts.values())


def direct_value_count(F, k, x, slot):
    """Iterated-pullback/product prediction for the cartesian value at
    x = (interval, subset) over SpanPoset(k) x SubsetPoset(l): a product
    over the singletons of the subset of the count of compatible edge
    chains along the interval in that slice."""
    phi, subset = x
    offset, length = phi.values[0], phi.source_size

    def slice_chains(s):
        if length == 0:
            vx = (MonotoneMap.inert(offset, 0, k), (s,))
            return len(F.labels[vx][slot])
        edges = [(MonotoneMap.inert(j, 1, k), (s,))
                 for j in range(offset, offset + length)]
        total = 0
        for choice in itertools.product(*[F.labels[e][slot] for e in edges]):
            ok = True
            for j in range(1, length):
                vx = (MonotoneMap.inert(offset + j, 0, k), (s,))
                left = F.maps[(edges[j - 1], vx)][slot][choice[j - 1]]
                right = F.maps[(edges[j], vx)][slot][choice[j]]
                if left != right:
                    ok = False
                    break
            if ok:
                total += 1
        return total

    out = 1
    for s in subset:
        out *= slice_chains(s)
    return out


def fixed_size_bottom(rng, sigma_levels, theta_levels, size):
    """Arguments of ``diagram_from_bottom`` (width 1): ``size`` labels at
    every bottom object and a random map along every cover out of the
    bottom layer."""
    poset = sp.ProductPoset(sigma_levels, theta_levels)
    labels = {x: [["e%d" % i for i in range(size)]]
              for x in poset.objects if poset.is_bottom(x)}
    maps = {(a, b): [{e: rng.choice(labels[b][0]) for e in labels[a][0]}]
            for (a, b) in poset.covers if poset.is_bottom(a)}
    return poset, 1, labels, maps


def unit_spine(vertices, dim_fn):
    spine = {}
    for a in range(len(vertices) - 1):
        base = tuple((x, y) for x in vertices[a] for y in vertices[a + 1])
        spine[a] = [VectorFamily.build(base, dim_fn)]
    return spine


# ---------------------------------------------------------------------------
# the eleven criteria
# ---------------------------------------------------------------------------

def test_01_poset_enumeration():
    with budget(1):
        sigma3 = simplex.build_sigma(3)
        assert len(sigma3.objects) == 10
        assert sum(1 for f in sigma3.lambda_flags if f) == 7
        theta2 = simplex.build_theta(2)
        assert len(theta2.objects) == 7
        assert sum(1 for f in theta2.xi_flags if f) == 3


def test_02_path_category_hom_sizes():
    with budget(1):
        for l in range(6):
            cat = pn.build_path(l)
            for i in range(l + 1):
                for j in range(i + 1, l + 1):
                    assert len(cat.hom(i, j)) == 2 ** (j - i - 1)


def test_03_nondegeneracy_lemma():
    with budget(10):
        for l in range(5):
            table = pn.nondegenerate_table(l, bound=l + 2)
            for (u, v), cells in table.items():
                if u + v > l:
                    assert cells == []
        counts = {k: len(v)
                  for k, v in pn.nondegenerate_table(2, bound=2).items()}
        assert (counts[(0, 0)], counts[(1, 0)], counts[(2, 0)],
                counts[(1, 1)], counts[(0, 1)]) == (3, 4, 1, 1, 0)


def test_04_labelled_limit_closed_forms():
    rng = random.Random(0)
    with budget(30):
        for _ in range(25):
            X = pn.SquareOfNerve(random_category(rng))
            assert len(pn.labelled_limit(X, 0)) == len(X.values(0, 0))
            assert len(pn.labelled_limit(X, 1)) == len(X.values(1, 0))
            assert len(pn.labelled_limit(X, 2)) == len(
                square_fiber_product(X))


def test_05_square_grid_facts():
    rng = random.Random(1)
    with budget(10):
        for _ in range(10):
            cat = random_category(rng)
            X = pn.SquareOfNerve(cat)
            for k in range(3):
                assert len(X.values(k, 0)) == chain_count(cat, k)
            pairs = sum(
                1
                for f1, g1 in itertools.product(
                    range(len(cat.morphisms)), repeat=2)
                if cat.dst(f1) == cat.src(g1)
                for f2, g2 in itertools.product(
                    range(len(cat.morphisms)), repeat=2)
                if cat.dst(f2) == cat.src(g2)
                and cat.compose(g2, f2) == cat.compose(g1, f1))
            assert len(X.values(1, 1)) == pairs
        walking = pn.SquareOfNerve(FinCategory.chain(1))
        assert len(walking.values(1, 1)) == 6


def test_06_cartesian_replacement_vs_direct():
    rng = random.Random(2)
    with budget(60):
        for k in range(4):
            for l in range(4):
                F = random_bottom_diagram(rng, (k,), (l,))
                G, _ = sp.cartesian_replacement(F)
                ok, witness = sp.is_cartesian(G)
                assert ok, witness
                for x in G.poset.objects:
                    assert len(G.labels[x][0]) == direct_value_count(
                        G, k, x, 0), x


def test_07_vertical_composition_oracle():
    rng = random.Random(3)
    with budget(60):
        for _ in range(200):
            l = point_span("l", rng.randrange(1, 5))
            m = point_span("m", rng.randrange(1, 5))
            n = point_span("n", rng.randrange(1, 5))
            mm = pp.TwoMorphism.from_dims(l, m, lambda t: rng.randrange(0, 4))
            nn = pp.TwoMorphism.from_dims(m, n, lambda t: rng.randrange(0, 4))
            out = pp.compose2_vertical(mm, nn)
            for a in l.apex:
                for c in n.apex:
                    assert out.payload.dim((a, c)) == sum(
                        mm.payload.dim((a, b)) * nn.payload.dim((b, c))
                        for b in m.apex)
        # unit laws via the explicitly assembled isomorphisms
        for _ in range(10):
            l, m = point_span("l", 2), point_span("m", 2)
            mm = pp.TwoMorphism.from_dims(l, m, lambda t: rng.randrange(0, 3))
            composite, iso = pp.vertical_unit_law_iso(mm)
            assert composite.payload == mm.payload
            for x in iso.source.base:
                a = iso.mat(x)
                assert a == ratlin.identity(len(a))


def test_08_uniqueness_of_fillings():
    rng = random.Random(4)
    with budget(120):
        for l in (2, 3):
            vertices = [("a", "b")[:1 + (a % 2)] for a in range(l + 1)]
            spine = unit_spine(vertices,
                               lambda t: 1 + rng.randrange(2))
            d = pp.synthesize_filling(vertices, 0, spine)
            assert pp.is_pushpull(d)
            for _ in range(3):
                dc, _ = conjugated(rng, d)
                assert pp.is_pushpull(dc)
                assert pp.fillings_isomorphic(d, dc)
            psi, dof = pp.filling_iso_solutions(d, d)
            assert psi is not None and dof == 0


def test_09_tensor_pipeline_closed_forms():
    with budget(60):
        examples = [
            pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0),
            pn.FinSymMonCat.from_commutative_monoid(
                [[(i + j) % 3 for j in range(3)] for i in range(3)], 0),
            pn.FinSymMonCat.subsets_under_union(1),
        ]
        for Q in examples:
            assert len(pn.build_cq(Q, 1, 1, 1, 0)) == 1
            assert len(pn.build_cq(Q, 1, 1, 1, 1)) == len(pn.qpow(Q, 1, 1))
            X = pn.TensorGridObject(Q, 1, 1)
            assert len(pn.build_cq(Q, 1, 1, 1, 2)) == len(
                square_fiber_product(X))


def test_10_derived_critical_locus():
    with budget(10):
        for n in range(2, 6):
            a, b, report = crw.build_intro_algebras(n)
            table = crw.cohomology(b, n + 2)
            for (w, e, o) in table:
                assert e == (1 if w < n else 0)
                assert o == 0
            assert report["A_d_squared_zero"]
            assert report["B_d_squared_zero"]
            for g in b.gens:
                assert b.d(b.d(b.gen(g.name))) == {}


def test_11_kan_and_end_cross_checks():
    rng = random.Random(5)
    with budget(60):
        count = 0
        while count < 100:
            chain = FinCategory.chain(rng.randrange(1, 3))
            poset = random_poset_category(rng, rng.randrange(2, 4))
            f = monotone_functor(rng, chain, poset)
            g = chain_diagram(rng, chain.n_objects - 1)
            for b in range(poset.n_objects):
                via_comma, _ = fincat.right_kan(f, g, b)
                via_end = fincat.right_kan_end_formula(f, g, b)
                assert len(via_comma) == len(via_end)
                count += 1
        for _ in range(10):
            n = rng.randrange(1, 3)
            f = chain_diagram(rng, n)
            g = chain_diagram(rng, n)
            wedges = fincat.end(fincat.hom_bifunctor(f, g))
            nats = fincat.nat_transformations(f, g)
            assert len(wedges) == len(nats)


def test_12_tensor_pipeline_level3_pinned():
    # Z/2 at l = 3: 2048 families, in a pinned order
    with budget(30):
        Q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
        fams = pn.build_cq(Q, 1, 1, 1, 3)
        assert len(fams) == 2048
        assert hashlib.sha256(repr(fams).encode()).hexdigest() == (
            "e5af5e1dc689a9b3ed37de3e4cb5e9c5d04b687c79d195125b2bdde430586015")


def rank_mod_p(a, p=1000003):
    """Rank of an integer matrix over Z/p: a lower bound for its rank
    over Q, because a minor that is non-zero mod p is non-zero."""
    m = [[x % p for x in row] for row in a]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_13_dense_rank_80():
    # a dense random 80 x 80 integer matrix, and a product of random
    # 80 x 60 and 60 x 80 factors: ranks 80 and 60, certified mod p
    rng = random.Random(80)
    full = [[rng.randint(-9, 9) for _ in range(80)] for _ in range(80)]
    left = [[rng.randint(-9, 9) for _ in range(60)] for _ in range(80)]
    right = [[rng.randint(-9, 9) for _ in range(80)] for _ in range(60)]
    low = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
           for row in left]
    assert (rank_mod_p(full), rank_mod_p(low)) == (80, 60)
    with budget(3):
        assert ratlin.rank(ratlin.mat(full)) == 80
        assert ratlin.rank(ratlin.mat(low)) == 60


def koszul_quadrics():
    """Four even weight-1 generators and two lists of four quadrics in
    them: a regular sequence, and a dependent one whose last quadric is
    3 q1 + q2."""
    G = crw.Generator
    gens = [G("x%d" % i, 0, 1) for i in range(4)]

    def quadric(*terms):
        return {m: Fraction(c) for c, m in terms}
    regular = [quadric((1, (2, 0, 0, 0)), (1, (0, 1, 1, 0))),
               quadric((1, (0, 2, 0, 0)), (-1, (0, 0, 1, 1))),
               quadric((1, (0, 0, 2, 0)), (2, (1, 0, 0, 1))),
               quadric((1, (0, 0, 0, 2)), (-1, (1, 1, 0, 0)),
                       (1, (0, 1, 0, 1)))]
    q1 = quadric((1, (1, 1, 0, 0)), (1, (0, 0, 1, 1)))
    q2 = quadric((1, (1, 0, 1, 0)), (-1, (0, 1, 0, 1)))
    dependent = [q1, q2, quadric((1, (2, 0, 0, 0)), (2, (0, 0, 2, 0))),
                 quadric((3, (1, 1, 0, 0)), (3, (0, 0, 1, 1)),
                         (1, (1, 0, 1, 0)), (-1, (0, 1, 0, 1)))]
    return gens, regular, dependent


def test_14_koszul_cohomology_weight_8_pinned():
    # to weight 8; the regular sequence has Hilbert series (1 + t)^4 and
    # no odd part, the dependent one was tabulated with the Fraction
    # Gauss-Jordan elimination
    gens, regular, dependent = koszul_quadrics()
    with budget(6):
        assert crw.cohomology(crw.koszul_intersection(gens, [], regular),
                              8) == [(w, math.comb(4, w), 0) for w in range(9)]
        assert crw.cohomology(crw.koszul_intersection(gens, [], dependent),
                              8) == [(0, 1, 0), (1, 4, 0), (2, 7, 1),
                                     (3, 8, 4), (4, 8, 7), (5, 8, 8),
                                     (6, 8, 8), (7, 8, 8), (8, 8, 8)]


def test_15_cartesian_replacement_sigma4_theta3_pinned():
    # two labels at every bottom object of Sigma^4 x Theta^3; the labels
    # of the generated diagram are pinned from a solve of each slice in
    # slice order (6.9 s for both steps there)
    bottom = fixed_size_bottom(random.Random(15), (4,), (3,), 2)
    with budget(2):
        G = sp.diagram_from_bottom(*bottom)
        ok, witness = sp.is_cartesian(G)
    assert ok, witness
    assert hashlib.sha256(repr([(x, G.labels[x]) for x in G.poset.objects])
                          .encode()).hexdigest() == (
        "751ef88bc91faf1f6444e3a496c9681a07baf517ec30f82d902af2c07ff6726e")


def test_16_cartesian_replacement_sigma3_theta3_three_labels():
    # three labels at every bottom object of Sigma^3 x Theta^3: every
    # value is the iterated pullback and product count
    bottom = fixed_size_bottom(random.Random(16), (3,), (3,), 3)
    with budget(3):
        G = sp.diagram_from_bottom(*bottom)
        ok, witness = sp.is_cartesian(G)
    assert ok, witness
    for x in G.poset.objects:
        assert len(G.labels[x][0]) == direct_value_count(G, 3, x, 0), x
    assert max(len(G.labels[x][0]) for x in G.poset.objects) > 27


def test_17_dependent_koszul_cohomology_weight_12_pinned():
    # the dependent intersection of test 14 to weight 12, tabulated with
    # d recomputed by the Leibniz rule on every monomial without a memo
    # (3.5 s there); from weight 5 on every weight gives (8, 8)
    gens, _regular, dependent = koszul_quadrics()
    with budget(2):
        table = crw.cohomology(crw.koszul_intersection(gens, [], dependent),
                               12)
    assert table == [(0, 1, 0), (1, 4, 0), (2, 7, 1), (3, 8, 4),
                     (4, 8, 7)] + [(w, 8, 8) for w in range(5, 13)]


def test_18_full_window_limit_z3_level3_pinned():
    # every simplex of the window (1, 1) at l = 3, degenerate ones
    # included, for the nerve square of Z/3; the ordered family list is
    # pinned from a solve in the simplices' own order (about 30 s there,
    # where only the degeneracies force values)
    cat = FinCategory.from_monoid(
        [[(i + j) % 3 for j in range(3)] for i in range(3)], 0)
    with budget(2):
        fams = pn.labelled_limit_full(pn.SquareOfNerve(cat), 3, 1, 1)
    assert len(fams) == 729
    assert hashlib.sha256(repr(fams).encode()).hexdigest() == (
        "6623fc1a5567975e8c9c705bf3454db17f2f97734061af107b63e47937c11db8")


def test_19_nondegenerate_table_level7_pinned():
    # the nondegenerate simplices of the binerve of Path(7), generated
    # rather than filtered out of the nerve (886,614 simplices on strict
    # object chains alone); the table is pinned from the filter over the
    # nerve, which took about 13 s for it
    with budget(3):
        table = pn.nondegenerate_table(7, bound=7)
    assert sum(map(len, table.values())) == 48237
    assert hashlib.sha256(repr(table).encode()).hexdigest() == (
        "63db265b9d6807a087af04d8722c026b757799226d13fe53d7e6e8d48d92444b")

"""Seeded random instances and direct-model oracles, shared by ``verify``
and the tests.  Each builder draws from the ``random.Random`` it is given
in a fixed order, so a fixed seed always yields the same instance.
``spans``, ``pushpull`` and ``ratlin`` are imported by the builders that
use them, so the nerve and spans suites of ``verify`` load no module they
do not call."""

from fractions import Fraction

from .fincat import Diagram, FinCategory, FinFunctor
from .simplex import MonotoneMap


def random_poset_category(rng, n):
    """A random poset on 0..n-1 refining the usual order, as a category:
    each i < j is related with probability 1/2, then closed up."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                leq[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    return FinCategory.from_poset(n, lambda i, j: leq[i][j])


def chain_diagram(rng, n):
    """A random diagram on the chain category [n]: free on the
    consecutive maps, composites filled in from the tables."""
    shape = FinCategory.chain(n)
    sets = [["x%d_%d" % (a, i) for i in range(rng.randrange(1, 4))]
            for a in range(n + 1)]
    step = [{x: rng.choice(sets[a + 1]) for x in sets[a]} for a in range(n)]

    def arrow_map(s, d):
        out = {x: x for x in sets[s]}
        for a in range(s, d):
            out = {x: step[a][out[x]] for x in sets[s]}
        return out

    on_morphisms = [arrow_map(s, d) for (s, d) in shape.morphisms]
    return Diagram(shape, sets, on_morphisms)


def monotone_functor(rng, chain, poset):
    """A random functor from a chain category into a poset category."""
    n = chain.n_objects - 1
    m = poset.n_objects
    while True:
        objs = sorted(rng.randrange(m) for _ in range(n + 1))
        if all(poset.hom(objs[i], objs[i + 1]) for i in range(n)):
            break
    mor_map = [poset.hom(objs[s], objs[d])[0] for (s, d) in chain.morphisms]
    return FinFunctor(chain, poset, objs, mor_map)


def random_bottom_diagram(rng, sigma_levels, theta_levels, width=1):
    """A cartesian diagram generated from random bottom data: one to three
    labels per slot at each bottom object, random maps along the covers
    out of the bottom layer."""
    from . import spans
    poset = spans.ProductPoset(sigma_levels, theta_levels)
    bottom_labels = {}
    for x in poset.objects:
        if poset.is_bottom(x):
            bottom_labels[x] = [
                ["e%d" % i for i in range(rng.randrange(1, 4))]
                for _ in range(width)]
    bottom_maps = {}
    for (a, b) in poset.covers:
        if poset.is_bottom(a):
            bottom_maps[(a, b)] = [
                {e: rng.choice(bottom_labels[b][s])
                 for e in bottom_labels[a][s]}
                for s in range(width)]
    return spans.diagram_from_bottom(poset, width, bottom_labels, bottom_maps)


def point_span(name, size):
    """The span (0,) <- {name0, ..., name<size-1>} -> (0,) over a point."""
    from . import spans
    apex = tuple("%s%d" % (name, i) for i in range(size))
    leg = tuple((a, 0) for a in apex)
    return spans.Span((0,), apex, (0,), leg, leg)


def square_fiber_product(X):
    """Direct model of the level-2 labelled limit: the pairs (triangle,
    square) of X_{2,0} x_{X_{1,0}} X_{1,1}, glued along the composite edge
    of the triangle and the target edge of the square.

    Both corner faces of the indexing square land on the same point of
    the shape, so only squares whose two vertical corner restrictions
    agree take part; for objects with a constant column of points this
    is vacuous."""
    long_edge = MonotoneMap(1, 2, (0, 2))
    id1 = MonotoneMap.identity(1)
    id0 = MonotoneMap.identity(0)
    top = MonotoneMap(0, 1, (1,))
    bottom = MonotoneMap(0, 1, (0,))
    squares = [y for y in X.values(1, 1)
               if all(X.act(side, top, y) == X.act(side, bottom, y)
                      for side in (bottom, top))]
    out = []
    for x in X.values(2, 0):
        fx = X.act(long_edge, id0, x)
        out.extend((x, y) for y in squares if X.act(id1, top, y) == fx)
    return out


def unit_spine(vertices, club=0):
    """Spine data for ``pushpull.synthesize_filling``: the unit family on
    each u_a x u_(a+1) at every height, identity chain maps between."""
    from .pushpull import FamilyMap, VectorFamily
    spine = {}
    spine_vertical = {}
    for a in range(len(vertices) - 1):
        base = tuple((x, y) for x in vertices[a] for y in vertices[a + 1])
        fams = [VectorFamily.unit(base) for _ in range(club + 1)]
        spine[a] = fams
        spine_vertical[a] = [FamilyMap.identity(fams[i])
                             for i in range(club)]
    return spine, spine_vertical


def inverse_family_map(phi):
    """The pointwise inverse of an invertible FamilyMap."""
    from . import ratlin
    from .pushpull import FamilyMap
    return FamilyMap.build(phi.target, phi.source,
                           lambda x: ratlin.inverse(phi.mat(x)))


def conjugated(rng, d):
    """A second filling over the spine of d: transport of the structure
    maps and the vertical chain maps of d along random invertible maps psi
    of the non-spine systems (identity on the spine).  Returns the new
    diagram and psi."""
    from . import pushpull, ratlin
    from .pushpull import FamilyMap
    spine_pairs = {(j, j + 1) for j in range(d.l)}
    psi = {}
    for pr in d._pairs():
        psi[pr] = []
        for i in range(d.club + 1):
            if pr in spine_pairs:
                psi[pr].append(FamilyMap.identity(d.r[pr][i]))
                continue

            def block(x, fam=d.r[pr][i]):
                n = fam.dim(x)
                while True:
                    m = tuple(tuple(Fraction(rng.randrange(-2, 3))
                                    for _ in range(n)) for _ in range(n))
                    if not n or ratlin.is_invertible(m):
                        return m
            psi[pr].append(FamilyMap.build(d.r[pr][i], d.r[pr][i], block))
    phi = {}
    for s in d._faces():
        pi = pushpull._proj(d.vertices, s, (s[0], s[-1]))
        phi[s] = []
        for i in range(d.club + 1):
            seg = pushpull._edge_tensor(d.vertices, s, lambda e: psi[e][i],
                                        pushpull.pullback_map,
                                        pushpull.tensor_map)
            long_inv = pushpull.pullback_map(
                pi, inverse_family_map(psi[(s[0], s[-1])][i]))
            phi[s].append(seg.compose(d.phi[s][i]).compose(long_inv))
    vertical = {pr: [psi[pr][i + 1].compose(v).compose(
                         inverse_family_map(psi[pr][i]))
                     for i, v in enumerate(d.vertical[pr])]
                for pr in d._pairs()}
    dc = pushpull.PushPullThetaDiagram(d.vertices, d.club, d.r, vertical, phi)
    return dc, psi

"""The path 2-category, its binerve, labelled limits, and grid objects.

Path(l) has objects 0..l and Hom(i,j) the poset of subsets of [i,j]
containing both endpoints; horizontal composition is union.  Its nerve
in two simplicial directions consists of (u,v)-simplices: a chain of
u+1 objects together with, for each consecutive pair, a weak chain of
v+1 nested subsets.  Nondegenerate simplices live only in the range
u + v <= l and every simplex is the degeneracy of a unique one.  The
nerve and its nondegenerate simplices come from one generator, and the
latter are not filtered out of the former: hom(i, i) has one
element, so a simplex is nondegenerate in u exactly when its objects
strictly increase, and it is nondegenerate in v exactly when each step
b of [v] is a strict step c_b != c_{b+1} of some row, that is when the
strict-step bitmasks of its rows OR to all v bits.

The labelled limit glues values of a two-variable simplicial object X
over the nondegenerate simplices; commutative-square objects of a
finite category (grid diagrams) provide the instances.  The nerve of a
category is 2-coskeletal, so a grid is a compatible family of its
cells (objects, morphisms and commutative squares), found by the
shared solver ``fincat.compatible_families``.  The strict
monoidal pipeline build_cq stacks the tensor-width, grid, and labelled
limit constructions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .fincat import FinCategory, FinFunctor, compatible_families
from .simplex import MonotoneMap, PointedMap, underlying_monoid


# ---------------------------------------------------------------------------
# the path 2-category
# ---------------------------------------------------------------------------

class Path2Cat:
    """Path(l): objects 0..l, hom posets of endpoint-containing subsets."""

    def __init__(self, level):
        if level < 0:
            raise ValueError("negative level")
        self.level = level
        self.homs = {}
        for i in range(level + 1):
            for j in range(i, level + 1):
                if i == j:
                    self.homs[(i, j)] = [(i,)]
                    continue
                interior = range(i + 1, j)
                subsets = []
                for r in range(j - i):
                    for mid in itertools.combinations(interior, r):
                        subsets.append(tuple(sorted((i, j) + mid)))
                subsets.sort()
                self.homs[(i, j)] = subsets

    def hom(self, i, j):
        return self.homs.get((i, j), [])

    @staticmethod
    def compose(s, t):
        """Horizontal composition (union) of subsets s: i->j, t: j->k."""
        if s[-1] != t[0]:
            raise ValueError("not composable")
        return tuple(sorted(set(s) | set(t)))


def build_path(l):
    return Path2Cat(l)


# ---------------------------------------------------------------------------
# bisimplices of the nerve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiSimplex:
    """A (u,v)-simplex: objects i_0 <= ... <= i_u and, per consecutive
    pair, a weak chain of v+1 nested subsets of the hom poset."""

    u: int
    v: int
    objs: tuple
    chains: tuple  # chains[a][b] is the b-th subset from i_a to i_{a+1}

    # the dataclass's field hash, worked out on first use and kept
    # outside the fields (== and repr skip it): a labelled limit keys
    # every family by the same simplices
    _hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.u, self.v, self.objs, self.chains))
            object.__setattr__(self, "_hash", h)
        return h


def nerve(l, u, v):
    """All (u,v)-simplices of the binerve of Path(l)."""
    return _bisimplices(l, [(u, v)], False)[u, v]


def act(simplex, alpha, beta):
    """The bisimplicial action of (alpha, beta) : ([u'],[v']) -> ([u],[v])."""
    if alpha.target_size != simplex.u or beta.target_size != simplex.v:
        raise ValueError("size mismatch")
    up, vp = alpha.source_size, beta.source_size
    objs = tuple(simplex.objs[alpha(i)] for i in range(up + 1))
    chains = []
    for a in range(up):
        row = []
        for b in range(vp + 1):
            lo, hi = alpha(a), alpha(a + 1)
            if lo == hi:
                row.append((objs[a],))
                continue
            acc = simplex.chains[lo][beta(b)]
            for j in range(lo + 1, hi):
                acc = Path2Cat.compose(acc, simplex.chains[j][beta(b)])
            row.append(acc)
        chains.append(tuple(row))
    return BiSimplex(up, vp, objs, tuple(chains))


def _degenerate_step(s):
    """The first degenerate direction and index of the simplex s, or None:
    ("u", a) when objects a and a+1 agree and chain row a is constant
    there, else ("v", b) when chain columns b and b+1 agree in every row
    (for u == 0 the chains are empty, so every v-direction step repeats)."""
    for a in range(s.u):
        if (s.objs[a] == s.objs[a + 1]
                and all(c == (s.objs[a],) for c in s.chains[a])):
            return "u", a
    for b in range(s.v):
        if all(s.chains[a][b] == s.chains[a][b + 1] for a in range(s.u)):
            return "v", b
    return None


def is_degenerate(simplex):
    return _degenerate_step(simplex) is not None


def nondegenerate_core(simplex):
    """The unique nondegenerate simplex this one is a degeneracy of."""
    s = simplex
    while (step := _degenerate_step(s)) is not None:
        axis, k = step
        n = s.u if axis == "u" else s.v
        skip = MonotoneMap(n - 1, n, tuple(i if i <= k else i + 1
                                           for i in range(n)))
        if axis == "u":
            s = act(s, skip, MonotoneMap.identity(s.v))
        else:
            s = act(s, MonotoneMap.identity(s.u), skip)
    return s


def _stepping_chains(homs, above, length, need):
    """The weak chains c_0 <= ... <= c_{length-1} of subsets from homs
    that step up strictly at every bit b of ``need`` (c_b != c_{b+1}),
    in the lexicographic order of product(homs, repeat=length), each
    with the bitmask of all its strict steps.  ``above[k]`` lists the
    indices of the subsets in homs that contain homs[k]."""
    chains = [((k,), 0) for k in range(len(homs))]
    for b in range(length - 1):
        bit = 1 << b
        chains = [(c + (k,), m if k == c[-1] else m | bit)
                  for c, m in chains for k in above[c[-1]]
                  if k != c[-1] or not need & bit]
    return [(tuple(homs[k] for k in c), m) for c, m in chains]


def _bisimplices(l, shapes, strict):
    """For each (u, v) in shapes, the list of (u,v)-simplices of the
    binerve of Path(l) in the order of the nerve: objects first, then
    the rows in product order.  If ``strict``, only the nondegenerate
    ones: the objects strictly increase, and the rows' strict steps
    cover [v), the last row picked only among the chains that step at
    each bit the earlier ones miss (for u == 0 there is no row, so only
    v == 0 is kept)."""
    objects = (itertools.combinations if strict
               else itertools.combinations_with_replacement)
    path = Path2Cat(l)
    above = {}  # (i, j) -> for each subset, the subsets containing it
    for ij, homs in path.homs.items():
        sets = [set(h) for h in homs]
        above[ij] = [[k for k, t in enumerate(sets) if s <= t] for s in sets]
    chains = {}  # (i, j, v, need) -> _stepping_chains of hom(i, j)

    def row(ij, v, need):
        key = ij + (v, need)
        if key not in chains:
            chains[key] = _stepping_chains(path.homs[ij], above[ij], v + 1,
                                           need)
        return chains[key]

    table = {}
    for u, v in shapes:
        full = (1 << v) - 1 if strict else 0
        table[u, v] = out = []
        for objs in objects(range(l + 1), u + 1):
            picks = [((), 0)]
            for a, ij in enumerate(zip(objs, objs[1:]), 1):
                want = full if a == u else 0  # the last row completes
                picks = [(p + (c,), m | mc) for p, m in picks
                         for c, mc in row(ij, v, want & ~m)]
            out.extend(BiSimplex(u, v, objs, p)
                       for p, m in picks if m & full == full)
    return table


def nondegenerate_table(l, bound=5):
    """Lists of nondegenerate (u,v)-simplices for u+v <= bound, each in
    the order of ``nerve(l, u, v)``, generated directly.

    hom(i, i) is {(i,)}, so a simplex is u-degenerate exactly when an
    object repeats: the objects are the strict chains, which
    ``combinations`` lists in the order ``combinations_with_replacement``
    gives them in the nerve.  A simplex is v-degenerate at b exactly when
    no row steps up strictly at b, so it is nondegenerate exactly when
    the strict-step masks of its rows OR to every bit of [v)."""
    if l > bound:
        raise ValueError("level exceeds configured bound")
    return _bisimplices(l, [(u, v) for u in range(bound + 1)
                            for v in range(bound + 1 - u)], True)


def count_nondegenerate(l, u, v):
    """The number of nondegenerate (u,v)-simplices of the binerve of
    Path(l), ``len(nondegenerate_table(l, b)[u, v])``, built from none.

    For u = 0 there is no row: l + 1 simplices at v = 0, none above.
    For u >= 1 the objects i_0 < ... < i_u span d = i_u - i_0 in
    u <= d <= l: i_0 takes l + 1 - d places and the u - 1 inner objects
    C(d - 1, u - 1) sets of the d - 1 points between.  hom(i, j) is the
    Boolean lattice on the j - i - 1 points inside, and a weak chain of
    s + 1 subsets in it is a choice, per point, of the subset it enters
    at or of never: (s + 2)^(j - i - 1) chains, so (s + 2)^(d - u) tuples
    of rows.  The rows whose strict steps all lie in a fixed S of the v
    steps are those chains of |S| + 1 subsets, and a simplex is
    nondegenerate when its steps cover all v, so Moebius inversion over
    S gives the sum over s = |S| with sign (-1)^(v - s) and C(v, s).
    No nondegenerate simplex has u + v > l, so that sum is skipped there."""
    if u + v > l:
        return 0
    if u == 0:
        return l + 1 if v == 0 else 0
    return sum((-1) ** (v - s) * math.comb(v, s)
               * sum((l + 1 - d) * math.comb(d - 1, u - 1) * (s + 2) ** (d - u)
                     for d in range(u, l + 1))
               for s in range(v + 1))


# ---------------------------------------------------------------------------
# grid diagrams (commutative cubes) in a finite category
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridElement:
    """A functor from the product poset [k_1] x ... x [k_n] to a category.

    ``objs`` maps each node (a tuple) to an object; ``edges`` maps
    (node, axis) to the morphism from node to node+e_axis.  All unit
    squares commute, so path composites are well defined.
    """

    dims: tuple
    objs: tuple   # sorted tuple of (node, obj)
    edges: tuple  # sorted tuple of ((node, axis), morphism)

    # The maps are read per node, so they are built once.  cached_property
    # stores into the instance __dict__, which __eq__, __repr__ and the
    # hash never read.
    @cached_property
    def _obj_map(self):
        return dict(self.objs)

    @cached_property
    def _edge_map(self):
        return dict(self.edges)

    def obj(self, node):
        return self._obj_map[node]

    def edge(self, node, axis):
        return self._edge_map[(node, axis)]


def _grid_nodes(dims):
    return list(itertools.product(*[range(k + 1) for k in dims]))


def _grid_edge_keys(dims):
    """The edge keys (node, axis) of a grid of shape dims, sorted."""
    return [(node, ax) for node in _grid_nodes(dims)
            for ax in range(len(dims)) if node[ax] < dims[ax]]


def _shifted(node, ax, by=1):
    """The node ``by`` steps from node along axis ax."""
    return tuple(c + by if i == ax else c for i, c in enumerate(node))


def square_n(cat, dims):
    """All commutative-grid diagrams of shape prod_i [k_i] in ``cat``.

    This realizes the commutative n-cube object of the nerve of ``cat``:
    the (k_1,..,k_n) component is the set of maps from the product of
    standard simplices, i.e. functors out of the grid poset.  The nerve
    is 2-coskeletal, so a grid is a compatible family of its cells: each
    node takes an object, each edge a morphism with a table to each
    endpoint, and each unit square (one per pair of axes) one of the
    commutative squares c∘a = d∘b of ``cat`` with a table to each of its
    four edges.  The positions are each node's object then the edges
    into it in axis order, squares last, so the sorted families list the
    grids in the order of their nodes' objects and edges.
    """
    dims = tuple(dims)
    nodes = _grid_nodes(dims)
    sources = [s for s, _ in cat.morphisms]
    targets = [d for _, d in cat.morphisms]
    # objs: node -> position, edges: (node, axis) -> position
    sizes, arrows, objs, edges = [], [], {}, {}
    for node in nodes:
        objs[node] = len(sizes)
        sizes.append(cat.n_objects)
        arrows.append([])
        for ax, c in enumerate(node):
            if c:
                prev = _shifted(node, ax, -1)
                edges[prev, ax] = len(sizes)
                sizes.append(len(cat.morphisms))
                arrows.append([(objs[prev], sources), (objs[node], targets)])
    units = [(p, ax1, ax2) for p in nodes
             for ax1, ax2 in itertools.combinations(range(len(dims)), 2)
             if p[ax1] < dims[ax1] and p[ax2] < dims[ax2]]
    if units:
        paths = [[] for _ in cat.morphisms]  # composite -> its (a, c)
        for (c, a), h in cat.comp.items():
            paths[h].append((a, c))
        squares = [(a, b, c, d) for ps in paths for a, c in ps for b, d in ps]
        sides = [[sq[i] for sq in squares] for i in range(4)]
        for p, ax1, ax2 in units:
            sizes.append(len(squares))
            arrows.append(list(zip(
                (edges[p, ax1], edges[p, ax2], edges[_shifted(p, ax1), ax2],
                 edges[_shifted(p, ax2), ax1]), sides)))
    keys = sorted(edges)
    return [GridElement(dims, tuple((node, fam[objs[node]]) for node in nodes),
                        tuple((key, fam[edges[key]]) for key in keys))
            for fam in compatible_families(sizes, arrows)]


@lru_cache(maxsize=None)
def _grid_plan(old_dims, maps):
    """How ``grid_act`` reindexes a grid of shape old_dims along maps:
    the new dims, nodes and edge keys; per new node the index of its old
    node; per new edge (node, ax) the index of its old start node and
    the indices of the old edges from there along axis ax to the old
    node of node + e_ax.  A plan serves every grid of the shape."""
    dims = tuple(m.source_size for m in maps)
    nodes = _grid_nodes(dims)
    old_nodes = {node: i for i, node in enumerate(_grid_nodes(old_dims))}
    old_edges = {key: i for i, key in enumerate(_grid_edge_keys(old_dims))}
    keys = _grid_edge_keys(dims)
    paths = []
    for node, ax in keys:
        at = [m(c) for m, c in zip(maps, node)]
        start, end = old_nodes[tuple(at)], maps[ax](node[ax] + 1)
        path = []
        while at[ax] < end:
            path.append(old_edges[tuple(at), ax])
            at[ax] += 1
        paths.append((start, tuple(path)))
    olds = tuple(old_nodes[tuple(m(c) for m, c in zip(maps, node))]
                 for node in nodes)
    return dims, tuple(nodes), tuple(keys), olds, tuple(paths)


def grid_act(cat, grid, maps):
    """Reindex a grid diagram along monotone maps, one per axis.  It
    reads ``grid.objs`` and ``grid.edges`` as lists, in node order and
    key order, and composes each new edge along its ``_grid_plan`` path
    from the identity of its start object."""
    dims, nodes, keys, olds, paths = _grid_plan(grid.dims, tuple(maps))
    objs = [o for _, o in grid.objs]
    edges = [f for _, f in grid.edges]
    ids, comp = cat.identities, cat.comp
    out = []
    for start, path in paths:
        f = ids[objs[start]]
        for e in path:
            f = comp[edges[e], f]
        out.append(f)
    return GridElement(dims, tuple(zip(nodes, [objs[i] for i in olds])),
                       tuple(zip(keys, out)))


class SquareOfNerve:
    """The two-variable object X with X_{u,v} = grid diagrams [u] x [v].

    This is the commutative-square object of the nerve of a finite
    category, the instance family used for labelled limits.
    """

    def __init__(self, cat):
        self.cat = cat

    def values(self, u, v):
        return square_n(self.cat, (u, v))

    def act(self, alpha, beta, element):
        return grid_act(self.cat, element, (alpha, beta))


# ---------------------------------------------------------------------------
# labelled limits
# ---------------------------------------------------------------------------

def _injective_maps(n):
    """The injective monotone maps into [n], from every [m] with m <= n."""
    return [MonotoneMap(m, n, vals) for m in range(n + 1)
            for vals in itertools.combinations(range(n + 1), m + 1)]


def _generators(n):
    """The identity of [n], the faces [n-1] -> [n] and the degeneracies
    [n+1] -> [n]."""
    return ([MonotoneMap.identity(n)]
            + [MonotoneMap(n - 1, n, [i for i in range(n + 1) if i != k])
               for k in range(n + 1) if n]
            + [MonotoneMap(n + 1, n, sorted([*range(n + 1), k]))
               for k in range(n + 1)])


def labelled_limit(X, l):
    """The labelled limit over the nondegenerate category of elements.

    An element assigns to every nondegenerate (u,v)-simplex of the
    binerve (u+v <= l) an element of X_{u,v}, compatibly with all face
    maps between nondegenerate simplices.  Returns a list of dicts.  The
    simplices and their faces are built once per level, for every X; the
    face tables of X are built per call and fill as the solver reads
    them.
    """
    return _limit_over(X, *_nondegenerate_window(l))


def labelled_limit_full(X, l, ubound=None, vbound=None):
    """The limit over every simplex of the window u <= ubound,
    v <= vbound, degenerate ones included, along all monotone maps; each
    is a surjection then an injection, so it composes from the faces and
    degeneracies imposed here through simplices of the window.  This is
    not ``labelled_limit``: the degeneracies make each (0,v)-value the
    degeneracy of its vertex's value.  For ``SquareOfNerve(C)`` at l = 2
    that keeps the families whose ``spine_square_simplex(2)`` square has
    identity edges along v.  The two agree where X_{0,v} holds no other
    element over a vertex: for C whose only endomorphisms are identities,
    and for ``TensorGridObject``, whose X_{0,v} is {()}.  The window is
    built once per (l, ubound, vbound), as for ``labelled_limit``."""
    ubound = l if ubound is None else ubound
    vbound = l if vbound is None else vbound
    return _limit_over(X, *_full_window(l, ubound, vbound))


@lru_cache(maxsize=None)
def _nondegenerate_window(l):
    """``_faces`` of the nondegenerate simplices, u + v <= l, along the
    injective maps."""
    simplices = [s for nd in nondegenerate_table(l, bound=l).values()
                 for s in nd]
    # this order fixes the output: the keys and the order of the families
    simplices.sort(key=lambda s: (-(s.u + s.v), s.objs, s.chains))
    return _faces(simplices, _injective_maps)


@lru_cache(maxsize=None)
def _full_window(l, ubound, vbound):
    """``_faces`` of every simplex, u <= ubound and v <= vbound, along
    the faces and degeneracies."""
    simplices = [s for u in range(ubound + 1) for v in range(vbound + 1)
                 for s in nerve(l, u, v)]
    return _faces(simplices, _generators)


def _faces(simplices, maps):
    """The simplices and, per simplex s, its arrows (j, alpha, beta) to
    every other listed simplex simplices[j] = act(s, alpha, beta), for
    alpha in maps(s.u) and beta in maps(s.v), where maps(n) lists maps
    into [n].  All tuples: the windows cache them for every caller."""
    index = {s: i for i, s in enumerate(simplices)}
    return tuple(simplices), tuple(
        tuple((j, alpha, beta) for alpha in maps(s.u) for beta in maps(s.v)
              for j in [index.get(act(s, alpha, beta), i)] if j != i)
        for i, s in enumerate(simplices))


class _FaceTable(dict):
    """A face (alpha, beta) of X on positions: entry p is the position in
    ``rank`` of X.act(alpha, beta, source[p]), acted out on first lookup."""

    def __init__(self, X, face, source, rank):
        self.X, self.face, self.source, self.rank = X, face, source, rank

    def __missing__(self, p):
        q = self[p] = self.rank[self.X.act(*self.face, self.source[p])]
        return q


def _limit_over(X, simplices, faces):
    """The compatible families over ``simplices``, as dicts keyed by
    simplex, along the arrows ``faces`` (see ``_faces``), which a window
    builds once per level.  The solver runs on positions in each
    X.values(u, v), called once per (u, v); each face (alpha, beta) is
    one table, shared by its simplices and filled as the solver reads it
    (a full window forces most values of its largest shapes)."""
    values = {uv: X.values(*uv)
              for uv in dict.fromkeys((s.u, s.v) for s in simplices)}
    ranks = {uv: {x: p for p, x in enumerate(vs)}
             for uv, vs in values.items()}
    tables = {}  # (alpha, beta) -> its _FaceTable
    for s, row in zip(simplices, faces):
        for j, alpha, beta in row:
            if (alpha, beta) not in tables:
                t = simplices[j]
                tables[alpha, beta] = _FaceTable(
                    X, (alpha, beta), values[s.u, s.v], ranks[t.u, t.v])
    arrows = [[(j, tables[a, b]) for j, a, b in row] for row in faces]
    domains = [values[s.u, s.v] for s in simplices]
    return [dict(zip(simplices, [d[p] for d, p in zip(domains, fam)]))
            for fam in compatible_families(list(map(len, domains)), arrows)]


def spine_square_simplex(l):
    """The (1,1)-simplex {0,l} into {0,1,...,l} used by the projection."""
    return BiSimplex(1, 1, (0, l), ((((0, l), tuple(range(l + 1)))),))


def xi(element, l):
    """Project a labelled-limit element to its component at the
    (1,1)-simplex pairing the long edge {0,l} with the full spine."""
    if l < 2:
        raise ValueError("projection defined for l >= 2")
    return element[spine_square_simplex(l)]


# ---------------------------------------------------------------------------
# strict symmetric monoidal categories and the tensor pipeline
# ---------------------------------------------------------------------------

class FinSymMonCat:
    """A finite category with a strictly associative, strictly unital,
    strictly commutative tensor on objects and morphisms, which is a
    functor ``cat.product(cat) -> cat``."""

    def __init__(self, cat, unit, obj_tensor, mor_tensor):
        self.cat = cat
        self.unit = unit
        self.obj_tensor = dict(obj_tensor)
        self.mor_tensor = dict(mor_tensor)
        self._check()

    def _check(self):
        C, t, m, unit = self.cat, self.obj_tensor, self.mor_tensor, self.unit
        objs, mors = range(C.n_objects), range(len(C.morphisms))
        if unit not in objs:
            raise ValueError("unit names an unknown object")
        tables = ((t, objs, unit, "object"),
                  (m, mors, C.identities[unit], "morphism"))
        for table, elems, _, what in tables:
            for a in elems:
                for b in elems:
                    if (a, b) not in table:
                        raise ValueError(what + " tensor not total")
                    if table[(a, b)] not in elems:
                        raise ValueError(what + " tensor names an unknown "
                                         + what)
        for table, elems, e, what in tables:
            for a in elems:
                for b in elems:
                    if table[(a, b)] != table[(b, a)]:
                        raise ValueError(what + " tensor not commutative")
                if table[(a, e)] != a:  # so table[(e, a)] == a too
                    raise ValueError("unit law fails on %ss" % what)
            for a in elems:
                for b in elems:
                    for c in elems:
                        if (table[(table[(a, b)], c)]
                                != table[(a, table[(b, c)])]):
                            raise ValueError(what + " tensor not associative")
        # a functor C x C -> C: endpoints, identities and interchange
        FinFunctor(C.product(C), C, [t[(a, b)] for a in objs for b in objs],
                   [m[(f, g)] for f in mors for g in mors])

    @staticmethod
    def from_commutative_monoid(table, unit):
        """One-object strict symmetric monoidal category whose morphism
        tensor and composition are both the (commutative) monoid product."""
        cat = FinCategory.from_monoid(table, unit)
        mor = {(f, g): table[f][g] for f in range(len(table))
               for g in range(len(table))}
        return FinSymMonCat(cat, 0, {(0, 0): 0}, mor)

    @staticmethod
    def subsets_under_union(n):
        """Poset of subsets of {0..n-1} under inclusion, tensor = union."""
        objs = list(itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(n + 1)))
        objs.sort(key=lambda s: (len(s), s))
        idx = {s: i for i, s in enumerate(objs)}
        cat = FinCategory.from_poset(
            len(objs), lambda a, b: set(objs[a]) <= set(objs[b]))
        obj_tensor = {}
        for a in range(len(objs)):
            for b in range(len(objs)):
                obj_tensor[(a, b)] = idx[tuple(sorted(set(objs[a]) | set(objs[b])))]
        mor_tensor = {}
        for f, (a1, b1) in enumerate(cat.morphisms):
            for g, (a2, b2) in enumerate(cat.morphisms):
                src = obj_tensor[(a1, a2)]
                dst = obj_tensor[(b1, b2)]
                mor_tensor[(f, g)] = cat.hom(src, dst)[0]
        return FinSymMonCat(cat, idx[()], obj_tensor, mor_tensor)

    def tensor_grid(self, g1, g2):
        """Pointwise tensor of two grid diagrams of the same shape."""
        objs = tuple(sorted((node, self.obj_tensor[(o1, g2._obj_map[node])])
                            for node, o1 in g1.objs))
        edges = tuple(sorted((key, self.mor_tensor[(m1, g2._edge_map[key])])
                             for key, m1 in g1.edges))
        return GridElement(g1.dims, objs, edges)

    def unit_grid(self, dims):
        e = self.cat.identities[self.unit]
        return GridElement(tuple(dims),
                           tuple((n, self.unit) for n in _grid_nodes(dims)),
                           tuple((key, e) for key in _grid_edge_keys(dims)))


class TensorGridObject:
    """The two-variable object X_{u,v} = (width t·k·u)-tuples of grid
    diagrams [v] x [n] in a strict monoidal category.

    The u-direction acts through the pointed-set structure: a monotone
    map alpha reindexes tensor-width via id_<tk> smashed with the
    underlying pointed map of alpha; the v-direction acts by grid
    reindexing.  The n-direction is a fixed parameter.
    """

    def __init__(self, Q, tk, n):
        self.Q = Q
        self.tk = tk
        self.n = n
        self._grids = {}  # (beta, grid) -> grid reindexed along beta

    def values(self, u, v):
        grids = square_n(self.Q.cat, (v, self.n))
        return [tuple(t) for t in
                itertools.product(grids, repeat=self.tk * u)]

    def _grid_act(self, beta, grid):
        key = (beta, grid)
        out = self._grids.get(key)
        if out is None:
            out = self._grids[key] = grid_act(
                self.Q.cat, grid, (beta, MonotoneMap.identity(self.n)))
        return out

    def gamma_act(self, psi, element, v):
        """Γ-direction action on tuple width (tensor over preimages)."""
        out = []
        for pre in psi.preimages():
            if not pre:
                out.append(self.Q.unit_grid((v, self.n)))
                continue
            acc = element[pre[0] - 1]
            for k in pre[1:]:
                acc = self.Q.tensor_grid(acc, element[k - 1])
            out.append(acc)
        return tuple(out)

    def act(self, alpha, beta, element):
        if len(element) != self.tk * alpha.target_size:
            raise ValueError("width mismatch")
        grids = tuple(self._grid_act(beta, g) for g in element)
        psi = PointedMap.identity(self.tk).smash(underlying_monoid(alpha))
        return self.gamma_act(psi, grids, beta.source_size)


def qpow(Q, s, n):
    """Q^⊗_{s,n}: s-tuples of n-chains, encoded as (0, n)-grid diagrams."""
    chains = square_n(Q.cat, (0, n))
    return [tuple(t) for t in itertools.product(chains, repeat=s)]


def build_cq(Q, t, k, n, l):
    """The truncated tensor pipeline: width upgrade, commutative squares,
    and the labelled limit at level l.  Returns the list of elements."""
    X = TensorGridObject(Q, t * k, n)
    return labelled_limit(X, l)

"""The path 2-category, its binerve, labelled limits, and grid objects.

Path(l) has objects 0..l and Hom(i,j) the poset of subsets of [i,j]
containing both endpoints; horizontal composition is union.  Its nerve
in two simplicial directions consists of (u,v)-simplices: a chain of
u+1 objects together with, for each consecutive pair, a weak chain of
v+1 nested subsets.  Nondegenerate simplices live only in the range
u + v <= l and every simplex is the degeneracy of a unique one.

The labelled limit glues values of a two-variable simplicial object X
over the nondegenerate simplices; commutative-square objects of a
finite category (grid diagrams) provide the instances, and the strict
monoidal pipeline build_cq stacks the tensor-width, grid, and labelled
limit constructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

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


def _weak_chains(homs, length):
    """All weak chains c_0 <= ... <= c_{length-1} of subsets from homs,
    listed in the lexicographic order of product(homs, repeat=length)."""
    sets = [set(h) for h in homs]
    above = [[k for k, t in enumerate(sets) if s <= t] for s in sets]
    chains = [(k,) for k in range(len(homs))]
    for _ in range(length - 1):
        chains = [c + (k,) for c in chains for k in above[c[-1]]]
    return [tuple(homs[k] for k in c) for c in chains]


def nerve(l, u, v):
    """All (u,v)-simplices of the binerve of Path(l)."""
    path = Path2Cat(l)
    chains = {}  # (i, j) -> weak chains of hom(i, j)
    simplices = []
    for objs in itertools.combinations_with_replacement(range(l + 1), u + 1):
        per_pair = []
        for ij in zip(objs, objs[1:]):
            if ij not in chains:
                chains[ij] = _weak_chains(path.hom(*ij), v + 1)
            per_pair.append(chains[ij])
        for pick in itertools.product(*per_pair):
            simplices.append(BiSimplex(u, v, objs, tuple(pick)))
    return simplices


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


def nondegenerate_table(l, bound=5):
    """Counts and lists of nondegenerate (u,v)-simplices for u+v <= bound."""
    if l > bound:
        raise ValueError("level exceeds configured bound")
    table = {}
    for u in range(bound + 1):
        for v in range(bound + 1 - u):
            nd = [s for s in nerve(l, u, v) if not is_degenerate(s)]
            table[(u, v)] = nd
    return table


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


def square_n(cat, dims):
    """All commutative-grid diagrams of shape prod_i [k_i] in ``cat``.

    This realizes the commutative n-cube object of the nerve of ``cat``:
    the (k_1,..,k_n) component is the set of maps from the product of
    standard simplices, i.e. functors out of the grid poset.
    """
    nodes = _grid_nodes(dims)
    n = len(dims)
    results = []

    def extend(pos, objs, edges):
        if pos == len(nodes):
            results.append(GridElement(tuple(dims), tuple(sorted(objs.items())),
                                       tuple(sorted(edges.items()))))
            return
        node = nodes[pos]
        preds = []
        for ax in range(n):
            if node[ax] > 0:
                prev = tuple(c - 1 if i == ax else c for i, c in enumerate(node))
                preds.append((ax, prev))
        for obj in range(cat.n_objects):
            choices = []
            for ax, prev in preds:
                choices.append([(ax, prev, f) for f in cat.hom(objs[prev], obj)])
            for combo in itertools.product(*choices):
                ok = True
                new_edges = {(prev, ax): f for (ax, prev, f) in combo}
                # unit squares ending at this node must commute
                for (ax1, p1, f1), (ax2, p2, f2) in itertools.combinations(combo, 2):
                    pp = tuple(min(a, b) for a, b in zip(p1, p2))
                    g1 = edges[(pp, ax2)]   # pp -> p1 along ax2
                    g2 = edges[(pp, ax1)]   # pp -> p2 along ax1
                    if cat.comp[(f1, g1)] != cat.comp[(f2, g2)]:
                        ok = False
                        break
                if ok:
                    objs[node] = obj
                    edges.update(new_edges)
                    extend(pos + 1, objs, edges)
                    for k in new_edges:
                        del edges[k]
                    del objs[node]

    extend(0, {}, {})
    return results


def grid_composite(cat, grid, start, end):
    """The composite morphism of a grid diagram from node start to end."""
    node = start
    f = cat.identities[grid.obj(start)]
    for ax in range(len(grid.dims)):
        while node[ax] < end[ax]:
            f = cat.comp[(grid.edge(node, ax), f)]
            node = tuple(c + 1 if i == ax else c for i, c in enumerate(node))
    return f


def grid_act(cat, grid, maps):
    """Reindex a grid diagram along monotone maps, one per axis."""
    dims = tuple(m.source_size for m in maps)
    nodes = _grid_nodes(dims)
    objs = {}
    edges = {}
    for node in nodes:
        old = tuple(m(c) for m, c in zip(maps, node))
        objs[node] = grid.obj(old)
        for ax in range(len(dims)):
            if node[ax] < dims[ax]:
                nxt = tuple(c + 1 if i == ax else c for i, c in enumerate(node))
                old_nxt = tuple(m(c) for m, c in zip(maps, nxt))
                edges[(node, ax)] = grid_composite(cat, grid, old, old_nxt)
    return GridElement(dims, tuple(sorted(objs.items())),
                       tuple(sorted(edges.items())))


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
    maps between nondegenerate simplices.  Returns a list of dicts.
    """
    table = nondegenerate_table(l, bound=l)
    simplices = [s for (u, v), nd in table.items() if u + v <= l for s in nd]
    # this order fixes the output: the keys and the order of the families
    simplices.sort(key=lambda s: (-(s.u + s.v), s.objs, s.chains))
    return _limit_over(X, simplices, _injective_maps)


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
    and for ``TensorGridObject``, whose X_{0,v} is {()}."""
    ubound = l if ubound is None else ubound
    vbound = l if vbound is None else vbound
    simplices = [s for u in range(ubound + 1) for v in range(vbound + 1)
                 for s in nerve(l, u, v)]
    return _limit_over(X, simplices, _generators)


class _FaceTable(dict):
    """A face (alpha, beta) of X on positions: entry p is the position in
    ``rank`` of X.act(alpha, beta, source[p]), acted out on first lookup."""

    def __init__(self, X, face, source, rank):
        self.X, self.face, self.source, self.rank = X, face, source, rank

    def __missing__(self, p):
        q = self[p] = self.rank[self.X.act(*self.face, self.source[p])]
        return q


def _limit_over(X, simplices, maps):
    """The compatible families over ``simplices``, as dicts keyed by
    simplex.  Each simplex s has an arrow to every other listed simplex
    act(s, alpha, beta), for alpha in maps(s.u) and beta in maps(s.v),
    where maps(n) lists maps into [n].  The solver runs on positions in
    each X.values(u, v), called once per (u, v); each face (alpha, beta)
    is one table, shared by its simplices and filled as the solver reads
    it (a full window forces most values of its largest shapes)."""
    index = {s: i for i, s in enumerate(simplices)}
    values = {uv: X.values(*uv)
              for uv in dict.fromkeys((s.u, s.v) for s in simplices)}
    ranks = {uv: {x: p for p, x in enumerate(vs)}
             for uv, vs in values.items()}
    tables = {}  # (alpha, beta) -> its _FaceTable
    arrows = [[] for _ in simplices]
    for i, s in enumerate(simplices):
        for alpha in maps(s.u):
            for beta in maps(s.v):
                t = act(s, alpha, beta)
                j = index.get(t, i)
                if j != i:
                    if (alpha, beta) not in tables:
                        tables[alpha, beta] = _FaceTable(
                            X, (alpha, beta), values[s.u, s.v],
                            ranks[t.u, t.v])
                    arrows[i].append((j, tables[alpha, beta]))
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
        for a in objs:
            for b in objs:
                if (a, b) not in t:
                    raise ValueError("object tensor not total")
                if t[(a, b)] != t[(b, a)]:
                    raise ValueError("object tensor not commutative")
            if t[(a, unit)] != a or t[(unit, a)] != a:
                raise ValueError("unit law fails on objects")
        for a in objs:
            for b in objs:
                for c in objs:
                    if t[(t[(a, b)], c)] != t[(a, t[(b, c)])]:
                        raise ValueError("object tensor not associative")
        for f in mors:
            for g in mors:
                if m[(f, g)] != m[(g, f)]:
                    raise ValueError("morphism tensor not commutative")
            if m[(f, C.identities[unit])] != f:
                raise ValueError("unit law fails on morphisms")
        for f in mors:
            for g in mors:
                for h in mors:
                    if m[(m[(f, g)], h)] != m[(f, m[(g, h)])]:
                        raise ValueError("morphism tensor not associative")
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
        nodes = _grid_nodes(dims)
        objs = tuple(sorted((node, self.unit) for node in nodes))
        edges = []
        for node in nodes:
            for ax in range(len(dims)):
                if node[ax] < dims[ax]:
                    edges.append(((node, ax), self.cat.identities[self.unit]))
        return GridElement(tuple(dims), objs, tuple(sorted(edges)))


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
        for j in range(1, psi.target_size + 1):
            pre = [k for k in range(1, psi.source_size + 1) if psi(k) == j]
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

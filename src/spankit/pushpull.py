"""Vector-space families over finite sets and the push-pull calculus.

A vector family assigns an exact-rational vector space (a dimension and
an implicit standard basis) to every point of a finite base.  Pullback
reindexes, pushforward takes fiberwise direct sums, and the two are
adjoint with explicit unit/counit matrices.  On top of that sit spans
with payload families on their intersections (2-morphisms), their
vertical/horizontal composition, maps of payloads (3-morphisms), and
diagrams of local systems over a subset poset with push-pull structure
maps, including synthesis of the canonical filling from spine data.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .spans import Span, compose_spans


# ---------------------------------------------------------------------------
# finite-set maps, vector families, family maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SetMap:
    source: tuple
    target: tuple
    values: tuple  # pairs (source element, target element)

    def __post_init__(self):
        d = dict(self.values)
        if set(d) != set(self.source) or not set(d.values()) <= set(self.target):
            raise ValueError("map not total or lands outside target")
        fibers = {}  # target point -> its preimage in source order
        for x in self.source:
            fibers.setdefault(d[x], []).append(x)
        object.__setattr__(self, "_map", d)  # not fields, as in spans.Span
        object.__setattr__(self, "_fibers", fibers)

    def __call__(self, x):
        return self._map[x]

    @staticmethod
    def build(source, target, fn):
        source, target = tuple(source), tuple(target)
        return SetMap(source, target, tuple((x, fn(x)) for x in source))

    @staticmethod
    def identity(base):
        return SetMap.build(base, base, lambda x: x)

    def compose(self, other):
        return SetMap.build(other.source, self.target,
                            lambda x: self(other(x)))

    def fiber(self, y):
        """The preimage of y in source order."""
        return list(self._fibers.get(y, ()))


@dataclass(frozen=True)
class VectorFamily:
    base: tuple
    dims: tuple  # pairs (point, non-negative dimension)

    def __post_init__(self):
        d = dict(self.dims)
        object.__setattr__(self, "_dims", d)  # not a field, as in spans.Span
        if set(d) != set(self.base) or any(v < 0 for v in d.values()):
            raise ValueError("bad dimension data")

    def dim(self, x):
        return self._dims[x]

    @staticmethod
    def build(base, fn):
        base = tuple(base)
        return VectorFamily(base, tuple((x, fn(x)) for x in base))

    @staticmethod
    def unit(base):
        return VectorFamily.build(base, lambda x: 1)

    @staticmethod
    def zero(base):
        return VectorFamily.build(base, lambda x: 0)

    def total_dim(self):
        return sum(d for _, d in self.dims)


@dataclass(frozen=True)
class FamilyMap:
    source: VectorFamily
    target: VectorFamily
    mats: tuple  # pairs (point, matrix target_dim x source_dim)

    def __post_init__(self):
        if self.source.base != self.target.base:
            raise ValueError("families on different bases")
        d = dict(self.mats)
        object.__setattr__(self, "_mats", d)  # not a field, as in spans.Span
        if (len(self.mats) != len(self.source.base)
                or d.keys() != set(self.source.base)):
            raise ValueError("blocks not indexed by the base")
        for x in self.source.base:
            m = d[x]
            if len(m) != self.target.dim(x):
                raise ValueError("row count mismatch")
            if any(len(row) != self.source.dim(x) for row in m):
                raise ValueError("column count mismatch")

    def mat(self, x):
        return self._mats[x]

    @staticmethod
    def build(source, target, fn):
        return FamilyMap(source, target,
                         tuple((x, fn(x)) for x in source.base))

    @staticmethod
    def identity(fam):
        return FamilyMap.build(fam, fam, lambda x: ratlin.identity(fam.dim(x)))

    def compose(self, other):
        def block(x):
            a, b = self.mat(x), other.mat(x)
            if a and b:
                return ratlin.matmul(a, b)
            # a zero-row factor is () and has lost its column count, so a
            # product into or through dimension 0 takes its shape from
            # the families
            return ratlin.zeros(len(a), other.source.dim(x))

        return FamilyMap.build(other.source, self.target, block)

    def is_invertible(self):
        # a zero-row block is () and has lost its column count, so the
        # shape comes from the families
        return all(self.source.dim(x) == self.target.dim(x)
                   and ratlin.rank(self.mat(x)) == self.source.dim(x)
                   for x in self.source.base)


# ---------------------------------------------------------------------------
# pullback / pushforward and the adjunction
# ---------------------------------------------------------------------------

def pullback_ls(f, fam):
    if tuple(fam.base) != f.target:
        raise ValueError("family not on the map's target")
    return VectorFamily.build(f.source, lambda x: fam.dim(f(x)))


def pullback_map(f, phi):
    return FamilyMap.build(pullback_ls(f, phi.source), pullback_ls(f, phi.target),
                           lambda x: phi.mat(f(x)))


def pushforward_ls(f, fam):
    if tuple(fam.base) != f.source:
        raise ValueError("family not on the map's source")
    return VectorFamily.build(
        f.target, lambda y: sum(fam.dim(x) for x in f.fiber(y)))


def pushforward_map(f, phi):
    """The fiberwise direct sum f_*phi.  On the ``_sum_basis`` keys of
    phi.target and phi.source over the fiber, the entry at row (x, i)
    and column (z, j) is phi.mat(x)[i][j] when z == x, and 0 otherwise."""
    src = pushforward_ls(f, phi.source)
    tgt = pushforward_ls(f, phi.target)

    def block(y):
        fib = f.fiber(y)
        cols = _sum_basis(phi.source, fib)
        return tuple(tuple(phi.mat(x)[i][j] if z == x else Fraction(0)
                           for z, j in cols)
                     for x, i in _sum_basis(phi.target, fib))

    return FamilyMap.build(src, tgt, block)


def _sum_basis(fam, points):
    """Basis keys (x, i) of the direct sum of fam over points, in order:
    the basis of a pushforward at y when points is the fiber over y."""
    return [(x, i) for x in points for i in range(fam.dim(x))]


def _matching(rows, cols):
    """The 0/1 matrix with a 1 where a row key equals a column key; a
    None column key gives a zero column.  Row keys are distinct."""
    pos = {key: r for r, key in enumerate(rows)}
    out = [[Fraction(0)] * len(cols) for _ in rows]
    for c, key in enumerate(cols):
        if key is not None:
            out[pos[key]][c] = Fraction(1)
    return tuple(tuple(r) for r in out)


def tensor_family(a, b):
    if a.base != b.base:
        raise ValueError("families on different bases")
    return VectorFamily.build(a.base, lambda x: a.dim(x) * b.dim(x))


def tensor_map(phi, psi):
    return FamilyMap.build(tensor_family(phi.source, psi.source),
                           tensor_family(phi.target, psi.target),
                           lambda x: ratlin.kron(phi.mat(x), psi.mat(x)))


def to_adjunct(f, phi, w):
    """Turn phi : f*W -> V (over the source) into W -> f_*V (over the
    target) by stacking the fiber blocks in fiber order."""
    v = phi.target
    src_ok = pullback_ls(f, w)
    if phi.source != src_ok:
        raise ValueError("phi does not start at the pullback of w")
    tgt = pushforward_ls(f, v)

    def block(y):
        return ratlin.vstack([phi.mat(x) for x in f.fiber(y)])

    return FamilyMap.build(w, tgt, block)


def adjunct_inverse(f, psi, w, v):
    """Turn psi : W -> f_*V into f*W -> V: the composite eps_V . f*psi of
    the counit with the pullback of psi, so the block at x keeps the rows
    of psi at f(x) whose ``_sum_basis`` keys (z, i) have z == x."""
    if psi.source != w or psi.target != pushforward_ls(f, v):
        raise ValueError("not an adjunct map for the given data")
    return counit_map(f, v).compose(pullback_map(f, psi))


def unit_map(f, w):
    """The adjunction unit  W -> f_* f* W  (stacked identities)."""
    return to_adjunct(f, FamilyMap.identity(pullback_ls(f, w)), w)


def counit_map(f, v):
    """The adjunction counit  f* f_* V -> V  (block projection)."""
    src = pullback_ls(f, pushforward_ls(f, v))

    def block(x):
        return _matching(_sum_basis(v, [x]),
                         [(z, i) if z == x else None
                          for z, i in _sum_basis(v, f.fiber(f(x)))])

    return FamilyMap.build(src, v, block)


def check_adjunction(f, v, w, samples):
    """Round-trip the explicit bijection on the given maps phi : f*W -> V;
    returns True when adjunct-then-inverse is the identity on each and
    the two hom-space dimensions agree."""
    lhs = sum(w.dim(f(x)) * v.dim(x) for x in f.source)
    rhs = sum(w.dim(y) * pushforward_ls(f, v).dim(y) for y in f.target)
    if lhs != rhs:
        return False
    for phi in samples:
        psi = to_adjunct(f, phi, w)
        back = adjunct_inverse(f, psi, w, v)
        if back.mats != phi.mats:
            return False
    return True


def push_composite_iso(f, g, v):
    """Explicit iso  g_*(f_*V) -> (g.f)_*V  (fiber reordering)."""
    gf = g.compose(f)
    src = pushforward_ls(g, pushforward_ls(f, v))
    tgt = pushforward_ls(gf, v)

    def block(z):
        nested = [x for y in g.fiber(z) for x in f.fiber(y)]
        return _matching(_sum_basis(v, gf.fiber(z)), _sum_basis(v, nested))

    return FamilyMap.build(src, tgt, block)


# ---------------------------------------------------------------------------
# base change and projection
# ---------------------------------------------------------------------------

def base_change(f, g, p, q, v):
    """Explicit iso  f* g_* V  ->  p_* q* V  for a pullback square

        P --q--> A
        |p       |g
        X --f--> B

    The square is verified to be a pullback (p, q jointly biject P with
    the fiber product); the iso matches the g-fiber block of V at f(x)
    with the p-fiber block of q*V at x.
    """
    if f.target != g.target or p.source != q.source:
        raise ValueError("square shape mismatch")
    if p.target != f.source or q.target != g.source:
        raise ValueError("square shape mismatch")
    for t in p.source:
        if f(p(t)) != g(q(t)):
            raise ValueError("square does not commute")
    pairs = [(p(t), q(t)) for t in p.source]
    want = [(x, a) for x in f.source for a in g.fiber(f(x))]
    if sorted(pairs, key=repr) != sorted(want, key=repr) or len(set(pairs)) != len(pairs):
        raise ValueError("square is not a pullback")

    src = pullback_ls(f, pushforward_ls(g, v))
    qv = pullback_ls(q, v)
    tgt = pushforward_ls(p, qv)

    def block(x):
        return _matching(_sum_basis(v, [q(t) for t in p.fiber(x)]),
                         _sum_basis(v, g.fiber(f(x))))

    return FamilyMap.build(src, tgt, block)


def projection_iso(f, a, b):
    """Explicit iso  f_*A (x) B  ->  f_*(A (x) f*B)  (distributivity).

    A lives on the source of f, B on the target.  With blocks ordered
    by the fiber order on both sides the matrix is the identity, but it
    is assembled from the basis bookkeeping rather than assumed.
    """
    src = tensor_family(pushforward_ls(f, a), b)
    tgt = pushforward_ls(f, tensor_family(a, pullback_ls(f, b)))

    def block(y):
        # source basis ((x, i), j) with the direct-sum index major and
        # target basis (x, (i, j)) with the block index major both list
        # the triples (x, i, j) in this order
        keys = [(x, i, j) for x, i in _sum_basis(a, f.fiber(y))
                for j in range(b.dim(y))]
        return _matching(keys, keys)

    return FamilyMap.build(src, tgt, block)


def projection_iso_left(f, a, b):
    """Explicit iso  A (x) f_*B  ->  f_*(f*A (x) B)  for A on the target
    and B on the source of f.  This one is a genuine permutation."""
    src = tensor_family(a, pushforward_ls(f, b))
    tgt = pushforward_ls(f, tensor_family(pullback_ls(f, a), b))

    def block(y):
        fib = f.fiber(y)
        na = a.dim(y)
        src_order = [(i, x, j) for i in range(na)
                     for x, j in _sum_basis(b, fib)]
        tgt_order = [(i, x, j) for x in fib for i in range(na)
                     for j in range(b.dim(x))]
        return _matching(tgt_order, src_order)

    return FamilyMap.build(src, tgt, block)


# ---------------------------------------------------------------------------
# 2-morphisms: payloads on span intersections
# ---------------------------------------------------------------------------

def intersection(l, m):
    """L (x over X x Y) M: pairs of apex points with equal feet."""
    if tuple(l.left_foot) != tuple(m.left_foot) or tuple(l.right_foot) != tuple(m.right_foot):
        raise ValueError("spans do not share feet")
    return tuple((a, b) for a in l.apex for b in m.apex
                 if l.left(a) == m.left(b) and l.right(a) == m.right(b))


@dataclass(frozen=True)
class TwoMorphism:
    span_source: Span
    span_target: Span
    payload: VectorFamily

    def __post_init__(self):
        if tuple(self.payload.base) != intersection(self.span_source,
                                                    self.span_target):
            raise ValueError("payload base is not the span intersection")

    @staticmethod
    def from_dims(l, m, fn):
        base = intersection(l, m)
        return TwoMorphism(l, m, VectorFamily.build(base, fn))


def vertical_unit(m):
    """The neutral 2-morphism on a span: rank 1 on the diagonal of the
    self-intersection, 0 elsewhere."""
    return TwoMorphism.from_dims(m, m, lambda t: 1 if t[0] == t[1] else 0)


def vertical_maps(l, m, n):
    """The three projections from the triple intersection."""
    t = tuple((a, b, c) for a in l.apex for b in m.apex for c in n.apex
              if l.left(a) == m.left(b) == n.left(c)
              and l.right(a) == m.right(b) == n.right(c))
    i_n = SetMap.build(t, intersection(l, m), lambda p: (p[0], p[1]))
    i_l = SetMap.build(t, intersection(m, n), lambda p: (p[1], p[2]))
    i_m = SetMap.build(t, intersection(l, n), lambda p: (p[0], p[2]))
    return i_n, i_l, i_m


def compose2_vertical(mm, nn):
    """Vertical composite:  push along the outer projection of the
    tensor of the two payloads pulled back to the triple intersection."""
    if mm.span_target != nn.span_source:
        raise ValueError("2-morphisms not composable: the target span of "
                         "the first differs from the source span of the "
                         "second")
    l, m, n = mm.span_source, mm.span_target, nn.span_target
    i_n, i_l, i_m = vertical_maps(l, m, n)
    payload = pushforward_ls(
        i_m, tensor_family(pullback_ls(i_n, mm.payload),
                           pullback_ls(i_l, nn.payload)))
    return TwoMorphism(l, n, payload)


def vertical_unit_law_iso(mm):
    """The composite  mm . unit  compared with mm itself.

    Returns (composite, iso) where iso is the FamilyMap from the
    composite payload to mm's payload assembled from the base-change
    iso, the left projection iso, and the fiber-reordering iso of the
    composite pushforward; the assembly is expected to be the identity.
    """
    l, m = mm.span_source, mm.span_target
    unit = vertical_unit(m)
    composite = compose2_vertical(mm, unit)
    i_n, i_l, i_m = vertical_maps(l, m, m)
    t, lm = i_n.source, i_n.target
    nabla = SetMap.build(m.apex, intersection(m, m), lambda x: (x, x))
    nabla_p = SetMap.build(lm, t, lambda p: (p[0], p[1], p[1]))
    j = SetMap.build(lm, m.apex, lambda p: p[1])
    o_m = VectorFamily.unit(m.apex)

    # step 1: i_L* nabla_* O  ->  nabla'_* j* O   (base change)
    bc = base_change(i_l, nabla, nabla_p, j, o_m)
    # step 2: tensor with the identity on i_N* payload
    a_fam = pullback_ls(i_n, mm.payload)
    step2 = tensor_map(FamilyMap.identity(a_fam), bc)
    # step 3: A (x) nabla'_* O  ->  nabla'_*(nabla'* A (x) O)
    proj = projection_iso_left(nabla_p, a_fam, pullback_ls(j, o_m))
    # step 4: push everything along i_M, then reorder the double fiber
    pushed = pushforward_map(i_m, proj.compose(step2))
    reorder = push_composite_iso(nabla_p, i_m,
                                 tensor_family(pullback_ls(nabla_p, a_fam),
                                               pullback_ls(j, o_m)))
    # step 5: i_M . nabla' is the identity of L cap M, and tensoring
    # with the rank-1 unit leaves the matrices unchanged, so the target
    # family is payload-shaped; repackage onto mm.payload.
    chain = reorder.compose(pushed)
    iso = FamilyMap.build(composite.payload, mm.payload, chain.mat)
    return composite, iso


def horizontal_maps(l, m, lp, mp):
    """L.L', M.M', the inclusion iota of P = (L cap M) x_Y (L' cap M')
    into their intersection, ((a, b), (a', b')) -> ((a, a'), (b, b')),
    and the projections p, p2 of P onto L cap M and L' cap M'."""
    if tuple(l.right_foot) != tuple(lp.left_foot):
        raise ValueError("2-morphisms not composable side by side: the "
                         "feet in the middle differ")
    cl, cm = compose_spans(l, lp), compose_spans(m, mp)
    lm, lmp = intersection(l, m), intersection(lp, mp)
    p_base = tuple((t, u) for t in lm for u in lmp
                   if l.right(t[0]) == lp.left(u[0]))
    iota = SetMap.build(p_base, intersection(cl, cm),
                        lambda x: ((x[0][0], x[1][0]), (x[0][1], x[1][1])))
    p = SetMap.build(p_base, lm, lambda x: x[0])
    p2 = SetMap.build(p_base, lmp, lambda x: x[1])
    return cl, cm, iota, p, p2


def compose2_horizontal(mm, mp):
    """Horizontal composite:  push along iota of the tensor of the two
    payloads pulled back to P, so zero off the image of iota."""
    cl, cm, iota, p, p2 = horizontal_maps(mm.span_source, mm.span_target,
                                          mp.span_source, mp.span_target)
    payload = pushforward_ls(
        iota, tensor_family(pullback_ls(p, mm.payload),
                            pullback_ls(p2, mp.payload)))
    return TwoMorphism(cl, cm, payload)


def horizontal_unit(y):
    """The neutral 2-morphism for horizontal composition: the unit
    family on the self-intersection of the identity span (the
    diagonal)."""
    idspan = Span.identity(y)
    return TwoMorphism.from_dims(idspan, idspan, lambda t: 1)


# ---------------------------------------------------------------------------
# 3-morphisms
# ---------------------------------------------------------------------------

def compose3_transversal(alpha, beta):
    """Matrix composition of payload maps over the same pair of spans."""
    return beta.compose(alpha)


def compose3_vertical(spans, alpha, beta):
    """alpha over (L, M), beta over (M, N): the induced map between the
    vertical composite payloads."""
    l, m, n = spans
    i_n, i_l, i_m = vertical_maps(l, m, n)
    return pushforward_map(
        i_m, tensor_map(pullback_map(i_n, alpha), pullback_map(i_l, beta)))


def compose3_horizontal(mm1, mm2, mp1, mp2, alpha, beta):
    """alpha : payload(mm1) -> payload(mm2), beta likewise for the
    primed side; the induced map between horizontal composites."""
    if [alpha.source, alpha.target, beta.source, beta.target] != [
            mm1.payload, mm2.payload, mp1.payload, mp2.payload]:
        raise ValueError("maps do not run between the payloads")
    _, _, iota, p, p2 = horizontal_maps(mm1.span_source, mm1.span_target,
                                        mp1.span_source, mp1.span_target)
    return pushforward_map(
        iota, tensor_map(pullback_map(p, alpha), pullback_map(p2, beta)))


# ---------------------------------------------------------------------------
# push-pull diagrams over the subset poset
# ---------------------------------------------------------------------------

def _product_base(vertices, indices):
    return tuple(itertools.product(*[vertices[i] for i in indices]))


def _proj(vertices, big, small):
    pos = [big.index(s) for s in small]
    return SetMap.build(_product_base(vertices, big), _product_base(vertices, small),
                        lambda x: tuple(x[p] for p in pos))


def _chain_faces(l):
    """The subsets S of {0, .., l} with at least three elements."""
    return [s for m in range(3, l + 2)
            for s in itertools.combinations(range(l + 1), m)]


def _edge_tensor(vertices, s, piece, pull, tensor):
    """Fold ``tensor`` over the edges (s[j], s[j+1]) of S, in order, of
    ``pull(_proj(vertices, s, edge), piece(edge))``: the tensor of the
    edge systems (or maps) pulled back to u_S."""
    return functools.reduce(tensor, (pull(_proj(vertices, s, e), piece(e))
                                     for e in zip(s, s[1:])))


class PushPullThetaDiagram:
    """Local systems over a chain of vertices u_0 .. u_l.

    For every pair a < b and height 0 <= i <= club there is a family
    r[(a, b)][i] on u_a x u_b, a vertical chain map between consecutive
    heights, and for every subset S = {a_0 < ... < a_m} with m >= 2 a
    structure map phi[S][i] on the product u_S from the pullback of the
    long-edge system to the tensor of the consecutive-edge pullbacks.
    """

    def __init__(self, vertices, club, r, vertical, phi):
        self.vertices = [tuple(v) for v in vertices]
        self.l = len(vertices) - 1
        self.club = club
        self.r = r                # (a, b) -> list of VectorFamily per height
        self.vertical = vertical  # (a, b) -> list of FamilyMap (height i -> i+1)
        self.phi = phi            # S -> list of FamilyMap per height
        self._check()

    def _pairs(self):
        return [(a, b) for a in range(self.l + 1) for b in range(a + 1, self.l + 1)]

    def _faces(self):
        return _chain_faces(self.l)

    def phi_source(self, s, i):
        return pullback_ls(_proj(self.vertices, s, (s[0], s[-1])),
                           self.r[(s[0], s[-1])][i])

    def phi_target(self, s, i):
        return _edge_tensor(self.vertices, s, lambda e: self.r[e][i],
                            pullback_ls, tensor_family)

    def _check(self):
        for pr in self._pairs():
            if len(self.r[pr]) != self.club + 1:
                raise ValueError("missing heights")
            if tuple(self.r[pr][0].base) != _product_base(self.vertices, pr):
                raise ValueError("family on wrong base")
            for i in range(self.club):
                v = self.vertical[pr][i]
                if v.source != self.r[pr][i] or v.target != self.r[pr][i + 1]:
                    raise ValueError("vertical chain mismatch")
        for s in self._faces():
            for i in range(self.club + 1):
                ph = self.phi[s][i]
                if ph.source != self.phi_source(s, i):
                    raise ValueError("phi source mismatch at %r" % (s,))
                if ph.target != self.phi_target(s, i):
                    raise ValueError("phi target mismatch at %r" % (s,))
            # towers of commutative squares
            for i in range(self.club):
                top = self._target_vertical(s, i)
                src_v = pullback_map(_proj(self.vertices, s, (s[0], s[-1])),
                                     self.vertical[(s[0], s[-1])][i])
                lhs = self.phi[s][i + 1].compose(src_v)
                rhs = top.compose(self.phi[s][i])
                if lhs.mats != rhs.mats:
                    raise ValueError("phi does not commute with the tower")

    def _target_vertical(self, s, i):
        return _edge_tensor(self.vertices, s, lambda e: self.vertical[e][i],
                            pullback_map, tensor_map)


def pushpull_maps(d):
    """The adjuncts phi-dagger : r_(a0,am) -> pi_* (tensor), one per
    face S with at least three elements and per height."""
    out = {}
    for s in d._faces():
        pi = _proj(d.vertices, s, (s[0], s[-1]))
        out[s] = []
        for i in range(d.club + 1):
            out[s].append(to_adjunct(pi, d.phi[s][i], d.r[(s[0], s[-1])][i]))
    return out


def is_pushpull(d):
    """True iff every adjunct structure map is invertible (vacuous for
    l <= 1)."""
    if d.l <= 1:
        return True
    dag = pushpull_maps(d)
    return all(m.is_invertible() for maps in dag.values() for m in maps)


def synthesize_filling(vertices, club, spine, spine_vertical=None):
    """Build the canonical push-pull diagram from spine data.

    ``spine[j]`` is the list (per height) of families on u_j x u_{j+1};
    ``spine_vertical[j]`` the list of chain maps between heights.  Long
    systems are pushforwards of tensors of pulled-back spine systems
    (middle coordinates in lexicographic order) and the structure maps
    are the canonical projections onto matching middle coordinates.
    """
    vertices = [tuple(v) for v in vertices]
    l = len(vertices) - 1
    if spine_vertical is None:
        spine_vertical = {j: [] for j in range(l)}
    r = {}
    vertical = {}
    for a in range(l + 1):
        for b in range(a + 1, l + 1):
            big = tuple(range(a, b + 1))
            pi = _proj(vertices, big, (a, b))
            r[(a, b)] = [pushforward_ls(pi, _edge_tensor(
                vertices, big, lambda e: spine[e[0]][i],
                pullback_ls, tensor_family)) for i in range(club + 1)]
            vertical[(a, b)] = [pushforward_map(pi, _edge_tensor(
                vertices, big, lambda e: spine_vertical[e[0]][i],
                pullback_map, tensor_map)) for i in range(club)]

    def seg_basis(lo, hi, ends, i):
        """Basis keys (points, index tuple) of r[(lo, hi)][i] at ends: the
        points of u_lo x .. x u_hi from ends[0] to ends[1] in fiber order,
        each with its spine indices in kron order."""
        out = []
        for mid in itertools.product(*vertices[lo + 1:hi]):
            pts = (ends[0],) + mid + (ends[1],)
            dims = [spine[j][i].dim(pts[j - lo:j - lo + 2])
                    for j in range(lo, hi)]
            out.extend((pts, t) for t in itertools.product(*map(range, dims)))
        return out

    def phi_matrix(s, i, x):
        """The structure map at x on basis keys: the target keys are the
        tuples of segment keys, and a long-edge key (points, t) maps to its
        per-segment slices when its points pass through x, else to None."""
        a = s[0]
        segs = list(zip(s, s[1:], zip(x, x[1:])))
        return _matching(
            list(itertools.product(*[seg_basis(lo, hi, ends, i)
                                     for lo, hi, ends in segs])),
            [tuple((pts[lo - a:hi - a + 1], t[lo - a:hi - a])
                   for lo, hi, _ in segs)
             if all(pts[c - a] == xc for c, xc in zip(s, x)) else None
             for pts, t in seg_basis(a, s[-1], (x[0], x[-1]), i)])

    phi = {}
    for s in _chain_faces(l):
        pi = _proj(vertices, s, (s[0], s[-1]))
        phi[s] = [FamilyMap.build(
            pullback_ls(pi, r[(s[0], s[-1])][i]),
            _edge_tensor(vertices, s, lambda e: r[e][i],
                         pullback_ls, tensor_family),
            lambda x: phi_matrix(s, i, x)) for i in range(club + 1)]
    return PushPullThetaDiagram(vertices, club, r, vertical, phi)


# ---------------------------------------------------------------------------
# uniqueness of fillings: one small exact solve per long edge and point
# ---------------------------------------------------------------------------

def filling_iso_solutions(d1, d2):
    """Systems of maps psi_(a,b) : r1_(a,b) -> r2_(a,b) restricting to the
    identity on the spine and commuting with every structure map and
    vertical chain map; returns (psi dict or None, degrees of freedom).

    A face S = {a_0 < .. < a_m} asks that
        (psi over the edges of S, tensored) . phi1[S] = phi2[S] . psi_(a_0,a_m),
    which is not linear in the unknowns: at l = 4 the face {0, 2, 4}
    multiplies psi_02 by psi_24.  Every edge of S is shorter than its long
    edge, so the pairs (a, b) are solved by increasing b - a; then the faces
    with long edge (a, b) are linear in psi_(a,b) alone.  At each height i
    and point y of u_a x u_b they stack into A P = B: A holds the blocks of
    phi2[S][i], B those of the left-hand side, at every point x of such an
    S over y, and P is the n2 x n1 block of psi_(a,b)[i] at y.  The point
    adds n1 (n2 - rank A) to ``dof``; free entries of P are set to 0.

    ``dof == 0`` means the returned psi is the unique solution; when d2 is
    push-pull the face {a, a+1, .., b} alone has rank n2, so this is the
    case.  The vertical chain maps are checked on psi, not solved for, so
    with ``dof > 0`` a None says only that this particular psi fails.
    """
    if d1.vertices != d2.vertices or d1.club != d2.club:
        raise ValueError("diagrams not comparable")
    spine_pairs = [(j, j + 1) for j in range(d1.l)]
    for pr in spine_pairs:
        for i in range(d1.club + 1):
            if d1.r[pr][i] != d2.r[pr][i]:
                raise ValueError("spines differ")

    psi = dict.fromkeys(d1._pairs())
    for pr in spine_pairs:
        psi[pr] = [FamilyMap.identity(fam) for fam in d1.r[pr]]
    dof, solvable = 0, True
    for pr in sorted(set(psi) - set(spine_pairs),
                     key=lambda p: (p[1] - p[0], p)):
        faces = [s for s in d1._faces() if (s[0], s[-1]) == pr]
        over = {}  # point y of u_a x u_b -> the (S, x) with x over y
        for s in faces:
            for x in _product_base(d1.vertices, s):
                over.setdefault((x[0], x[-1]), []).append((s, x))
        psi[pr] = []
        for i in range(d1.club + 1):
            lhs = {s: _edge_tensor(d1.vertices, s, lambda e: psi[e][i],
                                   pullback_map, tensor_map).compose(d1.phi[s][i])
                   for s in faces}
            src, tgt = d1.r[pr][i], d2.r[pr][i]
            mats = []
            for y in src.base:
                n1, n2 = src.dim(y), tgt.dim(y)
                rows = over.get(y, [])
                aug, pivots = ratlin.rref(ratlin.hstack([
                    ratlin.vstack([d2.phi[s][i].mat(x) for s, x in rows]),
                    ratlin.vstack([lhs[s].mat(x) for s, x in rows])]))
                rank = sum(p < n2 for p in pivots)
                dof += n1 * (n2 - rank)
                solvable = solvable and rank == len(pivots)
                sol = [(Fraction(0),) * n1] * n2
                for row, p in zip(aug, pivots[:rank]):
                    sol[p] = row[n2:]
                mats.append((y, tuple(sol)))
            psi[pr].append(FamilyMap(src, tgt, tuple(mats)))
    solvable = solvable and all(
        psi[pr][i + 1].compose(d1.vertical[pr][i]).mats
        == d2.vertical[pr][i].compose(psi[pr][i]).mats
        for pr in d1._pairs() for i in range(d1.club))
    return (psi if solvable else None), dof


def fillings_isomorphic(d1, d2):
    """True iff the two fillings over a shared spine are related by a
    unique system of invertible maps fixing the spine."""
    psi, dof = filling_iso_solutions(d1, d2)
    if psi is None or dof != 0:
        return False
    return all(m.is_invertible() for pr, maps in psi.items() for m in maps)

"""Finite categories and finite-set-valued diagrams.

Limits as compatible families, found by ``compatible_families``: the one
forced-value backtracker, which ``spans`` and ``pathnerve`` also use for
their slice and labelled limits in its own solving order.  Twisted arrow
categories, ends and coends, right Kan extensions via the comma-category
limit formula and via the end-of-cotensor formula, and cotensors.

Conventions: the limit of the empty diagram is a singleton; all finite
sets are lists with a fixed element order so results are deterministic.
"""

from __future__ import annotations

import itertools
import operator


class FinCategory:
    """A finite category given by a total composition table.

    Morphisms are indexed 0..k-1 with source/target object indices;
    ``comp[(g, f)]`` is g∘f for target(f) == source(g).  Associativity
    and unit laws are checked on construction.
    """

    def __init__(self, n_objects, morphisms, identities, comp):
        self.n_objects = n_objects
        self.morphisms = [tuple(m) for m in morphisms]  # (src, dst)
        self.identities = list(identities)
        self.comp = dict(comp)
        self._check()

    def src(self, f):
        return self.morphisms[f][0]

    def dst(self, f):
        return self.morphisms[f][1]

    def compose(self, g, f):
        """g after f."""
        return self.comp[(g, f)]

    def hom(self, a, b):
        return [i for i, (s, d) in enumerate(self.morphisms) if s == a and d == b]

    def _check(self):
        if len(self.identities) != self.n_objects:
            raise ValueError("one identity per object required")
        for a, e in enumerate(self.identities):
            if self.morphisms[e] != (a, a):
                raise ValueError("identity has wrong endpoints")
        for f, (sf, df) in enumerate(self.morphisms):
            for g, (sg, dg) in enumerate(self.morphisms):
                if sg != df:
                    if (g, f) in self.comp:
                        raise ValueError("composite of non-composable pair")
                    continue
                if (g, f) not in self.comp:
                    raise ValueError("missing composite")
                h = self.comp[(g, f)]
                if self.morphisms[h] != (sf, dg):
                    raise ValueError("composite has wrong endpoints")
        for f, (sf, df) in enumerate(self.morphisms):
            if self.comp[(f, self.identities[sf])] != f:
                raise ValueError("right unit law fails")
            if self.comp[(self.identities[df], f)] != f:
                raise ValueError("left unit law fails")
        for f in range(len(self.morphisms)):
            for g in range(len(self.morphisms)):
                if self.dst(f) != self.src(g):
                    continue
                for h in range(len(self.morphisms)):
                    if self.dst(g) != self.src(h):
                        continue
                    if (self.comp[(h, self.comp[(g, f)])]
                            != self.comp[(self.comp[(h, g)], f)]):
                        raise ValueError("associativity fails")

    # -- builders ----------------------------------------------------------

    @staticmethod
    def from_poset(n, leq):
        """The category of a poset on objects 0..n-1 with order ``leq``."""
        morphisms = [(a, b) for a in range(n) for b in range(n) if leq(a, b)]
        index = {m: i for i, m in enumerate(morphisms)}
        identities = [index[(a, a)] for a in range(n)]
        comp = {}
        for g, (sg, dg) in enumerate(morphisms):
            for f, (sf, df) in enumerate(morphisms):
                if df == sg:
                    comp[(g, f)] = index[(sf, dg)]
        return FinCategory(n, morphisms, identities, comp)

    @staticmethod
    def chain(n):
        """The poset category [n]."""
        return FinCategory.from_poset(n + 1, lambda a, b: a <= b)

    @staticmethod
    def from_monoid(table, unit):
        """One-object category from a monoid multiplication table."""
        k = len(table)
        morphisms = [(0, 0)] * k
        comp = {(g, f): table[g][f] for g in range(k) for f in range(k)}
        return FinCategory(1, morphisms, [unit], comp)

    def opposite(self):
        morphisms = [(d, s) for (s, d) in self.morphisms]
        comp = {(f, g): h for (g, f), h in self.comp.items()}
        return FinCategory(self.n_objects, morphisms, self.identities, comp)


class FinFunctor:
    """A functor between finite categories, checked on construction."""

    def __init__(self, source, target, obj_map, mor_map):
        self.source = source
        self.target = target
        self.obj_map = list(obj_map)
        self.mor_map = list(mor_map)
        self._check()

    def _check(self):
        A, B = self.source, self.target
        for f, (s, d) in enumerate(A.morphisms):
            ff = self.mor_map[f]
            if B.morphisms[ff] != (self.obj_map[s], self.obj_map[d]):
                raise ValueError("functor breaks endpoints")
        for a, e in enumerate(A.identities):
            if self.mor_map[e] != B.identities[self.obj_map[a]]:
                raise ValueError("functor breaks identities")
        for (g, f), h in A.comp.items():
            if B.comp[(self.mor_map[g], self.mor_map[f])] != self.mor_map[h]:
                raise ValueError("functor breaks composition")


class Diagram:
    """A finite-set-valued functor on a FinCategory.

    ``on_objects[a]`` is a list; ``on_morphisms[f]`` a dict mapping each
    element of the source value set to one of the target value set.
    """

    def __init__(self, shape, on_objects, on_morphisms, check=True):
        self.shape = shape
        self.on_objects = [list(v) for v in on_objects]
        self.on_morphisms = [dict(m) for m in on_morphisms]
        if check:
            self._check()

    def _check(self):
        A = self.shape
        for f, (s, d) in enumerate(A.morphisms):
            m = self.on_morphisms[f]
            if set(m.keys()) != set(self.on_objects[s]):
                raise ValueError("morphism map has wrong domain")
            for v in m.values():
                if v not in self.on_objects[d]:
                    raise ValueError("morphism map misses target set")
        for a, e in enumerate(A.identities):
            for x in self.on_objects[a]:
                if self.on_morphisms[e][x] != x:
                    raise ValueError("diagram breaks identities")
        for (g, f), h in A.comp.items():
            mf, mg, mh = (self.on_morphisms[f], self.on_morphisms[g],
                          self.on_morphisms[h])
            for x in self.on_objects[A.src(f)]:
                if mg[mf[x]] != mh[x]:
                    raise ValueError("diagram breaks composition")


class LimitResult:
    """Limit apex: the list of compatible families.

    A family is a tuple with one entry per shape object; the projection
    to object a takes a family to its entry a.
    """

    def __init__(self, shape, apex):
        self.shape = shape
        self.apex = apex


def compatible_families(domains, arrows):
    """Every tuple ``fam`` with ``fam[i]`` in ``domains[i]`` and
    ``f(fam[i]) == fam[j]`` for each ``(j, f)`` in ``arrows[i]``, in the
    lexicographic order of the positions and their domains.  Arrows may
    point anywhere, several times at one position.  Precondition: no
    domain lists an element twice.

    The solver backtracks in its own order: the roots, most arrows first
    (stable), each followed breadth first by every position its arrows
    reach.  An arrow into a later position forces the value there
    (trusted to lie in its domain), so only roots are chosen.
    """
    n = len(domains)
    order, at, k = [], [None] * n, 0  # at: the inverse of order
    roots = sorted(range(n), key=lambda i: -len(arrows[i])) if n > 1 else ()
    for root in roots:
        if at[root] is None:
            at[root] = len(order)
            order.append(root)
        while k < len(order):  # breadth first, with order as the queue
            for j, _ in arrows[order[k]]:
                if at[j] is None:
                    at[j] = len(order)
                    order.append(j)
            k += 1
    moved = order != sorted(order)
    doms, arrs = domains, arrows
    if moved:
        doms = [domains[i] for i in order]
        arrs = [[(at[j], f) for j, f in arrows[i]] for i in order]
    fam = [None] * n
    forced = {}
    families = []

    def extend(pos):
        if pos == n:
            families.append(tuple(fam))
            return
        for x in ([forced[pos]] if pos in forced else doms[pos]):
            fam[pos] = x
            new = []
            for (j, f) in arrs[pos]:
                y = f(x)
                if j <= pos:
                    if fam[j] != y:
                        break
                elif j in forced:
                    if forced[j] != y:
                        break
                else:
                    forced[j] = y
                    new.append(j)
            else:
                extend(pos + 1)
            for j in new:
                del forced[j]

    extend(0)
    if moved:  # n >= 2 here, so the getter returns tuples
        families = list(map(operator.itemgetter(*at), families))
        if all(d == range(len(d)) for d in domains):
            families.sort()  # each value is its own rank
        elif len(families) > 1:
            ranks = [dict(zip(d, range(len(d)))) for d in domains]
            families.sort(key=lambda t: list(map(dict.__getitem__, ranks, t)))
    return families


def limit(diagram):
    """Limit of a finite-set diagram: its compatible families, one arrow
    per morphism of the shape but the identities (which always hold)."""
    A = diagram.shape
    arrows = [[] for _ in range(A.n_objects)]
    for f, (s, d) in enumerate(A.morphisms):
        if f != A.identities[s]:
            arrows[s].append((d, diagram.on_morphisms[f].__getitem__))
    return LimitResult(A, compatible_families(diagram.on_objects, arrows))


def limit_bruteforce(diagram):
    """Oracle: product filtering, no pruning."""
    maps = list(zip(diagram.on_morphisms, diagram.shape.morphisms))
    return [fam for fam in itertools.product(*diagram.on_objects)
            if all(m[fam[s]] == fam[d] for m, (s, d) in maps)]


def check_cone_terminal(diagram, result):
    """Brute-force check that the limit apex is a terminal cone: it lists
    every compatible family, and nothing else, exactly once."""
    return (sorted(map(repr, limit_bruteforce(diagram)))
            == sorted(map(repr, result.apex)))


# ---------------------------------------------------------------------------
# twisted arrows, ends, coends
# ---------------------------------------------------------------------------

def twisted_arrow(A):
    """Twisted arrow category of A.

    Objects are the morphisms of A; an arrow f -> g is a factorization
    g = q ∘ f ∘ p.  Returns (Tw, arrows) where arrows[i] is
    (f_index, g_index, p, q) describing morphism i of Tw.
    """
    k = len(A.morphisms)
    arrows = []
    for f in range(k):
        for g in range(k):
            for p in A.hom(A.src(g), A.src(f)):
                for q in A.hom(A.dst(f), A.dst(g)):
                    if A.comp[(q, A.comp[(f, p)])] == g:
                        arrows.append((f, g, p, q))
    index = {t: i for i, t in enumerate(arrows)}
    morphisms = [(f, g) for (f, g, p, q) in arrows]
    identities = [index[(f, f, A.identities[A.src(f)], A.identities[A.dst(f)])]
                  for f in range(k)]
    comp = {}
    for i, (f1, g1, p1, q1) in enumerate(arrows):
        for j, (f2, g2, p2, q2) in enumerate(arrows):
            if f2 != g1:
                continue
            comp[(j, i)] = index[(f1, g2, A.comp[(p1, p2)], A.comp[(q2, q1)])]
    tw = FinCategory(k, morphisms, identities, comp)
    return tw, arrows


class Bifunctor:
    """H : A^op x A -> Set with a total mixed action table.

    ``values[(a, b)]`` is a list; ``action[(p, q)]`` (p: a' -> a,
    q: b -> b') is a dict H(a, b) -> H(a', b').
    """

    def __init__(self, shape, values, action):
        self.shape = shape
        self.values = {k: list(v) for k, v in values.items()}
        self.action = {k: dict(v) for k, v in action.items()}
        self._check()

    def _check(self):
        A = self.shape
        for (p, q), m in self.action.items():
            a, b = A.dst(p), A.src(q)
            ap, bp = A.src(p), A.dst(q)
            if set(m.keys()) != set(self.values[(a, b)]):
                raise ValueError("action has wrong domain")
            for v in m.values():
                if v not in self.values[(ap, bp)]:
                    raise ValueError("action misses target set")
        for a in range(A.n_objects):
            for b in range(A.n_objects):
                m = self.action[(A.identities[a], A.identities[b])]
                for x in self.values[(a, b)]:
                    if m[x] != x:
                        raise ValueError("bifunctor breaks identities")
        for (p1, q1) in self.action:
            for (p2, q2) in self.action:
                A_ = A
                if A_.src(p1) != A_.dst(p2) or A_.dst(q1) != A_.src(q2):
                    continue
                m12 = self.action[(A_.comp[(p1, p2)], A_.comp[(q2, q1)])]
                m1, m2 = self.action[(p1, q1)], self.action[(p2, q2)]
                for x in self.values[(A_.dst(p1), A_.src(q1))]:
                    if m2[m1[x]] != m12[x]:
                        raise ValueError("bifunctor breaks composition")


def hom_bifunctor(F, G):
    """The bifunctor (a, b) -> Set(F(a), G(b)) for diagrams F, G on one shape."""
    A = F.shape
    values = {}
    for a in range(A.n_objects):
        for b in range(A.n_objects):
            funcs = []
            for images in itertools.product(G.on_objects[b],
                                            repeat=len(F.on_objects[a])):
                funcs.append(tuple(zip(F.on_objects[a], images)))
            values[(a, b)] = funcs
    action = {}
    for p in range(len(A.morphisms)):
        for q in range(len(A.morphisms)):
            a, b = A.dst(p), A.src(q)
            m = {}
            for h in values[(a, b)]:
                hd = dict(h)
                m[h] = tuple((x, G.on_morphisms[q][hd[F.on_morphisms[p][x]]])
                             for x in F.on_objects[A.src(p)])
            action[(p, q)] = m
    return Bifunctor(A, values, action)


def end(H):
    """End of a bifunctor: limit over the twisted arrow category.

    Returns the list of wedges as dicts {object a: element of H(a, a)}.
    """
    A = H.shape
    tw, arrows = twisted_arrow(A)
    on_objects = [H.values[(A.src(f), A.dst(f))] for f in range(tw.n_objects)]
    on_morphisms = [H.action[(p, q)] for (f, g, p, q) in arrows]
    diag = Diagram(tw, on_objects, on_morphisms, check=False)
    res = limit(diag)
    out = []
    for fam in res.apex:
        out.append({a: fam[A.identities[a]] for a in range(A.n_objects)})
    return out


def nat_transformations(F, G):
    """Brute-force natural transformations F => G (oracle for ``end``)."""
    A = F.shape
    out = []
    comps = [list(itertools.product(G.on_objects[a],
                                    repeat=len(F.on_objects[a])))
             for a in range(A.n_objects)]
    for choice in itertools.product(*comps):
        eta = [dict(zip(F.on_objects[a], choice[a]))
               for a in range(A.n_objects)]
        ok = True
        for f, (s, d) in enumerate(A.morphisms):
            for x in F.on_objects[s]:
                if G.on_morphisms[f][eta[s][x]] != eta[d][F.on_morphisms[f][x]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(eta)
    return out


def coend(H):
    """Coend: disjoint union of diagonal values modulo the zig-zag relation.

    Returns (classes, quotient) where classes is a sorted list of frozensets
    of pairs (a, element) and quotient maps each pair to its class index.
    """
    A = H.shape
    points = [(a, x) for a in range(A.n_objects) for x in H.values[(a, a)]]
    parent = {p: p for p in points}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[max(rp, rq, key=repr)] = min(rp, rq, key=repr)

    for f, (a, b) in enumerate(A.morphisms):
        ida, idb = A.identities[a], A.identities[b]
        for x in H.values[(b, a)]:
            left = H.action[(f, ida)][x]    # in H(a, a)
            right = H.action[(idb, f)][x]   # in H(b, b)
            union((a, left), (b, right))

    classes = {}
    for p in points:
        classes.setdefault(find(p), set()).add(p)
    ordered = sorted(classes.values(), key=lambda s: sorted(map(repr, s)))
    quotient = {}
    for i, cls in enumerate(ordered):
        for p in cls:
            quotient[p] = i
    return [frozenset(c) for c in ordered], quotient


# ---------------------------------------------------------------------------
# right Kan extension and cotensor
# ---------------------------------------------------------------------------

def comma_category(F, b):
    """The comma category b ↓ F for F : A -> B and an object b of B.

    Returns (C, objs) where objs[i] = (a, m) with m : b -> F(a) in B.
    """
    A, B = F.source, F.target
    objs = []
    for a in range(A.n_objects):
        for m in B.hom(b, F.obj_map[a]):
            objs.append((a, m))
    index = {o: i for i, o in enumerate(objs)}
    morphisms = []
    tags = []
    for i, (a, m) in enumerate(objs):
        for f in range(len(A.morphisms)):
            if A.src(f) != a:
                continue
            m2 = B.comp[(F.mor_map[f], m)]
            j = index[(A.dst(f), m2)]
            morphisms.append((i, j))
            tags.append(f)
    index_m = {}
    for k, ((i, j), f) in enumerate(zip(morphisms, tags)):
        index_m[(i, f)] = k
    identities = [index_m[(i, A.identities[a])] for i, (a, m) in enumerate(objs)]
    comp = {}
    for k1, ((i1, j1), f1) in enumerate(zip(morphisms, tags)):
        for k2, ((i2, j2), f2) in enumerate(zip(morphisms, tags)):
            if i2 != j1:
                continue
            comp[(k2, k1)] = index_m[(i1, A.comp[(f2, f1)])]
    C = FinCategory(len(objs), morphisms, identities, comp)
    return C, objs, tags


def right_kan(F, G, b):
    """(RKan_F G)(b) as the limit over the comma category b ↓ F.

    Returns the list of families indexed by comma objects (a, m).
    """
    C, objs, tags = comma_category(F, b)
    on_objects = [G.on_objects[a] for (a, m) in objs]
    on_morphisms = [G.on_morphisms[f] for f in tags]
    diag = Diagram(C, on_objects, on_morphisms, check=False)
    res = limit(diag)
    return [dict(zip(objs, fam)) for fam in res.apex], objs


def right_kan_end_formula(F, G, b):
    """(RKan_F G)(b) via the end of a ↦ Hom(B(b, F(a)), G(a)).

    Elements are dicts a -> (function B(b, F(a)) -> G(a) as a tuple of
    pairs), natural in a.  Enumerated by backtracking.
    """
    A, B = F.source, F.target
    homs = [B.hom(b, F.obj_map[a]) for a in range(A.n_objects)]
    out = []

    def extend(a, partial):
        if a == A.n_objects:
            out.append({i: tuple(sorted(partial[i].items()))
                        for i in range(A.n_objects)})
            return
        for images in itertools.product(G.on_objects[a], repeat=len(homs[a])):
            eta_a = dict(zip(homs[a], images))
            ok = True
            for f in range(len(A.morphisms)):
                s, d = A.src(f), A.dst(f)
                if s == a and d < a:
                    for m in homs[a]:
                        m2 = B.comp[(F.mor_map[f], m)]
                        if partial[d][m2] != G.on_morphisms[f][eta_a[m]]:
                            ok = False
                            break
                elif d == a and s < a:
                    for m in homs[s]:
                        m2 = B.comp[(F.mor_map[f], m)]
                        if eta_a[m2] != G.on_morphisms[f][partial[s][m]]:
                            ok = False
                            break
                elif s == a and d == a:
                    for m in homs[a]:
                        m2 = B.comp[(F.mor_map[f], m)]
                        if eta_a[m2] != G.on_morphisms[f][eta_a[m]]:
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                partial[a] = eta_a
                extend(a + 1, partial)
        partial[a] = None

    extend(0, [None] * A.n_objects)
    return out


def cotensor(T, c):
    """The function set c^T, as tuples of (t, value) pairs."""
    T = list(T)
    return [tuple(zip(T, images))
            for images in itertools.product(list(c), repeat=len(T))]

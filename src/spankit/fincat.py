"""Finite categories and finite-set-valued diagrams.

A category checks only the composites its table holds, and counts them
against its composable pairs.  Products number object (a, b) as
``a*m + b`` and morphism (f, g) as ``f*k + g`` (the second factor has m
objects and k morphisms), so a functor of two variables, such as a
monoidal tensor C x C -> C, is a ``FinFunctor`` or ``Diagram`` on a
product, checked as any other.  The opposite and product categories
and the hom diagram of two diagrams are not checked again: derived from
checked ones, they are always categories and functors.

Limits as compatible families, found by ``compatible_families``: the one
forced-value backtracker, on positions and tables, for which ``limit``,
``spans`` and ``pathnerve`` (labelled limits and commutative grids)
number their own values; only the oracles (``limit_bruteforce``,
``nat_transformations``, ``right_kan_end_formula``) search on their
own.  Diagrams and functors check that they have one value or image
per object and morphism of their shape.  Ends and coends of diagrams on
A^op x A, such as the hom diagram of two diagrams on A; right Kan
extensions via the comma-category limit formula and via the
end-of-cotensor formula, and cotensors.  ``limit``, ``end`` and the
comma formula ``right_kan`` each hand the solver a list of value lists
and arrows; no twisted arrow or comma category is built.

Conventions: the limit of the empty diagram is a singleton; all finite
sets are lists with a fixed element order so results are deterministic.
"""

from __future__ import annotations

import itertools
import operator


class FinCategory:
    """A finite category given by a total composition table.

    Morphisms are indexed 0..k-1 with source/target object indices;
    ``comp[(g, f)]`` is g∘f for target(f) == source(g).  The table, the
    associativity and the unit laws are checked on construction (but not
    for ``opposite`` and ``product``).
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
        mors, comp, k = self.morphisms, self.comp, len(self.morphisms)
        n = self.n_objects
        out = [[] for _ in range(n)]  # morphisms by source
        into = [0] * n
        for h, (sh, dh) in enumerate(mors):
            if not (0 <= sh < n and 0 <= dh < n):
                raise ValueError("morphism names an unknown object")
            out[sh].append(h)
            into[dh] += 1
        if len(self.identities) != n:
            raise ValueError("one identity per object required")
        for a, e in enumerate(self.identities):
            if not 0 <= e < k:
                raise ValueError("identity names an unknown morphism")
            if mors[e] != (a, a):
                raise ValueError("identity has wrong endpoints")
        for (g, f), h in comp.items():
            if not (0 <= g < k and 0 <= f < k and 0 <= h < k):
                raise ValueError("composite names an unknown morphism")
            (sg, dg), (sf, df) = mors[g], mors[f]
            if sg != df:
                raise ValueError("composite of non-composable pair")
            if mors[h] != (sf, dg):
                raise ValueError("composite has wrong endpoints")
        # every key is a distinct composable pair, so the count finds a gap
        if len(comp) != sum(map(operator.mul, into, map(len, out))):
            raise ValueError("missing composite")
        for f, (sf, df) in enumerate(mors):
            if comp[(f, self.identities[sf])] != f:
                raise ValueError("right unit law fails")
            if comp[(self.identities[df], f)] != f:
                raise ValueError("left unit law fails")
        for (g, f), gf in comp.items():
            for h in out[mors[g][1]]:
                if comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                    raise ValueError("associativity fails")

    # -- builders ----------------------------------------------------------

    @staticmethod
    def from_poset(n, leq):
        """The category of a poset on objects 0..n-1 with order ``leq``."""
        morphisms = [(a, b) for a in range(n) for b in range(n) if leq(a, b)]
        index = {m: i for i, m in enumerate(morphisms)}
        identities = [index[(a, a)] for a in range(n)]
        comp = {(g, index[(a, b)]): index[(a, c)]
                for g, (b, c) in enumerate(morphisms)
                for a in range(n) if (a, b) in index}
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

    @staticmethod
    def _unchecked(n_objects, morphisms, identities, comp):
        """A category derived from checked ones, which is therefore a
        category: its tables are taken as they are, not checked again."""
        C = FinCategory.__new__(FinCategory)
        C.n_objects, C.morphisms = n_objects, morphisms
        C.identities, C.comp = identities, comp
        return C

    def opposite(self):
        """The opposite category, not checked again."""
        morphisms = [(d, s) for (s, d) in self.morphisms]
        comp = {(f, g): h for (g, f), h in self.comp.items()}
        return FinCategory._unchecked(self.n_objects, morphisms,
                                      list(self.identities), comp)

    def product(self, other):
        """The product category, with ``factors`` (self, other).  Object
        (a, b) is ``a*m + b`` and morphism (f, g) is ``f*k + g``, where
        other has m objects and k morphisms.  It is not checked again."""
        m, k = other.n_objects, len(other.morphisms)
        morphisms = [(s1 * m + s2, d1 * m + d2)
                     for (s1, d1) in self.morphisms
                     for (s2, d2) in other.morphisms]
        identities = [e1 * k + e2 for e1 in self.identities
                      for e2 in other.identities]
        comp = {(g1 * k + g2, f1 * k + f2): h1 * k + h2
                for (g1, f1), h1 in self.comp.items()
                for (g2, f2), h2 in other.comp.items()}
        P = FinCategory._unchecked(self.n_objects * m, morphisms,
                                   identities, comp)
        P.factors = (self, other)
        return P


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
        if len(self.obj_map) != A.n_objects:
            raise ValueError("one object image per source object required")
        if len(self.mor_map) != len(A.morphisms):
            raise ValueError("one morphism image per source morphism required")
        if not all(0 <= b < B.n_objects for b in self.obj_map):
            raise ValueError("object image names an unknown object")
        if not all(0 <= g < len(B.morphisms) for g in self.mor_map):
            raise ValueError("morphism image names an unknown morphism")
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

    ``on_objects[a]`` is a list with no repeats; ``on_morphisms[f]`` a
    dict mapping each element of the source value set to one of the target's.
    """

    def __init__(self, shape, on_objects, on_morphisms):
        self.shape = shape
        self.on_objects = [list(v) for v in on_objects]
        self.on_morphisms = [dict(m) for m in on_morphisms]
        self._check()

    @staticmethod
    def _unchecked(shape, on_objects, on_morphisms):
        """A diagram derived from checked ones, which is therefore a
        diagram: its lists are taken as they are, not checked again."""
        D = Diagram.__new__(Diagram)
        D.shape, D.on_objects, D.on_morphisms = shape, on_objects, on_morphisms
        return D

    def _check(self):
        A = self.shape
        if len(self.on_objects) != A.n_objects:
            raise ValueError("one value list per object required")
        if len(self.on_morphisms) != len(A.morphisms):
            raise ValueError("one morphism map per morphism required")
        sets = [set(v) for v in self.on_objects]
        if any(len(s) != len(v) for s, v in zip(sets, self.on_objects)):
            raise ValueError("value list repeats a value")
        for f, (s, d) in enumerate(A.morphisms):
            m = self.on_morphisms[f]
            if m.keys() != sets[s]:
                raise ValueError("morphism map has wrong domain")
            if not sets[d].issuperset(m.values()):
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


def compatible_families(sizes, arrows):
    """Every tuple ``fam`` of positions, ``fam[i]`` in ``range(sizes[i])``,
    with ``table[fam[i]] == fam[j]`` for each ``(j, table)`` in
    ``arrows[i]``, sorted.  A table (list, tuple or dict) maps positions
    of domain i to positions of domain j; it is read only where tried.
    Arrows may point anywhere, several times at one position.

    When no arrow points back (j >= i), the caller's order forces every
    position an arrow reaches, and the solver keeps it.  Otherwise it
    backtracks in its own order: the roots, most arrows first (stable),
    each followed breadth first by every position its arrows reach.  An
    arrow into a later position forces the value there, so only roots
    are chosen.  A root with arrows into positions known before its turn
    is looked up, not scanned: it tries only the preimage of the known
    value under the one of them into the largest domain (the first such),
    whose table it inverts, reading it in full, on its first visit.
    """
    n = len(sizes)
    order = identity = list(range(n))
    if any(j < i for i in identity for j, _ in arrows[i]):  # so n >= 2
        order, at, k = [], [None] * n, 0  # at: the inverse of order
        for root in sorted(identity, key=lambda i: -len(arrows[i])):
            if at[root] is None:
                at[root] = len(order)
                order.append(root)
            while k < len(order):  # breadth first, with order as the queue
                for j, _ in arrows[order[k]]:
                    if at[j] is None:
                        at[j] = len(order)
                        order.append(j)
                k += 1
        sizes = [sizes[i] for i in order]
        arrows = [[(at[j], table) for j, table in arrows[i]] for i in order]
    # the order fixes, per position, the values it tries (its domain if
    # it is chosen; None if the first arrow into it forces it), the
    # arrow a chosen one is looked up by (with its inverse, None until
    # the first visit), and which arrows then force or only check
    plan, known = [], [False] * n
    for pos in range(n):
        tries = None if known[pos] else range(sizes[pos])
        lookup, largest = None, 0
        if tries is not None:
            for arrow in arrows[pos]:
                if known[arrow[0]] and sizes[arrow[0]] > largest:
                    lookup, largest = arrow, sizes[arrow[0]]
        known[pos] = True
        forces, checks = [], []
        for arrow in arrows[pos]:
            if arrow is not lookup:
                (checks if known[arrow[0]] else forces).append(arrow)
                known[arrow[0]] = True
        plan.append((tries, forces, checks, lookup and [*lookup, None]))
    fam, families = [None] * n, []

    def extend(pos):
        if pos == n:
            families.append(tuple(fam))
            return
        tries, forces, checks, lookup = plan[pos]
        if lookup:
            j, table, inverse = lookup
            if inverse is None:
                lookup[2] = inverse = {}
                for x in tries:
                    inverse.setdefault(table[x], []).append(x)
            tries = inverse.get(fam[j], ())
        for x in (fam[pos],) if tries is None else tries:
            fam[pos] = x
            for j, table in forces:
                fam[j] = table[x]
            for j, table in checks:
                if fam[j] != table[x]:
                    break
            else:
                extend(pos + 1)

    extend(0)
    if order != identity:
        families = sorted(map(operator.itemgetter(*at), families))
    return families


def _families(values, arrows):
    """The compatible families of value lists under arrows ``(s, d, m)``,
    each a dict m from ``values[s]`` into ``values[d]``: tuples of values
    in the order of their position tuples.  Each value is solved as its
    position in its list."""
    ranks = [{x: p for p, x in enumerate(vs)} for vs in values]
    tables = [[] for _ in values]
    for s, d, m in arrows:
        rank = ranks[d]
        tables[s].append((d, [rank[m[x]] for x in values[s]]))
    fams = compatible_families(list(map(len, values)), tables)
    return [tuple(map(list.__getitem__, values, fam)) for fam in fams]


def limit(diagram):
    """Limit of a finite-set diagram: its compatible families, one arrow
    per morphism of the shape but the identities (which always hold)."""
    A = diagram.shape
    return LimitResult(A, _families(
        diagram.on_objects,
        [(s, d, diagram.on_morphisms[f])
         for f, (s, d) in enumerate(A.morphisms) if f != A.identities[s]]))


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
# ends, coends
# ---------------------------------------------------------------------------

def hom_bifunctor(F, G):
    """The functor (a, b) -> Set(F(a), G(b)) on A^op x A, for diagrams F,
    G on one shape A, as a diagram on ``A.opposite().product(A)``: its
    morphism (p, q), p: a' -> a and q: b -> b' in A, acts as
    h -> G(q) . h . F(p).  It is not checked again."""
    A = F.shape
    values = [[tuple(zip(F.on_objects[a], images))
               for images in itertools.product(G.on_objects[b],
                                               repeat=len(F.on_objects[a]))]
              for a in range(A.n_objects) for b in range(A.n_objects)]
    action = []
    for p, (ap, a) in enumerate(A.morphisms):
        for q, (b, _) in enumerate(A.morphisms):
            fp, gq, m = F.on_morphisms[p], G.on_morphisms[q], {}
            for h in values[a * A.n_objects + b]:
                hd = dict(h)
                m[h] = tuple((x, gq[hd[fp[x]]]) for x in F.on_objects[ap])
            action.append(m)
    return Diagram._unchecked(A.opposite().product(A), values, action)


def end(H):
    """End of a diagram H on A^op x A (``H.shape.factors[1]`` is A, as
    ``hom_bifunctor`` builds it): the limit over the twisted arrow
    category.  Its objects are the morphisms f: a -> b of A, valued
    H(a, b); its arrows f -> q∘f∘p, for p into a and q out of b, act by
    H(p, q).  The identities, (p, q) = (id_a, id_b), are left out.

    Returns the list of wedges as dicts {object a: element of H(a, a)}.
    """
    A = H.shape.factors[1]
    n, k = A.n_objects, len(A.morphisms)
    into, out = [[] for _ in range(n)], [[] for _ in range(n)]
    for h, (s, d) in enumerate(A.morphisms):
        out[s].append(h)
        into[d].append(h)
    ids = A.identities
    twisted = sorted((f, A.comp[(q, A.comp[(f, p)])], p, q)
                     for f, (a, b) in enumerate(A.morphisms)
                     for p in into[a] for q in out[b]
                     if p != ids[a] or q != ids[b])
    fams = _families([H.on_objects[s * n + d] for (s, d) in A.morphisms],
                     [(f, g, H.on_morphisms[p * k + q])
                      for f, g, p, q in twisted])
    return [{a: fam[ids[a]] for a in range(n)} for fam in fams]


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
    """Coend of a diagram H on A^op x A, as ``end`` reads it: the disjoint
    union of the diagonal values modulo the zig-zag relation.

    Returns (classes, quotient) where classes is a sorted list of frozensets
    of pairs (a, element) and quotient maps each pair to its class index.
    """
    A = H.shape.factors[1]
    n, k = A.n_objects, len(A.morphisms)
    points = [(a, x) for a in range(n) for x in H.on_objects[a * n + a]]
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
        for x in H.on_objects[b * n + a]:
            left = H.on_morphisms[f * k + ida][x]    # in H(a, a)
            right = H.on_morphisms[idb * k + f][x]   # in H(b, b)
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

def right_kan(F, G, b):
    """(RKan_F G)(b) as the limit over the comma category b ↓ F.  Its
    objects are the pairs (a, m), m: b -> F(a) in B, valued G(a); each
    f: a -> a' of A but the identity is an arrow (a, m) -> (a', F(f)∘m)
    acting by G(f).

    Returns (families as dicts {(a, m): element of G(a)}, the pairs).
    """
    A, B = F.source, F.target
    objs = [(a, m) for a in range(A.n_objects)
            for m in B.hom(b, F.obj_map[a])]
    index = {o: i for i, o in enumerate(objs)}
    arrows = [(i, index[(d, B.comp[(F.mor_map[f], m)])], G.on_morphisms[f])
              for i, (a, m) in enumerate(objs)
              for f, (s, d) in enumerate(A.morphisms)
              if s == a and f != A.identities[a]]
    fams = _families([G.on_objects[a] for a, _ in objs], arrows)
    return [dict(zip(objs, fam)) for fam in fams], objs


def right_kan_end_formula(F, G, b):
    """(RKan_F G)(b) via the end of a ↦ Hom(B(b, F(a)), G(a)).

    Elements are dicts a -> (function B(b, F(a)) -> G(a) as a tuple of
    pairs), natural in a.  Enumerated by its own backtracking, object by
    object, as an oracle for ``right_kan``: each morphism f: s -> d of A
    is checked, eta_d(F(f)∘m) == G(f)(eta_s(m)) for every m: b -> F(s),
    once both eta_s and eta_d are chosen, at object max(s, d).
    """
    A, B = F.source, F.target
    n = A.n_objects
    homs = [B.hom(b, F.obj_map[a]) for a in range(n)]
    filed = [[] for _ in range(n)]
    for f, (s, d) in enumerate(A.morphisms):
        filed[max(s, d)].append((F.mor_map[f], G.on_morphisms[f], s, d))
    eta, out = [None] * n, []

    def extend(a):
        if a == n:
            out.append({i: tuple(sorted(eta[i].items())) for i in range(n)})
            return
        for images in itertools.product(G.on_objects[a], repeat=len(homs[a])):
            eta[a] = dict(zip(homs[a], images))
            if all(eta[d][B.comp[(ff, m)]] == gf[eta[s][m]]
                   for ff, gf, s, d in filed[a] for m in homs[s]):
                extend(a + 1)

    extend(0)
    return out


def cotensor(T, c):
    """The function set c^T, as tuples of (t, value) pairs."""
    T = list(T)
    return [tuple(zip(T, images))
            for images in itertools.product(list(c), repeat=len(T))]

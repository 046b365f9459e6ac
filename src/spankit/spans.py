"""Generalized cartesian spans valued in finite sets.

A generalized span diagram labels the product poset Sigma^{k_1} x ... x
Theta^{l_1} x ... with tuples of finite sets (one per tuple slot) and a
map for every poset arrow.  Cartesianness means every label is, via the
canonical comparison, the limit of the diagram's restriction to the
bottom layer (intervals of length <= 1, singleton subsets) under the
object.  Cartesian replacement rebuilds every label as that limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fincat import compatible_families
from .simplex import (SpanPoset, build_sigma, build_theta, push_sigma,
                      push_theta)


# ---------------------------------------------------------------------------
# plain spans and pullback composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    """A span  left_foot <- apex -> right_foot  of finite sets."""

    left_foot: tuple
    apex: tuple
    right_foot: tuple
    left_map: tuple   # pairs (apex element, foot element)
    right_map: tuple

    def __post_init__(self):
        lm, rm = dict(self.left_map), dict(self.right_map)
        for a in self.apex:
            if lm.get(a) not in self.left_foot or rm.get(a) not in self.right_foot:
                raise ValueError("span legs not total")

    def left(self, a):
        return dict(self.left_map)[a]

    def right(self, a):
        return dict(self.right_map)[a]

    @staticmethod
    def identity(x):
        x = tuple(x)
        idm = tuple((a, a) for a in x)
        return Span(x, x, x, idm, idm)


def compose_spans(s1, s2):
    """Composite span with apex the pullback over the shared foot."""
    if tuple(s1.right_foot) != tuple(s2.left_foot):
        raise ValueError("foot mismatch")
    apex = tuple((a, b) for a in s1.apex for b in s2.apex
                 if s1.right(a) == s2.left(b))
    left = tuple(((a, b), s1.left(a)) for (a, b) in apex)
    right = tuple(((a, b), s2.right(b)) for (a, b) in apex)
    return Span(tuple(s1.left_foot), apex, tuple(s2.right_foot), left, right)


# ---------------------------------------------------------------------------
# the indexing product poset
# ---------------------------------------------------------------------------

def _is_small(factor, x):
    """True for the factor's bottom layer: intervals of length <= 1 and
    singleton subsets."""
    return (x.source_size if isinstance(factor, SpanPoset) else len(x)) <= 1


class ProductPoset:
    """Product of interval pyramids (sigma factors) and subset posets
    (theta factors).  Objects are tuples of factor objects; arrows go
    componentwise downward (to subintervals / subsets)."""

    def __init__(self, sigma_levels, theta_levels):
        self.sigma_levels = tuple(sigma_levels)
        self.theta_levels = tuple(theta_levels)
        self.factors = ([build_sigma(k) for k in sigma_levels]
                        + [build_theta(l) for l in theta_levels])
        self.objects = [tuple(o) for o in
                        itertools.product(*[f.objects for f in self.factors])]
        # objects run through the product of the factor objects in order,
        # so a product of per-factor lists zips with them.  _up[a]: the
        # cover targets out of a, one factor stepping down a Hasse edge
        steps = []
        for f in self.factors:
            step = [[] for _ in f.objects]
            for (i, j) in f.hasse_edges:
                step[i].append(f.objects[j])
            steps.append(step)
        self._up = {a: [a[:fi] + (y,) + a[fi + 1:]
                        for fi, ys in enumerate(downs) for y in ys]
                    for a, downs in zip(self.objects,
                                        itertools.product(*steps))}
        self.covers = [(a, b) for a in self.objects for b in self._up[a]]
        # _down[a]: the objects under a, in object order, as the keys of a
        # dict (an ordered set); _slices[x]: the bottom objects under x, in
        # bottom() order.  Both are products of per-factor down-sets, and
        # the bottom layer is the product of the factors' bottom layers
        downs, under = [], []
        for f in self.factors:
            down = [[y for y in f.objects if f.leq(x, y)] for x in f.objects]
            downs.append(down)
            under.append([[y for y in ys if _is_small(f, y)] for ys in down])
        self._down = dict(zip(self.objects, (
            dict.fromkeys(itertools.product(*ds))
            for ds in itertools.product(*downs))))
        self._slices = dict(zip(self.objects, (
            list(itertools.product(*us)) for us in itertools.product(*under))))

    def leq(self, a, b):
        return b in self._down[a]

    def is_bottom(self, obj):
        return all(_is_small(f, x) for f, x in zip(self.factors, obj))

    def bottom(self):
        return [o for o in self.objects if self.is_bottom(o)]


# ---------------------------------------------------------------------------
# generalized span diagrams
# ---------------------------------------------------------------------------

def _compose_dicts(outer, inner):
    return {k: outer[v] for k, v in inner.items()}


class GeneralizedSpanDiagram:
    """A width-t labelling of a product poset by finite sets and maps.

    ``labels[obj]`` is a list of t label sets (lists); ``maps[(a, b)]``,
    for each covering arrow a -> b, is a list of t dicts.  Functoriality
    (all composites between the same endpoints agree) is checked on
    construction.
    """

    def __init__(self, poset, width, labels, maps, check=True):
        self.poset = poset
        self.width = width
        self.labels = {o: [list(s) for s in labels[o]] for o in poset.objects}
        self.maps = {e: [dict(d) for d in maps[e]] for e in poset.covers}
        self._path_cache = {}
        if check:
            self._check()

    def _check(self):
        for obj in self.poset.objects:
            if len(self.labels[obj]) != self.width:
                raise ValueError("wrong number of label slots")
        for (a, b) in self.poset.covers:
            for s in range(self.width):
                d = self.maps[(a, b)][s]
                if set(d) != set(self.labels[a][s]):
                    raise ValueError("map not total on its label set")
                if not set(d.values()) <= set(self.labels[b][s]):
                    raise ValueError("map lands outside its target label set")
        # all cover paths with the same endpoints give the same composite:
        # the first steps a -> m above b must all lead to one composite
        up, down = self.poset._up, self.poset._down
        for a in self.poset.objects:
            steps = [(down[m], m, self.maps[(a, m)]) for m in up[a]]
            for b in down[a]:
                routes = [(m, step) for below, m, step in steps if b in below]
                if len(routes) < 2:
                    continue
                first, *others = [[_compose_dicts(r, d) for r, d in
                                   zip(self.get_map(m, b), step)]
                                  for m, step in routes]
                if any(c != first for c in others):
                    raise ValueError("diagram not functorial at %r -> %r"
                                     % (a, b))

    def get_map(self, a, b):
        """The composite map along any cover path from a to b."""
        out = self._path_cache.get((a, b))
        if out is not None:
            return out
        if a == b:
            return [{k: k for k in self.labels[a][s]} for s in range(self.width)]
        down = self.poset._down
        if b not in down[a]:
            raise ValueError("no arrow between the given objects")
        for m in self.poset._up[a]:
            if b in down[m]:
                rest = self.get_map(m, b)
                out = [_compose_dicts(r, d)
                       for r, d in zip(rest, self.maps[(a, m)])]
                self._path_cache[(a, b)] = out
                return out
        raise ValueError("no cover path found")


def _slice_limit(F, objs, slot):
    """Families over the bottom slice objs under some x, compatible with
    all maps between its objects; returned as value tuples in slice
    order, sorted by the positions of their values in the label lists
    (the lexicographic order of solving in slice order).

    The solver sees the objects in a forcing order: by the number of
    objects under each one, most first (stable), so every object comes
    before the objects it maps to and an arrow sets the value at its
    target instead of checking a value chosen freely there.  A slice
    holds every object under each of its objects.
    """
    down = F.poset._down
    order = sorted(objs, key=lambda y: -len(down[y]))
    at = {y: p for p, y in enumerate(order)}
    arrows = [[(at[z], F.get_map(y, z)[slot].__getitem__)
               for z in down[y] if z != y]
              for y in order]
    domains = [F.labels[y][slot] for y in order]
    back = [at[y] for y in objs]
    ranks = [{v: r for r, v in enumerate(F.labels[y][slot])} for y in objs]
    families = [tuple(fam[p] for p in back)
                for fam in compatible_families(domains, arrows)]
    families.sort(key=lambda fam: [r[v] for r, v in zip(ranks, fam)])
    return families


def comparison_map(F, x, slot):
    """The canonical map from the label at x into its slice limit."""
    legs = [F.get_map(x, y)[slot] for y in F.poset._slices[x]]
    return {e: tuple(leg[e] for leg in legs) for e in F.labels[x][slot]}


def is_cartesian(F):
    """True iff every comparison into the slice limit is a bijection.
    Returns (flag, witness); witness is (object, slot) on failure."""
    for x in F.poset.objects:
        objs = F.poset._slices[x]
        for s in range(F.width):
            fams = _slice_limit(F, objs, s)
            image = list(comparison_map(F, x, s).values())
            if len(set(image)) != len(image) or set(image) != set(fams):
                return False, (x, s)
    return True, None


def cartesian_replacement(F):
    """Rebuild every label as the limit over its bottom slice.

    Returns (G, comparison) where G is the replaced diagram (labels are
    value tuples in slice order) and comparison[x][slot] is the
    canonical map from F's label into G's.
    """
    poset = F.poset
    slices = poset._slices
    new_labels = {x: [_slice_limit(F, slices[x], s) for s in range(F.width)]
                  for x in poset.objects}
    new_maps = {}
    for (a, b) in poset.covers:
        sub = [slices[a].index(y) for y in slices[b]]
        new_maps[(a, b)] = [
            {fam: tuple(fam[i] for i in sub) for fam in new_labels[a][s]}
            for s in range(F.width)]
    G = GeneralizedSpanDiagram(poset, F.width, new_labels, new_maps)
    comparison = {x: [comparison_map(F, x, s) for s in range(F.width)]
                  for x in poset.objects}
    return G, comparison


# ---------------------------------------------------------------------------
# the three reindexing actions
# ---------------------------------------------------------------------------

def gamma_act(psi, F):
    """Pointed-map action on tuple slots: slot j of the result is the
    product of the slots in the preimage of j (singleton if empty)."""
    if psi.source_size != F.width:
        raise ValueError("width mismatch")
    pre = [[k for k in range(1, psi.source_size + 1) if psi(k) == j]
           for j in range(1, psi.target_size + 1)]
    labels = {}
    for x in F.poset.objects:
        labels[x] = [
            [tuple(t) for t in
             itertools.product(*[F.labels[x][k - 1] for k in ks])]
            for ks in pre]
    maps = {}
    for (a, b) in F.poset.covers:
        maps[(a, b)] = [
            {t: tuple(F.maps[(a, b)][k - 1][v] for k, v in zip(ks, t))
             for t in labels[a][j]}
            for j, ks in enumerate(pre)]
    return GeneralizedSpanDiagram(F.poset, psi.target_size, labels, maps)


def delta_act(F, factor_index, alpha):
    """Reindex one poset factor along a monotone map alpha.

    For an interval (sigma) factor this is a pure reindex along the
    interval pushforward; for a subset (theta) factor the reindex along
    the image pushforward is followed by cartesian replacement (the
    reindex alone can break cartesianness on collapsed faces).
    """
    old = F.poset
    factor = old.factors[factor_index]
    is_sigma = isinstance(factor, SpanPoset)
    if alpha.target_size != factor.level:
        raise ValueError("level mismatch")
    sig = list(old.sigma_levels)
    th = list(old.theta_levels)
    if is_sigma:
        sig[factor_index] = alpha.source_size
    else:
        th[factor_index - len(sig)] = alpha.source_size
    new = ProductPoset(sig, th)

    def transport(obj):
        out = list(obj)
        out[factor_index] = (push_sigma(alpha, obj[factor_index]) if is_sigma
                             else push_theta(alpha, obj[factor_index]))
        return tuple(out)

    labels = {x: [list(s) for s in F.labels[transport(x)]]
              for x in new.objects}
    maps = {}
    for (a, b) in new.covers:
        maps[(a, b)] = F.get_map(transport(a), transport(b))
    G = GeneralizedSpanDiagram(new, F.width, labels, maps)
    if not is_sigma:
        G, _ = cartesian_replacement(G)
    return G


# ---------------------------------------------------------------------------
# decorated spans
# ---------------------------------------------------------------------------

class DecoratedSpanDiagram:
    """A cartesian span diagram with an integer weight on every label
    element.  Weights are carried contravariantly only: no compatibility
    with the maps is imposed.  Under the slotwise product action the
    weights add up."""

    def __init__(self, diagram, weights):
        self.diagram = diagram
        self.weights = {o: [dict(d) for d in weights[o]]
                        for o in diagram.poset.objects}
        flag, witness = is_cartesian(diagram)
        if not flag:
            raise ValueError("underlying diagram not cartesian at %r"
                             % (witness,))
        for o in diagram.poset.objects:
            for s in range(diagram.width):
                if set(self.weights[o][s]) != set(diagram.labels[o][s]):
                    raise ValueError("weights not total")

    def gamma_act(self, psi):
        G = gamma_act(psi, self.diagram)
        pre = [[k for k in range(1, psi.source_size + 1) if psi(k) == j]
               for j in range(1, psi.target_size + 1)]
        weights = {}
        for x in G.poset.objects:
            weights[x] = [
                {t: sum(self.weights[x][k - 1][v] for k, v in zip(ks, t))
                 for t in G.labels[x][j]}
                for j, ks in enumerate(pre)]
        return DecoratedSpanDiagram(G, weights)


# ---------------------------------------------------------------------------
# construction helpers and serialization
# ---------------------------------------------------------------------------

def diagram_from_bottom(poset, width, bottom_labels, bottom_maps):
    """Build the cartesian diagram generated by labels on the bottom
    layer: every other label is the slice limit.

    ``bottom_labels[obj]`` and ``bottom_maps[(a, b)]`` (for covers with
    both endpoints in the bottom) follow the same slot conventions as
    the diagram itself.
    """
    labels = {}
    maps = {}
    for x in poset.objects:
        if poset.is_bottom(x):
            labels[x] = [list(s) for s in bottom_labels[x]]
        else:
            labels[x] = [[] for _ in range(width)]
    for (a, b) in poset.covers:
        if poset.is_bottom(a):
            maps[(a, b)] = [dict(d) for d in bottom_maps[(a, b)]]
        else:
            maps[(a, b)] = [{} for _ in range(width)]
    F = GeneralizedSpanDiagram(poset, width, labels, maps, check=False)
    G, _ = cartesian_replacement(F)
    return G

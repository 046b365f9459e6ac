"""Generalized cartesian spans valued in finite sets.

A generalized span diagram labels the product poset Sigma^{k_1} x ... x
Theta^{l_1} x ... with tuples of finite sets (one per tuple slot) and a
map for every poset arrow.  Cartesianness means every label is, via the
canonical comparison, the limit of the diagram's restriction to the
bottom layer (intervals of length <= 1, singleton subsets) under the
object.  Cartesian replacement rebuilds every label as that limit.

Labels are finite sets: with ``check`` on, a label list that repeats a
value is rejected.  Inside, the poset numbers its objects (the code of an
object is its index in ``objects``) and a diagram holds every label
value as its position in its label list.  Cover maps and composites are
tuples of target positions, one entry per source position, keyed by
code pairs; slice limits are solved on these integers, and values are
looked up only for the results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

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
        for name in ("left_foot", "apex", "right_foot"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ValueError("%s lists an element twice" % name)
        # leg lookups built here, not lazily (a cached_property locks on first
        # access before Python 3.12); not fields, so ==, repr, hash skip them
        lm, rm = dict(self.left_map), dict(self.right_map)
        object.__setattr__(self, "_left", lm)
        object.__setattr__(self, "_right", rm)
        for a in self.apex:
            if lm.get(a) not in self.left_foot or rm.get(a) not in self.right_foot:
                raise ValueError("span legs not total")

    def left(self, a):
        return self._left[a]

    def right(self, a):
        return self._right[a]

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
        # so the code of an object (its index) is the sum over the factors
        # of its factor object's index times the factor's stride, and a
        # product of per-factor lists of those terms gives codes in object
        # order.  _up_c[c]: the cover targets out of c, one factor
        # stepping down a Hasse edge; _down_c[c]: the objects under c in
        # object order, as the keys of a dict (an ordered set);
        # _slices_c[c]: the bottom objects under c in bottom() order, the
        # bottom layer being the product of the factors' bottom layers
        sizes = [len(f.objects) for f in self.factors]
        steps, downs, unders = [], [], []
        for fi, f in enumerate(self.factors):
            stride = math.prod(sizes[fi + 1:])
            step = [[] for _ in f.objects]
            for (i, j) in f.hasse_edges:
                step[i].append((j - i) * stride)
            steps.append(step)
            down = [[j for j, y in enumerate(f.objects) if f.leq(x, y)]
                    for x in f.objects]
            downs.append([[j * stride for j in js] for js in down])
            unders.append([[j * stride for j in js
                            if _is_small(f, f.objects[j])] for js in down])
        self._up_c = [[c + d for ds in step for d in ds]
                      for c, step in enumerate(itertools.product(*steps))]
        self._down_c = [dict.fromkeys(map(sum, itertools.product(*ds)))
                        for ds in itertools.product(*downs)]
        self._slices_c = [list(map(sum, itertools.product(*us)))
                          for us in itertools.product(*unders)]
        self._covers_c = [(a, b) for a, bs in enumerate(self._up_c)
                          for b in bs]
        objs = self.objects
        self.covers = [(objs[a], objs[b]) for a, b in self._covers_c]
        self._code = {o: c for c, o in enumerate(objs)}

    # the same tables keyed by objects, built on first use: hashing the
    # objects costs more than building the coded tables
    @cached_property
    def _up(self):
        return {a: [self.objects[b] for b in bs]
                for a, bs in zip(self.objects, self._up_c)}

    @cached_property
    def _down(self):
        return {a: dict.fromkeys(map(self.objects.__getitem__, bs))
                for a, bs in zip(self.objects, self._down_c)}

    @cached_property
    def _slices(self):
        return {a: [self.objects[y] for y in ys]
                for a, ys in zip(self.objects, self._slices_c)}

    def leq(self, a, b):
        return b in self._down[a]

    def is_bottom(self, obj):
        return all(_is_small(f, x) for f, x in zip(self.factors, obj))

    def bottom(self):
        return [o for o in self.objects if self.is_bottom(o)]


# ---------------------------------------------------------------------------
# generalized span diagrams
# ---------------------------------------------------------------------------

class GeneralizedSpanDiagram:
    """A width-t labelling of a product poset by finite sets and maps.

    ``labels[obj]`` is a list of t label sets (lists); ``maps[(a, b)]``,
    for each covering arrow a -> b, is a list of t dicts.  The composite
    for every pair a >= b is built once, on construction, along the
    first cover step a -> m above b; with ``check`` on, every other first
    step must give the same composite (functoriality).

    Every composite, the cover maps among them, is kept in
    ``_composites`` per slot as a tuple of positions (see the module
    docstring) keyed by the code pair of its arrow.  ``_values`` holds,
    per code and slot, the label list as built.  ``get_map`` turns a
    composite back into value dicts.
    """

    def __init__(self, poset, width, labels, maps, check=True):
        self.poset = poset
        self.width = width
        self.labels = {o: [list(s) for s in labels[o]] for o in poset.objects}
        self.maps = {e: [dict(d) for d in maps[e]] for e in poset.covers}
        up, down = poset._up_c, poset._down_c
        values = [[tuple(s) for s in ls] for ls in self.labels.values()]
        covers = list(zip(poset._covers_c, self.maps.values()))
        if check:
            self._check(values, covers)
        ranks = [[{v: p for p, v in enumerate(s)} for s in ls]
                 for ls in values]
        self._values = values
        # the cover maps out of each object, aligned with up
        step = [[] for _ in up]
        for (a, m), ds in covers:
            step[a].append([tuple(r[d[v]] for v in s)
                            for d, s, r in zip(ds, values[a], ranks[m])])
        self._composites = table = {}
        # smaller down-sets first: every cover target before its sources
        for a in sorted(range(len(up)), key=lambda c: len(down[c])):
            table[a, a] = ident = [tuple(range(len(s))) for s in values[a]]
            for b in down[a]:
                routes = ([tuple(map(r.__getitem__, d))
                           for r, d in zip(table[m, b], ds)]
                          for m, ds in zip(up[a], step[a]) if b in down[m])
                # only b == a has no route, and keeps its identity
                table[a, b] = first = next(routes, ident)
                if check and any(c != first for c in routes):
                    raise ValueError("diagram not functorial at %r -> %r"
                                     % (poset.objects[a], poset.objects[b]))

    def _check(self, values, covers):
        sets = [[set(s) for s in ls] for ls in values]
        for ls, ss in zip(values, sets):
            if len(ls) != self.width:
                raise ValueError("wrong number of label slots")
            if any(len(s) != len(t) for s, t in zip(ls, ss)):
                raise ValueError("label set repeats a value")
        for (a, b), ds in covers:
            for s in range(self.width):
                d = ds[s]
                if d.keys() != sets[a][s]:
                    raise ValueError("map not total on its label set")
                if not sets[b][s].issuperset(d.values()):
                    raise ValueError("map lands outside its target label set")

    def get_map(self, a, b):
        """The composite map along any cover path from a to b."""
        code = self.poset._code
        try:
            a, b = code[a], code[b]
            comps = self._composites[a, b]
        except KeyError:
            raise ValueError("no arrow between the given objects") from None
        return [dict(zip(src, map(tgt.__getitem__, c)))
                for src, tgt, c in zip(self._values[a], self._values[b],
                                       comps)]


def _slice_positions(F, ys, slot):
    """Families over the bottom slice with codes ys, compatible with all
    maps between its objects; returned as tuples of positions in slice
    order, sorted.  A slice holds every object under each of its
    objects."""
    down, table = F.poset._down_c, F._composites
    at = {y: p for p, y in enumerate(ys)}
    arrows = [[(at[z], table[y, z][slot].__getitem__)
               for z in down[y] if z != y]
              for y in ys]
    return compatible_families([range(len(F._values[y][slot])) for y in ys],
                               arrows)


def _slice_values(F, ys, slot):
    """``_slice_positions`` with each position replaced by its value."""
    values = [F._values[y][slot] for y in ys]
    return [tuple(v[p] for v, p in zip(values, fam))
            for fam in _slice_positions(F, ys, slot)]


def _slice_limit(F, objs, slot):
    """Families over the bottom slice objs under some x, compatible with
    all maps between its objects; returned as value tuples in slice
    order, sorted by their values' positions in the label lists."""
    code = F.poset._code
    return _slice_values(F, [code[y] for y in objs], slot)


def comparison_map(F, x, slot):
    """The canonical map from the label at x into its slice limit."""
    x = F.poset._code[x]
    ys = F.poset._slices_c[x]
    legs = [F._composites[x, y][slot] for y in ys]
    targets = [F._values[y][slot] for y in ys]
    return {e: tuple(t[q] for t, q in zip(targets, qs))
            for e, qs in zip(F._values[x][slot], zip(*legs))}


def is_cartesian(F):
    """True iff every comparison into the slice limit is a bijection.
    Returns (flag, witness); witness is (object, slot) on failure."""
    table = F._composites
    for x, ys in enumerate(F.poset._slices_c):
        for s in range(F.width):
            fams = _slice_positions(F, ys, s)
            image = set(zip(*[table[x, y][s] for y in ys]))
            if len(image) != len(F._values[x][s]) or image != set(fams):
                return False, (F.poset.objects[x], s)
    return True, None


def cartesian_replacement(F):
    """Rebuild every label as the limit over its bottom slice.

    Returns (G, comparison) where G is the replaced diagram (labels are
    value tuples in slice order) and comparison[x][slot] is the
    canonical map from F's label into G's.
    """
    poset = F.poset
    slices = poset._slices_c
    labels = [[_slice_values(F, ys, s) for s in range(F.width)]
              for ys in slices]
    new_maps = {}
    for (a, b), e in zip(poset._covers_c, poset.covers):
        sub = [slices[a].index(y) for y in slices[b]]
        new_maps[e] = [{fam: tuple(fam[i] for i in sub) for fam in fams}
                       for fams in labels[a]]
    G = GeneralizedSpanDiagram(poset, F.width,
                               dict(zip(poset.objects, labels)), new_maps)
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

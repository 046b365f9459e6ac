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
code pairs; slice limits are taken on these integers, and values are
looked up only for the results.  Only bottom slices go to the solver:
any other slice is the union of the slices of two covers, and its
families are the pairs of theirs that agree where the two meet; the
poset finds the pair, and where its slices meet, once per object.  A
slice limit is taken on its first read, so the cartesian check stops
at the first label that fails.

A composite is filled on its first read, so a diagram built unchecked
composes only the pairs that are read (replacement and the cartesian
check read the pairs that end at a bottom object).  With ``check`` on,
the constructor builds and checks every composite.  Cartesian
replacement builds its result unchecked: each label is a limit and each
map restricts families, so the result is a functor by construction.
Its comparison maps are built on first read.  The gamma and delta
actions build theirs unchecked too: their maps are products or
reindexings of the input's composites, so they compose as those do.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter

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
        apex = set(self.apex)
        for leg, d in ((self.left_map, lm), (self.right_map, rm)):
            # one pair per apex element, and none for another point
            if len(d) != len(leg) or not apex.issuperset(d):
                raise ValueError("span leg is not a function on the apex")
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
        raise ValueError("spans not composable: middle feet differ "
                         "(%r vs %r)" % (s1.right_foot, s2.left_foot))
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
        self._joins = {}

    def leq(self, a, b):
        code = self._code
        return code[b] in self._down_c[code[a]]

    def is_bottom(self, obj):
        return all(_is_small(f, x) for f, x in zip(self.factors, obj))

    def bottom(self):
        return [o for o in self.objects if self.is_bottom(o)]


# ---------------------------------------------------------------------------
# generalized span diagrams
# ---------------------------------------------------------------------------

class _Composites(dict):
    """The composite of every pair a >= b of object codes, per slot a
    tuple of target positions, composed on first read along the first
    cover step a -> m above b.  A pair that is not an arrow raises
    ``KeyError``."""

    def __init__(self, poset, values, step):
        self.up, self.down = poset._up_c, poset._down_c
        self._values, self.step = values, step

    def routes(self, a, b):
        """The composite a -> b along each cover step out of a above b,
        in the order of ``_up_c``; for b == a, the identity alone."""
        if b == a:
            yield [tuple(range(len(s))) for s in self._values[a]]
            return
        for m, ds in zip(self.up[a], self.step[a]):
            if b in self.down[m]:
                yield [tuple(map(r.__getitem__, d))
                       for r, d in zip(self[m, b], ds)]

    def __missing__(self, key):
        a, b = key
        if b not in self.down[a]:
            raise KeyError(key)
        c = self[key] = next(self.routes(a, b))
        return c


class GeneralizedSpanDiagram:
    """A width-t labelling of a product poset by finite sets and maps.

    ``labels[obj]`` is a list of t label sets (lists); ``maps[(a, b)]``,
    for each covering arrow a -> b, is a list of t dicts.  The composite
    for a pair a >= b is built once, on its first read, along the first
    cover step a -> m above b.  With ``check`` on, the constructor builds
    every composite, smaller down-sets first, and every other first step
    must give the same composite (functoriality).

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
        values = [[tuple(s) for s in ls] for ls in self.labels.values()]
        covers = list(zip(poset._covers_c, self.maps.values()))
        if check:
            self._check(values, covers)
        ranks = [[{v: p for p, v in enumerate(s)} for s in ls]
                 for ls in values]
        self._values = values
        # the cover maps out of each object, aligned with _up_c
        step = [[] for _ in values]
        for (a, m), ds in covers:
            step[a].append([tuple(r[d[v]] for v in s)
                            for d, s, r in zip(ds, values[a], ranks[m])])
        self._composites = table = _Composites(poset, values, step)
        if not check:
            return
        down = poset._down_c
        # smaller down-sets first: every cover target before its sources
        for a in sorted(range(len(values)), key=lambda c: len(down[c])):
            for b in down[a]:
                routes = table.routes(a, b)
                table[a, b] = first = next(routes)
                if any(c != first for c in routes):
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
    arrows = [[(at[z], table[y, z][slot]) for z in down[y] if z != y]
              for y in ys]
    return compatible_families([len(F._values[y][slot]) for y in ys],
                               arrows)


def _slice_join(poset, x):
    """How x's slice limit is taken: None for a bottom slice, which goes
    to the solver, else (m1, m2, key1, key2, pick) for the first two
    covers m1, m2 of x (two faces, or two co-singletons, in one factor)
    whose slices make up x's.  key1 and key2 are the positions, in the
    slices of m1 and m2, of the objects the two share, and pick puts a
    family of m1 followed by one of m2 in x's slice order.  Slices are
    down-closed, so every arrow lies in one of the two."""
    slices = poset._slices_c
    ys = slices[x]
    # a bottom slice holds x itself, which no cover's slice does
    pair = next(((m1, m2) for m1, m2
                 in itertools.combinations(poset._up_c[x], 2)
                 if len({*slices[m1], *slices[m2]}) == len(ys)), None)
    if pair is None:
        return None
    at1, at2 = ({y: p for p, y in enumerate(slices[m])} for m in pair)
    key1, key2 = ([at[y] for y in at2 if y in at1] for at in (at1, at2))
    # x's slice holds two objects or more, so pick returns a tuple
    pick = itemgetter(*[at1[y] if y in at1 else len(at1) + at2[y]
                        for y in ys])
    return (*pair, key1, key2, pick)


class _SliceLimits(dict):
    """``_slice_positions`` of each object's slice for one slot, keyed
    by code and filled on first read: the solver's on a bottom slice,
    else the pairs of the families of two covers that agree where their
    slices meet, as ``_slice_join`` finds them once per poset and
    object (kept in the poset's ``_joins``)."""

    def __init__(self, F, slot):
        self.F, self.slot = F, slot

    def __missing__(self, x):
        poset = self.F.poset
        joins = poset._joins
        if x not in joins:
            joins[x] = _slice_join(poset, x)
        join = joins[x]
        if join is None:
            fams = self[x] = _slice_positions(self.F, poset._slices_c[x],
                                              self.slot)
            return fams
        m1, m2, key1, key2, pick = join
        index = {}
        for f2 in self[m2]:
            index.setdefault(tuple(map(f2.__getitem__, key2)), []).append(f2)
        fams = self[x] = sorted(
            pick(f1 + f2) for f1 in self[m1]
            for f2 in index.get(tuple(map(f1.__getitem__, key1)), ()))
        return fams


def comparison_map(F, x, slot):
    """The canonical map from the label at x into its slice limit."""
    x = F.poset._code[x]
    ys = F.poset._slices_c[x]
    legs = [F._composites[x, y][slot] for y in ys]
    targets = [F._values[y][slot] for y in ys]
    return {e: tuple(t[q] for t, q in zip(targets, qs))
            for e, qs in zip(F._values[x][slot], zip(*legs))}


class _Comparison(Mapping):
    """``comparison[x][slot]`` is ``comparison_map(F, x, slot)``; the
    list for x is built on its first read and kept."""

    def __init__(self, F):
        self._F, self._maps = F, {}

    def __getitem__(self, x):
        if x not in self._maps:
            F = self._F
            self._maps[x] = [comparison_map(F, x, s) for s in range(F.width)]
        return self._maps[x]

    def __iter__(self):
        return iter(self._F.poset.objects)

    def __len__(self):
        return len(self._F.poset.objects)

    def __contains__(self, x):
        return x in self._F.poset._code


def is_cartesian(F):
    """True iff every comparison into the slice limit is a bijection.
    Returns (flag, witness); witness is (object, slot) on failure."""
    table = F._composites
    limits = [_SliceLimits(F, s) for s in range(F.width)]
    for x, ys in enumerate(F.poset._slices_c):
        for s, fams in enumerate(limits):
            image = set(zip(*[table[x, y][s] for y in ys]))
            if len(image) != len(F._values[x][s]) or image != set(fams[x]):
                return False, (F.poset.objects[x], s)
    return True, None


def cartesian_replacement(F):
    """Rebuild every label as the limit over its bottom slice.

    Returns (G, comparison) where G is the replaced diagram (labels are
    value tuples in slice order) and comparison[x][slot] is the
    canonical map from F's label into G's; comparison maps are built on
    first read.  G is built unchecked (see the module docstring), so
    F's labels must not repeat a value.
    """
    poset = F.poset
    slices = poset._slices_c
    limits = [_SliceLimits(F, s) for s in range(F.width)]
    labels = []
    for x, ys in enumerate(slices):
        per_slot = zip(limits, zip(*[F._values[y] for y in ys]))
        labels.append([[tuple(map(tuple.__getitem__, values, fam))
                         for fam in fams[x]] for fams, values in per_slot])
    new_maps = {}
    for (a, b), e in zip(poset._covers_c, poset.covers):
        sub = [slices[a].index(y) for y in slices[b]]
        new_maps[e] = [{fam: tuple(map(fam.__getitem__, sub)) for fam in fams}
                       for fams in labels[a]]
    G = GeneralizedSpanDiagram(poset, F.width,
                               dict(zip(poset.objects, labels)), new_maps,
                               check=False)
    return G, _Comparison(F)


# ---------------------------------------------------------------------------
# the three reindexing actions
# ---------------------------------------------------------------------------

def gamma_act(psi, F):
    """Pointed-map action on tuple slots: slot j of the result is the
    product of the slots in the preimage of j (singleton if empty).
    The result is built unchecked: its maps act slot by slot as F's
    do, so it is a functor as F is."""
    if psi.source_size != F.width:
        raise ValueError("width mismatch")
    pre = psi.preimages()
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
    return GeneralizedSpanDiagram(F.poset, psi.target_size, labels, maps,
                                  check=False)


def delta_act(F, factor_index, alpha):
    """Reindex one poset factor along a monotone map alpha.

    For an interval (sigma) factor this is a pure reindex along the
    interval pushforward; for a subset (theta) factor the reindex along
    the image pushforward is followed by cartesian replacement (the
    reindex alone can break cartesianness on collapsed faces).  The
    reindex is built unchecked: its maps are F's composites along the
    pushed-forward arrows, so it is a functor as F is.
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
    G = GeneralizedSpanDiagram(new, F.width, labels, maps, check=False)
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
        pre = psi.preimages()
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
            # F is not checked, nor is its replacement
            if any(len(set(s)) != len(s) for s in labels[x]):
                raise ValueError("label set repeats a value")
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

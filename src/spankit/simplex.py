"""Combinatorics of the simplex and pointed-set index categories.

Monotone maps between finite ordinals [n] = {0, ..., n}, pointed maps
between finite pointed sets <t> = {*, 1, ..., t}, the poset of inert
interval inclusions into [n] (a pyramid of intervals) and the poset of
nonempty subsets of {0..n}, together with the pushforward actions, the
face-map formulas for the categories of elements, the underlying-monoid
map from ordinals to pointed sets, and smash products.

Basepoints are encoded as 0, so a pointed map <t> -> <s> is a tuple of
t values in {0, 1, ..., s} with 0 meaning "sent to the basepoint".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# monotone maps (the category of finite ordinals)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneMap:
    """A weakly monotone map [source_size] -> [target_size].

    ``values[i]`` is the image of i; the object [n] has n+1 elements.
    """

    source_size: int
    target_size: int
    values: tuple

    def __post_init__(self):
        if self.source_size < 0 or self.target_size < 0:
            raise ValueError("negative ordinal size")
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.source_size + 1:
            raise ValueError("wrong number of values")
        for i, v in enumerate(vals):
            if not 0 <= v <= self.target_size:
                raise ValueError("value out of range")
            if i > 0 and v < vals[i - 1]:
                raise ValueError("not monotone")

    def __call__(self, i):
        return self.values[i]

    @property
    def is_inert(self):
        return all(v == self.values[0] + i for i, v in enumerate(self.values))

    @staticmethod
    def identity(n):
        return MonotoneMap(n, n, tuple(range(n + 1)))

    @staticmethod
    def inert(offset, length, target_size):
        """The interval inclusion [length] -> [target_size] starting at offset."""
        return MonotoneMap(length, target_size,
                           tuple(offset + i for i in range(length + 1)))

    @staticmethod
    def segal_rho(i, n):
        """rho_i : [1] -> [n] hitting {i, i+1}."""
        return MonotoneMap(1, n, (i, i + 1))

    def compose(self, other):
        """self after other."""
        if other.target_size != self.source_size:
            raise ValueError("not composable")
        return MonotoneMap(other.source_size, self.target_size,
                           tuple(self.values[v] for v in other.values))


def all_monotone_maps(m, n):
    """All monotone maps [m] -> [n]."""
    out = []
    for vals in itertools.combinations_with_replacement(range(n + 1), m + 1):
        out.append(MonotoneMap(m, n, vals))
    return out


# ---------------------------------------------------------------------------
# pointed maps (the opposite category of finite pointed sets)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointedMap:
    """A pointed map <source_size> -> <target_size>, basepoint encoded as 0.

    ``values[k-1]`` is the image of k for k = 1..source_size.
    """

    source_size: int
    target_size: int
    values: tuple

    def __post_init__(self):
        if self.source_size < 0 or self.target_size < 0:
            raise ValueError("negative pointed-set size")
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.source_size:
            raise ValueError("wrong number of values")
        for v in vals:
            if not 0 <= v <= self.target_size:
                raise ValueError("value out of range")

    def __call__(self, k):
        if k == 0:
            return 0
        return self.values[k - 1]

    def preimages(self):
        """For j = 1..target_size, the k >= 1 with self(k) == j, ascending."""
        return [[k for k, i in enumerate(self.values, 1) if i == j]
                for j in range(1, self.target_size + 1)]

    @property
    def is_inert(self):
        hit = [v for v in self.values if v != 0]
        return len(hit) == len(set(hit))

    @property
    def is_segal(self):
        """A Segal map <n> -> <1>: exactly one element goes to 1."""
        return self.target_size == 1 and self.values.count(1) == 1

    @staticmethod
    def identity(n):
        return PointedMap(n, n, tuple(range(1, n + 1)))

    @staticmethod
    def segal_tau(i, n):
        """tau_i : <n> -> <1> sending i to 1 and everything else to *."""
        if not 1 <= i <= n:
            raise ValueError("segal index out of range")
        return PointedMap(n, 1, tuple(1 if k == i else 0 for k in range(1, n + 1)))

    def compose(self, other):
        if other.target_size != self.source_size:
            raise ValueError("not composable")
        return PointedMap(other.source_size, self.target_size,
                          tuple(self(v) for v in other.values))

    def smash(self, other):
        """Smash product self ∧ other : <m·k> -> <m'·k'>.

        The element (a, b) of <m> ∧ <k> is encoded as (b-1)·m + a.
        """
        m, k = self.source_size, other.source_size
        mp, kp = self.target_size, other.target_size
        vals = []
        for w in range(1, m * k + 1):
            a = (w - 1) % m + 1
            b = (w - 1) // m + 1
            ia, ib = self(a), other(b)
            vals.append(0 if ia == 0 or ib == 0 else (ib - 1) * mp + ia)
        return PointedMap(m * k, mp * kp, tuple(vals))

    def wedge(self, other):
        """Wedge sum self ∨ other : <m+k> -> <m'+k'> (block sum)."""
        vals = list(self.values)
        for v in other.values:
            vals.append(0 if v == 0 else self.target_size + v)
        return PointedMap(self.source_size + other.source_size,
                          self.target_size + other.target_size, tuple(vals))


def underlying_monoid(phi):
    """u(phi) : <target> -> <source> for a monotone map phi.

    Sends k to the least j with phi(j) >= k, i.e. the unique j with
    phi(j-1) < k <= phi(j); if there is none, or if the least such j
    is 0 (k <= phi(0)), the image is the basepoint.  This is the cut
    rule; it agrees with "least preimage of k" whenever k lies in the
    image, and unlike the literal least-preimage rule it is functorial
    in phi.
    """
    vals = []
    for k in range(1, phi.target_size + 1):
        pre = [j for j in range(phi.source_size + 1) if phi(j) >= k]
        vals.append(min(pre) if pre else 0)
    return PointedMap(phi.target_size, phi.source_size, tuple(vals))


def smash_segal(k, tau):
    """kappa_i = tau_i ∧ id_<k> : <n·k> -> <k> for a Segal map tau_i."""
    if not tau.is_segal:
        raise ValueError("expected a Segal map <n> -> <1>")
    return tau.smash(PointedMap.identity(k))


# ---------------------------------------------------------------------------
# the interval pyramid and the subset poset
# ---------------------------------------------------------------------------

class SpanPoset:
    """The poset of inert (interval) inclusions into [n].

    Arrows go from an interval to each of its subintervals (restriction).
    Objects are ordered by (length, offset); objects of length <= 1 form
    the generating bottom layer (lambda_flags).
    """

    def __init__(self, level):
        if level < 0:
            raise ValueError("negative level")
        self.level = level
        self.objects = []
        index = {}
        for i in range(level + 1):           # source size
            for o in range(level - i + 1):   # offset
                m = MonotoneMap.inert(o, i, level)
                index[(i, o)] = len(self.objects)
                self.objects.append(m)
        self.lambda_flags = [m.source_size <= 1 for m in self.objects]
        self.hasse_edges = []
        for idx, m in enumerate(self.objects):
            i, o = m.source_size, m.values[0]
            if i >= 1:
                self.hasse_edges.append((idx, index[(i - 1, o)]))
                self.hasse_edges.append((idx, index[(i - 1, o + 1)]))

    def leq(self, a, b):
        """True iff there is an arrow a -> b (b is a subinterval of a)."""
        return (b.values[0] >= a.values[0]
                and b.values[-1] <= a.values[-1])

    def __len__(self):
        return len(self.objects)


class SubsetPoset:
    """The poset of nonempty subsets of {0..n}, arrows from S to its subsets.

    Objects are sorted tuples in lexicographic order; singletons form the
    generating bottom layer (xi_flags).
    """

    def __init__(self, level):
        if level < 0:
            raise ValueError("negative level")
        self.level = level
        objs = []
        for r in range(1, level + 2):
            objs.extend(itertools.combinations(range(level + 1), r))
        objs.sort()
        self.objects = objs
        self.xi_flags = [len(s) == 1 for s in objs]
        self.order = [(i, j) for i, s in enumerate(objs) for j, t in enumerate(objs)
                      if i != j and set(t) < set(s)]
        self.hasse_edges = [(i, j) for (i, j) in self.order
                            if len(objs[i]) == len(objs[j]) + 1]

    def leq(self, a, b):
        """True iff there is an arrow a -> b (b a subset of a)."""
        return set(b) <= set(a)

    def __len__(self):
        return len(self.objects)


def build_sigma(n):
    return SpanPoset(n)


def build_theta(n):
    return SubsetPoset(n)


# ---------------------------------------------------------------------------
# pushforwards
# ---------------------------------------------------------------------------

def push_sigma(alpha, phi):
    """Pushforward of an inert phi into [m] along alpha : [m] -> [n].

    The result is the inert map with offset alpha(phi(0)) and length
    alpha(phi(i)) - alpha(phi(0)).
    """
    if not phi.is_inert:
        raise ValueError("phi must be inert")
    if phi.target_size != alpha.source_size:
        raise ValueError("size mismatch")
    start = alpha(phi(0))
    end = alpha(phi(phi.source_size))
    return MonotoneMap.inert(start, end - start, alpha.target_size)


def push_theta(alpha, s):
    """Set image of the subset tuple s along alpha, repeats removed."""
    for x in s:
        if not 0 <= x <= alpha.source_size:
            raise ValueError("subset entry out of range")
    return tuple(sorted({alpha(x) for x in s}))


# ---------------------------------------------------------------------------
# categories of elements and face maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementsArrow:
    """A morphism ([m], fiber_source) -> ([n], fiber_target).

    ``base_map`` is the backwards component alpha : [n] -> [m]; the arrow
    is valid when the pushforward of fiber_target along alpha is below
    fiber_source in the level-m poset.
    """

    direction: str       # "sigma" or "theta"
    base_map: MonotoneMap
    fiber_source: object  # inert MonotoneMap (sigma) or subset tuple (theta)
    fiber_target: object


def face_map(direction, base, fiber_arrow):
    """The monotone map induced on fibers by an ElementsArrow.

    For intervals: r -> alpha(psi(r)) - phi(0).  For subsets: r -> the
    largest s with phi_s <= alpha(psi_r), indexing the sorted tuples.

    The formula is evaluated whenever it defines a monotone map;
    functoriality is only guaranteed on valid arrows.
    """
    if fiber_arrow.direction != direction or fiber_arrow.base_map != base:
        raise ValueError("inconsistent arrow data")
    alpha = base
    if direction == "sigma":
        phi, psi = fiber_arrow.fiber_source, fiber_arrow.fiber_target
        vals = tuple(alpha(psi(r)) - phi(0) for r in range(psi.source_size + 1))
        return MonotoneMap(psi.source_size, phi.source_size, vals)
    phi = tuple(fiber_arrow.fiber_source)
    psi = tuple(fiber_arrow.fiber_target)
    vals = []
    for r in range(len(psi)):
        cands = [s for s in range(len(phi)) if phi[s] <= alpha(psi[r])]
        if not cands:
            raise ValueError("face-map formula undefined (no element below)")
        vals.append(max(cands))
    return MonotoneMap(len(psi) - 1, len(phi) - 1, tuple(vals))

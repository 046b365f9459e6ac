"""The in-process workloads: seeded job lists over spankit's public API,
each job with an output check.

A job is one call (or a short fixed sequence of calls) into spankit.  The
benchmark times ``run`` alone; ``check`` runs afterwards, untimed and
untraced, and compares the output with an independent oracle where one
exists (a closed form, a brute-force count, a matrix identity) and with
the count recorded at the seed commit otherwise.

Every job carries a ``spec``: its parameters and its own sub-seed, from
which its inputs are regenerated.  The same workload seed therefore gives
the same job list, and ``benchstats.job_digest`` over the specs proves it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from spankit import crw, fincat, pathnerve as pn, pushpull as pp, ratlin
from spankit import spans as sp
from spankit.fincat import Diagram, FinCategory, FinFunctor
from spankit.pushpull import FamilyMap, VectorFamily
from spankit.simplex import MonotoneMap, PointedMap

# Output counts recorded at the seed commit for jobs without a closed form.
SEED_COUNTS = {
    "nondegenerate_table": {2: 9, 3: 33, 4: 151, 5: 851},
    "labelled_limit_full": {"Z/2": 32, "subsets(1)": 54},
}


class Job:
    __slots__ = ("name", "layer", "spec", "run", "check")

    def __init__(self, name, layer, spec, run, check):
        self.name, self.layer, self.spec = name, layer, spec
        self.run, self.check = run, check


def _sub_rng(spec):
    return random.Random(spec["seed"])


def _new_spec(rng, name, **params):
    return {"name": name, "params": params, "seed": rng.getrandbits(48)}


def _expect(ok, count, detail):
    return (bool(ok), count, None if ok else detail)


# ---------------------------------------------------------------------------
# shared random builders and oracles
# ---------------------------------------------------------------------------

def poset_catalogue(max_objects):
    """One strict order relation (a set of pairs i < j) per isomorphism
    class of posets on 1..max_objects objects: 1, 2, 5 and 16 classes."""
    out = []
    for n in range(1, max_objects + 1):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for mask in range(1 << len(pairs)):
            rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
            if any((j, i) in rel for (i, j) in rel):
                continue
            if any((i, k) not in rel for (i, j) in rel for (j2, k) in rel
                   if j == j2):
                continue
            key = min(tuple(sorted((p[i], p[j]) for i, j in rel))
                      for p in perms)
            if key not in seen:
                seen.add(key)
                out.append((n, key))
    return out


def relabelled_poset(rng, n, rel):
    """The poset category of ``rel`` with its objects renumbered by a
    seeded permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    leq = {(perm[i], perm[j]) for i, j in rel}
    return FinCategory.from_poset(n, lambda i, j: i == j or (i, j) in leq)


def cyclic_monoid(k):
    return FinCategory.from_monoid(
        [[(i + j) % k for j in range(k)] for i in range(k)], 0)


def random_poset_category(rng, n):
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


def square_fiber_product(X):
    """Direct count of the level-2 labelled limit: triangles and squares
    glued along the composite edge, keeping squares whose two vertical
    corner restrictions agree."""
    long_edge = MonotoneMap(1, 2, (0, 2))
    id1 = MonotoneMap.identity(1)
    id0 = MonotoneMap.identity(0)
    top = MonotoneMap(0, 1, (1,))
    bottom = MonotoneMap(0, 1, (0,))
    squares = [y for y in X.values(1, 1)
               if all(X.act(side, top, y) == X.act(side, bottom, y)
                      for side in (bottom, top))]
    tops = {}
    for y in squares:
        key = X.act(id1, top, y)
        tops[key] = tops.get(key, 0) + 1
    return sum(tops.get(X.act(long_edge, id0, x), 0) for x in X.values(2, 0))


def _q_examples():
    return {
        "Z/2": pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0),
        "Z/3": pn.FinSymMonCat.from_commutative_monoid(
            [[(i + j) % 3 for j in range(3)] for i in range(3)], 0),
        "subsets(1)": pn.FinSymMonCat.subsets_under_union(1),
    }


# ---------------------------------------------------------------------------
# nerve: path-category nerves, grid objects, labelled limits
# ---------------------------------------------------------------------------

def _path_job(spec):
    l = spec["params"]["level"]

    def check(cat):
        sizes = [(i, j, len(cat.hom(i, j)))
                 for i in range(l + 1) for j in range(i + 1, l + 1)]
        ok = all(n == 2 ** (j - i - 1) for i, j, n in sizes)
        return _expect(ok, sum(n for _, _, n in sizes),
                       "a hom size differs from 2^(j-i-1)")
    return Job("build_path(%d)" % l, "pathnerve", spec,
               lambda: pn.build_path(l), check)


def _ndt_job(spec):
    l = spec["params"]["level"]

    def check(table):
        total = sum(len(c) for c in table.values())
        if any(cells for (u, v), cells in table.items() if u + v > l):
            return False, total, "nondegenerate cells above the level"
        if l == 2:
            c = {k: len(v) for k, v in table.items()}
            got = (c[(0, 0)], c[(1, 0)], c[(2, 0)], c[(1, 1)], c[(0, 1)])
            if got != (3, 4, 1, 1, 0):
                return False, total, "level-2 counts %r" % (got,)
        want = SEED_COUNTS["nondegenerate_table"][l]
        return _expect(total == want, total,
                       "%d cells, seed commit had %d" % (total, want))
    return Job("nondegenerate_table(%d)" % l, "pathnerve", spec,
               lambda: pn.nondegenerate_table(l, bound=l), check)


def _labelled_limit_job(spec):
    p = spec["params"]
    if "monoid" in p:
        cat = cyclic_monoid(p["monoid"])
    else:
        cat = relabelled_poset(_sub_rng(spec), p["objects"],
                               [tuple(r) for r in p["order"]])
    holder = {}

    def run():
        X = holder["X"] = pn.SquareOfNerve(cat)
        return [len(pn.labelled_limit(X, l)) for l in range(3)]

    def check(sizes):
        X = holder["X"]
        want = [len(X.values(0, 0)), len(X.values(1, 0)),
                square_fiber_product(X)]
        return _expect(sizes == want, sum(sizes),
                       "labelled limits %r, closed forms %r" % (sizes, want))
    shape = ("Z/%d" % p["monoid"] if "monoid" in p
             else "poset %d:%d" % (p["objects"], len(p["order"])))
    return Job("labelled_limit(SquareOfNerve(%s), l<=2)" % shape,
               "pathnerve", spec, run, check)


def _build_cq_job(spec):
    qname, l = spec["params"]["Q"], spec["params"]["level"]
    Q = _q_examples()[qname]

    def check(out):
        n = len(out)
        if l == 0:
            want = 1
        elif l == 1:
            want = len(pn.qpow(Q, 1, 1))
        else:
            want = square_fiber_product(pn.TensorGridObject(Q, 1, 1))
        return _expect(n == want, n, "%d elements, oracle %d" % (n, want))
    return Job("build_cq(%s,1,1,1,%d)" % (qname, l), "pathnerve", spec,
               lambda: pn.build_cq(Q, 1, 1, 1, l), check)


def _labelled_limit_full_job(spec):
    qname = spec["params"]["Q"]
    Q = _q_examples()[qname]

    def check(out):
        want = SEED_COUNTS["labelled_limit_full"][qname]
        return _expect(len(out) == want, len(out),
                       "%d elements, seed commit had %d" % (len(out), want))
    return Job("labelled_limit_full(TensorGridObject(%s,1,1),2,1,1)" % qname,
               "pathnerve", spec,
               lambda: pn.labelled_limit_full(
                   pn.TensorGridObject(Q, 1, 1), 2, 1, 1), check)


NERVE_POSET_OBJECTS = 4
NERVE_MONOIDS = (2, 3, 4)


def nerve_jobs(rng):
    jobs = [_path_job(_new_spec(rng, "path", level=5))]
    jobs += [_ndt_job(_new_spec(rng, "ndt", level=l)) for l in range(2, 6)]
    # every poset on at most four objects up to isomorphism, relabelled by
    # the seed, and the cyclic monoids: the seed changes the inputs but not
    # the amount of work, which a random sample of categories would
    jobs += [_labelled_limit_job(_new_spec(rng, "labelled_limit", objects=n,
                                           order=[list(r) for r in rel]))
             for n, rel in poset_catalogue(NERVE_POSET_OBJECTS)]
    jobs += [_labelled_limit_job(_new_spec(rng, "labelled_limit", monoid=k))
             for k in NERVE_MONOIDS]
    jobs += [_build_cq_job(_new_spec(rng, "build_cq", Q=q, level=l))
             for q in ("Z/2", "Z/3", "subsets(1)") for l in range(3)]
    jobs += [_labelled_limit_full_job(_new_spec(rng, "llf", Q=q))
             for q in ("Z/2", "subsets(1)")]
    return jobs


# ---------------------------------------------------------------------------
# linear: exact elimination on large and tiny matrices
# ---------------------------------------------------------------------------

def _matmul(a, b):
    """Plain matrix product, independent of ``ratlin``."""
    cols = list(zip(*b)) if b else []
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _scaled(rng, a):
    """Rows and columns permuted and each row divided by a small integer:
    the rank is unchanged and the entries become proper fractions."""
    rows = [tuple(Fraction(x, d) for x in row)
            for row, d in zip(a, (rng.randint(1, 3) for _ in a))]
    rng.shuffle(rows)
    perm = list(range(len(rows[0]))) if rows else []
    rng.shuffle(perm)
    return tuple(tuple(row[j] for j in perm) for row in rows)


def _low_rank(rng, n, r):
    """A dense n x n matrix of rank exactly r: [I; X] [I | Y] (the r x r
    identity block survives), then scaled and permuted."""
    left = _identity(r) + tuple(tuple(rng.randint(-9, 9) for _ in range(r))
                                for _ in range(n - r))
    right = tuple(row + tuple(rng.randint(-9, 9) for _ in range(n - r))
                  for row in _identity(r))
    return _scaled(rng, _matmul(left, right))


def _invertible(rng, n):
    """A dense invertible matrix: unit lower times upper triangular with
    a non-zero diagonal, then scaled and permuted."""
    lower = tuple(tuple(1 if i == j else rng.randint(-4, 4) if j < i else 0
                        for j in range(n)) for i in range(n))
    upper = tuple(tuple(rng.choice((-2, -1, 1, 2)) if i == j else
                        rng.randint(-4, 4) if j > i else 0
                        for j in range(n)) for i in range(n))
    return _scaled(rng, _matmul(lower, upper))


def _ratlin_job(spec):
    op, n = spec["params"]["op"], spec["params"]["n"]
    rng = _sub_rng(spec)
    r = (3 * n) // 4
    name = "ratlin.%s(n=%d)" % (op, n)
    if op in ("rank", "nullspace"):
        a = _low_rank(rng, n, r)
    else:
        a = _invertible(rng, n)
    if op == "rank":
        return Job(name, "ratlin", spec, lambda: ratlin.rank(a),
                   lambda got: _expect(got == r, got,
                                       "rank %d, built with %d" % (got, r)))
    if op == "nullspace":
        def check(ns):
            k = len(ns[0]) if ns else 0
            ok = k == n - r and all(
                x == 0 for row in _matmul(a, ns) for x in row)
            return _expect(ok, k, "A.N != 0 or nullity %d != %d" % (k, n - r))
        return Job(name, "ratlin", spec, lambda: ratlin.nullspace(a), check)
    if op == "inverse":
        def check(inv):
            ok = _matmul(a, inv) == _identity(n)
            return _expect(ok, n, "A.inverse(A) != I")
        return Job(name, "ratlin", spec, lambda: ratlin.inverse(a), check)
    b = tuple((Fraction(rng.randint(-9, 9), rng.randint(1, 3)),)
              for _ in range(n))

    def check(x):
        ok = x is not None and _matmul(a, x) == b
        return _expect(ok, n, "A.x != b")
    return Job(name, "ratlin", spec, lambda: ratlin.solve(a, b), check)


def _monomial_euler(algebra, w):
    """Sum over the monomials of weight w of (-1)^parity."""
    return sum(1 - 2 * crw.mono_parity(algebra.gens, m)
               for m in algebra.monomials_of_weight(w))


def _euler_check(algebra, table):
    for (w, e, o) in table:
        want = _monomial_euler(algebra, w)
        if e - o != want:
            return "Euler characteristic %d at weight %d, chains give %d" % (
                e - o, w, want)
    return None


def _intro_job(spec):
    n = spec["params"]["n"]
    holder = {}

    def run():
        _a, b, _report = crw.build_intro_algebras(n)
        holder["b"] = b
        return crw.cohomology(b, n + 2)

    def check(table):
        total = sum(e + o for (_w, e, o) in table)
        for (w, e, o) in table:
            if e != (1 if w < n else 0) or o != 0:
                return False, total, "weight %d: (%d, %d)" % (w, e, o)
        detail = _euler_check(holder["b"], table)
        return detail is None, total, detail
    return Job("crw.cohomology(intro %d)" % n, "crw", spec, run, check)


def _homogeneous_poly(rng, nvars, degree):
    monos = [m for m in itertools.product(range(degree + 1), repeat=nvars)
             if sum(m) == degree]
    poly = {}
    for m in rng.sample(monos, max(1, len(monos) // 2)):
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        poly[m] = c
    return poly


def _koszul_job(spec):
    p = spec["params"]
    gens = [crw.Generator("x%d" % i, 0, 1) for i in range(p["vars"])]
    if "equations" in p:
        eqs = [{tuple(m): Fraction(c) for m, c in eq} for eq in p["equations"]]
    else:
        rng = _sub_rng(spec)
        eqs = [_homogeneous_poly(rng, p["vars"], p["degree"])
               for _ in range(p["eqs"])]
    holder = {}

    def run():
        algebra = holder["a"] = crw.koszul_intersection(gens, [], eqs)
        return crw.cohomology(algebra, p["weight"])

    def check(table):
        detail = _euler_check(holder["a"], table)
        return detail is None, sum(e + o for (_w, e, o) in table), detail
    return Job("crw.koszul(%d vars, %d eqs, weight %d)"
               % (p["vars"], p["eqs"], p["weight"]), "crw", spec, run, check)


def _fixed_spine(vertices, dims):
    spine = {}
    it = iter(dims)
    for a in range(len(vertices) - 1):
        base = tuple((x, y) for x in vertices[a] for y in vertices[a + 1])
        fixed = {t: next(it) for t in base}
        spine[a] = [VectorFamily.build(base, fixed.__getitem__)]
    return spine


def _conjugated(rng, d):
    """A second filling over the same spine: the structure maps
    transported along random invertible maps of the non-spine systems."""
    spine_pairs = {(j, j + 1) for j in range(d.l)}
    psi = {}
    for pr in d._pairs():
        psi[pr] = []
        for i in range(d.club + 1):
            if pr in spine_pairs:
                psi[pr].append(FamilyMap.identity(d.r[pr][i]))
                continue

            def block(x, fam=d.r[pr][i]):
                return _invertible(rng, fam.dim(x)) if fam.dim(x) else ()
            psi[pr].append(FamilyMap.build(d.r[pr][i], d.r[pr][i], block))
    phi = {}
    for s in d._faces():
        pi = pp._proj(d.vertices, s, (s[0], s[-1]))
        phi[s] = []
        for i in range(d.club + 1):
            seg = None
            for j in range(len(s) - 1):
                piece = pp.pullback_map(
                    pp._proj(d.vertices, s, (s[j], s[j + 1])),
                    psi[(s[j], s[j + 1])][i])
                seg = piece if seg is None else pp.tensor_map(seg, piece)
            inv = psi[(s[0], s[-1])][i]
            long_inv = pp.pullback_map(pi, FamilyMap.build(
                inv.target, inv.source,
                lambda x, inv=inv: ratlin.inverse(inv.mat(x))))
            phi[s].append(seg.compose(d.phi[s][i]).compose(long_inv))
    return pp.PushPullThetaDiagram(d.vertices, d.club, d.r, d.vertical, phi)


def _filling_job(spec):
    l, dims = spec["params"]["l"], spec["params"]["dims"]
    rng = _sub_rng(spec)
    vertices = [("a", "b")[:1 + (a % 2)] for a in range(l + 1)]

    def run():
        d = pp.synthesize_filling(vertices, 0, _fixed_spine(vertices, dims))
        return pp.fillings_isomorphic(d, _conjugated(rng, d))
    return Job("fillings_isomorphic(l=%d)" % l, "pushpull", spec, run,
               lambda ok: _expect(ok is True, int(ok is True),
                                  "conjugated filling not isomorphic"))


LINEAR_RATLIN = ([(op, n) for n in (2, 3, 4, 5, 10, 20)
                  for op in ("rank", "solve", "inverse", "nullspace")]
                 + [("rank", 40), ("nullspace", 40)])
LINEAR_KOSZUL = [(3, 3, 2, 6), (3, 2, 2, 7), (2, 2, 2, 10)]
# Pairs of quadrics in x0, x1, x2 with fixed coefficients, intersected to
# weight 6.  These jobs sit at the 90th percentile of the workload, where a
# seeded coefficient draw would move job_p90_ms by 30% from seed to seed.
LINEAR_KOSZUL_FIXED = [
    [[[(2, 0, 0), 1], [(0, 2, 0), 1]], [[(0, 1, 1), 1]]],
    [[[(1, 1, 0), 1]], [[(0, 2, 0), 1], [(0, 0, 2), -1]]],
    [[[(2, 0, 0), 1], [(0, 1, 1), -1]], [[(1, 1, 0), 1], [(0, 0, 2), 1]]],
    [[[(1, 0, 1), 1]], [[(2, 0, 0), 1], [(0, 2, 0), 1], [(0, 0, 2), 1]]],
    [[[(0, 2, 0), 1]], [[(1, 0, 1), 1], [(0, 1, 1), -1]]],
    [[[(2, 0, 0), 1], [(0, 1, 1), 2]], [[(0, 2, 0), 1], [(1, 0, 1), -1]]],
]
# Spine dimensions are fixed: where the 2s sit changes the l=3 run time
# threefold, so the seed only draws the conjugating matrices.
LINEAR_FILLINGS = [(2, (1, 2, 1, 1))] * 3 + [(3, (1, 1, 2, 1, 1, 2))]


def linear_jobs(rng):
    jobs = [_ratlin_job(_new_spec(rng, "ratlin", op=op, n=n))
            for op, n in LINEAR_RATLIN]
    jobs += [_intro_job(_new_spec(rng, "intro", n=n)) for n in range(2, 13)]
    jobs += [_koszul_job(_new_spec(rng, "koszul", vars=v, eqs=e, degree=d,
                                   weight=w))
             for v, e, d, w in LINEAR_KOSZUL]
    jobs += [_koszul_job(_new_spec(rng, "koszul", vars=3, eqs=2, degree=2,
                                   weight=6, equations=eqs))
             for eqs in LINEAR_KOSZUL_FIXED]
    jobs += [_filling_job(_new_spec(rng, "filling", l=l, dims=list(dims),
                                    index=i))
             for i, (l, dims) in enumerate(LINEAR_FILLINGS)]
    return jobs


# ---------------------------------------------------------------------------
# spans: cartesian replacement, reindexing, limits, Kan extensions, ends
# ---------------------------------------------------------------------------

def random_bottom_data(rng, sigma_levels, theta_levels, width=1, labels=2):
    """Random maps between fixed-size label sets on the bottom layer of
    Sigma x Theta: the arguments of ``diagram_from_bottom``."""
    poset = sp.ProductPoset(sigma_levels, theta_levels)
    labels = {x: [["e%d" % i for i in range(labels)] for _ in range(width)]
              for x in poset.objects if poset.is_bottom(x)}
    maps = {(a, b): [{e: rng.choice(labels[b][s]) for e in labels[a][s]}
                     for s in range(width)]
            for (a, b) in poset.covers if poset.is_bottom(a)}
    return poset, width, labels, maps


def direct_value_count(F, k, x, slot):
    """Iterated pullback and product count of the cartesian value at
    x = (interval, subset) over SpanPoset(k) x SubsetPoset(l)."""
    phi, subset = x
    offset, length = phi.values[0], phi.source_size

    def slice_chains(s):
        if length == 0:
            return len(F.labels[(MonotoneMap.inert(offset, 0, k), (s,))][slot])
        edges = [(MonotoneMap.inert(j, 1, k), (s,))
                 for j in range(offset, offset + length)]
        total = 0
        for choice in itertools.product(*[F.labels[e][slot] for e in edges]):
            ok = True
            for j in range(1, length):
                vx = (MonotoneMap.inert(offset + j, 0, k), (s,))
                if (F.maps[(edges[j - 1], vx)][slot][choice[j - 1]]
                        != F.maps[(edges[j], vx)][slot][choice[j]]):
                    ok = False
                    break
            total += ok
        return total

    out = 1
    for s in subset:
        out *= slice_chains(s)
    return out


def _cartesian_job(spec):
    k, l = spec["params"]["k"], spec["params"]["l"]
    bottom = random_bottom_data(_sub_rng(spec), (k,), (l,))

    def run():
        G, _ = sp.cartesian_replacement(sp.diagram_from_bottom(*bottom))
        return G, sp.is_cartesian(G)

    def check(out):
        G, (ok, witness) = out
        total = sum(len(G.labels[x][0]) for x in G.poset.objects)
        if not ok:
            return False, total, "replacement not cartesian at %r" % (witness,)
        for x in G.poset.objects:
            if len(G.labels[x][0]) != direct_value_count(G, k, x, 0):
                return False, total, "value at %r differs from the direct " \
                    "iterated-pullback count" % (x,)
        return True, total, None
    return Job("cartesian_replacement(sigma %d x theta %d)" % (k, l), "spans",
               spec, run, check)


def _random_monotone(rng, m, n):
    return MonotoneMap(m, n, tuple(sorted(rng.randrange(n + 1)
                                          for _ in range(m + 1))))


def _random_pointed(rng, m, n):
    return PointedMap(m, n, tuple(rng.randrange(n + 1) for _ in range(m)))


def _reindex_job(spec):
    rng = _sub_rng(spec)
    bottom = random_bottom_data(rng, (2,), (), width=2)
    psi = _random_pointed(rng, 2, 2)
    alpha = _random_monotone(rng, 2, 2)

    def run():
        F = sp.diagram_from_bottom(*bottom)
        G = sp.gamma_act(psi, F)
        H = sp.delta_act(F, 0, alpha)
        return G, H, sp.is_cartesian(G), sp.is_cartesian(H)

    def check(out):
        G, H, (ok_g, _), (ok_h, _) = out
        total = sum(len(s) for D in (G, H) for x in D.poset.objects
                    for s in D.labels[x])
        return _expect(ok_g and ok_h, total, "reindexing broke cartesianness")
    return Job("gamma_act+delta_act", "spans", spec, run, check)


def _bipartite_diagram(rng, lows, highs, max_size):
    """A diagram on a poset of height one (arrows from each of ``lows``
    minimal objects to some of ``highs`` maximal ones): any maps on the
    arrows form a functor, since no two non-identity arrows compose."""
    n = lows + highs
    edges = {(a, b) for a in range(lows) for b in range(lows, n)
             if rng.random() < 0.6}
    for a in range(lows):
        edges.add((a, lows + rng.randrange(highs)))
    shape = FinCategory.from_poset(n, lambda a, b: a == b or (a, b) in edges)
    sets = [["x%d_%d" % (a, i) for i in range(max_size)] for a in range(n)]
    maps = [{x: x for x in sets[s]} if s == d else
            {x: rng.choice(sets[d]) for x in sets[s]}
            for (s, d) in shape.morphisms]
    return Diagram(shape, sets, maps)


def _limit_job(spec):
    p = spec["params"]
    D = _bipartite_diagram(_sub_rng(spec), p["lows"], p["highs"], p["size"])

    def check(res):
        got = sorted(res.apex)
        want = sorted(fincat.limit_bruteforce(D))
        return _expect(got == want, len(got),
                       "%d families, brute force %d" % (len(got), len(want)))
    return Job("fincat.limit(%d+%d objects)" % (p["lows"], p["highs"]),
               "fincat", spec, lambda: fincat.limit(D), check)


def chain_diagram(rng, n, max_size=3):
    shape = FinCategory.chain(n)
    sets = [["x%d_%d" % (a, i) for i in range(rng.randrange(1, max_size + 1))]
            for a in range(n + 1)]
    step = [{x: rng.choice(sets[a + 1]) for x in sets[a]} for a in range(n)]

    def arrow_map(s, d):
        out = {x: x for x in sets[s]}
        for a in range(s, d):
            out = {x: step[a][out[x]] for x in sets[s]}
        return out
    return Diagram(shape, sets, [arrow_map(s, d) for (s, d) in shape.morphisms])


def _monotone_functor(rng, chain, poset):
    n, m = chain.n_objects - 1, poset.n_objects
    while True:
        objs = sorted(rng.randrange(m) for _ in range(n + 1))
        if all(poset.hom(objs[i], objs[i + 1]) for i in range(n)):
            break
    return FinFunctor(chain, poset, objs,
                      [poset.hom(objs[s], objs[d])[0]
                       for (s, d) in chain.morphisms])


def _kan_job(spec):
    rng = _sub_rng(spec)
    chain = FinCategory.chain(spec["params"]["chain"])
    poset = random_poset_category(rng, spec["params"]["poset"])
    f = _monotone_functor(rng, chain, poset)
    g = chain_diagram(rng, chain.n_objects - 1)

    def run():
        return [len(fincat.right_kan(f, g, b)[0])
                for b in range(poset.n_objects)]

    def check(sizes):
        want = [len(fincat.right_kan_end_formula(f, g, b))
                for b in range(poset.n_objects)]
        return _expect(sizes == want, sum(sizes),
                       "comma limit %r, end formula %r" % (sizes, want))
    return Job("fincat.right_kan", "fincat", spec, run, check)


def _end_job(spec):
    rng = _sub_rng(spec)
    n = spec["params"]["chain"]
    f, g = chain_diagram(rng, n), chain_diagram(rng, n)

    def check(wedges):
        want = len(fincat.nat_transformations(f, g))
        return _expect(len(wedges) == want, len(wedges),
                       "%d wedges, %d natural transformations"
                       % (len(wedges), want))
    return Job("fincat.end(hom)", "fincat", spec,
               lambda: fincat.end(fincat.hom_bifunctor(f, g)), check)


def _random_span(rng, name, feet_l, feet_r, size):
    apex = tuple("%s%d" % (name, i) for i in range(size))
    return sp.Span(feet_l, apex, feet_r,
                   tuple((a, rng.choice(feet_l)) for a in apex),
                   tuple((a, rng.choice(feet_r)) for a in apex))


def _compose_spans_job(spec):
    rng = _sub_rng(spec)
    x, y, z = (tuple(range(rng.randrange(1, 4))) for _ in range(3))
    s1 = _random_span(rng, "a", x, y, rng.randrange(2, 7))
    s2 = _random_span(rng, "b", y, z, rng.randrange(2, 7))

    def check(out):
        want = sum(1 for a in s1.apex for b in s2.apex
                   if s1.right(a) == s2.left(b))
        return _expect(len(out.apex) == want, len(out.apex),
                       "apex %d, pullback count %d" % (len(out.apex), want))
    return Job("compose_spans", "spans", spec,
               lambda: sp.compose_spans(s1, s2), check)


def _vertical_job(spec):
    rng = _sub_rng(spec)
    pt = ("*",)
    l, m, n = (_random_span(rng, c, pt, pt, rng.randrange(1, 5))
               for c in "lmn")
    mm = pp.TwoMorphism.from_dims(l, m, lambda t: rng.randrange(0, 4))
    nn = pp.TwoMorphism.from_dims(m, n, lambda t: rng.randrange(0, 4))

    def check(out):
        dims = [[out.payload.dim((a, c)) for c in n.apex] for a in l.apex]
        want = [[sum(mm.payload.dim((a, b)) * nn.payload.dim((b, c))
                     for b in m.apex) for c in n.apex] for a in l.apex]
        return _expect(dims == want, sum(map(sum, dims)),
                       "dimensions differ from the matrix product")
    return Job("compose2_vertical", "pushpull", spec,
               lambda: pp.compose2_vertical(mm, nn), check)


SPANS_KAN, SPANS_END, SPANS_COMPOSE, SPANS_VERTICAL = 40, 12, 20, 20
SPANS_REINDEX = 8
SPANS_LIMITS = [(3, 2, 4), (4, 2, 3), (3, 3, 3), (4, 2, 4)] * 4


def spans_jobs(rng):
    jobs = [_cartesian_job(_new_spec(rng, "cartesian", k=k, l=l))
            for k in range(4) for l in range(4)]
    jobs += [_reindex_job(_new_spec(rng, "reindex", index=i))
             for i in range(SPANS_REINDEX)]
    jobs += [_limit_job(_new_spec(rng, "limit", lows=a, highs=b, size=s,
                                  index=i))
             for i, (a, b, s) in enumerate(SPANS_LIMITS)]
    jobs += [_kan_job(_new_spec(rng, "kan", chain=1 + i % 2, poset=2 + i % 3,
                                index=i)) for i in range(SPANS_KAN)]
    jobs += [_end_job(_new_spec(rng, "end", chain=1 + i % 2, index=i))
             for i in range(SPANS_END)]
    jobs += [_compose_spans_job(_new_spec(rng, "compose_spans", index=i))
             for i in range(SPANS_COMPOSE)]
    jobs += [_vertical_job(_new_spec(rng, "vertical", index=i))
             for i in range(SPANS_VERTICAL)]
    return jobs


BUILDERS = {"nerve": nerve_jobs, "linear": linear_jobs, "spans": spans_jobs}


def build(workload, seed):
    """The seeded job list of an in-process workload, in a seeded order."""
    rng = random.Random("%s/%d" % (workload, seed))
    jobs = BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs

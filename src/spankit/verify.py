"""Property suites behind the ``verify`` command.

Each suite is an ordered list of named checks.  A check takes a seeded
random generator and a size bound and returns ``None`` on success or a
string describing the counterexample.  Output order is the declaration
order, so reports are reproducible for a fixed (seed, bound).

Each check imports the spankit modules it calls, so a run of one suite
loads only what that suite needs: ``verify crw`` loads ``crw`` and
``ratlin`` alone.
"""

from __future__ import annotations

import random
from fractions import Fraction


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _random_pointed_map(simplex, rng, m, n):
    return simplex.PointedMap(
        m, n, tuple(rng.randrange(0, n + 1) for _ in range(m)))


def _random_monotone_map(simplex, rng, m, n):
    vals = sorted(rng.randrange(0, n + 1) for _ in range(m + 1))
    return simplex.MonotoneMap(m, n, tuple(vals))


def _random_fincat(rng, max_objects):
    """A random finite category: the nerve source for tests — either a
    chain, a poset, or a small commutative monoid."""
    from . import fincat, instances
    kind = rng.randrange(3)
    if kind == 0:
        return fincat.FinCategory.chain(rng.randrange(1, max_objects + 1))
    if kind == 1:
        return instances.random_poset_category(
            rng, rng.randrange(2, max_objects + 1))
    k = rng.randrange(2, 4)
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    return fincat.FinCategory.from_monoid(table, 0)


# ---------------------------------------------------------------------------
# posets suite
# ---------------------------------------------------------------------------

def check_sigma_counts(rng, bound):
    from . import simplex
    for n in range(0, min(bound, 5) + 1):
        p = simplex.build_sigma(n)
        want = (n + 1) * (n + 2) // 2
        if len(p.objects) != want:
            return "sigma %d has %d objects, expected %d" % (
                n, len(p.objects), want)
        bottoms = sum(1 for f in p.lambda_flags if f)
        want_b = 2 * n + 1 if n else 1
        if bottoms != want_b:
            return "sigma %d bottom layer has %d objects, expected %d" % (
                n, bottoms, want_b)
    return None


def check_theta_counts(rng, bound):
    from . import simplex
    for n in range(0, min(bound, 5) + 1):
        p = simplex.build_theta(n)
        want = 2 ** (n + 1) - 1
        if len(p.objects) != want:
            return "theta %d has %d objects, expected %d" % (
                n, len(p.objects), want)
        bottoms = sum(1 for f in p.xi_flags if f)
        if bottoms != n + 1:
            return "theta %d bottom layer has %d objects, expected %d" % (
                n, bottoms, n + 1)
    return None


def check_pushforward_functorial(rng, bound):
    from . import simplex
    for _ in range(50):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        p = rng.randrange(1, 5)
        alpha = _random_monotone_map(simplex, rng, m, n)
        beta = _random_monotone_map(simplex, rng, n, p)
        comp = beta.compose(alpha)
        sp = simplex.build_sigma(m)
        for phi in sp.objects:
            one = simplex.push_sigma(comp, phi)
            two = simplex.push_sigma(beta, simplex.push_sigma(alpha, phi))
            if one != two:
                return "sigma pushforward not functorial at %r" % (phi,)
        tp = simplex.build_theta(m)
        for s in tp.objects:
            one = simplex.push_theta(comp, s)
            two = simplex.push_theta(beta, simplex.push_theta(alpha, s))
            if one != two:
                return "theta pushforward not functorial at %r" % (s,)
    return None


def check_underlying_monoid_functorial(rng, bound):
    from . import simplex
    for _ in range(100):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        p = rng.randrange(1, 5)
        alpha = _random_monotone_map(simplex, rng, m, n)
        beta = _random_monotone_map(simplex, rng, n, p)
        one = simplex.underlying_monoid(beta.compose(alpha))
        two = simplex.underlying_monoid(alpha).compose(
            simplex.underlying_monoid(beta))
        if one != two:
            return "underlying monoid map not functorial: %r then %r" % (
                alpha.values, beta.values)
    return None


def check_smash_segal(rng, bound):
    from . import simplex
    for n in range(1, 4):
        for k in range(1, 4):
            for i in range(1, n + 1):
                tau = simplex.PointedMap.segal_tau(i, n)
                kappa = simplex.smash_segal(k, tau)
                if (kappa.source_size, kappa.target_size) != (n * k, k):
                    return "smash segal (%d,%d,%d) has wrong shape" % (i, n, k)
                # the section b -> (i, b) must be a bijection onto <k>
                hit = [kappa((b - 1) * n + i) for b in range(1, k + 1)]
                if sorted(hit) != list(range(1, k + 1)):
                    return "smash segal (%d,%d,%d) not split" % (i, n, k)
    return None


# ---------------------------------------------------------------------------
# nerve suite
# ---------------------------------------------------------------------------

def check_path_hom_sizes(rng, bound):
    from . import pathnerve
    for l in range(0, min(bound, 5) + 1):
        cat = pathnerve.build_path(l)
        for i in range(l + 1):
            for j in range(i, l + 1):
                want = 1 if i == j else 2 ** (j - i - 1)
                got = len(cat.hom(i, j))
                if got != want:
                    return "Path(%d) hom(%d,%d) has %d elements, expected %d" \
                        % (l, i, j, got, want)
    return None


def check_nondegenerate_range(rng, bound):
    from . import pathnerve
    for l in range(0, min(bound, 4) + 1):
        table = pathnerve.nondegenerate_table(l, bound=l + 2)
        for (u, v), cells in table.items():
            if u + v > l and cells:
                return "nondegenerate (%d,%d)-cell of the level-%d nerve" % (
                    u, v, l)
    return None


def check_level2_counts(rng, bound):
    from . import pathnerve
    table = pathnerve.nondegenerate_table(2, bound=2)
    want = {(0, 0): 3, (1, 0): 4, (2, 0): 1, (1, 1): 1, (0, 1): 0}
    for k, w in want.items():
        got = len(table.get(k, []))
        if got != w:
            return "level-2 nerve has %d nondegenerate %r cells, expected %d" \
                % (got, k, w)
    return None


def check_limit_closed_forms(rng, bound):
    from . import instances, pathnerve
    for _ in range(5):
        cat = _random_fincat(rng, 4)
        X = pathnerve.SquareOfNerve(cat)
        if len(pathnerve.labelled_limit(X, 0)) != len(X.values(0, 0)):
            return "level-0 labelled limit differs from X_{0,0}"
        if len(pathnerve.labelled_limit(X, 1)) != len(X.values(1, 0)):
            return "level-1 labelled limit differs from X_{1,0}"
        got = len(pathnerve.labelled_limit(X, 2))
        want = len(instances.square_fiber_product(X))
        if got != want:
            return "level-2 labelled limit has %d elements, " \
                "fiber product has %d" % (got, want)
    return None


def check_truncated_vs_full_limit(rng, bound):
    from . import pathnerve
    Q = pathnerve.FinSymMonCat.from_commutative_monoid(
        [[0, 1], [1, 0]], 0)
    for l in range(0, min(bound, 2) + 1):
        X = pathnerve.TensorGridObject(Q, 1, 1)
        a = len(pathnerve.labelled_limit(X, l))
        b = len(pathnerve.labelled_limit_full(X, l))
        if a != b:
            return "truncated (%d) and full (%d) limits differ at level %d" \
                % (a, b, l)
    return None


def check_cq_closed_forms(rng, bound):
    from . import instances, pathnerve
    Q = pathnerve.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
    sizes = [len(pathnerve.build_cq(Q, 1, 1, 1, l)) for l in range(3)]
    if sizes[0] != 1:
        return "level 0 should be a point, got %d" % sizes[0]
    if sizes[1] != len(pathnerve.qpow(Q, 1, 1)):
        return "level 1 should be the object set, got %d" % sizes[1]
    X = pathnerve.TensorGridObject(Q, 1, 1)
    want = len(instances.square_fiber_product(X))
    if sizes[2] != want:
        return "level 2 is %d, fiber product has %d" % (sizes[2], want)
    return None


# ---------------------------------------------------------------------------
# spans suite
# ---------------------------------------------------------------------------

def check_span_identity_compose(rng, bound):
    from . import spans
    for _ in range(20):
        apex = tuple(range(rng.randrange(1, 5)))
        feet = tuple(range(rng.randrange(1, 4)))
        s = spans.Span(feet, apex, feet,
                       tuple((a, rng.choice(feet)) for a in apex),
                       tuple((a, rng.choice(feet)) for a in apex))
        left = spans.compose_spans(spans.Span.identity(feet), s)
        right = spans.compose_spans(s, spans.Span.identity(feet))
        for t in (left, right):
            if len(t.apex) != len(s.apex):
                return "identity span composition changed the apex size"
            legs = sorted((t.left(a), t.right(a)) for a in t.apex)
            want = sorted((s.left(a), s.right(a)) for a in s.apex)
            if legs != want:
                return "identity span composition changed the legs"
    return None


def check_bottom_diagram_cartesian(rng, bound):
    from . import instances, spans
    for _ in range(5):
        F = instances.random_bottom_diagram(rng, (2,), ())
        ok, witness = spans.is_cartesian(F)
        if not ok:
            return "diagram built from bottom data fails at %r" % (witness,)
        G = instances.random_bottom_diagram(rng, (), (1,))
        ok, witness = spans.is_cartesian(G)
        if not ok:
            return "theta diagram built from bottom data fails at %r" \
                % (witness,)
    return None


def check_replacement_idempotent(rng, bound):
    from . import instances, spans
    for _ in range(5):
        F = instances.random_bottom_diagram(rng, (2,), (1,))
        G, _ = spans.cartesian_replacement(F)
        ok, witness = spans.is_cartesian(G)
        if not ok:
            return "replacement is not cartesian at %r" % (witness,)
        H, _ = spans.cartesian_replacement(G)
        for x in G.poset.objects:
            if [len(s) for s in H.labels[x]] != [len(s) for s in G.labels[x]]:
                return "replacement not idempotent at %r" % (x,)
    return None


def check_reindex_preserves_cartesian(rng, bound):
    from . import instances, simplex, spans
    for _ in range(5):
        F = instances.random_bottom_diagram(rng, (2,), (), width=2)
        psi = _random_pointed_map(simplex, rng, 2, 2)
        G = spans.gamma_act(psi, F)
        ok, witness = spans.is_cartesian(G)
        if not ok:
            return "label reindexing broke cartesianness at %r" % (witness,)
        alpha = _random_monotone_map(simplex, rng, 2, 2)
        H = spans.delta_act(F, 0, alpha)
        # both are built unchecked; the checked constructor tests that
        # they are functors
        for name, D in (("label", G), ("interval", H)):
            try:
                spans.GeneralizedSpanDiagram(D.poset, D.width, D.labels,
                                             D.maps)
            except ValueError as e:
                return "%s reindexing is not a functor: %s" % (name, e)
        ok, witness = spans.is_cartesian(H)
        if not ok:
            return "interval reindexing broke cartesianness at %r" \
                % (witness,)
    return None


def check_decoration_additive(rng, bound):
    from . import instances, simplex, spans
    for _ in range(5):
        F = instances.random_bottom_diagram(rng, (1,), ())
        weights = {x: [{e: rng.randrange(0, 4) for e in s}
                       for s in F.labels[x]]
                   for x in F.poset.objects}
        try:
            D = spans.DecoratedSpanDiagram(F, weights)
        except ValueError:
            return "decoration rejected a cartesian diagram"
        psi = _random_pointed_map(simplex, rng, 1, 2)
        E = D.gamma_act(psi)
        for x in E.diagram.poset.objects:
            if any(w < 0 for d in E.weights[x] for w in d.values()):
                return "negative weight produced at %r" % (x,)
    return None


# ---------------------------------------------------------------------------
# pushpull suite
# ---------------------------------------------------------------------------

def check_vertical_dims(rng, bound):
    from . import instances, pushpull
    for _ in range(20):
        l = instances.point_span("l", rng.randrange(1, 4))
        m = instances.point_span("m", rng.randrange(1, 4))
        n = instances.point_span("n", rng.randrange(1, 4))
        mm = pushpull.TwoMorphism.from_dims(
            l, m, lambda t: rng.randrange(0, 3))
        nn = pushpull.TwoMorphism.from_dims(
            m, n, lambda t: rng.randrange(0, 3))
        out = pushpull.compose2_vertical(mm, nn)
        for a in l.apex:
            for c in n.apex:
                want = sum(mm.payload.dim((a, b)) * nn.payload.dim((b, c))
                           for b in m.apex)
                if out.payload.dim((a, c)) != want:
                    return "vertical composite dimension at %r is %d, " \
                        "matrix product gives %d" % (
                            (a, c), out.payload.dim((a, c)), want)
    return None


def check_vertical_units(rng, bound):
    from . import instances, pushpull
    for _ in range(10):
        l = instances.point_span("l", rng.randrange(1, 4))
        m = instances.point_span("m", rng.randrange(1, 4))
        mm = pushpull.TwoMorphism.from_dims(
            l, m, lambda t: rng.randrange(0, 3))
        left = pushpull.compose2_vertical(pushpull.vertical_unit(l), mm)
        right = pushpull.compose2_vertical(mm, pushpull.vertical_unit(m))
        for out in (left, right):
            for t in out.payload.base:
                if out.payload.dim(t) != mm.payload.dim(t):
                    return "unit law fails at %r" % (t,)
    return None


def check_unit_law_isomorphism(rng, bound):
    from . import instances, pushpull, ratlin
    for _ in range(5):
        l = instances.point_span("l", rng.randrange(1, 4))
        m = instances.point_span("m", rng.randrange(1, 4))
        mm = pushpull.TwoMorphism.from_dims(
            l, m, lambda t: rng.randrange(0, 3))
        composite, iso = pushpull.vertical_unit_law_iso(mm)
        for x in iso.source.base:
            a = iso.mat(x)
            if a != ratlin.identity(len(a)):
                return "assembled unit-law comparison is not the identity " \
                    "at %r" % (x,)
    return None


def check_adjunction_roundtrips(rng, bound):
    from . import pushpull
    for _ in range(10):
        src = tuple(range(rng.randrange(1, 5)))
        tgt = tuple(range(rng.randrange(1, 4)))
        f = pushpull.SetMap.build(src, tgt,
                                  lambda x: rng.choice(tgt))
        v = pushpull.VectorFamily.build(src, lambda x: rng.randrange(0, 3))
        w = pushpull.VectorFamily.build(tgt, lambda x: rng.randrange(0, 3))
        fw = pushpull.pullback_ls(f, w)
        samples = [pushpull.FamilyMap.build(
            fw, v, lambda x: tuple(
                tuple(Fraction(rng.randrange(-3, 4))
                      for _ in range(fw.dim(x)))
                for _ in range(v.dim(x))))
            for _ in range(3)]
        if not pushpull.check_adjunction(f, v, w, samples):
            return "adjunct transposition failed to round-trip for %r" \
                % (f.values,)
    return None


def check_base_change_invertible(rng, bound):
    from . import pushpull
    for _ in range(10):
        xs = tuple(range(rng.randrange(1, 4)))
        ys = tuple(range(rng.randrange(1, 4)))
        zs = tuple(range(rng.randrange(1, 3)))
        f = pushpull.SetMap.build(xs, zs, lambda x: rng.choice(zs))
        g = pushpull.SetMap.build(ys, zs, lambda y: rng.choice(zs))
        pb = tuple((x, y) for x in xs for y in ys if f(x) == g(y))
        p = pushpull.SetMap.build(pb, xs, lambda t: t[0])
        q = pushpull.SetMap.build(pb, ys, lambda t: t[1])
        v = pushpull.VectorFamily.build(ys, lambda y: rng.randrange(0, 3))
        iso = pushpull.base_change(f, g, p, q, v)
        if not iso.is_invertible():
            return "base-change comparison not invertible for %r / %r" % (
                f.values, g.values)
    return None


def _canonical_filling(l):
    """The filling synthesized from unit systems on vertices that
    alternate between one and two points."""
    from . import instances, pushpull
    vertices = [("a", "b")[:1 + (a % 2)] for a in range(l + 1)]
    spine, _ = instances.unit_spine(vertices)
    return pushpull.synthesize_filling(vertices, 0, spine)


def check_canonical_filling(rng, bound):
    from . import pushpull
    for l in (2, 3):
        if not pushpull.is_pushpull(_canonical_filling(l)):
            return "synthesized level-%d filling fails the invertibility " \
                "condition" % l
    return None


def check_filling_uniqueness(rng, bound):
    """The canonical filling against a conjugate by a random psi fixing
    the spine: the solve must find psi, and only it."""
    from . import instances, pushpull
    for l in range(2, min(bound, 3) + 1):
        d = _canonical_filling(l)
        dc, psi = instances.conjugated(rng, d)
        got, dof = pushpull.filling_iso_solutions(d, dc)
        if dof != 0:
            return "level-%d filling and its conjugate: the solve " \
                "leaves dof %d" % (l, dof)
        if got != psi:
            return "level-%d filling and its conjugate: the solve misses " \
                "the planted psi" % l
    return None


# ---------------------------------------------------------------------------
# crw suite
# ---------------------------------------------------------------------------

def check_koszul_examples(rng, bound):
    from . import crw
    G = crw.Generator
    one = Fraction(1)
    a = crw.koszul_intersection(
        [G("x", 0, 1)], [], [{(1,): one}])
    t = crw.cohomology(a, 3)
    if t[0][1] != 1 or any(e or o for (_, e, o) in t[1:]):
        return "self-intersection of the origin on a line is not a point"
    b = crw.koszul_intersection(
        [G("x", 0, 1), G("y", 0, 1)], [{(1, 0): one}], [{(0, 1): one}])
    t = crw.cohomology(b, 3)
    if t[0][1] != 1 or any(e or o for (_, e, o) in t[1:]):
        return "transverse intersection of the axes is not a point"
    c = crw.koszul_intersection([G("x", 0, 1)], [], [{(0,): one}])
    t = crw.cohomology(c, 3)
    if any(e or o for (_, e, o) in t):
        return "contracting differential left cohomology behind"
    return None


def check_critical_locus(rng, bound):
    from . import crw
    n = max(2, min(bound, 5))
    for k in range(2, n + 1):
        a, b, report = crw.build_intro_algebras(k)
        t = crw.cohomology(b, k + 2)
        for (w, e, o) in t:
            want = 1 if w < k else 0
            if e != want or o != 0:
                return "critical locus of degree %d has wrong cohomology " \
                    "at weight %d" % (k, w)
        if not report["A_d_squared_zero"] or not report["B_d_squared_zero"]:
            return "a differential fails to square to zero at n=%d" % k
    return None


def check_module_adjunction(rng, bound):
    from . import crw
    G = crw.Generator
    r = crw.GradedDGAlgebra([G("x", 0, 1)])
    s = crw.GradedDGAlgebra([G("x", 0, 1)], [{(3,): Fraction(1)}])
    phi = crw.algebra_map(r, s, {"x": s.gen("x")})
    for _ in range(5):
        k = rng.randrange(1, 3)
        m = crw.DGModule.free(r, [G("m%d" % i, 0, 1) for i in range(k)])
        n = crw.DGModule.free(s, [G("n%d" % i, 0, 1)
                                  for i in range(rng.randrange(1, 3))])
        d1 = crw.chain_map_dimension(crw.module_pullback(r, s, phi, m), n)
        d2 = crw.chain_map_dimension(
            m, crw.module_pushforward(r, s, phi, n))
        if d1 != d2:
            return "adjunction dimensions differ: %d vs %d" % (d1, d2)
    return None


def check_d_squared(rng, bound):
    from . import crw
    G = crw.Generator
    for k in range(2, 5):
        b = crw.GradedDGAlgebra(
            [G("x", 0, 1), G("eps", 1, k)],
            differential={"eps": {(k, 0): Fraction(1)}})
        for g in b.gens:
            if b.d(b.d(b.gen(g.name))):
                return "d squared is nonzero on %s" % g.name
    return None


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------

SUITES = {
    "posets": [
        ("sigma object and bottom-layer counts", check_sigma_counts),
        ("theta object and bottom-layer counts", check_theta_counts),
        ("interval/subset pushforward functoriality",
         check_pushforward_functorial),
        ("underlying pointed map functoriality",
         check_underlying_monoid_functorial),
        ("smash of projection maps is split", check_smash_segal),
    ],
    "nerve": [
        ("path-category hom sizes", check_path_hom_sizes),
        ("nondegenerate cells vanish above the level",
         check_nondegenerate_range),
        ("level-2 nondegenerate cell counts", check_level2_counts),
        ("labelled-limit closed forms", check_limit_closed_forms),
        ("truncated limit agrees with the full window",
         check_truncated_vs_full_limit),
        ("tensor-power pipeline closed forms", check_cq_closed_forms),
    ],
    "spans": [
        ("identity spans are composition units", check_span_identity_compose),
        ("bottom data generates cartesian diagrams",
         check_bottom_diagram_cartesian),
        ("cartesian replacement is idempotent", check_replacement_idempotent),
        ("reindexing preserves cartesianness",
         check_reindex_preserves_cartesian),
        ("decorations stay total and non-negative",
         check_decoration_additive),
    ],
    "pushpull": [
        ("vertical composition matches matrix dimensions",
         check_vertical_dims),
        ("vertical units are neutral", check_vertical_units),
        ("assembled unit-law comparison is the identity",
         check_unit_law_isomorphism),
        ("pushforward/pullback adjunct round-trips",
         check_adjunction_roundtrips),
        ("base-change comparison invertibility", check_base_change_invertible),
        ("synthesized fillings satisfy invertibility",
         check_canonical_filling),
        ("fillings over a common spine are isomorphic",
         check_filling_uniqueness),
    ],
    "crw": [
        ("small derived-intersection examples", check_koszul_examples),
        ("derived critical locus cohomology tables", check_critical_locus),
        ("scalar extension/restriction adjunction dimensions",
         check_module_adjunction),
        ("d squared vanishes on the sample algebras", check_d_squared),
    ],
}


def run_suite(name, seed=0, bound=4):
    """Run one suite (or ``all``); returns a list of
    (suite, property name, passed, detail) in declaration order."""
    names = list(SUITES) if name == "all" else [name]
    results = []
    for suite in names:
        if suite not in SUITES:
            raise KeyError(suite)
        for prop, fn in SUITES[suite]:
            rng = random.Random((seed, suite, prop).__repr__())
            detail = fn(rng, bound)
            results.append((suite, prop, detail is None, detail))
    return results

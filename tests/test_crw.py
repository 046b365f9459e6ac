import argparse
import itertools
import json
import operator
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from spankit import cli, crw, ratlin
from spankit.crw import Generator as G

ONE = Fraction(1)


def oracle_d(algebra, p):
    """d(p) by the Leibniz recursion without a memo, on whole polynomials
    through poly_mul: d(x^e m') = e x^(e-1) d(x) m' + (-1)^(e|x|) x^e d(m')
    with x the first generator of the monomial, then the normal form.
    An independent reference for GradedDGAlgebra.d."""
    gens = algebra.gens

    def d_mono(m):
        if not any(m):
            return {}
        i = next(j for j, e in enumerate(m) if e)
        e = m[i]
        rest = m[:i] + (0,) + m[i + 1:]
        lower = tuple(e - 1 if j == i else 0 for j in range(len(m)))
        d_head = crw.poly_mul(gens, {lower: Fraction(e)},
                              algebra.differential[gens[i].name])
        term1 = crw.poly_mul(gens, d_head, {rest: ONE})
        head = tuple(e if j == i else 0 for j in range(len(m)))
        term2 = crw.poly_mul(gens, {head: ONE}, d_mono(rest))
        if (gens[i].parity * e) % 2:
            term2 = crw.poly_scale(-1, term2)
        return crw.poly_add(term1, term2)

    out = {}
    for m, c in p.items():
        out = crw.poly_add(out, crw.poly_scale(c, d_mono(m)))
    return algebra.normalize(out)


def oracle_d_matrix(algebra, w, parity):
    """The dense Fraction matrix of d from (weight w, parity) to
    (weight w, 1 - parity), target x source, filled column by column
    from oracle_d: an independent reference for the sparse rows of
    crw.d_matrix."""
    split = algebra.monomials_by_parity(w)
    src, tgt = split[parity], split[1 - parity]
    pos = {m: i for i, m in enumerate(tgt)}
    cols = []
    for m in src:
        dm = oracle_d(algebra, {m: ONE})
        col = [Fraction(0)] * len(tgt)
        for mm, c in dm.items():
            col[pos[mm]] = c
        cols.append(tuple(col))
    if not src:
        return ratlin.zeros(len(tgt), 0)
    return ratlin.transpose(tuple(cols))


def d_mismatches(algebra, weights):
    """The monomials of the given weights on which algebra.d differs from
    oracle_d, in a key, a value or the Fraction type of a value."""
    bad = []
    for w in weights:
        for m in algebra.monomials_of_weight(w):
            got, want = algebra.d({m: ONE}), oracle_d(algebra, {m: ONE})
            if got != want or any(type(c) is not Fraction
                                  for c in got.values()):
                bad.append(m)
    return bad


def oracle_quotient_dims(gens, relations, bound):
    """Rows (weight, even_dim, odd_dim) of the free graded-commutative
    algebra on gens (positive weights) modulo the ideal of the given
    homogeneous relations: per weight and parity, the free monomials
    less the rank of the relations' multiples by free monomials (m*r and
    r*m differ only in sign).  It rewrites nothing, so it is an
    independent reference for quotient_algebra."""
    every = range(len(gens))
    rows = []
    for w in range(bound + 1):
        dims = []
        for parity in (0, 1):
            basis = _monomials(gens, every, w, parity)
            pos = {m: i for i, m in enumerate(basis)}
            eqs = [{pos[mm]: c for mm, c in
                    crw.poly_mul(gens, {m: ONE}, r).items()}
                   for r in relations
                   for m in _monomials(
                       gens, every, w - crw.mono_weight(gens, next(iter(r))),
                       (parity - crw.mono_parity(gens, next(iter(r)))) % 2)]
            dims.append(len(basis) - ratlin.sparse_rank(eqs))
        rows.append((w,) + tuple(dims))
    return rows


def _coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _monomials(gens, allowed, w, parity):
    """The normal-form monomials of weight w and the given parity in the
    generators with an index in allowed."""
    caps = [0 if i not in allowed else 1 if g.parity else w // g.weight
            for i, g in enumerate(gens)]
    return [m for m in itertools.product(*[range(c + 1) for c in caps])
            if crw.mono_weight(gens, m) == w
            and crw.mono_parity(gens, m) == parity]


def random_relation(rng, gens, odd=False):
    """An even relation on gens: mostly x^k - f for an even generator x,
    k in 1..3 and f of up to two terms free of x, sometimes up to three
    arbitrary terms of one weight.  With odd, x may also be odd, and
    then the relation is a substitution x - f with f odd and not 0."""
    every = range(len(gens))
    monos = _monomials(gens, every, rng.randint(1, 3), 0)
    if monos and rng.random() < 0.2:
        return {m: _coeff(rng)
                for m in rng.sample(monos, min(len(monos), 3))}
    if odd:
        i = rng.choice(every)
        k = 1 if gens[i].parity else rng.choice((1, 1, 2, 2, 3))
    else:
        i = rng.choice([i for i, g in enumerate(gens) if g.parity == 0])
        k = rng.choice((1, 1, 2, 2, 3))
    monos = _monomials(gens, [j for j in every if j != i],
                       k * gens[i].weight, gens[i].parity)
    rel = {tuple(k if j == i else 0 for j in every): ONE}
    for m in rng.sample(monos, min(len(monos), rng.randint(
            gens[i].parity, 2))):
        rel[m] = _coeff(rng)
    return rel


def product_relation(rng, gens):
    """An even relation of one to three terms of one weight in 2..4, none
    of them a pure power of a generator (it may come out empty)."""
    monos = [m for m in _monomials(gens, range(len(gens)), rng.randint(2, 4),
                                   0) if sum(map(bool, m)) > 1]
    return {m: _coeff(rng)
            for m in rng.sample(monos, min(len(monos), rng.randint(1, 3)))}


def regular_sequence(rng):
    """Even generators x0.. of weight 1 or 2, none, two or four odd
    generators of weight 1, and relations f_i = x_i^k + g_i (k = 2 or 3) on two or three
    of the even generators, each g_i of the weight of x_i^k, of degree
    below k in x_i, free of the x_j before it and of single generators
    (so that no generator is eliminated), often with products of odd
    generators.  In the lexicographic order the leads x_i^k are coprime,
    so the f_i form a regular sequence."""
    n = rng.randint(2, 3)
    gens = [G("x%d" % i, 0, rng.randint(1, 2)) for i in range(n)]
    gens += [G("e%d" % i, 1, 1) for i in range(rng.choice((0, 2, 4)))]
    seq = []
    for i in sorted(rng.sample(range(n), rng.randint(2, n))):
        k = rng.randint(2, 3)
        monos = [m for m in _monomials(gens, range(i, len(gens)),
                                       k * gens[i].weight, 0)
                 if m[i] < k and sum(m) > 1]
        f = {m: _coeff(rng) for m in rng.sample(monos, min(len(monos), 3))}
        f[tuple(k * (j == i) for j in range(len(gens)))] = ONE
        seq.append(f)
    return gens, seq


def complete_intersection_dims(gens, seq, bound):
    """Rows (weight, even_dim, odd_dim) of prod(1 - t^deg f) over the
    regular sequence times prod(1 + s t^w) over the odd generators over
    prod(1 - t^w) over the even ones, with s marking odd parity."""
    rows = [[1, 0]] + [[0, 0] for _ in range(bound)]
    for g in gens:
        for w in (range(bound, g.weight - 1, -1) if g.parity
                  else range(g.weight, bound + 1)):
            rows[w] = [rows[w][p] + rows[w - g.weight][(p + g.parity) % 2]
                       for p in (0, 1)]
    for f in seq:
        deg = crw.mono_weight(gens, next(iter(f)))
        for w in range(bound, deg - 1, -1):
            rows[w] = [rows[w][p] - rows[w - deg][p] for p in (0, 1)]
    return [(w, e, o) for w, (e, o) in enumerate(rows)]


def koszul_product(gens, p, q):
    """p*q from the definition: each pair of terms joins its factor lists,
    an odd factor twice gives 0, and sorting the factors into generator
    order flips the sign once per pair of odd factors out of order."""
    out = {}
    for (m, a), (n, b) in itertools.product(p.items(), q.items()):
        odd = [i for mono in (m, n) for i, e in enumerate(mono)
               if e and gens[i].parity]
        if len(set(odd)) == len(odd):
            flips = sum(x > y for x, y in itertools.combinations(odd, 2))
            mono = tuple(map(operator.add, m, n))
            out[mono] = out.get(mono, 0) + (-1) ** flips * a * b
    return {m: c for m, c in out.items() if c}


def cross_check_failures(seed, count=30, bound=5):
    """Over random regular sequences, the failures of three checks that
    take no reference from the quotient code: the graded dimensions of
    the quotient against complete_intersection_dims, Tor symmetry (with
    the sequence cut into I and J, koszul_intersection(A, I, J), (A, J, I)
    and (A, [], I + J) give one cohomology table), and every relation
    times every generator, on either side, by koszul_product, being 0 in
    the quotient."""
    rng = random.Random(seed)
    fails = {"complete intersection": 0, "tor": 0, "multiples": 0}
    for _ in range(count):
        gens, seq = regular_sequence(rng)
        alg = crw.quotient_algebra(gens, seq)
        if alg.graded_dims(bound) != complete_intersection_dims(gens, seq,
                                                                bound):
            fails["complete intersection"] += 1
        cut = rng.randint(1, len(seq) - 1)
        i, j = seq[:cut], seq[cut:]
        tables = [crw.cohomology(crw.koszul_intersection(gens, a, b), bound)
                  for a, b in ((i, j), (j, i), ([], i + j))]
        if not tables[0] == tables[1] == tables[2]:
            fails["tor"] += 1
        units = [{tuple(int(k == n) for k in range(len(gens))): ONE}
                 for n in range(len(gens))]
        if any(alg.normalize(koszul_product(gens, *pair))
               for f, x in itertools.product(seq, units)
               for pair in ((x, f), (f, x))):
            fails["multiples"] += 1
    return fails


def projects_to_zero(gens, relations, p):
    """Whether the homogeneous p is 0 in the quotient of the free algebra
    on gens by relations: p is d(e) for one more generator e, and the
    quotient carries d(e) over to its generators."""
    lead = next(iter(p))
    e = G("e", 1 - crw.mono_parity(gens, lead), crw.mono_weight(gens, lead))
    alg = crw.quotient_algebra(
        gens + [e], [{m + (0,): c for m, c in r.items()} for r in relations],
        {"e": {m + (0,): c for m, c in p.items()}})
    return alg.normalize(alg.differential["e"]) == {}


def random_dg_algebra(rng):
    """A DG algebra with random small data whose odd generators, some of
    weight 0 and not all last, have differentials with odd terms, so the
    Leibniz rule meets every Koszul sign.  Generators get their
    differentials in a random order: d(g) is d(q) for a random q in the
    generators done before g, plus a multiple of a monomial in
    generators with d = 0, so d^2 = 0 holds by construction.  Power
    rules x^k -> 0 sit on even generators with d = 0."""
    gens = []
    for i in range(rng.randint(2, 5)):
        parity = rng.randint(0, 1)
        gens.append(G("g%d" % i, parity, rng.randint(1 - parity, 2)))
    order = list(range(len(gens)))
    rng.shuffle(order)
    differential, cycles = {}, []
    for pos, i in enumerate(order):
        g = gens[i]
        so_far = crw.GradedDGAlgebra(gens, differential=differential)
        monos = _monomials(gens, order[:pos], g.weight, g.parity)
        q = {m: _coeff(rng) for m in rng.sample(monos, min(len(monos), 2))}
        dg = oracle_d(so_far, q)
        monos = _monomials(gens, cycles, g.weight, 1 - g.parity)
        if monos and rng.random() < 0.7:
            dg = crw.poly_add(dg, {rng.choice(monos): _coeff(rng)})
        if dg:
            differential[g.name] = dg
        else:
            cycles.append(i)
    relations = [{tuple(k * (j == i) for j in range(len(gens))): ONE}
                 for i in cycles if gens[i].parity == 0 and rng.random() < 0.4
                 for k in [rng.randint(2, 3)]]
    return crw.GradedDGAlgebra(gens, relations, differential)


def random_koszul_intersection(rng):
    """A Koszul intersection with random small data: even ambient
    generators and sometimes an odd one, power rewrites x_i^k -> (a
    polynomial in later generators) cutting the ambient ring, and
    equations with coefficients p/q, some of them constants (odd
    generators of weight 0)."""
    gens = [G("x%d" % i, 0, rng.randint(1, 2))
            for i in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        gens.append(G("t", 1, rng.randint(1, 2)))

    def poly(w, parity, avoid=-1):
        # a random polynomial of weight w and the given parity in the
        # generators after avoid (in all of them by default)
        monos = _monomials(gens, range(avoid + 1, len(gens)), w, parity)
        return {m: _coeff(rng)
                for m in rng.sample(monos, min(len(monos), 2))}

    eqs1 = []
    for i, g in enumerate(gens):
        if g.parity == 0 and rng.random() < 0.4:
            k = rng.randint(2, 3)
            power = tuple(k if j == i else 0 for j in range(len(gens)))
            # no pure power below k on the right, so that x_i^k stays
            # the term the relation rewrites
            rhs = {m: -c for m, c in poly(k * g.weight, 0, avoid=i).items()
                   if sum(map(bool, m)) > 1 or max(m) >= k}
            rhs[power] = ONE
            eqs1.append(rhs)
    eqs2 = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            eqs2.append({(0,) * len(gens): _coeff(rng)})
        else:
            eqs2.append(poly(rng.randint(1, 3), 0) or {(0,) * len(gens): ONE})
    return crw.koszul_intersection(gens, eqs1, eqs2)


class TestGenerators:
    def test_bad_parity_rejected(self):
        with pytest.raises(ValueError):
            G("x", 2, 1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            G("x", 0, -1)

    def test_even_weight_zero_rejected(self):
        with pytest.raises(ValueError):
            G("x", 0, 0)

    def test_odd_weight_zero_allowed(self):
        assert G("eps", 1, 0).weight == 0

    def test_repeated_names_rejected(self):
        with pytest.raises(ValueError, match="repeated generator name"):
            crw.GradedDGAlgebra([G("x", 0, 1), G("x", 0, 1)])
        # an ambient generator named like the adjoined odd generator
        with pytest.raises(ValueError, match="repeated generator name"):
            crw.koszul_intersection([G("eps", 0, 1)], [], [{(1,): ONE}])


class TestPolynomials:
    GENS = [G("a", 1, 1), G("b", 1, 1), G("x", 0, 1)]

    def test_odd_square_vanishes(self):
        a = crw.poly_gen(self.GENS, "a")
        assert crw.poly_mul(self.GENS, a, a) == {}

    def test_koszul_sign(self):
        a = crw.poly_gen(self.GENS, "a")
        b = crw.poly_gen(self.GENS, "b")
        ab = crw.poly_mul(self.GENS, a, b)
        ba = crw.poly_mul(self.GENS, b, a)
        assert ab == {(1, 1, 0): ONE}
        assert ba == {(1, 1, 0): -ONE}

    def test_even_factors_commute(self):
        x = crw.poly_gen(self.GENS, "x")
        a = crw.poly_gen(self.GENS, "a")
        assert crw.poly_mul(self.GENS, x, a) == crw.poly_mul(self.GENS, a, x)

    def test_add_cancels(self):
        a = crw.poly_gen(self.GENS, "a")
        assert crw.poly_add(a, crw.poly_scale(-1, a)) == {}

    def test_str_format(self):
        p = {(1, 1, 0): ONE, (0, 0, 2): Fraction(-1, 2)}
        assert crw.poly_str(self.GENS, p) == "-1/2*x^2 + a*b"


class TestAlgebra:
    def test_power_rule_normalizes(self):
        alg = crw.GradedDGAlgebra([G("x", 0, 1)], [{(3,): ONE}])
        x = alg.gen("x")
        x2 = alg.mul(x, x)
        assert alg.mul(x2, x) == {}
        assert alg.mul(x2, x2) == {}

    def test_leibniz_rule(self):
        alg = crw.GradedDGAlgebra(
            [G("x", 0, 1), G("eps", 1, 1)],
            differential={"eps": {(1, 0): ONE}})
        x, eps = alg.gen("x"), alg.gen("eps")
        xe = alg.mul(x, eps)
        assert alg.d(xe) == alg.mul(x, x)
        # d(eps * x^2) = x^3 as well, with the sign from parity 1
        assert alg.d(alg.mul(eps, alg.mul(x, x))) == alg.mul(
            x, alg.mul(x, x))

    def test_differential_must_preserve_weight(self):
        with pytest.raises(ValueError):
            crw.GradedDGAlgebra(
                [G("x", 0, 1), G("eps", 1, 3)],
                differential={"eps": {(1, 0): ONE}})

    def test_differential_must_flip_parity(self):
        with pytest.raises(ValueError):
            crw.GradedDGAlgebra(
                [G("x", 0, 1), G("y", 0, 1)],
                differential={"y": {(1, 0): ONE}})

    def test_d_squared_enforced(self):
        # d(a) = b, d(b) = a gives d^2(a) = a
        with pytest.raises(ValueError):
            crw.GradedDGAlgebra(
                [G("a", 1, 1), G("b", 0, 1)],
                differential={"a": {(0, 1): ONE}, "b": {(1, 0): ONE}})

    def test_graded_dims_polynomial_ring(self):
        alg = crw.GradedDGAlgebra([G("x", 0, 1), G("y", 0, 1)])
        assert alg.graded_dims(3) == [(0, 1, 0), (1, 2, 0), (2, 3, 0),
                                      (3, 4, 0)]

    def test_monomials_match_filtered_product(self):
        # every exponent tuple within the caps, kept if its weight is w
        rng = random.Random(3)
        for _ in range(60):
            gens = []
            for i in range(rng.randint(1, 5)):
                parity = rng.randint(0, 1)
                gens.append(G("g%d" % i, parity, rng.randint(1 - parity, 3)))
            rules = {g.name: (rng.randint(2, 4), {}) for g in gens
                     if g.parity == 0 and rng.random() < 0.3}
            alg = crw.GradedDGAlgebra(gens, [
                {tuple(k if h.name == name else 0 for h in gens): ONE}
                for name, (k, _) in rules.items()])
            for w in range(8):
                caps = [1 if g.parity else
                        rules[g.name][0] - 1 if g.name in rules else w
                        for g in gens]
                want = [m for m in itertools.product(
                            *[range(c + 1) for c in caps])
                        if crw.mono_weight(gens, m) == w]
                assert list(alg.monomials_of_weight(w)) == want

    def test_monomials_built_once_per_weight(self):
        alg = crw.GradedDGAlgebra([G("x", 0, 1), G("e", 1, 2)])
        assert alg.monomials_of_weight(4) is alg.monomials_of_weight(4)
        assert alg.monomials_by_parity(4) is alg.monomials_by_parity(4)

    def test_d_matches_the_oracle(self):
        # on every normal monomial up to weight 5, keys and values, for
        # random DG algebras and random Koszul intersections; and on a
        # combination with rational coefficients
        rng = random.Random(12)
        for _ in range(40):
            for alg in (random_dg_algebra(rng),
                        random_koszul_intersection(rng)):
                assert d_mismatches(alg, range(6)) == []
                p = {m: _coeff(rng) for m in alg.monomials_of_weight(3)}
                assert alg.d(p) == oracle_d(alg, p)

    def test_planted_memo_faults_fail_the_oracle_check(self):
        # d(eps0) is memoized and reused for x*eps0 and y*eps0; a sign
        # flip in it, or an entry left from another differential, must
        # show against the oracle
        def koszul(scale):
            return crw.koszul_intersection(
                [G("x", 0, 1), G("y", 0, 1)], [],
                [{(2, 0): Fraction(scale), (1, 1): Fraction(3, 2)},
                 {(0, 2): ONE}])
        eps0 = (0, 0, 1, 0)
        assert d_mismatches(koszul(1), range(5)) == []
        for plant in ("sign", "stale"):
            alg = koszul(1)
            memo = alg._d_mono(eps0)
            alg._dfree[eps0] = ({m: -c for m, c in memo.items()}
                                if plant == "sign"
                                else koszul(2)._d_mono(eps0))
            bad = d_mismatches(alg, range(5))
            assert eps0 in bad and (1, 0, 1, 0) in bad

    def test_power_rule_must_be_preserved_by_d(self):
        # d(x^2) = 2*x*z is not 0, so d does not descend to K[x]/(x^2)
        with pytest.raises(ValueError, match="power rule on generator 'x'"):
            crw.GradedDGAlgebra([G("x", 0, 1), G("z", 1, 1)],
                                [{(2, 0): ONE}],
                                differential={"x": {(0, 1): ONE}})
        # with d(x) = 0 and d(z) = x^2 the rule is preserved
        crw.GradedDGAlgebra([G("x", 0, 1), G("z", 1, 2)],
                            [{(2, 0): ONE}],
                            differential={"z": {(2, 0): ONE}})

    def test_parity_split_keeps_basis_order(self):
        alg = crw.GradedDGAlgebra([G("x", 0, 1), G("e", 1, 1), G("f", 1, 2),
                                   G("y", 0, 2)])
        for w in range(6):
            monos = alg.monomials_of_weight(w)
            assert alg.monomials_by_parity(w) == tuple(
                tuple(m for m in monos if crw.mono_parity(alg.gens, m) == p)
                for p in (0, 1))


class TestCohomology:
    def test_koszul_critical_locus_of_cubic(self):
        # K[x; eps], d(eps) = x^2: cohomology is K[x]/(x^2), all even
        alg = crw.GradedDGAlgebra(
            [G("x", 0, 1), G("eps", 1, 2)],
            differential={"eps": {(2, 0): ONE}})
        assert crw.cohomology(alg, 4) == [
            (0, 1, 0), (1, 1, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)]

    def test_contractible_koszul(self):
        # d(eps) = 1 contracts everything
        alg = crw.GradedDGAlgebra(
            [G("x", 0, 1), G("eps", 1, 0)],
            differential={"eps": {(0, 0): ONE}})
        assert all(e == 0 and o == 0
                   for (_, e, o) in crw.cohomology(alg, 4))

    def test_zero_differential_keeps_everything(self):
        alg = crw.GradedDGAlgebra([G("x", 0, 1), G("eps", 1, 1)])
        table = crw.cohomology(alg, 3)
        assert table == [(0, 1, 0), (1, 1, 1), (2, 1, 1), (3, 1, 1)]

    def test_sparse_d_rows_rank_like_the_dense_matrix(self):
        # the sparse rows of d against the dense matrix, rank by rank
        rng = random.Random(11)
        for _ in range(40):
            for alg in (random_koszul_intersection(rng),
                        random_dg_algebra(rng)):
                for w in range(6):
                    for p in (0, 1):
                        assert ratlin.sparse_rank(crw.d_matrix(alg, w, p)) \
                            == ratlin.rank(oracle_d_matrix(alg, w, p))

    def test_csv_format(self, capsys):
        # the cell rule of the CLI writer: a flag as 0/1, a list joined
        # with spaces, a comma in text as ';', anything else as str
        assert [cli._cell(v) for v in (
            True, False, 0, 7, [0, 2], [], [True], "a,b,c", "1/2")] == [
            "1", "0", "0", "7", "0 2", "", "1", "a;b;c", "1/2"]
        doc = {"cohomology": [{"weight": 0, "even_dim": 1, "odd_dim": 0},
                              {"weight": 1, "even_dim": 2, "odd_dim": 3}]}
        cli._write(argparse.Namespace(format="csv", out=None), doc,
                   "cohomology", ("weight", "even_dim", "odd_dim"))
        assert capsys.readouterr().out == (
            "weight,even_dim,odd_dim\n0,1,0\n1,2,3\n")


class TestQuotients:
    def test_substitution_eliminates_generator(self):
        gens = [G("x", 0, 1), G("y", 0, 2)]
        rel = crw.poly_add(crw.poly_gen(gens, "y"),
                           crw.poly_scale(-1, {(2, 0): ONE}))
        alg = crw.quotient_algebra(gens, [rel])
        assert [g.name for g in alg.gens] == ["x"]

    def test_power_rewrite_truncates(self):
        gens = [G("x", 0, 1)]
        alg = crw.quotient_algebra(gens, [{(2,): ONE}])
        assert alg.graded_dims(3) == [(0, 1, 0), (1, 1, 0), (2, 0, 0),
                                      (3, 0, 0)]

    def test_monomial_relation_matches_the_oracle(self):
        # xy = 0 has no pure power, and its ideal is homogeneous
        gens = [G("x", 0, 1), G("y", 0, 1)]
        alg = crw.quotient_algebra(gens, [{(1, 1): ONE}])
        assert alg.graded_dims(4) == oracle_quotient_dims(
            gens, [{(1, 1): ONE}], 4) == [(0, 1, 0)] + [(w, 2, 0)
                                                        for w in range(1, 5)]

    @pytest.mark.parametrize("gens, rel, what", [
        # x = y + 1: no grading survives the substitution
        ([G("x", 0, 1), G("y", 0, 1)],
         {(1, 0): ONE, (0, 1): -ONE, (0, 0): -ONE}, "weight"),
        # x^2 = y: weights 2 and 1
        ([G("x", 0, 1), G("y", 0, 1)], {(2, 0): ONE, (0, 1): -ONE},
         "weight"),
        # x = e with x even, e odd, both of weight 1
        ([G("x", 0, 1), G("e", 1, 1)], {(1, 0): ONE, (0, 1): -ONE},
         "parity"),
    ])
    def test_inhomogeneous_relation_rejected(self, gens, rel, what):
        with pytest.raises(ValueError,
                           match="relation 0, .* is not %s-homogeneous"
                           % what):
            crw.quotient_algebra(gens, [rel])

    def test_chained_substitutions_ignore_relation_order(self):
        # y = z is applied after x = y has brought y back into d(eps)
        gens = [G("x", 0, 1), G("y", 0, 1), G("z", 0, 1), G("eps", 1, 2)]
        x_y = {(1, 0, 0, 0): ONE, (0, 1, 0, 0): -ONE}
        y_z = {(0, 1, 0, 0): ONE, (0, 0, 1, 0): -ONE}
        diff = {"eps": {(2, 0, 0, 0): ONE}}
        tables = []
        for rels in ([x_y, y_z], [y_z, x_y]):
            alg = crw.quotient_algebra(gens, rels, diff)
            assert [g.name for g in alg.gens] == ["z", "eps"]
            assert alg.differential["eps"] == {(2, 0): ONE}
            tables.append(crw.cohomology(alg, 4))
        assert tables[0] == tables[1] == [(0, 1, 0), (1, 1, 0), (2, 0, 0),
                                          (3, 0, 0), (4, 0, 0)]

    def test_substitution_and_power_rule_on_one_generator(self):
        # x = y and x^2 = 0 give K[y]/(y^2) in either order
        gens = [G("x", 0, 1), G("y", 0, 1)]
        x_y = {(1, 0): ONE, (0, 1): -ONE}
        for rels in ([x_y, {(2, 0): ONE}], [{(2, 0): ONE}, x_y]):
            alg = crw.quotient_algebra(gens, rels)
            assert [g.name for g in alg.gens] == ["y"]
            assert alg.rules == [((2,), {})]

    def test_two_powers_of_one_generator(self):
        # K[x]/(x^2, x^3) = K[x]/(x^2): no rule overwrites another
        for rels in ([{(2,): ONE}, {(3,): ONE}], [{(3,): ONE}, {(2,): ONE}]):
            alg = crw.quotient_algebra([G("x", 0, 1)], rels)
            assert crw.cohomology(alg, 3) == [(0, 1, 0), (1, 1, 0),
                                              (2, 0, 0), (3, 0, 0)]

    def test_reduced_combination_matches_the_oracle(self):
        # x^3 = y^3 reduced by x^2 = y^2 leaves x*y^2 - y^3, no pure power
        gens = [G("x", 0, 1), G("y", 0, 1)]
        cube = {(3, 0): ONE, (0, 3): -ONE}
        square = {(2, 0): ONE, (0, 2): -ONE}
        want = oracle_quotient_dims(gens, [cube, square], 6)
        for rels in ([cube, square], [square, cube]):
            assert crw.quotient_algebra(gens, rels).graded_dims(6) == want

    @pytest.mark.parametrize("relations, table", [
        # K[a, c, d]/(a^2 - c^2, a^2 - d^2)
        ([{(2, 0, 0, 0): ONE, (0, 2, 0, 0): -ONE},
          {(0, 1, 0, 0): ONE, (0, 0, 1, 0): -ONE},
          {(2, 0, 0, 0): ONE, (0, 0, 0, 2): -ONE}],
         [(0, 1, 0), (1, 3, 0), (2, 4, 0), (3, 4, 0), (4, 4, 0)]),
        # K[a, c]/(a^2 - c^2)
        ([{(2, 0, 0): ONE, (0, 1, 1): -ONE},
          {(0, 1, 0): ONE, (0, 0, 1): -ONE},
          {(2, 0, 0): ONE, (0, 0, 2): -ONE}],
         [(0, 1, 0), (1, 2, 0), (2, 2, 0), (3, 2, 0), (4, 2, 0)]),
    ])
    def test_power_rules_through_a_later_substitution(self, relations,
                                                      table):
        # b = c comes after a power rule whose right-hand side holds b
        gens = [G(n, 0, 1) for n in "abcd"[:len(next(iter(relations[0])))]]
        for rels in itertools.permutations(relations):
            alg = crw.quotient_algebra(gens, list(rels))
            assert "b" not in alg.names
            assert crw.cohomology(alg, 4) == table

    @pytest.mark.parametrize("weights, relations", [
        # x2^3 -> x0*x2 once x1 = -3/2*x2: a power rule whose right-hand
        # side holds a lower power of its own generator
        ((2, 1, 1), [{(0, 0, 1): ONE, (0, 1, 0): Fraction(2, 3)},
                     {(0, 0, 3): ONE, (1, 1, 0): Fraction(2, 3)}]),
        # x1^2 -> -x0*x2 and x2^3 -> -2*x0*x1^2, the second as given:
        # reduced by the first it is of neither shape
        ((1, 1, 1), [{(0, 2, 0): ONE, (1, 0, 1): ONE},
                     {(0, 0, 3): ONE, (1, 2, 0): 2 * ONE}]),
    ])
    def test_power_rule_as_given(self, weights, relations):
        gens = [G("x%d" % i, 0, w) for i, w in enumerate(weights)]
        want = oracle_quotient_dims(gens, relations, 6)
        for rels in (relations, relations[::-1]):
            alg = crw.quotient_algebra(gens, rels)
            assert alg.graded_dims(6) == want

    def test_relation_of_no_shape_waits_for_a_later_rule(self):
        # x*y = 0 is neither shape until x = 0 is known
        gens = [G("x", 0, 1), G("y", 0, 1)]
        for rels in ([{(1, 1): ONE}, {(1, 0): ONE}],
                     [{(1, 0): ONE}, {(1, 1): ONE}]):
            alg = crw.quotient_algebra(gens, rels)
            assert alg.names == ["y"] and alg.rules == []

    def test_quotients_match_the_ideal_oracle_in_every_order(self):
        # random relations, mostly x^k - f with f free of x, then again
        # with substitutions of odd generators too, then relations of
        # products with no pure power: in every order the quotient has the
        # graded dimensions of the free algebra modulo the ideal
        for kind in ("even", "odd", "products"):
            rng = random.Random(5)
            for _ in range(60):
                gens = [G("x%d" % i, int(i > 0 and rng.random() < 0.25),
                          rng.choice((1, 1, 2)))
                        for i in range(rng.randint(2, 4))]
                relations = [
                    product_relation(rng, gens) if kind == "products"
                    else random_relation(rng, gens, kind == "odd")
                    for _ in range(rng.randint(2, 3))]
                relations = [r for r in relations if r]
                want = oracle_quotient_dims(gens, relations, 4)
                for rels in itertools.permutations(relations):
                    alg = crw.quotient_algebra(gens, list(rels))
                    assert alg.graded_dims(4) == want, (kind, rels)

    def test_random_odd_substitutions_keep_their_koszul_signs(self):
        # substitutions x - f over mostly odd generators: every relation
        # times every generator, on either side, is 0 in the quotient.
        # Dimensions cannot see a lost sign; these products can.
        rng = random.Random(5)
        built = 0
        for _ in range(40):
            gens = [G("x%d" % i, int(i > 0 and rng.random() < 0.75),
                      rng.choice((1, 1, 2)))
                    for i in range(rng.randint(3, 5))]
            every = range(len(gens))
            relations = []
            for i in rng.sample(every, rng.randint(1, 2)):
                monos = _monomials(gens, [j for j in every if j != i],
                                   gens[i].weight, gens[i].parity)
                rel = {tuple(int(j == i) for j in every): ONE}
                for m in rng.sample(monos, min(len(monos), 2)):
                    rel[m] = _coeff(rng)
                relations.append(rel)
            try:
                alg = crw.quotient_algebra(gens, relations)
            except ValueError:
                continue
            built += 1
            assert alg.graded_dims(4) == oracle_quotient_dims(
                gens, relations, 4)
            for r, i in itertools.product(relations, every):
                x = {tuple(int(j == i) for j in every): ONE}
                for p in (crw.poly_mul(gens, x, r), crw.poly_mul(gens, r, x)):
                    assert not p or projects_to_zero(gens, relations, p)
        assert built >= 20, built

    def test_quadric_cycle_matches_the_oracle(self):
        # as rules x^2 -> yz, y^2 -> xz, z^2 -> xy rewrite into each
        # other, and counting the monomials that none rewrites gave
        # 1, 3, 3, 1, 0
        gens = [G(n, 0, 1) for n in "xyz"]
        relations = [{(2, 0, 0): ONE, (0, 1, 1): -ONE},
                     {(0, 2, 0): ONE, (1, 0, 1): -ONE},
                     {(0, 0, 2): ONE, (1, 1, 0): -ONE}]
        want = [(0, 1, 0)] + [(w, 3, 0) for w in range(1, 5)]
        assert oracle_quotient_dims(gens, relations, 4) == want
        for rels in itertools.permutations(relations):
            alg = crw.quotient_algebra(gens, list(rels))
            assert crw.cohomology(alg, 4) == want

    def test_relations_that_rewrite_into_each_other_normalize(self):
        # x^2 - y and y^2 - x^4: as rules x^2 -> y and y^2 -> x^4 they
        # rewrote x^4 without end
        gens = [G("x", 0, 1), G("y", 0, 2)]
        relations = [{(2, 0): ONE, (0, 1): -ONE}, {(0, 2): ONE, (4, 0): -ONE}]
        alg = crw.GradedDGAlgebra(gens, relations)
        assert alg.normalize({(4, 0): ONE}) == {(4, 0): ONE}
        assert alg.normalize({(0, 2): ONE}) == {(4, 0): ONE}
        assert alg.graded_dims(8) == oracle_quotient_dims(gens, relations, 8)

    def test_zero_coefficient_is_no_term(self):
        # 0*x + y: y = 0 eliminates y
        alg = crw.quotient_algebra([G("x", 0, 1), G("y", 0, 1)],
                                   [{(1, 0): 0, (0, 1): ONE}])
        assert alg.names == ["x"] and alg.relations == []

    def test_quadrics_with_an_odd_generator_end(self, tmp_path):
        # the relation queue reduced these three quadrics by power rules
        # that rewrote into each other until memory ran out; the timeout
        # turns a hang into a failure
        gens = [G("x0", 0, 1), G("x1", 1, 2), G("x2", 0, 1), G("x3", 0, 1)]
        relations = [
            {(0, 0, 2, 0): ONE, (2, 0, 0, 0): Fraction(1, 2),
             (0, 0, 0, 2): 2 * ONE},
            {(0, 0, 0, 2): ONE, (1, 0, 1, 0): ONE, (2, 0, 0, 0): -2 * ONE},
            {(0, 0, 2, 0): ONE, (2, 0, 0, 0): -3 * ONE, (0, 0, 0, 2): 2 * ONE}]
        doc = {"generators": [{"name": g.name, "parity": g.parity,
                               "weight": g.weight} for g in gens],
               "relations": [{",".join(map(str, m)): str(c)
                              for m, c in r.items()} for r in relations]}
        f = tmp_path / "alg.json"
        f.write_text(json.dumps(doc))
        out = subprocess.run(
            [sys.executable, "-m", "spankit", "crw", "cohomology", str(f),
             "--bound", "4", "--format", "csv"],
            capture_output=True, text=True, timeout=10)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "weight,even_dim,odd_dim\n" + "".join(
            "%d,%d,%d\n" % row for row in oracle_quotient_dims(
                gens, relations, 4))

    def test_odd_substitution_keeps_the_koszul_sign(self):
        # with a = c, d(x) = a*b + b*c = c*b + b*c = 0
        gens = [G("a", 1, 1), G("b", 1, 1), G("c", 1, 1), G("x", 1, 2)]
        alg = crw.quotient_algebra(
            gens, [{(1, 0, 0, 0): ONE, (0, 0, 1, 0): -ONE}],
            {"x": {(1, 1, 0, 0): ONE, (0, 1, 1, 0): ONE}})
        assert alg.differential["x"] == {}

    def test_eliminated_generator_keeps_its_differential(self):
        # x = y descends only if d(x) = d(y) in the quotient
        gens = [G("x", 0, 1), G("y", 0, 1), G("e", 1, 1)]
        x_y = {(1, 0, 0): ONE, (0, 1, 0): -ONE}
        e = {(0, 0, 1): ONE}
        for diff in ({"x": e}, {"y": e}):
            with pytest.raises(ValueError, match=r"relation -y \+ x:"):
                crw.quotient_algebra(gens, [x_y], diff)
        alg = crw.quotient_algebra(gens, [x_y], {"x": e, "y": e})
        assert alg.differential == {"y": {(0, 1): ONE}, "e": {}}
        assert crw.cohomology(alg, 2) == [(0, 1, 0), (1, 0, 0), (2, 0, 0)]

    def test_cyclic_substitutions_rejected(self):
        gens = [G("x", 0, 1), G("y", 0, 1)]
        x_y2 = {(1, 0): ONE, (0, 2): -ONE}
        y_x2 = {(0, 1): ONE, (2, 0): -ONE}
        with pytest.raises(ValueError):
            crw.quotient_algebra(gens, [x_y2, y_x2])


class TestKoszulIntersections:
    def test_origin_self_intersection_on_line(self):
        alg = crw.koszul_intersection([G("x", 0, 1)], [], [{(1,): ONE}])
        t = crw.cohomology(alg, 3)
        assert t[0] == (0, 1, 0)
        assert all(e == 0 and o == 0 for (_, e, o) in t[1:])

    def test_transverse_axes_in_plane(self):
        alg = crw.koszul_intersection(
            [G("x", 0, 1), G("y", 0, 1)],
            [{(1, 0): ONE}], [{(0, 1): ONE}])
        t = crw.cohomology(alg, 3)
        assert t[0] == (0, 1, 0)
        assert all(e == 0 and o == 0 for (_, e, o) in t[1:])

    def test_self_intersection_keeps_odd_class(self):
        # intersecting the origin with itself twice on a line leaves
        # one odd generator acting freely in weight 1
        alg = crw.koszul_intersection(
            [G("x", 0, 1)], [{(1,): ONE}], [{(1,): ONE}])
        t = crw.cohomology(alg, 2)
        assert t[0] == (0, 1, 0)
        assert t[1] == (1, 0, 1)

    def test_inhomogeneous_equation_rejected(self):
        gens = [G("x", 0, 1)]
        with pytest.raises(ValueError):
            crw.koszul_intersection(gens, [], [{(1,): ONE, (0,): ONE}])


class TestCrossChecks:
    def test_regular_sequences_pass(self):
        assert cross_check_failures(3) == {
            "complete intersection": 0, "tor": 0, "multiples": 0}

    def test_a_missing_multiple_fails_every_check(self, monkeypatch):
        # the multiples of the relations by the first generator are left
        # out of the ideal
        real = crw.poly_mul

        def poly_mul(gens, p, q):
            if p == {(1,) + (0,) * (len(gens) - 1): 1}:
                return {}
            return real(gens, p, q)
        monkeypatch.setattr(crw, "poly_mul", poly_mul)
        assert all(cross_check_failures(3).values())

    def test_a_dropped_koszul_sign_fails_the_multiples(self, monkeypatch):
        # every product of monomials, so every multiple m*r, loses its
        # Koszul sign.  The unsigned product is the one of K[x, e]/(e_i^2),
        # where even regular sequences have the same graded dimensions
        # and cohomology tables, so only the check of the multiples can
        # see it
        real = crw._mono_sign_and_product
        monkeypatch.setattr(crw, "_mono_sign_and_product",
                            lambda gens, a, b: (lambda r: r and (1, r[1]))(
                                real(gens, a, b)))
        assert cross_check_failures(3)["multiples"] > 0


class TestModules:
    def test_module_d_squared_enforced(self):
        alg = crw.GradedDGAlgebra([G("x", 0, 1)])
        gens = [G("a", 0, 1), G("b", 1, 2)]
        # d(b) = x a, d(a) = 0 is fine; d(a) = x b does not preserve the
        # weight, so the weight check rejects it before d^2 is looked at
        good = [[{}, {(1,): ONE}], [{}, {}]]
        crw.DGModule(alg, gens, good)
        bad = [[{}, {(1,): ONE}], [{(1,): ONE}, {}]]
        with pytest.raises(ValueError, match="breaks weights"):
            crw.DGModule(alg, gens, bad)

    def test_module_d_squared_enforced_off_row_zero(self):
        # a, b, c of weights 1, 2, 3 and parities 0, 1, 0 with d b = x a
        # and d c = x b: the grading fits, and d^2 c = x^2 a
        alg = crw.GradedDGAlgebra([G("x", 0, 1)])
        gens = [G("a", 0, 1), G("b", 1, 2), G("c", 0, 3)]
        x = alg.gen("x")
        with pytest.raises(ValueError,
                           match=r"^d\^2 != 0 in module at \(0, 2\)$"):
            crw.DGModule(alg, gens, [[{}, x, {}], [{}, {}, x], [{}, {}, {}]])

    def test_chain_maps_with_a_differential_off_row_zero(self):
        # d c = x b, d a = d b = 0: a chain map from F, free on a, b, c,
        # into M sends c to a cycle, a multiple of x^2 a but no multiple
        # of c, so the entry x in row 1 costs F -> M one dimension
        dims = []
        for alg in (crw.GradedDGAlgebra([G("x", 0, 1)]),
                    crw.GradedDGAlgebra([G("x", 0, 1)], [{(3,): ONE}])):
            gens = [G("a", 0, 1), G("b", 1, 2), G("c", 0, 3)]
            m = crw.DGModule(alg, gens, [[{}, {}, {}], [{}, {}, alg.gen("x")],
                                         [{}, {}, {}]])
            f = crw.DGModule.free(alg, gens)
            dims.append([crw.chain_map_dimension(*pair)
                         for pair in [(m, m), (m, f), (f, m), (f, f)]])
        assert dims == [[3, 3, 3, 4]] * 2

    def test_chain_maps_between_free_rank_one(self):
        alg = crw.GradedDGAlgebra([G("x", 0, 1)])
        m = crw.DGModule.free(alg, [G("m", 0, 1)])
        n = crw.DGModule.free(alg, [G("n", 0, 1)])
        # even weight-0 maps m -> c n with c scalar: one dimension
        assert crw.chain_map_dimension(m, n) == 1

    def test_pullback_transports_differential(self):
        r = crw.GradedDGAlgebra([G("x", 0, 1)])
        s = crw.GradedDGAlgebra([G("x", 0, 1)], [{(2,): ONE}])
        phi = crw.algebra_map(r, s, {"x": s.gen("x")})
        gens = [G("a", 0, 1), G("b", 1, 3)]
        m = crw.DGModule(r, gens, [[{}, {(2,): ONE}], [{}, {}]])
        mm = crw.module_pullback(r, s, phi, m)
        assert mm.algebra is s
        assert mm.d_entries[0][1] == {}  # x^2 dies in the truncation

    def test_adjunction_dimensions_agree(self):
        r = crw.GradedDGAlgebra([G("x", 0, 1)])
        s = crw.GradedDGAlgebra([G("x", 0, 1)], [{(3,): ONE}])
        phi = crw.algebra_map(r, s, {"x": s.gen("x")})
        for k, j in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            m = crw.DGModule.free(r, [G("m%d" % i, 0, 1) for i in range(k)])
            n = crw.DGModule.free(s, [G("n%d" % i, 0, 1) for i in range(j)])
            d1 = crw.chain_map_dimension(crw.module_pullback(r, s, phi, m), n)
            d2 = crw.chain_map_dimension(
                m, crw.module_pushforward(r, s, phi, n))
            assert d1 == d2

    @staticmethod
    def cone_of_x(alg):
        """Free on m0 (even, weight 1) and m1 (odd, weight 2) with
        d m1 = x m0 over K[x] or a quotient of it."""
        return crw.DGModule(alg, [G("m0", 0, 1), G("m1", 1, 2)],
                            [[{}, alg.gen("x")], [{}, {}]])

    def test_chain_maps_with_differentials(self):
        # a chain map sends m0 -> a m0, m1 -> b m1, and must satisfy
        # d f(m1) = f(d m1), i.e. b x m0 = a x m0 in the target: a = b
        # into M, a = 0 from M into F, b = 0 from F into M, free on F
        r = crw.GradedDGAlgebra([G("x", 0, 1)])
        m = self.cone_of_x(r)
        f = crw.DGModule.free(r, m.generators)
        dims = [crw.chain_map_dimension(*pair)
                for pair in [(m, m), (m, f), (f, m), (f, f)]]
        assert dims == [1, 1, 1, 2]

    def test_adjunction_with_differentials(self):
        r = crw.GradedDGAlgebra([G("x", 0, 1)])
        s = crw.GradedDGAlgebra([G("x", 0, 1)], [{(3,): ONE}])
        phi = crw.algebra_map(r, s, {"x": s.gen("x")})
        m = self.cone_of_x(r)
        got = []
        for n in (self.cone_of_x(s), crw.DGModule.free(s, m.generators),
                  crw.DGModule.free(s, [G("n0", 0, 2)])):
            d1 = crw.chain_map_dimension(crw.module_pullback(r, s, phi, m), n)
            d2 = crw.chain_map_dimension(
                m, crw.module_pushforward(r, s, phi, n))
            got.append((d1, d2))
        assert got == [(1, 1), (1, 1), (0, 0)]

    def test_algebra_map_must_kill_relations(self):
        r = crw.GradedDGAlgebra([G("x", 0, 1)], [{(2,): ONE}])
        s = crw.GradedDGAlgebra([G("x", 0, 1)])
        with pytest.raises(ValueError):
            crw.algebra_map(r, s, {"x": s.gen("x")})


class TestWorkedExample:
    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            crw.build_intro_algebras(1)

    def test_report_for_cubic_potential(self):
        a, b, report = crw.build_intro_algebras(2)
        assert report["A_d_squared_zero"] is True
        assert report["B_d_squared_zero"] is True
        assert report["A_commutative"] is False
        assert report["A_d_theta_scalar"] == "x"
        assert report["A_d_dtheta_scalar"] == "1/3*x^2"
        assert report["quoted_d_dtheta"] == "3*x^2"
        assert report["d_dtheta_mismatch_factor"] == "9"
        assert report["A_weight_gradable"] is False

    def test_koszul_model_cohomology(self):
        for n in (2, 3, 4):
            a, b, report = crw.build_intro_algebras(n)
            table = crw.cohomology(b, n + 2)
            for (w, e, o) in table:
                assert e == (1 if w < n else 0)
                assert o == 0

    def test_matrix_factorization_relations(self):
        a = crw.MatrixFactorizationAlgebra(3)
        th, dth = a.theta(), a.dtheta_gen()
        assert a.mul(th, th) == {}
        assert a.mul(dth, dth) == {}
        assert a.add(a.mul(th, dth), a.mul(dth, th)) == a.one()
        assert a.d_squared_zero()

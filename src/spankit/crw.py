"""Z2-graded, weight-graded commutative DG algebras at desk scale.

Polynomials are dictionaries from exponent tuples to exact rationals
over an ordered list of generators, each carrying a parity and a
positive weight.  Odd generators square to zero; products pick up
Koszul signs from the ordered-generator rule.  A quotient by
homogeneous relations builds its ideal one weight at a time by linear
algebra (Lazard, EUROCAL 1983): the reduced echelon form of the
relations' multiples in one term order, where a monomial that leads a
row rewrites to the rest of it.  The differential is a weight-preserving
parity-flipping derivation given on generators.  Cohomology is computed
weight by weight with exact ranks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin


# ---------------------------------------------------------------------------
# graded-commutative polynomials over an ordered generator list
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Generator:
    name: str
    parity: int   # 0 even, 1 odd
    weight: int

    def __post_init__(self):
        if self.parity not in (0, 1) or self.weight < 0:
            raise ValueError("bad generator data")
        if self.weight == 0 and self.parity == 0:
            raise ValueError("even generators need positive weight")


def _generators(items):
    """Generators from Generator objects or (name, parity, weight) tuples.
    The names must be distinct: differentials are keyed by name."""
    gens = [g if isinstance(g, Generator) else Generator(*g) for g in items]
    names = [g.name for g in gens]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError("repeated generator name %r" % (name,))
    return gens


def poly_const(gens, c):
    c = Fraction(c)
    if c == 0:
        return {}
    return {(0,) * len(gens): c}


def poly_gen(gens, name):
    i = [g.name for g in gens].index(name)
    e = [0] * len(gens)
    e[i] = 1
    return {tuple(e): Fraction(1)}


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, Fraction(0)) + c
        if out[m] == 0:
            del out[m]
    return out


def poly_scale(c, p):
    c = Fraction(c)
    if c == 0:
        return {}
    return {m: c * v for m, v in p.items()}


def _mono_sign_and_product(gens, a, b):
    """Product of two monomials: None if an odd square appears, else
    (sign, exponent tuple) with the Koszul sign of the reordering."""
    sign = 1
    out = []
    for i, (ea, eb) in enumerate(zip(a, b)):
        if gens[i].parity == 1 and ea + eb > 1:
            return None
        out.append(ea + eb)
    # sign: move each odd factor of b leftward past the odd factors of a
    # with a larger generator index
    odd_a = [i for i, e in enumerate(a) if e and gens[i].parity == 1]
    for j, e in enumerate(b):
        if e and gens[j].parity == 1:
            crossings = sum(1 for i in odd_a if i > j)
            if crossings % 2:
                sign = -sign
    return sign, tuple(out)


def poly_mul(gens, p, q):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            r = _mono_sign_and_product(gens, ma, mb)
            if r is None:
                continue
            sign, m = r
            out[m] = out.get(m, Fraction(0)) + sign * ca * cb
            if out[m] == 0:
                del out[m]
    return out


def _poly_pow(gens, p, e):
    """p^e by repeated squaring."""
    out = poly_const(gens, 1)
    while e:
        if e & 1:
            out = poly_mul(gens, out, p)
        e >>= 1
        if e:
            p = poly_mul(gens, p, p)
    return out


def _evaluate(gens, images, p):
    """p with its i-th generator replaced by images[i], a polynomial over
    gens of that generator's parity: each monomial becomes the product
    of its factors' images in order, with poly_mul's Koszul signs."""
    out = {}
    for m, c in p.items():
        term = poly_const(gens, c)
        for e, image in zip(m, images):
            if e:
                term = poly_mul(gens, term, _poly_pow(gens, image, e))
        out = poly_add(out, term)
    return out


def _echelon(polys):
    """The reduced echelon form of polynomials of one weight in the term
    order, [(lead, the rest of its row over minus its coefficient)]: a
    monomial m is the column (its factor count, m negated), so fewer
    factors come first, then larger exponents on earlier generators."""
    rows, pivots = ratlin.sparse_rref(
        {(sum(m), tuple(-e for e in m)): c for m, c in p.items()}
        for p in polys)
    return [(tuple(-e for e in p[1]),
             {tuple(-e for e in k[1]): Fraction(-v, row[p])
              for k, v in row.items() if k != p})
            for row, p in zip(rows, pivots)]


def _power_of(m):
    """i if the monomial m is a pure power x_i^k with k > 0, else None."""
    support = [i for i, e in enumerate(m) if e]
    return support[0] if len(support) == 1 else None


def _by_weight(gens, relations):
    """{weight: its relations}, without zero terms or zero relations;
    ValueError on a relation that is not weight- and parity-homogeneous."""
    out = {}
    for pos, rel in enumerate(relations):
        rel = {m: Fraction(c) for m, c in dict(rel).items() if c}
        for grade, what in ((mono_weight, "weight"), (mono_parity, "parity")):
            if len({grade(gens, m) for m in rel}) > 1:
                raise ValueError(
                    "relation %d, %s, is not %s-homogeneous; declare "
                    "generator weights and parities making it homogeneous"
                    % (pos, poly_str(gens, rel), what))
        if rel:
            out.setdefault(mono_weight(gens, next(iter(rel))), []).append(rel)
    return out


def mono_weight(gens, m):
    return sum(e * g.weight for e, g in zip(m, gens))


def mono_parity(gens, m):
    return sum(e * g.parity for e, g in zip(m, gens)) % 2


def _grades(gens, p):
    """The set of (weight, parity) of p's monomials: p is homogeneous
    when it has at most one element."""
    return {(mono_weight(gens, m), mono_parity(gens, m)) for m in p}


def poly_str(gens, p):
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=lambda m: (mono_weight(gens, m), m)):
        c = p[m]
        factors = []
        for e, g in zip(m, gens):
            if e == 1:
                factors.append(g.name)
            elif e > 1:
                factors.append("%s^%d" % (g.name, e))
        body = "*".join(factors) if factors else "1"
        if c == 1 and factors:
            parts.append(body)
        elif c == -1 and factors:
            parts.append("-" + body)
        else:
            parts.append("%s%s" % (c, "*" + body if factors else ""))
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

class GradedDGAlgebra:
    """A graded-commutative polynomial algebra modulo homogeneous
    relations, with a differential given on generators.

    ``relations``: weight- and parity-homogeneous polynomials that are 0
    in the algebra.  ``rules`` holds each relation's own echelon
    (``_echelon``), (lead, rhs) in relation order.  The weight-w part
    I_w of their ideal is built once per weight asked for, as the
    reduced echelon form of the products m*r of the relations with the
    free monomials m.
    ``differential``: {generator name: polynomial}, extended to all of
    the algebra by the Leibniz rule d(ab) = (da)b + (-1)^|a| a(db).
    """

    def __init__(self, generators, relations=(), differential=None):
        self.gens = _generators(generators)
        self.names = [g.name for g in self.gens]
        self._by_weight = _by_weight(self.gens, relations)
        self.relations = [r for rs in self._by_weight.values() for r in rs]
        self.rules = [_echelon([r])[0] for r in self.relations]
        self.differential = {name: dict(p) for name, p in
                             (differential or {}).items()}
        for g in self.gens:
            self.differential.setdefault(g.name, {})
        self._odd = [i for i, g in enumerate(self.gens) if g.parity]
        # d of each generator as (term, coefficient, odd indices of the
        # term): plain int coefficients where integral, odd squares dropped
        self._dgen = []
        for g in self.gens:
            terms = []
            for t, c in self.differential[g.name].items():
                c = Fraction(c)
                odd = [j for j in self._odd if t[j]]
                if c and all(t[j] == 1 for j in odd):
                    terms.append((t, c.numerator if c.denominator == 1
                                  else c, odd))
            self._dgen.append(terms)
        self._dfree = {(0,) * len(self.gens): {}}  # monomial -> free d
        self._free = {}  # weight -> free monomials of that weight
        self._ideal = {}  # weight -> {lead of I_w: its normal form}
        self._monomials = {}  # weight -> monomials_of_weight(weight)
        self._by_parity = {}  # weight -> monomials_by_parity(weight)
        self._check()

    # -- normal form --------------------------------------------------

    def _ideal_of_weight(self, w):
        """I_w in reduced echelon form, {lead: its normal form}, built once."""
        if w not in self._ideal:
            self._ideal[w] = dict(_echelon(
                poly_mul(self.gens, {m: 1}, r)
                for rw, rs in self._by_weight.items() if rw <= w
                for r in rs for m in self._free_monomials(w - rw)))
        return self._ideal[w]

    def normalize(self, p):
        """p in normal form, with Fraction values and no zero terms: one
        pass maps each lead of the ideal to its normal form."""
        if not self.relations:
            return {m: Fraction(c) for m, c in p.items() if c}
        out = {}
        for m, c in p.items():
            if c:
                ideal = self._ideal_of_weight(mono_weight(self.gens, m))
                for mm, cc in ideal.get(m, {m: 1}).items():
                    out[mm] = out.get(mm, 0) + c * cc
        return {m: Fraction(c) for m, c in out.items() if c}

    def mul(self, p, q):
        return self.normalize(poly_mul(self.gens, p, q))

    def gen(self, name):
        return poly_gen(self.gens, name)

    # -- the differential ---------------------------------------------

    def d(self, p):
        out = {}
        for m, c in p.items():
            if c.denominator == 1:  # int arithmetic up to normalize
                c = c.numerator
            for mm, cc in self._d_mono(m).items():
                out[mm] = out.get(mm, 0) + c * cc
        return self.normalize(out)

    def _d_mono(self, m):
        """d(m) in the free algebra, where odd squares vanish and no
        relation applies, memoized per monomial.  With x the first generator
        of m, e its exponent and m' the rest of m, the Leibniz rule gives
        d(m) = e d(x) x^(e-1) m' + (-1)^(e|x|) x^e d(m'), where d(m') has
        a lower weight or degree and comes from the memo.  Each product
        is a monomial times a polynomial; coefficients stay int where the
        generator differentials are integral."""
        out = self._dfree.get(m)
        if out is not None:
            return out
        if any(m[j] > 1 for j in self._odd):
            self._dfree[m] = {}
            return {}
        i = next(j for j, e in enumerate(m) if e)
        e = m[i]
        rest = m[:i] + (0,) + m[i + 1:]
        sub = self._d_mono(rest)
        if self.gens[i].parity:
            # x odd, so e = 1: the sign (-1)^|x| times the Koszul sign of
            # moving x past the odd factors of s that come before it
            out = {}
            for s, c in sub.items():
                if not s[i]:
                    flips = 1 + sum(s[j] for j in self._odd if j < i)
                    out[s[:i] + (1,) + s[i + 1:]] = -c if flips % 2 else c
        else:
            out = {s[:i] + (s[i] + e,) + s[i + 1:]: c for s, c in sub.items()}
        lower = m[:i] + (e - 1,) + m[i + 1:]
        lower_odd = [j for j in self._odd if lower[j]]
        for t, c, t_odd in self._dgen[i]:
            if any(lower[j] for j in t_odd):
                continue
            # t lower: each odd factor of lower passes those of t after it
            flips = sum(1 for a in t_odd for b in lower_odd if b < a)
            mm = tuple(map(operator.add, t, lower))
            c = out.get(mm, 0) + (-e * c if flips % 2 else e * c)
            if c:
                out[mm] = c
            else:
                del out[mm]
        self._dfree[m] = out
        return out

    # -- validation ---------------------------------------------------

    def _check(self):
        for name, p in self.differential.items():
            g = self.gens[self.names.index(name)]
            p = self.normalize(p)
            for m in p:
                if mono_weight(self.gens, m) != g.weight:
                    raise ValueError(
                        "differential not weight-preserving; declare "
                        "generator weights making it homogeneous")
                if mono_parity(self.gens, m) != 1 - g.parity:
                    raise ValueError("differential must flip parity")
        # d descends to the quotient only if it maps each relation into
        # the ideal, that is to 0 in normal form
        for rel, (lead, _) in zip(self.relations, self.rules):
            drel = self.d(rel)
            if drel:
                i = _power_of(lead)
                what = ("the relation" if i is None else
                        "the power rule on generator %r" % self.names[i])
                raise ValueError(
                    "d does not preserve %s: d(%s) = %s in the quotient, "
                    "not 0" % (what, poly_str(self.gens, rel),
                               poly_str(self.gens, drel)))
        for name in self.names:
            dd = self.d(self.d(self.gen(name)))
            if dd:
                raise ValueError("d^2 != 0 on generator %s" % name)

    # -- graded bases --------------------------------------------------

    def _free_monomials(self, w):
        """The free monomials of weight w (odd exponents at most 1) in
        increasing exponent order, built once per weight.  Generators are
        added from the last: tails[r] holds the monomials in those added
        so far that have weight r."""
        if w not in self._free:
            tails = [[()]] + [[] for _ in range(w)]
            for g in reversed(self.gens):
                cap = 1 if g.parity else w
                tails = [[(e,) + t for e in range(
                              min(cap, r // g.weight if g.weight else 1) + 1)
                          for t in tails[r - e * g.weight]]
                         for r in range(w + 1)]
            self._free[w] = tuple(tails[w])
        return self._free[w]

    def monomials_of_weight(self, w):
        """The normal-form monomials of weight w: the free monomials that
        lead no row of I_w, in increasing exponent order, built once per
        weight."""
        if w not in self._monomials:
            leads = self._ideal_of_weight(w)
            self._monomials[w] = tuple(m for m in self._free_monomials(w)
                                       if m not in leads)
        return self._monomials[w]

    def monomials_by_parity(self, w):
        """(even, odd): the monomials of weight w split by parity, each in
        monomials_of_weight order, built once per weight."""
        if w not in self._by_parity:
            split = ([], [])
            for m in self.monomials_of_weight(w):
                split[mono_parity(self.gens, m)].append(m)
            self._by_parity[w] = tuple(map(tuple, split))
        return self._by_parity[w]

    def graded_dims(self, bound):
        table = []
        for w in range(bound + 1):
            even, odd = self.monomials_by_parity(w)
            table.append((w, len(even), len(odd)))
        return table


def d_matrix(algebra, w, parity):
    """d from (weight w, parity) to (weight w, 1 - parity) as sparse rows
    for ``ratlin.sparse_rank``: one {target index: coefficient} row per
    source monomial, in basis order.  This is the transpose of the matrix
    of d, which has the same rank."""
    split = algebra.monomials_by_parity(w)
    pos = {m: i for i, m in enumerate(split[1 - parity])}
    return [{pos[mm]: c for mm, c in algebra.d({m: Fraction(1)}).items()}
            for m in split[parity]]


def cohomology(algebra, weight_bound):
    """Rows (weight, even_dim, odd_dim): dim ker d - dim im d per
    weight and parity, by exact rational rank.  With r0 and r1 the ranks
    of d out of the even and the odd part of a weight, both cohomology
    dimensions lose r0 + r1."""
    table = []
    for w, even, odd in algebra.graded_dims(weight_bound):
        lost = sum(ratlin.sparse_rank(d_matrix(algebra, w, p)) for p in (0, 1))
        table.append((w, even - lost, odd - lost))
    return table


# ---------------------------------------------------------------------------
# quotients and Koszul intersections
# ---------------------------------------------------------------------------

def quotient_algebra(gens, relations, differential=None):
    """Quotient of the free graded-commutative algebra on ``gens`` by the
    ideal of the given relations, which must be weight- and parity-
    homogeneous (others raise ``ValueError``).  Weight by weight, in
    increasing order, the relations with the substitutions found so far
    made are put in reduced echelon form (``_echelon``).  A row whose
    lead is a single generator x, with x in no other term, eliminates x;
    every other row is kept as a relation on the generators that stay.
    d must map each x - f with x -> f into the ideal (``ValueError``
    naming the relation otherwise)."""
    gens = _generators(gens)
    by_weight = _by_weight(gens, relations)
    subs, kept = {}, []  # generator index -> its image; kept relations

    def substitute(p):  # until no substituted generator is left
        while any(m[i] for m in p for i in subs):
            p = _evaluate(gens, [subs.get(i, poly_gen(gens, g.name))
                                 for i, g in enumerate(gens)], p)
        return p

    for w in sorted(by_weight):
        for lead, rest in _echelon(map(substitute, by_weight[w])):
            if sum(lead) == 1 and not any(m[lead.index(1)] for m in rest):
                subs[lead.index(1)] = rest
            else:
                kept.append({lead: 1, **{m: -c for m, c in rest.items()}})
    keep_idx = [i for i in range(len(gens)) if i not in subs]

    def project(p):
        return {tuple(m[i] for i in keep_idx): c
                for m, c in substitute(p).items()}

    differential = differential or {}

    def d_of(g):
        return project(dict(differential.get(g.name, {})))

    keep = [gens[i] for i in keep_idx]
    algebra = GradedDGAlgebra(keep, map(project, kept),
                              {g.name: d_of(g) for g in keep})
    # the algebra keeps no d(x) for an eliminated x, so d(x) = d(f) in
    # the quotient is checked here
    for i, f in subs.items():
        drel = algebra.normalize(poly_add(
            d_of(gens[i]), poly_scale(-1, algebra.d(project(f)))))
        if drel:
            rel = poly_str(gens, poly_add(poly_gen(gens, gens[i].name),
                                          poly_scale(-1, f)))
            raise ValueError(
                "d does not preserve the relation %s: d(%s) = %s in the "
                "quotient, not 0" % (rel, rel, poly_str(keep, drel)))
    return algebra


def koszul_intersection(ambient_gens, eqs1, eqs2):
    """Derived intersection model: quotient the ambient ring by the
    first equation list, then adjoin one odd generator per element of
    the second list whose differential is that element's image."""
    gens = _generators(ambient_gens)
    odd = []
    for idx, eq in enumerate(eqs2):
        ws = {mono_weight(gens, m) for m in dict(eq)}
        if len(ws) != 1:
            raise ValueError(
                "equation %d not weight-homogeneous; declare generator "
                "weights making it homogeneous" % idx)
        name = "eps%d" % idx if len(eqs2) > 1 else "eps"
        odd.append(Generator(name, 1, ws.pop()))
    pad = (0,) * len(odd)

    def widen(p):
        return {m + pad: c for m, c in dict(p).items()}

    # the odd generators occur in no relation, so the quotient keeps
    # them and makes its substitutions in their differentials
    return quotient_algebra(gens + odd, [widen(r) for r in eqs1],
                            {g.name: widen(eq) for g, eq in zip(odd, eqs2)})


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

class DGModule:
    """A free graded module over a GradedDGAlgebra with a differential
    matrix.  ``d_entries[i][j]`` is the coefficient of generator i in
    d(generator j); entries are homogeneous algebra elements.  An
    element is {generator index: coefficient}."""

    def __init__(self, algebra, generators, d_entries):
        self.algebra = algebra
        self.generators = [g if isinstance(g, Generator) else Generator(*g)
                           for g in generators]
        n = len(self.generators)
        self.d_entries = [[algebra.normalize(dict(d_entries[i][j]))
                           for j in range(n)] for i in range(n)]
        self._check()

    def _check(self):
        a = self.algebra
        for gi, row in zip(self.generators, self.d_entries):
            for gj, p in zip(self.generators, row):
                grades = _grades(a.gens, p)
                if len(grades) > 1:
                    raise ValueError("differential entry not homogeneous")
                for w, pa in grades:
                    if w + gi.weight != gj.weight:
                        # weights: d preserves weight, so entry weight must
                        # equal weight(gen j) - weight(gen i)
                        raise ValueError("differential entry breaks weights")
                    if (pa + gi.parity) % 2 != (1 + gj.parity) % 2:
                        raise ValueError("differential entry breaks parity")
        for j in range(len(self.generators)):  # d^2 = 0 on each generator
            dd = self.d(self.d({j: poly_const(a.gens, 1)}))
            if dd:
                raise ValueError("d^2 != 0 in module at (%d, %d)"
                                 % (min(dd), j))

    def d(self, element):
        """The image of an element by the Leibniz rule
        d(p e_i) = d(p) e_i + (-1)^|p| p sum_k D_ki e_k, with the sign
        taken per monomial of p and no zero coefficient kept."""
        a = self.algebra
        out = {}
        for i, p in element.items():
            out[i] = poly_add(out.get(i, {}), a.d(p))
            signed = {m: -c if mono_parity(a.gens, m) else c
                      for m, c in p.items()}
            for k, row in enumerate(self.d_entries):
                if row[i]:
                    out[k] = poly_add(out.get(k, {}), a.mul(signed, row[i]))
        return {k: p for k, p in out.items() if p}

    @staticmethod
    def free(algebra, generators):
        n = len(generators)
        zero = [[{} for _ in range(n)] for _ in range(n)]
        return DGModule(algebra, generators, zero)


def algebra_map(source, target, images):
    """A map of DG algebras, recorded as generator images; checked to
    preserve parity and weight, kill the relations, and commute with
    the differentials."""
    images = {n: target.normalize(dict(p)) for n, p in images.items()}
    for g in source.gens:
        if not _grades(target.gens, images[g.name]) <= {(g.weight, g.parity)}:
            raise ValueError("map does not preserve the grading")
    for rel in source.relations:
        if _apply_map(source, target, images, rel):
            raise ValueError("map does not kill the relation %s"
                             % poly_str(source.gens, rel))
    for g in source.gens:
        lhs = target.d(images[g.name])
        rhs = _apply_map(source, target, images, source.differential[g.name])
        if lhs != rhs:
            raise ValueError("map does not commute with d")
    return images


def _apply_map(source, target, images, p):
    return target.normalize(_evaluate(
        target.gens, [images[g.name] for g in source.gens], p))


def module_pullback(source, target, images, module):
    """Extension of scalars along the algebra map: same generators,
    differential entries pushed through the map."""
    n = len(module.generators)
    entries = [[_apply_map(source, target, images, module.d_entries[i][j])
                for j in range(n)] for i in range(n)]
    return DGModule(target, module.generators, entries)


@dataclass(frozen=True)
class RestrictedModule:
    """A module over the target algebra viewed, lazily, as a module
    over the source algebra through an algebra map (restriction of
    scalars), without materializing a presentation:
    ``chain_map_dimension`` into it keeps the target's monomial basis
    and applies the map to the source module's differential entries."""
    source: object
    images: object
    module: object


def module_pushforward(source, target, images, module):
    """Restriction of scalars along the algebra map."""
    return RestrictedModule(source, dict(images), module)


def chain_map_dimension(module_m, module_n):
    """Dimension of the space of even weight-0 chain maps F: M -> N over
    a common algebra.  N may be a restricted module, in which case
    scalars act through its map phi.  The unknowns are the coefficients
    of mono*n_k in F(m_i), and the equations are d_N(F_j) =
    sum_i phi(D^M_ij) F_i, keyed (j, generator of N, monomial).  Each
    unknown gives one sparse row {equation: coefficient} for
    ``ratlin.sparse_rank``: its d_N(mono*n_k) at the equations of j = i,
    less phi(D^M_ij)*mono at those of every j.  This is the transpose of
    the system, which has the same rank, as in ``d_matrix``."""
    if isinstance(module_n, RestrictedModule):
        source, images, module_n = (module_n.source, module_n.images,
                                    module_n.module)
    else:  # scalars act through the identity map
        source = module_n.algebra
        images = {name: source.gen(name) for name in source.names}
    a = module_n.algebra
    rows = []
    for i, g in enumerate(module_m.generators):
        coefs = {j: _apply_map(source, a, images, p)
                 for j, p in enumerate(module_m.d_entries[i]) if p}
        for k, h in enumerate(module_n.generators):
            if g.weight < h.weight:
                continue
            for mono in a.monomials_by_parity(g.weight - h.weight)[
                    (g.parity - h.parity) % 2]:
                one = {mono: Fraction(1)}
                row = {(i, kk, mm): c for kk, p in module_n.d({k: one}).items()
                       for mm, c in p.items()}
                for j, c in coefs.items():
                    for mm, v in a.mul(c, one).items():
                        row[j, k, mm] = row.get((j, k, mm), 0) - v
                rows.append(row)
    return len(rows) - ratlin.sparse_rank(rows)


# ---------------------------------------------------------------------------
# the worked example algebras
# ---------------------------------------------------------------------------

class MatrixFactorizationAlgebra:
    """Endomorphisms of the rank-(1|1) factorization of the potential
    x^(n+1)/(n+1) into f = x and g = x^n/(n+1).

    Elements are 2x2 matrices over K[x] (diagonal even, off-diagonal
    odd); the differential is the graded commutator with
    D = [[0, f], [g, 0]], so d^2 = multiplication by f g - f g = 0 by
    construction.  theta = e21 and dtheta = e12 generate over K[x] with
    theta^2 = dtheta^2 = 0, theta*dtheta = e22, dtheta*theta = e11.
    """

    BASIS = ("e11", "e12", "e21", "e22")
    PARITY = {"e11": 0, "e12": 1, "e21": 1, "e22": 0}
    GENS = (Generator("x", 0, 1),)  # entries are polynomials in x

    def __init__(self, n):
        if n < 2:
            raise ValueError("n must be at least 2")
        self.n = n
        self.f = poly_gen(self.GENS, "x")
        self.g = {(n,): Fraction(1, n + 1)}

    # elements: dict basis name -> polynomial in x
    def one(self):
        return {k: poly_const(self.GENS, 1) for k in ("e11", "e22")}

    def theta(self):
        return {"e21": poly_const(self.GENS, 1)}

    def dtheta_gen(self):
        return {"e12": poly_const(self.GENS, 1)}

    def mul(self, a, b):
        table = {("e11", "e11"): "e11", ("e11", "e12"): "e12",
                 ("e12", "e21"): "e11", ("e12", "e22"): "e12",
                 ("e21", "e11"): "e21", ("e21", "e12"): "e22",
                 ("e22", "e21"): "e21", ("e22", "e22"): "e22"}
        out = {}
        for ka, pa in a.items():
            for kb, pb in b.items():
                t = table.get((ka, kb))
                if t is not None:
                    out[t] = poly_add(out.get(t, {}),
                                      poly_mul(self.GENS, pa, pb))
        return {k: p for k, p in out.items() if p}

    def add(self, a, b):
        out = dict(a)
        for k, p in b.items():
            out[k] = poly_add(out.get(k, {}), p)
        return {k: p for k, p in out.items() if p}

    def scale(self, c, a):
        return {k: poly_scale(c, p) for k, p in a.items()} if c else {}

    def parity(self, a):
        ps = {self.PARITY[k] for k in a}
        if len(ps) > 1:
            raise ValueError("element not homogeneous")
        return ps.pop() if ps else 0

    def d(self, a):
        big_d = {"e12": self.f, "e21": self.g}
        sign = -1 if self.parity(a) == 0 else 1
        return self.add(self.mul(big_d, a),
                        self.scale(sign, self.mul(a, big_d)))

    def d_squared_zero(self):
        for name in self.BASIS:
            e = {name: poly_const(self.GENS, 1)}
            if self.d(self.d(e)):
                return False
        return True

    def is_commutative_on_generators(self):
        th, dth = self.theta(), self.dtheta_gen()
        return self.mul(th, dth) == self.mul(dth, th)


def build_intro_algebras(n):
    """The two worked-example algebras, plus a verification report.

    B is the Koszul model of the derived critical locus of
    x^(n+1)/(n+1): K[x; eps] with d(eps) = x^n.  A is the endomorphism
    algebra of the rank-(1|1) factorization x . (x^n/(n+1)).  The
    report records the induced generator differentials of A and how
    they compare with the commonly quoted value (n+1)x^n, and why A
    carries no weight grading compatible with its relations.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    ambient = [Generator("x", 0, 1), Generator("y", 0, n)]
    graph = {(0, 1): Fraction(1), (n, 0): Fraction(-1)}  # y - x^n
    zero_section = [poly_gen(ambient, "y")]
    b = koszul_intersection(ambient, [graph], zero_section)

    a = MatrixFactorizationAlgebra(n)
    d_theta = a.d(a.theta())
    d_dtheta = a.d(a.dtheta_gen())
    report = {
        "n": n,
        "B_d_squared_zero": all(not b.d(b.d(b.gen(name)))
                                for name in b.names),
        "A_d_squared_zero": a.d_squared_zero(),
        "A_commutative": a.is_commutative_on_generators(),
        "A_d_theta": {k: poly_str(a.GENS, p) for k, p in d_theta.items()},
        "A_d_dtheta": {k: poly_str(a.GENS, p) for k, p in d_dtheta.items()},
        "A_d_theta_scalar": poly_str(a.GENS, a.f),
        "A_d_dtheta_scalar": poly_str(a.GENS, a.g),
        "quoted_d_dtheta": "%d*x^%d" % (n + 1, n),
        "d_dtheta_mismatch_factor": str(Fraction((n + 1) * (n + 1))),
        "A_weight_gradable": False,
        "A_weight_obstruction": (
            "dtheta*theta = e11 and theta*dtheta = e22 sum to the unit, "
            "which has weight 0, while any grading with d(theta) = x "
            "forces weight(theta) + weight(dtheta) = n + 1"),
    }
    return a, b, report

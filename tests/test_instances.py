"""The shared random builders keep building the same instances: for
fixed seeds, the SHA-256 of a structural dump of each builder's output
is pinned.  Changing a builder's draws, their order or their ranges
changes its digest."""

import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from spankit import instances, pathnerve as pn, pushpull as pp, verify
from spankit.fincat import FinCategory
from spankit.pushpull import FamilyMap, VectorFamily


def dump(x):
    """Deterministic text form of x: dataclasses by their fields, other
    objects by their public attributes, containers in their own order."""
    if dataclasses.is_dataclass(x):
        return "%s(%s)" % (type(x).__name__, ",".join(
            dump(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, dict):
        return "{%s}" % ",".join(
            "%s:%s" % (dump(k), dump(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return "[%s]" % ",".join(dump(v) for v in x)
    if x is None or isinstance(x, (str, int, Fraction)):
        return repr(x)
    return type(x).__name__ + dump(
        {k: v for k, v in vars(x).items() if not k.startswith("_")})


def vertex_chain(l):
    return [("a", "b")[:1 + (a % 2)] for a in range(l + 1)]


def filling(rng, l, club):
    """A canonical filling over a random spine of dimension-1 or -2
    systems, with identity chain maps between the heights."""
    vertices = vertex_chain(l)
    spine, spine_vertical = {}, {}
    for a in range(l):
        base = tuple((x, y) for x in vertices[a] for y in vertices[a + 1])
        fam = VectorFamily.build(base, lambda t: 1 + rng.randrange(2))
        spine[a] = [fam] * (club + 1)
        spine_vertical[a] = [FamilyMap.identity(fam)] * club
    return pp.synthesize_filling(vertices, club, spine, spine_vertical)


def monotone_functors(rng):
    out = []
    for _ in range(10):
        chain = FinCategory.chain(rng.randrange(1, 3))
        poset = instances.random_poset_category(rng, rng.randrange(2, 4))
        out.append(instances.monotone_functor(rng, chain, poset))
    return out


def fiber_products(rng):
    objs = [pn.SquareOfNerve(instances.random_poset_category(rng, n))
            for n in (2, 3, 4)]
    Q = pn.FinSymMonCat.from_commutative_monoid([[0, 1], [1, 0]], 0)
    objs += [pn.SquareOfNerve(FinCategory.chain(2)),
             pn.TensorGridObject(Q, 1, 1)]
    return [instances.square_fiber_product(X) for X in objs]


def conjugates(rng):
    out = []
    for l, club in ((2, 0), (3, 0), (2, 1)):
        d = filling(rng, l, club)
        out += [instances.conjugated(rng, d) for _ in range(2)]
    return out


BOTTOM_SHAPES = [((2,), ()), ((), (1,)), ((2,), (1,)), ((1,), (), 2),
                 ((1,), (1,), 2), ((3,), (2,))]

# (name, seed, builder, SHA-256 of the dump, computed with the copies
# that verify and the tests kept before the builders were shared)
CASES = [
    ("random_poset_category", 0, lambda rng: [
        instances.random_poset_category(rng, n)
        for n in range(1, 6) for _ in range(3)],
     "bf706fa1f5542b338b252763b6942d248f97cd246f7f1dfee5a66ec09d705bdb"),
    ("chain_diagram", 1, lambda rng: [
        instances.chain_diagram(rng, n) for n in range(4) for _ in range(3)],
     "68bf5a0f75ce404ef46e77b7905367fb4e783b710e4e44dd65b7fee3afa2ae17"),
    ("monotone_functor", 2, monotone_functors,
     "7a51e793629b36737ac309be26cfc31fb43d22633a413ccd2b08e5e40f6c27d9"),
    ("random_bottom_diagram", 3, lambda rng: [
        instances.random_bottom_diagram(rng, *s) for s in BOTTOM_SHAPES],
     "5a655a329dc3cfd2e0981313a8b9342b60856802575a245064b426b54991df88"),
    ("point_span", 0, lambda rng: [
        instances.point_span(n, k) for n in "lmn" for k in range(4)],
     "9fbeacc348bd34d56eca5889e96c31cadc0ce23518acb18a52630bfe3538ad09"),
    ("unit_spine", 0, lambda rng: [
        instances.unit_spine(vertex_chain(l), club)
        for l in (1, 2, 3) for club in (0, 1, 2)],
     "6bfa7d29cb0929cdf40a5c2afe801fd1d4c5184b7f8fd919d75898416fec299c"),
    ("square_fiber_product", 4, fiber_products,
     "fd682da48c081d0a1bf48a8155044285d06f429675bba0c6a77211ee1b7eca6b"),
    ("conjugated", 5, conjugates,
     "fd751be568c7e384a51e397c13e94b8cb994bfccba73a32a3543bac367f0b686"),
    ("verify._random_fincat", 6, lambda rng: [
        verify._random_fincat(rng, 4) for _ in range(12)],
     "7156070959bdd799192d0506fb03cccb74942b4ecdcfca2c4b18082ad7ed4fea"),
]


@pytest.mark.parametrize("seed,build,want", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_instance_digest(seed, build, want):
    text = dump(build(random.Random(seed)))
    assert hashlib.sha256(text.encode()).hexdigest() == want

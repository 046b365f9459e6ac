"""Small exact linear algebra over the rationals.

Matrices are tuples of tuples of Fractions (rows).  Everything here is
deterministic and exact; no floats.  ``matmul`` works on integers: it
brings each factor to integer rows over the lcm of its denominators and
builds one Fraction per output entry.  ``kron`` multiplies entry by
entry and skips the zeros of its first factor.  Both return Fractions
for any mix of int and Fraction entries.  Elimination runs in one
kernel, ``_reduce``, on sparse integer rows that are divided by the gcd
of their entries when they are stored: sparse callers hand
``sparse_rank`` and ``sparse_rref`` one {column: rational} dict per
row, and the dense ``rank`` and ``rref`` convert their tuples to such
rows at their boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zeros(r, c):
    return tuple(tuple(Fraction(0) for _ in range(c)) for _ in range(r))


def identity(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def shape(a):
    return len(a), (len(a[0]) if a else 0)


def _integral(a):
    """(integer rows, d) with a == rows / d: d is the lcm of the entries'
    denominators (entries may be ints or Fractions)."""
    d = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in a], d


def matmul(a, b):
    """a b, each entry one integer dot product over the product of the
    two factors' common denominators."""
    if shape(a)[1] != len(b):
        raise ValueError("shape mismatch in matmul")
    (ai, da), (bi, db) = _integral(a), _integral(b)
    d = da * db
    cols = list(zip(*bi))
    return tuple(tuple(Fraction(sum(map(mul, row, col)), d) for col in cols)
                 for row in ai)


def transpose(a):
    r, c = shape(a)
    return tuple(tuple(a[i][j] for i in range(r)) for j in range(c))


def hstack(blocks):
    blocks = [b for b in blocks if shape(b)[1] > 0 or shape(b)[0] > 0]
    if not blocks:
        return ()
    r = len(blocks[0])
    return tuple(tuple(x for b in blocks for x in b[i]) for i in range(r))


def vstack(blocks):
    return tuple(row for b in blocks for row in b)


def kron(a, b):
    """Kronecker product; basis order (i, j) with the first factor major.
    Each nonzero entry of a is made a Fraction, so every entry of the
    result is one."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    out = [[Fraction(0)] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            if a[i][j] == 0:
                continue
            x = Fraction(a[i][j])
            for p in range(rb):
                for q in range(cb):
                    out[i * rb + p][j * cb + q] = x * b[p][q]
    return tuple(tuple(row) for row in out)


def _primitive(row):
    """The sparse integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _eliminate(row, pivot_row, col):
    """pv*row - f*pivot_row with pv, f the two entries at col (divided by
    their gcd first), so the result is zero at col: one pass that scales,
    subtracts and drops the entries that become zero.  The result is not
    made primitive (see ``_reduce``)."""
    f, pv = row[col], pivot_row[col]
    g = gcd(f, pv)
    f, pv = f // g, pv // g
    out = {j: pv * x for j, x in row.items()}
    for j, y in pivot_row.items():
        x = out.get(j, 0) - f * y
        if x:
            out[j] = x
        else:
            del out[j]
    return out


def _reduce(rows, full):
    """Fraction-free echelon form of the sparse {column: rational} rows
    (zero values allowed): (rows, pivots), one sparse {column: int} row
    per pivot column, in increasing pivot order, each row primitive (its
    entries have gcd 1).

    Each row is scaled once by the lcm of its denominators.  From then
    on rows stay integer: a row whose leading column already has a
    pivot row is replaced by ``_eliminate``'s pv*row - f*pivot_row,
    until it leads in a new column, where it is stored divided by the
    gcd of its entries, or vanishes.  On its way the row is divided by
    that gcd only when its leading entry has more than twice the bits it
    had at the start or at the last division, so a long chain of updates
    cannot blow the row up, and a gcd pass is paid only once the lead
    has doubled in size.  With full, the entries above each pivot are
    cleared too (Gauss-Jordan), and each updated row is made primitive
    again, so row i divided by its pivot is row i of the reduced echelon
    form.

    Every stored row is the one that dividing after each update would
    give: leaving out a division leaves the row multiplied by some
    c > 0, and updating c*v against the same pivot row gives, since
    (f, pv) are divided by their gcd, a positive multiple of the update
    of v.  So zero tests, leading columns, signs and the primitive rows
    stored are unchanged."""
    by_lead = {}
    for row in rows:
        den = lcm(*(x.denominator for x in row.values() if x))
        v = {j: x.numerator * (den // x.denominator)
             for j, x in row.items() if x}
        cap = 0
        while v:
            lead = min(v)
            p = by_lead.get(lead)
            if p is None:
                by_lead[lead] = _primitive(v)
                break
            if v[lead].bit_length() > cap:
                if cap:
                    v = _primitive(v)
                cap = 2 * v[lead].bit_length()
            v = _eliminate(v, p, lead)
    pivots = sorted(by_lead)
    if full:
        for k in range(len(pivots) - 1, 0, -1):
            col = pivots[k]
            for c in pivots[:k]:
                if col in by_lead[c]:
                    by_lead[c] = _primitive(
                        _eliminate(by_lead[c], by_lead[col], col))
    return [by_lead[c] for c in pivots], pivots


def sparse_rank(rows):
    """Rank of the matrix with the given rows, each a {column: rational}
    dict; zero values are allowed and the row order does not matter."""
    return len(_reduce(rows, False)[1])


def sparse_rref(rows):
    """The full pass of ``_reduce`` on rows as ``sparse_rank`` takes them,
    whose columns may be any keys that compare: (rows, pivots)."""
    return _reduce(rows, True)


def rref(a):
    """Reduced row echelon form; returns (R, pivot column list)."""
    r, c = shape(a)
    rows, pivots = sparse_rref(dict(enumerate(row)) for row in a)
    zero = Fraction(0)
    out = tuple(tuple(Fraction(row[j], row[p]) if j in row else zero
                      for j in range(c)) for row, p in zip(rows, pivots))
    return out + ((zero,) * c,) * (r - len(pivots)), pivots


def rank(a):
    return sparse_rank(dict(enumerate(row)) for row in a)


def is_invertible(a):
    r, c = shape(a)
    return r == c and rank(a) == r


def inverse(a):
    r, c = shape(a)
    if r != c:
        raise ValueError("not square")
    aug, pivots = rref(hstack([a, identity(r)]))
    if pivots != list(range(r)):
        raise ValueError("singular matrix")
    return tuple(row[r:] for row in aug)


def nullspace(a):
    """Basis of the kernel, as columns collected into a matrix (c x k)."""
    c = shape(a)[1]
    R, pivots = rref(a)
    free = [j for j in range(c) if j not in pivots]
    basis = []
    for fj in free:
        v = [Fraction(0)] * c
        v[fj] = Fraction(1)
        for i, pj in enumerate(pivots):
            v[pj] = -R[i][fj]
        basis.append(tuple(v))
    return transpose(tuple(basis)) if basis else zeros(c, 0)


def solve(a, b):
    """One solution x of a x = b (b a column matrix), or None."""
    c = shape(a)[1]
    aug, pivots = rref(hstack([a, b]))
    if any(p >= c for p in pivots):
        return None
    bc = shape(b)[1]
    x = [[Fraction(0)] * bc for _ in range(c)]
    for i, pj in enumerate(pivots):
        for j in range(bc):
            x[pj][j] = aug[i][c + j]
    return tuple(tuple(row) for row in x)

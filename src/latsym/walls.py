"""Short vectors in definite lattices and wall membership tests.

Wall vectors in the standard rank-16 model fall into four classes, keyed by
square and divisibility: PEX2 (square -2, div 1), PEX4 (square -4, div 2),
WALL6 (square -6, div 2) and WALL12 (square -12, div 2, with the six
coordinates of the scaled hyperbolic blocks all even).  The first two form
the pointlike-exceptional set; all four together form the full wall set.
"""

from collections import namedtuple
from math import gcd, isqrt, lcm
from operator import mul

from . import intmat, lattice

PEX2 = "PEX2"
PEX4 = "PEX4"
WALL6 = "WALL6"
WALL12 = "WALL12"
PEX_CLASSES = (PEX2, PEX4)
# the wall class of each (square, divisibility)
_CLASSES = {(-2, 1): PEX2, (-4, 2): PEX4, (-6, 2): WALL6, (-12, 2): WALL12}


class WallWitness(namedtuple("WallWitness", "vector square divisibility wclass")):
    """A wall vector (a tuple) with its square, divisibility and class."""

    __slots__ = ()

    def as_dict(self):
        return {
            "vector": list(self.vector),
            "square": self.square,
            "divisibility": self.divisibility,
            "class": self.wclass,
        }


def short_vectors(lat_or_gram, n):
    """All x with <x, x> = n in a negative definite lattice (or int Gram
    matrix), up to sign.

    One representative per antipodal pair, the one whose first nonzero
    coordinate is positive; output sorted lexicographically.  The
    enumeration visits one vector of each pair (the last nonzero
    coordinate positive) and solves for the first coordinate instead of
    searching it, over the lattice's own scale_pass.
    """
    if n >= 0:
        raise ValueError("target square must be negative")
    lat = (lat_or_gram if isinstance(lat_or_gram, lattice.Lattice)
           else lattice.Lattice(lat_or_gram))
    rank, jordan = lat.rank, lat.jordan
    if rank == 0:
        return []
    if lat.signature() != (0, rank):
        raise ValueError("form is not negative definite")
    # pivot rows e over the basis order of scale_pass (x is mapped back):
    # with D_k = e[k][0], D_-1 = 1,
    # -<x, x> = sum_k (sum_j e[k][j] x_{k+j})^2 / (-D_k D_{k-1})
    minors = [1] + jordan[0]
    # each row signed so that its pivot |D_k| leads it
    e = [row if row[0] > 0 else [-x for x in row] for row in jordan[3]]
    back = sorted(range(rank), key=jordan[4].__getitem__)
    # scale so that every level's weight L / (-D_k D_{k-1}) is an integer
    weight = [-minors[k + 1] * minors[k] for k in range(rank)]
    scale = lcm(*weight)
    weight = [scale // w for w in weight]
    budget = -n * scale
    out = []
    x = [0] * rank

    def descend(k, remaining, top):
        # top: every coordinate above k is zero, so x_k >= 0 there keeps
        # one vector of each antipodal pair; x_k is still 0 in c
        row, d, w = e[k], e[k][0], weight[k]
        c = 0 if top else sum(map(mul, row, x[k:]))
        if k == 0:
            # the last coordinate must use up the budget exactly
            s, r = divmod(remaining, w)
            y = isqrt(s)
            if r or y * y != s:
                return
            for yk in {y, -y}:
                xk, r = divmod(yk - c, d)
                if r or (top and xk <= 0):
                    continue
                x[0] = xk
                out.append(_first_positive([x[j] for j in back]))
            x[0] = 0
            return
        b = isqrt(remaining // w)
        # integers with |d x_k + c| <= b
        for xk in range(0 if top else -((b + c) // d), (b - c) // d + 1):
            y = d * xk + c
            x[k] = xk
            descend(k - 1, remaining - w * y * y, top and not xk)
        x[k] = 0

    descend(rank - 1, budget, True)
    return sorted(out)


def _first_positive(x):
    """The vector of the pair +-x whose first nonzero coordinate is positive."""
    return tuple(x) if next(v for v in x if v) > 0 else tuple(-v for v in x)


def wall_class(model, x, gx=None):
    """Classify a nonzero vector x (with gx = G x if known) as a wall, or None.

    The WALL12 condition restricts the vector to the three scaled
    hyperbolic blocks: those six coordinates must all be even, which is
    membership of that component in twice the block sublattice.
    """
    if not any(x):
        raise ValueError("the zero vector is not a wall")
    gram = model.lattice.gram
    if len(x) != len(gram):
        raise ValueError("vector length does not match rank")
    if gx is None:
        gx = intmat.mat_vec(gram, x)
    square = intmat.dot(x, gx)
    div = gcd(*gx)
    wclass = _CLASSES.get((square, div))
    if wclass is None or (wclass == WALL12 and any(c % 2 for c in x[:6])):
        return None
    return WallWitness(tuple(x), square, div, wclass)


def coinvariant_wall_scan(model, f, pex_only=False):
    """Wall witnesses inside the coinvariant lattice of an isometry.

    Enumerates coinvariant vectors of the wall squares and classifies them
    in the ambient lattice; an empty list means the wall condition holds.
    Raises when the coinvariant lattice is not negative definite.

    For v = sum x_i rows_i, G v and v on the blocks (coordinates 0..5) are
    linear mod 2 in x, by per-row bit masks: -2 is walked in the whole
    coinvariant lattice, -4 and -6 where G v is even, -12 where v is also
    even on the blocks (_parity_sublattice).  A walk is skipped when its
    square is not a multiple of the norm of the walked Gram (_norm), which
    divides every square there.  wall_class alone decides; v and G v come
    from one product with the rows [rows_i + G rows_i].
    Lambda is even with a 2-elementary discriminant group, so a primitive
    v has div 1 or 2, and one of square -4, -6 or -12 is primitive (else
    2u with u^2 = -1 or -3): only the -2 vectors of div 2 are no walls.
    """
    from . import isometry

    if f.lattice.gram != model.lattice.gram:
        raise ValueError("isometry does not act on the model lattice")
    _inv, coinv = isometry.invariant_coinvariant(f)
    if not coinv.rank:
        return []
    if coinv.lattice.signature() != (0, coinv.rank):
        raise ValueError("coinvariant lattice is not negative definite")
    rows, gram = coinv.rows, coinv.lattice.gram
    # bits 0..n-1: G row mod 2; bits n..n+5: row mod 2 on the blocks
    masks = [intmat.f2_mask(gr + r[:6]) for r, gr in zip(rows, coinv.gram_rows)]
    even = (1 << model.rank) - 1
    classes = (((0, (-2,)), (even, (-4,))) if pex_only else
               ((0, (-2,)), (even, (-4, -6)), (-1, (-12,))))
    # a Lattice, so one elimination, per distinct Gram walked
    lats = [coinv.lattice]
    both = [r + gr for r, gr in zip(rows, coinv.gram_rows)]
    n = model.rank
    witnesses = []
    for bits, squares in classes:
        basis, sub_gram = _parity_sublattice(gram, masks, bits) if bits else (None, gram)
        norm = _norm(sub_gram)
        for t in squares:
            if t % norm:
                continue
            if all(m.gram != sub_gram for m in lats):
                lats.append(lattice.Lattice(sub_gram))
            found = short_vectors(next(m for m in lats if m.gram == sub_gram), t)
            if basis is not None:
                found = sorted(map(_first_positive, intmat.mat_mul(found, basis)))
            vgvs = intmat.mat_mul(found, both)
            witnesses += filter(None, (wall_class(model, v[:n], v[n:]) for v in vgvs))
    return witnesses


def _norm(gram):
    """gcd(g_ii, 2 g_ij), which divides every <x, x> = sum_i g_ii x_i^2 +
    2 sum_{i<j} g_ij x_i x_j (Conway-Sloane, SPLAG ch. 15)."""
    return gcd(*(row[i] for i, row in enumerate(gram)),
               *(2 * x for i, row in enumerate(gram) for x in row[i + 1:]))


def _parity_sublattice(gram, masks, bits):
    """The x with sum x_i masks_i = 0 on `bits` mod 2 (the F2 kernel of
    the masks plus 2 Z^r): a triangular basis B and B gram B^T.  Each mask
    that intmat.f2_relations finds dependent gives its relation (1 at its
    own index, 0 above), each other index j gives 2 e_j.
    """
    r = len(masks)
    basis = [[c >> j & 1 for j in range(r)] if c
             else [2 * (j == i) for j in range(r)]
             for i, c in enumerate(intmat.f2_relations([m & bits for m in masks]))]
    return basis, intmat.mat_mul(basis, intmat.mat_mul(gram, intmat.transpose(basis)))

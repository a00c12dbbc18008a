"""Short vectors in definite lattices and wall membership tests.

Wall vectors in the standard rank-16 model fall into four classes, keyed by
square and divisibility: PEX2 (square -2, div 1), PEX4 (square -4, div 2),
WALL6 (square -6, div 2) and WALL12 (square -12, div 2, with the six
coordinates of the scaled hyperbolic blocks all even).  The first two form
the pointlike-exceptional set; all four together form the full wall set.
"""

from math import isqrt, lcm
from operator import mul

from . import intmat

PEX2 = "PEX2"
PEX4 = "PEX4"
WALL6 = "WALL6"
WALL12 = "WALL12"
PEX_CLASSES = (PEX2, PEX4)


class WallWitness:
    """A wall vector with its square, divisibility and class."""

    __slots__ = ("vector", "square", "divisibility", "wclass")

    def __init__(self, vector, square, divisibility, wclass):
        self.vector = tuple(vector)
        self.square = square
        self.divisibility = divisibility
        self.wclass = wclass

    def __eq__(self, other):
        return (isinstance(other, WallWitness)
                and self.vector == other.vector
                and self.wclass == other.wclass)

    def __hash__(self):
        return hash((self.vector, self.wclass))

    def __repr__(self):
        return "WallWitness(%s, square=%d, div=%d, %s)" % (
            list(self.vector), self.square, self.divisibility, self.wclass)

    def as_dict(self):
        return {
            "vector": list(self.vector),
            "square": self.square,
            "divisibility": self.divisibility,
            "class": self.wclass,
        }


def short_vectors(lat_or_gram, n):
    """All x with <x, x> = n in a negative definite lattice, up to sign.

    One representative per antipodal pair, the one whose first nonzero
    coordinate is positive; output sorted lexicographically.  Rational
    Grams and targets are scaled to integers first.  The enumeration visits
    one vector of each pair (the last nonzero coordinate positive) and
    solves for the first coordinate instead of searching it.
    """
    gram = lat_or_gram.gram if hasattr(lat_or_gram, "gram") else lat_or_gram
    rank = len(gram)
    if n >= 0:
        raise ValueError("target square must be negative")
    if rank == 0:
        return []
    # Bareiss pivot rows e of the negated form, scaled together with the
    # target to integers: with D_k = e[k][k] and D_-1 = 1,
    # Q(x) = sum_k (D_k x_k + sum_{j>k} e[k][j] x_j)^2 / (D_k D_{k-1})
    e = intmat._scaled([[-x for x in row] for row in gram] + [[-n]])[1]
    target = e.pop()[0]
    intmat.bareiss(e, symmetric=True)
    minors = [1] + [e[k][k] for k in range(rank)]
    if min(minors) <= 0:
        raise ValueError("form is not positive definite")
    # scale so that every level's weight L / (D_k D_{k-1}) is an integer
    weight = [minors[k + 1] * minors[k] for k in range(rank)]
    scale = lcm(*weight)
    weight = [scale // w for w in weight]
    budget = target * scale
    out = []
    x = [0] * rank

    def descend(k, remaining, top):
        # top: every coordinate above k is zero, so x_k >= 0 there keeps
        # one vector of each antipodal pair
        row, d, w = e[k], minors[k + 1], weight[k]
        c = 0 if top else sum(map(mul, row[k + 1:], x[k + 1:]))
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
                out.append(_first_positive(x))
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


def wall_class(model, x):
    """Classify a nonzero lattice vector as a wall, or return None.

    The WALL12 condition restricts the vector to the three scaled
    hyperbolic blocks: those six coordinates must all be even, which is
    membership of that component in twice the block sublattice.
    """
    if not any(x):
        raise ValueError("the zero vector is not a wall")
    gram = model.lattice.gram
    if len(x) != len(gram):
        raise ValueError("vector length does not match rank")
    gx = intmat.mat_vec(gram, x)
    square = intmat.dot(x, gx)
    div = intmat.gcd_vec(gx)
    if square == -2 and div == 1:
        return WallWitness(x, square, div, PEX2)
    if square == -4 and div == 2:
        return WallWitness(x, square, div, PEX4)
    if square == -6 and div == 2:
        return WallWitness(x, square, div, WALL6)
    if square == -12 and div == 2 and all(c % 2 == 0 for c in x[:6]):
        return WallWitness(x, square, div, WALL12)
    return None


def coinvariant_wall_scan(model, f, pex_only=False):
    """Wall witnesses inside the coinvariant lattice of an isometry.

    Enumerates coinvariant vectors of the wall squares and classifies them
    in the ambient lattice; an empty list means the wall condition holds.
    Raises when the coinvariant lattice is not negative definite.
    """
    from . import isometry

    if f.lattice.gram != model.lattice.gram:
        raise ValueError("isometry does not act on the model lattice")
    _inv, coinv = isometry.invariant_coinvariant(f)
    if not coinv.rank:
        return []
    if coinv.lattice.signature() != (0, coinv.rank):
        raise ValueError("coinvariant lattice is not negative definite")
    return _scan_sublattice(model, coinv.rows, coinv.lattice.gram, pex_only,
                            coinv.gram_rows)


# the divisibility each wall square needs, and the class it then gives
_WALL_DIV = {-2: (1, PEX2), -4: (2, PEX4), -6: (2, WALL6), -12: (2, WALL12)}


def _parity_sublattice(gram, masks, bits):
    """The x with sum x_i masks_i = 0 on `bits` mod 2 (the F2 kernel of
    the masks plus 2 Z^r): a triangular basis B and B gram B^T.  One F2
    elimination gives, for each mask that reduces to zero, its combination
    (1 at its own index, 0 above), and for each other index j, 2 e_j.
    """
    pivots, basis = {}, []
    for i, mask in enumerate(masks):
        mask, comb = mask & bits, 1 << i
        while mask and mask.bit_length() in pivots:
            pmask, pcomb = pivots[mask.bit_length()]
            mask, comb = mask ^ pmask, comb ^ pcomb
        if mask:
            pivots[mask.bit_length()] = (mask, comb)
            basis.append([2 * (j == i) for j in range(len(masks))])
        else:
            basis.append([comb >> j & 1 for j in range(len(masks))])
    return basis, intmat.mat_mul(basis, intmat.mat_mul(gram, intmat.transpose(basis)))


def _scan_sublattice(model, rows, gram, pex_only=False, gram_rows=None):
    """Wall witnesses among the vectors of a negative definite sublattice,
    given by its basis rows in the model's coordinates and its Gram, and
    optionally their pairing rows G rows_i.

    A vector with coordinates x is v = sum x_i rows_i.  The parity of G v
    and of v on the hyperbolic-block coordinates 0..5 is linear mod 2 in
    x, given by per-row bit masks: PEX2 needs G v odd somewhere, the other
    classes need G v even, and WALL12 also needs v even on the blocks.
    Only PEX2 is enumerated in the whole sublattice; the other classes in
    the sublattice of their parity (_parity_sublattice).  Every vector
    still passes an XOR of the masks, a survivor gets G v as the sum of
    x_i (G rows_i) and its exact divisibility, and only a wall is built as
    an ambient vector, through the checked wall_class.
    """
    if not rows:
        return []
    n = model.rank
    if gram_rows is None:
        gram_rows = intmat.mat_mul(rows, model.lattice.gram)
    # bits 0..n-1: G row mod 2; bits n..n+5: row mod 2 on the blocks
    masks = [sum((c & 1) << i for i, c in enumerate(gr + list(r[:6])))
             for r, gr in zip(rows, gram_rows)]
    div_bits = (1 << n) - 1
    targets = (-2, -4) if pex_only else (-2, -4, -6, -12)
    parity = {bits: _parity_sublattice(gram, masks, bits)
              for bits in ((div_bits,) if pex_only else (div_bits, -1))}
    witnesses = []
    for t in targets:
        need_div, wclass = _WALL_DIV[t]
        even_bits = -1 if wclass == WALL12 else div_bits
        if need_div == 1:
            found = short_vectors(gram, t)
        else:
            basis, sub_gram = parity[even_bits]
            found = sorted(map(_first_positive, intmat.mat_mul(
                short_vectors(sub_gram, t), basis)))
        for coords in found:
            acc = 0
            for c, mask in zip(coords, masks):
                if c & 1:
                    acc ^= mask
            if need_div == 1:
                if not acc & div_bits:      # G v even: div is not 1
                    continue
            elif acc & even_bits:           # G v odd, or odd on the blocks
                continue
            gv = [0] * n
            for c, gr in zip(coords, gram_rows):
                if c:
                    gv = [a + c * b for a, b in zip(gv, gr)]
            if intmat.gcd_vec(gv) != need_div:
                continue
            ambient = [0] * n
            for c, r in zip(coords, rows):
                if c:
                    ambient = [a + c * b for a, b in zip(ambient, r)]
            w = wall_class(model, ambient)
            if w is None or w.wclass != wclass:
                raise RuntimeError("wall filter disagrees with wall_class")
            witnesses.append(w)
    return witnesses

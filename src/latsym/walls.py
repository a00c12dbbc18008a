"""Short vectors in definite lattices and wall membership tests.

Wall vectors in the standard rank-16 model fall into four classes, keyed by
square and divisibility: PEX2 (square -2, div 1), PEX4 (square -4, div 2),
WALL6 (square -6, div 2) and WALL12 (square -12, div 2, with the six
coordinates of the scaled hyperbolic blocks all even).  The first two form
the pointlike-exceptional set; all four together form the full wall set.
"""

from fractions import Fraction
from math import isqrt, lcm

from . import intmat, lattice

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
    Grams and targets are scaled to integers first.
    """
    gram = lat_or_gram.gram if hasattr(lat_or_gram, "gram") else lat_or_gram
    rank = len(gram)
    if n >= 0:
        raise ValueError("target square must be negative")
    if rank == 0:
        return []
    target = Fraction(n)
    den = lcm(target.denominator,
              *(Fraction(x).denominator for row in gram for x in row))
    # Bareiss pivot rows e: with D_k = e[k][k] and D_-1 = 1,
    # Q(x) = sum_k (D_k x_k + sum_{j>k} e[k][j] x_j)^2 / (D_k D_{k-1})
    e = [[(-x * den).numerator for x in row] for row in gram]
    intmat.bareiss(e, symmetric=True)
    minors = [1] + [e[k][k] for k in range(rank)]
    if min(minors) <= 0:
        raise ValueError("form is not positive definite")
    # scale so that every level's weight L / (D_k D_{k-1}) is an integer
    weight = [minors[k + 1] * minors[k] for k in range(rank)]
    scale = lcm(*weight)
    weight = [scale // w for w in weight]
    budget = (-target * den).numerator * scale
    out = []
    x = [0] * rank

    def descend(k, remaining):
        if k < 0:
            # x != 0 here since the budget is positive; keep the lead-positive one
            if remaining == 0 and next(c for c in x if c) > 0:
                out.append(tuple(x))
            return
        row, d, w = e[k], minors[k + 1], weight[k]
        c = sum(row[j] * x[j] for j in range(k + 1, rank))
        b = isqrt(remaining // w)
        # integers with |d x_k + c| <= b
        for xk in range(-((b + c) // d), (b - c) // d + 1):
            y = d * xk + c
            x[k] = xk
            descend(k - 1, remaining - w * y * y)
        x[k] = 0

    descend(rank - 1, budget)
    return sorted(out)


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
    lat = model.lattice
    m = getattr(f, "matrix", f)
    if intmat.mat_mul(intmat.transpose(m), intmat.mat_mul(lat.gram, m)) != lat.gram:
        raise ValueError("map does not preserve the Gram matrix")
    delta = intmat.mat_sub(m, intmat.identity(lat.rank))
    inv_rows = intmat.kernel_basis(delta)
    coinv_rows = lattice.orthogonal_complement(lat, inv_rows)
    if not coinv_rows:
        return []
    gc = lattice.restricted_gram(lat, coinv_rows)
    if intmat.symmetric_signature(gc) != (0, len(coinv_rows)):
        raise ValueError("coinvariant lattice is not negative definite")
    return _scan_sublattice(model, coinv_rows, gc, pex_only)


def _scan_sublattice(model, rows, gram, pex_only=False):
    """Wall witnesses among the vectors of a negative definite sublattice,
    given by its basis rows in the model's coordinates and its Gram."""
    rank = model.lattice.rank
    targets = (-2, -4) if pex_only else (-2, -4, -6, -12)
    witnesses = []
    for t in targets:
        for coords in short_vectors(gram, t):
            ambient = [0] * rank
            for c, row in zip(coords, rows):
                if c:
                    for i in range(rank):
                        ambient[i] += c * row[i]
            w = wall_class(model, ambient)
            if w is not None:
                witnesses.append(w)
    return witnesses

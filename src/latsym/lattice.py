"""Even lattices with exact Gram arithmetic, and the standard rank-16 model.

A lattice here is a free Z-module of finite rank carrying a nondegenerate
symmetric bilinear form, stored as an exact Gram matrix (ints, or Fractions
for non-integral forms).  Vectors are coordinate lists in the lattice basis.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
import re

from . import intmat

DEGENERATE = "Gram matrix must be nondegenerate"


class Lattice:
    """A lattice given by its Gram matrix in a fixed basis."""

    def __init__(self, gram, name=None):
        n = len(gram)
        for row in gram:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        den, m = intmat._scaled(gram)
        g = m if den == 1 else [[_as_exact(Fraction(x, den)) for x in row]
                                for row in m]
        if g != intmat.transpose(g):
            raise ValueError("Gram matrix must be symmetric")
        jordan = intmat.scale_pass(m)
        if jordan is None:
            raise ValueError(DEGENERATE)
        det, sig = intmat.pivot_form(jordan[0], den)
        self.gram = g
        self.rank = n
        self.name = name
        self.is_integral = den == 1
        self._signature = sig
        self._det = _as_exact(det)
        self._positive_frame = None
        # intmat.scale_pass of an integral Gram: its 2-adic Jordan splitting
        self.jordan = jordan if den == 1 else None

    def __repr__(self):
        label = self.name if self.name else "rank %d" % self.rank
        return "Lattice(%s)" % label

    @property
    def is_even(self):
        if not self.is_integral:
            return False
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def inner(self, x, y):
        """Bilinear form value <x, y>."""
        if len(x) != self.rank or len(y) != self.rank:
            raise ValueError("vector length does not match rank")
        gx = intmat.mat_vec(self.gram, y)
        return _as_exact(sum(a * b for a, b in zip(x, gx)))

    def square(self, x):
        return self.inner(x, x)

    def divisibility(self, x):
        """div(x): the positive generator of the ideal <x, L>, for integral L."""
        if not self.is_integral:
            raise ValueError("divisibility needs an integral lattice")
        if not any(x):
            raise ValueError("divisibility of the zero vector is undefined")
        pairings = intmat.mat_vec(self.gram, x)
        return intmat.gcd_vec(pairings)

    def signature(self):
        return self._signature

    def det(self):
        return self._det

    def positive_frame(self):
        """Pairs (p, w) for a maximal positive definite subspace.

        The p are pairwise orthogonal primitive integer vectors spanning the
        subspace; each w is a positive integer multiple of G p, so that
        dot(w, y) has the sign of <p, y> for every lattice vector y.  Row k
        of the carried block T of scale_pass([G | I]) has
        <T_k, T_j> = 0 for j != k and <T_k, T_k> = D_{k-1} D_k.
        """
        if self._positive_frame is None:
            n = self.rank
            _den, g = intmat._scaled(self.gram)
            pivots, _steps, _bounds, rows, _order = intmat.scale_pass(
                [row + [int(i == j) for j in range(n)] for i, row in enumerate(g)])
            minors = [1] + pivots
            frame = [_primitive(row[n - k:]) for k, row in enumerate(rows)
                     if minors[k] * minors[k + 1] > 0]
            self._positive_frame = [(p, _primitive(intmat.mat_vec(g, p)))
                                    for p in frame]
        return self._positive_frame

    def dual_gram(self):
        """Gram matrix of the dual lattice in the dual basis."""
        return intmat.frac_inverse(self.gram)

    def int_gram(self):
        if not self.is_integral:
            raise ValueError("lattice is not integral")
        return self.gram


def _as_exact(x):
    """An int or Fraction x as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def _primitive(v):
    """The primitive vector on the ray of a nonzero int vector."""
    g = intmat.gcd_vec(v)
    return [x // g for x in v]


# ---------------------------------------------------------------------------
# standard building blocks (root lattices negative definite)

def hyperbolic():
    """U: the even unimodular hyperbolic plane."""
    return Lattice([[0, 1], [1, 0]], name="U")


def odd_plane():
    """V: the odd unimodular plane [[0,1],[1,1]]."""
    return Lattice([[0, 1], [1, 1]], name="V")


def root_A(n):
    """A_n root lattice, negative definite."""
    if n < 1:
        raise ValueError("A_n needs n >= 1")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = 1
    return Lattice(g, name="A%d" % n)


def root_D(n):
    """D_n root lattice, negative definite (fork at the last node)."""
    if n < 2:
        raise ValueError("D_n needs n >= 2")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
    for i in range(n - 2):
        g[i][i + 1] = g[i + 1][i] = 1
    if n >= 3:
        g[n - 3][n - 1] = g[n - 1][n - 3] = 1
    return Lattice(g, name="D%d" % n)


# Node ordering: 1-3-4-5-6-7-8 chain with node 2 attached to node 4.
_E8_EDGES = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]


def root_E8():
    """E8 root lattice, negative definite, in the fixed node order above."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = g[b - 1][a - 1] = 1
    return Lattice(g, name="E8")


def plane_K(p):
    """Rank-2 positive definite even plane of determinant p (p odd prime)."""
    if p == 2 or not intmat.is_prime(p):
        raise ValueError("needs an odd prime")
    return Lattice([[(p + 1) // 2, -1], [-1, 2]], name="K%d" % p)


def plane_H(p):
    """Rank-2 even plane of determinant -p (p odd prime), signature (1,1)."""
    if p == 2 or not intmat.is_prime(p):
        raise ValueError("needs an odd prime")
    return Lattice([[(p - 1) // 2, 1], [1, -2]], name="H%d" % p)


def rescale(lat, m):
    """L(m): the same module with the form multiplied by m."""
    if m == 0:
        raise ValueError("rescale by zero")
    g = [[x * m for x in row] for row in lat.gram]
    base = lat.name or "?"
    return Lattice(g, name="%s(%d)" % (base, m))


def dual(lat):
    """L^v: the dual lattice, with its form written in the dual basis.  Its
    det is 1 / det G, and G^-1 = G^-1 G G^-1 is congruent to G, so the
    signature is lat's: G^-1 is not eliminated again.  Its fields are set
    one by one, so nothing lat has cached carries over."""
    out = Lattice.__new__(Lattice)
    out.gram, out.rank = lat.dual_gram(), lat.rank
    out.name = "%sv" % (lat.name or "?")
    out.is_integral = all(type(x) is int for row in out.gram for x in row)
    out._signature = lat.signature()
    out._det = _as_exact(1 / Fraction(lat.det()))
    out._positive_frame = None
    out.jordan = intmat.scale_pass(out.gram) if out.is_integral else None
    return out


def direct_sum(*lats):
    """Orthogonal direct sum, summands in the given order."""
    total = sum(l.rank for l in lats)
    g = [[0] * total for _ in range(total)]
    off = 0
    for l in lats:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    name = "+".join(l.name or "?" for l in lats)
    return Lattice(g, name=name)


# ---------------------------------------------------------------------------
# named lattice expressions:  "U(2)^3+E8+A1^2", "U^3+D8v(2)+A1", "K7+H7(2)"

_TERM_RE = re.compile(
    r"^(U|V|E8|A(\d+)|D(\d+)|K(\d+)|H(\d+))(v?)(?:\((-?\d+)\))?(?:\^(\d+))?$")


def _build_atom(name):
    if name == "U":
        return hyperbolic()
    if name == "V":
        return odd_plane()
    if name == "E8":
        return root_E8()
    if name.startswith("A"):
        return root_A(int(name[1:]))
    if name.startswith("D"):
        return root_D(int(name[1:]))
    if name.startswith("K"):
        return plane_K(int(name[1:]))
    if name.startswith("H"):
        return plane_H(int(name[1:]))
    raise ValueError("unknown lattice name %r" % name)


# input bounds of build_named and lattice_from_json, above every size used:
# genus symbols of rank 28-34 with small entries, and of A_400
MAX_RANK = 512
MAX_ENTRY_BITS = 128


def _check_size(rank, numbers):
    if rank > MAX_RANK:
        raise ValueError("rank %d exceeds the cap of %d" % (rank, MAX_RANK))
    if numbers and max(max(numbers), -min(numbers)).bit_length() > MAX_ENTRY_BITS:
        raise ValueError("an entry exceeds the cap of %d bits" % MAX_ENTRY_BITS)


def build_named(expr):
    """Build a lattice from a direct-sum expression.

    Grammar: terms joined by "+"; a term is NAME, NAME(m), NAME^k or
    NAME(m)^k, where NAME is U, V, E8, An, Dn, Kp or Hp, optionally with a
    "v" suffix for the dual (taken before rescaling, as in "D8v(2)").
    The rank and the numbers p and m are capped before anything is built.
    """
    parts = [t.strip() for t in expr.replace(" ", "").split("+")]
    if not parts or not parts[0]:
        raise ValueError("empty lattice expression")
    summands, rank = [], 0
    for part in parts:
        m = _TERM_RE.match(part)
        if not m:
            raise ValueError("cannot parse lattice term %r" % part)
        name, take_dual, scale, mult = m.group(1), m.group(6), m.group(7), m.group(8)
        k = int(mult) if mult else 1
        rank += k * (int(name[1:]) if name[0] in "AD" else 8 if name == "E8" else 2)
        _check_size(rank, [int(x) for x in m.group(4, 5, 7) if x])
        lat = _build_atom(name)
        if take_dual:
            lat = dual(lat)
        if scale is not None:
            lat = rescale(lat, int(scale))
        summands += [lat] * k
    if len(summands) == 1:
        return summands[0]
    return direct_sum(*summands)


# ---------------------------------------------------------------------------
# sublattices of a fixed ambient lattice

def restricted_gram(lat, rows, pair=None):
    """Gram matrix of the sublattice spanned by the given row vectors;
    pair, when given, holds their pairing rows G r."""
    for r in rows:
        if len(r) != lat.rank:
            raise ValueError("vector length does not match rank")
    if pair is None:
        pair = intmat.mat_mul(rows, lat.gram)
    gram = intmat.mat_mul(rows, intmat.transpose(pair))
    # a sum of ints is an int, one holding a Fraction is a Fraction
    if type(sum(map(sum, gram))) is int:
        return gram
    return [[_as_exact(x) for x in row] for row in gram]


def orthogonal_complement(lat, rows, pair=None):
    """Basis of {x in L : <x, r> = 0 for all r}, a saturated sublattice;
    pair, when given, holds the pairing rows G r."""
    if not rows:
        return [list(r) for r in intmat.identity(lat.rank)]
    if pair is None:
        pair = intmat.mat_mul(rows, lat.gram)
    return intmat.kernel_basis(pair)


# ---------------------------------------------------------------------------
# the standard rank-16 model  U(2)^3 + E8 + A1^2

class StandardModel:
    """The fixed-basis model of the rank-16 lattice U(2)^3 + E8 + A1^2.

    Basis layout (16 coordinates):

    - 0..5: three scaled hyperbolic planes U(2); block i has its isotropic
      pair (e_i, f_i) at coordinates (2i, 2i+1), with <e_i, f_i> = 2;
    - 6..13: E8 in the fixed node order of root_E8;
    - 14, 15: the two A1 generators.

    Named vectors:

    - a1_first, a1_second: the A1 generators (square -2 each);
    - a1_sum = a1_first + a1_second (square -4, divisibility 2);
    - a1_diff = a1_first - a1_second (square -4, orthogonal to a1_sum);
    - e8_root: the first E8 basis root (square -2, divisibility 1);
    - e8_root_pair: sum of two orthogonal E8 basis roots (square -4);
    - u2_vector(i): e_1 + i f_1 in the first U(2) block (square 4i).
    """

    def __init__(self):
        self.lattice = direct_sum(
            rescale(hyperbolic(), 2), rescale(hyperbolic(), 2),
            rescale(hyperbolic(), 2), root_E8(), root_A(1), root_A(1))
        self.rank = 16
        n = self.rank
        self.named = {
            "a1_first": _unit(n, 14),
            "a1_second": _unit(n, 15),
            "a1_sum": _unit(n, 14, 15),
            "a1_diff": [1 if i == 14 else (-1 if i == 15 else 0) for i in range(n)],
            "e8_root": _unit(n, 6),
            "e8_root_pair": _unit(n, 6, 7),
        }

    def u2_vector(self, i):
        """e_1 + i f_1 in the first U(2) block; square 4i, primitive."""
        v = [0] * self.rank
        v[0] = 1
        v[1] = i
        return v

    def hyperbolic_pair(self, block):
        """The isotropic basis pair (e, f) of U(2) block 0, 1 or 2."""
        if block not in (0, 1, 2):
            raise ValueError("block must be 0, 1 or 2")
        return _unit(self.rank, 2 * block), _unit(self.rank, 2 * block + 1)


def _unit(n, *idx):
    v = [0] * n
    for i in idx:
        v[i] = 1
    return v


@lru_cache(maxsize=None)
def standard_model():
    """The shared StandardModel instance (immutable by convention)."""
    return StandardModel()


# ---------------------------------------------------------------------------
# JSON interchange: {"name": ..., "gram": [["p/q", ...], ...]}

def lattice_to_json(lat):
    """Plain-dict form of a lattice; Gram entries become fraction strings."""
    return {
        "name": lat.name,
        "gram": [[str(Fraction(x)) for x in row] for row in lat.gram],
    }


_ENTRY_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
# digits of the longest number within MAX_ENTRY_BITS
_MAX_DIGITS = len(str(2 ** MAX_ENTRY_BITS))


def parse_entry(x):
    """A JSON matrix entry as an exact number: an int (not a bool), or a
    string "n" or "p/q" of decimal digits, refused before conversion if a
    number in it has more digits than 2^MAX_ENTRY_BITS.  A number beyond
    MAX_ENTRY_BITS, and anything else, raises ValueError."""
    if type(x) is int and x.bit_length() <= MAX_ENTRY_BITS:
        return x
    if type(x) is not int:
        if type(x) is not str or not _ENTRY_RE.fullmatch(x):
            raise ValueError('entry %.40r is neither an int nor a "p/q" string'
                             % (x,))
        num, _, den = x.partition("/")
        if max(len(num.lstrip("-")), len(den)) > _MAX_DIGITS:
            raise ValueError("an entry exceeds the cap of %d bits" % MAX_ENTRY_BITS)
        if den and not int(den):
            raise ValueError("entry %r has a zero denominator" % x)
        x = Fraction(int(num), int(den or 1))
    _check_size(0, [x.numerator, x.denominator])
    return _as_exact(x)


def parse_matrix(rows):
    """A JSON matrix with entries as parse_entry reads them: an all-int one
    is kept as it is after one size check, any other is read entry by entry."""
    flat = list(chain.from_iterable(rows))
    if set(map(type, flat)) <= {int}:
        _check_size(0, flat)
        return rows
    return [[parse_entry(x) for x in row] for row in rows]


def lattice_from_json(data):
    """Inverse of lattice_to_json; entries as parse_entry reads them, a
    name a string or null, other keys ignored."""
    if "gram" not in data:
        raise ValueError("lattice data needs a gram field")
    name = data.get("name")
    if name is not None and type(name) is not str:
        raise ValueError("lattice name %.40r is not a string" % (name,))
    _check_size(len(data["gram"]), ())
    return Lattice(parse_matrix(data["gram"]), name=name)

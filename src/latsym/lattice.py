"""Integral lattices with exact Gram arithmetic and the standard rank-16 model.

A lattice here is a free Z-module of finite rank carrying a nondegenerate
symmetric Z-valued bilinear form, stored as an int Gram matrix.  Vectors
are coordinate lists in the lattice basis.  JSON entries "p/q" are read as
ints at the boundary (parse_entry), and a dual term such as "D8v(2)" is
built only when it comes out integral after its scale.  The root lattices
A_n, D_n and E8 come from one Dynkin builder, _dynkin, given their edges.
"""

from functools import lru_cache
from itertools import chain
from math import gcd
import re

from . import intmat

DEGENERATE = "Gram matrix must be nondegenerate"
NOT_INTEGRAL = "a lattice needs an integral Gram matrix"


class Lattice:
    """A lattice given by its Gram matrix in a fixed basis."""

    def __init__(self, gram, name=None):
        n = len(gram)
        for row in gram:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        if not set(map(type, chain.from_iterable(gram))) <= {int}:
            raise ValueError(NOT_INTEGRAL)
        g = [list(row) for row in gram]
        if g != intmat.transpose(g):
            raise ValueError("Gram matrix must be symmetric")
        jordan = intmat.scale_pass(g)
        if jordan is None:
            raise ValueError(DEGENERATE)
        self._det, self._signature = intmat.pivot_form(jordan[0])
        self.gram = g
        self.rank = n
        self.name = name
        self._positive_frame = None
        # intmat.scale_pass of the Gram: its 2-adic Jordan splitting
        self.jordan = jordan

    def __repr__(self):
        label = self.name if self.name else "rank %d" % self.rank
        return "Lattice(%s)" % label

    @property
    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def inner(self, x, y):
        """Bilinear form value <x, y>."""
        if len(x) != self.rank or len(y) != self.rank:
            raise ValueError("vector length does not match rank")
        gx = intmat.mat_vec(self.gram, y)
        return sum(a * b for a, b in zip(x, gx))

    def square(self, x):
        return self.inner(x, x)

    def divisibility(self, x):
        """div(x): the positive generator of the ideal <x, L>."""
        if len(x) != self.rank:
            raise ValueError("vector length does not match rank")
        if not any(x):
            raise ValueError("divisibility of the zero vector is undefined")
        pairings = intmat.mat_vec(self.gram, x)
        return gcd(*pairings)

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
            n, g = self.rank, self.gram
            pivots, _steps, _bounds, rows, _order = intmat.scale_pass(
                [row + [int(i == j) for j in range(n)] for i, row in enumerate(g)])
            minors = [1] + pivots
            frame = [_primitive(row[n - k:]) for k, row in enumerate(rows)
                     if minors[k] * minors[k + 1] > 0]
            self._positive_frame = [(p, _primitive(intmat.mat_vec(g, p)))
                                    for p in frame]
        return self._positive_frame


def _primitive(v):
    """The primitive vector on the ray of a nonzero int vector."""
    g = gcd(*v)
    return [x // g for x in v]


# ---------------------------------------------------------------------------
# standard building blocks (root lattices negative definite)

def hyperbolic():
    """U: the even unimodular hyperbolic plane."""
    return Lattice([[0, 1], [1, 0]], name="U")


def odd_plane():
    """V: the odd unimodular plane [[0,1],[1,1]]."""
    return Lattice([[0, 1], [1, 1]], name="V")


def _dynkin(n, edges, name):
    """The negative definite root lattice of a Dynkin diagram on 0..n-1."""
    g = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a][b] = g[b][a] = 1
    return Lattice(g, name=name)


def root_A(n):
    """A_n root lattice, negative definite."""
    if n < 1:
        raise ValueError("A_n needs n >= 1")
    return _dynkin(n, [(i, i + 1) for i in range(n - 1)], "A%d" % n)


def root_D(n):
    """D_n root lattice, negative definite (fork at the last node)."""
    if n < 2:
        raise ValueError("D_n needs n >= 2")
    return _dynkin(n, [(i, i + 1) for i in range(n - 2)]
                   + ([(n - 3, n - 1)] if n >= 3 else []), "D%d" % n)


# Node ordering: 1-3-4-5-6-7-8 chain with node 2 attached to node 4, from 0.
_E8_EDGES = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]


def root_E8():
    """E8 root lattice, negative definite, in the fixed node order above."""
    return _dynkin(8, _E8_EDGES, "E8")


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


def dual(lat, m=None):
    """L^v(m): the dual lattice with its form multiplied by m (L^v when m
    is None), written in the dual basis: its Gram is m G^-1 = m Y / D for
    (D, Y) = intmat.solve(G, I).  Raises unless D divides every entry of
    m Y, since a lattice is integral."""
    if m == 0:
        raise ValueError("rescale by zero")
    name = "%sv" % (lat.name or "?") + ("" if m is None else "(%d)" % m)
    d, y = intmat.solve(lat.gram, intmat.identity(lat.rank))
    k = 1 if m is None else m
    if any(k * x % d for row in y for x in row):
        raise ValueError("%s has no integral Gram matrix" % name)
    return Lattice([[k * x // d for x in row] for row in y], name=name)


def direct_sum(*lats):
    """Orthogonal direct sum, summands in the given order."""
    total = sum(l.rank for l in lats)
    g = [[0] * total for _ in range(total)]
    off = 0
    for l in lats:
        for i, row in enumerate(l.gram, off):
            g[i][off:off + l.rank] = row
        off += l.rank
    name = "+".join(l.name or "?" for l in lats)
    return Lattice(g, name=name)


# ---------------------------------------------------------------------------
# named lattice expressions:  "U(2)^3+E8+A1^2", "U^3+D8v(2)+A1", "K7+H7(2)"

_TERM_RE = re.compile(
    r"^(U|V|E8|A(\d+)|D(\d+)|K(\d+)|H(\d+))(v?)(?:\((-?\d+)\))?(?:\^(\d+))?$")


# the atoms of _TERM_RE: U, V and E8 by name, the others by first letter
_ATOMS = {"U": hyperbolic, "V": odd_plane, "E8": root_E8,
          "A": root_A, "D": root_D, "K": plane_K, "H": plane_H}


def _build_atom(name):
    if name in _ATOMS:
        return _ATOMS[name]()
    return _ATOMS[name[0]](int(name[1:]))


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
    "v" suffix for the dual (taken before rescaling, as in "D8v(2)"),
    which must come out integral after its scale.  The rank and the
    numbers p and m are capped before anything is built.
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
        scale = None if scale is None else int(scale)
        if take_dual:
            lat = dual(lat, scale)
        elif scale is not None:
            lat = rescale(lat, scale)
        summands += [lat] * k
    if len(summands) == 1:
        return summands[0]
    return direct_sum(*summands)


# ---------------------------------------------------------------------------
# sublattices of a fixed ambient lattice

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

    - e0, f0, e1, f1, e2, f2: the isotropic pair of each U(2) block, as
      hyperbolic_pair returns it (square 0, divisibility 2, <e_b, f_b> = 2);
    - r0 .. r7: the E8 basis roots at coordinates 6..13 (square -2);
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
            **{"%s%d" % (name, b): _unit(n, 2 * b + k)
               for b in range(3) for k, name in enumerate("ef")},
            **{"r%d" % i: _unit(n, 6 + i) for i in range(8)},
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
# JSON interchange: {"name": ..., "gram": [["n", ...], ...]}

def lattice_to_json(lat):
    """Plain-dict form of a lattice; Gram entries become decimal strings."""
    return {
        "name": lat.name,
        "gram": [[str(x) for x in row] for row in lat.gram],
    }


_ENTRY_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
# digits of the longest number within MAX_ENTRY_BITS
_MAX_DIGITS = len(str(2 ** MAX_ENTRY_BITS))


def parse_entry(x):
    """A JSON matrix entry as an int: an int (not a bool), or a string "n"
    or "p/q" of decimal digits, refused before conversion if a number in it
    has more digits than 2^MAX_ENTRY_BITS.  "p/q" is reduced; a number of
    it beyond MAX_ENTRY_BITS, a value that is not an integer, and anything
    else raise ValueError."""
    if type(x) is int:
        num, den = x, 1
    else:
        if type(x) is not str or not _ENTRY_RE.fullmatch(x):
            raise ValueError('entry %.40r is neither an int nor a "p/q" string'
                             % (x,))
        num, _, den = x.partition("/")
        if max(len(num.lstrip("-")), len(den)) > _MAX_DIGITS:
            raise ValueError("an entry exceeds the cap of %d bits" % MAX_ENTRY_BITS)
        num, den = int(num), int(den or 1)
        if not den:
            raise ValueError("entry %r has a zero denominator" % x)
        g = gcd(num, den)
        num, den = num // g, den // g
    _check_size(0, [num, den])
    if den != 1:
        raise ValueError("entry %r is not an integer" % x)
    return num


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

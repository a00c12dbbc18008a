"""Independent checks for the benchmark, in plain integer arithmetic.

Nothing here calls latsym: every function recomputes a fact about the
standard lattice Lambda = U(2)^3 + E8 + A1^2 from its Gram matrix alone, so
that the benchmark can judge the program's outputs against computations
made apart from it.  Matrices are lists of integer rows acting on column
coordinates, in the basis of the standard model (U(2) blocks at 0..5, E8
at 6..13, the A1 pair at 14 and 15).
"""

from fractions import Fraction
from math import gcd

RANK = 16
# Lambda^v / Lambda is F2^8 on these coordinates: the U(2) blocks and A1^2.
DISC_COORDS = (0, 1, 2, 3, 4, 5, 14, 15)
# E8 node order 1-3-4-5-6-7-8 chain with node 2 attached to node 4.
E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
ORDER_CAP = 10000


def standard_gram():
    """Gram matrix of Lambda in the standard basis, built from its blocks."""
    g = [[0] * RANK for _ in range(RANK)]
    for b in range(3):
        g[2 * b][2 * b + 1] = g[2 * b + 1][2 * b] = 2
    for i in range(8):
        g[6 + i][6 + i] = -2
    for a, b in E8_EDGES:
        g[5 + a][5 + b] = g[5 + b][5 + a] = 1
    g[14][14] = g[15][15] = -2
    return g


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def inner(gram, x, y):
    return sum(a * b for a, b in zip(x, mat_vec(gram, y)))


def square(gram, x):
    return inner(gram, x, x)


def divisibility(gram, x):
    """The positive generator of the ideal <x, L>."""
    out = 0
    for c in mat_vec(gram, x):
        out = gcd(out, c)
    return out


def reflection_matrix(gram, v):
    """Matrix of x -> x - 2<x, v>/<v, v> v; raises if it is not integral."""
    q = square(gram, v)
    gv = mat_vec(gram, v)
    m = identity(len(gram))
    for j in range(len(gram)):
        num = 2 * gv[j]
        if num % q:
            raise ValueError("reflection in %s is not integral" % (v,))
        c = num // q
        for i in range(len(gram)):
            m[i][j] -= c * v[i]
    return m


def reflect(gram, u, v):
    """The image of v under the reflection in u."""
    num = 2 * inner(gram, v, u)
    q = square(gram, u)
    if num % q:
        raise ValueError("reflection in %s is not integral" % (u,))
    c = num // q
    return [a - c * b for a, b in zip(v, u)]


def order_by_multiplication(m, cap=ORDER_CAP):
    """Least k >= 1 with m^k = id, found by repeated multiplication."""
    ident = identity(len(m))
    power = m
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = mat_mul(m, power)
    raise ValueError("order exceeds %d" % cap)


def _det_fraction(rows):
    """Determinant of a small square matrix by exact Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                t = a[r][c] / a[c][c]
                a[r] = [x - t * y for x, y in zip(a[r], a[c])]
    return det


def orientation_character(gram, m):
    """Whether m preserves the orientation of positive definite 3-planes.

    P is spanned by p_i = e_i + f_i, one per U(2) block, a maximal positive
    definite subspace of Lambda; m lies in O+ exactly when the matrix of
    pairings <p_i, m p_j> has positive determinant.
    """
    ps = []
    for b in range(3):
        p = [0] * RANK
        p[2 * b] = p[2 * b + 1] = 1
        ps.append(p)
    images = [mat_vec(m, p) for p in ps]
    return _det_fraction([[inner(gram, p, q) for q in images] for p in ps]) > 0


def disc_action(m):
    """The action of m on Lambda^v / Lambda = F2^8, as a 0/1 matrix.

    A dual vector is y/2 with y integral on DISC_COORDS and even on the E8
    coordinates, so its image's class only reads m on DISC_COORDS mod 2.
    """
    return [[m[i][j] % 2 for j in DISC_COORDS] for i in DISC_COORDS]


def f2_order(a, cap=ORDER_CAP):
    """Order of an invertible matrix over F2."""
    ident = identity(len(a))
    power = a
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = [[x % 2 for x in row] for row in mat_mul(a, power)]
    raise ValueError("order over F2 exceeds %d" % cap)


def disc_order(m):
    return f2_order(disc_action(m))


def in_coinvariant(m, w, order):
    """Whether w is orthogonal to the fixed lattice of m.

    The orbit sum of w under m is fixed by m and orthogonal to the fixed
    lattice exactly when w is, and the fixed lattice is nondegenerate, so
    w lies in the coinvariant lattice iff the orbit sum vanishes.
    """
    total = [0] * len(w)
    v = list(w)
    for _ in range(order):
        total = [a + b for a, b in zip(total, v)]
        v = mat_vec(m, v)
    return not any(total)


def wall_class(gram, x):
    """The wall class of a vector of Lambda by square and divisibility."""
    sq = square(gram, x)
    div = divisibility(gram, x)
    if (sq, div) == (-2, 1):
        return "PEX2"
    if (sq, div) == (-4, 2):
        return "PEX4"
    if (sq, div) == (-6, 2):
        return "WALL6"
    if (sq, div) == (-12, 2) and all(c % 2 == 0 for c in x[:6]):
        return "WALL12"
    return None


def det_and_signature(gram):
    """(det, positive index, negative index) of a symmetric integer matrix.

    Diagonalises by congruence with unimodular row and column operations,
    which keep the determinant, and reads both from the pivots.
    """
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    pivots = []
    for k in range(n):
        if a[k][k] == 0:
            j = next((t for t in range(k + 1, n) if a[t][t]), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((t for t in range(k + 1, n) if a[k][t]), None)
                if j is None:
                    return 0, None, None
                for t in range(n):
                    a[k][t] += a[j][t]
                for t in range(n):
                    a[t][k] += a[t][j]
        d = a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                c = a[i][k] / d
                a[i] = [x - c * y for x, y in zip(a[i], a[k])]
                for t in range(n):
                    a[t][i] -= c * a[t][k]
        pivots.append(d)
    det = Fraction(1)
    for d in pivots:
        det *= d
    return (int(det), sum(1 for d in pivots if d > 0),
            sum(1 for d in pivots if d < 0))


def genus_string_parts(text):
    """(pos, neg, [(q, signed rank, oddity or None)]) of a symbol.

    Reads strings such as "II_(3,12)2^7_7" or "II_(0,4)2^{-2}4^{-2}"; each
    token is a scale q = p^k with the rank signed by its sign and, for a
    type I constituent at p = 2, an oddity subscript.
    """
    if not text.startswith(("II_(", "I_(")):
        raise ValueError("unreadable genus symbol %r" % text)
    head, _, body = text.partition(")")
    sig = head.partition("_(")[2]
    pos, neg = (int(s) for s in sig.split(","))
    tokens = []
    i = 0
    while i < len(body):
        j = body.index("^", i)
        q = int(body[i:j])
        if body[j + 1] == "{":
            k = body.index("}", j)
            rank = int(body[j + 2:k])
            i = k + 1
        else:
            rank = int(body[j + 1])
            i = j + 2
        odd = None
        if i < len(body) and body[i] == "_":
            odd = int(body[i + 1])
            i += 2
        tokens.append((q, rank, odd))
    return pos, neg, tokens


def _prime_of(q):
    p = 2
    while q % p:
        p += 1
    return p


def symbol_det(text):
    """The signed determinant a genus symbol states."""
    _pos, neg, tokens = genus_string_parts(text)
    det = 1
    for q, rank, _odd in tokens:
        det *= q ** abs(rank)
    return -det if neg % 2 else det


def oddity_formula_holds(text):
    """Whether pos - neg = oddity - sum of p-excesses (mod 8).

    Scale-1 constituents contribute nothing to either side for an even
    lattice, so the explicit tokens are enough.
    """
    pos, neg, tokens = genus_string_parts(text)
    total = 0
    for q, rank, odd in tokens:
        p = _prime_of(q)
        k = 0
        while q > 1:
            q //= p
            k += 1
        odd_power_minus = 4 if (k % 2 == 1 and rank < 0) else 0
        if p == 2:
            total += (odd or 0) + odd_power_minus
        else:
            total -= abs(rank) * (p ** k - 1) + odd_power_minus
    return (pos - neg - total) % 8 == 0

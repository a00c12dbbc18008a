"""Exact integer and rational matrix helpers.

Matrices are lists of row lists holding ints or Fractions.  Everything here
is exact: no floats anywhere.  Determinants, signatures and the short-vector
data all come from one fraction-free Bareiss elimination on plain ints
(rational matrices are first scaled by the lcm of their denominators), which
stays cheap on the dense rank 28-34 Grams that genus symbols are asked for.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    assert not a or len(a[0]) == len(b)
    bt = transpose(b)
    return [[sum(map(mul, ra, cb)) for cb in bt] for ra in a]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def vec_mat(v, a):
    return [sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0]))]


def scalar_mul(c, a):
    return [[c * x for x in row] for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_integer_matrix(a):
    return all(Fraction(x).denominator == 1 for row in a for x in row)


def to_int_matrix(a):
    """Cast a matrix of integral Fractions to plain ints."""
    out = []
    for row in a:
        r = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise ValueError("matrix entry %s is not an integer" % (x,))
            r.append(f.numerator)
        out.append(r)
    return out


def dot(u, v):
    return sum(map(mul, u, v))


def gcd_vec(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


# Miller-Rabin with the first 13 prime bases is exact for every n below
# PRIME_BOUND (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n):
    """Primality of an int by deterministic Miller-Rabin.

    A composite is decided at any size, since a failed round proves it;
    an n of at least PRIME_BOUND that passes every round raises
    ValueError, since the test is not proven there.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIME_BOUND:
        raise ValueError("primality of %d is beyond the proven bound %d"
                         % (n, PRIME_BOUND))
    return True


def bareiss(m, symmetric=False):
    """Fraction-free Gaussian elimination of a square int matrix, in place.

    After step k, m[k][k] is the leading (k+1)-minor D_k of the matrix as
    rearranged so far and m[k][j], j > k, the rest of pivot row k; every
    division is exact.  A zero pivot is replaced by a row swap or, with
    symmetric=True, by a congruence that keeps the form: a swap of row and
    column with a later nonzero diagonal entry, else row/col i += row/col j
    for the first nonzero off-diagonal entry (i, j) of the remaining block.
    A positive definite matrix needs neither.  Returns (r, sign): r < n
    pivots when m is singular, sign the parity of the plain row swaps.

    With symmetric=True the matrix must be symmetric, and only the upper
    triangle is updated: each intermediate entry is a bordered minor
    det(rows 0..k-1, i; columns 0..k-1, j), symmetric in i and j, so row i
    needs columns i.. only, with its multiplier read from the pivot row.
    The strict lower triangle is left stale; the trailing block is
    mirrored from its upper triangle before a zero pivot is replaced.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            if symmetric:
                for i in range(k + 1, n):
                    m[i][k:i] = [m[j][i] for j in range(k, i)]
                piv = next((i for i in range(k + 1, n) if m[i][i]), None)
                if piv is None:
                    fold = next(((i, j) for i in range(k, n)
                                 for j in range(i + 1, n) if m[i][j]), None)
                    if fold is None:
                        return k, sign
                    piv, j = fold
                    m[piv] = [x + y for x, y in zip(m[piv], m[j])]
                    for row in m:
                        row[piv] += row[j]
                for row in m:
                    row[k], row[piv] = row[piv], row[k]
            else:
                piv = next((i for i in range(k + 1, n) if m[i][k]), None)
                if piv is None:
                    return k, sign
                sign = -sign
            m[k], m[piv] = m[piv], m[k]
        d, rk = m[k][k], m[k]
        for i in range(k + 1, n):
            ri = m[i]
            s, c = (i, rk[i]) if symmetric else (k + 1, ri[k])
            ri[s:] = [(x * d - c * y) // prev for x, y in zip(ri[s:], rk[s:])]
        prev = d
    return n, sign


def _scaled(a):
    """(L, L * a as ints) for L the lcm of the denominators of a."""
    if set(map(type, chain.from_iterable(a))) <= {int}:
        return 1, [list(row) for row in a]
    fa = [[Fraction(x) for x in row] for row in a]
    den = lcm(*(x.denominator for row in fa for x in row))
    return den, [[(x * den).numerator for x in row] for row in fa]


def det(a):
    """Determinant by fraction-free Bareiss elimination (integer input)."""
    n = len(a)
    m = [[int(x) for x in row] for row in a]
    r, sign = bareiss(m)
    if r < n:
        return 0
    return sign * m[n - 1][n - 1] if n else 1


def frac_det(a):
    """Determinant over the rationals, as a Fraction."""
    den, m = _scaled(a)
    return Fraction(det(m), den ** len(m))


def det_signature(g):
    """Determinant and signature (n_plus, n_minus) of a symmetric matrix,
    from one symmetric Bareiss pass.

    The signs of the pivots D_k / D_{k-1} of a congruent form give the
    signature (Jacobi).  A degenerate form gives (0, None).
    """
    den, m = _scaled(g)
    n = len(m)
    r, _sign = bareiss(m, symmetric=True)
    if r < n:
        return 0, None
    pivots = [1] + [m[k][k] for k in range(n)]
    plus = sum(1 for k in range(n) if (pivots[k] > 0) == (pivots[k + 1] > 0))
    d = pivots[n] if den == 1 else Fraction(pivots[n], den ** n)
    return d, (plus, n - plus)


def frac_inverse(a):
    """Exact inverse of a square matrix, as Fractions.  Raises on singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k] != 0:
                piv = i
                break
        if piv is None:
            raise ValueError("matrix is singular")
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [row[n:] for row in m]


def smith_normal_form(m):
    """Smith normal form with transforms.

    Returns (d, u, v) with u * m * v == d, u and v unimodular, and d diagonal
    with nonnegative entries d[0][0] | d[1][1] | ...
    """
    a = [[int(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        # col_i += c * col_j
        for row in a:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # find a pivot of smallest absolute value in the remaining block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best = x
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # clear row and column t; restart if a remainder creates a smaller entry
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        d = a[t][t]
        culprit = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % d:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            add_row(t, culprit, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return a, u, v


def kernel_basis(m):
    """Basis of the integer kernel {x : m x = 0}, as a list of row vectors.

    The returned basis spans a saturated (primitive) sublattice of Z^n.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [list(r) for r in identity(cols)]
    d, _u, v = smith_normal_form(m)
    r = 0
    for i in range(min(rows, cols)):
        if d[i][i] != 0:
            r += 1
    # m (v e_j) = u^-1 d e_j = 0 exactly for the zero diagonal columns
    out = []
    for j in range(r, cols):
        out.append([v[i][j] for i in range(cols)])
    return out


def saturate_rows(m):
    """Saturation of the row span: basis of span_Q(rows) ∩ Z^n."""
    cols = len(m[0]) if m else 0
    nonzero = [row for row in m if any(row)]
    if not nonzero:
        return []
    # span_Q(rows) is the orthogonal complement (standard dot) of ker(m),
    # and the integer kernel of an integer matrix is always saturated.
    k = kernel_basis(nonzero)
    if not k:
        return [list(r) for r in identity(cols)]
    return kernel_basis(k)


def symmetric_signature(g):
    """Signature (n_plus, n_minus) of a nondegenerate symmetric matrix;
    raises on a degenerate form."""
    sig = det_signature(g)[1]
    if sig is None:
        raise ValueError("degenerate quadratic form")
    return sig

"""Exact integer matrix helpers.

Matrices are lists of row lists holding ints.  Everything here is exact:
no floats anywhere.  Fractions appear only in the answers of frac_det and
frac_inverse; mat_mul has one form, whose entries are whatever its
arithmetic makes of its inputs.  f2_least is the one F2
elimination, on int bitmasks (f2_mask); f2_relations is built on it.
Fraction-free Bareiss elimination runs on plain ints: bareiss, with row
swaps, gives determinants and solutions; scale_pass, the one symmetric
elimination, gives a symmetric matrix's determinant, signature, 2-adic
Jordan splitting, frame and short vectors.  It finds each 2-adic piece by
bit tests in the block it eliminates, and takes two pivots at once, a pair
or two 1x1 pieces of one scale, wherever it can.
"""

from functools import reduce
from itertools import chain, islice
from math import gcd
from operator import add, eq, mul, or_


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    """a b, each row a combination of the rows of b over the nonzero
    coefficients of that row of a (a coefficient 1 copies the row).  An
    entry is an int or a Fraction as its arithmetic makes it."""
    assert not a or len(a[0]) == len(b)
    out = []
    for ra in a:
        acc = None
        for c, rb in zip(ra, b):
            if c:
                acc = ((list(rb) if c == 1 else [c * y for y in rb])
                       if acc is None else [x + c * y for x, y in zip(acc, rb)])
        out.append([0] * len(b[0] if b else ()) if acc is None else acc)
    return out


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def dot(u, v):
    return sum(map(mul, u, v))


def f2_mask(v):
    """The parities of an int vector as a bitmask, bit i for entry i."""
    return sum((c & 1) << i for i, c in enumerate(v))


def f2_least(pivots, mask):
    """The least element of mask + span(pivots) over F2, for bitmasks
    pivots with distinct leading bits: each pivot's leading bit set in mask
    is cleared, highest first.  0 exactly when mask lies in the span."""
    for p in sorted(pivots, reverse=True):
        if mask ^ p < mask:
            mask ^= p
    return mask


def f2_relations(masks):
    """One F2 elimination of int bitmasks, in order: for each mask 0 if it
    is independent of the masks before it, else the bitmask, its own bit
    included, of the earlier independent masks that XOR with it to zero.
    Mask i carries its own bit i below the mask bits, so what f2_least
    leaves of a dependent mask is its relation."""
    n, pivots, out = len(masks), [], []
    for i, mask in enumerate(masks):
        least = f2_least(pivots, mask << n | 1 << i)
        if least >> n:
            pivots.append(least)
        out.append(0 if least >> n else least)
    return out


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


def bareiss(m):
    """Fraction-free Gaussian elimination of an int matrix, in place.

    The pivots come from the leading n x n block of the n rows of m; any
    further columns (an appended identity, say) are carried along.

    After step k, m[k][k] is the leading (k+1)-minor D_k of the matrix as
    rearranged so far and m[k][j], j > k, the rest of pivot row k; every
    division is exact.  A zero pivot is replaced by a row swap.  Returns
    (r, sign): r < n pivots when m is singular, sign the parity of the
    swaps.

    A step only scales a row with multiplier 0 by D_k / D_{k-1}, so such a
    row keeps the D_j it was last scaled to, at[i], and x D_{k-1} / D_j
    (exact) brings it up to date when it is next used or at a zero pivot.
    """
    n, sign, prev, at = len(m), 1, 1, [1] * len(m)
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k, n):
                m[i][k:] = [x * prev // at[i] for x in m[i][k:]]
                at[i] = prev
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return k, sign
            sign = -sign
            m[k], m[piv] = m[piv], m[k]
        rk = m[k]
        if at[k] != prev:
            rk[k:] = [x * prev // at[k] for x in rk[k:]]
        d = rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            if ri[k]:
                if at[i] != prev:
                    ri[k:] = [x * prev // at[i] for x in ri[k:]]
                c = ri[k]
                ri[k + 1:] = [(x * d - c * y) // prev
                              for x, y in zip(ri[k + 1:], rk[k + 1:])]
                at[i] = d
        prev = d
    return n, sign


def det(a):
    """Determinant of an int matrix by fraction-free Bareiss elimination."""
    m = [list(row) for row in a]
    n = len(m)
    r, sign = bareiss(m)
    return 0 if r < n else sign * m[n - 1][n - 1] if n else 1


def frac_det(a):
    """Determinant over the rationals, as a Fraction."""
    from fractions import Fraction
    return Fraction(det(a))


def scale_pass(m):
    """Symmetric Bareiss elimination of the n rows of an int matrix whose
    leading n x n block G is symmetric, any further columns carried along.
    Its pivots, ordered scale by scale, are the 2-adic Jordan splitting.

    Returns None for a degenerate G, else (pivots, steps, bounds, rows,
    order) over the rearranged basis, whose vector k is vector order[k] of
    G unless a pair was folded: pivots[k] = D_k, its leading (k+1)-minor;
    rows[k] pivot row k, its entries (k, k..) and then its carried columns,
    so the form is sum_k (sum_j rows[k][j] x_{k+j})^2 / (D_k D_{k-1}),
    D_-1 = 1, and the carried T of [G | I] has T G T^T = diag(D_{k-1} D_k);
    steps the (k, s, size) of each piece of scale 2^s, a 1x1 block at k or
    a pair at k, k+1; bounds the (k, upper rows (i, i..), carried columns
    after them) of the trailing block B = D_{k-1} S at each scale boundary
    k, S the Schur complement of the leading k x k block.

    Rows are kept from the diagonal on (an entry is a bordered minor,
    symmetric in its row and column, so a row's multiplier is read from
    the pivot row).  A step leaves a row whose multiplier is 0 alone: it
    keeps the D_j it was last scaled to, at[i], so it holds D_j S, and
    x D_{k-1} / D_j (exact) brings it up to date when it is next used and
    at a scale boundary.  There the lowest set bit v of B gives the scale
    s = v - v_2(D_{k-1}); S stays divisible by 2^s while pieces of scale s
    are taken (their inverses have valuation -s), so an entry x of a row
    at D_j is odd at scale s iff bit v_2(D_j) + s of x is set.  A piece is
    the first row with an odd diagonal entry; failing one, the first row
    with an odd entry and its first odd column, a pair whose first
    diagonal entry 0 is swapped with its partner's, or folded by row/col
    k += row/col k+1 when both are 0, which keeps it odd; failing both,
    the scale has ended.  The piece moves ahead of the rows left, which
    hand it their entries in its columns, and those columns move in the
    pivot rows taken.  A row with no odd entry has even multipliers onto
    each piece of the scale, so it gets none: no search goes over it again.

    A 1x1 piece at k is taken with the first row after the even ones whose
    diagonal entry after step k, (x D_k - z_b^2) / D_{k-1}, is odd, moved
    to k+1 before any update.  Two pivots at k, k+1 take one step for row
    k+1, u1, then one two-step update (Sylvester's identity) of each later
    row b with a multiplier onto either: B_{k+2}[b][j] = (D_{k+1} x_j -
    u1_b y_j + c_b z_j) / D_{k-1}, c_b = (u1_b e - D_{k+1} f_b) / D_k, with
    x, y and z rows b, k+1 and k at step k, e = z_{k+1} and f_b = z_b; each
    division is exact.  Failing a second piece, a 1x1 piece takes one step.
    Then no row has an odd diagonal entry, nor gets one from a pair (2^s
    times its inverse is even), so none is looked for until the scale ends.
    """
    def move(to, r):
        """Row r of the block moves ahead of rows to..r-1 (see above)."""
        row = t[r] if at[r] == prev else [x * prev // at[r] for x in t[r]]
        new = row[:1]
        for c in range(to, r):
            x = t[c].pop(r - c)
            new.append(x if at[c] == prev else x * prev // at[c])
        for c, rc in enumerate(chain(rows, t[:to]), -k):
            rc.insert(to - c, rc.pop(r - c))
        t[to:r + 1] = [new + row[1:]] + t[to:r]
        at[to:r + 1] = [prev] + at[to:r]
        order[k + to:k + r + 1] = [order[k + r]] + order[k + to:k + r]
    n, t, at = len(m), [row[i:] for i, row in enumerate(m)], [1] * len(m)
    pivots, steps, bounds, rows, order, prev = [], [], [], [], list(range(n)), 1
    while t:
        w = len(t)
        t = [row if s == prev else [x * prev // s for x in row]
             for row, s in zip(t, at)]
        bounds.append((n - w, t))
        low = reduce(or_, chain.from_iterable(map(islice, t, range(w, 0, -1))))
        if not low:
            return None
        scale = (low & -low).bit_length() - (prev & -prev).bit_length()
        t, at, even, odd = [row[:] for row in t], [prev] * w, 0, True
        while t:
            # rows t[:even] have no odd entry at this scale, and once odd
            # is False no row has an odd diagonal entry
            k, w = n - len(t), len(t)
            r = next((r for r in range(even, w if odd else even)
                      if t[r][0] & ((at[r] & -at[r]) << scale)), None)
            block = (r,)
            if r is None:
                odd = False
                for r in range(even, w):
                    b, row = (at[r] & -at[r]) << scale, t[r]
                    j = next((j for j in range(1, w - r) if row[j] & b), 0)
                    if j:
                        break
                    even = r + 1
                else:
                    break
                block = (r, r + j)
            for to, r in enumerate(block):
                if r != to:
                    move(to, r)
            steps.append((k, scale, len(block)))
            if len(block) == 2 and not t[0][0]:
                ua, ub = ([x * prev // at[i] for x in t[i]] for i in (0, 1))
                at[0] = at[1] = prev
                if ub[0]:
                    t[0], t[1] = [ub[0], ua[1]] + ub[1:], [0] + ua[2:]
                    order[k], order[k + 1] = order[k + 1], order[k]
                    for p, row in enumerate(rows):
                        row[k - p], row[k - p + 1] = row[k - p + 1], row[k - p]
                else:
                    t[0], t[1] = [2 * ua[1], ua[1]] + list(
                        map(add, ua[2:], ub[1:])), ub
                    for p, row in enumerate(rows):
                        row[k - p] += row[k - p + 1]
            if at[0] != prev:
                t[0], at[0] = [x * prev // at[0] for x in t[0]], prev
            z, d = t[0], t[0][0]
            if len(block) == 1:
                # a second 1x1 piece
                r = next((b for b in range(even + 1, w) if (
                    (t[b][0] if at[b] == prev else t[b][0] * prev // at[b]) * d
                    - z[b] * z[b]) // prev & ((d & -d) << scale)), None)
                odd = r is not None
                if odd:
                    move(1, r)
                    block = (0, r)
                    steps.append((k + 1, scale, 1))
            if len(block) == 1:
                for b in range(1, w):
                    c = z[b]
                    if c:
                        rb = (t[b] if at[b] == prev
                              else [x * prev // at[b] for x in t[b]])
                        t[b] = [(x * d - c * y) // prev
                                for x, y in zip(rb, z[b:])]
                        at[b] = d
                pivots.append(d)
                rows.append(z)
            else:
                y = t[1] if at[1] == prev else [x * prev // at[1] for x in t[1]]
                e = z[1]
                u1 = [(x * d - e * v) // prev for x, v in zip(y, z[1:])]
                d1 = u1[0]
                for b in range(2, w):
                    f, u = z[b], u1[b - 1]
                    if f or u:
                        rb = (t[b] if at[b] == prev
                              else [x * prev // at[b] for x in t[b]])
                        c = (u * e - d1 * f) // d
                        t[b] = [(d1 * x - u * v + c * s) // prev
                                for x, v, s in zip(rb, y[b - 1:], z[b:])]
                        at[b] = d1
                pivots += [d, d1]
                rows += [z, u1]
            prev = pivots[-1]
            del t[:len(block)], at[:len(block)]
    return pivots, steps, bounds, rows, order


def pivot_form(pivots):
    """Determinant and signature of a symmetric int matrix from the leading
    minors D_k of a congruent form: Jacobi's rule reads the signature off
    the signs of D_k / D_{k-1}."""
    signs = [True] + [d > 0 for d in pivots]
    n, plus = len(pivots), sum(map(eq, signs, signs[1:]))
    return (pivots[-1] if n else 1), (plus, n - plus)


def det_signature(g):
    """Determinant and signature (n_plus, n_minus) of a symmetric int
    matrix, from one scale_pass.  A degenerate form gives (0, None)."""
    jordan = scale_pass(g)
    return (0, None) if jordan is None else pivot_form(jordan[0])


def solve(a, b):
    """(D, Y) with a Y = D b, for a square int matrix a and int rows b;
    ValueError on a singular a.  bareiss on the rows of [a | b] leaves
    U Y = D B with D the last pivot; Y = D a^-1 b is integral (Cramer's
    rule), so Y_i = (D B_i - sum_{j>i} u_ij Y_j) / u_ii divides exactly."""
    n, m = len(a), [list(ra) + list(rb) for ra, rb in zip(a, b)]
    if bareiss(m)[0] < n:
        raise ValueError("matrix is singular")
    d = m[n - 1][n - 1] if n else 1
    y = [None] * n
    for i in range(n - 1, -1, -1):
        acc, u = [d * x for x in m[i][n:]], m[i]
        for j in range(i + 1, n):
            if u[j]:
                acc = [x - u[j] * z for x, z in zip(acc, y[j])]
        y[i] = [x // u[i] for x in acc]
    return d, y


def frac_inverse(a):
    """Exact inverse of an int matrix, ints where integral, else Fractions:
    Y / D for (D, Y) = solve(a, I)."""
    from fractions import Fraction
    d, y = solve(a, identity(len(a)))
    return [[x // d if x % d == 0 else Fraction(x, d) for x in row]
            for row in y]


def smith_normal_form(m):
    """Smith normal form with transforms.

    Returns (d, u, v) with u * m * v == d, u and v unimodular, and d diagonal
    with nonnegative entries d[0][0] | d[1][1] | ...  for an int matrix m.
    """
    d, u, vt = _smith(m, True)
    return d, u, transpose(vt)


def _smith(m, with_u):
    """(d, u, v^T) of smith_normal_form for an int matrix m, u only if
    with_u.  Row operations act on the rows of m followed by those of u,
    column operations on the rows of v^T and on the rows of m that are
    nonzero in the pivot column.  The block left after a pivot q is
    divisible by q, and row and column operations keep it so: a pivot of
    the same absolute value needs no divisibility scan.
    """
    def least(row):
        return min(map(abs, filter(None, row[t:cols])), default=0)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) + ([int(i == j) for j in range(rows)] if with_u else [])
         for i, row in enumerate(m)]
    vt = identity(cols)
    t, last = 0, 1
    # mins[i]: the least nonzero |entry| of row i in columns t.., 0 for none
    mins = list(map(least, a))
    while t < min(rows, cols):
        # a pivot of least absolute value, the first in row order
        best = min(filter(None, mins[t:]), default=0)
        if not best:
            break
        i = mins.index(best, t)
        j = t + [abs(x) for x in a[i][t:cols]].index(best)
        a[t], a[i], mins[t], mins[i] = a[i], a[t], mins[i], mins[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        vt[t], vt[j] = vt[j], vt[t]
        top, p = a[t], a[t][t]
        # the rows the operations change (rows before t are 0 from t on)
        hit, dirty = [i for i in range(t, rows) if a[i][t]], False
        for i in hit[1:]:
            c = -(a[i][t] // p)
            a[i] = [x + c * y for x, y in zip(a[i], top)]
            dirty = dirty or a[i][t] != 0
        for j in range(t + 1, cols):
            if top[j]:
                c = -(top[j] // p)
                for i in hit:
                    if a[i][t]:
                        a[i][j] += c * a[i][t]
                vt[j] = [x + c * y for x, y in zip(vt[j], vt[t])]
                dirty = dirty or top[j] != 0
        # every entry of the remaining block must be a multiple of p
        q = abs(p)
        if not dirty and q != last:
            i = next((i for i in range(t + 1, rows)
                      if gcd(q, *a[i][t + 1:cols]) != q), None)
            if i is not None:
                a[t], dirty = [x + y for x, y in zip(top, a[i])], True
        for i in hit:
            mins[i] = least(a[i])
        if dirty:
            continue
        if p < 0:
            a[t] = [-x for x in top]
        t, last = t + 1, q
    return ([row[:cols] for row in a],
            [row[cols:] for row in a] if with_u else None, vt)


def kernel_basis(m):
    """Basis of the integer kernel {x : m x = 0}, as a list of row vectors.

    The returned basis spans a saturated (primitive) sublattice of Z^n:
    with u m v = d, m (v e_j) = u^-1 d e_j = 0 for the zero columns j of d.
    """
    if not m:
        return []
    d, _u, vt = _smith(m, False)
    return vt[sum(1 for k in range(min(len(d), len(d[0]))) if d[k][k]):]


def symmetric_signature(g):
    """Signature (n_plus, n_minus) of a nondegenerate symmetric matrix;
    raises on a degenerate form."""
    sig = det_signature(g)[1]
    if sig is None:
        raise ValueError("degenerate quadratic form")
    return sig

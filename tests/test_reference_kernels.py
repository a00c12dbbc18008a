"""The integer kernels against the rational routines they replaced.

The reference implementations below are the earlier versions of the
characteristic polynomial (Faddeev-LeVerrier over Q, and over Z with exact
divisions), the multiplicative order (exact cyclotomic division over Z),
the O+ test (a decomposition into rational reflections, counting the
positive mirrors, whose orthogonal basis also checks the positive frame),
the short-vector enumeration (Fincke-Pohst on an exact LDL), the F2
eliminations (the row-reduced one of the discriminant subgroups and the
kernel of their forms, and the parity loop of the wall scan), the
determinant and signature (Gaussian elimination over Q), the inverse
(Gauss-Jordan over Q), the Bareiss pass that updated the whole trailing
block, the scale-ordered pass that found its 2-adic pieces by a second
elimination over F_2 at each scale boundary, the Jordan splitting over
Z_p (rational elimination read p-adically), the discriminant action
(Fraction lifts, q and b, and the order of the permutation of all
elements), the group permutations applied element by element and the
coset quotient keyed by its least member, the wall scan that classifies every enumerated vector, and the
eigenspace signatures of f + f^-1 over the real cyclotomic subfield
(Fraction tuples, signs by interval bisection).  The integer versions
must agree with them on random isometries of Lambda and of small lattices
of every signature type, on random symmetric Grams, on random square
matrices, on random maps of small discriminant modules, and on isometries
of order 2, 3, 5 and 7.
"""

import contextlib
import importlib.util
import io
import itertools
import json
import random
import re
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache, reduce
from math import ceil, floor, gcd, isqrt, lcm
from operator import mul, xor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from latsym import cli, discform, fixtures, genus, intmat, isometry, lattice, walls
from latsym.lattice import standard_model

# ---------------------------------------------------------------------------
# reference implementations


def ref_char_poly(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    mk = intmat.identity(n)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    for k in range(1, n + 1):
        mk = ref_mat_mul(a, mk)
        c = -sum(mk[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def ref_int_char_poly(m):
    """Coefficients of det(xI - M), low degree first, integers.

    Faddeev-LeVerrier over int: every M_k is an integer polynomial in M,
    so each division by k is exact.
    """
    n = len(m)
    mk = intmat.identity(n)
    coeffs = [0] * n + [1]
    for k in range(1, n + 1):
        mk = intmat.mat_mul(m, mk)
        c, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise RuntimeError("characteristic polynomial is not integral")
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return coeffs


def ref_poly_divmod(a, b):
    """Quotient and remainder of integer polynomials, b monic."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 1)
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db]
        if c:
            q[i] = c
            for j in range(db + 1):
                a[i + j] -= c * b[j]
    r = a[:db]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return q, r


@lru_cache(maxsize=None)
def ref_cyclotomic(d):
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly, rem = ref_poly_divmod(poly, ref_cyclotomic(e))
            assert not any(rem)
    return tuple(poly)


@lru_cache(maxsize=None)
def ref_totient(d):
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def ref_order_of(f, cap=10**6):
    """The order as it was found: the Faddeev-LeVerrier polynomial divided
    by cyclotomic polynomials over Z, then the power check."""
    n = f.lattice.rank
    if n == 0:
        return 1
    poly = ref_int_char_poly(f.matrix)
    order = 1
    for d in range(1, 2 * n * n + 2):
        if ref_totient(d) > n:
            continue
        cyc = ref_cyclotomic(d)
        hit = False
        while len(poly) >= len(cyc):
            quo, rem = ref_poly_divmod(poly, cyc)
            if any(rem):
                break
            poly, hit = quo, True
        if hit:
            order = order * d // gcd(order, d)
    power = intmat.identity(n)
    for _ in range(order if len(poly) == 1 else 0):
        power = intmat.mat_mul(power, f.matrix)
    if len(poly) > 1 or power != intmat.identity(n):
        raise ValueError("isometry has infinite order, beyond any cap")
    if order > cap:
        raise ValueError("isometry order exceeds the cap of %d" % cap)
    return order


def _bform(g, x, y):
    n = len(g)
    out = Fraction(0)
    for i in range(n):
        if x[i]:
            out += x[i] * sum(g[i][j] * y[j] for j in range(n))
    return out


def _independent_rows(rows):
    out = []
    pivots = []
    for r in rows:
        r = list(r)
        for p, j in zip(out, pivots):
            if r[j]:
                c = r[j] / p[j]
                r = [a - c * b for a, b in zip(r, p)]
        j = next((k for k, a in enumerate(r) if a), None)
        if j is not None:
            out.append(r)
            pivots.append(j)
    return out


def _ref_orthogonal_basis(g):
    n = len(g)
    rem = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    out = []
    while rem:
        v = next((w for w in rem if _bform(g, w, w) != 0), None)
        if v is None:
            w0 = rem[0]
            wj = next(w for w in rem[1:] if _bform(g, w0, w) != 0)
            v = [a + b for a, b in zip(w0, wj)]
        out.append(v)
        qv = _bform(g, v, v)
        rem = _independent_rows(
            [[a - _bform(g, w, v) / qv * b for a, b in zip(w, v)] for w in rem])
        assert len(rem) == n - len(out)
    return out


def ref_in_O_plus(f):
    """Parity of the positive mirrors in a rational reflection decomposition."""
    g = f.lattice.gram
    basis = _ref_orthogonal_basis(g)
    imgs = [intmat.mat_vec(f.matrix, b) for b in basis]
    positives = 0
    for i, b in enumerate(basis):
        if imgs[i] == b:
            continue
        w = [p - q for p, q in zip(imgs[i], b)]
        if _bform(g, w, w) != 0:
            mirrors = [w]
        else:
            mirrors = [[p + q for p, q in zip(imgs[i], b)], b]
        for w in mirrors:
            qw = _bform(g, w, w)
            if qw > 0:
                positives += 1
            for j in range(i, len(basis)):
                c = 2 * _bform(g, imgs[j], w) / qw
                imgs[j] = [a - c * t for a, t in zip(imgs[j], w)]
        assert imgs[i] == b
    return positives % 2 == 0


def _ldl(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    d = [Fraction(0)] * n
    l = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if m[i][i] <= 0:
            raise ValueError("form is not positive definite")
        d[i] = m[i][i]
        for j in range(i + 1, n):
            l[i][j] = m[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                m[j][k] -= d[i] * l[i][j] * l[i][k]
    return d, l


def _coeff_range(c, r):
    num, den = r.numerator, r.denominator
    s = Fraction(isqrt(num * den) + 1, den)
    return range(ceil(-c - s), floor(-c + s) + 1)


def ref_short_vectors(gram, n):
    rank = len(gram)
    d, l = _ldl([[-x for x in row] for row in gram])
    out = []
    x = [0] * rank

    def descend(i, remaining):
        if i < 0:
            if remaining == 0 and next(c for c in x if c) > 0:
                out.append(tuple(x))
            return
        c = sum(l[i][j] * x[j] for j in range(i + 1, rank))
        for xi in _coeff_range(c, Fraction(remaining) / d[i]):
            used = d[i] * (xi + c) ** 2
            if used <= remaining:
                x[i] = xi
                descend(i - 1, remaining - used)
        x[i] = 0

    descend(rank - 1, Fraction(-n))
    return sorted(out)


# ---------------------------------------------------------------------------
# random isometries


@lru_cache(maxsize=None)
def lambda_generators():
    """Reflections in the monodromy sample (all in O+), reflections in the
    positive vectors e_b + f_b (outside O+) and -id (outside O+)."""
    model = standard_model()
    lam = model.lattice
    gens = [isometry.reflection(lam, v) for v in cli.monodromy_sample(model)]
    for b in range(3):
        e, f = model.named["e%d" % b], model.named["f%d" % b]
        gens.append(isometry.reflection(lam, [x + y for x, y in zip(e, f)]))
    gens.append(isometry.make_isometry(lam, [[-x for x in row] for row in intmat.identity(16)]))
    return tuple(gens)


SMALL = {
    "positive definite": ("A2(-1)", "A1(-1)^3", "A1(-1)+A2(-1)"),
    "negative definite": ("A2+A1", "D4", "A1^3"),
    "indefinite": ("U+A1", "A1(-1)+A1^2", "U(2)+A2", "H7"),
}
SMALL_NAMES = tuple(name for names in SMALL.values() for name in names)


@lru_cache(maxsize=None)
def small_generators(name):
    """Signed permutations preserving the Gram, and integral reflections in
    vectors with coordinates in {-1, 0, 1}."""
    lat = lattice.build_named(name)
    n = lat.rank
    gens = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            m = [[signs[j] if perm[j] == i else 0 for j in range(n)]
                 for i in range(n)]
            try:
                gens.append(isometry.make_isometry(lat, m))
            except ValueError:
                pass
    for v in itertools.product((-1, 0, 1), repeat=n):
        if lat.square(list(v)) != 0:
            try:
                gens.append(isometry.reflection(lat, list(v)))
            except ValueError:
                pass
    return lat, tuple(gens)


def word(gens, picks):
    f = gens[picks[0] % len(gens)]
    for p in picks[1:]:
        f = isometry.compose(f, gens[p % len(gens)])
    return f


PICKS = st.lists(st.integers(0, 10**6), min_size=1, max_size=5)


def test_generator_sets_cover_both_components():
    gens = lambda_generators()
    # a sample reflection, a positive reflection and -id
    assert [ref_in_O_plus(gens[i]) for i in (0, -2, -1)] == [True, False, False]
    for name in SMALL["positive definite"] + SMALL["indefinite"]:
        _lat, gens = small_generators(name)
        assert {ref_in_O_plus(g) for g in gens} == {True, False}, name


# ---------------------------------------------------------------------------
# agreement


P = isometry._P


def assert_char_poly_matches(m):
    exact = ref_int_char_poly(m)
    assert exact == ref_char_poly(m)
    assert isometry._char_poly_mod(m) == [c % P for c in exact]


def assert_same_order(f):
    """order_of gives the reference order, and the n x n path's, or raises
    their message; returns the order, or None for infinite order."""
    try:
        expect = ref_order_of(f)
    except ValueError as exc:
        for order_of in (isometry.order_of, ref_ambient_order_of):
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                order_of(f)
        return None
    assert isometry.order_of(f) == ref_ambient_order_of(f) == expect
    if expect > 1:
        with pytest.raises(ValueError, match="exceeds the cap of %d" % (expect - 1)):
            isometry.order_of(f, cap=expect - 1)
    return expect


@settings(max_examples=15, deadline=None)
@given(PICKS)
def test_lambda_words_match_reference(picks):
    f = word(lambda_generators(), picks)
    assert isometry.in_O_plus(f) == ref_in_O_plus(f)
    assert_char_poly_matches(f.matrix)
    assert_same_order(f)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_NAMES), PICKS)
def test_small_lattice_words_match_reference(name, picks):
    lat, gens = small_generators(name)
    f = word(gens, picks)
    assert isometry.in_O_plus(f) == ref_in_O_plus(f)
    assert_char_poly_matches(f.matrix)
    assert_same_order(f)
    if lat.signature()[0] == 0:
        assert isometry.in_O_plus(f)
    elif lat.signature()[1] == 0:
        assert isometry.in_O_plus(f) == (intmat.det(f.matrix) == 1)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
def test_coinvariant_short_vectors_match_reference(picks):
    f = word(lambda_generators(), picks)
    try:
        isometry.order_of(f)
    except ValueError:
        assume(False)  # infinite order: the invariant lattice may be degenerate
    _inv, coinv = isometry.invariant_coinvariant(f)
    gram = coinv.lattice.gram
    if coinv.rank == 0 or coinv.lattice.signature()[0]:
        return
    for t in (-2, -4, -6, -12):
        assert walls.short_vectors(gram, t) == ref_short_vectors(gram, t)


@pytest.mark.parametrize("name", SMALL["negative definite"] + ("A2v(3)", "D4v(2)"))
def test_small_short_vectors_match_reference(name):
    gram = lattice.build_named(name).gram
    for t in (-2, -3, -4, -6):
        assert walls.short_vectors(gram, t) == ref_short_vectors(gram, t)


@pytest.mark.parametrize("expr, order", [
    ("A1(2)+A1", [1, 0]), ("D4(2)+A1", [4, 0, 1, 2, 3]),
    ("A1(4)+A1+A2(2)", [1, 2, 3, 0])])
def test_short_vectors_in_scale_order(expr, order):
    """Odd diagonal entries after even ones: scale_pass puts the pieces of
    the lowest scale first, and each vector is mapped back to the basis
    of the Gram."""
    gram = lattice.build_named(expr).gram
    assert intmat.scale_pass([[-x for x in row] for row in gram])[4] == order
    for seed in range(-1, 4):
        g = gram if seed < 0 else _rebased(gram, random.Random(seed), 3 * len(gram))
        for t in (-2, -4, -6, -8, -12):
            assert walls.short_vectors(g, t) == ref_short_vectors(g, t)


def test_orientation_conventions():
    model = standard_model()
    lam = model.lattice
    minus = isometry.make_isometry(lam, [[-x for x in row] for row in intmat.identity(16)])
    assert not isometry.in_O_plus(minus)
    assert isometry.in_O_plus(isometry.reflection(lam, model.named["e8_root"]))
    assert not isometry.in_O_plus(isometry.reflection(lam, model.u2_vector(1)))
    # the frame spans a maximal positive definite subspace, once per lattice
    frame = lam.positive_frame()
    assert frame is lam.positive_frame()
    assert len(frame) == lam.signature()[0] == 3
    assert all(lam.square(p) > 0 for p, _w in frame)
    assert all(lam.inner(p, q) == 0 for (p, _), (q, _) in itertools.combinations(frame, 2))


@settings(max_examples=25, deadline=None)
@given(PICKS)
def test_char_poly_matches_sympy(picks):
    sympy = pytest.importorskip("sympy")
    f = word(lambda_generators(), picks)
    expect = [int(c) for c in reversed(sympy.Matrix(f.matrix).charpoly().all_coeffs())]
    assert ref_int_char_poly(f.matrix) == expect
    assert isometry._char_poly_mod(f.matrix) == [c % P for c in expect]


def test_char_poly_rejects_non_integral_division():
    # no integer matrix triggers it; a Fraction entry shows the check is live
    with pytest.raises(RuntimeError, match="not integral"):
        ref_int_char_poly([[Fraction(1, 2), 0], [0, 0]])


@st.composite
def sparse_matrices(draw):
    """Square integer matrices of size 1..10, mostly zeros, so that the
    Hessenberg reduction meets zero pivots and zero subdiagonals."""
    n = draw(st.integers(1, 10))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 7, 2**62))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_char_poly_mod_matches_reference_on_any_matrix(m):
    assert isometry._char_poly_mod(m) == [c % P for c in ref_int_char_poly(m)]


def test_orders_cover_finite_and_infinite_words():
    """Seeded words in Lambda and in the indefinite small lattices: both
    finite orders above 2 and infinite orders occur, and order_of agrees
    with the reference on each."""
    rng = random.Random(7)
    seen = set()
    for gens in [lambda_generators()] + [small_generators(name)[1]
                                         for name in SMALL["indefinite"]]:
        for _ in range(25):
            f = word(gens, [rng.randrange(10**6) for _ in range(rng.randint(1, 6))])
            order = assert_same_order(f)
            seen.add("infinite" if order is None else "finite > 2" if order > 2
                     else "finite")
    assert seen == {"infinite", "finite > 2", "finite"}


# ---------------------------------------------------------------------------
# determinant, signature and Jordan splitting of symmetric Grams


def ref_frac_det(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    d = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            d = -d
        d *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return d


def ref_bareiss(m, symmetric=False):
    """intmat.bareiss as it was, updating the whole trailing block; with
    symmetric=True it pivots by congruence, as its symmetric mode did."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            if symmetric:
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
        for ri in m[k + 1:]:
            c = ri[k]
            ri[k + 1:] = [(x * d - c * y) // prev
                          for x, y in zip(ri[k + 1:], rk[k + 1:])]
        prev = d
    return n, sign


def _ref_parity_order(bits):
    """Pivot blocks, in order, of an elimination by swaps only of a
    symmetric matrix over F_2 given as bit rows: (i,) for an odd diagonal
    entry, failing one (i, j) for the first odd entry, a pair whose
    inverse is [[0, 1], [1, 0]].  Their total size is the rank."""
    live, blocks = list(range(len(bits))), []
    while live:
        mask = sum(1 << t for t in live)
        i = next((i for i in live if bits[i] >> i & 1), None)
        if i is not None:
            block = (i,)
        elif (i := next((i for i in live if bits[i] & mask), None)) is None:
            break
        else:
            low = bits[i] & mask
            block = (i, (low & -low).bit_length() - 1)
        live = [t for t in live if t not in block]
        for t in live:
            x = bits[t]
            for b, c in zip(block, reversed(block)):
                if x >> b & 1:
                    bits[t] ^= bits[c]
        blocks.append(block)
    return blocks


def ref_scale_pass(m):
    """intmat.scale_pass as it was: at each scale boundary the trailing
    block is mirrored to full rows, its pieces are found by a second
    elimination over F_2 of its bits at the scale (_ref_parity_order), and
    the block, the basis order and the pivot rows taken are permuted to
    put them first."""
    n, t, at = len(m), [row[i:] for i, row in enumerate(m)], [1] * len(m)
    pivots, steps, bounds, rows, order, prev = [], [], [], [], list(range(n)), 1
    while t:
        k, w = n - len(t), len(t)
        t = [row if s == prev else [x * prev // s for x in row]
             for row, s in zip(t, at)]
        bounds.append((k, t))
        low = 0
        for b, row in enumerate(t):
            for x in row[:w - b]:
                low |= x
        if not low:
            return None
        one = low & -low
        scale = one.bit_length() - (prev & -prev).bit_length()
        full = [[t[c][b - c] for c in range(b)] + row for b, row in enumerate(t)]
        blocks = _ref_parity_order([sum(1 << c for c, x in zip(range(w), row)
                                        if x & one) for row in full])
        perm = [i for block in blocks for i in block]
        perm += sorted(set(range(w)) - set(perm))
        t = [[full[i][j] for j in perm[a:]] + full[i][w:]
             for a, i in enumerate(perm)]
        order[k:] = [order[k + i] for i in perm]
        for p, row in enumerate(rows):
            row[k - p:n - p] = [row[k - p + i] for i in perm]
        at, a = [prev] * w, 0
        for block in blocks:
            steps.append((k + a, scale, len(block)))
            if len(block) == 2 and not t[a][0]:
                ua, ub = ([x * prev // at[i] for x in t[i]] for i in (a, a + 1))
                at[a] = at[a + 1] = prev
                j = k + a
                if ub[0]:
                    t[a], t[a + 1] = [ub[0], ua[1]] + ub[1:], [0] + ua[2:]
                    order[j], order[j + 1] = order[j + 1], order[j]
                    for p, row in enumerate(rows):
                        row[j - p], row[j - p + 1] = row[j - p + 1], row[j - p]
                else:
                    t[a], t[a + 1] = [2 * ua[1], ua[1]] + [
                        x + y for x, y in zip(ua[2:], ub[1:])], ub
                    for p, row in enumerate(rows):
                        row[j - p] += row[j - p + 1]
            for i in range(a, a + len(block)):
                ui = t[i] if at[i] == prev else [x * prev // at[i] for x in t[i]]
                d = ui[0]
                for b in range(i + 1, w):
                    c = ui[b - i]
                    if c:
                        rb = (t[b] if at[b] == prev
                              else [x * prev // at[b] for x in t[b]])
                        t[b] = [(x * d - c * y) // prev
                                for x, y in zip(rb, ui[b - i:])]
                        at[b] = d
                pivots.append(d)
                rows.append(ui)
                prev = d
            a += len(block)
        t, at = t[a:], at[a:]
    return pivots, steps, bounds, rows, order


def ref_symmetric_signature(g):
    n = len(g)
    m = [[Fraction(x) for x in row] for row in g]
    plus = minus = 0
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][i] != 0), None)
        if piv is None:
            found = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                          if m[i][j] != 0), None)
            if found is None:
                raise ValueError("degenerate quadratic form")
            i, j = found
            for t in range(n):
                m[i][t] += m[j][t]
            for t in range(n):
                m[t][i] += m[t][j]
            piv = i
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for row in m:
                row[k], row[piv] = row[piv], row[k]
        if m[k][k] > 0:
            plus += 1
        else:
            minus += 1
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                for t in range(k, n):
                    m[i][t] -= f * m[k][t]
                for t in range(k, n):
                    m[t][i] = m[i][t]
    return plus, minus


def _frac_valuation(x, p):
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def ref_local_pieces(gram, p):
    """(scale, kind, value) with the value an exact p-adic unit Fraction."""
    m = [[Fraction(x) for x in row] for row in gram]
    pieces = []
    while m:
        n = len(m)
        best = None
        for i in range(n):
            for j in range(i, n):
                if m[i][j]:
                    v = _frac_valuation(m[i][j], p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            raise ValueError("degenerate form")
        v, bi, bj = best
        diag = next((k for k in range(n)
                     if m[k][k] and _frac_valuation(m[k][k], p) == v), None)
        if diag is None and p != 2:
            for t in range(n):
                m[bi][t] += m[bj][t]
            for t in range(n):
                m[t][bi] += m[t][bj]
            diag = bi
        if diag is not None:
            a = m[diag][diag]
            pieces.append((v, "unit", a / p ** v))
            rest = [r for r in range(n) if r != diag]
            m = [[m[r][s] - m[r][diag] * m[diag][s] / a for s in rest]
                 for r in rest]
        else:
            a, b, c = m[bi][bi], m[bi][bj], m[bj][bj]
            det = a * c - b * b
            pieces.append((v, "pair", det / 4 ** v))
            rest = [r for r in range(n) if r not in (bi, bj)]
            m = [[m[r][s] - (m[r][bi] * (c * m[bi][s] - b * m[bj][s])
                             + m[r][bj] * (a * m[bj][s] - b * m[bi][s])) / det
                  for s in rest] for r in rest]
    return pieces


def _ref_row(u, k):
    return [u[s][k - s] for s in range(k)] + u[k]


def ref_mod_local_pieces(gram, p, det):
    """The Jordan splitting over Z_p as genus_symbol ran it before the scale
    pass, at every prime: the Gram matrix modulo p^N, N = v_p(det) + 3, as
    upper rows; the first entry of least valuation v as pivot, moved to a
    diagonal entry of that valuation, else by a row-and-column addition
    at odd p and as an even 2x2 block at p = 2.  Returns (scale, kind,
    value) with the value a residue modulo p^(N - scale)."""
    mod = p ** (genus._valuation(det, p) + 3)
    u = [[x % mod for x in row[i:]] for i, row in enumerate(gram)]
    pieces = []
    low = 0
    while u:
        q = p ** (low + 1)
        bi = next((i for i, row in enumerate(u) if gcd(q, *row) < q), None)
        if bi is None:
            g = 0
            for row in u:
                g = gcd(g, *row)
            if not g:
                raise ValueError("degenerate form")
            low = genus._valuation(g, p)
            continue
        bj = bi + next(j for j, x in enumerate(u[bi]) if x % q)
        pv = p ** low
        diag = next((k for k, row in enumerate(u) if row[0] % q), None)
        if diag is None and p != 2:
            ri, rj = _ref_row(u, bi), _ref_row(u, bj)
            s = [(x + y) % mod for x, y in zip(ri, rj)]
            s[bi] = (s[bi] + ri[bj] + rj[bj]) % mod
            for r in range(bi):
                u[r][bi - r] = s[r]
            u[bi] = s[bi:]
            diag = bi
        if diag is not None:
            unit = u[diag][0] // pv
            pieces.append((low, "unit", unit))
            inv = pow(unit, -1, mod)
            top = _ref_row(u, diag)
            new = []
            for r, row in enumerate(u):
                if r != diag:
                    c = top[r] // pv * inv % mod
                    new.append([(x - c * y) % mod
                                for x, y in zip(row, top[r:])])
                    if r < diag:
                        del new[-1][diag - r]
        else:
            r1, r2 = _ref_row(u, bi), _ref_row(u, bj)
            a, b, c = r1[bi] // pv, r1[bj] // pv, r2[bj] // pv
            w = (a * c - b * b) % (mod // pv)
            pieces.append((low, "pair", w))
            inv = pow(w, -1, mod)
            new = []
            for r, row in enumerate(u):
                if r != bi and r != bj:
                    x1, x2 = r1[r] // pv, r2[r] // pv
                    k1 = (x1 * c - x2 * b) * inv % mod
                    k2 = (x2 * a - x1 * b) * inv % mod
                    new.append([(x - k1 * y - k2 * z) % mod
                                for x, y, z in zip(row, r1[r:], r2[r:])])
                    for t in (bj - r, bi - r):
                        if t > 0:
                            del new[-1][t]
        u = new
    return pieces


def ref_constituents(pieces, p):
    """Constituents of (scale, kind, value) pieces, values read modulo 8
    at p = 2 and modulo p at odd p."""
    q = 8 if p == 2 else p
    return genus._local_symbol(
        [(v, 1 if kind == "unit" else 2,
          _residue(Fraction(value), q)) for v, kind, value in pieces], p)


def ref_genus_symbol(g):
    """The genus symbol from the rational determinant and signature and
    the splitting of ref_mod_local_pieces at every prime dividing 2 det."""
    det = int(ref_frac_det(g))
    pos, neg = ref_symmetric_signature(g)
    local = {p: ref_constituents(ref_mod_local_pieces(g, p, det), p)
             for p in sorted(set([2] + genus._prime_factors(det)))}
    return genus.GenusSymbol(pos, neg, all(row[i] % 2 == 0
                                           for i, row in enumerate(g)), local)


def _congruence(g, i, j, c):
    """g after basis vector i += c * basis vector j."""
    g = [row[:] for row in g]
    g[i] = [x + c * y for x, y in zip(g[i], g[j])]
    for row in g:
        row[i] += c * row[j]
    return g


REBASE_SUMMANDS = ("U", "U(2)", "A1", "A2", "A1(-1)", "D4", "K7", "H7(2)",
                   "A2(3)", "E8", "U(4)", "V")


@st.composite
def symmetric_grams(draw):
    """Nondegenerate integral symmetric matrices of rank 1..12.

    Flavours: random entries, zero diagonal, even diagonal (type II at 2),
    definite +-B^T B, and dense unimodular rebasings of direct sums; each
    may then be scaled on both sides by a diagonal of powers of 2 and 3, so
    that entries have high 2-adic and 3-adic valuation.
    """
    flavour = draw(st.sampled_from(
        ("random", "zero diagonal", "even diagonal", "definite", "rebased")))
    if flavour == "rebased":
        parts = draw(st.lists(st.sampled_from(REBASE_SUMMANDS), min_size=1,
                              max_size=4))
        g = lattice.build_named("+".join(parts)).gram
        assume(len(g) <= 12)
        n = len(g)
        for _ in range(draw(st.integers(0, 3 * n))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if i != j:
                g = _congruence(g, i, j, draw(st.sampled_from((-2, -1, 1, 2))))
    else:
        n = draw(st.integers(1, 12))
        entry = st.integers(-3, 3)
        if flavour == "definite":
            b = [[draw(entry) for _ in range(n)] for _ in range(n)]
            sign = draw(st.sampled_from((1, -1)))
            g = [[sign * intmat.dot(ci, cj) for cj in zip(*b)] for ci in zip(*b)]
        else:
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = draw(entry)
            for i in range(n):
                if flavour == "zero diagonal":
                    g[i][i] = 0
                elif flavour == "even diagonal":
                    g[i][i] *= 2
    if draw(st.booleans()):
        d = [2 ** draw(st.integers(0, 4)) * 3 ** draw(st.integers(0, 3))
             for _ in range(len(g))]
        g = [[d[i] * x * d[j] for j, x in enumerate(row)] for i, row in enumerate(g)]
    assume(ref_frac_det(g) != 0)
    return g


def _residue(x, q):
    return x.numerator * pow(x.denominator, -1, q) % q


def _upper(m):
    return [row[i:] for i, row in enumerate(m)]


def assert_bareiss_matches(g, carry=False):
    """The plain pass gives the reference's whole matrix, on G or, with
    carry, on the rows of [G | I].  scale_pass on [G | I] returns None
    exactly when the reference's symmetric pass finds G degenerate; else
    its carried block T has T G T^T = diag(D_{k-1} D_k), its last pivot is
    the determinant and Jacobi's rule on its pivots gives the signature."""
    n = len(g)
    gi = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    plain = gi if carry else g
    got, ref = [list(row) for row in plain], [list(row) for row in plain]
    assert intmat.bareiss(got) == ref_bareiss(ref)
    assert got == ref
    ref = [list(row) for row in g]
    rank, _sign = ref_bareiss(ref, True)
    jordan = intmat.scale_pass(gi)
    assert (jordan is None) == (rank < n)
    if jordan is None:
        return
    pivots, _steps, _bounds, rows, _order = jordan
    minors = [1] + pivots
    t = [row[n - k:] for k, row in enumerate(rows)]
    assert intmat.mat_mul(t, intmat.mat_mul(g, intmat.transpose(t))) == [
        [minors[k] * minors[k + 1] * (j == k) for j in range(n)] for k in range(n)]
    det = ref_frac_det(g)
    assert minors[-1] == det == (ref[-1][-1] if n else 1)
    assert intmat.pivot_form(pivots) == (det, ref_symmetric_signature(g))


def assert_matches_reference(g):
    assert_bareiss_matches(g)
    det = ref_frac_det(g)
    sig = ref_symmetric_signature(g)
    assert intmat.frac_det(g) == det
    assert intmat.det(g) == det
    assert intmat.det_signature(g) == (det, sig)
    assert intmat.symmetric_signature(g) == sig
    lat = lattice.Lattice(g)
    assert (lat.det(), lat.signature()) == (det, sig)
    assert genus.canonical_string(genus.genus_symbol(lat)) == (
        genus.canonical_string(ref_genus_symbol(g)))
    for p in sorted(set([2] + genus._prime_factors(int(det)))):
        # the exact values agree with the residues modulo p^(N - scale)
        top = genus._valuation(int(det), p) + 3
        ref = ref_local_pieces(g, p)
        splits = [ref_mod_local_pieces(g, p, int(det))]
        if p != 2:
            u = [[x % p ** top for x in row] for row in _upper(g)]
            splits.append([(v, "unit", x) for v, _rank, x in
                           genus._local_pieces(u, p, p ** top)])
        for split in splits:
            assert [(v, kind) for v, kind, _ in split] == [(v, kind) for v, kind, _ in ref]
            for (v, _kind, value), (_, _, exact) in zip(split, ref):
                assert value == _residue(exact, p ** (top - v))
        want = ref_constituents(ref, p)
        got = genus.padic_jordan(lat, p)
        if p == 2:
            # scale by scale the same ranks; signs and oddities agree
            # after the walk to the canonical representative
            assert [(c.scale, c.rank) for c in got] == [(c.scale, c.rank) for c in want]
            assert (genus._canonical_two_adic(got)
                    == genus._canonical_two_adic(want))
        else:
            assert got == want


@settings(max_examples=120, deadline=None)
@given(symmetric_grams())
def test_det_signature_and_local_pieces_match_reference(g):
    assert_matches_reference(g)


def _rebased(gram, rng, steps, cap=100):
    """A seeded unimodular rebasing that keeps every entry within the cap."""
    g, n, done = gram, len(gram), 0
    for _ in range(50 * steps):
        if done == steps:
            break
        i, j = rng.sample(range(n), 2)
        h = _congruence(g, i, j, rng.choice((1, -1)))
        if max(map(abs, h[i])) <= cap:
            g, done = h, done + 1
    return g


# dense rebasings of rank 28-34 sums with v_2(det) >= 20, like the Grams
# the genus benchmark sends: long chains of 2-adic scales, even blocks
# and zero diagonals at p = 2, and 3-adic scales up to 3^4
WORKLOAD_SHAPED = ("U(2)^3+E8+A1^2+D7(2)+A5+A3(2)",
                   "U^2+U(2)+D4(2)+A1^2+E8(2)+D8(2)+D6(2)",
                   "U+U(3)+U(6)+A1+E8(2)+D7(2)+A5+A3(2)",
                   # even pairs at scales 2, 4 and 8 beside odd pieces
                   "U(2)^3+U(4)^2+U(8)+E8(2)+D8(4)+A1(8)+A1^2")


@pytest.mark.parametrize("expr", WORKLOAD_SHAPED)
def test_workload_shaped_grams_match_reference(expr):
    g = lattice.build_named(expr).gram
    g = _rebased(g, random.Random(expr), 3 * len(g))
    assert 28 <= len(g) <= 34
    assert genus._valuation(int(ref_frac_det(g)), 2) >= 20
    assert_matches_reference(g)


@pytest.mark.parametrize("pair", [[[0, 4], [4, 0]], [[0, 4], [4, 8]],
                                  [[8, 4], [4, 0]]], ids=["fold", "swap", "plain"])
def test_scale_pass_pair_above_scale_zero(pair):
    """A pair of scale 4 after a 1x1 piece of scale 2: its first diagonal
    entry 0 is swapped with its partner's, or folded when both are 0, so
    that D_1 = -2 * 8 in every case."""
    g = [[-2, 0, 0], [0] + pair[0], [0] + pair[1]]
    pivots, steps, bounds, _rows, _order = intmat.scale_pass(g)
    assert steps == [(0, 1, 1), (1, 2, 2)]
    assert pivots == [-2, -16, 32]
    assert bounds == [(0, _upper(g)), (1, [[-2 * x for x in row[i:]]
                                           for i, row in enumerate(pair)])]
    assert_matches_reference(g)


@pytest.mark.parametrize("expr", ["U(2)^3", "U(4)", "A1+U(4)+V(8)",
                                  "U(2)^3+U(4)+A1(8)+E8(4)"])
def test_pair_grams_match_reference(expr):
    # pairs with zero diagonal at scale 0 and above, then dense rebasings
    g = lattice.build_named(expr).gram
    assert_matches_reference(g)
    for seed in range(4):
        assert_matches_reference(_rebased(g, random.Random(seed), 3 * len(g)))


@st.composite
def late_pivot_grams(draw):
    """Symmetric Grams whose elimination meets a zero pivot after step 0.

    A nondegenerate block P of rank k sits beside a block Z whose first
    diagonal entry is 0 (every diagonal entry, for a fold); then each
    later basis vector gets a combination of the first k.  The Schur
    complement of P stays Z, so step k needs a swap or a fold.  Z may be
    singular.
    """
    k = draw(st.integers(1, 4))
    n = k + draw(st.integers(2, 6))
    fold = draw(st.booleans())
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i < k) == (j < k) and not (i == j >= k and (fold or i == k)):
                g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    assume(ref_frac_det([row[:k] for row in g[:k]]) != 0)
    for i in range(k, n):
        for j in range(k):
            g = _congruence(g, i, j, draw(st.integers(-2, 2)))
    return g


@settings(max_examples=200, deadline=None)
@given(late_pivot_grams())
def test_bareiss_matches_reference_after_late_pivots(g):
    assert_bareiss_matches(g)


def test_bareiss_late_pivot_examples():
    """A swap and a fold at step 1 of a dense Gram, and a singular one."""
    swap = _congruence([[2, 0, 0], [0, 0, 1], [0, 1, 3]], 1, 0, 1)
    fold = _congruence(_congruence([[3, 0, 0], [0, 0, 1], [0, 1, 0]],
                                   1, 0, 1), 2, 0, -2)
    singular = _congruence(_congruence([[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                                       1, 0, 1), 2, 0, 1)
    for g in (swap, fold, singular):
        # the leading 2-minor is 0, so step 1 replaces its pivot
        assert g[0][0] * g[1][1] == g[0][1] ** 2 != 0
        assert_bareiss_matches(g)
    assert fold[0][0] * fold[2][2] == fold[0][2] ** 2
    assert intmat.scale_pass(singular) is None


@st.composite
def sparse_grams(draw):
    """Tridiagonal Grams, zero diagonal entries allowed, and block-diagonal
    sums of two late-pivot Grams: most multipliers are 0, and a zero pivot
    in the second block meets rows left at the first block's scale."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = draw(st.integers(-3, 3))
            if i:
                g[i][i - 1] = g[i - 1][i] = draw(st.integers(-3, 3))
        return g
    a, b = draw(late_pivot_grams()), draw(late_pivot_grams())
    return ([row + [0] * len(b) for row in a]
            + [[0] * len(a) + row for row in b])


@settings(max_examples=200, deadline=None)
@given(sparse_grams(), st.booleans())
def test_bareiss_matches_reference_on_sparse_grams(g, carry):
    """The plain pass also on the rows of [G | I], as the inverse uses them."""
    assert_bareiss_matches(g, carry)


@settings(max_examples=150, deadline=None)
@given(sparse_grams(), st.lists(st.integers(0, 3), min_size=20, max_size=20))
def test_scale_pass_matches_reference_on_sparse_grams(g, exps):
    """Basis vector i scaled by 2^exps[i]: rows left at an old D_j by zero
    multipliers meet later pieces and scale boundaries, where the trailing
    block must be up to date for the genus."""
    g = [[x << exps[i] + exps[j] for j, x in enumerate(row)]
         for i, row in enumerate(g)]
    assume(ref_frac_det(g) != 0)
    assert_matches_reference(g)


def _with_combination(g, c):
    """The Gram of the basis of g and one more vector, sum c_i e_i: a
    degenerate form of rank len(g) + 1."""
    gc = intmat.mat_vec(g, c)
    return ([row + [x] for row, x in zip(g, gc)] + [gc + [intmat.dot(c, gc)]])


@st.composite
def scale_pass_rows(draw):
    """Rows for scale_pass: a symmetric G that is sparse (sparse_grams),
    random with entries in -3..3 (degenerate or not), a rebased sum of
    small summands, or a rebased sum shaped like the genus workload's;
    then maybe made degenerate by a combination of its basis, its basis
    vector i scaled by 2^e_i (e_i in 0..3), doubled, and carried as [G | I].
    """
    kind = draw(st.sampled_from(("sparse", "random", "rebased", "workload")))
    if kind == "sparse":
        g = draw(sparse_grams())
    elif kind == "random":
        n = draw(st.integers(1, 9))
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    else:
        expr = (draw(st.sampled_from(WORKLOAD_SHAPED)) if kind == "workload"
                else "+".join(draw(st.lists(st.sampled_from(REBASE_SUMMANDS),
                                            min_size=1, max_size=3))))
        g = lattice.build_named(expr).gram
        if len(g) > 1:
            g = _rebased(g, random.Random(draw(st.integers(0, 2**32))),
                         3 * len(g))
    if kind != "workload" and not draw(st.integers(0, 3)):
        c = draw(st.lists(st.integers(-2, 2), min_size=len(g), max_size=len(g)))
        g = _rebased(_with_combination(g, c), random.Random(sum(c)), len(g))
    n = len(g)
    if draw(st.booleans()):
        e = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        g = [[x << e[i] + e[j] for j, x in enumerate(row)]
             for i, row in enumerate(g)]
    if draw(st.booleans()):
        g = [[2 * x for x in row] for row in g]
    if draw(st.booleans()):
        g = [row + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    return g


def assert_scale_pass_matches(m):
    got = intmat.scale_pass([list(row) for row in m])
    assert got == ref_scale_pass([list(row) for row in m])
    return got


@settings(max_examples=300, deadline=None)
@given(scale_pass_rows())
def test_scale_pass_matches_reference_pass(m):
    """The same 5-tuple as the pass that found its pieces by elimination
    over F_2, or None for both."""
    assert_scale_pass_matches(m)


@pytest.mark.parametrize("g, order, steps", [
    # rows 0 and 1 even at scale 0, row 2 odd: row 2 first, then row 0,
    # whose diagonal entry is odd in the complement
    ([[2, 0, 1], [0, 4, 1], [1, 1, 3]], [2, 0, 1],
     [(0, 0, 1), (1, 0, 1), (2, 1, 1)]),
    # the pair (1, 2) after an even row, both diagonal entries 0: folded
    ([[4, 2, 0], [2, 0, 1], [0, 1, 0]], [1, 2, 0], [(0, 0, 2), (2, 2, 1)]),
    # the pair (1, 2), first diagonal entry 0: swapped with its partner
    ([[4, 2, 0], [2, 0, 1], [0, 1, 2]], [2, 1, 0], [(0, 0, 2), (2, 2, 1)]),
    # rows 1 and 2 keep D_-1 = 1 when the pivot 2 has multiplier 0 on
    # them; row 1 is even at scale 1, so row 2 goes ahead of it
    ([[2, 0, 0], [0, 4, 2], [0, 2, 6]], [0, 2, 1],
     [(0, 1, 1), (1, 1, 1), (2, 1, 1)]),
    # a 1x1 piece goes with the next one of its scale, found by a lookahead
    # at the diagonal entries after its step: row 1 is odd after step 0
    # (2 - 1 = 1) and goes second without a move
    ([[1, 1, 0], [1, 2, 1], [0, 1, 3]], [0, 1, 2],
     [(0, 0, 1), (1, 0, 1), (2, 1, 1)]),
    # step 0 makes row 1 even (3 - 1 = 2), so row 2 moves ahead of it
    ([[1, 1, 0], [1, 3, 1], [0, 1, 1]], [0, 2, 1],
     [(0, 0, 1), (1, 0, 1), (2, 0, 1)]),
    # rows 2 and 3 keep D_-1 = 1 through the two pieces before them, so
    # row 3 is stale (at 1, not D_1 = 4) when the lookahead at step 2 finds it
    ([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 2], [0, 0, 2, 8]], [0, 1, 2, 3],
     [(0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1)]),
    # no diagonal entry is odd after step 0; the pair (1, 2) follows
    ([[1, 1, 2], [1, 1, 3], [2, 3, 4]], [0, 1, 2], [(0, 0, 1), (1, 0, 2)]),
    # the diagonal search fails at scale 0, U is taken as a pair, and at
    # scale 1 the diagonal entry of row 2 is odd
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 2], [0, 0, 2, 6]], [0, 1, 2, 3],
     [(0, 0, 2), (2, 1, 1), (3, 2, 1)])],
    ids=["odd-after-even", "fold", "swap", "after-stale", "adjacent",
         "after-even", "stale", "pair-after-none", "next-scale"])
def test_scale_pass_piece_examples(g, order, steps):
    n = len(g)
    for m in (g, [row + [int(i == j) for j in range(n)]
                  for i, row in enumerate(g)]):
        _pivots, got_steps, _bounds, _rows, got_order = assert_scale_pass_matches(m)
        assert (got_order, got_steps) == (order, steps)
    assert_matches_reference(g)


def test_odd_prime_block_rebuilt_when_smaller(monkeypatch):
    """At p = 3 the last index top with 3 prime to D_{top-1} lies past the
    last such scale boundary k, and the rebuilt block B_top is the one
    split: one row, where B_k has two."""
    expr = WORKLOAD_SHAPED[0]
    g = lattice.build_named(expr).gram
    g = _rebased(g, random.Random(expr), 3 * len(g))
    lat, n = lattice.Lattice(g), len(g)
    minors = [1] + lat.jordan[0]
    k = max(k for k, _u in lat.jordan[2] if minors[k] % 3)
    top = max(j for j in range(n + 1) if minors[j] % 3)
    assert (n - k, n - top) == (2, 1)
    sizes, local_pieces = [], genus._local_pieces
    monkeypatch.setattr(genus, "_local_pieces", lambda u, p, mod: (
        sizes.append(len(u)), local_pieces(u, p, mod))[1])
    got = genus.padic_jordan(lat, 3)
    assert sizes == [n - top]
    assert got == ref_constituents(ref_local_pieces(g, 3), 3)


def test_odd_prime_gram_divisible_by_p():
    """Every entry a multiple of 3: 3 divides every D_j, j >= 0, so top =
    k = 0 and the block split at 3 is the Gram itself."""
    g = _rebased(lattice.build_named("A2+D4+U(2)").gram, random.Random(3), 24)
    g = [[3 * x for x in row] for row in g]
    minors = [1] + lattice.Lattice(g).jordan[0]
    assert [j for j, d in enumerate(minors) if d % 3] == [0]
    assert_matches_reference(g)


def _full(u):
    """The symmetric matrix of upper rows u[i] = (i, i..)."""
    return [[u[min(a, b)][abs(b - a)] for b in range(len(u))]
            for a in range(len(u))]


def ref_trailing_blocks(g):
    """Pivots and trailing blocks B_0, B_1, .. of the fraction-free
    elimination of g without pivoting, the whole block updated each step."""
    m, prev, pivots, blocks = [list(row) for row in g], 1, [], []
    for k in range(len(m)):
        blocks.append([row[k:] for row in m[k:]])
        d = m[k][k]
        for row in m[k + 1:]:
            c = row[k]
            row[k + 1:] = [(x * d - c * y) // prev
                           for x, y in zip(row[k + 1:], m[k][k + 1:])]
        pivots.append(d)
        prev = d
    return pivots, blocks + [[]]


@settings(max_examples=100, deadline=None)
@given(st.one_of(symmetric_grams(), sparse_grams()))
def test_trailing_blocks_rebuilt_from_pivot_rows(g):
    """B_j rebuilt backward from scale_pass's pivot rows is the trailing
    block at step j of the plain run on the rebuilt B_0 (the Gram in the
    pass's basis), and that run's pivots are the pass's."""
    jordan = intmat.scale_pass([list(row) for row in g])
    assume(jordan is not None)
    pivots, _steps, _bounds, rows, _order = jordan
    minors = [1] + pivots
    blocks = [_full(genus._trailing_block(rows, minors, j))
              for j in range(len(g) + 1)]
    assert ref_trailing_blocks(blocks[0]) == (pivots, blocks)


def _pair_then_rows(pair, cols, lead):
    """A pair in basis vectors 0 and 1, then four vectors whose entries
    (g_0b, g_1b) are cols and whose own block has even diagonal; with
    lead, the sum [3] + G, whose first piece has multiplier 0 on all of G."""
    rest = [[4, 1, 0, 2], [1, 6, 1, 0], [0, 1, 4, 1], [2, 0, 1, 8]]
    g = [list(pair[0]) + [a for a, _ in cols], list(pair[1]) + [b for _, b in cols]]
    g += [[a, b] + row for (a, b), row in zip(cols, rest)]
    if lead:
        g = [[3] + [0] * 6] + [[0] + row for row in g]
    return g


# (g_0b, g_1b) for multipliers onto the first pivot only, the second
# only, both and neither: with e = 1 and D_k / D_{k-1} = 2, u1_b is
# 2 g_1b - g_0b (plain), 2 g_0b - g_1b (swapped) or g_1b - g_0b (folded)
PAIR_UPDATE_CASES = {
    "plain": ([[2, 1], [1, 2]], [(2, 1), (0, 1), (1, 1), (0, 0)]),
    "swap": ([[0, 1], [1, 2]], [(1, 2), (1, 0), (1, 1), (0, 0)]),
    "fold": ([[0, 1], [1, 0]], [(1, 1), (1, -1), (1, 0), (0, 0)]),
}


@pytest.mark.parametrize("lead", [0, 1], ids=["first", "after-1x1"])
@pytest.mark.parametrize("case", PAIR_UPDATE_CASES)
def test_scale_pass_pair_update_examples(case, lead):
    """The two-step update of a pair at k on later rows whose multipliers
    (f_b onto pivot k, u1_b onto pivot k+1) are nonzero onto the first
    pivot only, the second only, both and neither (a row left lazy)."""
    g = _pair_then_rows(*PAIR_UPDATE_CASES[case], lead)
    n = len(g)
    assert ref_frac_det(g) != 0
    for m in (g, [row + [int(i == j) for j in range(n)]
                  for i, row in enumerate(g)]):
        _pivots, steps, _bounds, rows, order = assert_scale_pass_matches(m)
        assert steps[lead] == (lead, 0, 2)
        assert order[lead:lead + 2] == ([lead + 1, lead] if case == "swap"
                                        else [lead, lead + 1])
        assert {(rows[lead][b] != 0, rows[lead + 1][b - 1] != 0)
                for b in range(2, n - lead)} == set(itertools.product(
                    (True, False), repeat=2))
    assert_matches_reference(g)


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@settings(max_examples=40, deadline=None)
@given(symmetric_grams())
def test_det_signature_match_sympy(g):
    sympy = pytest.importorskip("sympy")
    mat = sympy.Matrix(g)
    coeffs = [int(c) for c in mat.charpoly().all_coeffs()]
    # every root is real, so Descartes' rule counts them exactly
    n = len(coeffs) - 1
    plus = _sign_changes(coeffs)
    minus = _sign_changes([c * (-1) ** (n - k) for k, c in enumerate(coeffs)])
    assert intmat.det_signature(g) == (int(mat.det()), (plus, minus))


def test_degenerate_grams_rejected():
    for g in ([[0]], [[2, 2], [2, 2]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]]):
        assert intmat.det_signature(g) == (0, None)
        assert ref_frac_det(g) == 0
        with pytest.raises(ValueError, match="degenerate"):
            intmat.symmetric_signature(g)
        with pytest.raises(ValueError, match="degenerate"):
            ref_symmetric_signature(g)
        with pytest.raises(ValueError, match="nondegenerate"):
            lattice.Lattice(g)


@st.composite
def lattice_files(draw):
    """Gram entries of small lattice files: rank 0..8, ints or "p/q"
    strings, with odd, even, zero or random diagonals, and degenerate
    Grams whose last basis vector repeats the first."""
    n = draw(st.integers(0, 8))
    flavour = draw(st.sampled_from(
        ("random", "even diagonal", "zero diagonal", "degenerate", "rational")))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-6, 6)) * 2 ** draw(st.integers(0, 3))
        if flavour == "even diagonal":
            g[i][i] *= 2
        elif flavour == "zero diagonal":
            g[i][i] = 0
    if flavour == "degenerate" and n:
        g[n - 1] = list(g[0])
        for row in g:
            row[n - 1] = row[0]
    if flavour == "rational":
        den = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                den[i][j] = den[j][i] = draw(st.integers(1, 4))
        return [["%d/%d" % (x, d) for x, d in zip(row, drow)]
                for row, drow in zip(g, den)]
    return g


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lattice_files(), st.sampled_from(("info", "genus")))
def test_cli_info_and_genus_on_lattice_files(tmp_path, gram, command):
    """Each file exits 0 or 2 without a traceback, and on 0 prints the
    genus of the reference path."""
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"gram": gram}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command, str(path), "--format", "json"])
    if rc == 2:
        assert (out.getvalue(), err.getvalue()[:7]) == ("", "error: ")
        return
    assert rc == 0
    g = [[lattice.parse_entry(x) for x in row] for row in gram]
    assert json.loads(out.getvalue())["genus"] == genus.canonical_string(
        ref_genus_symbol(g))


# ---------------------------------------------------------------------------
# inverse and positive frame: Gauss-Jordan and symmetric elimination over Q


def ref_frac_inverse(a):
    """intmat.frac_inverse as it was: Gauss-Jordan over Fraction."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
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


def assert_inverse_matches(a):
    try:
        expect = ref_frac_inverse(a)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            intmat.frac_inverse(a)
        return
    inv = intmat.frac_inverse(a)
    assert inv == expect
    # ints where integral, Fractions only where not
    assert all(type(x) is int for row in inv for x in row if x.denominator == 1)


@st.composite
def square_matrices(draw):
    """Square int matrices of size 0..7, often singular or with a zero
    leading pivot."""
    n = draw(st.integers(0, 7))
    entry = st.integers(-6, 6)
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        m[0][0] = 0
    if n > 1 and draw(st.booleans()):
        m[-1] = [2 * x for x in m[0]]
    return m


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_frac_inverse_matches_reference(a):
    assert_inverse_matches(a)


@pytest.mark.parametrize("a", [
    [[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 2], [3, 0]],
    [[2, 0], [0, 3]], [[1, 2], [2, 4]],
    [[0, 0], [0, 1]], [[0]], []])
def test_frac_inverse_examples(a):
    assert_inverse_matches(a)


@settings(max_examples=150, deadline=None)
@given(symmetric_grams(), st.lists(st.integers(1, 6), min_size=12, max_size=12))
def test_positive_frame_matches_reference(g, dens):
    """Scaled on both sides by diag(d_i), g stays nondegenerate of the
    same signature and gets entries of mixed sizes."""
    h = [[x * dens[i] * dens[j] for j, x in enumerate(row)]
         for i, row in enumerate(g)]
    lat = lattice.Lattice(h)
    frame = lat.positive_frame()
    positives = sum(1 for v in _ref_orthogonal_basis(h) if _bform(h, v, v) > 0)
    assert len(frame) == positives == lat.signature()[0]
    assert all(lat.square(p) > 0 for p, _w in frame)
    assert all(lat.inner(p, q) == 0
               for (p, _), (q, _) in itertools.combinations(frame, 2))


# ---------------------------------------------------------------------------
# discriminant action: the earlier Fraction lifts, q, b and permutation order


def _mod2(x):
    return Fraction(x) % 2


class RefModule:
    """The discriminant form as it was built on Fraction lifts u_i / d_i."""

    def __init__(self, lat):
        g = lat.gram
        n = lat.rank
        d, u, v = intmat.smith_normal_form(g)
        diag = [d[i][i] for i in range(n)]
        self.keep = [i for i in range(n) if diag[i] > 1]
        self.orders = [diag[i] for i in self.keep]
        self.lifts = [[Fraction(u[i][j], diag[i]) for j in range(n)]
                      for i in self.keep]
        self.qgen = [_mod2(lat.inner(l, l)) for l in self.lifts]
        self.bmat = [[_mod2(2 * lat.inner(a, c)) for c in self.lifts]
                     for a in self.lifts]
        self.lat, self.v, self.diag = lat, v, diag

    def q(self, x):
        k = len(self.orders)
        total = Fraction(0)
        for i in range(k):
            total += x[i] * x[i] * self.qgen[i]
            for j in range(i + 1, k):
                total += x[i] * x[j] * self.bmat[i][j]
        return _mod2(total)

    def b(self, x, y):
        k = len(self.orders)
        return _mod2(sum(x[i] * y[j] * self.bmat[i][j]
                         for i in range(k) for j in range(k)))

    def dual_class(self, y):
        g = self.lat.gram
        n = self.lat.rank
        w = []
        for j in range(n):
            p = Fraction(sum(Fraction(y[i]) * g[i][j] for i in range(n)))
            if p.denominator != 1:
                raise ValueError("vector is not in the dual lattice")
            w.append(p.numerator)
        full = [sum(w[i] * self.v[i][j] for i in range(n)) % self.diag[j]
                for j in range(n)]
        assert all(full[j] == 0 for j in range(n) if j not in self.keep)
        return tuple(full[j] for j in self.keep)

    def induced(self, m):
        cols = [self.dual_class(intmat.mat_vec(m, l)) for l in self.lifts]
        return [[c[i] for c in cols] for i in range(len(cols))]

    def apply(self, mat, x):
        return tuple(sum(r * c for r, c in zip(row, x)) % d
                     for row, d in zip(mat, self.orders))

    def preserves_q(self, mat):
        k = len(self.orders)
        imgs = [tuple(mat[i][j] for i in range(k)) for j in range(k)]
        return (all(self.q(imgs[j]) == self.qgen[j] for j in range(k))
                and all(self.b(imgs[i], imgs[j]) == self.bmat[i][j]
                        for i in range(k) for j in range(i + 1, k)))

    def order(self, mat):
        """Order of the element permutation, as FqmIsometry.order was."""
        elems = [()]
        for d in self.orders:
            elems = [e + (c,) for e in elems for c in range(d)]
        index = {e: i for i, e in enumerate(elems)}
        perm = [index[self.apply(mat, e)] for e in elems]
        if len(set(perm)) != len(perm):
            raise ValueError("map is not invertible")
        seen = [False] * len(perm)
        total = 1
        for i in range(len(perm)):
            length, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length:
                total = total * length // gcd(total, length)
        return total


@lru_cache(maxsize=None)
def ref_module(name):
    lat = standard_model().lattice if name == "Lambda" else lattice.build_named(name)
    return lat, discform.discriminant_form(lat), RefModule(lat)


def _same_order(iso, ref, mat):
    """Both orders agree, or both refuse a map that is not invertible;
    returns the order, or None."""
    try:
        expect = ref.order(mat)
    except ValueError:
        with pytest.raises(ValueError, match="not invertible"):
            iso.order()
        return None
    assert iso.order() == expect
    return expect


@settings(max_examples=25, deadline=None)
@given(PICKS, PICKS)
def test_induced_disc_isometry_matches_reference(picks_f, picks_g):
    lam, mod, ref = ref_module("Lambda")
    f = word(lambda_generators(), picks_f)
    g = word(lambda_generators(), picks_g)
    df = discform.induced_disc_isometry(lam, f)
    dg = discform.induced_disc_isometry(lam, g)
    assert df.matrix == ref.induced(f.matrix)
    assert df.preserves_q and ref.preserves_q(df.matrix)
    assert df.order() == ref.order(df.matrix)
    fg = discform.induced_disc_isometry(lam, isometry.compose(f, g))
    assert fg == df.compose(dg)
    assert fg.matrix == ref.induced(isometry.compose(f, g).matrix)


def test_transvections_match_reference():
    _lam, mod, ref = ref_module("Lambda")
    kinds = set()
    for u in mod.elements()[1:]:
        t = discform.transvection(mod, u)
        assert t.preserves_q == ref.preserves_q(t.matrix)
        assert t.preserves_q == (mod.q(u) == 1)
        kinds.add((t.preserves_q, _same_order(t, ref, t.matrix)))
    assert kinds == {(True, 2), (False, None), (False, 2)}


DISC_NAMES = ("A2", "A3", "D4", "A1^3", "K7", "U(2)+A2", "A4+A1", "H7(2)", "A2^2")


def test_q_b_and_dual_class_match_reference():
    for name in ("Lambda",) + DISC_NAMES:
        lat, mod, ref = ref_module(name)
        assert mod.orders == ref.orders
        elems = mod.elements()
        k = len(mod.orders)
        gens = [tuple(int(i == j) for i in range(k)) for j in range(k)]
        assert [mod.q(g) for g in gens] == ref.qgen
        for x in elems:
            assert mod.q(x) == ref.q(x)
            for y in gens + elems[::max(1, len(elems) // 8)]:
                assert mod.b(x, y) == ref.b(x, y)
            y = [sum(c * l[i] for c, l in zip(x, ref.lifts)) for i in range(lat.rank)]
            den = lcm(*(Fraction(c).denominator for c in y))
            num = [int(c * den) for c in y]
            assert mod.dual_class(num, den) == ref.dual_class(y) == x
            assert mod.dual_class(*mod.lift(x)) == x


@st.composite
def module_maps(draw):
    """A generic module of `latsym disc` and an integer matrix that defines
    a homomorphism of it (m[i][j] d_j = 0 mod d_i)."""
    name = draw(st.sampled_from(DISC_NAMES))
    _lat, mod, _ref = ref_module(name)
    d = mod.orders
    k = len(d)
    mat = [[draw(st.integers(0, d[i] - 1)) * (d[i] // gcd(d[i], d[j]))
            for j in range(k)] for i in range(k)]
    return name, mat


F2_NAMES = ("Lambda", "D4", "E8(2)", "U(2)+A1", "A1^3")


@st.composite
def f2_module_maps(draw):
    """A 2-elementary module and a random F2 matrix: mostly singular, some
    invertible, and now and then one taken from the transvections."""
    name = draw(st.sampled_from(F2_NAMES))
    mod = ref_module(name)[1]
    k = len(mod.orders)
    if draw(st.booleans()):
        u = draw(st.integers(1, 2 ** k - 1))
        t = discform.transvection(mod, [u >> i & 1 for i in range(k)])
        return name, [list(row) for row in t.matrix]
    return name, [[draw(st.integers(0, 1)) for _ in range(k)] for _ in range(k)]


@settings(max_examples=200, deadline=None)
@given(f2_module_maps())
@example(("Lambda", [[0] * 8 for _ in range(8)]))
@example(("A1^3", [[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
@example(("D4", [[0, 1], [1, 1]]))
def test_f2_module_maps_match_reference(case):
    """On 2-elementary modules order() and preserves_q, read off
    F^T B F, agree with the element permutation and the Fraction forms,
    and a singular map (the zero map and a map fixing some generators
    included) is refused."""
    name, mat = case
    _lat, mod, ref = ref_module(name)
    iso = discform.FqmIsometry(mod, mat)
    assert iso.preserves_q == ref.preserves_q(iso.matrix)
    _same_order(iso, ref, iso.matrix)


@settings(max_examples=150, deadline=None)
@given(module_maps())
def test_generic_module_maps_match_reference(case):
    name, mat = case
    _lat, mod, ref = ref_module(name)
    iso = discform.FqmIsometry(mod, mat)
    assert iso.preserves_q == ref.preserves_q(iso.matrix)
    _same_order(iso, ref, iso.matrix)


# ---------------------------------------------------------------------------
# group permutations: the element-by-element action and the coset minimum


def ref_apply(iso, x):
    """f x for an FqmIsometry f, as FqmIsometry.apply was: (f x)_i =
    sum_j m[i][j] x_j mod orders[i]."""
    x = iso.module.reduce(x)
    return tuple(sum(row[j] * x[j] for j in range(len(x))) % d
                 for row, d in zip(iso.matrix, iso.module.orders))


def ref_permutation(iso):
    """FqmIsometry.permutation as it was: the matrix applied to every
    element and the image looked up."""
    mod = iso.module
    perm = tuple(mod.index_of(ref_apply(iso, e)) for e in mod.elements())
    if len(set(perm)) != len(perm):
        raise ValueError("map is not invertible")
    return perm


def ref_quotient_order(grp, sub, rad):
    """FiniteIsometryGroup.quotient_order as it was: each coset keyed by
    its least member over the radical, each generator applied to the keys."""
    mod = grp.module
    reps, radels = {}, rad.elements()
    for x in sub.elements():
        reps.setdefault(min(mod.add(x, t) for t in radels), len(reps))
    perms = []
    for g in grp.generators:
        images = []
        for key in reps:
            y = ref_apply(g, key)
            if not sub.contains(y):
                raise ValueError("generator does not preserve the subgroup")
            images.append(reps[min(mod.add(y, t) for t in radels)])
        perms.append(tuple(images))
    return discform._StabilizerChain(len(reps), perms).order()


def assert_same_permutation(iso):
    """Both permutations agree, or both refuse a map that is not
    invertible; returns whether the map was invertible."""
    try:
        want = ref_permutation(iso)
    except ValueError:
        with pytest.raises(ValueError, match="not invertible"):
            iso.permutation()
        return False
    assert iso.permutation() == want
    return True


def lambda_transvections():
    """The 64 transvections T_u, q(u) = 1, of Lambda's discriminant form."""
    mod = ref_module("Lambda")[1]
    return [discform.transvection(mod, u) for u in mod.elements()
            if mod.q(u) == 1]


def test_permutations_of_lambda_transvections_match_reference():
    ts = lambda_transvections()
    assert len(ts) == 64
    assert all(assert_same_permutation(t) for t in ts)


def test_permutations_of_induced_reflection_words_match_reference():
    lam = ref_module("Lambda")[0]
    rng = random.Random(23)
    for _ in range(30):
        f = word(lambda_generators(),
                 [rng.randrange(10**6) for _ in range(rng.randint(1, 5))])
        assert assert_same_permutation(discform.induced_disc_isometry(lam, f))


@pytest.mark.parametrize("name", ["A2", "D4", "A1^3", "K7+H5(2)", "U(4)^2+A2"])
def test_permutations_of_random_module_maps_match_reference(name):
    """Random homomorphisms (m[i][j] d_j = 0 mod d_i), the singular ones
    refused by both, and the identity."""
    mod = ref_module(name)[1]
    d, k = mod.orders, len(mod.orders)
    rng = random.Random(name)
    outcomes = {assert_same_permutation(
        discform.FqmIsometry(mod, intmat.identity(k)))}
    for _ in range(40):
        mat = [[rng.randrange(d[i]) * (d[i] // gcd(d[i], d[j]))
                for j in range(k)] for i in range(k)]
        outcomes.add(assert_same_permutation(discform.FqmIsometry(mod, mat)))
    assert outcomes == {True, False}


def test_quotient_orders_match_reference():
    """On Lambda's (K, R) and on (D, R) for the whole group D, where T_r
    moves elements by r: the full reflection group, groups of a few
    transvections, and a subgroup that a transvection does not preserve."""
    mod = ref_module("Lambda")[1]
    kern, rad, r = discform.kernel_and_radical(mod)
    whole = discform.Subgroup(mod, intmat.identity(len(mod.orders)))
    ts = lambda_transvections()
    for grp in (discform.full_reflection_group(mod),
                discform.group_from_generators(ts[:3]),
                discform.group_from_generators(ts[5:6]),
                discform.group_from_generators([discform.transvection(mod, r)])):
        for sub in (kern, whole):
            assert grp.quotient_order(sub, rad) == ref_quotient_order(grp, sub, rad)
    line = discform.Subgroup(mod, [kern.basis[0]])
    grp = discform.group_from_generators(
        [t for t in ts if not all(line.contains(ref_apply(t, x)) for x in line.basis)][:1])
    for order in (grp.quotient_order, lambda s, r: ref_quotient_order(grp, s, r)):
        with pytest.raises(ValueError, match="does not preserve the subgroup"):
            order(line, discform.Subgroup(mod, []))


def test_quotient_order_refuses_a_generator_that_moves_rad():
    """T_u keeps the whole module and the line of u, but moves a line it
    does not fix: as rad, that line is refused like a moved subgroup."""
    mod = ref_module("Lambda")[1]
    whole = discform.Subgroup(mod, intmat.identity(len(mod.orders)))
    u = next(u for u in mod.elements() if mod.q(u) == 1)
    grp = discform.group_from_generators([discform.transvection(mod, u)])
    fixed = discform.Subgroup(mod, [u])
    assert grp.quotient_order(whole, fixed) == ref_quotient_order(grp, whole, fixed)
    x = next(x for x in mod.elements() if ref_apply(grp.generators[0], x) != x)
    with pytest.raises(ValueError, match="does not preserve the subgroup"):
        grp.quotient_order(whole, discform.Subgroup(mod, [x]))


def test_pcompose_on_one_and_two_points():
    """_pcompose is itemgetter(*q)(p), which gives the bare item for one
    key: a permutation of one or two points is still a tuple, and a
    quotient of one coset has order 1."""
    for n in (1, 2, 5):
        perms = list(itertools.permutations(range(n)))
        for p, q in itertools.product(perms, perms):
            assert discform._pcompose(p, q) == tuple(p[x] for x in q)
    assert discform._StabilizerChain(1, [(0,)]).order() == 1
    assert discform._StabilizerChain(2, [(1, 0)]).order() == 2
    mod = ref_module("Lambda")[1]
    u = next(u for u in mod.elements() if mod.q(u) == 1)
    grp = discform.group_from_generators([discform.transvection(mod, u)])
    line, zero = discform.Subgroup(mod, [u]), discform.Subgroup(mod, [])
    assert grp.quotient_order(line, line) == ref_quotient_order(grp, line, line) == 1
    assert grp.quotient_order(line, zero) == ref_quotient_order(grp, line, zero)


# ---------------------------------------------------------------------------
# wall scan: the earlier per-vector classification


def ref_wall_scan(model, rows, gram, pex_only=False):
    """Every enumerated vector built in the ambient lattice and classified."""
    out = []
    for t in (-2, -4) if pex_only else (-2, -4, -6, -12):
        for coords in walls.short_vectors(gram, t):
            ambient = [sum(c * row[i] for c, row in zip(coords, rows))
                       for i in range(model.rank)]
            w = walls.wall_class(model, ambient)
            if w is not None:
                out.append(w)
    return out


@lru_cache(maxsize=None)
def wall_bases():
    """Isometries whose coinvariant lattices hold every wall class, and
    vectors of square -12 and divisibility 2 that fail the WALL12 parity:
    e_0 <-> f_0 with -1 on the first A1 (PEX4, WALL6, failing -12), -1 on
    the reflections in two orthogonal E8 roots with -1 on the A1 pair
    (PEX2, PEX4, WALL12), the reflection in a1_sum, and the reflections in
    four orthogonal E8 roots (the golden case; PEX2).  Their parity
    sublattices run from all of the coinvariant to twice it."""
    model = standard_model()
    lam = model.lattice
    flip = intmat.identity(16)
    flip[0][0] = flip[1][1] = 0
    flip[0][1] = flip[1][0] = 1
    flip[14][14] = -1
    neg = intmat.identity(16)
    neg[14][14] = neg[15][15] = -1
    roots = [isometry.reflection(lam, [int(i == j) for i in range(16)]) for j in (6, 7)]
    golden = Path(__file__).parent / "data" / "golden" / "e8_roots_orthogonal_4.json"
    return (isometry.make_isometry(lam, flip),
            isometry.compose(isometry.compose(*roots), isometry.make_isometry(lam, neg)),
            isometry.reflection(lam, model.named["a1_sum"]),
            isometry.isometry_from_json(json.loads(golden.read_text())))


def _parity_index(rows, blocks):
    """[Z^r : M] for the coordinates x whose v = sum x_i rows_i has G v
    even (and, with blocks, v even on coordinates 0..5): 2 to the F2 rank
    of that parity map, by elimination on 0/1 lists."""
    lam = standard_model().lattice
    pending = [[c % 2 for c in intmat.mat_vec(lam.gram, r)] + ([c % 2 for c in r[:6]] if blocks else [])
               for r in rows]
    rank = 0
    while pending:
        row = pending.pop()
        if any(row):
            j = row.index(1)
            pending = [[(a + b) % 2 for a, b in zip(p, row)] if p[j] else p
                       for p in pending]
            rank += 1
    return 2 ** rank


def test_wall_bases_cover_parity_indices():
    """The parity sublattice M (G v even) and M12 (also even on the
    blocks) are proper on some bases and all of the coinvariant on
    others."""
    kinds = set()
    for f in wall_bases():
        _inv, coinv = isometry.invariant_coinvariant(f)
        kinds.add((_parity_index(coinv.rows, False), _parity_index(coinv.rows, True)))
    assert kinds == {(1, 2), (4, 4), (1, 1), (16, 16)}


def ref_norm(gram):
    """The gcd of the g_ii and the 2 g_ij, i < j, which divides every
    <x, x> of the lattice."""
    n = len(gram)
    return reduce(gcd, [gram[i][i] for i in range(n)]
                  + [2 * gram[i][j] for i in range(n) for j in range(i + 1, n)], 0)


def test_scan_enumerates_exactly_the_parity_vectors(monkeypatch):
    """The scan walks -2 in the whole coinvariant lattice and -4, -6 and
    -12 only in their parity sublattices: as many vectors as the reference
    enumeration has with G v even (and, at -12, v even on the blocks).  It
    skips exactly the walks whose square the norm of their Gram does not
    divide, where the reference finds no such vector, and its witnesses
    are those of ref_wall_scan, which classifies every vector of every
    walk."""
    model = standard_model()
    real = walls.short_vectors
    walked = []

    def spy(gram, t):
        out = real(gram, t)
        walked.append((t, len(out)))
        return out

    gens = lambda_generators()
    skipped = set()
    for f in wall_bases():
        for g in (None, gens[3], gens[11]):
            h = f if g is None else isometry.compose(isometry.compose(g, f), g)
            _inv, coinv = isometry.invariant_coinvariant(h)
            rows, gram = coinv.rows, coinv.lattice.gram
            masks = [sum((c % 2) << i for i, c in enumerate(
                intmat.mat_vec(model.lattice.gram, r) + r[:6])) for r in rows]
            norms = {-2: ref_norm(gram)}
            norms[-4] = norms[-6] = ref_norm(ref_parity_sublattice(gram, masks, 2 ** 16 - 1)[1])
            norms[-12] = ref_norm(ref_parity_sublattice(gram, masks, 2 ** 22 - 1)[1])
            for pex_only in (False, True):
                expect = []
                for t in (-2, -4) if pex_only else (-2, -4, -6, -12):
                    count = 0
                    for x in ref_short_vectors(gram, t):
                        v = intmat.mat_vec(intmat.transpose(coinv.rows), x)
                        count += (t == -2 or (
                            all(c % 2 == 0 for c in intmat.mat_vec(model.lattice.gram, v))
                            and (t != -12 or all(c % 2 == 0 for c in v[:6]))))
                    if t % norms[t]:
                        assert count == 0, t
                        skipped.add(t)
                    else:
                        expect.append((t, count))
                walked.clear()
                monkeypatch.setattr(walls, "short_vectors", spy)
                got = walls.coinvariant_wall_scan(model, h, pex_only)
                monkeypatch.setattr(walls, "short_vectors", real)
                assert walked == expect
                assert got == ref_wall_scan(model, rows, gram, pex_only)
    # the bases (and their conjugates) hold walks ruled out at each square
    assert skipped == {-2, -4, -6, -12}

def test_wall_bases_cover_every_class():
    model = standard_model()
    found = set()
    for f in wall_bases():
        _inv, coinv = isometry.invariant_coinvariant(f)
        found |= {w.wclass for w in walls.coinvariant_wall_scan(model, f)}
        # square -12 and divisibility 2, rejected only by the WALL12 parity
        for x in walls.short_vectors(coinv.lattice.gram, -12):
            v = intmat.mat_vec(intmat.transpose(coinv.rows), x)
            if (model.lattice.divisibility(v) == 2
                    and walls.wall_class(model, v) is None):
                found.add("WALL12 parity")
    assert found == {walls.PEX2, walls.PEX4, walls.WALL6, walls.WALL12,
                     "WALL12 parity"}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(0, 10**6), max_size=3), PICKS)
def test_wall_scan_matches_reference(base, conj, picks):
    """Identical witness lists, in order, on conjugates of the wall bases
    (parity sublattices proper and whole, test_wall_bases_cover_parity_
    indices) and on random reflection words of finite order."""
    model = standard_model()
    gens = lambda_generators()
    for f in (wall_bases()[base], word(gens, picks)):
        for p in conj:
            g = gens[p % len(gens)]
            f = isometry.compose(isometry.compose(g, f), g)
        try:
            isometry.order_of(f)
        except ValueError:
            continue
        _inv, coinv = isometry.invariant_coinvariant(f)
        if coinv.rank == 0 or coinv.lattice.signature()[0]:
            continue
        rows, gram = coinv.rows, coinv.lattice.gram
        for pex_only in (False, True):
            fast = walls.coinvariant_wall_scan(model, f, pex_only)
            slow = ref_wall_scan(model, rows, gram, pex_only)
            assert [w.as_dict() for w in fast] == [w.as_dict() for w in slow]


# ---------------------------------------------------------------------------
# eigenspace signatures: the earlier real-subfield arithmetic



class RefRealSubfield:
    """Q[x]/(minpoly) with isolating intervals for its real roots.

    Elements are tuples of Fractions in the power basis.  Signs at a chosen
    root are decided by interval bisection with an exact error bound; the
    zero element is recognized exactly, so every sign query terminates.
    """

    def __init__(self, minpoly, intervals):
        self.minpoly = [Fraction(c) for c in minpoly]
        self.deg = len(minpoly) - 1
        self.intervals = intervals

    def reduce(self, coeffs):
        c = [Fraction(t) for t in coeffs]
        d = self.deg
        for k in range(len(c) - 1, d - 1, -1):
            lead = c[k]
            if lead:
                for j in range(d + 1):
                    c[k - d + j] -= lead * self.minpoly[j]
            c.pop()
        while len(c) < d:
            c.append(Fraction(0))
        return tuple(c)

    def zero(self):
        return tuple([Fraction(0)] * self.deg)

    def one(self):
        return self.reduce([1])

    def from_int(self, a):
        return self.reduce([a])

    def gen(self):
        return self.reduce([0, 1])

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        conv = [Fraction(0)] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        return self.reduce(conv)

    def inverse(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero in the subfield")
        cols = []
        pw = self.one()
        for _ in range(self.deg):
            cols.append(self.mul(pw, a))
            pw = self.mul(pw, self.gen())
        mat = [[cols[j][i] for j in range(self.deg)] for i in range(self.deg)]
        rhs = [Fraction(1)] + [Fraction(0)] * (self.deg - 1)
        return tuple(intmat.mat_vec(ref_frac_inverse(mat), rhs))

    def sign(self, a, power):
        """Sign of a at the real root isolated by the given interval."""
        if not any(a):
            return 0
        if self.deg == 1:
            return 1 if a[0] > 0 else -1
        lo, hi = (Fraction(t) for t in self.intervals[power])
        big = max(abs(lo), abs(hi), Fraction(1))
        slope = sum(abs(c) * k * big ** (k - 1) for k, c in enumerate(a) if k)
        while True:
            mid = (lo + hi) / 2
            val = _ref_poly_eval(a, mid)
            if abs(val) > slope * (hi - lo) / 2:
                return 1 if val > 0 else -1
            fmid = _ref_poly_eval(self.minpoly, mid)
            if fmid == 0:
                raise RuntimeError("isolating interval hit a rational root")
            if _ref_poly_eval(self.minpoly, lo) * fmid < 0:
                hi = mid
            else:
                lo = mid


def _ref_poly_eval(coeffs, x):
    out = Fraction(0)
    for c in reversed(list(coeffs)):
        out = out * x + c
    return out


REF_REAL_SUBFIELD = {
    2: ([2, 1], None),
    3: ([1, 1], None),
    5: ([-1, 1, 1], {1: (0, 1), 2: (-2, -1)}),
    7: ([-1, -2, 1, 1], {1: (1, 2), 2: (-1, 0), 3: (-2, -1)}),
}


def _ref_field_kernel(field, mat):
    """Right kernel basis of a square matrix over the subfield."""
    m = [list(row) for row in mat]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivot_cols = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if any(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inverse(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nr):
            if i != r and any(m[i][c]):
                lead = m[i][c]
                m[i] = [field.sub(x, field.mul(lead, y)) for x, y in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == nr:
            break
    basis = []
    for c in range(nc):
        if c in pivot_cols:
            continue
        v = [field.zero()] * nc
        v[c] = field.one()
        for i, pc in enumerate(pivot_cols):
            v[pc] = field.neg(m[i][c])
        basis.append(v)
    return basis


def _ref_field_diag_signs(field, b, power):
    """Signs of a congruence diagonalization of b at the chosen root."""
    a = [row[:] for row in b]
    n = len(a)
    signs = []
    for k in range(n):
        if not any(a[k][k]):
            j = next((t for t in range(k + 1, n) if any(a[t][t])), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((t for t in range(k + 1, n) if any(a[k][t])), None)
                if j is None:
                    signs.append(0)
                    continue
                for t in range(n):
                    a[k][t] = field.add(a[k][t], a[j][t])
                for t in range(n):
                    a[t][k] = field.add(a[t][k], a[t][j])
        dinv = field.inverse(a[k][k])
        for i in range(k + 1, n):
            if any(a[i][k]):
                c = field.mul(a[i][k], dinv)
                a[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(a[i], a[k])]
                for t in range(n):
                    a[t][i] = field.sub(a[t][i], field.mul(c, a[t][k]))
        signs.append(field.sign(a[k][k], power))
    return signs


def ref_cos_kernel_signature(f, p, pw):
    """Real signature of ker(f + f^-1 - 2cos(2 pi pw / p)) as a quadratic space."""
    field = RefRealSubfield(*REF_REAL_SUBFIELD[p])
    lat = f.lattice
    n = lat.rank
    s = [[x + y for x, y in zip(ra, rb)]
         for ra, rb in zip(f.matrix, isometry.inverse(f).matrix)]
    gen = field.gen()
    a = [[field.from_int(s[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][i] = field.sub(a[i][i], gen)
    ker = _ref_field_kernel(field, a)
    if not ker:
        return 0, 0
    g = lat.gram
    gk = []
    for v in ker:
        img = []
        for i in range(n):
            acc = field.zero()
            for j in range(n):
                if g[i][j]:
                    acc = field.add(acc, field.mul(field.from_int(g[i][j]), v[j]))
            img.append(acc)
        gk.append(img)
    b = [[None] * len(ker) for _ in ker]
    for i, v in enumerate(ker):
        for j in range(i, len(ker)):
            acc = field.zero()
            for t in range(n):
                if any(v[t]):
                    acc = field.add(acc, field.mul(v[t], gk[j][t]))
            b[i][j] = acc
            b[j][i] = acc
    signs = _ref_field_diag_signs(field, b, pw)
    return signs.count(1), signs.count(-1)


@lru_cache(maxsize=None)
def prime_order_generators():
    """Reflections in the monodromy sample, then in e_b + f_b and
    e_b - f_b for the blocks b = 0, 1, 2."""
    model = standard_model()
    lam = model.lattice
    gens = [isometry.reflection(lam, v) for v in cli.monodromy_sample(model)]
    for b in range(3):
        e, f = model.named["e%d" % b], model.named["f%d" % b]
        gens += [isometry.reflection(lam, [x + s * y for x, y in zip(e, f)])
                 for s in (1, -1)]
    return tuple(gens)


# words whose eigenspace at one cosine has signature (2, *), pinned in
# test_isometry.py::test_nonsymplectic_prime_check; random words of order
# divisible by 7 are rare
PRIME_ORDER_WORDS = ([29, 11, 21, 8, 25, 14], [39, 23, 20, 9, 27, 17],
                     [12, 5, 33, 7, 40, 7, 40],
                     [0, 34, 30, 16, 40, 7, 15, 30, 11, 1, 28, 43])


def prime_order_corpus(seed, trials):
    """(h, p) for seeded words f of order o divisible by a prime p in
    {2, 3, 5, 7}, with h = f^(o/p); then the pinned words and the Coxeter
    elements of the A4 and A6 chains of E8."""
    gens = prime_order_generators()
    rng = random.Random(seed)
    words = [[rng.randrange(len(gens)) for _ in range(rng.randint(2, 7))]
             for _ in range(trials)]
    out = []
    for picks in words + list(PRIME_ORDER_WORDS):
        f = word(gens, picks)
        try:
            o = isometry.order_of(f)
        except ValueError:
            continue
        out += [(isometry.power(f, o // p), p) for p in (2, 3, 5, 7) if o % p == 0]
    lam = standard_model().lattice
    for chain, p in (((6, 8, 9, 10), 5), ((6, 8, 9, 10, 11, 12), 7)):
        refls = [isometry.reflection(lam, [int(i == j) for i in range(16)])
                 for j in chain]
        out.append((word(refls, range(len(refls))), p))
    return out


def test_cos_signatures_match_reference():
    """The integer shifts give the signature of every eigenspace that the
    real-subfield kernel gives, at every p, including (2, *) at 3, 5, 7."""
    positive = set()
    for h, p in prime_order_corpus(seed=5, trials=150):
        _inv, coinv = isometry.invariant_coinvariant(h)
        sigs = isometry._cos_signatures(h, coinv, p)
        assert sigs == {k: ref_cos_kernel_signature(h, p, k) for k in sigs}
        positive |= {(p, s[0]) for s in sigs.values()}
    assert {p for p, _pos in positive} == {2, 3, 5, 7}
    assert {(3, 2), (5, 2), (7, 2)} <= positive


# ---------------------------------------------------------------------------
# products and eliminations: the dot-product mat_mul (the one form of
# mat_mul must give its values, a rational factor or an empty one too) and
# the Smith routine that built u for every kernel


def ref_mat_mul(a, b):
    bt = [list(col) for col in zip(*b)]
    return [[sum(map(mul, ra, cb)) for cb in bt] for ra in a]


def ref_smith_normal_form(m):
    a = [[int(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = intmat.identity(rows)
    v = intmat.identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        for row in a + v:
            row[i] += c * row[j]

    t = 0
    while t < min(rows, cols):
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
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                add_row(i, t, -(a[i][t] // a[t][t]))
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, cols):
            if a[t][j]:
                add_col(j, t, -(a[t][j] // a[t][t]))
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        d = a[t][t]
        culprit = next((i for i in range(t + 1, rows)
                        for j in range(t + 1, cols) if a[i][j] % d), None)
        if culprit is not None:
            add_row(t, culprit, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def ref_kernel_basis(m):
    if not m:
        return []
    d, _u, v = ref_smith_normal_form(m)
    r = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])
    return [[row[j] for row in v] for j in range(r, len(v))]


@st.composite
def matrix_pairs(draw):
    """(a, b), a r x k and b k x c, any of them possibly 0, with any share
    of zeros and entries up to 2^62."""
    r, k, c = (draw(st.integers(0, 7)) for _ in range(3))
    entry = st.sampled_from((0,) * draw(st.integers(0, 24))
                            + (1, -1, 2, -3, 7, 2**62, -2**62))
    return ([[draw(entry) for _ in range(k)] for _ in range(r)],
            [[draw(entry) for _ in range(c)] for _ in range(k)])


GRAM = standard_model().lattice.gram
DENSE = [[(3 * i + j) % 7 - 3 for j in range(16)] for i in range(16)]


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
@example((GRAM, DENSE))
@example((DENSE, GRAM))
@example(([[Fraction(x) for x in row] for row in GRAM], GRAM))
@example((GRAM, [[Fraction(x, 2) for x in row] for row in DENSE]))
@example(([[], [], []], []))
def test_mat_mul_forms_agree(pair):
    a, b = pair
    assert intmat.mat_mul(a, b) == ref_mat_mul(a, b)


def test_mat_mul_form_follows_zeros_and_types(monkeypatch):
    """The row-combination form runs whatever the share of zeros and the
    entry types of either factor, never transposing b, and its entries
    keep the types of the dot products."""
    calls = []
    transpose = intmat.transpose
    monkeypatch.setattr(intmat, "transpose", lambda a: calls.append(1) or transpose(a))
    for a, b in ((GRAM, DENSE), (DENSE, GRAM),
                 ([[Fraction(x) for x in row] for row in GRAM], GRAM),
                 (GRAM, [[Fraction(x, 2) for x in row] for row in DENSE])):
        out = intmat.mat_mul(a, b)
        assert out == ref_mat_mul(a, b)
        assert [list(map(type, row)) for row in out] == [
            list(map(type, row)) for row in ref_mat_mul(a, b)]
        assert not calls


@lru_cache(maxsize=None)
def classify_pairing_matrices():
    """For each golden isometry and seeded word in Lambda: M - I, and the
    pairing rows G r of its invariant basis, whose kernel is the
    coinvariant lattice."""
    lam = standard_model().lattice
    fs = [isometry.isometry_from_json(json.loads(p.read_text()))
          for p in sorted((Path(__file__).parent / "data" / "golden").glob("*.json"))]
    rng = random.Random(11)
    fs += [word(lambda_generators(), [rng.randrange(10**6) for _ in range(rng.randint(1, 4))])
           for _ in range(20)]
    out = []
    for f in fs:
        delta = [[x - y for x, y in zip(row, ident)]
                 for row, ident in zip(f.matrix, intmat.identity(16))]
        rows = ref_kernel_basis(delta)
        out += [delta] + ([intmat.mat_mul(rows, lam.gram)] if rows else [])
    return out


def test_kernel_basis_matches_reference_on_classify_matrices():
    for m in classify_pairing_matrices():
        assert intmat.kernel_basis(m) == ref_kernel_basis(m)
        assert intmat.smith_normal_form(m) == ref_smith_normal_form(m)


@pytest.mark.parametrize("expr", ["A1^12", "E8(2)^2", "U(4)^3+A1"])
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_smith_normal_form_with_repeated_pivots_matches_reference(expr, seed):
    """Grams whose Smith pivots repeat, where _smith skips the divisibility
    scan of a pivot equal to the one before it; also seeded rebasings."""
    g = lattice.build_named(expr).gram
    if seed is not None:
        g = _rebased(g, random.Random(seed), 3 * len(g))
    assert intmat.smith_normal_form(g) == ref_smith_normal_form(g)


@st.composite
def sparse_tied_matrices(draw):
    """Rectangular int matrices up to 16 x 16, mostly zero, whose nonzero
    entries take few absolute values, so that the least |entry| is often
    tied between rows and within a row."""
    r, c = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    values = draw(st.sampled_from(((1, -1), (2, -2, 4), (2, -2, 3, -3, 6),
                                   (5, -5, 7, 10, -15))))
    m = [[0] * c for _ in range(r)]
    for i, j, x in draw(st.lists(st.tuples(st.integers(0, r - 1),
                                           st.integers(0, c - 1),
                                           st.sampled_from(values)),
                                 max_size=r * c // 3 + 1)):
        m[i][j] = x
    return m


@settings(max_examples=200, deadline=None)
@given(sparse_tied_matrices())
@example([[0, 2, 0, -2], [2, 0, -2, 0], [0, -2, 4, 2]])
def test_smith_normal_form_matches_reference_on_sparse_tied_matrices(m):
    """The pivot is the least |entry|, the first in row order and then in
    column order, whichever rows the row minima were last refreshed in."""
    assert intmat.smith_normal_form(m) == ref_smith_normal_form(m)
    assert intmat.kernel_basis(m) == ref_kernel_basis(m)


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
def test_kernel_basis_matches_reference_on_small_matrices(pair):
    for m in pair:
        m = [[x % 19 - 9 for x in row] for row in m]
        assert intmat.kernel_basis(m) == ref_kernel_basis(m)
        assert intmat.smith_normal_form(m) == ref_smith_normal_form(m)


def test_order_of_rejects_negated_eichler_transvection():
    """E: x -> x + <x, e1> e2 - <x, e2> e1 on U + U is unipotent, so -E has
    chi = (x + 1)^4 and the cyclotomic division alone says order 2; but
    (-E)^2 = E^2 != I, which the symmetry test on G M must catch."""
    uu = lattice.build_named("U^2")
    e = [[1, 0, 0, -1], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    neg = isometry.make_isometry(uu, [[-x for x in row] for row in e])
    assert isometry._char_poly_mod(neg.matrix) == [1, 4, 6, 4, 1]
    assert isometry.power(neg, 2).matrix != intmat.identity(4)
    with pytest.raises(ValueError, match="infinite order"):
        isometry.order_of(neg)
    with pytest.raises(ValueError, match="infinite order"):
        ref_order_of(neg)


def ref_ambient_order_of(f, cap=10**6):
    """order_of as it was before it read the coinvariant action: the n x n
    characteristic polynomial mod P, cyclotomic division over phi(d) <= n
    and the exact power check on M itself."""
    n = f.lattice.rank
    if n == 0:
        return 1
    poly = isometry._char_poly_mod(f.matrix)
    order = 1
    for d in isometry._cyclotomic_indices(n):
        cyc = isometry._cyclotomic(d)
        hit = False
        while len(poly) >= len(cyc):
            quo, rem = isometry._poly_divmod(poly, cyc)
            if any(rem):
                break
            poly, hit = quo, True
        if hit:
            order = order * d // gcd(order, d)
        if len(poly) == 1:
            break
    if len(poly) > 1 or not (
            f.gram_matrix == intmat.transpose(f.gram_matrix) if order == 2
            else isometry._mat_power(f.matrix, order) == intmat.identity(n)):
        raise ValueError("isometry has infinite order, beyond any cap")
    if order > cap:
        raise ValueError("isometry order exceeds the cap of %d" % cap)
    return order


GOLDEN = Path(__file__).parent / "data" / "golden"


@lru_cache(maxsize=None)
def golden_matrices():
    return {p.stem: json.loads(p.read_text())["matrix"]
            for p in sorted(GOLDEN.glob("*.json"))}


def fresh_goldens():
    """The golden isometries, made anew so that no split is kept on them."""
    lam = standard_model().lattice
    return {name: isometry.make_isometry(lam, m)
            for name, m in golden_matrices().items()}


def test_coinvariant_order_matches_ambient_reference():
    """order_of on the action A on the coinvariant lattice agrees with the
    n x n path and with the order over Z on the golden isometries, whose
    coinvariant ranks and orders cover s = 0, 1, 2, 3, 4, 5, 6, 8, 10 and 16
    and 1, 2, 3, 4 and 6 (the sample words among them)."""
    seen = set()
    for name, f in fresh_goldens().items():
        order = isometry.order_of(f)
        assert order == ref_ambient_order_of(f) == ref_order_of(f), name
        seen.add((isometry.invariant_coinvariant(f)[1].rank, order))
    assert {s for s, _ in seen} == {0, 1, 2, 3, 4, 5, 6, 8, 10, 16}
    assert {o for _, o in seen} == {1, 2, 3, 4, 6}


def seeded_involutions(seed=20, count=40):
    """g b g^-1 for seeded reflection words g and involutions b: the
    generators (reflections and -id) and the golden involutions."""
    rng = random.Random(seed)
    gens = lambda_generators()
    bases = list(gens) + [f for f in fresh_goldens().values()
                          if not f.is_identity() and isometry.power(f, 2).is_identity()]
    out = []
    for _ in range(count):
        picks = [rng.randrange(len(gens)) for _ in range(rng.randint(1, 4))]
        g, g_inv = word(gens, picks), word(gens, picks[::-1])
        out.append(isometry.compose(isometry.compose(g, rng.choice(bases)), g_inv))
    return out


def test_order_two_read_off_the_gram_product(monkeypatch):
    """An involution gets order 2 from the symmetry of G M, without a
    characteristic polynomial, on the golden involutions and on seeded
    conjugates of involutions; the cap still applies."""
    def no_poly(m):
        raise AssertionError("characteristic polynomial of an involution")

    goldens = [f for f in fresh_goldens().values()
               if not f.is_identity() and isometry.power(f, 2).is_identity()]
    cases = goldens + seeded_involutions()
    assert len(goldens) >= 15
    for f in cases:
        assert isometry.power(f, 2).is_identity() and not f.is_identity()
        with monkeypatch.context() as m:
            m.setattr(isometry, "_char_poly_mod", no_poly)
            order = isometry.order_of(f)
            with pytest.raises(ValueError, match="exceeds the cap of 1"):
                isometry.order_of(f, cap=1)
        assert order == ref_ambient_order_of(f) == 2
        assert isometry.order_of(f, cap=2) == 2

def test_order_of_degenerate_fixed_lattice_is_infinite(monkeypatch):
    """The Eichler transvection E itself fixes the isotropic span of e1
    and e2: its fixed lattice is degenerate, which is infinite order.
    Any other failure of the split goes through unchanged."""
    uu = lattice.build_named("U^2")
    e = isometry.make_isometry(
        uu, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError, match=re.escape(lattice.DEGENERATE)):
        isometry.invariant_coinvariant(e)
    for order_of in (isometry.order_of, ref_ambient_order_of, ref_order_of):
        with pytest.raises(ValueError, match="infinite order, beyond any cap"):
            order_of(e)

    def broken(f):
        raise ValueError("some other failure")

    monkeypatch.setattr(isometry, "invariant_coinvariant", broken)
    with pytest.raises(ValueError, match="some other failure"):
        isometry.order_of(e)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.data())
def test_saturated_columns_independent_mod_2_and_solve(rank, extra, data):
    """A saturated basis C (kernel_basis of a random matrix, s x n) has s
    columns J independent mod 2, whose determinant is odd, as order_of
    needs; solve gives D and Y with C[:, J] Y = D B."""
    n = rank + extra
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5))
    m = [[data.draw(entry) for _ in range(n)] for _ in range(extra)]
    c = intmat.kernel_basis(m)
    assume(c)
    masks = [sum((x & 1) << i for i, x in enumerate(col)) for col in zip(*c)]
    cols = [j for j, rel in enumerate(intmat.f2_relations(masks)) if not rel]
    square = [[row[j] for j in cols] for row in c]
    assert len(cols) == len(c) and intmat.det(square) % 2 == 1
    b = [[data.draw(entry) for _ in range(3)] for _ in range(len(c))]
    d, y = intmat.solve(square, b)
    assert intmat.mat_mul(square, y) == [[d * x for x in row] for row in b]


def test_inverse_matches_dual_gram_form():
    """inverse(f), the eliminated inverse of M, equals G^-1 M^T G, and
    compose(f, inverse(f)) is the identity, on the goldens and words."""
    rng = random.Random(4)
    words = [word(lambda_generators(), [rng.randrange(10**6) for _ in range(4)])
             for _ in range(10)]
    for f in list(fresh_goldens().values()) + words:
        inv = isometry.inverse(f)
        assert inv.matrix == intmat.mat_mul(
            intmat.frac_inverse(f.lattice.gram), intmat.transpose(f.gram_matrix))
        assert isometry.compose(f, inv).is_identity()
        assert isometry.compose(inv, f).is_identity()
    e8 = lattice.root_E8()
    assert lattice.dual(lattice.dual(e8)).gram == e8.gram


@lru_cache(maxsize=None)
def sample_reflections():
    """The reflections in the vectors of cli.monodromy_sample."""
    model = standard_model()
    return tuple(isometry.reflection(model.lattice, v)
                 for v in cli.monodromy_sample(model))


@settings(max_examples=30, deadline=None)
@given(PICKS, PICKS, st.integers(1, 3))
def test_inverse_conjugate_and_power_match_frac_inverse(picks_f, picks_g, k):
    """inverse, one integer solve of G Y = D M^T G, and the conjugate and
    negative powers built on it give the int matrices of frac_inverse."""
    f, g = word(sample_reflections(), picks_f), word(sample_reflections(), picks_g)
    ref = intmat.frac_inverse(f.matrix)
    want = intmat.identity(16)
    for _ in range(k):
        want = intmat.mat_mul(want, ref)
    for got, expected in (
            (isometry.inverse(f), ref), (isometry.power(f, -k), want),
            (isometry.conjugate(f, g), intmat.mat_mul(
                intmat.mat_mul(g.matrix, f.matrix), intmat.frac_inverse(g.matrix)))):
        assert got.matrix == expected
        assert set(map(type, itertools.chain.from_iterable(got.matrix))) == {int}


def test_inverse_refuses_a_remainder():
    """A Gram product whose solve leaves a remainder is no isometry."""
    fake = mock.Mock(lattice=lattice.build_named("A1"), gram_matrix=[[1]])
    with pytest.raises(ValueError, match="not integral"):
        isometry.inverse(fake)


# ---------------------------------------------------------------------------
# F2 eliminations: the row reduction behind the discriminant subgroups and
# their kernels, and the parity loop of the wall scan, before both became
# intmat.f2_relations


def ref_f2_rref(rows, width):
    mat = [[int(x) % 2 for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [(a + b) % 2 for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def ref_f2_kernel(rows, width):
    rref, pivots = ref_f2_rref(rows, width)
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        x = [0] * width
        x[f] = 1
        for row, p in zip(rref, pivots):
            if row[f]:
                x[p] = 1
        basis.append(x)
    return basis


class RefSubgroup:
    """A subgroup of a 2-elementary module by its row-reduced basis."""

    def __init__(self, module, vectors):
        self.module = module
        rref, self.pivots = ref_f2_rref([module.reduce(x) for x in vectors],
                                        len(module.orders))
        self.basis = [tuple(r) for r in rref]

    def contains(self, x):
        x = list(self.module.reduce(x))
        for row, p in zip(self.basis, self.pivots):
            if x[p]:
                x = [(a + b) % 2 for a, b in zip(x, row)]
        return not any(x)

    def elements(self):
        out = [self.module.zero()]
        for b in self.basis:
            out += [self.module.add(x, b) for x in out]
        return sorted(out)


def ref_parity_sublattice(gram, masks, bits):
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
    return basis, ref_mat_mul(basis, ref_mat_mul(gram, intmat.transpose(basis)))


@st.composite
def f2_matrices(draw):
    """(width, row masks): width 0-10, rows that are zero, repeat or sum
    earlier rows, unit rows (so some matrices have full rank) or random."""
    width = draw(st.integers(0, 10))
    masks = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("zero", "repeat", "sum", "unit", "random")))
        if kind == "zero" or not width:
            masks.append(0)
        elif kind in ("repeat", "sum") and masks:
            picked = draw(st.lists(st.sampled_from(masks), min_size=1,
                                   max_size=1 if kind == "repeat" else 4))
            masks.append(reduce(xor, picked))
        elif kind == "unit":
            masks.append(1 << draw(st.integers(0, width - 1)))
        else:
            masks.append(draw(st.integers(0, 2 ** width - 1)))
    return width, masks


@settings(max_examples=300, deadline=None)
@given(f2_matrices(), st.integers(0, 2 ** 10 - 1), st.randoms(use_true_random=False))
@example((10, [1 << j for j in range(10)]), 2 ** 10 - 1, random.Random(0))
@example((10, [0, 5, 5, 0, 1023]), 1023, random.Random(1))
@example((0, [0, 0]), 0, random.Random(2))
def test_f2_eliminations_match_reference(case, bits, rng):
    width, masks = case
    rows = [[m >> j & 1 for j in range(width)] for m in masks]
    cols = [intmat.f2_mask([row[c] for row in rows]) for c in range(width)]
    assert [[rel >> j & 1 for j in range(width)]
            for rel in intmat.f2_relations(cols) if rel] == ref_f2_kernel(rows, width)

    n = len(masks)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = rng.randint(-6, 6)
    assert walls._parity_sublattice(gram, masks, bits) == ref_parity_sublattice(
        gram, masks, bits)

    # q(g_i) = 1/2 and b(g_i, g_j) = [i = j], in units of 1/2
    mod = discform.TorsionQuadModule(
        [2] * width, [1] * width,
        [[2 * (i == j) for j in range(width)] for i in range(width)])
    sub, ref = discform.Subgroup(mod, rows), RefSubgroup(mod, rows)
    assert sub.dim == len(ref.basis)
    assert sub.order() == 2 ** sub.dim
    assert sub.elements() == ref.elements()
    assert [sub.contains(x) for x in mod.elements()] == [
        ref.contains(x) for x in mod.elements()]


@settings(max_examples=300, deadline=None)
@given(f2_matrices(), st.integers(0, 2 ** 10 - 1), st.randoms(use_true_random=False))
@example((10, [1 << j for j in range(10)]), 2 ** 10 - 1, random.Random(0))
@example((10, [0, 5, 5, 0, 1023]), 1022, random.Random(1))
@example((3, [6, 3]), 5, random.Random(2))
def test_f2_least_is_the_least_of_the_coset(case, mask, rng):
    """intmat.f2_least on pivots it reduced itself, in any order, is the
    brute-force minimum of mask + span, 0 exactly on the span."""
    width, masks = case
    mask &= (1 << width) - 1
    pivots = []
    for m in masks:
        m = intmat.f2_least(pivots, m)
        if m:
            pivots.append(m)
    assert len({p.bit_length() for p in pivots}) == len(pivots)
    span = {0}
    for m in masks:
        span |= {x ^ m for x in span}
    rng.shuffle(pivots)
    least = intmat.f2_least(pivots, mask)
    assert least == min(mask ^ x for x in span)
    assert (least == 0) == (mask in span)


def ref_kernel_and_radical(mod):
    """discform.kernel_and_radical as it was, on coordinate tuples with one
    Fraction-valued mod.b per pair of kernel vectors, ref_f2_kernel in
    place of the F2 kernel it equals: (kernel basis, radical basis, r)."""
    k = len(mod.orders)
    kernel = [tuple(x) for x in ref_f2_kernel([[qu % 2 for qu in mod.qunits]], k)]
    bk = [[int(mod.b(x, y)) for y in kernel] for x in kernel]
    radical = []
    for combo in ref_f2_kernel(bk, len(kernel)):
        x = mod.zero()
        for c, bvec in zip(combo, kernel):
            if c:
                x = mod.add(x, bvec)
        radical.append(x)
    r = radical[0] if len(radical) == 1 and mod.q(radical[0]) == 1 else None
    return kernel, radical, r


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(("A1", "D4", "D8", "E8(2)", "U(2)")),
                min_size=1, max_size=8).map("+".join))
@example("U(2)^3+E8+A1^2")
@example("A1^2+D4")
@example("E8(2)")
@example("D4^3")
def test_kernel_and_radical_match_reference(expr):
    mod = discform.discriminant_form(lattice.build_named(expr))
    kernel, radical, r = discform.kernel_and_radical(mod)
    assert (kernel.basis, radical.basis, r) == ref_kernel_and_radical(mod)


# ---------------------------------------------------------------------------
# exact powers: Newton's method from 2^ceil(bits / k), before it started
# from the top bits of n


def ref_power_root(n, least=2):
    """genus._power_root as it was."""
    for k in filter(intmat.is_prime,
                    range(2, n.bit_length() // (least.bit_length() - 1) + 1)):
        if k == 2:
            r = isqrt(n)
        else:
            r = 1 << -(-n.bit_length() // k)
            while (y := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
                r = y
        if r ** k == n:
            return r
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 2 ** 24), st.integers(2, 13), st.integers(0, 2 ** 200))
@example(2 ** 20 + 7, 13, 3 ** 120)
def test_power_root_matches_reference(r, k, odd):
    """Exact powers r^k, their neighbours r^k +- 1 and random odd n, with
    every prime k tried (least 2) and with k up to bits / 10 as
    _prime_factors asks."""
    for n in (r ** k, r ** k - 1, r ** k + 1, odd | 1):
        if n > 1:
            assert genus._power_root(n) == ref_power_root(n)
            assert genus._power_root(n, 1 << 10) == ref_power_root(n, 1 << 10)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2 ** 3000), st.integers(3, 400))
def test_floor_root_brackets_the_root(n, k):
    r = genus._floor_root(n, k)
    assert r ** k <= n < (r + 1) ** k


def test_power_root_on_large_numbers():
    """A 3,000-bit non-power, a 61st power and a square of 1,500 bits
    against the reference, with k up to bits / 10."""
    rng = random.Random(61)
    big = rng.getrandbits(3000) | 1 << 2999 | 1
    root = rng.getrandbits(50) | 1 << 49
    for n in (big, root ** 61, (root ** 15) ** 2):
        assert genus._power_root(n, 1 << 10) == ref_power_root(n, 1 << 10)


# ---------------------------------------------------------------------------
# genus equality: the per-prime walk over canonicalized symbols, with the
# trivial symbol synthesized at a prime that only one side names, before it
# became the equality of canonical strings; and the table match that parsed
# each row's genus strings on every call

def ref_symbol_det(sym):
    """The signed determinant of a symbol, from its local data."""
    d = 1
    for p, cs in sym.local.items():
        for c in cs:
            d *= p ** (c.scale * c.rank)
    return -d if sym.neg % 2 else d


def ref_local_at(sym, p):
    if p in sym.local:
        return sym.local[p]
    if p == 2:
        raise ValueError("symbol has no 2-adic data")
    return [genus.Constituent(0, sym.rank, genus._legendre_int(ref_symbol_det(sym), p))]


def ref_genus_equal(a, b):
    """genus.genus_equal as it was."""
    if (a.pos, a.neg, a.even) != (b.pos, b.neg, b.even):
        return False
    if ref_symbol_det(a) != ref_symbol_det(b):
        return False
    ca, cb = genus.canonicalize(a), genus.canonicalize(b)
    for p in sorted(set(ca.local) | set(cb.local)):
        if ref_local_at(ca, p) != ref_local_at(cb, p):
            return False
    return True


def ref_match_row(rows, order, dorder, regular, inv_sym, coinv_sym):
    """isometry._match_row as it was, on symbols."""
    def matches(text, sym):
        if text is None or sym is None:
            return (text is None) == (sym is None)
        return ref_genus_equal(genus.parse_genus(text), sym)

    for row in rows:
        if (row["order"], row["disc_order"], bool(row["regular"])) == (
                order, dorder, regular) and matches(
                row["invariant_genus"], inv_sym) and matches(
                row["coinvariant_genus"], coinv_sym):
            return row
    return None


def table_versions():
    """The class table as loaded (errata applied) and as printed."""
    return fixtures.load_table(), fixtures.load_table(fixtures._DATA / "table1.json")


ROOT = Path(__file__).resolve().parents[1]


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_genus_grams(seeds=(1, 31)):
    """The Grams of the genus workload's inputs (64 a seed), made by
    perfbench/workloads.py, loaded read-only."""
    with mock.patch.dict(sys.modules, {"oracles": _perfbench_module("oracles")}):
        workloads = _perfbench_module("workloads")
    grams = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            wl = workloads.make("genus", standard_model(), fixtures.load_table())
            workdir = Path(tmp) / str(seed)
            workdir.mkdir()
            for batch in wl.generate(seed, workdir):
                grams += [json.loads(item.path.read_text())["gram"] for item in batch]
    return grams


SUM_SUMMANDS = ("A1", "A2", "A3", "A4", "A5", "D4", "E8", "U", "V", "K3", "K5",
                "K7", "H3", "H5")
SUM_SCALES = ("", "", "(2)", "(-1)", "(3)", "(4)", "(-2)", "(8)")


def seeded_sums(count=400, seed=19):
    """Sums of one to four scaled summands, odd ones (V, A1 scaled by an odd
    number) included."""
    rng = random.Random(seed)
    return ["+".join(rng.choice(SUM_SUMMANDS) + rng.choice(SUM_SCALES)
                     for _ in range(rng.randint(1, 4))) for _ in range(count)]


@lru_cache(maxsize=None)
def genus_symbol_set():
    """(label, symbol): the table's strings as loaded and as printed, the
    genera of the genus workload's 128 inputs and of the goldens' invariant
    and coinvariant lattices, and of the seeded sums."""
    out = []
    for name, rows in zip(("loaded", "printed"), table_versions()):
        for row in rows:
            for key in ("invariant_genus", "coinvariant_genus"):
                if row[key] is not None:
                    out.append(("%s row %d %s" % (name, row["no"], key),
                                genus.parse_genus(row[key])))
    for i, g in enumerate(benchmark_genus_grams()):
        out.append(("genus input %d" % i, genus.genus_symbol(lattice.Lattice(g))))
    for name, f in fresh_goldens().items():
        for part, sub in zip(("invariant", "coinvariant"),
                             isometry.invariant_coinvariant(f)):
            if sub.rank:
                out.append(("%s %s" % (name, part), genus.genus_symbol(sub.lattice)))
    for expr in seeded_sums():
        out.append((expr, genus.genus_symbol(lattice.build_named(expr))))
    return out


def test_genus_equal_matches_reference():
    """Canonical-string equality against the per-prime walk, on every pair
    of symbols with the same signature and parity (706 symbols)."""
    symbols = genus_symbol_set()
    assert len(symbols) == 706
    by_head = {}
    for label, sym in symbols:
        by_head.setdefault((sym.pos, sym.neg, sym.even), []).append((label, sym))
    counts = {True: 0, False: 0, "presentations": 0}
    for group in by_head.values():
        for (la, a), (lb, b) in itertools.combinations(group, 2):
            same = ref_genus_equal(a, b)
            assert genus.genus_equal(a, b) == same, (la, lb)
            counts[same] += 1
            counts["presentations"] += same and (
                genus.render_genus(a) != genus.render_genus(b))
    # both answers occur often, some between symbols rendered differently
    assert counts[True] > 100 and counts[False] > 3000
    assert counts["presentations"] >= 5


def test_match_row_matches_reference():
    """Every row of the loaded and of the printed table, as a query, matches
    the same row of either table, or none, under both matchers."""
    tables = table_versions()
    for query in tables[0] + tables[1]:
        syms = [None if query[k] is None else genus.parse_genus(query[k])
                for k in ("invariant_genus", "coinvariant_genus")]
        texts = [None if s is None else genus.canonical_string(s) for s in syms]
        head = (query["order"], query["disc_order"], bool(query["regular"]))
        for rows in tables:
            want = ref_match_row(rows, *head, *syms)
            assert isometry._match_row(rows, *head, *texts) is want, query["no"]


def test_constituents_and_witnesses_are_values():
    """Constituent and WallWitness are immutable and hashable; a
    Constituent is the plain tuple of its fields, and as_dict() is as it
    was."""
    c = genus.Constituent(1, 2, -1, "I", 3)
    with pytest.raises(AttributeError):
        c.rank = 4
    assert c == (1, 2, -1, "I", 3) == genus.Constituent(*c)
    assert tuple(c) == (1, 2, -1, "I", 3)
    assert genus.Constituent(0, 3, 1) == (0, 3, 1, None, None)
    assert len({c, genus.Constituent(1, 2, -1, "I", 3), c._replace(eps=1)}) == 2
    lat = lattice.build_named("A1(2)+U+A2")
    assert genus.padic_jordan(lat, 2) == [
        (0, 4, -1, "II", 0), (2, 1, 1, "I", 7)]
    assert genus.padic_jordan(lat, 3) == [
        (0, 4, 1, None, None), (1, 1, 1, None, None)]
    model = standard_model()
    v = [0] * 16
    v[6] = 1
    w = walls.wall_class(model, v)
    with pytest.raises(AttributeError):
        w.square = -4
    assert w.vector == tuple(v) and hash(w) == hash(walls.wall_class(model, v))
    assert w.as_dict() == {"vector": v, "square": -2, "divisibility": 1,
                           "class": "PEX2"}
    assert w == walls.wall_class(model, v, intmat.mat_vec(model.lattice.gram, v))


# ---------------------------------------------------------------------------
# the 2-adic canonical form: the exhaustive orbit search, before the orbit
# was read as a coset over F2 and reduced by echelon form

def ref_canonical_two_adic(constituents):
    """genus._canonical_two_adic as it was: the sign/oddity orbit searched
    state by state and the lexicographically least state kept."""
    if not constituents:
        return []
    by_scale = {c.scale: c for c in constituents}
    top = max(by_scale)
    ranks = [by_scale[e].rank if e in by_scale else 0 for e in range(top + 1)]
    kinds = [by_scale[e].kind if e in by_scale else "II" for e in range(top + 1)]
    comps = genus._compartments(constituents)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for e in comp:
            comp_of[e] = ci
    eps0 = tuple(0 if e not in by_scale or by_scale[e].eps == 1 else 1
                 for e in range(top + 1))
    tot0 = tuple(sum(by_scale[e].oddity for e in comp) % 8 for comp in comps)
    moves = []
    for e in range(top):
        if ranks[e] and ranks[e + 1] and "I" in (kinds[e], kinds[e + 1]):
            target = comp_of[e] if kinds[e] == "I" else comp_of[e + 1]
            moves.append((e, e + 1, (target,)))
    for e in range(top - 1):
        if (ranks[e] and ranks[e + 2] and not ranks[e + 1]
                and kinds[e] == "I" and kinds[e + 2] == "I"):
            moves.append((e, e + 2, (comp_of[e], comp_of[e + 2])))
    seen = {(eps0, tot0)}
    queue = [(eps0, tot0)]
    while queue:
        eps, tot = queue.pop()
        for e1, e2, targets in moves:
            neps = list(eps)
            neps[e1] ^= 1
            neps[e2] ^= 1
            ntot = list(tot)
            for t in targets:
                ntot[t] = (ntot[t] + 4) % 8
            state = (tuple(neps), tuple(ntot))
            if state not in seen:
                seen.add(state)
                queue.append(state)
    eps, tot = min(seen)
    oddity = {}
    for ci, comp in enumerate(comps):
        oddity.update((e, by_scale[e].rank % 2) for e in comp[1:])
        oddity[comp[0]] = (tot[ci] - sum(oddity[e] for e in comp[1:])) % 8
    return [genus.Constituent(e, c.rank, -1 if eps[e] else 1, c.kind,
                              oddity.get(e, c.oddity))
            for e, c in sorted(by_scale.items())]


@st.composite
def two_adic_chains(draw):
    """2-adic constituents on a random set of scales 0..9, gaps included:
    type I (odd or even rank, oddity of the rank's parity) or type II (even
    rank, oddity 0), either sign."""
    scales = draw(st.lists(st.integers(0, 9), min_size=1, max_size=9, unique=True))
    out = []
    for e in sorted(scales):
        eps = draw(st.sampled_from((1, -1)))
        if draw(st.booleans()):
            rank = draw(st.integers(1, 4))
            odd = draw(st.integers(0, 3)) * 2 + rank % 2
            out.append(genus.Constituent(e, rank, eps, "I", odd))
        else:
            out.append(genus.Constituent(e, 2 * draw(st.integers(1, 2)), eps, "II", 0))
    return out


def chain_gram(rank):
    """diag(1, 2*3, 4, 8*3, ...): a type I constituent at each of the
    scales 2^0 .. 2^(rank-1), one compartment, signs free to move."""
    return [[(2 ** i * (3 if i % 2 else 1)) * (i == j) for j in range(rank)]
            for i in range(rank)]


@settings(max_examples=300, deadline=None)
@given(two_adic_chains())
@example([genus.Constituent(e, 1, 1, "I", 1) for e in range(9)])
@example([genus.Constituent(0, 1, -1, "I", 3), genus.Constituent(2, 1, -1, "I", 5)])
@example([genus.Constituent(0, 2, -1, "II", 0), genus.Constituent(1, 1, -1, "I", 7),
          genus.Constituent(2, 2, -1, "II", 0)])
def test_canonical_two_adic_matches_orbit_search(chain):
    assert genus._canonical_two_adic(chain) == ref_canonical_two_adic(chain)


def test_canonical_two_adic_matches_orbit_search_on_symbols():
    """Every 2-adic symbol of the table strings (as loaded and as printed),
    of the genus workload's inputs, the goldens' lattices and the seeded
    sums, and of consecutive-scale chains up to rank 12."""
    symbols = [sym for _label, sym in genus_symbol_set()]
    symbols += [genus.genus_symbol(lattice.Lattice(chain_gram(r)))
                for r in range(1, 13)]
    for sym in symbols:
        local = sym.local[2]
        assert genus._canonical_two_adic(local) == ref_canonical_two_adic(local), \
            genus.render_genus(sym)


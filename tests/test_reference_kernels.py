"""The integer kernels against the rational routines they replaced.

The reference implementations below are the earlier Fraction versions of
the characteristic polynomial (Faddeev-LeVerrier over Q), the O+ test (a
decomposition into rational reflections, counting the positive mirrors)
and the short-vector enumeration (Fincke-Pohst on an exact LDL).  The
integer versions must agree with them on random isometries of Lambda and
of small lattices of every signature type.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latsym import cli, intmat, isometry, lattice, walls
from latsym.lattice import standard_model

# ---------------------------------------------------------------------------
# reference implementations


def ref_char_poly(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    mk = intmat.identity(n)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    for k in range(1, n + 1):
        mk = intmat.mat_mul(a, mk)
        c = -sum(mk[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


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
        e, f = model.hyperbolic_pair(b)
        gens.append(isometry.reflection(lam, [x + y for x, y in zip(e, f)]))
    gens.append(isometry.make_isometry(lam, intmat.scalar_mul(-1, intmat.identity(16))))
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


@settings(max_examples=15, deadline=None)
@given(PICKS)
def test_lambda_words_match_reference(picks):
    f = word(lambda_generators(), picks)
    assert isometry.in_O_plus(f) == ref_in_O_plus(f)
    assert isometry._char_poly(f.matrix) == ref_char_poly(f.matrix)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_NAMES), PICKS)
def test_small_lattice_words_match_reference(name, picks):
    lat, gens = small_generators(name)
    f = word(gens, picks)
    assert isometry.in_O_plus(f) == ref_in_O_plus(f)
    assert isometry._char_poly(f.matrix) == ref_char_poly(f.matrix)
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


@pytest.mark.parametrize("name", SMALL["negative definite"] + ("A2v", "D4v(3)"))
def test_small_short_vectors_match_reference(name):
    gram = lattice.build_named(name).gram
    for t in (-2, -4, -6, Fraction(-2, 3), Fraction(-4, 3)):
        assert walls.short_vectors(gram, t) == ref_short_vectors(gram, t)


def test_orientation_conventions():
    model = standard_model()
    lam = model.lattice
    minus = isometry.make_isometry(lam, intmat.scalar_mul(-1, intmat.identity(16)))
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
    assert isometry._char_poly(f.matrix) == expect


def test_char_poly_rejects_non_integral_division():
    # no integer matrix triggers it; a Fraction entry shows the check is live
    with pytest.raises(RuntimeError, match="not integral"):
        isometry._char_poly([[Fraction(1, 2), 0], [0, 0]])

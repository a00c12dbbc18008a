import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latsym import fixtures, genus, intmat, lattice


def sym_of(expr):
    return genus.genus_symbol(lattice.build_named(expr))


def test_padic_jordan_lambda():
    lam = lattice.standard_model().lattice
    pieces = genus.padic_jordan(lam, 2)
    assert [(c.scale, c.rank) for c in pieces] == [(0, 8), (1, 8)]
    assert pieces[0].kind == "II"
    # odd primes not dividing the determinant give the trivial symbol
    odd = genus.padic_jordan(lam, 3)
    assert [(c.scale, c.rank) for c in odd] == [(0, 16)]


def test_padic_jordan_roots():
    e8 = genus.padic_jordan(lattice.root_E8(), 2)
    assert len(e8) == 1
    assert (e8[0].scale, e8[0].rank, e8[0].kind) == (0, 8, "II")

    a1 = genus.padic_jordan(lattice.root_A(1), 2)
    assert len(a1) == 1
    assert (a1[0].scale, a1[0].rank, a1[0].kind, a1[0].oddity) == (1, 1, "I", 7)

    a2 = genus.padic_jordan(lattice.root_A(2), 3)
    assert [(c.scale, c.rank) for c in a2] == [(0, 1), (1, 1)]


def test_padic_jordan_prime_check():
    a1 = lattice.root_A(1)
    for p in (0, 1, 4, 9, 91, 2**31 - 3):
        with pytest.raises(ValueError, match="prime"):
            genus.padic_jordan(a1, p)
    # a large prime is accepted after about sqrt(p) trial divisions
    big = genus.padic_jordan(a1, 2**31 - 1)
    # -2 is a non-square modulo 2^31 - 1, which is 7 mod 8
    assert [(c.scale, c.rank, c.eps) for c in big] == [(0, 1, -1)]


def test_renders():
    assert genus.canonical_string(sym_of("U(2)^3+E8+A1^2")) == "II_(3,13)2^8_6"
    assert genus.canonical_string(sym_of("D4(2)")) == "II_(0,4)2^{-2}4^{-2}"
    assert genus.canonical_string(sym_of("D10(2)")) == "II_(0,10)2^84^2_6"
    assert genus.canonical_string(sym_of("E8")) == "II_(0,8)"
    assert genus.canonical_string(sym_of("U")) == "II_(1,1)"
    assert genus.canonical_string(sym_of("A2")) == "II_(0,2)3^1"


def test_rank_zero():
    sym = genus.parse_genus("II_(0,0)")
    assert genus.canonical_string(sym) == "II_(0,0)"
    assert genus.genus_equal(sym, genus.GenusSymbol(0, 0, True, {2: []}))


def test_canonicalize_idempotent():
    for expr in ("U(2)^3+E8+A1^2", "D4(2)+A1", "D10(2)", "A1^2", "U^3+E8"):
        sym = sym_of(expr)
        once = genus.canonicalize(sym)
        twice = genus.canonicalize(once)
        assert genus.canonical_string(once) == genus.canonical_string(twice)


def test_parse_render_roundtrip_on_table_strings():
    texts = set()
    for row in fixtures.load_table():
        for key in ("invariant_genus", "coinvariant_genus"):
            if row[key]:
                texts.add(row[key])
    assert len(texts) > 30
    for text in texts:
        sym = genus.parse_genus(text)
        assert genus.render_genus(sym) == text


def test_parse_errors():
    with pytest.raises(ValueError, match="cannot parse"):
        genus.parse_genus("II_(3,13)2^8_6junk")
    with pytest.raises(ValueError):
        genus.parse_genus("X_(1,1)")
    # an odd lattice has an odd unimodular constituent at 2
    with pytest.raises(ValueError, match="unimodular part"):
        genus.parse_genus("I_(1,0)2^1_1")


def test_parse_bounds_ranks_before_the_determinant():
    # a determinant 3^(10^8), or a rank of 10^8, would be formed first
    with pytest.raises(ValueError, match="ranks exceed signature"):
        genus.parse_genus("II_(0,2)3^{99999999}")
    with pytest.raises(ValueError, match="exceeds the cap of %d" % lattice.MAX_RANK):
        genus.parse_genus("II_(0,99999999)2^{99999999}")
    with pytest.raises(ValueError, match="exceeds the cap"):
        genus.parse_genus("II_(0,%d)" % (lattice.MAX_RANK + 1))
    assert genus.parse_genus("II_(0,%d)" % lattice.MAX_RANK).rank == lattice.MAX_RANK
    # ranks that sum above the head rank over several scales
    with pytest.raises(ValueError, match="ranks exceed signature"):
        genus.parse_genus("II_(1,1)2^24^{-2}")


@pytest.mark.parametrize("text, scale", [
    ("II_(0,2)0^2", 0), ("II_(3,13)1^2", 1), ("II_(0,2)6^2", 6),
    ("II_(0,2)12^2", 12), ("II_(0,2)3^13^{-1}9^1", None)])
def test_parse_scale_errors(text, scale):
    # the message names the scale as written; a repeated scale is refused
    match = "repeated" if scale is None else "scale %d is not a prime power" % scale
    with pytest.raises(ValueError, match=match):
        genus.parse_genus(text)


def test_genus_equal_distinct_presentations():
    # same genus, different constructions
    a = sym_of("U(2)^3+E8+A1")
    b = sym_of("U^3+D8v(2)+A1")
    assert genus.genus_equal(a, b)
    assert genus.canonical_string(a) == genus.canonical_string(b)
    assert genus.canonical_string(a) == "II_(3,12)2^7_7"

    # and a pair that must stay distinct
    assert not genus.genus_equal(sym_of("U+U(4)"), sym_of("U(2)^2"))


def test_base_change_invariance():
    rng = random.Random(7)
    lam = lattice.build_named("U(2)+A1^2")
    n = lam.rank
    target = genus.canonical_string(genus.genus_symbol(lam))
    for _ in range(12):
        # random unimodular change of basis by elementary row operations
        b = intmat.identity(n)
        for _step in range(12):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            b[i] = [x + c * y for x, y in zip(b[i], b[j])]
        g = intmat.mat_mul(b, intmat.mat_mul(lam.gram, intmat.transpose(b)))
        sym = genus.genus_symbol(lattice.Lattice(g))
        assert genus.canonical_string(sym) == target


def test_signature_consistency():
    # the printed source has one internally inconsistent pair of symbols;
    # the errata name exactly that pair, and each printed string is bad
    errata = fixtures.load_errata()
    assert [(e["row"], e["field"]) for e in errata] == [
        (30, "invariant_genus"), (30, "coinvariant_genus")]
    for e in errata:
        assert not genus.signature_consistent(genus.parse_genus(e["printed"]))
    # with the errata applied, every genus string of the table is consistent
    bad = []
    for row in fixtures.load_table():
        for key in ("invariant_genus", "coinvariant_genus"):
            text = row[key]
            if text and not genus.signature_consistent(genus.parse_genus(text)):
                bad.append((row["no"], key))
    assert bad == []


def test_signature_consistent_on_computed():
    for expr in ("U(2)^3+E8+A1^2", "D4(2)", "D10(2)", "A2", "K7", "U+A1"):
        assert genus.signature_consistent(sym_of(expr)), expr


def _trial_division_factors(n):
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**6, 10**6))
def test_prime_factors_match_trial_division(n):
    assert genus._prime_factors(n) == _trial_division_factors(n)


def test_prime_factors_split_large_composites():
    """Pollard-Brent rho splits what trial division below 2^10 leaves,
    also beyond the bound where Miller-Rabin is proven; a piece that
    passes Miller-Rabin there is refused."""
    cases = {
        2**64 + 1: [274177, 67280421310721],
        1009 * 1000003**2 * 1000033: [1009, 1000003, 1000033],
        1000033 * 1000037 * (2**61 - 1): [1000033, 1000037, 2**61 - 1],
        6 * (2**31 - 1) * (2**61 - 1): [2, 3, 2**31 - 1, 2**61 - 1],
        # exact powers, split by their integer roots
        (2**61 - 1)**2: [2**61 - 1],
        1009 * (2**61 - 1)**3: [1009, 2**61 - 1],
        ((10**12 + 39) * (10**12 + 61))**2: [10**12 + 39, 10**12 + 61],
        # 5006 bits, within the size the primality and root tests are
        # charged for, and split by roots alone
        2 * 1031**500: [2, 1031],
    }
    for n, primes in cases.items():
        assert genus._prime_factors(n) == primes
    with pytest.raises(ValueError, match="proven bound"):
        genus._prime_factors(1000003 * (2**89 - 1))
    with pytest.raises(ValueError, match="proven bound"):
        genus._prime_factors((2**89 - 1)**5)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**30), st.integers(2, 7))
def test_power_root_is_exact(r, k):
    q = 2**61 - 1
    s = genus._power_root(r**k)
    t = s
    while t < r**k:
        t *= s
    assert t == r**k and s >= r
    assume(r % q)
    assert genus._power_root(r**k * q) is None



GENUS_SUMMANDS = ("U", "U(2)", "V", "A1", "A1(-1)", "A2", "A3(2)", "D4", "A2(-3)",
                  "E8", "K7", "H5(2)", "D4v(2)")


@st.composite
def named_sums(draw):
    """Summand names, a permutation of them and a unimodular base change."""
    terms = draw(st.lists(st.sampled_from(GENUS_SUMMANDS), min_size=1, max_size=4))
    perm = draw(st.permutations(terms))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return terms, perm, rng


@settings(max_examples=40, deadline=None)
@given(named_sums())
def test_genus_invariants_of_named_sums(case):
    """The canonical string is the same under a unimodular change of basis
    and a permutation of the summands; the rendered symbol parses back to
    itself; every computed symbol satisfies the oddity formula."""
    terms, perm, rng = case
    lat = lattice.build_named("+".join(terms))
    sym = genus.genus_symbol(lat)
    text = genus.canonical_string(sym)
    assert genus.render_genus(genus.parse_genus(genus.render_genus(sym))) == \
        genus.render_genus(sym)
    assert genus.canonical_string(genus.parse_genus(text)) == text
    n = lat.rank
    b = intmat.identity(n)
    for _step in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]
    moved = intmat.mat_mul(b, intmat.mat_mul(lat.gram, intmat.transpose(b)))
    others = [genus.genus_symbol(lattice.build_named("+".join(perm))),
              genus.genus_symbol(lattice.Lattice(moved))]
    for s in [sym] + others:
        assert genus.signature_consistent(s)
    assert [genus.canonical_string(s) for s in others] == [text, text]


@st.composite
def odd_grams(draw):
    """Nondegenerate odd symmetric int matrices of rank 1..8; all rows but
    one odd-diagonal row may be scaled by powers of 2, so that constituents
    at higher 2-adic scales occur."""
    n = draw(st.integers(1, 8))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-6, 6))
    odd = draw(st.integers(0, n - 1))
    g[odd][odd] |= 1
    d = [1 if i == odd else 2 ** draw(st.integers(0, 3)) for i in range(n)]
    g = [[d[i] * x * d[j] for j, x in enumerate(row)] for i, row in enumerate(g)]
    assume(intmat.det(g) != 0)
    return g


@settings(max_examples=150, deadline=None)
@given(odd_grams())
def test_odd_symbols_parse_back(g):
    """parse_genus restores the unimodular oddity of an odd symbol from the
    oddity formula, so rendered and canonical strings round-trip."""
    sym = genus.genus_symbol(lattice.Lattice(g))
    assert not sym.even
    text = genus.render_genus(sym)
    back = genus.parse_genus(text)
    assert genus.render_genus(back) == text and genus.genus_equal(back, sym)
    canon = genus.canonical_string(sym)
    assert genus.canonical_string(genus.parse_genus(canon)) == canon


@pytest.mark.parametrize("call, message", [
    (lambda: genus.parse_genus("II_(0,2)2^2,3^1"), "cannot parse genus symbol 'II_(0,2)2^2,3^1'"),
    (lambda: genus.parse_genus("II_(0,2)2^0"), "zero-rank constituent in 'II_(0,2)2^0'"),
    (lambda: genus.parse_genus("II_(0,2)3^1_1"),
     "oddity subscript at odd prime in 'II_(0,2)3^1_1'"),
    (lambda: genus.signature_consistent(genus.GenusSymbol(0, 2, True, {})),
     "symbol has no 2-adic data")])
def test_public_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

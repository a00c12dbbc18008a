import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from latsym import discform, intmat, lattice, walls
from latsym.lattice import standard_model


def box_short_vectors(gram, n):
    """Oracle: enumerate x with x^T G x = n over a coordinate box.

    For negative definite G every solution of x^T G x = n satisfies
    x_i^2 <= |n| (G^-1)_ii in absolute value, which bounds the box.
    """
    dim = len(gram)
    inv = intmat.frac_inverse([[-x for x in row] for row in gram])
    bounds = []
    for i in range(dim):
        b = Fraction(-n) * inv[i][i]
        k = 0
        while (k + 1) * (k + 1) <= b:
            k += 1
        bounds.append(k)
    out = set()
    for x in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if sum(x[i] * gram[i][j] * x[j]
               for i in range(dim) for j in range(dim)) == n:
            out.add(x)
    # keep one of each +-x pair, first nonzero coordinate positive
    keep = set()
    for x in out:
        lead = next(c for c in x if c)
        keep.add(x if lead > 0 else tuple(-c for c in x))
    return sorted(keep)


def test_short_vector_counts():
    e8 = lattice.root_E8()
    assert len(walls.short_vectors(e8, -2)) == 120
    assert len(walls.short_vectors(e8, -4)) == 1080
    assert len(walls.short_vectors(lattice.root_A(1), -2)) == 1
    d42 = lattice.build_named("D4(2)")
    assert walls.short_vectors(d42, -2) == []
    assert len(walls.short_vectors(d42, -4)) == 12


def test_short_vectors_match_box_oracle():
    cases = [
        (lattice.root_A(1).gram, -2),
        (lattice.root_A(2).gram, -2),
        (lattice.root_A(3).gram, -4),
        (lattice.root_D(4).gram, -2),
        (lattice.build_named("D4(2)").gram, -4),
        (lattice.build_named("A1(3)").gram, -6),
    ]
    for gram, n in cases:
        got = sorted(tuple(v) for v in walls.short_vectors(gram, n))
        assert got == box_short_vectors(gram, n)


def test_short_vectors_random_definite():
    rng = random.Random(11)
    for _trial in range(15):
        dim = rng.randint(1, 3)
        # B^T B is positive definite for invertible B; negate for our use
        while True:
            b = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
            if intmat.det(b) != 0:
                break
        bt = intmat.transpose(b)
        pos = intmat.mat_mul(bt, b)
        gram = [[-2 * x for x in row] for row in pos]
        n = -2 * rng.randint(1, 4)
        got = sorted(tuple(v) for v in walls.short_vectors(gram, n))
        assert got == box_short_vectors(gram, n)


def test_short_vectors_rational_gram():
    # the dual of A2, Gram -(1/3)[[2, 1], [1, 2]]: both the Gram and the
    # target must be scaled, since truncating them to integers loses them
    a2v = lattice.build_named("A2v")
    assert a2v.gram[0] == [Fraction(-2, 3), Fraction(-1, 3)]
    assert len(walls.short_vectors(a2v, Fraction(-2, 3))) == 3
    for n in (Fraction(-2, 3), -2, Fraction(-8, 3), Fraction(-14, 3), Fraction(-1, 2)):
        assert walls.short_vectors(a2v, n) == box_short_vectors(a2v.gram, n)
    rng = random.Random(5)
    for _trial in range(10):
        dim = rng.randint(1, 3)
        while True:
            b = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
            if intmat.det(b) != 0:
                break
        den = rng.choice((2, 3, 6))
        pos = intmat.mat_mul(intmat.transpose(b), b)
        gram = [[Fraction(-x, den) for x in row] for row in pos]
        n = Fraction(-rng.randint(1, 8), den)
        assert walls.short_vectors(gram, n) == box_short_vectors(gram, n)


def test_short_vectors_sign_normalization():
    for v in walls.short_vectors(lattice.root_E8(), -2):
        lead = next(c for c in v if c)
        assert lead > 0


def test_short_vectors_rejects_indefinite():
    with pytest.raises(ValueError):
        walls.short_vectors(lattice.hyperbolic(), -2)


def test_wall_class_probes():
    model = standard_model()
    lam = model.lattice

    r = model.named["e8_root"]
    assert walls.wall_class(model, r).wclass == walls.PEX2

    assert walls.wall_class(model, model.named["a1_sum"]).wclass == walls.PEX4
    assert walls.wall_class(model, model.u2_vector(-1)).wclass == walls.PEX4

    six = [a + b for a, b in zip(model.named["a1_first"], model.u2_vector(-1))]
    assert lam.square(six) == -6
    assert walls.wall_class(model, six).wclass == walls.WALL6

    twelve = [2 * a + b for a, b in zip(model.named["e8_root"],
                                        model.named["a1_sum"])]
    assert lam.square(twelve) == -12
    assert lam.divisibility(twelve) == 2
    assert walls.wall_class(model, twelve).wclass == walls.WALL12

    # square -2 with divisibility 2 is the exceptional class, not a wall
    assert walls.wall_class(model, model.named["a1_first"]) is None
    # square -6 needs divisibility 2 to be a wall
    assert walls.wall_class(model, model.u2_vector(-3)) is None
    assert walls.wall_class(model, model.u2_vector(1)) is None

    with pytest.raises(ValueError, match="zero vector"):
        walls.wall_class(model, [0] * 16)


def test_wall12_parity_condition():
    model = standard_model()
    lam = model.lattice
    # square -12 and divisibility 2 alone are not enough: the component in
    # the hyperbolic blocks must lie in twice the block sublattice
    vec = [0] * 16
    vec[0] = 1
    vec[1] = -3
    assert lam.square(vec) == -12
    assert lam.divisibility(vec) == 2
    assert walls.wall_class(model, vec) is None

    # doubling the block component fixes the parity but changes the square,
    # so build the even representative from the other summands instead
    good = [2 * a + b for a, b in zip(model.named["e8_root"],
                                      model.named["a1_sum"])]
    wit = walls.wall_class(model, good)
    assert wit is not None and wit.wclass == walls.WALL12


def test_scan_exceptional_involution():
    from latsym import isometry

    model = standard_model()
    f = isometry.exceptional_involution(model)
    assert walls.coinvariant_wall_scan(model, f) == []


def test_scan_reflection_witnesses():
    from latsym import isometry

    model = standard_model()
    lam = model.lattice

    refl = isometry.reflection(lam, model.named["e8_root"])
    wit = walls.coinvariant_wall_scan(model, refl)
    assert len(wit) == 1
    assert wit[0].wclass == walls.PEX2
    assert wit[0].square == -2
    assert wit[0].divisibility == 1

    neg = intmat.identity(16)
    neg[14][14] = -1
    neg[15][15] = -1
    f = isometry.make_isometry(lam, neg)
    wit = walls.coinvariant_wall_scan(model, f)
    assert sorted(w.wclass for w in wit) == [walls.PEX4, walls.PEX4]
    assert walls.coinvariant_wall_scan(model, f, pex_only=True) == wit


def test_scan_rejects_bad_maps():
    from latsym import isometry

    model = standard_model()
    lam = model.lattice
    # a unimodular map that is no isometry never becomes one
    skew = intmat.identity(16)
    skew[0][1] = 1
    with pytest.raises(ValueError, match="bilinear form"):
        isometry.make_isometry(lam, skew)

    # an isometry of another lattice is refused by the scan and by the
    # discriminant action
    other = isometry.identity_isometry(lattice.build_named("A1^16"))
    with pytest.raises(ValueError, match="does not act on"):
        walls.coinvariant_wall_scan(model, other)
    with pytest.raises(ValueError, match="does not act on"):
        discform.induced_disc_isometry(lam, other)

    refl = isometry.reflection(lam, model.u2_vector(1))
    with pytest.raises(ValueError, match="negative definite"):
        walls.coinvariant_wall_scan(model, refl)


def test_witness_dict():
    model = standard_model()
    from latsym import isometry

    refl = isometry.reflection(model.lattice, model.named["e8_root"])
    w = walls.coinvariant_wall_scan(model, refl)[0]
    d = w.as_dict()
    assert d["class"] == walls.PEX2
    assert d["square"] == -2
    assert d["divisibility"] == 1
    assert tuple(d["vector"]) == w.vector


GOLDEN = Path(__file__).parent / "data" / "golden"


def _parity_vectors(model, coinv, t):
    """The coinvariant vectors v of square t that the scan's walk at t must
    find: all of them at -2, those with G v even at -4 and -6, and at -12
    those also even on the blocks (coordinates 0..5)."""
    out = []
    for x in walls.short_vectors(coinv.lattice.gram, t):
        v = intmat.mat_vec(intmat.transpose(coinv.rows), x)
        if t == -2 or (all(c % 2 == 0 for c in intmat.mat_vec(model.lattice.gram, v))
                       and (t != -12 or all(c % 2 == 0 for c in v[:6]))):
            out.append(v)
    return out


@pytest.mark.parametrize("name, passes, targets", [pytest.param(*case, id="%s-%d" % case[:2])
                                                   for case in [
    # the norm of the -4, -6 and -12 sublattice (2 Z^4, norm 8) rules
    # all three walks out
    ("e8_roots_orthogonal_4", 0, (-2,)),
    # -4 walks a proper sublattice; -6 and -12 are ruled out
    ("sample_word_31_16", 1, (-2, -4)),
    # -4 and -12 walk two proper sublattices; -6 is ruled out
    ("sample_word_16_22_33_1", 2, (-2, -4, -12)),
    # -4, -6 and -12 share one proper sublattice
    ("e8_a1_negation", 1, (-2, -4, -6, -12)),
    # every walk is in the whole coinvariant lattice
    ("a1_negation", 0, (-2, -4, -6, -12))]])
def test_wall_scan_eliminates_each_distinct_gram_once(monkeypatch, name, passes, targets):
    """scale_pass runs once per distinct Gram that the walks enumerate in,
    except the coinvariant lattice's own Gram, whose pass its Lattice
    already holds; a walk the norm of its Gram rules out runs no pass and
    no enumeration, and the coinvariant lattice has no vector it would
    have found."""
    from latsym import isometry

    model = standard_model()
    f = isometry.isometry_from_json(json.loads((GOLDEN / (name + ".json")).read_text()))
    _inv, coinv = isometry.invariant_coinvariant(f)
    real_pass, real_vectors = intmat.scale_pass, walls.short_vectors
    passed, walked = [], []
    monkeypatch.setattr(intmat, "scale_pass",
                        lambda m: passed.append(m) or real_pass(m))

    def spy(lat_or_gram, t):
        walked.append((t, lat_or_gram.gram if isinstance(lat_or_gram, lattice.Lattice)
                       else lat_or_gram))
        return real_vectors(lat_or_gram, t)

    monkeypatch.setattr(walls, "short_vectors", spy)
    walls.coinvariant_wall_scan(model, f)
    distinct = []
    for _t, gram in walked:
        if gram != coinv.lattice.gram and gram not in distinct:
            distinct.append(gram)
    assert tuple(t for t, _gram in walked) == targets
    assert len(distinct) == passes
    assert passed == distinct
    monkeypatch.setattr(walls, "short_vectors", real_vectors)
    for t in (-2, -4, -6, -12):
        if t not in targets:
            assert _parity_vectors(model, coinv, t) == [], t

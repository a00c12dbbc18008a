from fractions import Fraction

import pytest

from latsym import discform, intmat, lattice


def test_constructor_validation():
    with pytest.raises(ValueError, match="square"):
        lattice.Lattice([[1, 2]])
    with pytest.raises(ValueError, match="symmetric"):
        lattice.Lattice([[1, 2], [3, 1]])
    with pytest.raises(ValueError, match="nondegenerate"):
        lattice.Lattice([[1, 2], [2, 4]])


def test_root_lattices():
    e8 = lattice.root_E8()
    assert e8.rank == 8
    assert e8.det() == 1
    assert e8.is_even
    assert e8.signature() == (0, 8)

    d4 = lattice.root_D(4)
    assert d4.det() == 4
    assert d4.signature() == (0, 4)

    a1 = lattice.root_A(1)
    assert a1.gram == [[-2]]

    a3 = lattice.root_A(3)
    assert a3.det() == -4

    with pytest.raises(ValueError):
        lattice.root_A(0)
    with pytest.raises(ValueError):
        lattice.root_D(1)


def test_planes():
    u = lattice.hyperbolic()
    assert u.gram == [[0, 1], [1, 0]]
    assert u.det() == -1
    v = lattice.odd_plane()
    assert v.signature() == (1, 1)
    assert not v.is_even
    k7 = lattice.plane_K(7)
    assert k7.det() % 7 == 0
    with pytest.raises(ValueError, match="odd prime"):
        lattice.plane_K(2)
    for p in (1, 9, 15, 25, 91):
        with pytest.raises(ValueError, match="odd prime"):
            lattice.plane_K(p)
        with pytest.raises(ValueError, match="odd prime"):
            lattice.plane_H(p)
    assert lattice.plane_H(13).det() == -13


def test_rescale_dual():
    u2 = lattice.rescale(lattice.hyperbolic(), 2)
    assert u2.gram == [[0, 2], [2, 0]]
    a1d = lattice.dual(lattice.root_A(1))
    assert a1d.gram == [[Fraction(-1, 2)]]
    with pytest.raises(ValueError, match="zero"):
        lattice.rescale(u2, 0)


def test_dual_carries_no_cache_of_its_source():
    # the dual of A2 is not integral, so it has no discriminant form, even
    # after A2's own form was cached on A2
    a2 = lattice.root_A(2)
    discform.discriminant_form(a2)
    a2v = lattice.dual(a2)
    assert (a2v.rank, a2v.signature(), a2v.det()) == (2, (0, 2), Fraction(1, 3))
    with pytest.raises(ValueError, match="needs an even lattice"):
        discform.discriminant_form(a2v)


def test_direct_sum():
    s = lattice.direct_sum(lattice.hyperbolic(), lattice.root_A(1))
    assert s.rank == 3
    assert s.gram == [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
    assert s.signature() == (1, 2)


def test_build_named():
    lam = lattice.build_named("U(2)^3+E8+A1^2")
    model = lattice.standard_model()
    assert lam.gram == model.lattice.gram

    twisted = lattice.build_named("U^3+D8v(2)+A1")
    assert twisted.rank == 15
    assert twisted.signature() == (3, 12)

    assert lattice.build_named("A1(-4)").gram == [[8]]

    with pytest.raises(ValueError, match="cannot parse"):
        lattice.build_named("U+Q5")
    with pytest.raises(ValueError, match="empty"):
        lattice.build_named("")


def test_build_named_rescales_each_term_once(monkeypatch):
    calls = []
    init = lattice.Lattice.__init__
    monkeypatch.setattr(lattice.Lattice, "__init__",
                        lambda self, *a, **k: calls.append(1) or init(self, *a, **k))
    a4 = lattice.build_named("A4(2)")
    assert len(calls) == 2     # A4, then A4(2)
    assert a4.name == "A4(2)"
    assert a4.gram == [[2 * x for x in row] for row in lattice.root_A(4).gram]


def test_build_named_scaled_duals():
    d8 = lattice.build_named("D8v(2)")
    assert d8.name == "D8v(2)"
    assert d8.gram == [[2 * x for x in row]
                       for row in lattice.dual(lattice.root_D(8)).gram]
    assert d8.gram[6] == [-1, -2, -3, -4, -5, -6, -4, -3]
    assert d8.is_integral and d8.det() == 64
    a2 = lattice.build_named("A2v(3)")
    assert a2.name == "A2v(3)"
    assert a2.gram == [[-2, -1], [-1, -2]]
    assert all(type(x) is int for row in a2.gram for x in row)


def test_vector_queries():
    lam = lattice.standard_model().lattice
    with pytest.raises(ValueError, match="length"):
        lam.square([1, 0])
    with pytest.raises(ValueError, match="zero vector"):
        lam.divisibility([0] * 16)


def test_standard_model_invariants():
    model = lattice.standard_model()
    lam = model.lattice
    assert model.rank == 16
    assert lam.det() == -256
    assert lam.signature() == (3, 13)
    assert lam.is_even

    sq_div = {
        "a1_first": (-2, 2),
        "a1_second": (-2, 2),
        "a1_sum": (-4, 2),
        "a1_diff": (-4, 2),
        "e8_root": (-2, 1),
        "e8_root_pair": (-4, 1),
    }
    for name, (sq, dv) in sq_div.items():
        v = model.named[name]
        assert lam.square(v) == sq, name
        assert lam.divisibility(v) == dv, name

    assert lam.square(model.u2_vector(1)) == 4
    assert lam.square(model.u2_vector(-1)) == -4
    assert lam.divisibility(model.u2_vector(-1)) == 2

    for block in range(3):
        e, f = model.hyperbolic_pair(block)
        assert lam.inner(e, f) == 2
        assert lam.square(e) == 0 and lam.square(f) == 0
    with pytest.raises(ValueError):
        model.hyperbolic_pair(3)


def test_sublattice_helpers():
    lam = lattice.standard_model().lattice
    last = [0] * 16
    last[15] = 1
    comp = lattice.orthogonal_complement(lam, [last])
    assert len(comp) == 15
    for r in comp:
        assert lam.inner(r, last) == 0
    g = lattice.restricted_gram(lam, [last])
    assert g == [[-2]]
    # complement of nothing is everything
    assert len(lattice.orthogonal_complement(lam, [])) == 16
    # a rational Gram: <x, e_0> = (2 x_0 + x_1) / 3 on the dual of A2
    assert lattice.orthogonal_complement(lattice.build_named("A2v"),
                                         [[1, 0]]) in ([[1, -2]], [[-1, 2]])


def test_json_roundtrip():
    model = lattice.standard_model()
    data = lattice.lattice_to_json(model.lattice)
    back = lattice.lattice_from_json(data)
    assert back.gram == model.lattice.gram
    assert back.name == model.lattice.name
    with pytest.raises(ValueError, match="gram"):
        lattice.lattice_from_json({"name": "X"})
    # a name is a string or null; other keys, blocks among them, are ignored
    lat = lattice.lattice_from_json({"gram": [[2]], "name": None,
                                     "blocks": [["x", 1e400]]})
    assert (lat.name, lattice.lattice_to_json(lat)) == (None, {
        "name": None, "gram": [["2"]]})
    for name in (1e400, 3, ["A1"], {"a": 1}, True):
        with pytest.raises(ValueError, match="not a string"):
            lattice.lattice_from_json({"gram": [[2]], "name": name})


@pytest.mark.parametrize("gram", [
    [[0, 1], [1, 0]],
    [[0, 1], [1, -2]],  # c = 1 would give a zero pivot: needs c = -1
    [[0, 2, 0], [2, 0, 0], [0, 0, -2]],
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    [[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]],
    [[-2, 1], [1, -2]],
])
def test_positive_frame(gram):
    lat = lattice.Lattice(gram)
    frame = lat.positive_frame()
    assert frame is lat.positive_frame()
    assert len(frame) == lat.signature()[0]
    for i, (p, w) in enumerate(frame):
        assert all(isinstance(c, int) for c in p + w)
        assert lat.square(p) > 0
        # w is a positive multiple of G p
        gp = [Fraction(x) for x in intmat.mat_vec(lat.gram, p)]
        ratio = next(Fraction(a) / b for a, b in zip(w, gp) if b)
        assert ratio > 0 and [ratio * b for b in gp] == w
        for q, _ in frame[i + 1:]:
            assert lat.inner(p, q) == 0
    assert lattice.standard_model().lattice.is_integral
    assert not lattice.build_named("A2v").is_integral

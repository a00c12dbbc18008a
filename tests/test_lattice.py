from fractions import Fraction

import pytest

from latsym import discform, intmat, isometry, lattice


def test_constructor_validation():
    with pytest.raises(ValueError, match="square"):
        lattice.Lattice([[1, 2]])
    with pytest.raises(ValueError, match="symmetric"):
        lattice.Lattice([[1, 2], [3, 1]])
    with pytest.raises(ValueError, match="nondegenerate"):
        lattice.Lattice([[1, 2], [2, 4]])


@pytest.mark.parametrize("gram", [
    [[Fraction(1, 2)]],
    [[Fraction(2)]],                # integral, but not an int
    [[2, True], [True, 2]],
    [[2.0]],
])
def test_constructor_refuses_non_int_entries(gram):
    with pytest.raises(ValueError, match=lattice.NOT_INTEGRAL):
        lattice.Lattice(gram)


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


def _from_edges(n, edges):
    """-2 on the diagonal and 1 on each edge (a, b), nodes numbered from 1."""
    g = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a - 1][b - 1] = g[b - 1][a - 1] = 1
    return g


# every atom's Gram in its fixed basis: the planes by their formulas
# K_p = [[(p+1)/2, -1], [-1, 2]] and H_p = [[(p-1)/2, 1], [1, -2]], A_n a
# chain, D_n the chain 1-..-(n-1) forked at node n-2 onto node n, and E8 in
# the standard model's node order, the chain 1-3-4-5-6-7-8 with 2 on 4
ATOM_GRAMS = {
    "U": [[0, 1], [1, 0]],
    "V": [[0, 1], [1, 1]],
    "E8": [[-2, 0, 1, 0, 0, 0, 0, 0],
           [0, -2, 0, 1, 0, 0, 0, 0],
           [1, 0, -2, 1, 0, 0, 0, 0],
           [0, 1, 1, -2, 1, 0, 0, 0],
           [0, 0, 0, 1, -2, 1, 0, 0],
           [0, 0, 0, 0, 1, -2, 1, 0],
           [0, 0, 0, 0, 0, 1, -2, 1],
           [0, 0, 0, 0, 0, 0, 1, -2]],
    "A1": [[-2]],
    "A2": [[-2, 1], [1, -2]],
    "A3": _from_edges(3, [(1, 2), (2, 3)]),
    "A4": _from_edges(4, [(1, 2), (2, 3), (3, 4)]),
    "D2": [[-2, 0], [0, -2]],
    "D3": _from_edges(3, [(1, 2), (1, 3)]),
    "D4": _from_edges(4, [(1, 2), (2, 3), (2, 4)]),
    "D5": _from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5)]),
    "K3": [[2, -1], [-1, 2]],
    "K7": [[4, -1], [-1, 2]],
    "H3": [[1, 1], [1, -2]],
    "H5": [[2, 1], [1, -2]],
}


@pytest.mark.parametrize("name", sorted(ATOM_GRAMS))
def test_atom_grams(name):
    lat = lattice.build_named(name)
    assert (lat.name, lat.gram) == (name, ATOM_GRAMS[name])


def test_e8_edges_give_the_pinned_gram():
    assert _from_edges(8, [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
                           (2, 4)]) == ATOM_GRAMS["E8"]
    assert lattice.root_E8().gram == ATOM_GRAMS["E8"]


def test_direct_sum_block_layout():
    a2, d4, u = ATOM_GRAMS["A2"], ATOM_GRAMS["D4"], ATOM_GRAMS["U"]
    want = ([row + [0] * 6 for row in a2]
            + [[0] * 2 + row + [0] * 2 for row in d4]
            + [[0] * 6 + row for row in u])
    assert want[3] == [0, 0, 1, -2, 1, 1, 0, 0]
    built = lattice.direct_sum(lattice.root_A(2), lattice.root_D(4),
                               lattice.hyperbolic())
    assert built.gram == lattice.build_named("A2+D4+U").gram == want
    assert built.name == "A2+D4+U"


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
    with pytest.raises(ValueError, match="A1v has no integral Gram matrix"):
        lattice.dual(lattice.root_A(1))
    a1d = lattice.dual(lattice.root_A(1), 2)
    assert (a1d.name, a1d.gram) == ("A1v(2)", [[-1]])
    with pytest.raises(ValueError, match="zero"):
        lattice.rescale(u2, 0)


def test_dual_carries_no_cache_of_its_source():
    # A2v(3) is built afresh, so the form cached on A2 does not carry over
    a2 = lattice.root_A(2)
    discform.discriminant_form(a2)
    a2v = lattice.dual(a2, 3)
    assert (a2v.rank, a2v.signature(), a2v.det()) == (2, (0, 2), 3)
    assert not hasattr(a2v, "_disc_form")
    assert discform.discriminant_form(a2v).source is a2v


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
                       for row in intmat.frac_inverse(lattice.root_D(8).gram)]
    assert d8.gram[6] == [-1, -2, -3, -4, -5, -6, -4, -3]
    assert d8.det() == 64
    a2 = lattice.build_named("A2v(3)")
    assert a2.name == "A2v(3)"
    assert a2.gram == [[-2, -1], [-1, -2]]
    assert all(type(x) is int for row in a2.gram for x in row)
    # E8 is unimodular, so its dual needs no scale; names are kept
    for expr in ("E8v", "E8v(1)"):
        e8 = lattice.build_named(expr)
        assert (e8.name, e8.det()) == (expr, 1)
    # a dual must come out integral after its own scale; zero is refused
    # before the dual is tried
    for expr in ("A2v", "D8v", "D8v(-1)", "A3v(2)"):
        with pytest.raises(ValueError, match="no integral Gram matrix"):
            lattice.build_named(expr)
    with pytest.raises(ValueError, match="rescale by zero"):
        lattice.build_named("A2v(0)")


def test_vector_queries():
    lam = lattice.standard_model().lattice
    with pytest.raises(ValueError, match="length"):
        lam.square([1, 0])
    with pytest.raises(ValueError, match="zero vector"):
        lam.divisibility([0] * 16)
    # a short or long vector is refused, not truncated to its overlap
    for x in ([1], [1] * 17):
        with pytest.raises(ValueError, match="length"):
            lam.divisibility(x)


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
        **{"%s%d" % (ef, b): (0, 2) for ef in "ef" for b in range(3)},
        **{"r%d" % i: (-2, 1) for i in range(8)},
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
        assert (e, f) == (model.named["e%d" % block], model.named["f%d" % block])
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
    assert isometry.Sublattice(lam, [last]).lattice.gram == [[-2]]
    # complement of nothing is everything
    assert len(lattice.orthogonal_complement(lam, [])) == 16
    # <x, e_0> = -(2 x_0 + x_1) on A2v(3), the dual of A2 scaled by 3
    assert lattice.orthogonal_complement(lattice.build_named("A2v(3)"),
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
    [[2, 1], [1, 2]],
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

from fractions import Fraction

import pytest

from latsym import cli, discform, fixtures, genus, intmat, isometry, lattice, walls
from latsym.lattice import standard_model


def unit(i, n=16):
    v = [0] * n
    v[i] = 1
    return v


def e8_chain_reflections(model, coords):
    lam = model.lattice
    return [isometry.reflection(lam, unit(c)) for c in coords]


def chain_product(refls):
    out = refls[0]
    for r in refls[1:]:
        out = isometry.compose(out, r)
    return out


def sample_reflections(model):
    """Reflections in the monodromy sample, then in e_b + f_b and e_b - f_b
    for the blocks b = 0, 1, 2."""
    lam = model.lattice
    refls = [isometry.reflection(lam, v) for v in cli.monodromy_sample(model)]
    for b in range(3):
        e, f = model.named["e%d" % b], model.named["f%d" % b]
        refls += [isometry.reflection(lam, [x + s * y for x, y in zip(e, f)])
                  for s in (1, -1)]
    return refls


@pytest.fixture(scope="module")
def model():
    return standard_model()


def test_validation(model):
    lam = model.lattice
    with pytest.raises(ValueError, match="size"):
        isometry.make_isometry(lam, intmat.identity(15))
    half = [[Fraction(1, 2) if i == j else 0 for j in range(16)]
            for i in range(16)]
    with pytest.raises(ValueError, match="integer matrix"):
        isometry.make_isometry(lam, half)
    doubled = intmat.identity(16)
    doubled[0][0] = 2
    with pytest.raises(ValueError, match="unimodular"):
        isometry.make_isometry(lam, doubled)
    swap = intmat.identity(16)
    swap[0], swap[6] = swap[6], swap[0]
    with pytest.raises(ValueError, match="bilinear"):
        isometry.make_isometry(lam, swap)
    # entries are ints: integral Fractions and bools are refused too
    one = [[Fraction(x) for x in row] for row in intmat.identity(16)]
    with pytest.raises(ValueError, match="integer matrix"):
        isometry.make_isometry(lam, one)
    with pytest.raises(ValueError, match="integer matrix"):
        isometry.make_isometry(lam, [[x == 1 for x in row] for row in one])


def test_rank_zero_isometry():
    ident = isometry.make_isometry(lattice.Lattice([]), [])
    assert ident.is_identity()
    assert isometry.compose(ident, ident) == ident


def test_reflection_errors(model):
    lam = model.lattice
    e = model.named["e0"]
    with pytest.raises(ValueError, match="isotropic"):
        isometry.reflection(lam, e)
    # square -4 but divisibility 1: the mirror is not integral
    with pytest.raises(ValueError, match="preserve"):
        isometry.reflection(lam, model.named["e8_root_pair"])


def test_orders(model):
    lam = model.lattice
    assert isometry.order_of(isometry.identity_isometry(lam)) == 1
    assert isometry.order_of(isometry.exceptional_involution(model)) == 2

    pair = chain_product(e8_chain_reflections(model, [6, 8]))
    assert isometry.order_of(pair) == 3

    coxeter_a4 = chain_product(e8_chain_reflections(model, [6, 8, 9, 10]))
    assert isometry.order_of(coxeter_a4) == 5

    six = isometry.compose(pair, isometry.exceptional_involution(model))
    assert isometry.order_of(six) == 6

    seven = chain_product(e8_chain_reflections(model, [6, 8, 9, 10, 11, 12]))
    assert isometry.order_of(seven) == 7


def test_order_cap(model):
    coxeter_a4 = chain_product(e8_chain_reflections(model, [6, 8, 9, 10]))
    with pytest.raises(ValueError, match="cap"):
        isometry.order_of(coxeter_a4, cap=4)


def test_infinite_order_rejected():
    lat = lattice.Lattice([[2, 0], [0, -4]])
    pell = isometry.make_isometry(lat, [[3, 4], [2, 3]])
    with pytest.raises(ValueError, match="cap"):
        isometry.order_of(pell)


def test_invariant_coinvariant(model):
    lam = model.lattice

    inv, coinv = isometry.invariant_coinvariant(isometry.identity_isometry(lam))
    assert inv.rank == 16 and coinv.rank == 0

    inv, coinv = isometry.invariant_coinvariant(
        isometry.exceptional_involution(model))
    assert inv.rank == 15 and coinv.rank == 1
    assert coinv.lattice.gram == [[-2]]

    neg = intmat.identity(16)
    neg[14][14] = -1
    neg[15][15] = -1
    f = isometry.make_isometry(lam, neg)
    inv, coinv = isometry.invariant_coinvariant(f)
    assert inv.rank == 14 and coinv.rank == 2
    assert coinv.lattice.gram == [[-2, 0], [0, -2]]
    for r in inv.rows:
        for s in coinv.rows:
            assert lam.inner(r, s) == 0
    # f acts as -1 on the coinvariant part
    for s in coinv.rows:
        assert f(s) == [-x for x in s]


def test_in_o_plus_anchors(model):
    lam = model.lattice
    assert isometry.in_O_plus(isometry.identity_isometry(lam))
    neg = [[-1 if i == j else 0 for j in range(16)] for i in range(16)]
    assert not isometry.in_O_plus(isometry.make_isometry(lam, neg))
    for name in ("a1_sum", "a1_diff", "e8_root"):
        refl = isometry.reflection(lam, model.named[name])
        assert isometry.in_O_plus(refl)


def test_in_o_plus_homomorphism():
    lat = lattice.build_named("U(2)+A1")
    plus = isometry.reflection(lat, [1, 1, 0])     # square 4 mirror
    minus = isometry.reflection(lat, [0, 0, 1])    # square -2 mirror
    assert not isometry.in_O_plus(plus)
    assert isometry.in_O_plus(minus)
    assert not isometry.in_O_plus(isometry.compose(plus, minus))
    assert isometry.in_O_plus(isometry.compose(plus, plus))
    assert isometry.in_O_plus(isometry.compose(minus, minus))


def test_disc_order(model):
    lam = model.lattice
    assert isometry.disc_order(isometry.identity_isometry(lam)) == 1
    assert isometry.disc_order(isometry.exceptional_involution(model)) == 1
    for coords in ([6, 8], [6, 8, 9, 10]):
        f = chain_product(e8_chain_reflections(model, coords))
        assert isometry.order_of(f) % isometry.disc_order(f) == 0
        # E8 is unimodular, so these act trivially on the discriminant
        assert isometry.disc_order(f) == 1


def test_symplectic_status(model):
    lam = model.lattice

    ident = isometry.identity_isometry(lam)
    assert isometry.symplectic_status(model, ident) == (True, True, [])

    ex = isometry.exceptional_involution(model)
    symp, reg, wit = isometry.symplectic_status(model, ex)
    assert (symp, reg, wit) == (True, True, [])

    refl = isometry.reflection(lam, model.named["e8_root"])
    symp, reg, wit = isometry.symplectic_status(model, refl)
    assert not symp and not reg
    assert [w.wclass for w in wit] == [walls.PEX2]

    neg = intmat.identity(16)
    neg[14][14] = -1
    neg[15][15] = -1
    f = isometry.make_isometry(lam, neg)
    symp, _reg, wit = isometry.symplectic_status(model, f)
    assert not symp
    assert sorted(w.wclass for w in wit) == [walls.PEX4, walls.PEX4]

    minus_one = isometry.make_isometry(
        lam, [[-1 if i == j else 0 for j in range(16)] for i in range(16)])
    with pytest.raises(ValueError, match="non-effective"):
        isometry.symplectic_status(model, minus_one)


def test_split_found_once_per_isometry(model, monkeypatch):
    """report, symplectic_status, the wall scan and the prime profile on
    one isometry find its invariant/coinvariant split once between them."""
    calls = []
    real = intmat.kernel_basis
    monkeypatch.setattr(intmat, "kernel_basis",
                        lambda m: calls.append(m) or real(m))
    root = model.named["e8_root"]
    isometry.invariant_coinvariant(isometry.reflection(model.lattice, root))
    one_split = len(calls)
    f = isometry.reflection(model.lattice, root)
    isometry.report(model, f)
    isometry.symplectic_status(model, f)
    walls.coinvariant_wall_scan(model, f)
    isometry.nonsymplectic_prime_profile(f, 2)
    assert one_split and len(calls) == 2 * one_split


def test_symplectic_status_infinite_order(model):
    lam = model.lattice
    sample = cli.monodromy_sample(model)
    f = isometry.compose(isometry.reflection(lam, sample[0]),
                         isometry.reflection(lam, sample[2]))
    with pytest.raises(ValueError, match="infinite order"):
        isometry.order_of(f)
    with pytest.raises(ValueError, match="infinite order"):
        isometry.symplectic_status(model, f)


def test_nonsymplectic_prime_check(model):
    lam = model.lattice

    # -1 away from the first hyperbolic block: order two, invariant U(2)
    m = [[0] * 16 for _ in range(16)]
    m[0][0] = m[1][1] = 1
    for i in range(2, 16):
        m[i][i] = -1
    f2 = isometry.make_isometry(lam, m)
    assert isometry.nonsymplectic_prime_profile(f2, 2)[1]

    coxeter_a4 = chain_product(e8_chain_reflections(model, [6, 8, 9, 10]))
    assert not isometry.nonsymplectic_prime_profile(coxeter_a4, 5)[1]
    profile = isometry.nonsymplectic_prime_profile(coxeter_a4, 5)
    assert sorted(profile) == [1, 2]
    assert profile == {1: False, 2: False}

    pair = chain_product(e8_chain_reflections(model, [6, 8]))
    assert isometry.nonsymplectic_prime_profile(pair, 3) == {1: False}

    seven = chain_product(e8_chain_reflections(model, [6, 8, 9, 10, 11, 12]))
    profile = isometry.nonsymplectic_prime_profile(seven, 7)
    assert sorted(profile) == [1, 2, 3]
    assert not any(profile.values())

    # words whose eigenspace at one cosine has signature (2, *)
    refls = sample_reflections(model)
    for p, picks, profile in (
            (3, [29, 11, 21, 8, 25, 14], {1: True}),
            (5, [39, 23, 20, 9, 27, 17], {1: True, 2: False}),
            (5, [12, 5, 33, 7, 40, 7, 40], {1: False, 2: True}),
            (7, [0, 34, 30, 16, 40, 7, 15, 30, 11, 1, 28, 43],
             {1: True, 2: False, 3: False})):
        f = chain_product([refls[i] for i in picks])
        f = isometry.power(f, isometry.order_of(f) // p)
        assert isometry.nonsymplectic_prime_profile(f, p) == profile


def test_nonsymplectic_prime_errors(model):
    lam = model.lattice
    ident = isometry.identity_isometry(lam)
    with pytest.raises(ValueError, match="2, 3, 5, 7"):
        isometry.nonsymplectic_prime_profile(ident, 6)
    with pytest.raises(ValueError, match="order"):
        isometry.nonsymplectic_prime_profile(ident, 3)


def test_group_identities(model):
    lam = model.lattice
    f = chain_product(e8_chain_reflections(model, [6, 8, 9, 10]))
    assert isometry.compose(f, isometry.inverse(f)).is_identity()
    assert isometry.power(f, 5).is_identity()
    assert isometry.power(f, -1) == isometry.inverse(f)
    assert isometry.power(f, 0).is_identity()

    # conjugation carries the mirror of a reflection along
    r = isometry.reflection(lam, model.named["a1_sum"])
    g = isometry.reflection(lam, model.named["a1_first"])
    carried = isometry.conjugate(r, g)
    assert carried == isometry.reflection(lam, g(model.named["a1_sum"]))

    other = isometry.identity_isometry(lattice.build_named("U+A1"))
    with pytest.raises(ValueError, match="different lattices"):
        isometry.compose(f, other)


def test_json_roundtrip(model):
    lam = model.lattice
    f = isometry.exceptional_involution(model)
    data = isometry.isometry_to_json(f)
    assert data["lattice"] == "Lambda"
    back = isometry.isometry_from_json(data)
    assert back == f

    small = lattice.build_named("U(2)+A1")
    g = isometry.reflection(small, [0, 0, 1])
    data = isometry.isometry_to_json(g)
    assert isinstance(data["lattice"], dict)
    back = isometry.isometry_from_json(data)
    assert back == g

    with pytest.raises(ValueError):
        isometry.isometry_from_json({"lattice": "Lambda"})


def test_report_identity(model):
    rep = isometry.report(model, isometry.identity_isometry(model.lattice))
    assert rep.table_row == 1
    assert rep.type_letter == "b"
    assert rep.order == 1
    assert rep.disc_order == 1
    assert rep.regular and rep.symplectic
    assert rep.coinv_genus is None
    assert rep.witnesses == []
    assert rep.inv_genus == "II_(3,13)2^8_6"


def test_report_exceptional(model):
    rep = isometry.report(model, isometry.exceptional_involution(model))
    assert rep.table_row == 2
    assert rep.type_letter == "c"
    assert rep.order == 2
    assert rep.disc_order == 1
    assert rep.exceptional
    assert rep.coinv_generator_divisibility == 2
    assert rep.inv_genus == "II_(3,12)2^7_7"
    assert rep.coinv_genus == "II_(0,1)2^1_7"
    assert rep.regular

    d = rep.as_dict()
    assert d["table_row"] == 2
    assert d["witnesses"] == []


def test_report_non_symplectic(model):
    refl = isometry.reflection(model.lattice, model.named["e8_root"])
    rep = isometry.report(model, refl)
    assert rep.type_letter == "non-symplectic"
    assert rep.table_row is None
    assert not rep.symplectic
    assert len(rep.witnesses) == 1


def test_report_outside_table(model):
    f = isometry.exceptional_involution(model)
    with pytest.raises(ValueError, match="outside table"):
        isometry.report(model, f, fixture=[])


def test_match_row_class_30():
    # computed invariant genus of row 30's construction, with the coinvariant
    # genus that row 30 shares with row 29 under the label L29
    rows = fixtures.load_table()
    by_no = {r["no"]: r for r in rows}
    assert by_no[30]["coinvariant_label"] == by_no[29]["coinvariant_label"] == "L29"
    inv_sym = genus.canonical_string(
        genus.genus_symbol(lattice.build_named("U(2)+A1(-4)^2")))
    coinv_sym = genus.canonical_string(
        genus.parse_genus(by_no[29]["coinvariant_genus"]))
    row = isometry._match_row(rows, 8, 8, False, inv_sym, coinv_sym)
    assert row is not None and row["no"] == 30
    # the table as printed matches nothing, so report would say outside table
    printed = fixtures.load_table(fixtures._DATA / "table1.json")
    assert isometry._match_row(printed, 8, 8, False, inv_sym, coinv_sym) is None


def test_report_wrong_lattice(model):
    small = lattice.build_named("U(2)+A1")
    g = isometry.identity_isometry(small)
    with pytest.raises(ValueError, match="model lattice"):
        isometry.report(model, g)


def test_type_letter_precedence():
    d10_2 = genus.canonical_string(
        genus.genus_symbol(lattice.build_named("D10(2)")))
    row_twist = {"no": 9, "type": "twist"}
    row_k3 = {"no": 3, "type": "K3"}
    row_plain = {"no": 7, "type": None}

    assert isometry._type_letter(row_k3, 4, False, None) == "a"
    assert isometry._type_letter(row_plain, 2, True, d10_2) == "e"
    assert isometry._type_letter(row_k3, 10, True, None) == "d"
    assert isometry._type_letter(row_twist, 2, True, None) == "c"
    assert isometry._type_letter(row_k3, 4, True, None) == "b"
    with pytest.raises(ValueError, match="realization type"):
        isometry._type_letter(row_plain, 3, True, None)


def test_report_e8_negation(model):
    """-1 on the E8 coordinates 6..13: the coinvariant lattice is E8, and
    each of its 120 root pairs is a PEX2 wall, all listed."""
    m = intmat.identity(16)
    for i in range(6, 14):
        m[i][i] = -1
    rep = isometry.report(model, isometry.make_isometry(model.lattice, m))
    assert rep.order == 2
    assert not rep.symplectic and rep.type_letter == "non-symplectic"
    assert len(rep.witnesses) == 120
    assert all(w.wclass == walls.PEX2 for w in rep.witnesses)

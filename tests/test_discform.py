from fractions import Fraction

import pytest

from latsym import discform, lattice


def test_a1_module():
    mod = discform.discriminant_form(lattice.root_A(1))
    assert mod.orders == [2]
    elems = mod.elements()
    assert elems == [(0,), (1,)]
    assert mod.q((1,)) == Fraction(3, 2)
    assert mod.q((0,)) == 0


def test_coordinates_are_not_truncated():
    # a non-integral coordinate is refused, not rounded: int(1/2) is 0 and
    # int(3/2) is 1, which made q((1/2,)) read as q((0,))
    mod = discform.discriminant_form(lattice.root_A(1))
    for bad in (Fraction(1, 2), Fraction(3, 2), 1.0):
        with pytest.raises(TypeError):
            mod.q((bad,))
        with pytest.raises(TypeError):
            mod.index_of((bad,))
        with pytest.raises(TypeError):
            discform.FqmIsometry(mod, [[bad]])
    assert mod.q((3,)) == mod.q((1,)) == Fraction(3, 2)
    assert discform.FqmIsometry(mod, [[3]]).matrix == [[1]]


def test_e8_module_trivial():
    mod = discform.discriminant_form(lattice.root_E8())
    assert mod.orders == []
    assert mod.elements() == [()]


def test_odd_lattice_rejected():
    with pytest.raises(ValueError, match="even"):
        discform.discriminant_form(lattice.odd_plane())


def test_bilinear_from_quadratic():
    mod = discform.discriminant_form(lattice.build_named("U(2)+A1"))
    for x in mod.elements():
        for y in mod.elements():
            lhs = mod.b(x, y)
            rhs = (mod.q(mod.add(x, y)) - mod.q(x) - mod.q(y)) % 2
            assert lhs == rhs


def test_lambda_module():
    lam = lattice.standard_model().lattice
    mod = discform.discriminant_form(lam)
    assert len(mod.elements()) == 256
    assert mod.orders == [2] * 8
    # q takes values in (1/2)Z mod 2Z on this module
    for x in mod.elements():
        assert (2 * mod.q(x)) % 1 == 0


def test_kernel_and_radical():
    lam = lattice.standard_model().lattice
    mod = discform.discriminant_form(lam)
    kern, rad, r = discform.kernel_and_radical(mod)
    assert kern.dim == 7
    assert rad.dim == 1
    assert mod.q(r) == 1
    # K is the integral part of q, r spans the radical of b restricted to K
    for x in kern.elements():
        assert mod.q(x) % 1 == 0
        assert mod.b(r, x) == 0

    a1_2 = discform.discriminant_form(lattice.build_named("A1^2"))
    kern2, rad2, r2 = discform.kernel_and_radical(a1_2)
    assert kern2.dim == 1
    assert rad2.dim == 1
    assert r2 == (1, 1)


def test_transvections():
    lam = lattice.standard_model().lattice
    mod = discform.discriminant_form(lam)
    _kern, _rad, r = discform.kernel_and_radical(mod)
    t = discform.transvection(mod, r)
    assert t.preserves_q
    assert t.order() == 2
    perm = t.permutation()
    assert all(perm[perm[i]] == i for i in range(len(perm)))

    with pytest.raises(ValueError):
        discform.transvection(mod, tuple([0] * 8))

    # a transvection in a vector of square != 1 is a map but not an isometry
    sigma = next(x for x in mod.elements() if any(x) and mod.q(x) != 1)
    assert not discform.transvection(mod, sigma).preserves_q


def test_induced_isometry():
    from latsym import isometry

    model = lattice.standard_model()
    lam = model.lattice
    mod = discform.discriminant_form(lam)
    _kern, _rad, r = discform.kernel_and_radical(mod)

    refl = isometry.reflection(lam, model.named["a1_sum"])
    induced = discform.induced_disc_isometry(lam, refl)
    assert induced.matrix == discform.transvection(mod, r).matrix

    ident = discform.induced_disc_isometry(lam, isometry.identity_isometry(lam))
    assert ident.is_identity


def test_dual_class_rejects_non_dual_vectors():
    lam = lattice.standard_model().lattice
    mod = discform.discriminant_form(lam)
    # half an E8 root pairs to 1/2 with its neighbours
    half_root = [1 if i == 6 else 0 for i in range(16)]
    with pytest.raises(ValueError, match="not in the dual lattice"):
        mod.dual_class(half_root, 2)
    with pytest.raises(ValueError, match="not in the dual lattice"):
        mod.dual_class([1] + [0] * 15, 3)
    # e_0 / 2 pairs integrally with U(2), so it has a class, of order 2
    cls = mod.dual_class([1] + [0] * 15, 2)
    assert any(cls) and mod.add(cls, cls) == mod.zero()
    assert mod.dual_class([2] + [0] * 15, 1) == mod.zero()
    assert mod.dual_class([4] + [0] * 15, 2) == mod.zero()


def test_order_refuses_a_map_that_is_not_invertible():
    mod = discform.discriminant_form(lattice.build_named("A1^2"))
    zero = discform.FqmIsometry(mod, [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="not invertible"):
        zero.order()
    swap = discform.FqmIsometry(mod, [[0, 1], [1, 0]])
    assert swap.order() == 2 and swap.preserves_q


def test_full_reflection_group():
    lam = lattice.standard_model().lattice
    mod = discform.discriminant_form(lam)
    grp = discform.full_reflection_group(mod)
    assert grp.order() == 2903040

    _kern, rad, r = discform.kernel_and_radical(mod)
    t = discform.transvection(mod, r)
    assert grp.contains(t)
    assert grp.is_central(t)

    nonzero = [x for x in mod.elements() if any(x)]
    q1 = [x for x in nonzero if mod.q(x) == 1]
    assert len(q1) == 64
    sizes = sorted(len(o) for o in grp.orbits(q1))
    assert sizes == [1, 63]

    kern, rad, _r = discform.kernel_and_radical(mod)
    assert grp.quotient_order(kern, rad) == 1451520


def test_group_enumeration_cap():
    big = lattice.build_named("A1^11")
    mod = discform.discriminant_form(big)
    with pytest.raises(ValueError, match="too large"):
        discform.full_reflection_group(mod)


def test_group_from_generators_empty():
    with pytest.raises(ValueError):
        discform.group_from_generators([])


def test_small_reflection_group():
    mod = discform.discriminant_form(lattice.build_named("A1^2"))
    grp = discform.full_reflection_group(mod)
    assert grp.order() == 2


def test_module_caching():
    lam = lattice.standard_model().lattice
    assert discform.discriminant_form(lam) is discform.discriminant_form(lam)



# Z/3, (Z/2)^2, Z/2 x Z/4, and Z/2 with no source lattice
Z3, Z2_2, Z2_4 = (discform.discriminant_form(lattice.build_named(e))
                  for e in ("A2", "A1^2", "A1+A3"))
BARE = discform.TorsionQuadModule([2], [1], [[2]])
# g1 -> g1, g2 -> g1 + g2 on (Z/2)^2: q(g1 + g2) = 1, q(g2) = 3/2
SHEAR = discform.FqmIsometry(Z2_2, [[1, 1], [0, 1]])
BARE_ID = discform.FqmIsometry(BARE, [[1]])


@pytest.mark.parametrize("call, message", [
    (lambda: discform.TorsionQuadModule([1], [0], [[0]]), "orders must all exceed 1"),
    (lambda: discform.TorsionQuadModule([2, 3], [], []), "orders must form a divisor chain"),
    (lambda: discform.TorsionQuadModule([2], [], []), "generator data does not match orders"),
    (lambda: discform.TorsionQuadModule([2], [1], [[0]]),
     "polar diagonal must be 2q of the generator"),
    (lambda: discform.TorsionQuadModule([2, 2], [0, 0], [[0, 1], [3, 0]]),
     "polar form must be symmetric"),
    (lambda: Z2_2.reduce((0,)), "coordinate length does not match module rank"),
    (lambda: BARE.lift((1,)), "module has no source lattice"),
    (lambda: BARE.dual_class([1], 2), "module has no source lattice"),
    (lambda: discform.Subgroup(Z3, []), "subgroups are supported for 2-elementary modules"),
    (lambda: discform.kernel_and_radical(Z3), "kernel/radical needs a 2-elementary module"),
    (lambda: discform.transvection(Z3, (1,)), "transvections need a 2-elementary module"),
    (lambda: discform.full_reflection_group(Z3),
     "reflection groups need a 2-elementary module"),
    (lambda: discform.FqmIsometry(Z2_2, [[1, 0]]), "matrix shape does not match module"),
    (lambda: discform.FqmIsometry(Z2_4, [[1, 0], [1, 1]]),
     "matrix does not define a homomorphism"),
    (lambda: SHEAR.compose(BARE_ID), "isometries live on different modules"),
    (lambda: discform._StabilizerChain(3).add((0, 1)), "permutation degree mismatch"),
    (lambda: discform.FiniteIsometryGroup(
        discform.discriminant_form(lattice.build_named("A1^11")), []),
     "module too large for group enumeration"),
    (lambda: discform.FiniteIsometryGroup(Z2_2, [BARE_ID]),
     "generators live on different modules"),
    (lambda: discform.FiniteIsometryGroup(Z2_2, [SHEAR]), "generators must preserve q"),
    (lambda: discform.FiniteIsometryGroup(Z2_2, []).contains(BARE_ID),
     "isometry lives on a different module")])
def test_public_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsym import intmat


def small_matrices(max_dim=4, lo=-30, hi=30):
    entry = st.integers(min_value=lo, max_value=hi)
    dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return dims.flatmap(
        lambda d: st.lists(
            st.lists(entry, min_size=d[1], max_size=d[1]),
            min_size=d[0], max_size=d[0]))


def test_basic_ops():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert intmat.mat_mul(a, b) == [[2, 1], [4, 3]]
    assert intmat.mat_vec(a, [1, 1]) == [3, 7]
    assert intmat.transpose(a) == [[1, 3], [2, 4]]
    assert intmat.dot([1, 2, 3], [4, 5, 6]) == 32
    assert intmat.identity(2) == [[1, 0], [0, 1]]


def test_det_agrees_with_frac_det():
    cases = [
        [[2]],
        [[0, 2], [2, 0]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
        [[12, 6, 4], [3, 9, 6], [2, 16, 14]],
    ]
    for m in cases:
        assert Fraction(intmat.det(m)) == intmat.frac_det(m)


def test_det_singular():
    assert intmat.det([[1, 2], [2, 4]]) == 0
    assert intmat.frac_det([[1, 2], [2, 4]]) == 0


def test_kernel_basis_of_a_rational_matrix():
    # x / 2 + y = 0 cleared of its denominator, 2x + 4y = 0: the kernel is
    # saturated, spanned by (2, -1) and not by (4, -2)
    assert intmat.kernel_basis([[2, 4]]) in ([[2, -1]], [[-2, 1]])


def test_frac_inverse():
    m = [[2, 1], [1, 1]]
    inv = intmat.frac_inverse(m)
    assert intmat.mat_mul(m, inv) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="singular"):
        intmat.frac_inverse([[1, 2], [2, 4]])


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_smith_normal_form_properties(m):
    d, u, v = intmat.smith_normal_form(m)
    assert intmat.mat_mul(intmat.mat_mul(u, m), v) == d
    assert abs(intmat.det(u)) == 1
    assert abs(intmat.det(v)) == 1
    rows, cols = len(m), len(m[0])
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def test_smith_normal_form_known():
    d, _u, _v = intmat.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert [d[i][i] for i in range(3)] == [2, 2, 156]
    d, _u, _v = intmat.smith_normal_form([[2, 0], [0, 3]])
    assert d == [[1, 0], [0, 6]]


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_kernel_basis_kills_and_saturates(m):
    basis = intmat.kernel_basis(m)
    for x in basis:
        assert intmat.mat_vec(m, x) == [0] * len(m)
    if basis:
        d, _u, _v = intmat.smith_normal_form(basis)
        assert all(d[i][i] == 1 for i in range(len(basis)))


def test_kernel_basis_rank():
    assert intmat.kernel_basis([[1, 2, 3]]) != []
    assert intmat.kernel_basis([[1, 0], [0, 1]]) == []


def test_is_prime():
    primes = [n for n in range(-3, 60) if intmat.is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert intmat.is_prime(2**31 - 1)
    assert not intmat.is_prime(2**31 - 3)   # 5 * 19 * 22605091


def test_is_prime_miller_rabin():
    # strong pseudoprimes to base 2, and Carmichael numbers
    for n in (2047, 3215031751, 561, 41041, 825265, 3825123056546413051):
        assert not intmat.is_prime(n), n
    # psi_12 = 399165290221 * 798330580441 fools the bases 2..37; the
    # thirteenth base, 41, exposes it
    assert not intmat.is_prime(399165290221 * 798330580441)
    assert intmat.is_prime(2**61 - 1)
    # the primes in [10^24, 10^24 + 200)
    assert [k for k in range(200) if intmat.is_prime(10**24 + k)] == [
        7, 49, 121, 177, 183]
    assert all(intmat.is_prime(n) == all(n % d for d in range(2, isqrt(n) + 1))
               for n in range(2, 5000))
    # at and above the bound a composite is decided, since a failed round
    # proves it; a number that passes every round raises
    assert not intmat.is_prime(2**100)
    assert not intmat.is_prime(41 * 2**89)
    assert not intmat.is_prime((2**61 - 1) * (2**89 - 1))
    assert not intmat.is_prime(1000033 * 1000037 * (2**61 - 1))
    for n in (intmat.PRIME_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match="proven bound"):
            intmat.is_prime(n)


def test_det_signature():
    assert intmat.det_signature([]) == (1, (0, 0))
    assert intmat.det_signature([[0, 1], [1, 0]]) == (-1, (1, 1))
    # zero diagonal throughout: the pass must fold before it can pivot
    assert intmat.det_signature([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == (2, (1, 2))
    assert intmat.det_signature([[1, 1], [1, 1]]) == (0, None)


def test_symmetric_signature():
    assert intmat.symmetric_signature([[2]]) == (1, 0)
    assert intmat.symmetric_signature([[-2]]) == (0, 1)
    assert intmat.symmetric_signature([[0, 1], [1, 0]]) == (1, 1)
    assert intmat.symmetric_signature([[0, 2], [2, 0]]) == (1, 1)
    with pytest.raises(ValueError, match="degenerate"):
        intmat.symmetric_signature([[1, 0], [0, 0]])

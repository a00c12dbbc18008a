"""Class representatives of Table 1 rows, rebuilt from model vectors.

tests/data/classes/rowNN.json is an isometry of Lambda whose report matches
row NN of the bundled table; each file is also in the golden corpus.  Row 3
is -1 on a D4(2) spanned by four `fixtures.model_vector` expressions and +1
on its orthogonal complement.  It fixes a1_second, so it commutes with the
exceptional involution tau, the reflection in a1_second, and row 4 is their
product.
"""

import json
from math import gcd
from pathlib import Path

import pytest

from latsym import fixtures, intmat, isometry
from latsym.lattice import standard_model

DATA = Path(__file__).parent / "data"
# the D4(2) centre first, then its three leaves
D4_2 = ("-e0-f0-e1-e2-a1_first-2*r5-r6-r7", "r5-r7", "e0+r5+r7", "e1+r5+2*r6+r7")


def minus_one_on_span(model, exprs):
    """g = I - 2 B^T H^-1 B G with H = B G B^T, for the rows B of the model
    vectors `exprs`: -1 on their span and +1 on its orthogonal complement.
    H^-1 comes from one solve H Y = D B G; ValueError when D does not
    divide 2 B^T Y, that is when g is not integral."""
    b = [fixtures.model_vector(model, e) for e in exprs]
    bg = intmat.mat_mul(b, model.lattice.gram)
    d, y = intmat.solve(intmat.mat_mul(bg, intmat.transpose(b)), bg)
    twice = [[2 * x for x in row] for row in intmat.mat_mul(intmat.transpose(b), y)]
    if any(x % d for row in twice for x in row):
        raise ValueError("-1 on this span is not integral")
    return isometry.LatticeIsometry(model.lattice, [
        [int(i == j) - x // d for j, x in enumerate(row)] for i, row in enumerate(twice)])


def representatives(model):
    """{row: isometry} for the rows the expressions reach."""
    g = minus_one_on_span(model, D4_2)
    return {3: g, 4: isometry.compose(g, isometry.exceptional_involution(model))}


def test_class_files_rebuild_from_expressions():
    for row, f in representatives(standard_model()).items():
        name = "row%02d.json" % row
        text = (DATA / "classes" / name).read_text()
        assert json.loads(text) == isometry.isometry_to_json(f)
        assert (DATA / "golden" / name).read_text() == text


def test_minus_one_on_span_refuses_a_remainder():
    # r5 + r7 has square -4 and divisibility 1, so g x = x + <x, v> v / 2
    with pytest.raises(ValueError, match="not integral"):
        minus_one_on_span(standard_model(), ["r5+r7"])


@pytest.mark.parametrize("row, letter, inv_genus, coinv_genus", [
    (3, "b", "II_(3,9)2^6_24^2", "II_(0,4)2^{-2}4^{-2}"),
    (4, "c", "II_(3,8)2^5_34^2", "II_(0,5)2^3_34^2")])
def test_representative_matches_its_row(row, letter, inv_genus, coinv_genus):
    model = standard_model()
    path = DATA / "classes" / ("row%02d.json" % row)
    rep = isometry.report(model, isometry.isometry_from_json(json.loads(path.read_text())))
    assert (rep.order, rep.symplectic, rep.regular, rep.witnesses) == (2, True, True, [])
    assert (rep.table_row, rep.type_letter) == (row, letter)
    assert (rep.inv_genus, rep.coinv_genus) == (inv_genus, coinv_genus)


def test_twist_by_the_exceptional_involution():
    """For a representative that fixes a1_second, its product with tau
    matches the row whose twist_of is the representative's row."""
    model = standard_model()
    twist = {row["twist_of"]: row["no"] for row in fixtures.load_table() if row["twist_of"]}
    tau = isometry.exceptional_involution(model)
    a1 = model.named["a1_second"]
    cases = {1: isometry.identity_isometry(model.lattice), 3: representatives(model)[3]}
    for row, f in cases.items():
        assert intmat.mat_vec(f.matrix, a1) == a1
        assert isometry.report(model, f).table_row == row
        assert isometry.report(model, isometry.compose(f, tau)).table_row == twist[row]


def test_powers_match_rows_of_the_quotient_order():
    """Every power g^k is symplectic and matches a row of order n / gcd(n, k)."""
    model = standard_model()
    order = {row["no"]: row["order"] for row in fixtures.load_table()}
    for f in representatives(model).values():
        n = isometry.report(model, f).order
        for k in range(1, 2 * n + 2):
            rep = isometry.report(model, isometry.power(f, k))
            assert rep.symplectic, k
            assert order[rep.table_row] == n // gcd(n, k), k

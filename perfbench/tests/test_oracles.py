"""Tests of the benchmark's own oracles and of its failure counting.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracles as O  # noqa: E402
from setup_sample import program_setup  # noqa: E402

GRAM = O.standard_gram()


def unit(*idx):
    v = [0] * O.RANK
    for i in idx:
        v[i] = 1
    return v


def diag(*entries):
    m = O.identity(O.RANK)
    for i, c in entries:
        m[i][i] = c
    return m


def swap(i, j):
    m = O.identity(O.RANK)
    m[i][i] = m[j][j] = 0
    m[i][j] = m[j][i] = 1
    return m


EXCEPTIONAL = diag((15, -1))
A1_SWAP = swap(14, 15)


@pytest.fixture(scope="module")
def model():
    return program_setup()


def test_standard_gram_invariants():
    assert O.det_and_signature(GRAM) == (-256, 3, 13)
    e8 = [row[6:14] for row in GRAM[6:14]]
    assert O.det_and_signature(e8) == (1, 0, 8)


def test_standard_gram_is_the_programs(model):
    assert model.lattice.gram == GRAM


def test_minus_identity_is_outside_O_plus():
    minus = [[-x for x in row] for row in O.identity(O.RANK)]
    assert not O.orientation_character(GRAM, minus)


def test_reflection_in_e1_plus_f1_is_outside_O_plus():
    assert not O.orientation_character(GRAM, O.reflection_matrix(GRAM, unit(0, 1)))


def test_reflections_in_negative_vectors_are_in_O_plus():
    for v in (unit(6), unit(14, 15), [1, -1] + [0] * 14):
        assert O.orientation_character(GRAM, O.reflection_matrix(GRAM, v))


def test_block_permutations_and_orientation():
    u2_swap = O.mat_mul(swap(0, 2), swap(1, 3))
    assert not O.orientation_character(GRAM, u2_swap)
    u2_cycle = O.mat_mul(u2_swap, O.mat_mul(swap(0, 4), swap(1, 5)))
    assert O.orientation_character(GRAM, u2_cycle)
    assert O.order_by_multiplication(u2_cycle) == 3


def test_disc_orders_by_hand():
    assert O.disc_order(EXCEPTIONAL) == 1
    assert O.disc_order(A1_SWAP) == 2
    assert O.disc_order(O.identity(O.RANK)) == 1


def test_disc_order_agrees_with_program(model):
    from latsym import cli, isometry
    rng = random.Random(5)
    sample = cli.monodromy_sample(model)
    for _ in range(6):
        m = O.identity(O.RANK)
        for v in rng.sample(sample, 3):
            m = O.mat_mul(O.reflection_matrix(GRAM, v), m)
        f = isometry.make_isometry(model.lattice, m)
        assert O.disc_order(m) == isometry.disc_order(f)
        assert O.orientation_character(GRAM, m) == isometry.in_O_plus(f)


def test_order_by_multiplication():
    assert O.order_by_multiplication(O.identity(O.RANK)) == 1
    assert O.order_by_multiplication(EXCEPTIONAL) == 2
    with pytest.raises(ValueError):
        shear = O.identity(2)
        shear[0][1] = 1
        O.order_by_multiplication(shear, cap=50)


def test_witness_membership_and_classes():
    assert O.in_coinvariant(EXCEPTIONAL, unit(15), 2)
    assert not O.in_coinvariant(EXCEPTIONAL, unit(14), 2)
    assert O.wall_class(GRAM, unit(6)) == "PEX2"
    assert O.wall_class(GRAM, unit(14, 15)) == "PEX4"
    assert O.wall_class(GRAM, unit(15)) is None
    assert O.divisibility(GRAM, unit(15)) == 2


def test_genus_strings():
    assert O.oddity_formula_holds("II_(3,13)2^8_6")
    assert O.oddity_formula_holds("II_(0,4)2^{-2}4^{-2}")
    # row 30's printed invariant genus, which the errata correct
    assert not O.oddity_formula_holds("II_(3,1)2^2_28^2_2")
    assert O.oddity_formula_holds("II_(3,1)2^28^2_2")
    assert O.symbol_det("II_(3,13)2^8_6") == -256
    assert O.symbol_det("II_(3,12)2^7_7") == 128


def test_rebase_keeps_det_and_signature():
    import workloads
    plain = workloads._block_sum([[[0, 2], [2, 0]], [[-2, 1], [1, -2]], [[-4]]])
    dense = workloads.rebase(plain, random.Random(3), 20)
    assert O.det_and_signature(dense) == O.det_and_signature(plain)
    assert max(abs(x) for row in dense for x in row) <= workloads.ENTRY_CAP


def test_orthogonal_frame(model):
    import workloads
    frame = workloads.orthogonal_frame()
    assert len(frame) == 8
    for i, u in enumerate(frame):
        assert O.square(GRAM, u) == -2
        assert all(O.inner(GRAM, u, w) == 0 for w in frame[i + 1:])


class Flipped:
    """A workload whose answers have in_O_plus negated."""

    def __init__(self, inner):
        self.inner = inner

    def run(self, item):
        out = self.inner.run(item)
        out["in_O_plus"] = not out["in_O_plus"]
        return out

    def check(self, item, out):
        return self.inner.check(item, out)


def test_altered_answers_count_as_failed(model, tmp_path):
    import workloads
    from run import Loop
    from latsym import fixtures
    classify = workloads.make("classify", model, fixtures.load_table())
    first = classify.generate(7, tmp_path)[0][:2]  # identity, exceptional
    honest = Loop(classify, [first])
    honest.run_round(0)
    assert honest.check() == (0, 0)
    altered = Loop(Flipped(workloads.make("classify", model, fixtures.load_table())),
                   [first])
    altered.run_round(0)
    assert altered.check() == (2, 2)


def test_wrong_row_is_reported(model, tmp_path):
    import workloads
    from latsym import fixtures
    classify = workloads.make("classify", model, fixtures.load_table())
    item = classify.generate(8, tmp_path)[0][1]  # the exceptional involution
    out = classify.run(item)
    assert classify.check(item, out) == []
    out["table_row"] = 3
    assert classify.check(item, out)


def test_tail_rule_is_continuous_at_forty_inputs():
    from run import tail_ms
    # ten inputs beyond from 40 on, the nearest-rank 75th percentile below
    assert [tail_ms(list(range(1, n + 1))) for n in (5, 30, 39, 40, 45, 60)] == [
        4, 23, 30, 30, 35, 50]


def test_scaled_time_is_the_reference_time_at_reference_speed():
    import calibrate
    from run import CAL_CHUNKS, scaled
    at_ref = CAL_CHUNKS * calibrate.REF_CHUNK_S
    assert scaled(0.4, at_ref) == pytest.approx(0.4)
    # on a machine half as fast, the chunks and the input both take twice
    assert scaled(0.8, 2 * at_ref) == pytest.approx(0.4)


def test_tracer_refuses_a_missing_name():
    import types
    from latsym import cli, discform, fixtures, genus, intmat, isometry, \
        lattice, walls
    import tracer as tracing
    layers = {"cli": cli, "isometry": isometry, "walls": walls,
              "discform": discform, "genus": genus, "lattice": lattice,
              "intmat": intmat, "fixtures": fixtures}
    tr = tracing.Tracer()
    tr.install(layers)
    tr.uninstall()
    assert not hasattr(isometry.order_of, "__wrapped__")
    renamed = types.ModuleType("walls")
    renamed.__dict__.update({k: v for k, v in vars(walls).items()
                             if k != "short_vectors"})
    with pytest.raises(LookupError, match="walls.short_vectors"):
        tracing.Tracer().install(dict(layers, walls=renamed))
    # nothing stays wrapped after the refusal
    assert not hasattr(isometry.order_of, "__wrapped__")

"""The benchmark's tracer must find every name it wraps in latsym.

perfbench/tracer.py is loaded from its file, read-only; a traced name that
latsym no longer has makes `Tracer.install` raise LookupError here, in the
test suite, rather than in a traced benchmark run.  The traced names that
`report` and `info` reach are pinned too, so that work moved off one of
them fails here rather than zeroing a per-layer figure.
"""

import importlib.util
from pathlib import Path

from latsym import cli, discform, fixtures, genus, intmat, isometry, lattice, walls

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def installed_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = {"cli": cli, "isometry": isometry, "walls": walls,
              "discform": discform, "genus": genus, "lattice": lattice,
              "intmat": intmat, "fixtures": fixtures}
    tr = tracing.Tracer()
    tr.install(layers)
    return tr


def test_tracer_installs_over_latsym():
    tr = installed_tracer()
    try:
        assert hasattr(isometry.reflection, "__wrapped__")
    finally:
        tr.uninstall()
    assert not hasattr(isometry.reflection, "__wrapped__")


def test_report_scans_through_the_traced_wall_scan(capsys):
    """report reaches the wall scan by its public name, so a traced
    classify run counts its time and witnesses; the order on the
    coinvariant lattice, the discriminant action on masks and the wall
    classes from the pairing rows stay on their traced names too, so that
    their per-layer figures cannot read 0."""
    golden = ROOT / "tests" / "data" / "golden" / "e8_roots_orthogonal_4.json"
    tr = installed_tracer()
    try:
        assert cli.main(["report", str(golden), "--format", "json"]) == 0
    finally:
        tr.uninstall()
    witnesses = capsys.readouterr().out.count('"class": "PEX2"')
    assert tr.calls["walls.coinvariant_wall_scan"] == 1
    assert tr.counts["walls.witnesses"] == witnesses == 4
    assert [tr.calls[name] for name in (
        "isometry.order_of", "isometry.disc_order",
        "discform.induced_disc_isometry", "discform.FqmIsometry.order")] == [1] * 4
    assert tr.calls["walls.wall_class"] >= 4



# the traced names that a warm `report` and `info` reach: a refactor that
# moves work off one of them would read 0 on its per-layer figures
REPORT_NAMES = {
    "cli.main", "discform.FqmIsometry.order", "discform.discriminant_form",
    "discform.induced_disc_isometry", "fixtures.load_table",
    "genus.canonical_string", "genus.genus_symbol", "intmat.det",
    "intmat.kernel_basis", "intmat.mat_mul", "isometry.disc_order",
    "isometry.in_O_plus", "isometry.invariant_coinvariant",
    "isometry.isometry_from_json", "isometry.order_of", "isometry.report",
    "lattice.Lattice", "lattice.orthogonal_complement",
    "walls.coinvariant_wall_scan", "walls.short_vectors", "walls.wall_class"}
INFO_NAMES = {"cli.main", "genus.canonical_string", "genus.genus_symbol",
              "lattice.Lattice", "lattice.build_named"}


def test_classify_and_genus_reach_their_traced_names(capsys):
    """Each command runs once untraced, so that the names behind
    per-process caches (intmat.smith_normal_form of a cached
    discriminant form, genus.parse_genus of the table strings) are not
    reached whatever ran before, then once traced."""
    golden = ROOT / "tests" / "data" / "golden" / "exceptional_involution.json"
    for argv, want in ((["report", str(golden)], REPORT_NAMES),
                       (["info", "U(2)^3+E8+A1^2"], INFO_NAMES)):
        assert cli.main(argv) == 0
        tr = installed_tracer()
        try:
            assert cli.main(argv) == 0
        finally:
            tr.uninstall()
        assert {name for name, n in tr.calls.items() if n} == want, argv[0]
    assert (len(REPORT_NAMES), len(INFO_NAMES)) == (21, 5)
    capsys.readouterr()

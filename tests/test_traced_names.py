"""The benchmark's tracer must find every name it wraps in latsym.

perfbench/tracer.py is loaded from its file, read-only; a traced name that
latsym no longer has makes `Tracer.install` raise LookupError here, in the
test suite, rather than in a traced benchmark run.
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


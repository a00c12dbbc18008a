"""The benchmark's tracer must find every name it wraps in latsym.

perfbench/tracer.py is loaded from its file, read-only; a traced name that
latsym no longer has makes `Tracer.install` raise LookupError here, in the
test suite, rather than in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from latsym import cli, discform, fixtures, genus, intmat, isometry, lattice, walls

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_over_latsym():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = {"cli": cli, "isometry": isometry, "walls": walls,
              "discform": discform, "genus": genus, "lattice": lattice,
              "intmat": intmat, "fixtures": fixtures}
    tr = tracing.Tracer()
    tr.install(layers)
    try:
        assert hasattr(isometry.reflection, "__wrapped__")
    finally:
        tr.uninstall()
    assert not hasattr(isometry.reflection, "__wrapped__")

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from latsym import fixtures, lattice
from latsym.lattice import standard_model


def test_table_shape():
    rows = fixtures.load_table()
    assert len(rows) == 32
    assert [r["no"] for r in rows] == list(range(1, 33))
    assert sum(1 for r in rows if r["regular"]) == 21
    for r in rows:
        assert r["order"] >= 1
        assert r["disc_order"] >= 1
        assert r["disc_order"] <= r["order"]


def test_bundled_table_loaded_once(monkeypatch):
    fixtures._bundled.cache_clear()
    fixtures._corrected_rows.cache_clear()
    read = []
    load_json = fixtures._load_json

    def counting(path, checksum):
        read.append(path.name)
        return load_json(path, checksum)

    monkeypatch.setattr(fixtures, "_load_json", counting)
    first = fixtures.load_table()
    second = fixtures.load_table()
    assert sorted(read) == ["errata.json", "table1.json"]
    assert first == second
    first[0]["order"] = 99
    first.pop()
    third = fixtures.load_table()
    assert third == second and third[0]["order"] == 1 and len(third) == 32
    fixtures.load_errata()[0]["corrected"] = "II_(0,0)"
    assert fixtures.load_table() == second


def test_orbit_table_shape():
    rows = fixtures.load_orbit_table()
    assert len(rows) == 6
    lam = standard_model().lattice
    for r in rows:
        assert "vector" in r
        assert lam.square(r["vector"]) == r["square"]
        assert lam.divisibility(r["vector"]) == r["div"]


def test_checksum_enforced(tmp_path):
    src = fixtures._DATA / "table1.json"
    tampered = tmp_path / "table1.json"
    data = json.loads(src.read_text())
    data["rows"][0]["order"] = 99
    tampered.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="checksum"):
        fixtures._load_json(tampered, fixtures.TABLE1_SHA256)
    # explicit paths are trusted, so the same file loads fine
    rows = fixtures.load_table(tampered)
    assert rows[0]["order"] == 99


def test_bundled_checksums_match(tmp_path):
    copy = tmp_path / "table1.json"
    shutil.copy(fixtures._DATA / "table1.json", copy)
    assert fixtures._load_json(copy, fixtures.TABLE1_SHA256)
    copy2 = tmp_path / "orbits.json"
    shutil.copy(fixtures._DATA / "orbits.json", copy2)
    assert fixtures._load_json(copy2, fixtures.ORBITS_SHA256)
    copy3 = tmp_path / "errata.json"
    shutil.copy(fixtures._DATA / "errata.json", copy3)
    assert fixtures._load_json(copy3, fixtures.ERRATA_SHA256)


def test_errata_checksum_enforced(tmp_path):
    data = json.loads((fixtures._DATA / "errata.json").read_text())
    data["errata"][0]["corrected"] = "II_(3,1)2^2_28^2_2"
    tampered = tmp_path / "errata.json"
    tampered.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="checksum"):
        fixtures._load_json(tampered, fixtures.ERRATA_SHA256)


def test_errata_applied_to_bundled_table_only():
    printed = {r["no"]: r for r in fixtures.load_table(fixtures._DATA / "table1.json")}
    loaded = {r["no"]: r for r in fixtures.load_table()}
    errata = fixtures.load_errata()
    for e in errata:
        assert printed[e["row"]][e["field"]] == e["printed"]
        assert loaded[e["row"]][e["field"]] == e["corrected"]
    touched = {(e["row"], e["field"]) for e in errata}
    for no, row in printed.items():
        for key, value in row.items():
            if (no, key) not in touched:
                assert loaded[no][key] == value


def _erratum(row, field, printed, corrected):
    return {"row": row, "field": field, "printed": printed,
            "corrected": corrected, "reason": "test"}


@pytest.mark.parametrize("erratum, message", [
    # printed string no longer what the table prints
    (_erratum(30, "invariant_genus", "II_(3,1)2^28^2_2", "II_(3,1)2^28^2_2"),
     "table prints"),
    # printed string is verbatim but already satisfies the oddity formula
    (_erratum(29, "invariant_genus", "II_(3,1)8^2_2", "II_(3,1)8^2_2"),
     "satisfies the oddity formula"),
    # corrected string describes no lattice either
    (_erratum(30, "invariant_genus", "II_(3,1)2^2_28^2_2", "II_(3,1)2^2_28^2_2"),
     "corrected .* violates the oddity formula"),
    (_erratum(33, "invariant_genus", "II_(0,0)", "II_(0,0)"), "no such row"),
    (_erratum(30, "invariant_expr", "U(2)+A1(-4)^2", "U(2)+A1(-4)^2"),
     "no such row or genus field"),
])
def test_stale_erratum_raises(monkeypatch, erratum, message):
    monkeypatch.setattr(fixtures, "load_errata", lambda: [erratum])
    with pytest.raises(ValueError, match=message):
        fixtures.load_table()


def test_model_vector():
    model = standard_model()
    lam = model.lattice

    v = fixtures.model_vector(model, "a1_sum")
    assert v == model.named["a1_sum"]

    v = fixtures.model_vector(model, "u2(-1)")
    assert v == model.u2_vector(-1)

    v = fixtures.model_vector(model, "u2(1)+e8_root_pair-a1_first")
    expect = [a + b - c for a, b, c in zip(
        model.u2_vector(1), model.named["e8_root_pair"],
        model.named["a1_first"])]
    assert v == expect

    v = fixtures.model_vector(model, "2*u2(1)+2*e8_root_pair-a1_sum")
    assert lam.square(v) == -4
    assert lam.divisibility(v) == 2


def test_model_vector_errors():
    model = standard_model()
    with pytest.raises(ValueError, match="unknown"):
        fixtures.model_vector(model, "mystery")
    with pytest.raises(ValueError):
        fixtures.model_vector(model, "++")
    with pytest.raises(ValueError):
        fixtures.model_vector(model, "")


def test_row_expressions_build():
    for row in fixtures.load_table():
        lat = lattice.build_named(row["invariant_expr"])
        assert lat.rank >= 1
        if row["coinvariant_expr"]:
            lattice.build_named(row["coinvariant_expr"])


def _modules_loaded_by(*steps):
    """Run each step of code in turn in a fresh interpreter; after each, the
    modules loaded since start-up.  Site-wide imports are excluded by
    comparing with the start-up modules."""
    code = ("import json, sys\n"
            "before, loaded = set(sys.modules), []\n"
            + "".join(step + "loaded.append(sorted(set(sys.modules) - before))\n"
                      for step in steps)
            + "print(json.dumps(loaded))\n")
    src = str(Path(fixtures.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_leaves_out_openssl_and_threads():
    # hashlib loads OpenSSL (about 3.6 MB) and a thread pool is not needed
    [loaded] = _modules_loaded_by("import latsym.cli\n"
                                  "from latsym import fixtures\n"
                                  "fixtures.load_table()\n")
    assert "latsym.fixtures" in loaded
    assert "_hashlib" not in loaded
    assert "hashlib" not in loaded
    assert not [m for m in loaded if m.startswith("concurrent")]


LAZY = ["latsym.isometry", "latsym.walls", "fractions", "decimal"]


def test_setup_and_lattice_commands_leave_out_the_classifier():
    """The benchmark's set-up (perfbench/setup_sample.py) and a lattice
    command compile neither isometry, walls nor fractions (which loads
    decimal); a report loads isometry and walls when it runs."""
    golden = Path(__file__).parent / "data" / "golden" / "identity.json"
    setup, report = _modules_loaded_by(
        "from latsym import cli, discform, fixtures, lattice\n"
        "model = lattice.standard_model()\n"
        "discform.discriminant_form(model.lattice)\n"
        "fixtures.load_table()\n"
        "cli.main(['info', 'E8', '--format', 'json'])\n",
        "cli.main(['report', %r])\n" % str(golden))
    assert "latsym.cli" in setup
    assert [m for m in LAZY if m in setup] == []
    assert "latsym.isometry" in report and "latsym.walls" in report


def test_checksums_without_builtin_sha256(monkeypatch, tmp_path):
    """With neither builtin SHA-256 module, fixtures falls back to hashlib
    and still checks every bundled file."""
    import hashlib

    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    try:
        mod = importlib.reload(fixtures)
        assert mod.sha256 is hashlib.sha256
        assert len(mod.load_table()) == 32
        raw = bytearray((mod._DATA / "table1.json").read_bytes())
        raw[100] ^= 1
        flipped = tmp_path / "table1.json"
        flipped.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checksum mismatch"):
            mod._load_json(flipped, mod.TABLE1_SHA256)
    finally:
        monkeypatch.undo()
        importlib.reload(fixtures)
    assert fixtures.sha256 is not hashlib.sha256


@pytest.mark.parametrize("call, message", [
    (lambda: fixtures.model_vector(standard_model(), "e0+x(1)"),
     "unknown parametrized vector 'x'")])
def test_public_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

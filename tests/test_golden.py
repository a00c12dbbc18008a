"""Byte-for-byte regression of `latsym report --format json` on the golden
corpus in tests/data/golden, and of the discriminant-group commands on the
outputs in tests/data/golden/commands (see the README there)."""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from latsym import cli, fixtures, lattice

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))
COMMANDS = GOLDEN / "commands"
# NAME.txt and NAME.jsonl: NAME is a command, or disc_EXPR for `disc EXPR`
COMMAND_CASES = sorted(p.stem for p in COMMANDS.glob("*.txt"))


def test_corpus_is_complete():
    assert len(CASES) >= 20
    assert all((GOLDEN / (name + ".report")).is_file() for name in CASES)
    assert len(COMMAND_CASES) == 11
    assert all((COMMANDS / (name + ".jsonl")).is_file() for name in COMMAND_CASES)


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(capsys, name):
    rc = cli.main(["report", str(GOLDEN / (name + ".json")), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode() == (GOLDEN / (name + ".report")).read_bytes()


@pytest.mark.parametrize("fmt,suffix", [("text", ".txt"), ("json", ".jsonl")])
@pytest.mark.parametrize("name", COMMAND_CASES)
def test_command_matches_golden(capsys, name, fmt, suffix):
    command, _, expr = name.partition("_")
    rc = cli.main([command] + ([expr] if expr else []) + ["--format", fmt])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode() == (COMMANDS / (name + suffix)).read_bytes()


# ---------------------------------------------------------------------------
# the benchmark's inputs: one sha256 of each answer, for the seed-1 inputs
# written by the code as it was before genera were compared by canonical
# string, and for the seed-31 inputs by the code as it was before the wall
# scan skipped the walks that the norm of the walked Gram rules out

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = {1: GOLDEN / "benchmark_inputs.sha256",
           31: GOLDEN / "benchmark_inputs_seed31.sha256"}


def _perfbench_module(name):
    """A module of perfbench/, loaded from its file, read-only."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_digests(workdir, seed):
    """{'workload input-file': sha256 of the JSON answer} for the inputs of
    the classify (report) and genus (info) workloads made from `seed`."""
    workloads = _perfbench_module("workloads")
    model, rows = lattice.standard_model(), fixtures.load_table()
    out = {}
    for name, command in (("classify", "report"), ("genus", "info")):
        wl = workloads.make(name, model, rows)
        (workdir / name).mkdir(parents=True)
        for batch in wl.generate(seed, workdir / name):
            for item in batch:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert cli.main([command, str(item.path), "--format", "json"]) == 0
                out["%s %s" % (name, item.path.name)] = \
                    hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def test_benchmark_inputs_match_digests(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "oracles", _perfbench_module("oracles"))
    for seed, path in DIGESTS.items():
        got = benchmark_digests(tmp_path / str(seed), seed)
        want = dict(line.rsplit(" ", 1) for line in path.read_text().splitlines())
        assert len(want) == 124 and sorted(got) == sorted(want)
        assert [key for key in want if got[key] != want[key]] == []

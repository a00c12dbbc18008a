"""Byte-for-byte regression of `latsym report --format json` on the golden
corpus in tests/data/golden, and of the discriminant-group commands on the
outputs in tests/data/golden/commands (see the README there)."""

from pathlib import Path

import pytest

from latsym import cli

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

"""Byte-for-byte regression of `latsym report --format json` on the golden
corpus in tests/data/golden (see the README there)."""

from pathlib import Path

import pytest

from latsym import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def test_corpus_is_complete():
    assert len(CASES) >= 20
    assert all((GOLDEN / (name + ".report")).is_file() for name in CASES)


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(capsys, name):
    rc = cli.main(["report", str(GOLDEN / (name + ".json")), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode() == (GOLDEN / (name + ".report")).read_bytes()

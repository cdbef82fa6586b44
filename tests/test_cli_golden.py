"""Replay the recorded CLI calls in tests/data/cli_golden.json byte for byte.

The file is written by tests/make_cli_golden.py; a difference here means a
change of printed output or exit code.
"""

import json

import pytest
from make_cli_golden import GOLDEN, commands, run

from suturekup.cli import SEED_ENV

RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_matches_golden(monkeypatch, record):
    monkeypatch.delenv(SEED_ENV, raising=False)
    assert run(record["argv"]) == (record["exit_code"], record["stdout"])


def test_golden_prints_non_integral_coefficients():
    printed = "".join(r["stdout"] for r in RECORDS)
    assert "(-2420331595/1017546201 - 2520344437/1017546201*x)" in printed


def test_golden_file_matches_its_generator():
    assert [r["argv"] for r in RECORDS] == commands()

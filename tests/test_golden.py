"""CLI output stays fixed: each command writes the bytes recorded in tests/golden/.

The sweep frontier CSV is left out on purpose: its closed-form estimate
columns may move in the last digit when the locus algebra changes.
Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from feederlimits import bundled_feeder_path
from feederlimits.cli import main

GOLDEN = Path(__file__).parent / "golden"
FEEDER = str(bundled_feeder_path())
BUSES = [str(k) for k in range(2, 13)]  # every non-source bus of feeder12
INLINE = ["--v0", "1", "--r", "0.70711", "--x", "0.70711"]

CASES = {
    **{
        f"limits-feeder12-bus{bus}.{fmt}": ["limits", "--feeder", FEEDER, "--bus", bus,
                                            "--format", fmt]
        for bus in BUSES
        for fmt in ("json", "csv")
    },
    "limits-inline-thermal.json": ["limits", *INLINE, "--i-plus", "0.5"],
    "limits-inline-unbounded.json": ["limits", *INLINE, "--i-plus", "inf"],
    "limits-inline-ampacity100.json": ["limits", *INLINE, "--i-plus", "100"],
    **{
        f"equivalent-feeder12-bus{bus}.json": ["equivalent", "--feeder", FEEDER, "--bus", bus]
        for bus in BUSES
    },
    "curves-default.csv": ["curves"],
    "curves-default.json": ["curves", "--format", "json"],
    "sweep-feeder12-bus12-coarse.json": [
        "sweep", "--feeder", FEEDER, "--bus", "12",
        "--p-min", "0", "--p-max", "3", "--p-step", "0.1",
        "--q-min", "-3", "--q-max", "1", "--q-step", "0.1",
    ],
}


def _write(name: str, directory: Path) -> Path:
    path = directory / name
    assert main(CASES[name] + ["--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert _write(name, tmp_path).read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        _write(case, GOLDEN)
    # the sweep's frontier file is not part of the record
    for frontier in GOLDEN.glob("*.frontier.csv"):
        frontier.unlink()
    sys.exit(0)

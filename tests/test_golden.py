"""CLI output stays fixed: each command writes the bytes recorded in tests/golden/.

Of a sweep's frontier CSV only the measured columns are recorded: its
closed-form estimate columns may move in the last digit when the locus
algebra changes.  Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
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
    # limits-inline-thermal.json with V0, V+ and I+ scaled by 1e100
    "limits-extreme-voltage.json": ["limits", "--v0", "1e100", "--v-plus", "1.06e100",
                                    "--r", "0.70711", "--x", "0.70711", "--i-plus", "5e99"],
    **{
        f"equivalent-feeder12-bus{bus}.json": ["equivalent", "--feeder", FEEDER, "--bus", bus]
        for bus in BUSES
    },
    "curves-default.csv": ["curves"],
    "curves-default.json": ["curves", "--format", "json"],
    # c of the locus cut, about V⁴, would leave the float range here
    "curves-extreme-voltage.csv": ["curves", "--v0", "1e150", "--v-plus", "1.06e150",
                                   "--lambda-points", "5"],
    "sweep-feeder12-bus12-coarse.json": [
        "sweep", "--feeder", FEEDER, "--bus", "12",
        "--p-min", "0", "--p-max", "3", "--p-step", "0.1",
        "--q-min", "-3", "--q-max", "1", "--q-step", "0.1",
    ],
    # no --i-plus, so the thermal cells of the summary are empty
    "sweep-inline-csv.csv": [
        "sweep", *INLINE,
        "--p-min", "0", "--p-max", "1", "--p-step", "0.1",
        "--q-min", "-1", "--q-max", "0.5", "--q-step", "0.1", "--format", "csv",
    ],
}

# measured frontier columns of a sweep, from the CLI's <name>.frontier.csv
MEASURED = ("p_gen", "p0_sub", "max_current", "q_gen", "vg")
FRONTIERS = {
    "frontier-feeder12-bus12-coarse.csv": CASES["sweep-feeder12-bus12-coarse.json"],
    # the criterion-4 window on a coarser step
    "frontier-inline-criterion4.csv": [
        "sweep", *INLINE, "--i-plus", "0.9",
        "--p-min", "0", "--p-max", "4", "--p-step", "0.1",
        "--q-min", "-4", "--q-max", "4", "--q-step", "0.1",
    ],
}


def _write(name: str, directory: Path) -> Path:
    path = directory / name
    assert main(CASES[name] + ["--out", str(path)]) == 0
    return path


def _write_frontier(name: str, directory: Path) -> Path:
    summary = directory / "frontier-summary.json"
    assert main(FRONTIERS[name] + ["--out", str(summary)]) == 0
    frontier = directory / "frontier-summary.frontier.csv"
    rows = [line.split(",") for line in frontier.read_text(encoding="ascii").splitlines()]
    keep = [rows[0].index(column) for column in MEASURED]
    path = directory / name
    path.write_text("".join(",".join(row[k] for k in keep) + "\n" for row in rows),
                    encoding="ascii", newline="")
    summary.unlink()
    frontier.unlink()
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert _write(name, tmp_path).read_bytes() == (GOLDEN / name).read_bytes()


def _mantissas(doc):
    """Every value of a JSON document, with each number as its 12-digit mantissa."""
    if isinstance(doc, dict):
        return {key: _mantissas(value) for key, value in doc.items()}
    if isinstance(doc, float):
        return f"{doc:.11e}".partition("e")[0]
    return doc


def test_extreme_voltage_golden_is_the_unit_golden_scaled():
    # a scale defect baked into a regenerated golden would show here
    extreme, unit = (json.loads((GOLDEN / name).read_text(encoding="ascii"))
                     for name in ("limits-extreme-voltage.json", "limits-inline-thermal.json"))
    assert _mantissas(extreme) == _mantissas(unit)


@pytest.mark.parametrize("name", sorted(FRONTIERS))
def test_measured_frontier_matches_golden(name, tmp_path):
    assert _write_frontier(name, tmp_path).read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        _write(case, GOLDEN)
    for case in sorted(FRONTIERS):
        _write_frontier(case, GOLDEN)
    # the sweep's frontier file is not part of the record
    for frontier in GOLDEN.glob("*.frontier.csv"):
        frontier.unlink()
    sys.exit(0)

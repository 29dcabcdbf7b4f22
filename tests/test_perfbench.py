"""The benchmark's own checks pass, and they stay independent of the package
they check: its exact results come from perfbench/reference.py alone."""

import ast
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def imported_packages(path):
    """Top-level names of every package that the file at ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_selftest_passes_without_the_package():
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/selftest.py"],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
    for script in ("reference.py", "workloads.py", "selftest.py"):
        assert "feederlimits" not in imported_packages(PERFBENCH / script), script

"""Recorded CLI output: exit code, stdout, stderr and the --out CSV.

Each instance below runs every case in CASES from a scratch directory, and
the result must equal tests/golden/<instance>.json byte for byte. After a
change that is meant to alter output, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from capauction import (
    MarginalVector,
    MarketInstance,
    demand_reduction,
    first_best,
    generate,
    logscale,
    quadratic,
    save_instance,
)
from capauction.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

mv = MarginalVector.of

JOINT = MarketInstance(
    firms=(),
    cost=quadratic(F(1, 2)),
    label="joint-3",
    joint=(
        (F(1, 2), (mv(9, 5, 2), mv(6, 1))),
        (F(1, 3), (mv(4), mv(8, 7, 3))),
        (F(1, 6), (mv(3, 3), mv(0))),
    ),
)

INSTANCES = {
    "demand-reduction": demand_reduction(),
    "logscale-4": logscale(4),
    "first-best-3": first_best(3),
    "random-0": generate(0),
    "random-1-marginals": generate(1, cost_kind="marginals"),
    "joint-3": JOINT,
}

CASES = {
    "optimize": ["optimize"],
    "optimize-no-ceiling": ["optimize", "--no-ceiling"],
    "optimize-safe-only": ["optimize", "--safe-only"],
    "evaluate": ["evaluate", "--cap", "2", "--floor", "1"],
    **{
        f"verify-{which}": ["verify", "--which", which]
        for which in ("all", "priceceil", "optcond", "unsafe", "decomp", "thmq", "main")
    },
}


def run_case(directory: Path, instance: MarketInstance, case: str) -> dict:
    """Run one case in `directory` with relative paths, so no path varies."""
    command, *options = CASES[case]
    previous = Path.cwd()
    os.chdir(directory)
    try:
        Path("report.csv").unlink(missing_ok=True)
        save_instance(instance, "instance.json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, "instance.json", *options, "--out", "report.csv"])
        csv_path = Path("report.csv")
        csv_text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else None
    finally:
        os.chdir(previous)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "csv": csv_text}


def recorded(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cli_output_matches_recording(tmp_path, name):
    golden = recorded(name)
    assert sorted(golden) == sorted(CASES)
    for case in CASES:
        assert run_case(tmp_path, INSTANCES[name], case) == golden[case], case


def test_joint_instance_has_no_single_buyer_cover():
    result = recorded("joint-3")["verify-all"]
    assert result["rc"] == 1 and result["stdout"] == "" and result["csv"] is None
    assert "single-buyer cover needs independent firms" in result["stderr"]


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, instance in INSTANCES.items():
            results = {case: run_case(Path(scratch), instance, case) for case in CASES}
            text = json.dumps(results, indent=1, sort_keys=True) + "\n"
            (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
            print(f"recorded {name}", file=sys.stderr)

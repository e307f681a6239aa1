"""Recorded CLI output: exit code, stdout, stderr and the --out CSV.

Each instance below runs every case in CASES from a scratch directory, and
the result must equal tests/golden/<instance>.json byte for byte. The
`equilibrium` command runs once per entry of EQUILIBRIUM_CASES, each on its
own instance and options, recorded in tests/golden/equilibrium.json. After a
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

# Small enough to search in well under a second each; random-1-marginals
# exceeds the default profile limit and joint-3 is not in product form.
EQUILIBRIUM_CASES = {
    "demand-reduction-safe": (demand_reduction(), ["--cap", "2", "--floor", "9"]),
    "demand-reduction-epsilon": (
        demand_reduction(), ["--cap", "2", "--floor", "0", "--epsilon", "1/2"]
    ),
    "demand-reduction-strict-lowest": (
        demand_reduction(),
        ["--cap", "2", "--floor", "0", "--strict-overbidding", "--pricing", "lowest-winning"],
    ),
    "random-5-small-safe": (
        generate(5, firms=2, scenarios_per_firm=2, max_units=2, value_high=8),
        ["--cap", "2", "--floor", "2"],
    ),
    "joint-3": (JOINT, ["--cap", "2", "--floor", "0"]),
    "random-1-marginals": (
        generate(1, cost_kind="marginals"), ["--cap", "2", "--floor", "2"]
    ),
}


def run_case(directory: Path, instance: MarketInstance, argv: list[str]) -> dict:
    """Run one command in `directory` with relative paths, so no path varies."""
    command, *options = argv
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
        assert run_case(tmp_path, INSTANCES[name], CASES[case]) == golden[case], case


@pytest.mark.parametrize("case", sorted(EQUILIBRIUM_CASES))
def test_equilibrium_output_matches_recording(tmp_path, case):
    instance, options = EQUILIBRIUM_CASES[case]
    got = run_case(tmp_path, instance, ["equilibrium", *options])
    assert got == recorded("equilibrium")[case]


def test_recorded_equilibrium_exit_codes():
    golden = recorded("equilibrium")
    assert sorted(golden) == sorted(EQUILIBRIUM_CASES)
    assert {case: result["rc"] for case, result in golden.items()} == {
        **{case: 0 for case in EQUILIBRIUM_CASES},
        "joint-3": 1,
        "random-1-marginals": 2,
    }
    assert "bound holds: True" in golden["demand-reduction-safe"]["stdout"]


def test_joint_instance_has_no_single_buyer_cover():
    result = recorded("joint-3")["verify-all"]
    assert result["rc"] == 1 and result["stdout"] == "" and result["csv"] is None
    assert "single-buyer cover needs independent firms" in result["stderr"]


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        recordings = {
            name: {case: run_case(Path(scratch), instance, argv) for case, argv in CASES.items()}
            for name, instance in INSTANCES.items()
        }
        recordings["equilibrium"] = {
            case: run_case(Path(scratch), instance, ["equilibrium", *options])
            for case, (instance, options) in EQUILIBRIUM_CASES.items()
        }
    for name, results in recordings.items():
        text = json.dumps(results, indent=1, sort_keys=True) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"recorded {name}", file=sys.stderr)

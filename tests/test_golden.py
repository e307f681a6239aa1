"""Recorded CLI output: exit code, stdout, stderr and the --out CSV.

Each instance below runs every case in CASES from a scratch directory, and
the result must equal tests/golden/<instance>.json byte for byte. The
`equilibrium` command runs once per entry of EQUILIBRIUM_CASES, each on its
own instance and options, recorded in tests/golden/equilibrium.json.
COMMAND_CASES (`examples` and `generate` with the instance file each writes)
and LIMIT_CASES (exit 2 over --scenario-limit) are recorded in
tests/golden/commands.json, and SHORT_TABLE_CASES (`verify` and `evaluate`
on a cost table shorter than the demand) in tests/golden/short-cost-table.json.
After a change that is meant to alter output, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import io
import json
import os
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from capauction import (
    FirmDistribution,
    MarginalVector,
    MarketInstance,
    cost_table,
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
    # Demand 1 never reaches the safe price 5 of quadratic(5): the checks
    # print their vacuous, not-applicable and degenerate statuses.
    "no-trade": MarketInstance(
        firms=(FirmDistribution.point_mass(mv(1)),), cost=quadratic(5), label="no-trade"
    ),
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


# Commands that write an instance file, each given `--out instance.json`;
# the short horizon exits 1 and writes nothing.
COMMAND_CASES = {
    "examples-demand-reduction": ["examples", "demand-reduction"],
    "examples-logscale": ["examples", "logscale", "-n", "3"],
    "examples-first-best": ["examples", "first-best", "-n", "2", "--horizon", "10"],
    "examples-first-best-short-horizon": ["examples", "first-best", "-n", "3", "--horizon", "4"],
    "generate-quadratic": ["generate", "--seed", "7"],
    "generate-marginals": [
        "generate", "--seed", "7", "--firms", "3", "--scenarios", "3", "--max-units", "3",
        "--value-range", "2", "9", "--cost-kind", "marginals",
    ],
}

# Resource limits that fail before any work: exit 2, no report.
LIMIT_CASES = {
    "optimize-scenario-limit": (generate(0), ["optimize", "--scenario-limit", "3"]),
    "verify-scenario-limit": (JOINT, ["verify", "--scenario-limit", "2"]),
}

# An "error"-extension cost table of two marginals, while total demand
# reaches 5: each path that reads further names the quantity at which it
# found the table short, and a path that sells and prices at most two
# units succeeds.
SHORT_TABLE = MarketInstance(
    firms=(
        FirmDistribution.point_mass(mv(9, 8, 7)),
        FirmDistribution.of((F(1, 2), mv(6, 5)), (F(1, 2), mv(3))),
    ),
    cost=cost_table(1, 2, extension="error"),
    label="short-cost-table",
)
SHORT_TABLE_CASES = {
    "verify-priceceil-cap-floor": ["verify", "--which", "priceceil", "--cap", "2", "--floor", "5"],
    "verify-all": ["verify", "--which", "all"],
    "verify-decomp-cap-2-floor-5": ["verify", "--which", "decomp", "--cap", "2", "--floor", "5"],
    "verify-decomp-cap-3-floor-0": ["verify", "--which", "decomp", "--cap", "3", "--floor", "0"],
    "verify-main": ["verify", "--which", "main"],
    "evaluate-cap-2-floor-5": ["evaluate", "--cap", "2", "--floor", "5"],
}


def run_in(directory: Path, argv: list[str], written: str) -> dict:
    """Run one command in `directory` with relative paths, so no path varies.
    `written` is the --out file; its text is recorded under its suffix."""
    previous = Path.cwd()
    os.chdir(directory)
    try:
        path = Path(written)
        path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*argv, "--out", written])
        text = path.read_text(encoding="utf-8") if path.exists() else None
    finally:
        os.chdir(previous)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), path.suffix[1:]: text}


def run_case(directory: Path, instance: MarketInstance, argv: list[str]) -> dict:
    """Run one command on `instance`, saved as instance.json, with its CSV report."""
    command, *options = argv
    save_instance(instance, directory / "instance.json")
    return run_in(directory, [command, "instance.json", *options], "report.csv")


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


@pytest.mark.parametrize("case", sorted(COMMAND_CASES))
def test_written_instance_matches_recording(tmp_path, case):
    assert run_in(tmp_path, COMMAND_CASES[case], "instance.json") == recorded("commands")[case]


@pytest.mark.parametrize("case", sorted(LIMIT_CASES))
def test_limit_output_matches_recording(tmp_path, case):
    instance, argv = LIMIT_CASES[case]
    assert run_case(tmp_path, instance, argv) == recorded("commands")[case]


def test_recorded_command_exit_codes():
    golden = recorded("commands")
    assert sorted(golden) == sorted({**COMMAND_CASES, **LIMIT_CASES})
    short = golden.pop("examples-first-best-short-horizon")
    assert short["rc"] == 1 and short["json"] is None
    assert short["stderr"] == "error: horizon 4 cuts into the largest scenario's surplus range\n"
    for case in COMMAND_CASES.keys() & golden.keys():
        assert golden[case]["rc"] == 0 and golden[case]["json"] is not None, case
    for case in LIMIT_CASES:
        assert golden[case]["rc"] == 2 and golden[case]["csv"] is None, case
        assert golden[case]["stdout"] == "", case
        assert golden[case]["stderr"].startswith("resource limit: "), case


@pytest.mark.parametrize("case", sorted(SHORT_TABLE_CASES))
def test_short_cost_table_output_matches_recording(tmp_path, case):
    got = run_case(tmp_path, SHORT_TABLE, SHORT_TABLE_CASES[case])
    assert got == recorded("short-cost-table")[case]


def test_recorded_short_cost_table_errors():
    golden = recorded("short-cost-table")
    assert sorted(golden) == sorted(SHORT_TABLE_CASES)
    # These sell at most two units and price no third, so the table suffices.
    whole = {"verify-decomp-cap-2-floor-5", "evaluate-cap-2-floor-5"}
    for case, result in golden.items():
        if case in whole:
            assert result["rc"] == 0 and result["stderr"] == "" and result["csv"], case
            continue
        assert result["rc"] == 1 and result["stdout"] == "" and result["csv"] is None, case
        assert "beyond cost table of length 2" in result["stderr"], case


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_certificate_verdicts_follow_their_sides(tmp_path, name):
    """Each certificate's verdict is n/a or recomputable from its sides."""
    instance = INSTANCES[name]
    # `main`, and so `all`, needs product form; joint-3 runs the other checks.
    checks = ["all"]
    if not instance.product_form:
        checks = ["priceceil", "optcond", "unsafe", "decomp", "thmq"]
    for which in checks:
        got = run_case(tmp_path, instance, ["verify", "--which", which])
        assert got["rc"] == 0, which
        for cert in csv.DictReader(io.StringIO(got["csv"])):
            if cert["holds"] != "n/a":
                assert (cert["holds"] == "pass") == (F(cert["lhs"]) >= F(cert["rhs"])), cert


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
        recordings["commands"] = {
            **{
                case: run_in(Path(scratch), argv, "instance.json")
                for case, argv in COMMAND_CASES.items()
            },
            **{
                case: run_case(Path(scratch), instance, argv)
                for case, (instance, argv) in LIMIT_CASES.items()
            },
        }
        recordings["short-cost-table"] = {
            case: run_case(Path(scratch), SHORT_TABLE, argv)
            for case, argv in SHORT_TABLE_CASES.items()
        }
    for name, results in recordings.items():
        text = json.dumps(results, indent=1, sort_keys=True) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"recorded {name}", file=sys.stderr)

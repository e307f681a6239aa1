"""Recorded CLI output: exit code, stdout, stderr and the --out CSV.

Each instance below runs every case in CASES from a scratch directory, and
the result must equal tests/golden/<instance>.json byte for byte. The
`equilibrium` command runs once per entry of EQUILIBRIUM_CASES, each on its
own instance and options, recorded in tests/golden/equilibrium.json.
COMMAND_CASES (`examples` and `generate` with the instance file each writes)
and LIMIT_CASES (exit 2 over --scenario-limit) are recorded in
tests/golden/commands.json, and SHORT_TABLE_CASES (`verify`, `evaluate` and
`equilibrium` on a cost table shorter than the demand) in
tests/golden/short-cost-table.json. PARSER_CASES (help, usage and argument
errors, which the parser prints before any subcommand runs) are recorded in
tests/golden/parser-py<major>.<minor>.json, since argparse's wording and
layout vary with the Python version; each was recorded with the patch
release that CI pins for its version (3.10.13, 3.11.7, 3.12.1, 3.13.0). PROCESS_CASES replay some of these
recordings in `python -m capauction.cli` processes.
After a change that is meant to alter output, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from capauction import cli
from capauction.cli import main
from capauction.instances import demand_reduction, first_best, generate, logscale
from capauction.io import save_instance
from capauction.model import MarketInstance
from oracles import cost_table, firm_distribution, mv, point_mass, quadratic

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = str(Path(cli.__file__).resolve().parent.parent)

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
        firms=(point_mass(mv(1)),), cost=quadratic(5), label="no-trade"
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
    # A true marginal equals the safe price 6 at cap 3: the worst
    # equilibrium has welfare 0 and the PoA check prints a failing verdict.
    "random-20-small-safe-tie": (
        generate(20, firms=2, scenarios_per_firm=2, max_units=2, value_high=8),
        ["--cap", "3", "--floor", "6"],
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
# reaches 5: each path that reads further tabulates the cost before it
# prints anything and names quantity 3, the first the table lacks, and a
# path that sells and prices at most two units succeeds.
SHORT_TABLE = MarketInstance(
    firms=(
        point_mass(mv(9, 8, 7)),
        firm_distribution((F(1, 2), mv(6, 5)), (F(1, 2), mv(3))),
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
    # Sells five units in one scenario.
    "evaluate-cap-5-floor-0": ["evaluate", "--cap", "5", "--floor", "0"],
    # No bid reaches the floor, but a search may sell up to the cap: the
    # table fails before any profile is searched or printed.
    "equilibrium-cap-3-floor-100": ["equilibrium", "--cap", "3", "--floor", "100"],
}


# What the parser prints and exits with before any handler runs; --help
# text wraps at the terminal width, so these run with COLUMNS fixed.
PARSER_CASES = {
    "help": ["--help"],
    **{
        f"{command}-help": [command, "--help"]
        for command in ("evaluate", "optimize", "equilibrium", "verify", "examples", "generate")
    },
    "unknown-command": ["bogus", "x.json"],
    "equilibrium-missing-floor": ["equilibrium", "x.json", "--cap", "2"],
    "equilibrium-bad-pricing": [
        "equilibrium", "x.json", "--cap", "2", "--floor", "1", "--pricing", "cheapest",
    ],
    # These print the top-level usage, or a subcommand's, with an error.
    "no-arguments": [],
    "equilibrium-unrecognized-argument": [
        "equilibrium", "x.json", "--cap", "2", "--floor", "1", "extra",
    ],
    "unknown-option-before-command": [
        "--bogus", "equilibrium", "x.json", "--cap", "2", "--floor", "1",
    ],
    "verify-missing-instance": ["verify"],
    "examples-bad-name": ["examples", "bogus", "--out", "x.json"],
}
PARSER_COLUMNS = "80"
PARSER_GOLDEN = f"parser-py{sys.version_info[0]}.{sys.version_info[1]}"


def in_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `main(argv)`; the parser's own exits
    (help, usage errors) raise SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as stop:
            rc = stop.code
    return rc, out.getvalue(), err.getvalue()


def in_a_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a `python -m capauction.cli` process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "capauction.cli", *argv],
                          env=env, capture_output=True)
    return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")


def run_parser(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of a command the parser ends."""
    return dict(zip(("rc", "stdout", "stderr"), in_process(argv)))


def run_in(directory: Path, argv: list[str], written: str, run=in_process) -> dict:
    """Run one command in `directory` with relative paths, so no path varies.
    `written` is the --out file; its text is recorded under its suffix."""
    previous = Path.cwd()
    os.chdir(directory)
    try:
        path = Path(written)
        path.unlink(missing_ok=True)
        rc, out, err = run([*argv, "--out", written])
        text = path.read_text(encoding="utf-8") if path.exists() else None
    finally:
        os.chdir(previous)
    return {"rc": rc, "stdout": out, "stderr": err, path.suffix[1:]: text}


def run_case(directory: Path, instance: MarketInstance, argv: list[str], run=in_process) -> dict:
    """Run one command on `instance`, saved as instance.json, with its CSV report."""
    command, *options = argv
    save_instance(instance, directory / "instance.json")
    return run_in(directory, [command, "instance.json", *options], "report.csv", run)


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
    assert "bound holds: False (checked)" in golden["random-20-small-safe-tie"]["stdout"]


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
        assert "quantity 3 beyond cost table of length 2" in result["stderr"], case


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_certificate_verdicts_follow_their_sides(tmp_path, name):
    """Each certificate's verdict is n/a or recomputable from its sides."""
    instance = INSTANCES[name]
    # `main`, and so `all`, needs product form; joint-3 runs the other checks.
    checks = ["all"]
    if instance.joint is not None:
        checks = ["priceceil", "optcond", "unsafe", "decomp", "thmq"]
    for which in checks:
        got = run_case(tmp_path, instance, ["verify", "--which", which])
        assert got["rc"] == 0, which
        for cert in csv.DictReader(io.StringIO(got["csv"])):
            if cert["holds"] != "n/a":
                assert (cert["holds"] == "pass") == (F(cert["lhs"]) >= F(cert["rhs"])), cert


# Recorded cases replayed in a `python -m capauction.cli` process, whose
# `__main__` block must print, write and exit as `main` does: one exit-0
# case with --out per subcommand, then one exit 1 and one exit 2.
PROCESS_CASES = {
    "evaluate": ("random-0", "evaluate"),
    "optimize": ("random-0", "optimize"),
    "equilibrium": ("equilibrium", "random-5-small-safe"),
    "verify": ("demand-reduction", "verify-all"),
    "examples": ("commands", "examples-logscale"),
    "generate": ("commands", "generate-quadratic"),
    "exit-1": ("joint-3", "verify-all"),
    "exit-2": ("commands", "optimize-scenario-limit"),
}


def replay(directory: Path, name: str, run) -> tuple[dict, dict]:
    """The recording of PROCESS_CASES[name] and what `run` gives for it."""
    golden, case = PROCESS_CASES[name]
    if golden == "equilibrium":
        instance, options = EQUILIBRIUM_CASES[case]
        got = run_case(directory, instance, ["equilibrium", *options], run)
    elif case in COMMAND_CASES:
        got = run_in(directory, COMMAND_CASES[case], "instance.json", run)
    elif case in LIMIT_CASES:
        got = run_case(directory, *LIMIT_CASES[case], run)
    else:
        got = run_case(directory, INSTANCES[golden], CASES[case], run)
    return recorded(golden)[case], got


@pytest.mark.parametrize("name", sorted(PROCESS_CASES))
def test_cli_process_output_matches_recording(tmp_path, name):
    expected, got = replay(tmp_path, name, in_a_process)
    assert got == expected
    assert expected["rc"] == {"exit-1": 1, "exit-2": 2}.get(name, 0)


# For each subcommand, an input larger than its PROCESS_CASES recording's;
# `examples` and `generate` read none.
LARGER_CASES = {
    "evaluate": (
        generate(7, firms=3, scenarios_per_firm=4, max_units=4),
        ["evaluate", "--cap", "3", "--floor", "1"],
    ),
    "optimize": (generate(7, firms=3, scenarios_per_firm=4, max_units=4), ["optimize"]),
    # The 853,875-profile search of the CI smoke step.
    "equilibrium": (
        logscale(3), ["equilibrium", "--cap", "1", "--floor", "1", "--profile-limit", "1000000"]
    ),
    "verify": (logscale(6), ["verify", "--which", "all"]),
    "examples": (None, ["examples", "logscale", "-n", "7"]),
    "generate": (
        None, ["generate", "--seed", "7", "--firms", "4", "--scenarios", "4", "--max-units", "6"]
    ),
}


def left_for_the_collector(call, *args):
    """What `call(*args)` returns, run with the cyclic collector off, and
    how many objects a full collection then frees: what the call left in
    reference cycles."""
    gc.collect()
    gc.disable()
    try:
        got = call(*args)
        return got, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("command", sorted(LARGER_CASES))
def test_a_command_leaves_cyclic_garbage_of_a_fixed_size(tmp_path, command):
    """A CLI process runs `main` with the collector off, so what a command
    leaves in reference cycles lives until the process exits. That must not
    grow with the input: it is the parser, and where an instance file is
    written, the closures of the JSON encoder."""
    instance, argv = LARGER_CASES[command]
    # `main` drops the parser it builds for the command when it returns.
    fixed = left_for_the_collector(lambda: cli.build_parser(argv) and None)[1]
    if command in ("examples", "generate"):
        fixed += left_for_the_collector(save_instance, logscale(2), tmp_path / "x.json")[1]
    left = []

    def run(argv):
        got, garbage = left_for_the_collector(in_process, argv)
        left.append(garbage)
        return got

    expected, got = replay(tmp_path, command, run)
    assert got == expected
    if instance is None:
        got = run_in(tmp_path, argv, "instance.json", run)
    else:
        got = run_case(tmp_path, instance, argv, run)
    assert got["rc"] == 0, got["stderr"]
    assert left[0] == left[1] <= fixed


@pytest.fixture
def parser_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", PARSER_COLUMNS)


@pytest.mark.parametrize("case", sorted(PARSER_CASES))
def test_parser_output_matches_recording(parser_columns, case):
    if not (GOLDEN / f"{PARSER_GOLDEN}.json").exists():
        pytest.skip(f"no {PARSER_GOLDEN} recording; run this file to record one")
    assert run_parser(PARSER_CASES[case]) == recorded(PARSER_GOLDEN)[case]


# One recording per Python version that CI runs.
@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_recorded_parser_exit_codes(version):
    golden = recorded(f"parser-py{version}")
    assert sorted(golden) == sorted(PARSER_CASES)
    for case, result in golden.items():
        if case.endswith("help"):
            assert result["rc"] == 0 and result["stderr"] == "", case
            assert result["stdout"].startswith("usage: capauction "), case
        else:
            assert result["rc"] == 2 and result["stdout"] == "", case
            assert "capauction" in result["stderr"] and ": error: " in result["stderr"], case
    assert "invalid choice: 'bogus'" in golden["unknown-command"]["stderr"]
    # The top-level usage, which lists every subcommand.
    assert golden["no-arguments"]["stderr"].startswith(golden["help"]["stdout"].split("\n\n")[0])


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
    os.environ["COLUMNS"] = PARSER_COLUMNS
    recordings[PARSER_GOLDEN] = {case: run_parser(argv) for case, argv in PARSER_CASES.items()}
    for name, results in recordings.items():
        text = json.dumps(results, indent=1, sort_keys=True) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"recorded {name}", file=sys.stderr)

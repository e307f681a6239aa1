"""Exit codes and printed results of the command-line surface."""

import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from capauction import analysis, auction, bounds, cli, equilibrium, instances
from capauction.auction import (
    CAP_LIMIT, FLOOR_BINDS, HIGHEST_LOSING, LOWEST_WINNING, Analysis, price_candidates
)
from capauction.cli import main
from capauction.instances import demand_reduction, first_best, generate, logscale
from capauction.io import display, save_instance
from capauction.model import TooLargeError, validate

from oracles import enumerate_scenarios, run_auction, valuations_of
from test_analysis import markets
from test_io import BOOLEAN, LABEL, MALFORMED, malformed_file
from test_startup import ENV


def write(tmp_path, obj):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_evaluate_rejects_malformed_instance(tmp_path, capsys, name):
    path = malformed_file(tmp_path, name)
    assert main(["evaluate", path, "--cap", "1", "--floor", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and MALFORMED[name][1] in err


@pytest.mark.parametrize("name, message", [
    *((name, "booleans are not accepted") for name in sorted(BOOLEAN)),
    *((name, "label: expected a JSON string") for name in sorted(LABEL)),
])
def test_evaluate_rejects_misparsable_instance(tmp_path, capsys, name, message):
    path = write(tmp_path, {**BOOLEAN, **LABEL}[name])
    assert main(["evaluate", path, "--cap", "1", "--floor", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_evaluate_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["evaluate", str(path), "--cap", "1", "--floor", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read instance file {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_evaluate_rejects_firms_beside_a_joint_table(tmp_path, capsys):
    path = write(tmp_path, {
        "cost": {"kind": "quadratic", "a": "1"},
        "firms": [{"scenarios": [{"prob": "1", "marginals": ["9", "1"]}]}],
        "joint_scenarios": [{"prob": "1", "marginals": [["2"]]}],
    })
    assert main(["evaluate", path, "--cap", "1", "--floor", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: instance: give either 'firms' or 'joint_scenarios', not both\n"


def test_evaluate_rejects_a_ceiling_an_unbounded_cap_ignores(tmp_path, capsys):
    path = tmp_path / "instance.json"
    save_instance(demand_reduction(), path)
    argv = ["evaluate", str(path), "--cap", "unbounded", "--floor", "0", "--ceiling", "5"]
    assert main([*argv, "--out", str(tmp_path / "report.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: an unbounded cap never reaches a ceiling; it takes no --ceiling\n"
    assert not (tmp_path / "report.csv").exists()
    assert main([*argv[:-1], "inf"]) == 0  # no ceiling is still fine


# An "error"-extension cost table covers quantities 0..2 only, while
# total demand reaches 5.
SHORT_COST_TABLE = {
    "cost": {"kind": "marginals", "values": ["1", "2"], "extension": "error"},
    "firms": [
        {"scenarios": [{"prob": "1", "marginals": ["9", "8", "7"]}]},
        {"scenarios": [{"prob": "1/2", "marginals": ["6", "5"]},
                       {"prob": "1/2", "marginals": ["3"]}]},
    ],
}


def test_short_cost_table_within_cap_limit(tmp_path, capsys):
    path = write(tmp_path, SHORT_COST_TABLE)
    assert main(["optimize", path, "--no-ceiling", "--cap-limit", "1"]) == 0
    assert "expected welfare: 14 (" in capsys.readouterr().out


def test_short_cost_table_with_ceilings_fails(tmp_path, capsys):
    path = write(tmp_path, SHORT_COST_TABLE)
    assert main(["optimize", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: quantity ") and "beyond cost table" in err


@pytest.mark.parametrize("market, floor", [
    # A search may sell up to the cap, 3, which the table does not cover.
    (SHORT_COST_TABLE, "100"),
    # No demand reaches the cap, so only the safe price C(3)/3 reads past
    # the table.
    ({"cost": SHORT_COST_TABLE["cost"],
      "firms": [{"scenarios": [{"prob": "1", "marginals": ["5", "4"]}]}]}, "1"),
], ids=["demand-past-table", "cap-past-table"])
def test_short_cost_table_fails_before_the_equilibrium_search(
    tmp_path, capsys, monkeypatch, market, floor
):
    path = write(tmp_path, market)
    monkeypatch.setattr(equilibrium._GridGame, "candidates", None)  # must not be reached
    assert main(["equilibrium", path, "--cap", "3", "--floor", floor]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: quantity 3 beyond cost table of length 2")


@pytest.fixture
def demand_reduction_file(tmp_path):
    path = tmp_path / "demand-reduction.json"
    save_instance(demand_reduction(), path)
    return str(path)


@pytest.mark.parametrize("argv", [
    ["optimize", "--safe-only", "--cap-limit", "0"],
    ["optimize", "--cap-limit", "-1"],
    ["optimize", "--cap-limit", "0"],
    ["verify", "--which", "thmq", "--cap-limit", "-1"],
    ["verify", "--which", "unsafe", "--cap-limit", "-1"],
    ["verify", "--which", "unsafe", "--cap-limit", "0"],
])
def test_cap_limit_below_one_is_rejected(demand_reduction_file, capsys, argv):
    command, *options = argv
    assert main([command, demand_reduction_file, *options]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cap limit must be at least 1")


def run_bounded(argv: list[str], cwd, memory: int = 3 << 29) -> subprocess.CompletedProcess:
    """A `python -m capauction.cli` process held to `memory` bytes of address
    space (1.5 GB) and 20 s, so that a guard that fails costs a failed test,
    not the machine."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    return subprocess.run([sys.executable, "-m", "capauction.cli", *argv], env=ENV, cwd=cwd,
                          capture_output=True, text=True, timeout=20, preexec_fn=limit_memory)


@pytest.mark.parametrize("argv", [
    ["evaluate", "instance.json", "--cap", "2", "--floor", "1"],
    ["evaluate", "demand-reduction.json", "--cap", "2", "--floor", "1e20000000"],
    ["equilibrium", "demand-reduction.json", "--cap", "2", "--floor", "9",
     "--epsilon", "1e-20000000"],
], ids=["instance-value", "floor", "epsilon"])
def test_exponent_notation_is_one_error_line(tmp_path, argv):
    # `Fraction` would expand each into an integer of thousands or millions
    # of digits: a traceback from the int-to-str limit, or many seconds of work.
    save_instance(demand_reduction(), tmp_path / "demand-reduction.json")
    write(tmp_path, {
        "cost": {"kind": "quadratic", "a": "1"},
        "firms": [{"scenarios": [{"prob": "1", "marginals": ["1e5000"]}]}],
    })
    done = run_bounded(argv, tmp_path)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: not a rational: '1e") and done.stderr.count("\n") == 1
    assert "exponent notation is not accepted" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("argv, refused", [
    (["optimize", "--cap-limit", "3000000"], "cap limit 3000000"),
    (["optimize", "--safe-only", "--cap-limit", "3000000"], "cap limit 3000000"),
    (["verify", "--which", "unsafe", "--cap-limit", "30000000"], "cap limit 30000000"),
    # The safe price would tabulate C(0..cap) first.
    (["equilibrium", "--cap", "3000000", "--floor", "9"], "cap 3000000"),
    (["verify", "--which", "decomp", "--cap", "3000000"], "cap 3000000"),
])
def test_a_cap_limit_past_its_bound_is_refused_before_work(
    demand_reduction_file, tmp_path, argv, refused
):
    command, *options = argv
    done = run_bounded([command, demand_reduction_file, *options], tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"resource limit: {refused} is above the largest allowed, {CAP_LIMIT}\n"


def test_the_largest_cap_limit_sweeps_in_little_memory(demand_reduction_file, tmp_path):
    # The sweep keeps only its running maximum: 1,500,015 candidates in
    # 128 MB of address space, the winner the same as at any smaller limit.
    done = run_bounded(["optimize", demand_reduction_file, "--cap-limit", str(CAP_LIMIT)],
                       tmp_path, memory=128 << 20)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "instance: demand-reduction\n"
        "best cap-and-price auction over 1500015 candidates:\n"
        "  cap: 1\n"
        "  floor: 6 (6.000000000000)\n"
        "  ceiling: 10 (10.000000000000)\n"
        "  expected welfare: 2 (2.000000000000)\n"
    )


@pytest.mark.parametrize("argv, printed", [
    (["optimize", "--safe-only"],
     "best safe-price auction over 5000 candidates:\n"
     "  cap: 4\n"
     "  floor: 4 (4.000000000000)\n"
     "  ceiling: inf\n"
     "  expected welfare: 38669/1932 (20.015010351967)\n"),
    (["verify", "--which", "thmq"],
     "[pass] safe-within-sellout-factor (checked): lhs 6272305145/78224748 (80.183130088192)"
     " vs rhs 9082/441 (20.594104308390),"
     " margin 97888067029/1642719708 (59.589025779802)\n"),
], ids=["optimize", "verify"])
def test_a_safe_sweep_keeps_no_demands_per_cap(tmp_path, capsys, argv, printed):
    # Each of the 5,000 caps has its own safe price; the demands of 1,000
    # scenarios kept per price would not fit in 48 MB of address space.
    path = tmp_path / "random.json"
    save_instance(generate(0, firms=3, scenarios_per_firm=10), path)
    command, *options = argv
    argv = [command, str(path), *options, "--cap-limit", "5000"]
    done = run_bounded(argv, tmp_path, memory=48 << 20)
    assert (done.returncode, done.stderr) == (0, "")
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out == "instance: random-0\n" + printed


def test_verify_unsafe_builds_no_scenario_tables(tmp_path, capsys):
    # The unsafe scan reads only the cost curve: 262,144 scenarios are past
    # the default scenario limit, and their tables would not fit in 48 MB.
    path = tmp_path / "big.json"
    save_instance(generate(3, firms=6, scenarios_per_firm=8), path)
    argv = ["verify", str(path), "--which", "unsafe"]
    done = run_bounded(argv, tmp_path, memory=48 << 20)
    assert (done.returncode, done.stderr) == (0, "")
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
    assert "below-safe-price-welfare-gap (checked)" in done.stdout


def test_the_largest_cap_limit_is_accepted(demand_reduction_file, capsys):
    assert main(["verify", demand_reduction_file, "--which", "unsafe",
                 "--cap-limit", str(CAP_LIMIT)]) == 0
    assert "[pass] below-safe-price-welfare-gap" in capsys.readouterr().out


@pytest.mark.parametrize("options, message", [
    (["--which", "decomp", "--cap", "unbounded"], "needs a bounded cap"),
    (["--which", "priceceil", "--ceiling", "0"], "price ceiling 0 must exceed floor 0"),
    (["--which", "optcond", "--cap="], "cap must be an integer or 'unbounded', got ''"),
    *(
        (["--which", which, "--floor", "-1"], "price floor must be non-negative, got -1")
        for which in ("decomp", "optcond")
    ),
    (["--which", "decomp", "--cap", "2", "--floor", "-1"],
     "price floor must be non-negative, got -1"),
    (["--which", "decomp", "--cap", "0"], "safe price needs cap >= 1, got 0"),
    (["--which", "optcond", "--cap", "0"], "cap must be at least 1, got 0"),
    (["--which", "optcond", "--cap", "unbounded"],
     "conditional check needs a bounded cap and no ceiling"),
    *(
        (["--which", which, "--ceiling", "1/2"], f"--which {which} checks no ceiling")
        for which in ("optcond", "unsafe", "decomp", "thmq", "main")
    ),
    *(
        (["--which", "unsafe", flag, "1"], "--which unsafe checks no cap or floor")
        for flag in ("--cap", "--floor")
    ),
])
def test_verify_rejects_unusable_parameters(demand_reduction_file, capsys, options, message):
    assert main(["verify", demand_reduction_file, *options]) == 1
    assert message in capsys.readouterr().err


def test_verify_strict_exits_1_on_a_failed_certificate(demand_reduction_file, capsys):
    argv = ["verify", demand_reduction_file, "--which", "optcond", "--cap", "3", "--floor", "0"]
    assert main(argv) == 0
    assert "[FAIL] sell-out-conditional-nonnegative (checked)" in capsys.readouterr().out
    assert main([*argv, "--strict"]) == 1
    assert "[FAIL] sell-out-conditional-nonnegative (checked)" in capsys.readouterr().out


def test_examples_rejects_horizon_except_for_first_best(tmp_path, capsys):
    out = tmp_path / "logscale-3.json"
    assert main(["examples", "logscale", "-n", "3", "--horizon", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: logscale takes no horizon; only first-best does\n"
    assert not out.exists()


@pytest.mark.parametrize("options, code, message", [
    ([], 2, "resource limit: first-best-10000000000 would hold more than 1000000 marginal values"),
    (["--horizon", "5"], 1, "error: horizon 5 cuts into the largest scenario's surplus range"),
], ids=["default", "given"])
def test_a_horizon_is_checked_without_building_2_to_the_n(tmp_path, options, code, message):
    # 2^(n+1), the default horizon and the least one allowed, would be an
    # integer of 10^10 bits.
    done = run_bounded(["examples", "first-best", "-n", "10000000000", *options,
                        "--out", "x.json"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (code, "", message + "\n")
    assert not (tmp_path / "x.json").exists()


def test_instances_past_the_marginal_limit_are_refused_before_they_are_built():
    # logscale(21) would hold 4,194,302 marginal values, logscale(19)
    # 1,048,574 and first_best(16) 2,097,152; the sizes below them fit.
    limit = instances.MARGINAL_LIMIT
    for build in (lambda: logscale(21), lambda: logscale(19), lambda: first_best(16)):
        with pytest.raises(TooLargeError, match=f"would hold more than {limit} marginal values"):
            build()
    for instance in (logscale(18), first_best(15)):
        assert sum(map(len, valuations_of(instance))) <= limit


@pytest.mark.parametrize("argv", [
    ["examples", "logscale", "-n", "3"],  # 14 marginal values
    ["examples", "first-best", "-n", "2"],  # 16
    ["examples", "first-best", "-n", "1", "--horizon", "11"],  # 11
    ["generate", "--seed", "0", "--firms", "2", "--scenarios", "2", "--max-units", "3"],  # 12
    ["generate", "--seed", "0", "--firms", "1", "--scenarios", "11", "--max-units", "1"],
])
def test_examples_and_generate_past_the_marginal_limit_exit_2(tmp_path, capsys, monkeypatch,
                                                              argv):
    # With a limit of 10 marginal values: exit 2 and no file; at the limit,
    # the file is written.
    monkeypatch.setattr(instances, "MARGINAL_LIMIT", 10)
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("resource limit: ")
    assert got.err.endswith(" would hold more than 10 marginal values\n")
    assert not out.exists()
    monkeypatch.setattr(instances, "MARGINAL_LIMIT", 16)
    assert main([*argv, "--out", str(out)]) == 0 and out.exists()


def test_examples_rejects_n_for_demand_reduction(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["examples", "demand-reduction", "-n", "3", "--out", "dr3.json"]) == 1
    assert capsys.readouterr().err == (
        "error: demand-reduction takes no -n; only logscale and first-best do\n"
    )
    assert not (tmp_path / "dr3.json").exists()
    assert main(["examples", "logscale", "--out", "logscale.json"]) == 0
    assert capsys.readouterr().out == "wrote logscale-5 to logscale.json\n"


def test_verify_ceiling_none_means_no_ceiling(tmp_path, capsys, monkeypatch):
    save_instance(logscale(3), tmp_path / "logscale-3.json")
    monkeypatch.chdir(tmp_path)
    printed = {}
    for ceiling in ("inf", "none"):
        argv = ["verify", "logscale-3.json", "--which", "priceceil", "--ceiling", ceiling]
        assert main([*argv, "--out", f"{ceiling}.csv"]) == 0
        out = capsys.readouterr().out
        printed[ceiling] = out.replace(f"{ceiling}.csv", ""), (tmp_path / f"{ceiling}.csv").read_text()
    assert printed["none"] == printed["inf"]


def test_verify_unsafe_needs_no_optimum(demand_reduction_file, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "optimize_cap_and_price", None)  # must not be reached
    assert main(["verify", demand_reduction_file, "--which", "unsafe"]) == 0
    assert "below-safe-price-welfare-gap (checked)" in capsys.readouterr().out


def test_equilibrium_honours_scenario_limit(tmp_path, capsys, monkeypatch):
    path = tmp_path / "instance.json"
    save_instance(generate(0), path)  # 2 firms x 2 scenarios
    monkeypatch.setattr(equilibrium, "find_grid_equilibria", None)  # must not be reached
    argv = ["equilibrium", str(path), "--cap", "2", "--floor", "4", "--scenario-limit", "1"]
    assert main(argv) == 2
    assert "scenario product has 4 rows, limit 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["evaluate", "--cap", "2", "--floor", "1", "--scenario-limit", "-1"],
     "scenario limit must be at least 1, got -1"),
    (["verify", "--scenario-limit", "0"], "scenario limit must be at least 1, got 0"),
    (["verify", "--which", "unsafe", "--scenario-limit", "0"],
     "scenario limit must be at least 1, got 0"),
    (["equilibrium", "--cap", "2", "--floor", "4", "--scenario-limit", "0"],
     "scenario limit must be at least 1, got 0"),
    (["equilibrium", "--cap", "2", "--floor", "4", "--profile-limit", "0"],
     "profile limit must be at least 1, got 0"),
])
def test_limit_below_one_is_malformed(tmp_path, capsys, argv, message):
    path = tmp_path / "instance.json"
    save_instance(generate(0), path)
    assert main([argv[0], str(path), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_equilibrium_rejects_an_unbounded_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "instance.json"
    save_instance(generate(0), path)
    monkeypatch.setattr(equilibrium, "find_grid_equilibria", None)  # must not be reached
    assert main(["equilibrium", str(path), "--cap", "unbounded", "--floor", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: equilibrium search needs a bounded cap\n"


@pytest.mark.parametrize("options, message", [
    (["--profile-limit", "0"], "profile limit must be at least 1, got 0"),
    (["--epsilon", "-1"], "epsilon must be non-negative, got -1"),
    (["--epsilon", "abc"], "not a rational: 'abc' (Invalid literal for Fraction: 'abc')"),
])
def test_equilibrium_reports_malformed_arguments_before_the_scenario_limit(
    tmp_path, capsys, options, message
):
    path = tmp_path / "instance.json"
    save_instance(generate(0), path)  # 2 firms x 2 scenarios
    argv = ["equilibrium", str(path), "--cap", "2", "--floor", "2", "--scenario-limit", "1"]
    assert main([*argv, *options]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_evaluate_reads_sell_out_from_its_outcomes(tmp_path, capsys):
    cases = [
        (seed, cap, floor, ceiling, pricing)
        for seed in range(3)
        for cap in ("1", "2", "3")
        for floor, ceiling in (("0", "inf"), ("3", "inf"), ("6", "inf"), ("0", "4"), ("3", "8"))
        for pricing in ("lowest-winning", "highest-losing")
    ]
    expected = {}
    for seed, cap, floor, ceiling, pricing in cases:
        expected[seed, cap, floor, ceiling, pricing] = display(
            Analysis(generate(seed)).sell_out_probability(int(cap), F(floor))
        )

    for (seed, cap, floor, ceiling, pricing), want in expected.items():
        path = tmp_path / f"random-{seed}.json"
        save_instance(generate(seed), path)
        argv = ["evaluate", str(path), "--cap", cap, "--floor", floor, "--ceiling", ceiling,
                "--pricing", pricing]
        assert main(argv) == 0
        assert f"\nsell-out probability: {want}\n" in capsys.readouterr().out


@given(
    m=markets().filter(lambda m: not validate(m)),  # a file holds no zero-probability type
    cap=st.none() | st.integers(1, 6),
    floor_index=st.integers(0, 30),
    off_grid=st.sampled_from((F(0), F(1, 2))),
    ceiling_gap=st.none() | st.sampled_from((F(1, 2), F(1), F(3))),
    pricing=st.sampled_from((LOWEST_WINNING, HIGHEST_LOSING)),
)
@settings(max_examples=120, deadline=None)
def test_evaluate_matches_the_oracle(m, cap, floor_index, off_grid, ceiling_gap, pricing):
    """Every CSV row and printed expectation of `evaluate`, read from the
    integer tables, equals `run_auction` on the Fraction scenario rows."""
    grid = price_candidates(m)
    floor = grid[floor_index % len(grid)] + off_grid
    ceiling = None if ceiling_gap is None or cap is None else floor + ceiling_gap
    with tempfile.TemporaryDirectory() as scratch:
        path, report = Path(scratch) / "instance.json", Path(scratch) / "report.csv"
        save_instance(m, path)
        argv = ["evaluate", str(path), "--cap", "unbounded" if cap is None else str(cap),
                "--floor", str(floor), "--ceiling", "inf" if ceiling is None else str(ceiling),
                "--pricing", pricing, "--out", str(report)]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(argv) == 0
        rows = list(csv.DictReader(report.open(encoding="utf-8")))
    params = auction.AuctionParams(cap, floor, ceiling, pricing)
    scenarios = enumerate_scenarios(m)
    outcomes = [run_auction(params, row.valuations, m.cost) for row in scenarios]
    assert [
        (F(r["probability"]), r["allocation"], F(r["unit_price"]), r["case"], F(r["welfare"]),
         F(r["revenue"]))
        for r in rows
    ] == [
        (row.probability, "|".join(map(str, o.allocation)), o.unit_price, o.case, o.welfare,
         o.revenue)
        for row, o in zip(scenarios, outcomes)
    ]
    pairs = list(zip(scenarios, outcomes))
    welfare = sum((row.probability * o.welfare for row, o in pairs), F(0))
    revenue = sum((row.probability * o.revenue for row, o in pairs), F(0))
    sold_out = sum((row.probability for row, o in pairs if o.case != FLOOR_BINDS), F(0))
    lines = printed.getvalue().splitlines()
    assert lines[2:4] == [f"expected welfare: {display(welfare)}",
                          f"expected revenue: {display(revenue)}"]
    assert [line for line in lines if line.startswith("sell-out")] == (
        [] if cap is None else [f"sell-out probability: {display(sold_out)}"]
    )


def test_verify_all_enumerates_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "logscale-5.json"
    save_instance(logscale(5), path)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name, kwargs.get("allow_ceiling")] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("optimize_safe", "optimize_cap_and_price"):
        for module in (analysis, auction, bounds, cli, equilibrium):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(["verify", str(path), "--which", "all"]) == 0
    # The no-ceiling and safe-price optima are each searched once and cached.
    assert calls == {
        ("optimize_safe", None): 1,
        ("optimize_cap_and_price", False): 1,
    }


@pytest.fixture
def seed3_file(tmp_path):
    path = tmp_path / "g.json"
    save_instance(generate(3), path)
    return str(path)


def test_verify_optcond_reads_cap_and_floor(seed3_file, capsys):
    assert main(["verify", seed3_file, "--which", "optcond"]) == 0
    at_optimum = capsys.readouterr().out
    assert main(["verify", seed3_file, "--which", "optcond", "--cap", "3"]) == 0
    at_cap_3 = capsys.readouterr().out
    assert "lhs 161/13 " in at_optimum
    assert "lhs 1373/113 " in at_cap_3


@pytest.mark.parametrize("options", [
    ["--which", "thmq", "--cap", "3"],
    ["--which", "main", "--floor", "1"],
])
def test_verify_optimum_certificates_reject_cap_and_floor(seed3_file, capsys, options):
    assert main(["verify", seed3_file, *options]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "certifies the no-ceiling optimum; it takes no --cap or --floor" in err


@pytest.mark.parametrize("options", [
    ["--which", "all", "--cap", "3", "--floor", "1"],
    ["--floor", "1"],  # --which defaults to all
])
def test_verify_all_rejects_cap_and_floor(seed3_file, capsys, options):
    assert main(["verify", seed3_file, *options]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: --which all runs thmq and main, which certify the no-ceiling optimum; "
        "it takes no --cap or --floor\n"
    )
    for which in ("priceceil", "optcond", "decomp"):  # each alone still takes them
        assert main(["verify", seed3_file, "--which", which, "--cap", "3", "--floor", "1"]) == 0


def test_verify_priceceil_keeps_an_explicit_floor(seed3_file, capsys):
    argv = ["verify", seed3_file, "--which", "priceceil", "--ceiling", "1/2"]
    assert main(argv) == 0  # the optimum's floor yields to the ceiling
    assert main([*argv, "--floor", "3"]) == 1
    assert "error: price ceiling 1/2 must exceed floor 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, kind", [
    (["optimize", "INSTANCE"], "report"),
    (["evaluate", "INSTANCE", "--cap", "2", "--floor", "1"], "report"),
    (["verify", "INSTANCE", "--which", "unsafe"], "report"),
    (["equilibrium", "INSTANCE", "--cap", "2", "--floor", "9"], "report"),
    (["generate", "--seed", "5"], "instance"),
    (["examples", "demand-reduction"], "instance"),
])
@pytest.mark.parametrize("target", ["missing/out", "."])
def test_unwritable_out_is_one_error_line(demand_reduction_file, tmp_path, capsys, monkeypatch,
                                          argv, kind, target):
    # A path under a missing directory, and a directory: each exits 1 with
    # one `error:` line, writes nothing and says no report was written.
    monkeypatch.chdir(tmp_path)
    argv = [demand_reduction_file if a == "INSTANCE" else a for a in argv]
    assert main([*argv, "--out", target]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write {kind} file {target}: ") and err.count("\n") == 1
    assert "written" not in out and "wrote" not in out
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("instance, argv", [
    (logscale(3), ["verify", "instance.json", "--which", "all"]),
    (demand_reduction(), ["equilibrium", "instance.json", "--cap", "2", "--floor", "9"]),
    (None, ["--help"]),
    (None, ["equilibrium", "--help"]),
], ids=["verify", "equilibrium", "help", "equilibrium-help"])
def test_a_closed_stdout_ends_a_command_quietly(tmp_path, instance, argv, unbuffered):
    # The reader of stdout is gone before the command starts: the process
    # exits 141, as one that SIGPIPE ends, with nothing on stderr, whether
    # its first failed write is a print (unbuffered) or the flush at its end.
    # The parser prints help itself and, unbuffered, swallows the failed
    # write: that process exits 0, with nothing on stderr either.
    if instance is not None:
        save_instance(instance, tmp_path / "instance.json")
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "capauction.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
        )
    finally:
        os.close(write_end)
    status = 0 if unbuffered and instance is None else 141
    assert (done.returncode, done.stderr) == (status, b"")

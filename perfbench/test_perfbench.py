"""Tests of the benchmark itself, on instances small enough to run in
seconds:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inproc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from capauction.instances import generate  # noqa: E402
from capauction.io import instance_to_obj  # noqa: E402


@pytest.fixture(autouse=True)
def work_dir(monkeypatch):
    monkeypatch.chdir(ROOT)
    shutil.rmtree(ROOT / workloads.WORK_DIR, ignore_errors=True)
    (ROOT / workloads.WORK_DIR).mkdir()
    yield
    shutil.rmtree(ROOT / workloads.WORK_DIR, ignore_errors=True)


def _save(name: str, seed: int, **shape) -> tuple[Path, dict]:
    path = workloads.WORK_DIR / f"{name}-{seed}.json"
    return path, workloads._save(generate(seed, **shape), path)


def _optimize_op() -> workloads.Operation:
    path, obj = _save("optimize", 5, firms=2, scenarios_per_firm=2, max_units=2)
    return workloads.Operation(
        "optimize-ceiling", ["optimize", str(path), "--out", str(workloads.REPORT_CSV)], path,
        csv=workloads.REPORT_CSV, facts={"candidates": workloads.candidate_count(obj, True)})


def _equilibrium_op(*extra: str) -> workloads.Operation:
    for seed in range(100):
        path, obj = _save("equilibrium", seed, **workloads.STRATEGIC_SHAPE)
        floor = workloads.safe_price(obj, workloads.STRATEGIC_CAP)
        profiles = workloads.profile_count(obj, floor)
        if 50 <= profiles <= 300:
            argv = ["equilibrium", str(path), "--cap", str(workloads.STRATEGIC_CAP),
                    "--floor", str(floor), *extra]
            return workloads.Operation("equilibrium", argv, path, facts={"profiles": profiles})
    raise AssertionError("no small strategic instance")


def _judge_cli(op: workloads.Operation, expected: dict) -> run.Judge:
    judge = run.Judge(expected)
    rc, stdout, csv_bytes, _, _ = run.run_cli(op)
    judge(op, op.key(), rc, stdout, csv_bytes)
    return judge


def test_clean_operations_pass_their_checks():
    for op in (_optimize_op(), _equilibrium_op()):
        judge = _judge_cli(op, {})
        assert (judge.attempted, judge.failed) == (1, 0), judge.problems
        assert op.key() in judge.reference


def test_perturbed_expected_digest_counts_as_failed_operation():
    op = _optimize_op()
    recorded = _judge_cli(op, {}).reference[op.key()]
    perturbed = dict(recorded, stdout="0" * 64)
    judge = _judge_cli(op, {op.key(): perturbed})
    assert (judge.attempted, judge.failed) == (1, 1)
    assert "recorded digest" in judge.problems[0]
    assert _judge_cli(op, {op.key(): recorded}).failed == 0


def test_too_small_profile_limit_is_a_failed_operation_not_a_crash():
    op = _equilibrium_op("--profile-limit", "1")
    rc, _, _, _, _ = run.run_cli(op)
    assert rc == 2
    judge = _judge_cli(op, {})
    assert (judge.attempted, judge.failed) == (1, 1)
    assert "exit code 2" in judge.problems[0]


def test_wrong_work_count_is_a_failed_operation():
    op = _equilibrium_op()
    op.facts["profiles"] += 1
    assert _judge_cli(op, {}).failed == 1


def test_independent_counts_match_the_program():
    from capauction.analysis import optimize_cap_and_price
    from capauction.auction import HIGHEST_LOSING, AuctionParams
    from capauction.equilibrium import find_grid_equilibria

    checked = 0
    for seed in range(40):
        instance = generate(seed, **workloads.STRATEGIC_SHAPE)
        obj = instance_to_obj(instance)
        floor = workloads.safe_price(obj, workloads.STRATEGIC_CAP)
        profiles = workloads.profile_count(obj, floor)
        if profiles > 1000:
            continue
        for ceiling in (False, True):
            searched = optimize_cap_and_price(instance, allow_ceiling=ceiling).searched
            assert workloads.candidate_count(obj, ceiling) == searched
        params = AuctionParams(workloads.STRATEGIC_CAP, floor, None, HIGHEST_LOSING)
        assert find_grid_equilibria(instance, params).searched == profiles
        checked += 1
    assert checked >= 5


def _traced_pair(ops: list[workloads.Operation]) -> tuple[dict, dict]:
    spec = [{"argv": op.argv, "csv": str(op.csv) if op.csv else None} for op in ops]
    return inproc.run(spec, trace=False), inproc.run(spec, trace=True)


def test_traced_and_untraced_outputs_match():
    ops = [_optimize_op(), _equilibrium_op()]
    plain, traced = _traced_pair(ops)
    assert plain["operations"] == traced["operations"]
    for op, got in zip(ops, traced["operations"]):
        rc, stdout, csv_bytes, _, _ = run.run_cli(op)
        assert (got["rc"], bytes.fromhex(got["stdout"])) == (rc, stdout)
        assert got["csv"] == (None if csv_bytes is None else csv_bytes.hex())


def test_tracer_restores_names_and_counts_repeat():
    from capauction import analysis, auction

    original = analysis.run_auction
    ops = [_optimize_op()]
    _, first = _traced_pair(ops)
    _, second = _traced_pair(ops)
    assert analysis.run_auction is original is auction.run_auction
    assert run._counts(first["trace"]) == run._counts(second["trace"])
    sites = first["trace"]["functions"]["auction.run_auction"]["sites"]
    assert set(sites) == {"analysis"}


def test_no_self_time_is_negative():
    _, traced = _traced_pair([_optimize_op(), _equilibrium_op()])
    trace = traced["trace"]
    assert all(f["self_ns"] >= 0 and f["ns"] >= f["self_ns"] for f in trace["functions"].values())
    assert all(ns >= 0 for ns in trace["layer_self_ns"].values())
    metrics = run.layer_metrics(trace, 0)
    assert all(value >= 0 for value in metrics.values())


def test_missing_names_record_zero():
    empty = {"functions": {}, "counts": {}, "layer_self_ns": {}}
    assert set(run.layer_metrics(empty, 0).values()) == {0}


def test_end_to_end_reports_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    op = _optimize_op()
    workload = workloads.Workload("tiny", [op], 1, "pairs")
    judge = run.Judge({})
    metrics = run.end_to_end(workload, judge, seconds=0)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value in metrics.values())
    assert (judge.attempted, judge.failed) == (1, 0)


def test_metric_names_match_the_declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    empty = {"functions": {}, "counts": {}, "layer_self_ns": {}}
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(run.layer_metrics(empty, 0)) | {"trace.overhead"} == declared


def test_runner_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"]) == 2

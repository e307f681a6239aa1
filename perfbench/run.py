"""capauction benchmark.

    python3 perfbench/run.py --workload sweep|certify|strategic --seed N \
        --seconds S --trace 0|1

Run from the root of a capauction checkout. The seed picks the instance
files (see workloads.py); the program sees only those files.

--trace 0 runs the workload the way users run it: every operation is a
fresh `python -m capauction.cli` process, one at a time, repeated while
the time budget lasts. It reports the end-to-end metrics as medians over
those passes. --trace 1 alternates untraced and traced in-process passes
and reports the per-layer metrics (see tracer.py). Every operation's
output is checked (see checks.py); the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
SPEC = Path("BENCHMARK.json")
OP_TIMEOUT_S = 150
PROBE_EVERY_S = 1.0
SETUP_PROBE = (
    "import sys\n"
    "import capauction.cli\n"
    "from capauction.io import load_instance\n"
    "for path in sys.argv[1:]:\n"
    "    load_instance(path)\n"
)
# On a shared virtual machine speed drifts by up to half for stretches of
# seconds to minutes (on a 2-vCPU Xeon VM a fixed loop took either about
# 20 ms or about 30 ms), and CPU time drifts with it. A fixed,
# package-free reference probe runs after each set-up probe, before an
# operation whenever a second has passed since the last pair. Pass times
# are scaled by REFERENCE_S / (the probe's trimmed mean over the run),
# set-up times by REFERENCE_S / (the probe run just after them): both are
# reported as times on a machine where the probe takes REFERENCE_S. A
# mean, not a median, tracks the share of slow stretches, which is what
# the pass times average over.
REFERENCE_PROBE = (
    "import argparse, csv, dataclasses, itertools, json, math, pathlib\n"
    "from fractions import Fraction\n"
    "total = Fraction(0)\n"
    "for i in range(1, 20000):\n"
    "    total += Fraction(i % 17, i % 13 + 1)\n"
)
REFERENCE_S = 0.1
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    ["src"] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


class Judge:
    """Checks operation results and counts attempts and failures.

    An operation's output is compared with the recorded digest for its
    inputs; inputs without one are compared with their first checked
    output in this run."""

    def __init__(self, expected: dict):
        self.reference = dict(expected)
        self.attempted = 0
        self.failed = 0
        self.certificates_failed = 0
        self.problems: list[str] = []

    def __call__(self, op: workloads.Operation, key: str, rc: int, stdout: bytes,
                 csv_bytes: bytes | None) -> None:
        self.attempted += 1
        problems, failed_certs = checks.check(op, rc, stdout, csv_bytes, self.reference.get(key))
        self.certificates_failed += failed_certs
        if problems:
            self.failed += 1
            self.problems.extend(f"{key}: {p}" for p in problems)
        else:
            self.reference.setdefault(
                key, {"rc": rc, "stdout": checks.digest(stdout), "csv": checks.digest(csv_bytes)})


def run_cli(op: workloads.Operation) -> tuple[int, bytes, bytes | None, float, float]:
    """One CLI process: exit code, stdout, CSV, wall seconds, CPU seconds."""
    if op.csv:
        op.csv.unlink(missing_ok=True)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "capauction.cli", *op.argv],
                              capture_output=True, env=ENV, timeout=OP_TIMEOUT_S)
        rc, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        rc, stdout = -1, b""
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    csv_bytes = op.csv.read_bytes() if op.csv and rc == 0 and op.csv.exists() else None
    return rc, stdout, csv_bytes, wall, cpu


def probe_seconds(code: str, args: list[Path] = ()) -> float:
    """Wall time of a fresh interpreter running `code`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, *map(str, args)],
                   env=ENV, check=True, capture_output=True, timeout=OP_TIMEOUT_S)
    return time.perf_counter() - start


def _trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth."""
    cut = len(values) // 10
    return statistics.mean(sorted(values)[cut:len(values) - cut])


def _spread(values: list[float]) -> str:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return f"median {median:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def end_to_end(workload: workloads.Workload, judge: Judge, seconds: float) -> dict:
    ops = workload.operations
    keys = [op.key() for op in ops]
    instances = [op.instance for op in ops]
    probe_seconds(SETUP_PROBE, instances)  # warm-up: bytecode caches

    setup, reference, walls, cpus, laps = [], [], [], [], []
    start = time.perf_counter()
    last_probe = -PROBE_EVERY_S
    while True:
        lap_start = time.perf_counter()
        wall = cpu = 0.0
        for op, key in zip(ops, keys):
            # Probes are spread evenly over the run, so they see the same
            # mix of slow and fast stretches as the operations.
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                setup.append(probe_seconds(SETUP_PROBE, instances))
                reference.append(probe_seconds(REFERENCE_PROBE))
                last_probe = time.perf_counter()
            rc, stdout, csv_bytes, op_wall, op_cpu = run_cli(op)
            judge(op, key, rc, stdout, csv_bytes)
            wall += op_wall
            cpu += op_cpu
        walls.append(wall)
        cpus.append(cpu)
        laps.append(time.perf_counter() - lap_start)
        if time.perf_counter() - start + statistics.median(laps) > seconds:
            break

    scale = REFERENCE_S / _trimmed_mean(reference)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"workload {workload.name}: {len(ops)} operations per pass, "
          f"{workload.work} {workload.work_unit} per pass, {len(walls)} passes")
    print(f"reference probe {_spread(reference)} s; times below are as measured, "
          f"reported pass times are scaled by {scale:.6g}")
    print(f"wall_s {_spread(walls)} s")
    print(f"cpu_s {_spread(cpus)} s")
    print(f"setup_s {_spread(setup)} s")
    print(f"peak_rss_mb {peak_mb:.6g} MB")
    print(f"work_per_s ({workload.work_unit}_per_s) "
          f"{_spread([workload.work / w for w in walls])} 1/s")
    print(f"error_rate {judge.failed}/{judge.attempted}")
    wall_s = statistics.median(walls) * scale
    return {
        "wall_s": wall_s,
        "cpu_s": statistics.median(cpus) * scale,
        "setup_s": statistics.median(a / b for a, b in zip(setup, reference)) * REFERENCE_S,
        "peak_rss_mb": peak_mb,
        "work_per_s": workload.work / wall_s,
    }


def run_inproc(workload: workloads.Workload, trace: bool) -> dict:
    ops_path = workloads.WORK_DIR / "operations.json"
    result_path = workloads.WORK_DIR / "inproc-result.json"
    ops_path.write_text(json.dumps(
        [{"argv": op.argv, "csv": str(op.csv) if op.csv else None}
         for op in workload.operations]), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "inproc.py"), str(ops_path),
                    str(result_path), "1" if trace else "0"],
                   env=ENV, check=True, timeout=2 * OP_TIMEOUT_S)
    return json.loads(result_path.read_text(encoding="utf-8"))


def _check_inproc(workload: workloads.Workload, keys: list[str], result: dict,
                  judge: Judge) -> list[bytes]:
    outputs = []
    for op, key, got in zip(workload.operations, keys, result["operations"]):
        stdout = bytes.fromhex(got["stdout"])
        csv_bytes = None if got["csv"] is None else bytes.fromhex(got["csv"])
        judge(op, key, got["rc"], stdout, csv_bytes)
        outputs.append(stdout)
    return outputs


def _counts(trace: dict) -> dict:
    """Everything in a reduced trace that must repeat exactly."""
    calls = {name: (f["calls"], sorted(f["sites"].items()))
             for name, f in trace["functions"].items()}
    return {"calls": calls, "counts": trace["counts"]}


def layer_metrics(trace: dict, certificates_failed: int) -> dict:
    functions, counts, layer_self = trace["functions"], trace["counts"], trace["layer_self_ns"]

    def fn(name: str) -> dict:
        return functions.get(name, {"calls": 0, "ns": 0, "self_ns": 0, "sites": {}})

    def calls(name: str) -> int:
        return fn(name)["calls"]

    def secs(name: str) -> float:
        return fn(name)["ns"] / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    run_auction = fn("auction.run_auction")
    metrics = {
        "io.load_instance.s": secs("io.load_instance"),
        "io.write_csv.s": secs("io.write_csv"),
        "io.write_csv.rows": counts.get("io.write_csv.rows", 0),
        "model.welfare_of.calls": calls("model.welfare_of"),
        "model.welfare_of.s": secs("model.welfare_of"),
        "auction.run_auction.calls": run_auction["calls"],
        "auction.run_auction.us_per_call": ratio(run_auction["ns"] / 1e3, run_auction["calls"]),
        "auction.run_auction.self_s": run_auction["self_ns"] / 1e9,
        "auction.price_candidates.calls": calls("auction.price_candidates"),
        "analysis.enumerate_scenarios.calls": calls("analysis.enumerate_scenarios"),
        "analysis.enumerate_scenarios.rows": counts.get("analysis.enumerate_scenarios.rows", 0),
        "analysis.enumerate_scenarios.s": secs("analysis.enumerate_scenarios"),
        "analysis.enumerate_scenarios.useful_ratio": ratio(
            counts.get("analysis.enumerate_scenarios.distinct", 0),
            calls("analysis.enumerate_scenarios")),
        "analysis.expected_welfare.calls": calls("analysis.expected_welfare"),
        "analysis.expected_welfare.us_per_call": ratio(
            fn("analysis.expected_welfare")["ns"] / 1e3, calls("analysis.expected_welfare")),
        "analysis.expected_welfare.useful_ratio": ratio(
            counts.get("analysis.expected_welfare.distinct", 0),
            calls("analysis.expected_welfare")),
        "analysis.optimize_cap_and_price.s": secs("analysis.optimize_cap_and_price"),
        "analysis.optimize_cap_and_price.candidates":
            counts.get("analysis.optimize_cap_and_price.candidates", 0),
        "analysis.safe_welfare_table.calls": calls("analysis.safe_welfare_table"),
        "analysis.safe_welfare_table.s": secs("analysis.safe_welfare_table"),
        "bounds.verify_price_gap.calls": calls("bounds.verify_price_gap"),
        "bounds.self_s": layer_self.get("bounds", 0) / 1e9,
        "bounds.certificates_failed": certificates_failed,
        "equilibrium.find_grid_equilibria.s": secs("equilibrium.find_grid_equilibria"),
        "equilibrium.find_grid_equilibria.us_per_profile": ratio(
            fn("equilibrium.find_grid_equilibria")["ns"] / 1e3,
            counts.get("equilibrium.find_grid_equilibria.profiles", 0)),
        "equilibrium.run_auction.calls": run_auction["sites"].get("equilibrium", 0),
        "equilibrium.candidate_reports.calls": calls("equilibrium.candidate_reports"),
        "equilibrium.candidate_reports.s": secs("equilibrium.candidate_reports"),
        "equilibrium.check_poa_bound.s": secs("equilibrium.check_poa_bound"),
        "cli.self_s": layer_self.get("cli", 0) / 1e9,
    }
    for site in ("analysis", "bounds", "cli"):
        metrics[f"auction.run_auction.calls.{site}"] = run_auction["sites"].get(site, 0)
    for name in ("verify_ceiling_removal", "verify_sellout_conditional", "verify_price_gap",
                 "decompose_welfare", "verify_decomposition_bounds", "verify_sellout_factor",
                 "verify_single_buyer_cover"):
        metrics[f"bounds.{name}.s"] = secs(f"bounds.{name}")
    for command in ("optimize", "verify", "equilibrium"):
        metrics[f"cli.{command}.s"] = secs(f"cli.cmd_{command}")
    return metrics


def traced(workload: workloads.Workload, judge: Judge, seconds: float) -> dict:
    keys = [op.key() for op in workload.operations]
    passes, overheads = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain = run_inproc(workload, trace=False)
        with_trace = run_inproc(workload, trace=True)
        plain_out = _check_inproc(workload, keys, plain, judge)
        before = judge.certificates_failed
        traced_out = _check_inproc(workload, keys, with_trace, judge)
        if plain_out != traced_out:
            judge.failed += 1
            judge.problems.append("traced stdout differs from untraced stdout")
        if passes and _counts(with_trace["trace"]) != _counts(passes[0]["trace"]):
            judge.failed += 1
            judge.problems.append("traced call counts differ between passes")
        if with_trace["trace"]["hook_errors"]:
            print(f"warning: {with_trace['trace']['hook_errors']} boundary counts could not be "
                  "read from changed signatures", file=sys.stderr)
        with_trace["certificates_failed"] = judge.certificates_failed - before
        passes.append(with_trace)
        overheads.append(with_trace["wall_s"] / plain["wall_s"])
        pair = time.perf_counter() - pair_start
        if time.perf_counter() - start + pair > seconds:
            break

    per_pass = [layer_metrics(p["trace"], p["certificates_failed"]) for p in passes]
    # Counts repeat exactly (checked above), so only times take a median.
    metrics = {name: per_pass[0][name] if len({m[name] for m in per_pass}) == 1
               else statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead"] = statistics.median(overheads)
    print(f"workload {workload.name}: {len(passes)} traced passes")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/capauction/cli.py").is_file() or not SPEC.is_file():
        print("error: run from the root of a capauction checkout "
              "(src/capauction and BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    judge = Judge(json.loads(EXPECTED.read_text(encoding="utf-8")))

    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    workloads.WORK_DIR.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        measure = traced if args.trace else end_to_end
        values = measure(workload, judge, args.seconds)
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)

    for problem in judge.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if set(values) != set(units):
        print(f"error: measured {sorted(set(values) ^ set(units))} not as declared",
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

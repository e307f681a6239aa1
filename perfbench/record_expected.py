"""Record the expected output of every operation for a range of seeds.

    python3 perfbench/record_expected.py FIRST LAST [WORKLOAD...]

Run from the root of a checkout whose output is the reference. For each
seed in FIRST..LAST and each workload (default: all), every operation
runs once as a CLI process; its exit code and the SHA-256 of its stdout
and CSV are stored in expected.json under the operation's input key. An output that fails the
independent checks is not recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import workloads
from run import EXPECTED, run_cli


def main() -> int:
    first, last = map(int, sys.argv[1:3])
    names = sys.argv[3:] or list(workloads.WORKLOADS)
    sys.path.insert(0, "src")
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    bad = 0
    try:
        for seed in range(first, last + 1):
            for name in names:
                shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
                workloads.WORK_DIR.mkdir()
                for op in workloads.WORKLOADS[name](seed).operations:
                    rc, stdout, csv_bytes, _, _ = run_cli(op)
                    problems, _ = checks.check(op, rc, stdout, csv_bytes, None)
                    if problems:
                        bad += 1
                        print(f"seed {seed} {name} {op.name}: {problems}", file=sys.stderr)
                        continue
                    expected[op.key()] = {"rc": rc, "stdout": checks.digest(stdout),
                                          "csv": checks.digest(csv_bytes)}
            print(f"seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

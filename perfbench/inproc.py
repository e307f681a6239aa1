"""Run a workload's CLI operations inside one interpreter, optionally traced.

    python3 perfbench/inproc.py OPS.json RESULT.json 0|1

OPS.json is a list of CLI argument lists with the CSV path each writes (or
null). Each operation calls `capauction.cli.main` with stdout and stderr
captured. RESULT.json receives the wall time of the operations, each
one's exit code, stdout and CSV bytes (hex), and with tracing on, the
reduced spans.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, "src")

from tracer import Tracer  # noqa: E402

LAYERS = ("model", "auction", "analysis", "bounds", "equilibrium", "io", "instances", "cli")


def _call(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc(file=sys.__stderr__)
            rc = -1
    return rc, out.getvalue()


def run(operations: list[dict], trace: bool) -> dict:
    modules = {}
    for name in LAYERS:
        try:
            modules[name] = importlib.import_module(f"capauction.{name}")
        except ModuleNotFoundError:  # a module a later change removed records nothing
            continue
    tracer = Tracer(modules) if trace else None
    if tracer:
        tracer.install()
    results = []
    try:
        start = time.perf_counter()
        for op in operations:
            if op["csv"]:
                Path(op["csv"]).unlink(missing_ok=True)
            rc, stdout = _call(modules["cli"].main, op["argv"])
            csv_path = op["csv"]
            csv_bytes = Path(csv_path).read_bytes() if csv_path and rc == 0 else None
            results.append({"rc": rc, "stdout": stdout.encode("utf-8").hex(),
                            "csv": None if csv_bytes is None else csv_bytes.hex()})
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.restore()
    out = {"wall_s": wall, "operations": results}
    if tracer:
        out["trace"] = tracer.reduce()
        out["trace"]["hook_errors"] = tracer.hook_errors
    return out


def main() -> int:
    ops_path, result_path, trace = sys.argv[1:4]
    operations = json.loads(Path(ops_path).read_text(encoding="utf-8"))
    result = run(operations, trace == "1")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

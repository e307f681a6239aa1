"""Output checks for one CLI operation.

An operation passes when it exits 0, its stdout and CSV match the digests
recorded for its inputs (when the table has them), and its output agrees
with facts computed independently from the input. A `FAIL` certificate is
a finding the program reports, not a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
from fractions import Fraction

from workloads import Operation

POA_FACTOR = Fraction(20, 63)  # 1/3.15
VERIFY_ALL_CERTIFICATES = 9
_NUMBER = r"(-?\d+(?:/\d+)?) \(-?[\d.]+\)"
_CERT = re.compile(
    rf"^\[\s*(pass|FAIL|n/a)\] (\S+) \((\S+)\): lhs {_NUMBER} vs rhs {_NUMBER}, margin {_NUMBER}$"
)


def digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _field(stdout: str, label: str) -> str:
    for line in stdout.splitlines():
        if line.strip().startswith(label + ":"):
            return line.split(":", 1)[1].strip()
    raise ValueError(f"no {label!r} line")


def _rational(text: str) -> Fraction | None:
    return None if text == "inf" else Fraction(text.split(" ")[0])


def _check_optimize(op: Operation, stdout: str, csv_bytes: bytes | None) -> list[str]:
    problems = []
    searched = int(re.search(r" over (\d+) candidates:", stdout).group(1))
    if searched != op.facts["candidates"]:
        problems.append(f"searched {searched} candidates, input gives {op.facts['candidates']}")
    best = (int(_field(stdout, "cap")), _rational(_field(stdout, "floor")),
            _rational(_field(stdout, "ceiling")), _rational(_field(stdout, "expected welfare")))
    if csv_bytes is not None:
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
        if len(rows) != searched:
            problems.append(f"CSV has {len(rows)} rows for {searched} candidates")
        table = [(int(r["cap"]), _rational(r["floor"]), _rational(r["ceiling"]),
                  _rational(r["welfare"])) for r in rows]
        if best not in table:
            problems.append("reported optimum is not a CSV row")
        if max(row[3] for row in table) != best[3]:
            problems.append("reported welfare is not the CSV maximum")
    return problems


def _check_verify(stdout: str) -> tuple[list[str], int]:
    problems = []
    certs = [m for m in map(_CERT.match, stdout.splitlines()) if m]
    if len(certs) != VERIFY_ALL_CERTIFICATES:
        problems.append(f"{len(certs)} certificates, expected {VERIFY_ALL_CERTIFICATES}")
    failed = 0
    for m in certs:
        holds, name = m.group(1), m.group(2)
        lhs, rhs, margin = (Fraction(m.group(k)) for k in (4, 5, 6))
        if margin != lhs - rhs:
            problems.append(f"{name}: margin is not lhs - rhs")
        if holds == "n/a":
            continue
        if (holds == "pass") != (lhs >= rhs):
            problems.append(f"{name}: '{holds}' disagrees with lhs >= rhs")
        failed += holds == "FAIL"
    return problems, failed


def _check_equilibrium(op: Operation, stdout: str) -> list[str]:
    problems = []
    searched = int(_field(stdout, "profiles searched"))
    if searched != op.facts["profiles"]:
        problems.append(f"searched {searched} profiles, input gives {op.facts['profiles']}")
    found = int(_field(stdout, "equilibria found"))
    baseline = _rational(_field(stdout, "safe-price baseline welfare"))
    bound = _rational(_field(stdout, "welfare floor (baseline/3.15)"))
    if bound != baseline * POA_FACTOR:
        problems.append("welfare floor is not baseline/3.15")
    verdict = _field(stdout, "bound holds")
    if found:
        worst = _rational(_field(stdout, "worst equilibrium welfare"))
        expected = f"{worst >= bound} (checked)"
    else:
        expected = "True (no-equilibria)"
    if verdict != expected:
        problems.append(f"'bound holds: {verdict}', expected {expected!r}")
    return problems


def check(op: Operation, rc: int, stdout: bytes, csv_bytes: bytes | None,
          expected: dict | None) -> tuple[list[str], int]:
    """Problems with one operation's result, and its count of FAIL certificates."""
    if rc != 0:
        return [f"exit code {rc}"], 0
    if expected is not None:
        if expected != {"rc": rc, "stdout": digest(stdout), "csv": digest(csv_bytes)}:
            return ["output differs from the recorded digest"], 0
    text = stdout.decode("utf-8")
    failed = 0
    try:
        command = op.argv[0]
        if command == "optimize":
            problems = _check_optimize(op, text, csv_bytes)
        elif command == "verify":
            problems, failed = _check_verify(text)
        else:
            problems = _check_equilibrium(op, text)
    except (ValueError, AttributeError, KeyError, TypeError) as exc:
        problems = [f"unparseable output: {exc}"]
    return problems, failed

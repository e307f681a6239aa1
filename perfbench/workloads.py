"""Seeded workloads: instance files, the CLI operations run on them, and
the work each operation does.

Instances come from the package's own generators, chosen from the seed.
Work counts (candidates, scenarios, profiles) are computed here from the
instance JSON alone, without the package, so they double as independent
checks of what the program reports.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORK_DIR = Path(".perfbench_work")
REPORT_CSV = WORK_DIR / "report.csv"

# sweep and certify: each generated instance is the first draw with
# exactly this many candidate x scenario pairs (the optimizer's work) and
# this many marginal values over all firm types (the cost of clearing one
# scenario), the most common values for its shape.
SWEEP_NO_CEILING = dict(firms=4, scenarios_per_firm=4, max_units=4)
SWEEP_NO_CEILING_SIZE = (57344, 42)
SWEEP_CEILING = dict(firms=3, scenarios_per_firm=4, max_units=4)
SWEEP_CEILING_SIZE = (75712, 33)

# certify: logscale(7) plus one generated instance.
CERTIFY_LOGSCALE = 7
CERTIFY_GENERATED = dict(firms=3, scenarios_per_firm=4, max_units=4)
CERTIFY_SIZE = (9984, 29)

# strategic: the first STRATEGIC_INSTANCES instances in which trade is
# possible at the safe price and whose profile space lies in
# STRATEGIC_PROFILE_BAND. Search time per profile varies about threefold
# between instances (it grows with the number of equilibria), so a pass
# runs many small searches rather than a few large ones.
STRATEGIC_SHAPE = dict(firms=2, scenarios_per_firm=2, max_units=2, value_high=8)
STRATEGIC_CAP = 2
STRATEGIC_INSTANCES = 25
STRATEGIC_PROFILE_BAND = (1000, 1400)

# Instance seeds for benchmark seed s are s * DRAWS + k, k < DRAWS, so two
# benchmark seeds never share a generated instance.
DRAWS = 1000


@dataclass
class Operation:
    """One CLI call: its arguments, the files it reads and writes, and the
    facts about its output that are known from the input."""

    name: str
    argv: list[str]
    instance: Path
    csv: Path | None = None
    facts: dict = field(default_factory=dict)

    def key(self) -> str:
        """Identity of the operation's inputs, for the expected-output table."""
        digest = hashlib.sha256(self.instance.read_bytes()).hexdigest()[:16]
        return f"{self.name}/{digest}"


@dataclass
class Workload:
    name: str
    operations: list[Operation]
    work: int  # pairs on sweep and certify, profiles on strategic
    work_unit: str


# ---- reading an instance file without the package -----------------------

def _marginals(obj) -> list[list[list[Fraction]]]:
    """Per firm, per type: the marginal values."""
    return [
        [[Fraction(v) for v in s["marginals"]] for s in firm["scenarios"]]
        for firm in obj["firms"]
    ]


def _positive(vector: list[Fraction]) -> int:
    return sum(1 for v in vector if v > 0)


def candidate_count(obj, ceiling: bool) -> int:
    """Size of the optimizer's search: caps 1..max demand + 1 times floors
    (and ceilings above the floor) on the grid of marginals plus 0 and a
    sentinel above the largest."""
    firms = _marginals(obj)
    values = {v for firm in firms for vec in firm for v in vec} | {Fraction(0)}
    grid = len(values) + 1
    caps = max(1, sum(max(_positive(vec) for vec in firm) for firm in firms)) + 1
    per_cap = grid + (grid * (grid - 1) // 2 if ceiling else 0)
    return caps * per_cap


def marginal_count(obj) -> int:
    return sum(len(vec) for firm in _marginals(obj) for vec in firm)


def scenario_count(obj) -> int:
    return math.prod(len(firm["scenarios"]) for firm in obj["firms"])


def safe_price(obj, cap: int) -> Fraction:
    """Average cost of selling `cap` licenses under a quadratic cost a*x^2."""
    if obj["cost"]["kind"] != "quadratic":
        raise ValueError("strategic workload expects quadratic costs")
    return Fraction(obj["cost"]["a"]) * cap


def profile_count(obj, floor: Fraction) -> int:
    """Size of the grid-equilibrium profile space at a bounded cap and no
    ceiling: per firm type, the non-increasing bid vectors on the grid
    {0, floor, every true marginal} whose prefix sums never exceed the
    type's true value."""
    firms = _marginals(obj)
    grid = sorted({v for firm in firms for vec in firm for v in vec} | {Fraction(0), floor},
                  reverse=True)
    total = 1
    for firm in firms:
        length = max(_positive(vec) for vec in firm)
        for truth in firm:
            if length == 0:
                continue
            value = list(itertools.accumulate(truth[:length]))
            value += [value[-1] if value else Fraction(0)] * (length - len(value))
            total *= sum(
                1
                for combo in itertools.combinations_with_replacement(grid, length)
                if all(b <= v for b, v in zip(itertools.accumulate(combo), value))
            )
    return total


# ---- building the workloads ---------------------------------------------

def _save(instance, path: Path) -> dict:
    from capauction.io import instance_to_obj, save_instance

    save_instance(instance, path)
    return instance_to_obj(instance)


def _draw(seed: int, shape: dict, ceiling: bool, size: tuple[int, int]):
    """First instance seed s * DRAWS + k whose (pairs, marginals) is `size`."""
    from capauction.instances import generate
    from capauction.io import instance_to_obj

    for k in range(DRAWS):
        instance = generate(seed * DRAWS + k, **shape)
        obj = instance_to_obj(instance)
        if (candidate_count(obj, ceiling) * scenario_count(obj), marginal_count(obj)) == size:
            return instance
    raise RuntimeError(f"no instance of shape {shape} and size {size} for seed {seed}")


def sweep(seed: int) -> Workload:
    a = WORK_DIR / "sweep-no-ceiling.json"
    b = WORK_DIR / "sweep-ceiling.json"
    obj_a = _save(_draw(seed, SWEEP_NO_CEILING, False, SWEEP_NO_CEILING_SIZE), a)
    obj_b = _save(_draw(seed, SWEEP_CEILING, True, SWEEP_CEILING_SIZE), b)
    ops = [
        Operation("optimize-no-ceiling", ["optimize", str(a), "--no-ceiling"], a,
                  facts={"candidates": candidate_count(obj_a, False)}),
        Operation("optimize-ceiling", ["optimize", str(b), "--out", str(REPORT_CSV)], b,
                  csv=REPORT_CSV, facts={"candidates": candidate_count(obj_b, True)}),
    ]
    return Workload("sweep", ops, SWEEP_NO_CEILING_SIZE[0] + SWEEP_CEILING_SIZE[0], "pairs")


def certify(seed: int) -> Workload:
    from capauction.instances import logscale

    a = WORK_DIR / f"logscale-{CERTIFY_LOGSCALE}.json"
    b = WORK_DIR / "certify-generated.json"
    obj_a = _save(logscale(CERTIFY_LOGSCALE), a)
    _save(_draw(seed, CERTIFY_GENERATED, False, CERTIFY_SIZE), b)
    ops = [Operation(f"verify-{path.stem}", ["verify", str(path), "--which", "all"], path)
           for path in (a, b)]
    work = candidate_count(obj_a, False) * scenario_count(obj_a) + CERTIFY_SIZE[0]
    return Workload("certify", ops, work, "pairs")


def strategic(seed: int) -> Workload:
    from capauction.instances import generate
    from capauction.io import instance_to_obj

    low, high = STRATEGIC_PROFILE_BAND
    ops = []
    for k in range(DRAWS):
        instance = generate(seed * DRAWS + k, **STRATEGIC_SHAPE)
        obj = instance_to_obj(instance)
        floor = safe_price(obj, STRATEGIC_CAP)
        if floor >= max(v for firm in _marginals(obj) for vec in firm for v in vec):
            continue  # nobody can trade: every profile is an equilibrium
        profiles = profile_count(obj, floor)
        if not low <= profiles <= high:
            continue
        path = WORK_DIR / f"strategic-{len(ops)}.json"
        _save(instance, path)
        argv = ["equilibrium", str(path), "--cap", str(STRATEGIC_CAP),
                "--floor", str(floor)]
        ops.append(Operation("equilibrium", argv, path, facts={"profiles": profiles}))
        if len(ops) == STRATEGIC_INSTANCES:
            return Workload("strategic", ops, sum(op.facts["profiles"] for op in ops), "profiles")
    raise RuntimeError(f"too few instances in the profile band for seed {seed}")


WORKLOADS = {"sweep": sweep, "certify": certify, "strategic": strategic}


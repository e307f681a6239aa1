"""Instance files, report emission and the text forms of CLI values.

Instance files are human-editable JSON with every number written as an
exact rational string ("p/q" or an integer literal). Reports are CSV with
each rational emitted twice: exact "p/q" (lossless, reparses to the same
Fraction) and a 12-place decimal for reading. The helpers the
subcommands' handlers share (`parse_cap`, `parse_ceiling`, `display`,
`write_report`) live here rather than in `cli`: `python -m
capauction.cli` runs `cli` as `__main__`, so a handler importing from
`capauction.cli` would compile it a second time.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from fractions import Fraction
from pathlib import Path

from .model import (
    ERROR_BEYOND,
    REPEAT_LAST,
    CostCurve,
    Firm,
    MarginalCostTable,
    MarketInstance,
    QuadraticCost,
    Valuation,
    ValidationError,
    rat,
    require_valid,
)

DECIMAL_PLACES = 12


def format_decimal(value: Fraction) -> str:
    """Round-half-up decimal rendering; display only, never compared."""
    numerator, denominator = value.numerator, value.denominator
    sign = "-" if numerator < 0 else ""
    scale = 10**DECIMAL_PLACES
    scaled = (abs(numerator) * scale * 2 + denominator) // (2 * denominator)
    whole, frac = divmod(scaled, scale)
    return f"{sign}{whole}.{str(frac).zfill(DECIMAL_PLACES)}"


def _cost_to_obj(cost: CostCurve) -> dict:
    if isinstance(cost, QuadraticCost):
        return {"kind": "quadratic", "a": str(cost.a)}
    return {
        "kind": "marginals",
        "values": [str(v) for v in cost.marginals],
        "extension": cost.extension,
    }


def _items(value, where: str) -> list:
    """A JSON array field; a string would otherwise iterate by character."""
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a JSON array, got {type(value).__name__}")
    return value


def _valuation(values, where: str) -> Valuation:
    return tuple(rat(v) for v in _items(values, where))


def _cost_from_obj(obj) -> CostCurve:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("cost: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "quadratic":
        return QuadraticCost(rat(obj.get("a", "1")))
    if kind == "marginals":
        extension = obj.get("extension", REPEAT_LAST)
        if extension not in (REPEAT_LAST, ERROR_BEYOND):
            raise ValidationError(f"cost.extension: unknown policy {extension!r}")
        return MarginalCostTable(
            tuple(rat(v) for v in _items(obj.get("values", []), "cost.values")), extension
        )
    raise ValidationError(f"cost.kind: expected 'quadratic' or 'marginals', got {kind!r}")


def instance_to_obj(instance: MarketInstance) -> dict:
    obj = {"label": instance.label, "cost": _cost_to_obj(instance.cost)}
    if instance.joint is not None:
        obj["joint_scenarios"] = [
            {"prob": str(p), "marginals": [[str(v) for v in vec] for vec in vs]}
            for p, vs in instance.joint
        ]
    else:
        obj["firms"] = [
            {"scenarios": [{"prob": str(p), "marginals": [str(v) for v in vec]} for p, vec in firm]}
            for firm in instance.firms
        ]
    return obj


def instance_from_obj(obj) -> MarketInstance:
    if not isinstance(obj, dict):
        raise ValidationError("instance: expected a JSON object")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ValidationError(f"label: expected a JSON string, got {type(label).__name__}")
    cost = _cost_from_obj(obj.get("cost", {}))
    joint = None
    firms: tuple[Firm, ...] = ()
    if "joint_scenarios" in obj:
        if "firms" in obj:
            raise ValidationError("instance: give either 'firms' or 'joint_scenarios', not both")
        rows = []
        for r, row in enumerate(_items(obj["joint_scenarios"], "joint_scenarios")):
            where = f"joint_scenarios[{r}].marginals"
            try:
                prob = rat(row["prob"])
                vs = tuple(
                    _valuation(marginals, f"{where}[{i}]")
                    for i, marginals in enumerate(_items(row["marginals"], where))
                )
            except (KeyError, TypeError) as exc:
                raise ValidationError(f"joint_scenarios[{r}]: {exc}") from None
            rows.append((prob, vs))
        joint = tuple(rows)
    elif "firms" in obj:
        parsed = []
        for i, firm in enumerate(_items(obj["firms"], "firms")):
            where = f"firms[{i}].scenarios"
            try:
                parsed.append(tuple(
                    (rat(s["prob"]), _valuation(s["marginals"], f"{where}[{k}].marginals"))
                    for k, s in enumerate(_items(firm["scenarios"], where))
                ))
            except (KeyError, TypeError) as exc:
                raise ValidationError(f"firms[{i}]: {exc}") from None
        firms = tuple(parsed)
    else:
        raise ValidationError("instance: needs either 'firms' or 'joint_scenarios'")
    return MarketInstance(firms=firms, cost=cost, label=label, joint=joint)


def dumps_instance(instance: MarketInstance) -> str:
    return json.dumps(instance_to_obj(instance), indent=2) + "\n"


def loads_instance(text: str) -> MarketInstance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"instance file is not valid JSON: {exc}") from None
    return instance_from_obj(obj)


def save_instance(instance: MarketInstance, path: str | Path) -> None:
    try:
        Path(path).write_text(dumps_instance(instance), encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write instance file {path}: {exc}") from None


def load_instance(path: str | Path) -> MarketInstance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read instance file {path}: {exc}") from None
    instance = loads_instance(text)
    require_valid(instance)
    return instance


def parse_cap(text: str) -> int | None:
    """A --cap value: an integer, or 'unbounded'/'inf' for no cap."""
    if text in ("unbounded", "inf"):
        return None
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"cap must be an integer or 'unbounded', got {text!r}")


def parse_ceiling(text: str | None) -> Fraction | None:
    """A --ceiling value: a rational, or 'inf'/'none' (or no flag) for no ceiling."""
    if text is None or text in ("inf", "none"):
        return None
    return rat(text)


def display(value: Fraction | None) -> str:
    """One rational as stdout prints it: exact and decimal; "inf" for None."""
    if value is None:
        return "inf"
    return str(value) + f" ({format_decimal(value)})"


def rational_cells(value: Fraction | None) -> list[str]:
    """Exact and decimal rendering of one rational; "inf" twice for None."""
    if value is None:
        return ["inf", "inf"]
    return [str(value), format_decimal(value)]


def write_csv(path: str | Path, header: list[str], rows: Iterable[list[str]]) -> None:
    import csv  # only commands that write a report need it

    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ValidationError(f"cannot write report file {path}: {exc}") from None


def write_report(out: str | None, header: list[str], rows: Iterable[list[str]]) -> None:
    """Write the CSV report if --out names a file, and say so; when `rows`
    is a generator, rows are formatted only then."""
    if out:
        write_csv(out, header, rows)
        print(f"report written to {out}")

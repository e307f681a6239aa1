"""Domain model for license markets with convex social cost.

Firms value identical licenses through concave curves. A valuation is a
plain tuple of non-increasing per-license marginal values, and a firm a
tuple of (probability, valuation) types, its finite type distribution;
`validate` checks both in one pass over the instance. Society bears a
convex cost for the total quantity allocated. A cost curve is read only
through its marginal costs C(x) - C(x - 1), x = 1, 2, ...; `costs`
tabulates C(0..n) as their prefix sum, and every reader of C at integer
quantities (the welfare rows, the safe price C(k)/k, the price-gap
certificates) reads that table. Everything is exact rational arithmetic
(fractions.Fraction): the welfare inequalities this package checks are
rational statements and must not be blurred by floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, count, islice, repeat
from typing import NamedTuple, Union


class MarketError(Exception):
    """Base class for domain errors raised by this package."""


class ValidationError(MarketError):
    """Malformed input: bad vectors, probabilities, parameters, or files."""


class TooLargeError(MarketError):
    """An enumeration would exceed a configured resource limit."""


def at_least_one(value: int, name: str) -> None:
    """Refuse a count or limit below 1."""
    if value < 1:
        raise ValidationError(f"{name} must be at least 1, got {value}")


Rational = Union[int, str, Fraction]

ZERO = Fraction(0)


def rat(value: Rational) -> Fraction:
    """Coerce an int, "p/q" or decimal string, or Fraction to an exact Fraction.

    Floats are rejected on purpose; they would silently break exactness.
    So are booleans, which are ints to Python but never a number in an
    instance file, and exponent notation ("1e5000"), which `Fraction`
    would expand into an integer of that many digits.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"not a rational: {value!r} (booleans are not accepted)")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if re.search(r"[\d.][eE][-+]?\d", value):
            raise ValidationError(f"not a rational: {value!r} (exponent notation is not accepted)")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational: {value!r} ({exc})") from None
    if isinstance(value, float):
        raise ValidationError(f"not an exact rational: {value!r} (floats are not accepted)")
    raise ValidationError(f"not a rational: {value!r} (got {type(value).__name__})")


# A valuation: a firm's non-increasing per-license marginal values. The
# value of x licenses is the prefix sum of the first x entries; entries
# past the end are zero, so every curve is finite, concave, non-decreasing
# and flat in the tail, and its value at zero is zero. A firm is its finite
# type distribution: (probability, valuation) pairs.
Valuation = tuple[Fraction, ...]
Firm = tuple[tuple[Fraction, Valuation], ...]


def _valuation_violations(marginals: Valuation, where: str) -> list[str]:
    out = []
    for j, v in enumerate(marginals):
        if v < 0:
            out.append(f"{where}[{j}]: negative marginal {v}")
        if j > 0 and v > marginals[j - 1]:
            out.append(f"{where}: not non-increasing at index {j}")
    return out


REPEAT_LAST = "repeat-last"
ERROR_BEYOND = "error"


class QuadraticCost(NamedTuple):
    """Social cost a*x^2; marginal cost a*(2x-1) is automatically non-decreasing."""

    a: Fraction

    def marginal_costs(self):
        """C(1) - C(0), C(2) - C(1), ..., without end."""
        return (self.a * (2 * x - 1) for x in count(1))

    def violations(self) -> list[str]:
        if self.a <= 0:
            return [f"cost: quadratic coefficient must be positive, got {self.a}"]
        return []


class MarginalCostTable(NamedTuple):
    """Social cost via an explicit non-decreasing marginal-cost table.

    Quantities past the end either repeat the last marginal (linear tail)
    or raise, depending on the extension policy.
    """

    marginals: tuple[Fraction, ...]
    extension: str = REPEAT_LAST

    def marginal_costs(self):
        """C(1) - C(0), C(2) - C(1), ..., each entry read once and read only
        when asked for. Past the table's end it repeats the last entry, or
        raises at the first quantity the table lacks."""
        yield from self.marginals
        if self.extension != REPEAT_LAST:
            raise ValidationError(
                f"quantity {len(self.marginals) + 1} beyond cost table of length "
                f"{len(self.marginals)} (extension policy {self.extension!r})"
            )
        yield from repeat(self.marginals[-1] if self.marginals else ZERO)

    def violations(self) -> list[str]:
        out = []
        for j, v in enumerate(self.marginals):
            if v < 0:
                out.append(f"cost.marginals[{j}]: negative marginal cost {v}")
            if j > 0 and v < self.marginals[j - 1]:
                out.append(f"cost.marginals: not non-decreasing at index {j} (convexity)")
        if self.extension not in (REPEAT_LAST, ERROR_BEYOND):
            out.append(f"cost: unknown extension policy {self.extension!r}")
        return out


CostCurve = Union[QuadraticCost, MarginalCostTable]


def costs(curve: CostCurve, n: int) -> list[Fraction]:
    """C(0), ..., C(n): the prefix sums of the curve's first n marginal costs."""
    return list(accumulate(islice(curve.marginal_costs(), n), initial=ZERO))


JointRow = tuple[Fraction, tuple[Valuation, ...]]


class MarketInstance(NamedTuple):
    """Per-firm valuation distributions plus the shared social cost curve.

    Firms are independent (product form) unless `joint` is given, in which
    case the explicit joint table is the scenario space and `firms` is
    empty.
    """

    firms: tuple[Firm, ...]
    cost: CostCurve
    label: str = ""
    joint: tuple[JointRow, ...] | None = None


def validate(instance: MarketInstance) -> list[str]:
    """Check every structural invariant; return violations with locations."""
    out = []
    if instance.joint is None and not instance.firms:
        out.append("instance: at least one firm is required")
    out.extend(instance.cost.violations())
    for i, firm in enumerate(instance.firms):
        if not firm:
            out.append(f"firms[{i}]: no scenarios")
            continue
        total = ZERO
        for s, (p, v) in enumerate(firm):
            if p <= 0:
                out.append(f"firms[{i}].scenarios[{s}]: probability {p} not positive")
            total += p
            out.extend(_valuation_violations(v, f"firms[{i}].scenarios[{s}].marginals"))
        if total != 1:
            out.append(f"firms[{i}]: probabilities sum to {total}, not 1")
    if instance.joint is not None:
        if not instance.joint:
            out.append("joint_scenarios: empty table")
        else:
            width = len(instance.joint[0][1])
            if width == 0:
                out.append("joint_scenarios: rows must cover at least one firm")
            total = ZERO
            for r, (p, vs) in enumerate(instance.joint):
                if p <= 0:
                    out.append(f"joint_scenarios[{r}]: probability {p} not positive")
                total += p
                if len(vs) != width:
                    out.append(f"joint_scenarios[{r}]: expected {width} firms, got {len(vs)}")
                for i, v in enumerate(vs):
                    out.extend(_valuation_violations(v, f"joint_scenarios[{r}].marginals[{i}]"))
            if total != 1:
                out.append(f"joint_scenarios: probabilities sum to {total}, not 1")
    return out


def require_valid(instance: MarketInstance) -> None:
    problems = validate(instance)
    if problems:
        raise ValidationError("; ".join(problems))

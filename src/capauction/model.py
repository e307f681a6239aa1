"""Domain model for license markets with convex social cost.

Firms value identical licenses through concave curves. A valuation is a
plain tuple of non-increasing per-license marginal values, and a firm a
tuple of (probability, valuation) types, its finite type distribution;
`validate` checks both in one pass over the instance. Society bears a
convex cost for the total quantity allocated. Everything is exact
rational arithmetic (fractions.Fraction): the welfare inequalities this
package checks are rational statements and must not be blurred by
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count, islice, repeat
from typing import NamedTuple, Union


class MarketError(Exception):
    """Base class for domain errors raised by this package."""


class ValidationError(MarketError):
    """Malformed input: bad vectors, probabilities, parameters, or files."""


class TooLargeError(MarketError):
    """An enumeration would exceed a configured resource limit."""


Rational = Union[int, str, Fraction]

ZERO = Fraction(0)


def rat(value: Rational) -> Fraction:
    """Coerce an int, "p/q" string, or Fraction to an exact Fraction.

    Floats are rejected on purpose; they would silently break exactness.
    So are booleans, which are ints to Python but never a number in an
    instance file.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"not a rational: {value!r} (booleans are not accepted)")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
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

    def cost(self, x: int) -> Fraction:
        if x < 0:
            raise ValidationError(f"cost undefined for negative quantity {x}")
        return self.a * x * x

    def costs(self, n: int) -> list[Fraction]:
        """C(0), ..., C(n)."""
        return [self.a * x * x for x in range(n + 1)]

    def marginal_costs(self):
        """C(1) - C(0), C(2) - C(1), ..., without end."""
        return (self.a * (2 * x - 1) for x in count(1))

    def violations(self, where: str = "cost") -> list[str]:
        if self.a <= 0:
            return [f"{where}: quadratic coefficient must be positive, got {self.a}"]
        return []


class MarginalCostTable(NamedTuple):
    """Social cost via an explicit non-decreasing marginal-cost table.

    Quantities past the end either repeat the last marginal (linear tail)
    or raise, depending on the extension policy.
    """

    marginals: tuple[Fraction, ...]
    extension: str = REPEAT_LAST

    def cost(self, x: int) -> Fraction:
        if x < 0:
            raise ValidationError(f"cost undefined for negative quantity {x}")
        if x <= len(self.marginals):
            return sum(self.marginals[:x], ZERO)
        if self.extension == REPEAT_LAST:
            base = sum(self.marginals, ZERO)
            tail = self.marginals[-1] if self.marginals else ZERO
            return base + tail * (x - len(self.marginals))
        raise ValidationError(
            f"quantity {x} beyond cost table of length {len(self.marginals)} "
            f"(extension policy {self.extension!r})"
        )

    def costs(self, n: int) -> list[Fraction]:
        """C(0), ..., C(n) in one prefix-sum pass over `marginal_costs`."""
        return list(accumulate(islice(self.marginal_costs(), n), initial=ZERO))

    def marginal_costs(self):
        """C(1) - C(0), C(2) - C(1), ..., each entry read once and read only
        when asked for. Past the table's end it repeats the last entry, or
        raises as `cost` does at the first quantity beyond the table."""
        yield from self.marginals
        if self.extension != REPEAT_LAST:
            self.cost(len(self.marginals) + 1)  # raises
        yield from repeat(self.marginals[-1] if self.marginals else ZERO)

    def violations(self, where: str = "cost") -> list[str]:
        out = []
        for j, v in enumerate(self.marginals):
            if v < 0:
                out.append(f"{where}.marginals[{j}]: negative marginal cost {v}")
            if j > 0 and v < self.marginals[j - 1]:
                out.append(f"{where}.marginals: not non-decreasing at index {j} (convexity)")
        if self.extension not in (REPEAT_LAST, ERROR_BEYOND):
            out.append(f"{where}: unknown extension policy {self.extension!r}")
        return out


CostCurve = Union[QuadraticCost, MarginalCostTable]


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
    out.extend(instance.cost.violations("cost"))
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

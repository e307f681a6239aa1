"""Uniform-price allocation rules.

The capped auction sells up to `cap` licenses between a price floor and a
price ceiling: if demand at the ceiling covers the cap, everyone buys at the
ceiling; if demand at the floor falls short of the cap, everyone buys at the
floor; otherwise exactly `cap` licenses go to the highest reported marginals.
Also provides the safe-price variant (floor = average social cost at the
cap) and the truthful sell-to-one-firm mechanism.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .model import (
    ZERO,
    CostCurve,
    MarginalVector,
    MarketInstance,
    ValidationError,
    average_cost,
    rat,
    welfare_of,
)

LOWEST_WINNING = "lowest-winning"
HIGHEST_LOSING = "highest-losing"
PRICING_RULES = (LOWEST_WINNING, HIGHEST_LOSING)

CEILING_BINDS = "ceiling-binds"
FLOOR_BINDS = "floor-binds"
CAP_BINDS = "cap-binds"


class AuctionParams(namedtuple("AuctionParams", "cap floor ceiling pricing")):
    """Cap, price floor, price ceiling, and pricing rule.

    `cap=None` means unlimited quantity; `ceiling=None` means no ceiling.
    The ceiling must exceed the floor strictly. The floor and ceiling are
    coerced with `rat`.
    """

    __slots__ = ()

    def __new__(
        cls,
        cap: int | None,
        floor: Fraction,
        ceiling: Fraction | None = None,
        pricing: str = LOWEST_WINNING,
    ):
        floor = rat(floor)
        if ceiling is not None:
            ceiling = rat(ceiling)
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int)):
            raise ValidationError(f"cap must be an integer or None, got {cap!r}")
        if cap is not None and cap < 1:
            raise ValidationError(f"cap must be at least 1, got {cap}")
        if floor < 0:
            raise ValidationError(f"price floor must be non-negative, got {floor}")
        if ceiling is not None and ceiling <= floor:
            raise ValidationError(f"price ceiling {ceiling} must exceed floor {floor}")
        if pricing not in PRICING_RULES:
            raise ValidationError(f"unknown pricing rule {pricing!r}")
        return super().__new__(cls, cap, floor, ceiling, pricing)


class Outcome(NamedTuple):
    """Realized allocation, uniform price, and which constraint bound."""

    allocation: tuple[int, ...]
    unit_price: Fraction
    case: str
    welfare: Fraction
    revenue: Fraction

    @property
    def quantity(self) -> int:
        return sum(self.allocation)


def clear(
    params: AuctionParams,
    bids: list[MarginalVector] | tuple[MarginalVector, ...],
) -> tuple[tuple[int, ...], Fraction, str]:
    """Allocation, uniform unit price and binding case on reported bids."""
    for i, b in enumerate(bids):
        b.require_valid(f"bids[{i}]")
    return clear_valid(params, bids)


def clear_valid(
    params: AuctionParams,
    bids: list[MarginalVector] | tuple[MarginalVector, ...],
) -> tuple[tuple[int, ...], Fraction, str]:
    """`clear` on bids the caller has already validated."""
    cap = params.cap
    ceiling_demand = [b.demand(params.ceiling) for b in bids]
    if cap is not None and sum(ceiling_demand) >= cap:
        allocation = tuple(ceiling_demand)
        price = params.ceiling
        case = CEILING_BINDS
    else:
        floor_demand = [b.demand(params.floor) for b in bids]
        if cap is None or sum(floor_demand) < cap:
            allocation = tuple(floor_demand)
            price = params.floor
            case = FLOOR_BINDS
        else:
            # Exactly `cap` units go to the highest reported marginals.
            # Ties: lower firm index first, then earlier unit index.
            units = [
                (value, firm, unit)
                for firm, b in enumerate(bids)
                for unit, value in enumerate(b.marginals)
            ]
            units.sort(key=lambda t: (-t[0], t[1], t[2]))
            counts = [0] * len(bids)
            for _, firm, _ in units[:cap]:
                counts[firm] += 1
            allocation = tuple(counts)
            if params.pricing == LOWEST_WINNING:
                price = units[cap - 1][0]
            else:
                losing = units[cap][0] if len(units) > cap else ZERO
                price = max(params.floor, losing)
            case = CAP_BINDS
    return allocation, price, case


def run_auction(
    params: AuctionParams,
    bids: list[MarginalVector] | tuple[MarginalVector, ...],
    cost: CostCurve,
    true_values: list[MarginalVector] | tuple[MarginalVector, ...] | None = None,
) -> Outcome:
    """Clear the auction on reported bids; value welfare at true curves.

    Allocation and price depend only on the bids (see `clear`); welfare is
    evaluated at `true_values` (defaults to the bids, i.e. truthful
    reporting).
    """
    bids = tuple(bids)
    allocation, price, case = clear(params, bids)
    truths = bids if true_values is None else tuple(true_values)
    if len(truths) != len(bids):
        raise ValidationError(
            f"{len(truths)} true valuations for {len(bids)} bid vectors"
        )
    return Outcome(
        allocation=allocation,
        unit_price=price,
        case=case,
        welfare=welfare_of(truths, allocation, cost),
        revenue=price * sum(allocation),
    )


def safe_price(cost: CostCurve, cap: int) -> Fraction:
    """Average social cost per license when the full cap is sold."""
    if cap < 1:
        raise ValidationError(f"safe price needs cap >= 1, got {cap}")
    return average_cost(cost, Fraction(cap))


def price_candidates(instance: MarketInstance) -> tuple[Fraction, ...]:
    """Finite price grid that is welfare-exhaustive for floors and ceilings.

    Demand curves are step functions with breakpoints exactly at the
    reported marginal values, so any floor or ceiling is welfare-equivalent
    to the next grid value up. The grid is every distinct marginal across
    all scenarios of all firms, plus 0 and a sentinel above the maximum
    (which shuts every firm out).
    """
    values = {v for mv in instance.all_valuations() for v in mv.marginals}
    values.add(ZERO)
    values.add(max(values) + 1)
    return tuple(sorted(values))


class SingleBuyerOutcome(NamedTuple):
    """Result of the truthful sell-to-one-firm mechanism.

    The winner is the firm whose standalone surplus max_x {V(x) - Q(x)} is
    highest; it buys its own optimal quantity and additionally pays the
    runner-up surplus for the right to buy (a second-price rule, which is
    what makes the mechanism truthful).
    """

    winner: int
    quantity: int
    allocation: tuple[int, ...]
    welfare: Fraction
    right_payment: Fraction
    scores: tuple[Fraction, ...]


def best_own_quantity(valuation: MarginalVector, cost: CostCurve) -> tuple[int, Fraction]:
    """Smallest maximizer and maximum of V(x) - Q(x) for one firm.

    Increments v(x) - (Q(x) - Q(x-1)) are non-increasing by concavity and
    convexity, so the scan stops at the first non-positive increment.
    """
    best = ZERO
    x = 0
    running = ZERO
    below = cost.cost(0)
    for j, v in enumerate(valuation.marginals, start=1):
        here = cost.cost(j)
        step = v - (here - below)
        if step <= 0:
            break
        running += step
        best = running
        x = j
        below = here
    return x, best


def single_buyer_mechanism(
    true_values: list[MarginalVector] | tuple[MarginalVector, ...],
    cost: CostCurve,
) -> SingleBuyerOutcome:
    """Run the sell-to-one-firm mechanism under truthful reporting."""
    truths = tuple(true_values)
    if not truths:
        raise ValidationError("at least one firm is required")
    plans = [best_own_quantity(v, cost) for v in truths]
    scores = tuple(score for _, score in plans)
    winner = max(range(len(truths)), key=lambda i: (scores[i], -i))
    quantity = plans[winner][0]
    allocation = tuple(quantity if i == winner else 0 for i in range(len(truths)))
    runner_up = max(
        (scores[i] for i in range(len(truths)) if i != winner), default=ZERO
    )
    return SingleBuyerOutcome(
        winner=winner,
        quantity=quantity,
        allocation=allocation,
        welfare=scores[winner],
        right_payment=runner_up,
        scores=scores,
    )

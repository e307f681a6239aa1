"""Uniform-price allocation rules.

The capped auction sells up to `cap` licenses between a price floor and a
price ceiling: if demand at the ceiling covers the cap, everyone buys at the
ceiling; if demand at the floor falls short of the cap, everyone buys at the
floor; otherwise exactly `cap` licenses go to the highest reported marginals.
`clear_valid` is the one clearing routine: `evaluate` clears truthful bids
with it, and the equilibrium search clears its integer bid vectors. Also
provides the safe price (average social cost at the cap) and the price
grid that the sweeps search.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .model import ZERO, CostCurve, MarginalVector, MarketInstance, ValidationError, rat

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


def clear_valid(
    params: AuctionParams,
    bids: list[MarginalVector] | tuple[MarginalVector, ...],
) -> tuple[tuple[int, ...], Fraction, str]:
    """Allocation, uniform unit price and binding case on reported bids,
    which the caller has already validated (non-negative, non-increasing).

    With no cap the floor always binds, whatever the ceiling.
    """
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


def safe_price(cost: CostCurve, cap: int) -> Fraction:
    """Average social cost per license when the full cap is sold."""
    if cap is None or cap < 1:
        raise ValidationError(f"safe price needs cap >= 1, got {cap}")
    return cost.cost(cap) / cap


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

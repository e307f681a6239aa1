"""Slow reference constructions that the tests check the package against.

Not a test module (pytest collects only `test_*.py`); the test modules
import it by name, since pytest puts this directory on `sys.path`.
"""

import itertools
import math
from fractions import Fraction
from typing import Sequence

from capauction import (
    LOWEST_WINNING, AuctionParams, CostCurve, MarginalVector, MarketInstance, safe_price
)


def combined_valuation(valuations: Sequence[MarginalVector], x: int) -> Fraction:
    """Maximum total value from splitting x licenses among the firms.

    By concavity this is the sum of the x largest marginals across all
    firms, which matches the exhaustive partition maximum.
    """
    if x <= 0:
        return Fraction(0)
    pool = sorted((v for mv in valuations for v in mv.marginals), reverse=True)
    return sum(pool[:x], Fraction(0))


def make_safe_auction(cap: int, cost: CostCurve, pricing: str = LOWEST_WINNING) -> AuctionParams:
    """Capped auction whose floor is the average cost of selling the cap."""
    return AuctionParams(cap=cap, floor=safe_price(cost, cap), ceiling=None, pricing=pricing)


def scenario_product(
    instance: MarketInstance,
) -> list[tuple[Fraction, tuple[int, ...], tuple[MarginalVector, ...]]]:
    """(probability, type indices, valuations) of every scenario, in the
    package's scenario order: a joint table's rows as given (each row its
    own type), else the cartesian product of the firms' types with the last
    firm's type changing fastest. No firms give one empty scenario."""
    if instance.joint is not None:
        return [(p, (r,), vs) for r, (p, vs) in enumerate(instance.joint)]
    return [
        (
            math.prod((p for _, (p, _) in combo), start=Fraction(1)),
            tuple(t for t, _ in combo),
            tuple(v for _, (_, v) in combo),
        )
        for combo in itertools.product(*(tuple(enumerate(f.scenarios)) for f in instance.firms))
    ]


def bid_levels(instance: MarketInstance, params: AuctionParams) -> tuple[Fraction, ...]:
    """Zero, every true marginal, the floor and a finite ceiling, sorted."""
    values = {v for mv in instance.all_valuations() for v in mv.marginals}
    values.add(Fraction(0))
    values.add(params.floor)
    if params.ceiling is not None:
        values.add(params.ceiling)
    return tuple(sorted(values))

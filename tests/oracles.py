"""Slow reference constructions that the tests check the package against.

Not a test module (pytest collects only `test_*.py`); the test modules
import it by name, since pytest puts this directory on `sys.path`.
"""

from fractions import Fraction
from typing import Sequence

from capauction import LOWEST_WINNING, AuctionParams, CostCurve, MarginalVector, safe_price


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

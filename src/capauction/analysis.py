"""Exact expected-welfare analysis over discrete valuation distributions.

Expectations are full enumerations of the (product or explicit joint)
scenario space; parameter search is exhaustive over the finite price grid
and cap range, so optimization results are exact rather than approximate.

Under truthful bids the welfare of scenario s depends only on the quantity
q sold: W_s(q) = prefix_s[q] - C(q), where prefix_s[q] sums the q largest
positive marginals of the scenario pooled across firms and C is the social
cost. With D_s(p) the number of pooled marginals at or above p (the
positive ones when p <= 0) and no ceiling meaning D_s(ceiling) = 0,

    q = D_s(ceiling)          if D_s(ceiling) >= cap,
    q = min(cap, D_s(floor))  otherwise,

and q = D_s(floor) for an unbounded cap, which ignores the ceiling.
This module owns scenario order (`_factors`, `_per_scenario`) and the
integer encoding (`_integers`, `_scaled`); `Analysis`, `bounds` and the
equilibrium search fold scenarios and encode rationals only through them.
`Analysis` is the one truthful path per instance. It checks the scenario
count against the limit before any other work, then builds its integer
tables straight from the firm types (or the joint rows): D_s, p_s * W_s(q)
and each cap's safe price. Every function here and in `bounds` reads from
it. Sweeps (`optimize_cap_and_price`, `optimize_safe`), single auctions
(`Analysis.welfare`, `Analysis.safe_welfare`), sell-out probabilities and
the certificates are lookups on those arrays. The
Fraction scenario rows of `enumerate_scenarios` serve only `evaluate`,
which prints each scenario's auction, and the reference oracle
`expected_welfare`, which clears every scenario with `auction.run_auction`
and which the lookups are tested against.

Where code lives: run without cached bytecode (`PYTHONDONTWRITEBYTECODE`),
each process compiles every module it imports from source, so this module
holds only what `optimize`, `evaluate` and `equilibrium` read. The helpers
that only certificates call (`one_minus_inv_e`, `demand_quantile_cap`,
`single_buyer_expected`) live in `bounds`, which only `verify` loads.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from operator import add, attrgetter, getitem, mul
from typing import NamedTuple

from .auction import (
    AuctionParams,
    LOWEST_WINNING,
    price_candidates,
    run_auction,
    safe_price,
)
from .model import (
    ZERO,
    MarginalVector,
    MarketInstance,
    TooLargeError,
    ValidationError,
)

DEFAULT_SCENARIO_LIMIT = 100_000
DEFAULT_PROFILE_LIMIT = 200_000  # grid profiles an equilibrium search may enumerate
DEFAULT_GAP_LIMIT = 20  # largest quantity of verify's `unsafe` scan without --cap-limit


class ScenarioRow(NamedTuple):
    probability: Fraction
    valuations: tuple[MarginalVector, ...]


def _factors(instance: MarketInstance) -> tuple:
    """Independent factors of the scenario space, each a sequence of
    (probability, valuations) types: one per firm, or the joint table's rows."""
    if instance.joint is not None:
        return (instance.joint,)
    return tuple(tuple((p, (v,)) for p, v in f.scenarios) for f in instance.firms)


def _per_scenario(values, start, combine) -> list:
    """Every scenario's fold of `combine` from `start` over its types'
    values, in scenario order: the product of the factors, the last
    factor's type changing fastest. `values` gives, factor by factor, the
    value of each of that factor's types."""
    rows = [start]
    for of_types in values:
        rows = [combine(row, value) for row in rows for value in of_types]
    return rows


def _scaled(values, scale: int) -> list[int]:
    """`values` times `scale` as ints; `scale` is a multiple of every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _integers(values, base: int = 1) -> tuple[int, list[int]]:
    """The lcm of `base` and the values' denominators, and the values over it as ints."""
    values = list(values)
    scale = math.lcm(base, *(v.denominator for v in values))
    return scale, _scaled(values, scale)


def _check_scenario_limit(instance: MarketInstance, limit: int) -> tuple:
    """The instance's `_factors`, once their product fits in `limit`."""
    if limit < 1:
        raise ValidationError(f"scenario limit must be at least 1, got {limit}")
    factors = _factors(instance)
    size = math.prod(map(len, factors))
    if size > limit:
        kind = "scenario product" if instance.joint is None else "joint table"
        raise TooLargeError(f"{kind} has {size} rows, limit {limit}")
    return factors


def enumerate_scenarios(
    instance: MarketInstance, limit: int = DEFAULT_SCENARIO_LIMIT
) -> tuple[ScenarioRow, ...]:
    """Materialize the scenario space with exact probabilities. Raises
    TooLargeError before materializing anything bigger than `limit`."""
    factors = _check_scenario_limit(instance, limit)
    return tuple(map(
        ScenarioRow,
        _per_scenario(([p for p, _ in types] for types in factors), Fraction(1), mul),
        _per_scenario(([vs for _, vs in types] for types in factors), (), add),
    ))


class Analysis:
    """Everything the truthful analysis of one instance reads, computed once.

    Holds the price grid, the largest pooled demand and the validated cap
    search bound `cap_limit` (default: that demand, at least 1). Values are
    kept as integer multiples of 1/scale (scale: the lcm of the grid's
    denominators) and probabilities as integer multiples of 1/weight: each
    type's positive marginals and probability are encoded once, and
    `_per_scenario` combines them per scenario. Per scenario it keeps the
    ascending positive pooled marginals (for D_s, memoized per price) and,
    once a sweep asks for them, p_s * W_s(q) for every quantity q the sweep
    can sell, so a candidate costs one demand lookup and one integer sum
    per scenario.
    The no-ceiling optimum is computed on first read and kept.
    """

    def __init__(
        self,
        instance: MarketInstance,
        scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
        cap_limit: int | None = None,
    ):
        self._factors = factors = _check_scenario_limit(instance, scenario_limit)
        self.instance = instance
        self.scenario_limit = scenario_limit
        self.grid = price_candidates(instance)
        self._scale = scale = math.lcm(*(g.denominator for g in self.grid))
        weights = [_integers(p for p, _ in types) for types in factors]
        self._weight = math.prod(weight for weight, _ in weights)
        self._probs = _per_scenario((probs for _, probs in weights), 1, mul)
        self._pools = [sorted(pool) for pool in _per_scenario(
            ([_scaled((v for mv in vs for v in mv.marginals if v > 0), scale) for _, vs in types]
             for types in factors),
            [], add,
        )]
        self.max_demand = max(map(len, self._pools), default=0)
        if cap_limit is None:
            cap_limit = max(1, self.max_demand)
        elif cap_limit < 1:
            raise ValidationError(f"cap limit must be at least 1, got {cap_limit}")
        self.cap_limit = cap_limit
        self._demands: dict[Fraction, list[int]] = {}
        self._safe_prices: dict[int, Fraction] = {}
        self._reach = -1  # rows cover quantities up to min(len(pool), _reach)
        self._nums: list[list[int]] = []
        self._cost: list[int] = []  # C(q) * (_den // _weight) for q up to _reach
        self._den = 1

    def demand(self, price: Fraction) -> list[int]:
        """D_s(price) for every scenario, memoized per price."""
        demands = self._demands.get(price)
        if demands is None:
            # v / scale >= price iff v >= ceil(price * scale) for integer v; the
            # pools hold positive marginals only, so a price <= 0 counts them all.
            least = math.ceil(price * self._scale)
            demands = [len(pool) - bisect_left(pool, least) for pool in self._pools]
            self._demands[price] = demands
        return demands

    def _tabulate(self, reach: int | None) -> None:
        """Make the p_s * W_s(q) rows cover every quantity up to `reach`.

        `reach` is the largest quantity a caller can sell, or None for every
        scenario's whole demand (an uncapped or ceiled sweep can sell it).
        Cost is tabulated no further, and a cost curve undefined that far
        raises here, before any welfare is read. The rows are rebuilt only
        when they must grow.
        """
        reach = self.max_demand if reach is None else min(reach, self.max_demand)
        if reach <= self._reach:
            return
        tops = [min(len(pool), reach) for pool in self._pools]
        scale, self._cost = _integers(map(self.instance.cost.cost, range(reach + 1)), self._scale)
        up = scale // self._scale
        self._nums = []
        for p, pool, top in zip(self._probs, self._pools, tops):
            prefix = itertools.accumulate(
                (v * up for v in reversed(pool[len(pool) - top:])), initial=0
            )
            self._nums.append([p * (v - c) for v, c in zip(prefix, self._cost)])
        self._den = scale * self._weight
        self._reach = reach

    def welfare(self, cap: int | None, floor: Fraction, ceiling: Fraction | None = None) -> Fraction:
        """Equals expected_welfare(self, AuctionParams(cap, floor, ceiling)).

        Tabulates no further than the largest quantity this auction sells.
        """
        at_floor = self.demand(floor)
        if cap is None:
            sold = at_floor
        elif ceiling is None:
            sold = [d if d < cap else cap for d in at_floor]
        else:
            sold = [
                c if c >= cap else (d if d < cap else cap)
                for c, d in zip(self.demand(ceiling), at_floor)
            ]
        self._tabulate(max(sold, default=0))
        return Fraction(sum(map(getitem, self._nums, sold)), self._den)

    def sold_out_welfare(self, cap: int, floor: Fraction) -> Fraction:
        """Sum of p_s * W_s(cap) over the scenarios whose demand at the
        floor reaches the cap."""
        self._tabulate(cap)
        return Fraction(
            sum(nums[cap] for nums, d in zip(self._nums, self.demand(floor)) if d >= cap),
            self._den,
        )

    def safe_price(self, cap: int) -> Fraction:
        """`auction.safe_price` of the instance's cost, memoized per cap."""
        price = self._safe_prices.get(cap)
        if price is None:
            price = self._safe_prices[cap] = safe_price(self.instance.cost, cap)
        return price

    def safe_welfare(self, cap: int) -> Fraction:
        """Expected welfare of the safe-price auction with this cap; 0 for
        cap 0, the convention used when a bound halves an odd cap."""
        if cap == 0:
            return ZERO
        self._tabulate(cap)
        return self.welfare(cap, self.safe_price(cap))

    @cached_property
    def no_ceiling_optimum(self) -> OptResult:
        return optimize_cap_and_price(self, allow_ceiling=False)


def expected_welfare(analysis: Analysis, params: AuctionParams) -> Fraction:
    """Probability-weighted welfare under truthful bidding."""
    cost = analysis.instance.cost
    total = ZERO
    for row in enumerate_scenarios(analysis.instance, analysis.scenario_limit):
        total += row.probability * run_auction(params, row.valuations, cost).welfare
    return total


class Candidate(NamedTuple):
    cap: int | None
    floor: Fraction
    ceiling: Fraction | None
    expected_welfare: Fraction


class OptResult(NamedTuple):
    params: AuctionParams
    expected_welfare: Fraction
    searched: int
    table: tuple[Candidate, ...]


def optimize_cap_and_price(analysis: Analysis, allow_ceiling: bool = True) -> OptResult:
    """Exhaustive exact search for the welfare-best cap and price band.

    The price grid is welfare-exhaustive (see price_candidates), and a
    sentinel cap one above the search bound stands in for every larger cap,
    so the reported maximum is the true optimum over all parameter choices,
    not a discretization of it. Candidates come cap by cap, floors
    ascending, each floor's no-ceiling candidate before its ceilings.
    The maximum has the largest welfare; ties prefer the smaller cap, then
    the larger floor, then the larger ceiling (no ceiling counts as the
    largest). Candidates are compared as integer welfare numerators over
    the common denominator, with grid indices standing in for prices.
    Where neither the cap nor the ceiling binds in any scenario, a
    candidate reuses the numerator of the one it sells the same as.
    """
    if isinstance(analysis, MarketInstance):  # callers holding only an instance get the defaults
        analysis = Analysis(analysis)
    grid = analysis.grid
    analysis._tabulate(None if allow_ceiling else analysis.cap_limit + 1)
    nums = analysis._nums
    demands = [analysis.demand(price) for price in grid]
    # max_s D_s at each grid price; demand falls as the price rises, so this
    # is non-increasing along the grid, and the sentinel's is 0.
    most = [max(at_price, default=0) for at_price in demands]
    uncapped: dict[int, int] = {}  # floor index -> its numerator with no binding cap
    top = len(grid)  # the ceiling index of "no ceiling"
    found = []  # (welfare numerator, -cap, floor index, ceiling index)
    for cap in range(1, analysis.cap_limit + 2):  # cap_limit + 1 is the sentinel
        # A ceiling with D_s(ceiling) <= cap in every scenario sells what the
        # capped floor alone sells; so does every higher ceiling.
        free = next(j for j, m in enumerate(most) if m <= cap)
        for i, at_floor in enumerate(demands):
            # Where the cap binds nowhere the floor's uncapped numerator is
            # reused. It is computed on first need: with a cap limit below the
            # largest demand, the rows reach only as far as such a cap.
            if most[i] <= cap:
                num = uncapped.get(i)
                if num is None:
                    num = uncapped[i] = sum(map(getitem, nums, at_floor))
                capped = at_floor
            else:
                capped = [d if d < cap else cap for d in at_floor]
                num = sum(map(getitem, nums, capped))
            found.append((num, -cap, i, top))
            if allow_ceiling:
                for j in range(i + 1, free):
                    sold = [c if c >= cap else q for c, q in zip(demands[j], capped)]
                    found.append((sum(map(getitem, nums, sold)), -cap, i, j))
                found.extend((num, -cap, i, j) for j in range(max(i + 1, free), top))
    den = analysis._den
    welfare = {num: Fraction(num, den) for num in {num for num, _, _, _ in found}}
    table = tuple(
        Candidate(-cap, grid[i], None if j == top else grid[j], welfare[num])
        for num, cap, i, j in found
    )
    best = table[found.index(max(found))]
    return OptResult(
        params=AuctionParams(best.cap, best.floor, best.ceiling, LOWEST_WINNING),
        expected_welfare=best.expected_welfare,
        searched=len(table),
        table=table,
    )


def optimize_safe(analysis: Analysis) -> OptResult:
    """Best safe-price auction: argmax over caps with floor pinned to the
    average cost of the cap."""
    analysis._tabulate(analysis.cap_limit)  # once, not growing cap by cap
    table = tuple(
        Candidate(cap, analysis.safe_price(cap), None, analysis.safe_welfare(cap))
        for cap in range(1, analysis.cap_limit + 1)
    )
    best = max(table, key=attrgetter("expected_welfare"))  # ties keep the smaller cap
    return OptResult(
        params=AuctionParams(best.cap, best.floor, None, LOWEST_WINNING),
        expected_welfare=best.expected_welfare,
        searched=len(table),
        table=table,
    )


def sell_out_probability(analysis: Analysis, params: AuctionParams) -> Fraction:
    """Probability that demand at the floor reaches the cap."""
    if params.cap is None:
        raise ValidationError("sell-out probability needs a bounded cap")
    cap = params.cap
    return Fraction(
        sum(p for p, d in zip(analysis._probs, analysis.demand(params.floor)) if d >= cap),
        analysis._weight,
    )


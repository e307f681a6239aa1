"""Scenario order, the integer encoding and the per-instance tables.

Under truthful bids the welfare of scenario s depends only on the quantity
q sold: W_s(q) = prefix_s[q] - C(q), where prefix_s[q] sums the q largest
positive marginals of the scenario pooled across firms and C is the social
cost. With D_s(p) the number of pooled marginals at or above p (the
positive ones when p <= 0) and no ceiling meaning D_s(ceiling) = 0,

    q = D_s(ceiling)          if D_s(ceiling) >= cap,
    q = min(cap, D_s(floor))  otherwise,

and q = D_s(floor) for an unbounded cap, which ignores the ceiling.
This module owns scenario order (`_factors`, `_per_scenario`) and the
integer encoding (`_integers`, `_scaled`); `Analysis`, `analysis`,
`bounds` and the equilibrium search fold scenarios and encode rationals
only through them. `Analysis` is the one truthful path per instance. It
checks the scenario count against the limit before any other work, then
builds its integer tables straight from the firm types (or the joint
rows): D_s, p_s * W_s(q) and each cap's safe price. The sweeps, single
auctions (`Analysis.welfare`, `Analysis.safe_welfare`), the sell-out
probability and welfare (`Analysis.sell_out_probability`,
`Analysis.sold_out_welfare`, both over the scenarios with D_s(floor) >=
cap), `evaluate`'s per-scenario welfares and the certificates are lookups
on those arrays, and the equilibrium search reads its price grid, type
weights and cost list from them.

Where code lives: run without cached bytecode (`PYTHONDONTWRITEBYTECODE`),
each process compiles every module it imports from source. Every
subcommand but `examples` and `generate` reads these tables, so they and
the resource limits that the parser's defaults name are here; the sweeps
and the `optimize` and `evaluate` handlers are in `analysis`, which an
`equilibrium` process does not load.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from operator import add, getitem, mul

from .auction import price_candidates, safe_price
from .model import ZERO, MarketInstance, TooLargeError, ValidationError

DEFAULT_SCENARIO_LIMIT = 100_000
DEFAULT_PROFILE_LIMIT = 200_000  # grid profiles an equilibrium search may enumerate
DEFAULT_GAP_LIMIT = 20  # largest quantity of verify's `unsafe` scan without --cap-limit


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


class Analysis:
    """Everything the truthful analysis of one instance reads, computed once.

    Holds the price grid, the largest pooled demand and the validated cap
    search bound `cap_limit` (default: that demand, at least 1). Values are
    kept as integer multiples of 1/scale (scale: the lcm of the grid's
    denominators) and probabilities as integer multiples of 1/weight: each
    type's positive marginals and probability are encoded once (`_weights`
    keeps each factor's lcm and type weights), and `_per_scenario` combines
    them per scenario. Per scenario it keeps the
    ascending positive pooled marginals (for D_s, memoized per price) and,
    once a sweep asks for them, p_s * W_s(q) for every quantity q the sweep
    can sell, so a candidate costs one demand lookup and one integer sum
    per scenario.
    The no-ceiling and safe-price optima are computed on first read and
    kept. The equilibrium search reads the price grid, the type weights
    and the cost list from here too.
    """

    def __init__(
        self,
        instance: MarketInstance,
        scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
        cap_limit: int | None = None,
    ):
        self._factors = factors = _check_scenario_limit(instance, scenario_limit)
        self.instance = instance
        self.grid = price_candidates(instance)
        self._scale = scale = math.lcm(*(g.denominator for g in self.grid))
        self._weights = weights = [_integers(p for p, _ in types) for types in factors]
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
        """Expected welfare of the auction with this cap, floor and ceiling
        under truthful bids.

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

    def sell_out_probability(self, cap: int, floor: Fraction) -> Fraction:
        """Probability that demand at the floor reaches the cap, the same
        scenarios `sold_out_welfare` sums."""
        return Fraction(
            sum(p for p, d in zip(self._probs, self.demand(floor)) if d >= cap), self._weight
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
        price = self.safe_price(cap)  # rejects a cap below 1 before any table is built
        self._tabulate(cap)
        return self.welfare(cap, price)

    @cached_property
    def no_ceiling_optimum(self) -> OptResult:
        # Imported here, so that only a process that reads the optimum
        # compiles the sweeps.
        from .analysis import optimize_cap_and_price

        return optimize_cap_and_price(self, allow_ceiling=False)

    @cached_property
    def safe_optimum(self) -> OptResult:
        from .analysis import optimize_safe  # on first read, as above

        return optimize_safe(self)

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
`Analysis` is the one truthful path per instance: it enumerates the
scenarios once and keeps D_s and p_s * W_s(q) per scenario, and every
function here and in `bounds` reads from it. Sweeps, sell-out
probabilities and demand quantiles are lookups on those arrays.
`expected_welfare`, which clears every scenario with `auction.run_auction`,
is the reference oracle the lookups are tested against.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import getitem
from typing import NamedTuple

from .auction import (
    AuctionParams,
    LOWEST_WINNING,
    best_own_quantity,
    make_safe_auction,
    price_candidates,
    run_auction,
    safe_price,
    single_buyer_mechanism,
)
from .model import (
    ZERO,
    MarginalVector,
    MarketInstance,
    TooLargeError,
    ValidationError,
    rat,
)

DEFAULT_SCENARIO_LIMIT = 100_000
DEFAULT_PROFILE_LIMIT = 200_000  # grid profiles an equilibrium search may enumerate


class ScenarioRow(NamedTuple):
    probability: Fraction
    valuations: tuple[MarginalVector, ...]


class ScenarioTable(NamedTuple):
    rows: tuple[ScenarioRow, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def total_probability(self) -> Fraction:
        return sum((r.probability for r in self.rows), ZERO)


def enumerate_scenarios(
    instance: MarketInstance, limit: int = DEFAULT_SCENARIO_LIMIT
) -> ScenarioTable:
    """Materialize the joint scenario space with exact probabilities.

    Product instances take the cartesian product of per-firm scenarios;
    joint instances pass their explicit table through. Raises TooLargeError
    before materializing anything bigger than `limit`.
    """
    if instance.joint is not None:
        if len(instance.joint) > limit:
            raise TooLargeError(
                f"joint table has {len(instance.joint)} rows, limit {limit}"
            )
        return ScenarioTable(
            tuple(ScenarioRow(p, vs) for p, vs in instance.joint)
        )
    size = math.prod(len(f.scenarios) for f in instance.firms)
    if size > limit:
        raise TooLargeError(f"scenario product has {size} rows, limit {limit}")
    rows = []
    for combo in itertools.product(*(f.scenarios for f in instance.firms)):
        prob = math.prod((p for p, _ in combo), start=Fraction(1))
        rows.append(ScenarioRow(prob, tuple(v for _, v in combo)))
    return ScenarioTable(tuple(rows))


class Analysis:
    """Everything the truthful analysis of one instance reads, computed once.

    Holds the scenario table (checked against `scenario_limit`), the price
    grid, the largest pooled demand and the validated cap search bound
    `cap_limit` (default: that demand, at least 1). Values are kept as
    integer multiples of 1/scale and probabilities as integer multiples of
    1/weight. Per scenario it keeps the ascending positive pooled marginals
    (for D_s, memoized per price) and, once a sweep asks for them, p_s *
    W_s(q) for every quantity q the sweep can sell, so a candidate costs one
    demand lookup and one integer sum per scenario. The no-ceiling optimum
    and the safe-welfare table are computed on first use and kept.
    """

    def __init__(
        self,
        instance: MarketInstance,
        scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
        cap_limit: int | None = None,
    ):
        self.instance = instance
        self.table = enumerate_scenarios(instance, scenario_limit)
        self.grid = price_candidates(instance)
        pools = [
            [v for mv in row.valuations for v in mv.marginals if v > 0]
            for row in self.table.rows
        ]
        self.max_demand = max(map(len, pools), default=0)
        if cap_limit is None:
            cap_limit = max(1, self.max_demand)
        elif cap_limit < 1:
            raise ValidationError(f"cap limit must be at least 1, got {cap_limit}")
        self.cap_limit = cap_limit
        self._scale = math.lcm(*(v.denominator for pool in pools for v in pool))
        self._pools = [
            sorted(v.numerator * (self._scale // v.denominator) for v in pool)
            for pool in pools
        ]
        self._weight = math.lcm(*(row.probability.denominator for row in self.table.rows))
        self._probs = [
            row.probability.numerator * (self._weight // row.probability.denominator)
            for row in self.table.rows
        ]
        self._demands: dict[Fraction, list[int]] = {}
        self._reach = -1  # rows cover quantities up to min(len(pool), _reach)
        self._nums: list[list[int]] = []
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

    def _tabulate(self, largest_cap: int | None) -> None:
        """Make the p_s * W_s(q) rows cover every quantity a sweep can sell.

        `largest_cap` is the largest cap swept, or None when some candidate
        is uncapped or has a ceiling (either can sell a scenario's whole
        demand). Cost is tabulated no further, and a cost curve undefined
        that far raises here, before any candidate is evaluated. Call once
        per sweep: the rows are rebuilt only when they must grow.
        """
        reach = math.inf if largest_cap is None else largest_cap
        if reach <= self._reach:
            return
        tops = [min(len(pool), reach) for pool in self._pools]
        cost = [self.instance.cost.cost(q) for q in range(max(tops, default=0) + 1)]
        scale = math.lcm(self._scale, *(c.denominator for c in cost))
        up = scale // self._scale
        cost = [c.numerator * (scale // c.denominator) for c in cost]
        self._nums = []
        for p, pool, top in zip(self._probs, self._pools, tops):
            prefix = itertools.accumulate(
                (v * up for v in reversed(pool[len(pool) - top:])), initial=0
            )
            self._nums.append([p * (v - c) for v, c in zip(prefix, cost)])
        self._den = scale * self._weight
        self._reach = reach

    def welfare(self, cap: int | None, floor: Fraction, ceiling: Fraction | None = None) -> Fraction:
        """Equals expected_welfare(self, AuctionParams(cap, floor, ceiling)).

        The rows must cover the quantities sold (see `_tabulate`).
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
        return Fraction(sum(map(getitem, self._nums, sold)), self._den)

    def sold_out_welfare(self, cap: int, floor: Fraction) -> Fraction:
        """Sum of p_s * W_s(cap) over the scenarios whose demand at the
        floor reaches the cap."""
        self._tabulate(cap)
        return Fraction(
            sum(nums[cap] for nums, d in zip(self._nums, self.demand(floor)) if d >= cap),
            self._den,
        )

    def safe_welfare(self, cap: int) -> Fraction:
        """Expected welfare of the safe-price auction with this cap; 0 for
        cap 0, the convention used when a bound halves an odd cap."""
        if cap == 0:
            return ZERO
        self._tabulate(cap)
        return self.welfare(cap, safe_price(self.instance.cost, cap))

    @cached_property
    def no_ceiling_optimum(self) -> OptResult:
        return optimize_cap_and_price(self, allow_ceiling=False)

    @cached_property
    def safe_welfares(self) -> dict[int, Fraction]:
        return safe_welfare_table(self)


def expected_welfare(analysis: Analysis, params: AuctionParams) -> Fraction:
    """Probability-weighted welfare under truthful bidding."""
    cost = analysis.instance.cost
    total = ZERO
    for row in analysis.table.rows:
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


def _preference_key(welfare: Fraction, cap: int, floor: Fraction, ceiling: Fraction | None):
    # Maximize welfare; ties prefer smaller cap, then larger floor, then
    # larger ceiling (no ceiling counts as the largest).
    ceiling_rank = (1, ZERO) if ceiling is None else (0, ceiling)
    return (welfare, -cap, floor, ceiling_rank)


def optimize_cap_and_price(analysis: Analysis, allow_ceiling: bool = True) -> OptResult:
    """Exhaustive exact search for the welfare-best cap and price band.

    The price grid is welfare-exhaustive (see price_candidates), and a
    sentinel cap one above the search bound stands in for every larger cap,
    so the reported maximum is the true optimum over all parameter choices,
    not a discretization of it. Candidates come cap by cap, floors ascending.
    """
    if isinstance(analysis, MarketInstance):  # callers holding only an instance get the defaults
        analysis = Analysis(analysis)
    grid = analysis.grid
    analysis._tabulate(None if allow_ceiling else analysis.cap_limit + 1)
    caps = list(range(1, analysis.cap_limit + 2))  # cap_limit + 1 is the sentinel
    params_list = []
    for cap in caps:
        for floor in grid:
            params_list.append(AuctionParams(cap, floor, None, LOWEST_WINNING))
            if allow_ceiling:
                for ceiling in grid:
                    if ceiling > floor:
                        params_list.append(AuctionParams(cap, floor, ceiling, LOWEST_WINNING))
    welfares = [analysis.welfare(p.cap, p.floor, p.ceiling) for p in params_list]

    rows = []
    best = None
    best_key = None
    best_w = None
    for p, w in zip(params_list, welfares):
        rows.append(Candidate(p.cap, p.floor, p.ceiling, w))
        key = _preference_key(w, p.cap, p.floor, p.ceiling)
        if best_key is None or key > best_key:
            best, best_key, best_w = p, key, w
    return OptResult(
        params=best,
        expected_welfare=best_w,
        searched=len(params_list),
        table=tuple(rows),
    )


def optimize_safe(analysis: Analysis) -> OptResult:
    """Best safe-price auction: argmax over caps with floor pinned to the
    average cost of the cap."""
    welfares = analysis.safe_welfares
    cost = analysis.instance.cost
    params_list = [make_safe_auction(c, cost) for c in range(1, analysis.cap_limit + 1)]
    rows = []
    best = None
    best_w = None
    for p in params_list:
        w = welfares[p.cap]
        rows.append(Candidate(p.cap, p.floor, p.ceiling, w))
        if best_w is None or w > best_w:  # ties keep the smaller cap
            best, best_w = p, w
    return OptResult(
        params=best, expected_welfare=best_w, searched=len(params_list), table=tuple(rows)
    )


def safe_welfare_table(analysis: Analysis) -> dict[int, Fraction]:
    """Expected welfare of the safe-price auction for every cap in range.

    Includes the cap-0 convention (sell nothing, welfare 0) used when a
    bound halves an odd cap.
    """
    analysis._tabulate(analysis.cap_limit)
    return {cap: analysis.safe_welfare(cap) for cap in range(analysis.cap_limit + 1)}


def sell_out_probability(analysis: Analysis, params: AuctionParams) -> Fraction:
    """Probability that demand at the floor reaches the cap."""
    if params.cap is None:
        raise ValidationError("sell-out probability needs a bounded cap")
    return sum(
        (
            row.probability
            for row, d in zip(analysis.table.rows, analysis.demand(params.floor))
            if d >= params.cap
        ),
        ZERO,
    )


@lru_cache(maxsize=None)
def one_minus_inv_e(digits: int = 50) -> Fraction:
    """Rational over-approximation of 1 - 1/e, accurate to `digits` decimals.

    Built from the exact factorial series for e with a rigorous remainder
    bound, then rounded up, so the returned threshold is strictly above the
    irrational value (comparisons never accept a quantity the exact
    threshold would reject).
    """
    terms = 60  # 61! is far beyond 10**50, so the remainder is negligible
    e_low = sum((Fraction(1, math.factorial(k)) for k in range(terms + 1)), ZERO)
    e_high = e_low + Fraction(2, math.factorial(terms + 1))
    upper = 1 - Fraction(1, 1) / e_high  # strict upper bound on 1 - 1/e
    scale = 10**digits
    return Fraction(math.ceil(upper * scale), scale)


def demand_quantile_cap(
    analysis: Analysis,
    floor: Fraction,
    threshold: Fraction | None = None,
) -> int:
    """Largest cap demanded with probability at least `threshold`.

    Demand is measured at the given floor; the default threshold is the
    1 - 1/e over-approximation. Returns 0 when even one license is too
    rarely demanded.
    """
    floor = rat(floor)
    if threshold is None:
        threshold = one_minus_inv_e()
    else:
        threshold = rat(threshold)
        if not 0 < threshold < 1:
            raise ValidationError(f"threshold must be in (0,1), got {threshold}")
    demands = sorted(
        zip(analysis.demand(floor), (row.probability for row in analysis.table.rows))
    )
    # Pr[d >= c] scanning demands from the top down.
    best = 0
    tail = ZERO
    for demand, prob in reversed(demands):
        tail += prob
        if tail >= threshold:
            best = demand
            # Larger demands had tail < threshold; this is the largest c
            # with Pr[d >= c] >= threshold.
            break
    return best


def single_buyer_expected(analysis: Analysis) -> Fraction:
    """Expected welfare of the truthful sell-to-one-firm mechanism."""
    cost = analysis.instance.cost
    total = ZERO
    for row in analysis.table.rows:
        total += row.probability * single_buyer_mechanism(row.valuations, cost).welfare
    return total


def first_best_expected(analysis: Analysis) -> Fraction:
    """Expected welfare of the per-realization unconstrained optimum.

    By concavity and convexity the best quantity of the pooled curve is what
    one firm holding every scenario marginal would buy.
    """
    cost = analysis.instance.cost
    total = ZERO
    for row in analysis.table.rows:
        pool = sorted((v for mv in row.valuations for v in mv.marginals), reverse=True)
        total += row.probability * best_own_quantity(MarginalVector(tuple(pool)), cost)[1]
    return total

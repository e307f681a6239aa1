"""The capped uniform-price auction and the truthful analysis of one instance.

The seller sells up to `cap` licenses between a price floor and a price
ceiling. With D(p) the number of reported marginals at or above p (the
positive ones when p <= 0) and no ceiling meaning D(ceiling) = 0: if
D(ceiling) >= cap, everyone buys at the ceiling; if D(floor) < cap,
everyone buys at the floor; otherwise exactly `cap` licenses go to the
highest reported marginals. An unbounded cap always sells at the floor.
`clear_valid` is the one clearing routine, on plain tuples of marginals:
`evaluate` clears truthful Fraction bids with it, and the equilibrium
search its integer bid levels over its scale L. `price_candidates` is
the price grid that the sweeps search, and `Analysis.safe_price` the
safe price, the average social cost C(cap)/cap.

Every case sells the top reported units, so under truthful bids the
welfare of scenario s depends only on the quantity q sold: W_s(q) =
prefix_s[q] - C(q), where prefix_s[q] sums the q largest positive
marginals of the scenario pooled across firms and C is the social cost.
With D_s the scenario's pooled demand, the rule sells

    q = D_s(ceiling)          if D_s(ceiling) >= cap,
    q = min(cap, D_s(floor))  otherwise,

and q = D_s(floor) for an unbounded cap.

This module owns scenario order (`_factors`, `_per_scenario`) and the
integer encoding (`_integers`, `_scaled`); `Analysis`, `analysis`,
`bounds` and the equilibrium search fold scenarios and encode rationals
only through them. `Analysis` is the one truthful path per instance. It
checks the scenario count against its limit, and a given cap limit
against `CAP_LIMIT` (as `parse_cap` does a --cap), before any other work, then
builds its integer tables straight from the firm types (or the joint
rows): D_s, p_s * W_s(q) and each cap's safe price, the last two read
from one `model.costs` table of C(0..n) kept across calls. The sweeps,
single auctions (`Analysis.welfare`, `Analysis.safe_welfare`), the sell-out
probability and welfare (`Analysis.sell_out_probability`,
`Analysis.sold_out_welfare`, both over the scenarios with D_s(floor) >=
cap), `evaluate`'s per-scenario welfares and the certificates are lookups
on those arrays, and the equilibrium search reads its price grid, type
weights and cost list from them.

Where code lives: run without cached bytecode (`PYTHONDONTWRITEBYTECODE`),
each process compiles every module it imports from source. Every
subcommand but `examples` and `generate` clears or reads these tables,
so the rule, the tables, the scenario and cap limits, `parse_cap` and
the two options those four subcommands share (`add_common_arguments`:
--out and --scenario-limit) are here; `examples` and `generate` processes
never load this module. The sweeps and the `optimize` and `evaluate` handlers
are in `analysis`, which an `equilibrium` process does not load.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import add, getitem, mul

from .model import ZERO, MarketInstance, TooLargeError, ValidationError, at_least_one, costs, rat

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


def _demand(marginals, price) -> int:
    """Largest j whose marginal is at least `price`, for non-increasing
    marginals. `None` means an infinite price (demand 0). Only strictly
    positive marginals count, so demand at a price <= 0 is finite."""
    if price is None:
        return 0
    n = 0
    for v in marginals:
        if v < price or v <= 0:
            break
        n += 1
    return n


def clear_valid(
    bids, cap: int | None, floor, ceiling, pricing: str
) -> tuple[tuple[int, ...], Fraction | int, str]:
    """Allocation, uniform unit price and binding case of the module's
    rule on reported bids, which the caller has already validated
    (non-negative, non-increasing).

    Each bid is a tuple of marginals; they, the floor, the ceiling (None
    for none) and the price share one exact number type.
    """
    ceiling_demand = [_demand(b, ceiling) for b in bids]
    if cap is not None and sum(ceiling_demand) >= cap:
        allocation = tuple(ceiling_demand)
        price = ceiling
        case = CEILING_BINDS
    else:
        floor_demand = [_demand(b, floor) for b in bids]
        if cap is None or sum(floor_demand) < cap:
            allocation = tuple(floor_demand)
            price = floor
            case = FLOOR_BINDS
        else:
            # Exactly `cap` units go to the highest reported marginals.
            # Ties: lower firm index first, then earlier unit index.
            units = [
                (value, firm, unit)
                for firm, b in enumerate(bids)
                for unit, value in enumerate(b)
            ]
            units.sort(key=lambda t: (-t[0], t[1], t[2]))
            counts = [0] * len(bids)
            for _, firm, _ in units[:cap]:
                counts[firm] += 1
            allocation = tuple(counts)
            if pricing == LOWEST_WINNING:
                price = units[cap - 1][0]
            else:
                losing = units[cap][0] if len(units) > cap else ZERO
                price = max(floor, losing)
            case = CAP_BINDS
    return allocation, price, case


def price_candidates(instance: MarketInstance) -> tuple[Fraction, ...]:
    """Finite price grid that is welfare-exhaustive for floors and ceilings.

    Demand curves are step functions with breakpoints exactly at the
    reported marginal values, so any floor or ceiling is welfare-equivalent
    to the next grid value up. The grid is every distinct marginal across
    all scenarios of all firms, plus 0 and a sentinel above the maximum
    (which shuts every firm out).
    """
    values = {v for types in _factors(instance) for _, vs in types for vec in vs for v in vec}
    values.add(ZERO)
    values.add(max(values) + 1)
    return tuple(sorted(values))


DEFAULT_SCENARIO_LIMIT = 100_000
# The largest --cap-limit and --cap, refused before any table is built: a
# sweep walks caps one by one, and the unsafe scan and the safe price tabulate
# the cost that far. At this limit, on demand-reduction, `verify --which
# unsafe` takes about 0.5 s and `optimize` 0.55 s and 15 MB (2 vCPU, Python 3.11).
CAP_LIMIT = 100_000


def add_common_arguments(parser) -> None:
    """Declare the options of every subcommand that reads an instance's scenarios."""
    parser.add_argument("--out", help="write the CSV report here")
    parser.add_argument("--scenario-limit", type=int, default=DEFAULT_SCENARIO_LIMIT)


def parse_cap(text: str) -> int | None:
    """A --cap value: an integer up to CAP_LIMIT, or 'unbounded'/'inf' for no cap."""
    if text in ("unbounded", "inf"):
        return None
    try:
        cap = int(text)
    except ValueError:
        raise ValidationError(f"cap must be an integer or 'unbounded', got {text!r}") from None
    if cap > CAP_LIMIT:
        raise TooLargeError(f"cap {cap} is above the largest allowed, {CAP_LIMIT}")
    return cap


def _factors(instance: MarketInstance) -> tuple:
    """Independent factors of the scenario space, each a sequence of
    (probability, valuations) types: one per firm, or the joint table's rows."""
    if instance.joint is not None:
        return (instance.joint,)
    return tuple(tuple((p, (v,)) for p, v in firm) for firm in instance.firms)


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


def check_cap_limit(cap_limit: int | None) -> None:
    """Refuse a given cap limit below 1 or above `CAP_LIMIT`."""
    if cap_limit is not None:
        at_least_one(cap_limit, "cap limit")
        if cap_limit > CAP_LIMIT:
            raise TooLargeError(f"cap limit {cap_limit} is above the largest allowed, {CAP_LIMIT}")


def _check_scenario_limit(instance: MarketInstance, limit: int) -> tuple:
    """The instance's `_factors`, once their product fits in `limit`."""
    at_least_one(limit, "scenario limit")
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
    ascending positive pooled marginals (for D_s) and,
    once a sweep asks for them, p_s * W_s(q) for every quantity q the sweep
    can sell, so a candidate costs one demand lookup and one integer sum
    per scenario.
    The social cost is one `model.costs` table of C(0..n), kept across
    calls (`_costs`), from which both the rows and the safe prices read.
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
        check_cap_limit(cap_limit)
        self.instance = instance
        self.grid = price_candidates(instance)
        self._scale = scale = math.lcm(*(g.denominator for g in self.grid))
        self._weights = weights = [_integers(p for p, _ in types) for types in factors]
        self._weight = math.prod(weight for weight, _ in weights)
        self._probs = _per_scenario((probs for _, probs in weights), 1, mul)
        self._pools = [sorted(pool) for pool in _per_scenario(
            ([_scaled((v for vec in vs for v in vec if v > 0), scale) for _, vs in types]
             for types in factors),
            [], add,
        )]
        self.max_demand = max(map(len, self._pools), default=0)
        self.cap_limit = max(1, self.max_demand) if cap_limit is None else cap_limit
        self._known_costs: list[Fraction] = []  # C(0), C(1), ... as far as tabulated
        self._reach = -1  # rows cover quantities up to min(len(pool), _reach)
        self._nums: list[list[int]] = []
        self._cost: list[int] = []  # C(q) * (_den // _weight) for q up to _reach
        self._den = 1

    def demand(self, price: Fraction) -> list[int]:
        """D_s(price) for every scenario."""
        # v / scale >= price iff v >= ceil(price * scale) for integer v; the
        # pools hold positive marginals only, so a price <= 0 counts them all.
        least = math.ceil(price * self._scale)
        return [len(pool) - bisect_left(pool, least) for pool in self._pools]

    def _costs(self, n: int) -> list[Fraction]:
        """C(0), C(1), ... at least up to C(n), kept across calls and
        tabulated anew only when a call reaches past them; an "error" table
        short of n raises, naming the first quantity it lacks."""
        if len(self._known_costs) <= n:
            self._known_costs = costs(self.instance.cost, n)
        return self._known_costs

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
        scale, self._cost = _integers(self._costs(reach)[:reach + 1], self._scale)
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
        """Average social cost per license when the full cap is sold, C(cap)/cap."""
        if cap is None or cap < 1:
            raise ValidationError(f"safe price needs cap >= 1, got {cap}")
        return self._costs(cap)[cap] / cap

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

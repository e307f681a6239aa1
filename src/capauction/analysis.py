"""Exact expected-welfare analysis over discrete valuation distributions.

Expectations are full enumerations of the (product or explicit joint)
scenario space; parameter search is exhaustive over the finite price grid
and cap range, so optimization results are exact rather than approximate.
The sweeps (`optimize_cap_and_price`, `optimize_safe`) and `evaluate`'s
expectations, its sell-out probability included, are lookups on the
integer tables of `auction.Analysis`; the `auction` docstring derives
the quantity each auction sells. A sweep's `OptResult` holds its winning
`Candidate`, which has no pricing rule since truthful welfare does not
depend on one, and every candidate it searched. `evaluate` clears each scenario's
truthful marginals with `auction.clear_valid`; its welfare is the
table's entry at the quantity sold.

Where code lives: run without cached bytecode (`PYTHONDONTWRITEBYTECODE`),
each process compiles every module it imports from source. This module
holds the sweeps and the `optimize` and `evaluate` subcommands (their
arguments, declared by `add_arguments`, and their handlers), which `cli`
imports only to run one of them. `verify` loads it when it first reads
an optimum (`Analysis.no_ceiling_optimum`, `Analysis.safe_optimum`), and
an `equilibrium` process never does. The clearing rule and the
per-instance tables that every subcommand reads are in `auction`. The
helpers that only certificates call (`one_minus_inv_e`,
`demand_quantile_cap`, `best_own_quantity`, `single_buyer_expected`)
live in `bounds`, which only `verify` loads.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, attrgetter, getitem
from typing import NamedTuple

from .auction import (
    LOWEST_WINNING, PRICING_RULES, Analysis, AuctionParams, _per_scenario, add_common_arguments,
    clear_valid,
)
from .io import display, load_instance, parse_cap, parse_ceiling, rational_cells, write_report
from .model import ZERO, MarketInstance, ValidationError, rat


class Candidate(NamedTuple):
    cap: int | None
    floor: Fraction
    ceiling: Fraction | None
    expected_welfare: Fraction


class OptResult(NamedTuple):
    """A sweep's best candidate and every candidate it searched, in order."""

    winner: Candidate
    table: tuple[Candidate, ...]

    @property
    def searched(self) -> int:
        return len(self.table)


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
    return OptResult(table[found.index(max(found))], table)


def optimize_safe(analysis: Analysis) -> OptResult:
    """Best safe-price auction: argmax over caps with floor pinned to the
    average cost of the cap."""
    analysis._tabulate(analysis.cap_limit)  # once, not growing cap by cap
    table = tuple(
        Candidate(cap, analysis.safe_price(cap), None, analysis.safe_welfare(cap))
        for cap in range(1, analysis.cap_limit + 1)
    )
    best = max(table, key=attrgetter("expected_welfare"))  # ties keep the smaller cap
    return OptResult(best, table)


def add_arguments(parser, name: str) -> None:
    """Declare the arguments of the `evaluate` or `optimize` subcommand
    and set its handler."""
    parser.add_argument("instance")
    if name == "evaluate":
        parser.add_argument("--cap", required=True, help="positive integer or 'unbounded'")
        parser.add_argument("--floor", required=True)
        parser.add_argument("--ceiling", default="inf")
        parser.add_argument("--pricing", choices=PRICING_RULES, default=LOWEST_WINNING)
        parser.set_defaults(func=cmd_evaluate)
    else:
        parser.add_argument("--no-ceiling", action="store_true")
        parser.add_argument("--safe-only", action="store_true")
        parser.add_argument("--cap-limit", type=int)
        parser.set_defaults(func=cmd_optimize)
    add_common_arguments(parser)


def cmd_evaluate(args) -> int:
    """`capauction evaluate`: clear every scenario's auction with fixed
    parameters and print the expectations.

    Each scenario's truthful bids are cleared by `clear_valid`; its welfare
    is the `Analysis` row entry at the quantity sold, since every case
    sells the top reported units.
    """
    instance = load_instance(args.instance)
    params = AuctionParams(
        cap=parse_cap(args.cap),
        floor=rat(args.floor),
        ceiling=parse_ceiling(args.ceiling),
        pricing=args.pricing,
    )
    if params.cap is None and params.ceiling is not None:
        raise ValidationError("an unbounded cap never reaches a ceiling; it takes no --ceiling")
    analysis = Analysis(instance, args.scenario_limit)
    scenarios = _per_scenario(([vs for _, vs in types] for types in analysis._factors), (), add)
    outcomes = [clear_valid(bids, *params) for bids in scenarios]
    sold = [sum(allocation) for allocation, _, _ in outcomes]
    analysis._tabulate(max(sold))
    probs, weight = analysis._probs, analysis._weight
    unit = analysis._den // weight  # _nums[s][q] is W_s(q) * _probs[s] * unit
    revenue = sum((p * price * q for p, (_, price, _), q in zip(probs, outcomes, sold)), ZERO)

    print(f"instance: {instance.label or args.instance}")
    print(f"scenarios: {len(outcomes)}")
    print(f"expected welfare: {display(analysis.welfare(params.cap, params.floor, params.ceiling))}")
    print(f"expected revenue: {display(revenue / weight)}")
    if params.cap is not None:
        sell_out = analysis.sell_out_probability(params.cap, params.floor)
        print(f"sell-out probability: {display(sell_out)}")
    header = [
        "scenario", "probability", "probability_dec", "allocation", "unit_price",
        "unit_price_dec", "case", "welfare", "welfare_dec", "revenue", "revenue_dec",
    ]
    rows = (
        [str(idx), *rational_cells(Fraction(p, weight)), "|".join(map(str, allocation)),
         *rational_cells(price), case, *rational_cells(Fraction(nums[q], p * unit)),
         *rational_cells(price * q)]
        for idx, (p, nums, q, (allocation, price, case))
        in enumerate(zip(probs, analysis._nums, sold, outcomes))
    )
    write_report(args.out, header, rows)
    return 0


def cmd_optimize(args) -> int:
    """`capauction optimize`: search the best cap and price band, or the
    best safe-price auction."""
    instance = load_instance(args.instance)
    analysis = Analysis(instance, args.scenario_limit, args.cap_limit)
    if args.safe_only:
        result = optimize_safe(analysis)
        kind = "best safe-price auction"
    else:
        result = optimize_cap_and_price(analysis, allow_ceiling=not args.no_ceiling)
        kind = "best cap-and-price auction"
    best = result.winner
    print(f"instance: {instance.label or args.instance}")
    print(f"{kind} over {result.searched} candidates:")
    print(f"  cap: {best.cap}")
    print(f"  floor: {display(best.floor)}")
    print(f"  ceiling: {display(best.ceiling)}")
    print(f"  expected welfare: {display(best.expected_welfare)}")
    header = ["cap", "floor", "floor_dec", "ceiling", "ceiling_dec", "welfare", "welfare_dec"]
    # A table has few distinct floors, ceilings and welfares: each is
    # formatted once, keyed by its value (not its grid position, since
    # --safe-only floors are off the grid).
    formatted: dict[tuple[int, int], list[str]] = {}

    def cells(value: Fraction | None) -> list[str]:
        if value is None:
            return rational_cells(None)
        key = value.numerator, value.denominator
        got = formatted.get(key)
        if got is None:
            got = formatted[key] = rational_cells(value)
        return got

    rows = (
        [str(cand.cap), *cells(cand.floor), *cells(cand.ceiling), *cells(cand.expected_welfare)]
        for cand in result.table
    )
    write_report(args.out, header, rows)
    return 0

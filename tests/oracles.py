"""Slow reference constructions that the tests check the package against,
and the small builders only tests use.

`run_auction` clears one scenario's Fraction bids and values its welfare
unit by unit (`welfare_of`); it is the reference that the package's
integer tables and integer clearing are checked against.

Not a test module (pytest collects only `test_*.py`); the test modules
import it by name, since pytest puts this directory on `sys.path`.
"""

import itertools
import math
from fractions import Fraction
from operator import add, mul
from typing import NamedTuple, Sequence

from capauction import (
    LOWEST_WINNING,
    Analysis,
    AuctionParams,
    CostCurve,
    MarginalCostTable,
    MarginalVector,
    MarketInstance,
    QuadraticCost,
    ValidationError,
    rat,
    safe_price,
)
from capauction.auction import clear_valid
from capauction.bounds import best_own_quantity
from capauction.equilibrium import _GridGame
from capauction.model import REPEAT_LAST, ZERO
from capauction.tables import DEFAULT_SCENARIO_LIMIT, _check_scenario_limit, _per_scenario


def quadratic(a) -> QuadraticCost:
    return QuadraticCost(rat(a))


def cost_table(*values, extension: str = REPEAT_LAST) -> MarginalCostTable:
    return MarginalCostTable(tuple(rat(v) for v in values), extension)


def value_of(valuation: MarginalVector, x: int) -> Fraction:
    """Total value of x licenses (prefix sum; zero beyond the list)."""
    if x <= 0:
        return ZERO
    return sum(valuation.marginals[: min(x, len(valuation.marginals))], ZERO)


def welfare_of(
    valuations: Sequence[MarginalVector],
    allocation: Sequence[int],
    cost: CostCurve,
) -> Fraction:
    """Aggregate firm value minus social cost for a concrete allocation."""
    if len(valuations) != len(allocation):
        raise ValidationError(
            f"allocation covers {len(allocation)} firms, market has {len(valuations)}"
        )
    for i, x in enumerate(allocation):
        if x < 0:
            raise ValidationError(f"allocation[{i}] is negative")
    total = sum(allocation)
    value = sum((value_of(v, x) for v, x in zip(valuations, allocation)), ZERO)
    return value - cost.cost(total)


class Outcome(NamedTuple):
    """Realized allocation, uniform price, and which constraint bound."""

    allocation: tuple[int, ...]
    unit_price: Fraction
    case: str
    welfare: Fraction
    revenue: Fraction


def clear(
    params: AuctionParams,
    bids: list[MarginalVector] | tuple[MarginalVector, ...],
) -> tuple[tuple[int, ...], Fraction, str]:
    """`auction.clear_valid` on bids it first checks."""
    for i, b in enumerate(bids):
        problems = b.violations(f"bids[{i}]")
        if problems:
            raise ValidationError("; ".join(problems))
    return clear_valid([b.marginals for b in bids], *params)


def run_auction(
    params: AuctionParams,
    bids: list[MarginalVector] | tuple[MarginalVector, ...],
    cost: CostCurve,
    true_values: list[MarginalVector] | tuple[MarginalVector, ...] | None = None,
) -> Outcome:
    """Clear the auction on reported bids; value welfare at true curves.

    Allocation and price depend only on the bids (see `clear`); welfare is
    evaluated at `true_values` (defaults to the bids, i.e. truthful
    reporting) by `welfare_of`, unit by unit, not from the package's tables.
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


class ScenarioRow(NamedTuple):
    probability: Fraction
    valuations: tuple[MarginalVector, ...]


def enumerate_scenarios(
    instance: MarketInstance, limit: int = DEFAULT_SCENARIO_LIMIT
) -> tuple[ScenarioRow, ...]:
    """Materialize the scenario space with exact probabilities, in the
    package's scenario order. Raises TooLargeError before materializing
    anything bigger than `limit`."""
    factors = _check_scenario_limit(instance, limit)
    return tuple(map(
        ScenarioRow,
        _per_scenario(([p for p, _ in types] for types in factors), Fraction(1), mul),
        _per_scenario(([vs for _, vs in types] for types in factors), (), add),
    ))


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


def expected_welfare(
    analysis: Analysis, params: AuctionParams, limit: int = DEFAULT_SCENARIO_LIMIT
) -> Fraction:
    """Probability-weighted welfare under truthful bidding: every scenario
    of `enumerate_scenarios` (at most `limit`) cleared with `run_auction`."""
    cost = analysis.instance.cost
    total = ZERO
    for row in enumerate_scenarios(analysis.instance, limit):
        total += row.probability * run_auction(params, row.valuations, cost).welfare
    return total


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


def single_buyer_mechanism(
    true_values: Sequence[MarginalVector], cost: CostCurve
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


def satisfies_no_overbidding(
    report: MarginalVector, truth: MarginalVector, strict: bool = False
) -> bool:
    """Aggregate mode caps reported prefix sums by true values; strict mode
    additionally dominates marginal by marginal."""
    if strict:
        for j, b in enumerate(report.marginals, start=1):
            if b > value_of(truth, j) - value_of(truth, j - 1):
                return False
        return True
    running = ZERO
    for j, b in enumerate(report.marginals, start=1):
        running += b
        if running > value_of(truth, j):
            return False
    return True


class EagerReport(NamedTuple):
    """An `EquilibriumReport` with every field built at once."""

    params: AuctionParams
    epsilon: Fraction
    profiles: tuple[tuple[tuple[MarginalVector, ...], ...], ...]
    welfares: tuple[Fraction, ...]
    utilities: tuple[tuple[tuple[Fraction, ...], ...], ...]
    worst_welfare: Fraction | None
    searched: int


def eager_report(
    instance: MarketInstance, params: AuctionParams, epsilon=0, strict: bool = False
) -> EagerReport:
    """The grid-equilibrium search in Fractions, building every report field
    as it goes: each profile of the candidate product, in canonical order,
    is kept when no slot's best candidate beats its report by more than
    epsilon. Interim utilities are expectations of `run_auction` outcomes
    over the opponents' types, memoized per slot and opponent strategies;
    welfares clear every type draw with `run_auction` at true values."""
    epsilon = rat(epsilon)
    firms = instance.firms
    slots = [
        [candidate_reports(instance, params, i, t, strict) for t in range(len(f.scenarios))]
        for i, f in enumerate(firms)
    ]
    memo = {}

    def utilities(i, t, others):
        key = (i, t, others)
        if key not in memo:
            truth = firms[i].scenarios[t][1]
            rivals = instance._replace(firms=firms[:i] + firms[i + 1 :])
            draws = [(p, types) for p, types, _ in scenario_product(rivals)]
            memo[key] = got = {}
            for report in slots[i][t]:
                got[report] = ZERO
                for prob, types in draws:
                    bids = [strategy[k] for strategy, k in zip(others, types)]
                    out = run_auction(params, bids[:i] + [report] + bids[i:], instance.cost)
                    won = out.allocation[i]
                    got[report] += prob * (value_of(truth, won) - out.unit_price * won)
        return memo[key]

    profiles, welfares, rows = [], [], []
    strategies = [list(itertools.product(*per_type)) for per_type in slots]
    for profile in itertools.product(*strategies):
        row = []
        for i, strategy in enumerate(profile):
            per_type = [utilities(i, t, profile[:i] + profile[i + 1 :]) for t in range(len(strategy))]
            if any(max(u.values()) - u[r] > epsilon for u, r in zip(per_type, strategy)):
                break
            row.append(tuple(u[r] for u, r in zip(per_type, strategy)))
        else:
            welfare = ZERO
            for prob, types, truths in scenario_product(instance):
                bids = [strategy[t] for strategy, t in zip(profile, types)]
                welfare += prob * run_auction(params, bids, instance.cost, truths).welfare
            profiles.append(profile)
            welfares.append(welfare)
            rows.append(tuple(row))
    return EagerReport(
        params, epsilon, tuple(profiles), tuple(welfares), tuple(rows),
        min(welfares) if welfares else None, math.prod(map(len, strategies)),
    )


def candidate_reports(
    instance: MarketInstance,
    params: AuctionParams,
    firm: int,
    type_index: int,
    strict: bool = False,
) -> tuple[MarginalVector, ...]:
    """All grid strategies available to one firm type, canonically sorted:
    that slot of the game a search with these parameters walks."""
    game = _GridGame(Analysis(instance), params, strict)
    return game.vectors(game.candidates(firm, type_index))

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
from collections import Counter
from fractions import Fraction
from operator import add, mul
from typing import NamedTuple, Sequence

from capauction import (
    LOWEST_WINNING,
    Analysis,
    AuctionParams,
    CostCurve,
    MarginalCostTable,
    MarketInstance,
    QuadraticCost,
    ValidationError,
    rat,
    scale_weight,
)
from capauction.auction import (
    DEFAULT_SCENARIO_LIMIT, _check_scenario_limit, _integers, _per_scenario, clear_valid
)
from capauction.bounds import (
    BoundCertificate, best_own_quantity, verify_ceiling_removal, verify_decomposition_bounds,
    verify_price_gap, verify_sellout_conditional, verify_sellout_factor, verify_single_buyer_cover,
)
from capauction.equilibrium import _GridGame
from capauction.model import REPEAT_LAST, ZERO, Firm, Valuation, _valuation_violations


def quadratic(a) -> QuadraticCost:
    return QuadraticCost(rat(a))


def cost_table(*values, extension: str = REPEAT_LAST) -> MarginalCostTable:
    return MarginalCostTable(tuple(rat(v) for v in values), extension)


def cost_of(cost: CostCurve, x: int) -> Fraction:
    """C(x) by its direct formula: a * x^2, or the sum of a table's first x
    entries with its last entry repeated past the end. Past the end of an
    "error" table it raises the error that `model.costs` raises, naming the
    first quantity the table lacks."""
    if isinstance(cost, QuadraticCost):
        return cost.a * x * x
    table = cost.marginals
    if x > len(table) and cost.extension != REPEAT_LAST:
        raise ValidationError(
            f"quantity {len(table) + 1} beyond cost table of length {len(table)} "
            f"(extension policy {cost.extension!r})"
        )
    return sum(table[:x], ZERO) + (table[-1] if table else ZERO) * max(0, x - len(table))


def safe_price(cost: CostCurve, cap: int) -> Fraction:
    """Average social cost per license when the full cap is sold, C(cap)/cap."""
    return cost_of(cost, cap) / cap


class CountedEntries(tuple):
    """A cost table's entries, counting how often each index is read."""

    def __new__(cls, values):
        entries = super().__new__(cls, values)
        entries.reads = Counter()
        return entries

    def __iter__(self):
        for j, value in enumerate(tuple.__iter__(self)):
            self.reads[j] += 1
            yield value

    def __getitem__(self, key):
        indices = range(len(self))[key]
        self.reads.update(indices if isinstance(key, slice) else [indices])
        return tuple.__getitem__(self, key)


def mv(*values) -> Valuation:
    """A valuation from its marginals, each coerced by `rat`."""
    return tuple(rat(v) for v in values)


def point_mass(valuation: Valuation) -> Firm:
    """A firm with one type, of probability 1."""
    return ((Fraction(1), valuation),)


def firm_distribution(*scenarios) -> Firm:
    """A firm's types from (probability, valuation) pairs, each probability
    coerced by `rat`."""
    return tuple((rat(p), v) for p, v in scenarios)


def split_logscale(n: int, m: int, joint: bool = False) -> MarketInstance:
    """`logscale(n)` split across m firms: in type i each firm holds
    max(1, floor(2^i / m)) units of value 2^(i+1), and type i has
    `logscale`'s probability 4^-i / scale_weight(n). The firms draw their
    types independently, or with `joint` all draw the same type, as one
    joint table."""
    beta = scale_weight(n)
    types = tuple(
        (Fraction(1, 4**i) / beta, (Fraction(2 ** (i + 1)),) * max(1, 2**i // m))
        for i in range(1, n + 1)
    )
    if joint:
        rows = tuple((p, (v,) * m) for p, v in types)
        return MarketInstance((), QuadraticCost(Fraction(1)), joint=rows)
    return MarketInstance((types,) * m, QuadraticCost(Fraction(1)))


def value_of(valuation: Valuation, x: int) -> Fraction:
    """Total value of x licenses (prefix sum; zero beyond the list)."""
    if x <= 0:
        return ZERO
    return sum(valuation[:x], ZERO)


def welfare_of(
    valuations: Sequence[Valuation],
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
    return value - cost_of(cost, total)


class Outcome(NamedTuple):
    """Realized allocation, uniform price, and which constraint bound."""

    allocation: tuple[int, ...]
    unit_price: Fraction
    case: str
    welfare: Fraction
    revenue: Fraction


def clear(
    params: AuctionParams,
    bids: list[Valuation] | tuple[Valuation, ...],
) -> tuple[tuple[int, ...], Fraction, str]:
    """`auction.clear_valid` on bids it first checks."""
    for i, b in enumerate(bids):
        problems = _valuation_violations(b, f"bids[{i}]")
        if problems:
            raise ValidationError("; ".join(problems))
    return clear_valid(bids, *params)


def run_auction(
    params: AuctionParams,
    bids: list[Valuation] | tuple[Valuation, ...],
    cost: CostCurve,
    true_values: list[Valuation] | tuple[Valuation, ...] | None = None,
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
    valuations: tuple[Valuation, ...]


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


def combined_valuation(valuations: Sequence[Valuation], x: int) -> Fraction:
    """Maximum total value from splitting x licenses among the firms.

    By concavity this is the sum of the x largest marginals across all
    firms, which matches the exhaustive partition maximum.
    """
    if x <= 0:
        return Fraction(0)
    pool = sorted((v for vec in valuations for v in vec), reverse=True)
    return sum(pool[:x], Fraction(0))


def make_safe_auction(cap: int, cost: CostCurve, pricing: str = LOWEST_WINNING) -> AuctionParams:
    """Capped auction whose floor is the average cost of selling the cap."""
    return AuctionParams(cap=cap, floor=safe_price(cost, cap), ceiling=None, pricing=pricing)


def scenario_product(
    instance: MarketInstance,
) -> list[tuple[Fraction, tuple[int, ...], tuple[Valuation, ...]]]:
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
        for combo in itertools.product(*(tuple(enumerate(f)) for f in instance.firms))
    ]


def valuations_of(instance: MarketInstance) -> list[Valuation]:
    """Every valuation of every type of every firm, or of every joint row."""
    if instance.joint is not None:
        return [vec for _, vs in instance.joint for vec in vs]
    return [vec for firm in instance.firms for _, vec in firm]


def bid_levels(instance: MarketInstance, params: AuctionParams) -> tuple[Fraction, ...]:
    """Zero, every true marginal, the floor and a finite ceiling, sorted."""
    values = {v for vec in valuations_of(instance) for v in vec}
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


def scanned_own_quantity(valuation: Valuation, cost: CostCurve) -> tuple[int, Fraction]:
    """`bounds.best_own_quantity` by the per-unit scan it replaced: C(j)
    computed anew by `cost_of` for each unit j up to the first non-positive
    increment, so quadratic in the scan's length on a marginal-cost table."""
    best = ZERO
    x = 0
    below = cost_of(cost, 0)
    for j, v in enumerate(valuation, start=1):
        here = cost_of(cost, j)
        step = v - (here - below)
        if step <= 0:
            break
        best += step
        x = j
        below = here
    return x, best


def single_buyer_mechanism(
    true_values: Sequence[Valuation], cost: CostCurve
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
    report: Valuation, truth: Valuation, strict: bool = False
) -> bool:
    """Aggregate mode caps reported prefix sums by true values; strict mode
    additionally dominates marginal by marginal."""
    if strict:
        for j, b in enumerate(report, start=1):
            if b > value_of(truth, j) - value_of(truth, j - 1):
                return False
        return True
    running = ZERO
    for j, b in enumerate(report, start=1):
        running += b
        if running > value_of(truth, j):
            return False
    return True


class EagerReport(NamedTuple):
    """An `EquilibriumReport` with every field built at once."""

    params: AuctionParams
    epsilon: Fraction
    profiles: tuple[tuple[tuple[Valuation, ...], ...], ...]
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
        [candidate_reports(instance, params, i, t, strict) for t in range(len(f))]
        for i, f in enumerate(firms)
    ]
    memo = {}

    def utilities(i, t, others):
        key = (i, t, others)
        if key not in memo:
            truth = firms[i][t][1]
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
) -> tuple[Valuation, ...]:
    """All grid strategies available to one firm type, canonically sorted:
    that slot of the game a search with these parameters walks."""
    game = _GridGame(Analysis(instance), params, strict)
    return game.vectors(game.candidates(firm, type_index))


def scanned_price_gap(cost: CostCurve, limit: int) -> BoundCertificate:
    """`bounds.worst_price_gap` with every units count of each quantity
    scanned, about limit^2 / 2 pairs, on the same integer table of
    C(0..limit); ties keep the smaller quantity, then the fewer units."""
    if limit < 1:
        raise ValidationError(f"quantity limit must be at least 1, got {limit}")
    _, c = _integers(cost_of(cost, x) for x in range(limit + 1))
    worst = None  # (margin * quantity * common denominator, quantity, units)
    for q in range(1, limit + 1):
        gap, u = min((q * c[u] - c[q] * u, u) for u in range(q + 1))
        gap += q * (c[q] - c[q // 2] - c[(q + 1) // 2])
        if worst is None or gap * worst[1] < worst[0] * q:
            worst = (gap, q, u)
    return verify_price_gap(cost, worst[1], worst[2])


def verify_all(analysis: Analysis, unsafe: BoundCertificate) -> list[BoundCertificate]:
    """The certificates of `verify --which all` at its default parameters,
    the no-ceiling optimum, with the unsafe scan `unsafe` of the cost."""
    opt = analysis.no_ceiling_optimum.winner
    ceiling = analysis.grid[-1]
    low = analysis.grid[0] if ceiling <= opt.floor else opt.floor
    return [
        verify_ceiling_removal(analysis, AuctionParams(opt.cap, low, ceiling)),
        verify_sellout_conditional(analysis, AuctionParams(opt.cap, opt.floor)),
        unsafe,
        *verify_decomposition_bounds(analysis, opt.cap, opt.floor),
        verify_sellout_factor(analysis),
        *verify_single_buyer_cover(analysis),
    ]


def safe_covers_charged_above(analysis: Analysis) -> bool:
    """The corrected `safe-covers-above` at the no-ceiling optimum (cap k,
    floor f): safe(k) >= the sell-out term plus, over the scenarios that
    do not sell out, p_s times the sum of v - C(k)/k over their above
    units, the D_s(max(f, C(k)/k)) largest pooled marginals."""
    opt = analysis.no_ceiling_optimum.winner
    k, r = opt.cap, analysis.safe_price(opt.cap)
    above = ZERO
    for p, pool, x, a in zip(analysis._probs, analysis._pools, analysis.demand(opt.floor),
                             analysis.demand(max(opt.floor, r))):
        if x < k:
            charged = Fraction(sum(pool[len(pool) - a:]), analysis._scale) - a * r
            above += Fraction(p, analysis._weight) * charged
    return analysis.safe_welfare(k) >= analysis.sold_out_welfare(k, opt.floor) + above

"""Strategic analysis on a finite bid grid.

Strategies map each firm's realized type to a reported marginal vector
drawn from a finite grid (all true marginal values plus the floor, ceiling
and zero), restricted by no-overbidding: the reported value for any
quantity never exceeds the true value for that quantity (prefix sums).
Equilibria found are epsilon-equilibria with respect to this grid; the
search is exhaustive, deterministic, and makes no completeness claim about
the unrestricted continuum of reports.

Types are independent, so a firm type's interim utility depends only on
its own report and the other firms' strategies. One `_GridGame` per search
enumerates the joint type draws once and caches outcomes, interim
utilities and, per (firm, type) slot and opponent strategies, the best
value over the slot's candidates; a profile is an epsilon-equilibrium iff
no slot's best value exceeds its current utility by more than epsilon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import Analysis, expected_welfare
from .auction import AuctionParams, Outcome, run_auction, safe_price
from .model import (
    ZERO,
    MarginalVector,
    MarketInstance,
    TooLargeError,
    ValidationError,
    rat,
    welfare_of,
)

DEFAULT_PROFILE_LIMIT = 200_000

# Imported constant-factor guarantee for uniform-price equilibria: worst
# equilibrium welfare of a safe-price auction is at least baseline/3.15.
POA_FACTOR = Fraction(20, 63)  # exactly 1/3.15

_Profile = tuple[tuple[int, ...], ...]  # bid vector ids per firm per type


@dataclass(frozen=True)
class StrategyProfile:
    """Reported vector per firm per type index."""

    reports: tuple[tuple[MarginalVector, ...], ...]

    def report(self, firm: int, type_index: int) -> MarginalVector:
        return self.reports[firm][type_index]


@dataclass(frozen=True)
class EquilibriumReport:
    params: AuctionParams
    epsilon: Fraction
    profiles: tuple[StrategyProfile, ...]
    welfares: tuple[Fraction, ...]
    utilities: tuple[tuple[tuple[Fraction, ...], ...], ...]
    worst_welfare: Fraction | None
    searched: int


def bid_grid(instance: MarketInstance, params: AuctionParams) -> tuple[Fraction, ...]:
    """Candidate marginal-bid levels: zero, every true marginal, the floor,
    and the ceiling when finite."""
    values = {v for mv in instance.all_valuations() for v in mv.marginals}
    values.add(ZERO)
    values.add(params.floor)
    if params.ceiling is not None:
        values.add(params.ceiling)
    return tuple(sorted(values))


def satisfies_no_overbidding(
    report: MarginalVector, truth: MarginalVector, strict: bool = False
) -> bool:
    """Aggregate mode caps reported prefix sums by true values; strict mode
    additionally dominates marginal by marginal."""
    if strict:
        for j, b in enumerate(report.marginals, start=1):
            if b > truth.gain(1, j - 1):
                return False
        return True
    running = ZERO
    for j, b in enumerate(report.marginals, start=1):
        running += b
        if running > truth.value(j):
            return False
    return True


def _require_product(instance: MarketInstance) -> None:
    if not instance.product_form:
        raise ValidationError(
            "strategic analysis needs per-firm independent types (product form)"
        )


def candidate_reports(
    instance: MarketInstance,
    params: AuctionParams,
    firm: int,
    type_index: int,
    strict: bool = False,
) -> tuple[MarginalVector, ...]:
    """All grid strategies available to one firm type, canonically sorted.

    Candidates are the non-increasing vectors over the bid grid, of length
    up to the firm's largest positive-marginal count, filtered by
    no-overbidding against that type's true curve.
    """
    _require_product(instance)
    truth = instance.firms[firm].scenarios[type_index][1]
    length = max(v.positive_units for v in instance.firm_valuations(firm))
    if length == 0:
        return (MarginalVector(()),)
    grid = sorted(bid_grid(instance, params), reverse=True)
    out = []
    for combo in itertools.combinations_with_replacement(grid, length):
        report = MarginalVector(combo)
        if satisfies_no_overbidding(report, truth, strict):
            out.append(report)
    return tuple(sorted(out))


class _GridGame:
    """The state of one search. Bid vectors are interned as small integers:
    a strategy is a tuple of vector ids per type, a profile a tuple of
    strategies per firm. Draws are in `enumerate_scenarios` order; each slot
    keeps those where the firm has its type, weighted by the others' types."""

    def __init__(self, instance: MarketInstance, params: AuctionParams, strict: bool = False):
        _require_product(instance)
        self.instance = instance
        self.params = params
        self.strict = strict
        self.types = [firm.scenarios for firm in instance.firms]
        self.draws = tuple(
            (math.prod((p for _, (p, _) in combo), start=Fraction(1)), tuple(t for t, _ in combo))
            for combo in itertools.product(*(list(enumerate(s)) for s in self.types))
        )
        self._given = [[[] for _ in scenarios] for scenarios in self.types]
        for _, types in self.draws:
            for i, t in enumerate(types):
                others = (self.types[j][s][0] for j, s in enumerate(types) if j != i)
                self._given[i][t].append((math.prod(others, start=Fraction(1)), types))
        self._vectors: list[MarginalVector] = []
        self._ids: dict[MarginalVector, int] = {}
        self._candidates: dict[tuple[int, int], tuple[int, ...]] = {}
        self._outcomes: dict[tuple[int, ...], Outcome] = {}
        self._utilities: dict[tuple, Fraction] = {}
        self._best: dict[tuple, tuple[Fraction, int]] = {}

    def vector_id(self, report: MarginalVector) -> int:
        got = self._ids.get(report)
        if got is None:
            got = self._ids[report] = len(self._vectors)
            self._vectors.append(report)
        return got

    def profile_ids(self, profile: StrategyProfile) -> _Profile:
        return tuple(tuple(self.vector_id(r) for r in per_type) for per_type in profile.reports)

    def vectors(self, ids: tuple[int, ...]) -> tuple[MarginalVector, ...]:
        return tuple(self._vectors[r] for r in ids)

    def candidates(self, firm: int, type_index: int) -> tuple[int, ...]:
        key = (firm, type_index)
        got = self._candidates.get(key)
        if got is None:
            reports = candidate_reports(self.instance, self.params, firm, type_index, self.strict)
            got = self._candidates[key] = tuple(self.vector_id(r) for r in reports)
        return got

    def outcome(self, bids: tuple[int, ...]) -> Outcome:
        got = self._outcomes.get(bids)
        if got is None:
            got = run_auction(self.params, self.vectors(bids), self.instance.cost)
            self._outcomes[bids] = got
        return got

    def utility(self, firm: int, type_index: int, report: int, profile: _Profile) -> Fraction:
        """Expected utility of `report` against the others' strategies."""
        key = (firm, type_index, report, profile[:firm] + profile[firm + 1 :])
        got = self._utilities.get(key)
        if got is None:
            truth = self.types[firm][type_index][1]
            got = ZERO
            for weight, types in self._given[firm][type_index]:
                bids = tuple(report if j == firm else profile[j][t] for j, t in enumerate(types))
                outcome = self.outcome(bids)
                won = outcome.allocation[firm]
                got += weight * (truth.value(won) - outcome.unit_price * won)
            self._utilities[key] = got
        return got

    def best(self, firm: int, type_index: int, profile: _Profile) -> tuple[Fraction, int]:
        """Largest utility over the slot's candidates, and the first
        candidate in canonical order that reaches it."""
        key = (firm, type_index, profile[:firm] + profile[firm + 1 :])
        got = self._best.get(key)
        if got is None:
            chosen = max(
                self.candidates(firm, type_index),
                key=lambda r: self.utility(firm, type_index, r, profile),
            )
            got = self._best[key] = (self.utility(firm, type_index, chosen, profile), chosen)
        return got

    def welfare(self, profile: _Profile) -> Fraction:
        """Expected welfare of the profile, valued at true curves."""
        total = ZERO
        for prob, types in self.draws:
            outcome = self.outcome(tuple(profile[j][t] for j, t in enumerate(types)))
            truths = tuple(self.types[j][t][1] for j, t in enumerate(types))
            total += prob * welfare_of(truths, outcome.allocation, self.instance.cost)
        return total


def utility(
    instance: MarketInstance,
    params: AuctionParams,
    profile: StrategyProfile,
    firm: int,
    type_index: int,
) -> Fraction:
    """Interim expected utility of one firm type under a profile."""
    game = _GridGame(instance, params)
    ids = game.profile_ids(profile)
    return game.utility(firm, type_index, ids[firm][type_index], ids)


@dataclass(frozen=True)
class BestResponse:
    firm: int
    per_type: tuple[MarginalVector, ...]
    per_type_utility: tuple[Fraction, ...]
    per_type_gain: tuple[Fraction, ...]

    @property
    def gain(self) -> Fraction:
        return max(self.per_type_gain)


def best_response(
    instance: MarketInstance,
    params: AuctionParams,
    profile: StrategyProfile,
    firm: int,
    strict: bool = False,
    profile_limit: int = DEFAULT_PROFILE_LIMIT,
) -> BestResponse:
    """Exhaustive grid best response of one firm, type by type."""
    game = _GridGame(instance, params, strict)
    ids = game.profile_ids(profile)
    for t in range(len(ids[firm])):
        candidates = game.candidates(firm, t)
        if len(candidates) > profile_limit:
            raise TooLargeError(
                f"strategy space for firm {firm} type {t} has "
                f"{len(candidates)} candidates, limit {profile_limit}"
            )
    best = [game.best(firm, t, ids) for t in range(len(ids[firm]))]
    return BestResponse(
        firm=firm,
        per_type=game.vectors(tuple(chosen for _, chosen in best)),
        per_type_utility=tuple(value for value, _ in best),
        per_type_gain=tuple(
            value - game.utility(firm, t, current, ids)
            for t, ((value, _), current) in enumerate(zip(best, ids[firm]))
        ),
    )


def find_grid_equilibria(
    instance: MarketInstance,
    params: AuctionParams,
    epsilon: Fraction | int | str = 0,
    strict: bool = False,
    profile_limit: int = DEFAULT_PROFILE_LIMIT,
) -> EquilibriumReport:
    """Enumerate every grid profile where no firm type can gain more than
    epsilon by a unilateral grid deviation.

    Enumeration order is canonical (profiles in lexicographic order of
    their sorted candidate sets), so output is order-independent. Finding
    no equilibrium is a legitimate outcome.
    """
    epsilon = rat(epsilon)
    if epsilon < 0:
        raise ValidationError(f"epsilon must be non-negative, got {epsilon}")
    game = _GridGame(instance, params, strict)
    total = 1
    for i, scenarios in enumerate(game.types):
        for t in range(len(scenarios)):
            total *= len(game.candidates(i, t))
            if total > profile_limit:
                raise TooLargeError(
                    f"profile space has at least {total} profiles, limit {profile_limit}"
                )
    strategies = [
        list(itertools.product(*(game.candidates(i, t) for t in range(len(scenarios)))))
        for i, scenarios in enumerate(game.types)
    ]

    found = []
    welfares = []
    utilities = []
    for profile in itertools.product(*strategies):
        if all(
            game.best(i, t, profile)[0] <= game.utility(i, t, report, profile) + epsilon
            for i, strategy in enumerate(profile)
            for t, report in enumerate(strategy)
        ):
            found.append(StrategyProfile(tuple(game.vectors(strategy) for strategy in profile)))
            welfares.append(game.welfare(profile))
            utilities.append(
                tuple(
                    tuple(game.utility(i, t, report, profile) for t, report in enumerate(strategy))
                    for i, strategy in enumerate(profile)
                )
            )

    worst = min(welfares) if welfares else None
    return EquilibriumReport(
        params=params,
        epsilon=epsilon,
        profiles=tuple(found),
        welfares=tuple(welfares),
        utilities=tuple(utilities),
        worst_welfare=worst,
        searched=total,
    )


@dataclass(frozen=True)
class PoACheck:
    """Worst equilibrium welfare versus the truthful-welfare guarantee."""

    holds: bool
    baseline: Fraction
    bound: Fraction
    worst: Fraction | None
    ratio: Fraction | None
    margin: Fraction | None
    status: str


def check_poa_bound(
    analysis: Analysis,
    cap: int,
    report: EquilibriumReport,
) -> PoACheck:
    """Check every found equilibrium of the safe-price auction for the cap
    clears the imported 1/3.15 welfare floor. A failure is a reported
    finding, not an exception."""
    expected_floor = safe_price(analysis.instance.cost, cap)
    if report.params.cap != cap or report.params.floor != expected_floor:
        raise ValidationError(
            "report params do not match the safe-price auction for this cap"
        )
    baseline = expected_welfare(
        analysis, report.params
    )
    bound = baseline * POA_FACTOR
    if report.worst_welfare is None:
        return PoACheck(
            holds=True,
            baseline=baseline,
            bound=bound,
            worst=None,
            ratio=None,
            margin=None,
            status="no-equilibria",
        )
    worst = report.worst_welfare
    ratio = worst / baseline if baseline != 0 else None
    return PoACheck(
        holds=worst >= bound,
        baseline=baseline,
        bound=bound,
        worst=worst,
        ratio=ratio,
        margin=worst - bound,
        status="checked",
    )

"""Strategic analysis on a finite bid grid.

Strategies map each firm's realized type to a reported marginal vector
drawn from a finite grid (all true marginal values plus the floor, ceiling
and zero), restricted by no-overbidding: the reported value for any
quantity never exceeds the true value for that quantity (prefix sums).
Equilibria found are epsilon-equilibria with respect to this grid; the
search is exhaustive, deterministic, and makes no completeness claim about
the unrestricted continuum of reports.
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
    grid: tuple[Fraction, ...] | None = None,
) -> tuple[MarginalVector, ...]:
    """All grid strategies available to one firm type, canonically sorted.

    Candidates are the non-increasing vectors over the bid grid, of length
    up to the firm's largest positive-marginal count, filtered by
    no-overbidding against that type's true curve.
    """
    _require_product(instance)
    if grid is None:
        grid = bid_grid(instance, params)
    truth = instance.firms[firm].scenarios[type_index][1]
    length = max(v.positive_units for v in instance.firm_valuations(firm))
    if length == 0:
        return (MarginalVector(()),)
    out = []
    for combo in itertools.combinations_with_replacement(sorted(grid, reverse=True), length):
        report = MarginalVector(combo)
        if satisfies_no_overbidding(report, truth, strict):
            out.append(report)
    return tuple(sorted(out))


class _GridGame:
    """Shared caches for repeated auction evaluations over one instance."""

    def __init__(self, instance: MarketInstance, params: AuctionParams):
        _require_product(instance)
        self.instance = instance
        self.params = params
        self.types = [firm.scenarios for firm in instance.firms]
        self.n = len(self.types)
        self._outcomes: dict[tuple[MarginalVector, ...], Outcome] = {}

    def outcome(self, bids: tuple[MarginalVector, ...]) -> Outcome:
        got = self._outcomes.get(bids)
        if got is None:
            got = run_auction(self.params, bids, self.instance.cost)
            self._outcomes[bids] = got
        return got

    def opponent_draws(self, firm: int):
        """Type tuples and probabilities for everyone but `firm`."""
        others = [
            [(p, t) for t, (p, _) in enumerate(scenarios)]
            for i, scenarios in enumerate(self.types)
            if i != firm
        ]
        for combo in itertools.product(*others):
            prob = math.prod((p for p, _ in combo), start=Fraction(1))
            yield prob, tuple(t for _, t in combo)

    def interim_utility(
        self,
        firm: int,
        type_index: int,
        report: MarginalVector,
        profile: StrategyProfile,
    ) -> Fraction:
        """Expected utility of `report` against the others' strategies."""
        truth = self.types[firm][type_index][1]
        total = ZERO
        for prob, opponent_types in self.opponent_draws(firm):
            bids = []
            k = 0
            for j in range(self.n):
                if j == firm:
                    bids.append(report)
                else:
                    bids.append(profile.report(j, opponent_types[k]))
                    k += 1
            outcome = self.outcome(tuple(bids))
            won = outcome.allocation[firm]
            total += prob * (truth.value(won) - outcome.unit_price * won)
        return total

    def profile_welfare(self, profile: StrategyProfile) -> Fraction:
        """Expected welfare of the profile, valued at true curves."""
        total = ZERO
        for combo in itertools.product(
            *[[(p, t) for t, (p, _) in enumerate(s)] for s in self.types]
        ):
            prob = math.prod((p for p, _ in combo), start=Fraction(1))
            type_indices = tuple(t for _, t in combo)
            bids = tuple(
                profile.report(i, type_indices[i]) for i in range(self.n)
            )
            truths = tuple(
                self.types[i][type_indices[i]][1] for i in range(self.n)
            )
            outcome = self.outcome(bids)
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
    return game.interim_utility(firm, type_index, profile.report(firm, type_index), profile)


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
    game = _GridGame(instance, params)
    grid = bid_grid(instance, params)
    best_reports = []
    best_utilities = []
    gains = []
    for t in range(len(instance.firms[firm].scenarios)):
        candidates = candidate_reports(instance, params, firm, t, strict, grid)
        if len(candidates) > profile_limit:
            raise TooLargeError(
                f"strategy space for firm {firm} type {t} has "
                f"{len(candidates)} candidates, limit {profile_limit}"
            )
        current = game.interim_utility(firm, t, profile.report(firm, t), profile)
        chosen, chosen_u = None, None
        for report in candidates:
            u = game.interim_utility(firm, t, report, profile)
            if chosen_u is None or u > chosen_u:
                chosen, chosen_u = report, u
        best_reports.append(chosen)
        best_utilities.append(chosen_u)
        gains.append(chosen_u - current)
    return BestResponse(
        firm=firm,
        per_type=tuple(best_reports),
        per_type_utility=tuple(best_utilities),
        per_type_gain=tuple(gains),
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
    game = _GridGame(instance, params)
    grid = bid_grid(instance, params)
    slots = [
        (i, t)
        for i in range(game.n)
        for t in range(len(instance.firms[i].scenarios))
    ]
    candidates = {
        slot: candidate_reports(instance, params, slot[0], slot[1], strict, grid)
        for slot in slots
    }
    total = math.prod(len(c) for c in candidates.values())
    if total > profile_limit:
        raise TooLargeError(f"profile space has {total} profiles, limit {profile_limit}")

    # Interim utilities depend on the candidate and the opponents' full
    # strategies only; cache across profiles.
    utility_cache: dict[tuple, Fraction] = {}

    def interim(firm, type_index, report, profile):
        rest = tuple(profile.reports[:firm] + profile.reports[firm + 1 :])
        key = (firm, type_index, report, rest)
        got = utility_cache.get(key)
        if got is None:
            got = game.interim_utility(firm, type_index, report, profile)
            utility_cache[key] = got
        return got

    found = []
    welfares = []
    utilities = []
    for combo in itertools.product(*(candidates[slot] for slot in slots)):
        assignment = dict(zip(slots, combo))
        profile = StrategyProfile(
            tuple(
                tuple(assignment[(i, t)] for t in range(len(instance.firms[i].scenarios)))
                for i in range(game.n)
            )
        )
        is_equilibrium = True
        profile_utilities = []
        for i in range(game.n):
            firm_utilities = []
            for t in range(len(instance.firms[i].scenarios)):
                current = interim(i, t, profile.report(i, t), profile)
                firm_utilities.append(current)
                for alternative in candidates[(i, t)]:
                    if interim(i, t, alternative, profile) > current + epsilon:
                        is_equilibrium = False
                        break
                if not is_equilibrium:
                    break
            if not is_equilibrium:
                break
            profile_utilities.append(tuple(firm_utilities))
        if is_equilibrium:
            found.append(profile)
            welfares.append(game.profile_welfare(profile))
            utilities.append(tuple(profile_utilities))

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

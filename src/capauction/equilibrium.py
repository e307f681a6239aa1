"""Grid-equilibrium search and its price-of-anarchy check.

Strategies map each firm's realized type to a reported marginal vector
drawn from a finite grid (all true marginal values plus the floor, ceiling
and zero), restricted by no-overbidding: the reported value for any
quantity never exceeds the true value for that quantity (prefix sums).
Equilibria found are epsilon-equilibria with respect to this grid; the
search is exhaustive, deterministic, and makes no completeness claim about
the unrestricted continuum of reports.

Types are independent, so a firm type's interim utility depends only on
its own report and the other firms' strategies. One `_GridGame` per search
reads the instance's `Analysis` for its price grid, type weights and cost
list, builds every type's value table once, walks each (firm, type)
slot's candidates from them on first use, and caches outcomes. The
search keeps, per firm and opponent strategies, each type's candidates
within epsilon of its best utility, with their utilities
(`_GridGame.near_best`); a profile is an epsilon-equilibrium iff every
slot's report is among them, and the report reads its utilities there.
The worst equilibrium the search finds is what `check_poa_bound`
compares with the safe-price baseline.

The game computes in exact scaled integers over one scale L, the lcm of
the analysis's cost scale and the bid levels' denominators: values, bid
levels, prices and costs are integers over L. Each candidate is interned
once, as its tuple of bid levels over L, and `auction.clear_valid`
clears those tuples as they are, at the floor and ceiling over L, so the
price it returns is an integer over L. Each firm j has P_j, the lcm of
its type probabilities' denominators, so a slot of firm i weights its
draws by integers over prod_{j != i} P_j and its utilities are integers
over S_i = L * prod_{j != i} P_j; the epsilon test is then
`best - current <= floor(epsilon * S_i)`. A profile's welfare is an
integer over L * prod_j P_j. The search builds one Fraction, the worst
welfare; the report builds its profiles (the bids over the grid's
Fractions), welfares and utilities on first read, which only `--out`
does.

The search is factored by the firm i* with the largest strategy space
(the last such firm on ties): for each strategy profile of the other
firms, each type of i* keeps only its candidates within epsilon of its
best value, and only the product of those sets is checked against the
other firms' slots. When i* is not the last firm the equilibria are
sorted back into canonical order.

The `equilibrium` subcommand (its arguments, declared by
`add_arguments`, and its handler, `cmd_equilibrium`) lives here, since
only that subcommand loads this module. It reads the per-instance
tables of `auction`, never the sweeps of `analysis`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from operator import add, contains, getitem, mul
from typing import NamedTuple

from .auction import (
    HIGHEST_LOSING, PRICING_RULES, Analysis, AuctionParams,
    _demand, _integers, _per_scenario, _scaled, add_common_arguments, clear_valid, parse_cap,
)
from .io import display, load_instance, rational_cells, write_report
from .model import ZERO, MarketInstance, TooLargeError, Valuation, ValidationError, rat

# Imported constant-factor guarantee for uniform-price equilibria: worst
# equilibrium welfare of a safe-price auction is at least baseline/3.15.
POA_FACTOR = Fraction(20, 63)  # exactly 1/3.15

DEFAULT_PROFILE_LIMIT = 200_000  # grid profiles a search may enumerate

_Profile = tuple[tuple[int, ...], ...]  # bid vector ids per firm per type


class EquilibriumReport:
    """What one search found: read-only, equal to another report with equal
    fields, and listing its fields in `_fields`. `worst_welfare` and
    `searched` are set by the search. `profiles`, `welfares` and
    `utilities` (per profile, firm and type, the interim utility of its
    report) are built from the search's integers on first read and kept;
    `profiles` builds each distinct bid vector once."""

    _fields = ("params", "epsilon", "profiles", "welfares", "utilities", "worst_welfare", "searched")

    def __init__(
        self,
        params: AuctionParams,
        epsilon: Fraction,
        game: _GridGame,
        found: list[_Profile],
        welfares: list[int],
        searched: int,
    ):
        self.__dict__.update(
            params=params,
            epsilon=epsilon,
            worst_welfare=Fraction(min(welfares), game.draw_scale) if welfares else None,
            searched=searched,
            _game=game,
            _found=found,
            _welfares=welfares,
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: an EquilibriumReport is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: an EquilibriumReport is read-only")

    def __eq__(self, other) -> bool:
        if not isinstance(other, EquilibriumReport):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"EquilibriumReport({fields})"

    @cached_property
    def profiles(self) -> tuple[tuple[tuple[Valuation, ...], ...], ...]:
        ids = dict.fromkeys(r for profile in self._found for strategy in profile for r in strategy)
        vectors = dict(zip(ids, self._game.vectors(tuple(ids))))
        return tuple(
            tuple(tuple(map(vectors.__getitem__, strategy)) for strategy in profile)
            for profile in self._found
        )

    @cached_property
    def welfares(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self._game.draw_scale) for w in self._welfares)

    @cached_property
    def utilities(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        # An equilibrium's reports are near-best against its other firms'
        # strategies, so the search kept each one's utility.
        game = self._game
        return tuple(
            tuple(
                tuple(
                    Fraction(kept[report], scale)
                    for kept, report in zip(near[profile[:i] + profile[i + 1 :]], strategy)
                )
                for i, (strategy, near, scale) in enumerate(
                    zip(profile, game.near_best, game.slot_scale)
                )
            )
            for profile in self._found
        )


class _GridGame:
    """The state of one search, built once: the bid grid (the analysis's
    price grid without its sentinel, plus the floor and a finite ceiling)
    and, over the one scale L, its levels, the auction's floor and ceiling,
    the cost list and every firm type's true values of 0, 1, ... units. A
    firm bids vectors of one length, its longest positive demand, and wins
    no more units than it bids, so each value table is cut or zero-padded
    to that length. Each bid vector is interned once, as its tuple of
    levels over L, and named by a small integer id: a strategy is a tuple
    of vector ids per type, a profile a tuple of strategies per firm.
    Draws pair the analysis's scenario weights with the firms' type
    indices, in scenario order; each firm's opponent draws fold only the
    other firms' type weights and indices. A market with no firms has one
    empty draw; the search, not the game, rejects it. Utilities and
    welfares are the scaled integers of the module docstring."""

    def __init__(self, analysis: Analysis, params: AuctionParams, strict: bool = False):
        instance = analysis.instance
        if instance.joint is not None:
            raise ValidationError(
                "strategic analysis needs per-firm independent types (product form)"
            )
        self.strict = strict
        self.types = instance.firms
        levels = {*analysis.grid[:-1], params.floor}  # zero and the marginals; no sentinel
        if params.ceiling is not None:
            levels.add(params.ceiling)
        self.grid = tuple(sorted(levels))
        # A profile sells at most the cap, unless a ceiling binds, and at
        # most the bids' total length, the largest demand: the cost list
        # covers every draw. `_tabulate` replaces the list when it grows,
        # so the game keeps this one.
        analysis._tabulate(params.cap if params.ceiling is None else None)
        cost_scale = analysis._den // analysis._weight
        self.scale, self.levels = _integers(self.grid, cost_scale)
        over_scale = dict(zip(self.grid, self.levels))
        self.cap, self.pricing = params.cap, params.pricing
        self.floor = over_scale[params.floor]  # over L, like the ceiling
        self.ceiling = None if params.ceiling is None else over_scale[params.ceiling]
        self.costs = [c * (self.scale // cost_scale) for c in analysis._cost]
        self.values = []
        for scenarios in self.types:
            length = max(_demand(truth, ZERO) for _, truth in scenarios)
            self.values.append([
                list(itertools.accumulate(
                    _scaled(truth[:length], self.scale) + [0] * (length - len(truth)),
                    initial=0,
                ))
                for _, truth in scenarios
            ])
        weights = [of_types for _, of_types in analysis._weights]
        indices = [[(t,) for t in range(len(s))] for s in self.types]
        self.draws = tuple(zip(analysis._probs, _per_scenario(indices, (), add)))
        self.opponents = [
            tuple(zip(
                _per_scenario(weights[:i] + weights[i + 1 :], 1, mul),
                _per_scenario(indices[:i] + indices[i + 1 :], (), add),
            ))
            for i in range(len(self.types))
        ]
        self.draw_scale = self.scale * analysis._weight
        self.slot_scale = [self.scale * (analysis._weight // d) for d, _ in analysis._weights]
        self._bids: list[tuple[int, ...]] = []  # per id, its levels over L
        self._ids: dict[tuple[int, ...], int] = {}  # keyed by those levels
        self._candidates: dict[tuple[int, int], tuple[int, ...]] = {}
        self._outcomes: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        # Per firm and opponent strategies, per type, each candidate within
        # the search's slack of its best utility, mapped to that utility.
        self.near_best: list[dict[_Profile, list[dict[int, int]]]] = [{} for _ in self.types]
        self._welfares: list[dict[tuple[int, ...], int]] = [{} for _ in self.draws]

    def vectors(self, ids: tuple[int, ...]) -> tuple[Valuation, ...]:
        """The ids' bid vectors over the grid's Fractions, each built anew."""
        on_grid = dict(zip(self.levels, self.grid)).__getitem__
        return tuple(tuple(map(on_grid, self._bids[r])) for r in ids)

    def candidates(self, firm: int, type_index: int) -> tuple[int, ...]:
        """The slot's grid strategies as vector ids, in canonical order.

        They are the non-increasing vectors over the bid grid, of the firm's
        bid length, that satisfy no-overbidding against the type's true
        values. On first use they are walked depth first with ascending
        levels, which is canonical order; a level that breaks the bound at
        its position is pruned with every higher one. Each vector is
        interned as its tuple of levels over L, one object that is both
        its `_ids` key and its `_bids` entry; the walk emits only valid
        vectors, so outcomes clear them unchecked.
        """
        key = (firm, type_index)
        got = self._candidates.get(key)
        if got is not None:
            return got
        levels = self.levels
        walked = []
        _walk(self.values[firm][type_index], levels, self.strict, walked, [], len(levels) - 1, 0)
        for bid in walked:
            if bid not in self._ids:
                self._ids[bid] = len(self._bids)
                self._bids.append(bid)
        got = self._candidates[key] = tuple(map(self._ids.__getitem__, walked))
        return got

    def outcome(self, bids: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """Allocation and price times L of the auction on these bids."""
        got = self._outcomes.get(bids)
        if got is None:
            allocation, price, _ = clear_valid(
                [self._bids[r] for r in bids], self.cap, self.floor, self.ceiling, self.pricing
            )
            got = self._outcomes[bids] = (allocation, price)
        return got

    def utilities(self, firm: int, type_index: int, others: _Profile) -> dict[int, int]:
        """Every candidate's utility over S_firm against the other firms'
        strategies `others` (the profile without the firm's own), in
        canonical order. Not memoized: the search asks once per key."""
        values = self.values[firm][type_index]
        candidates = self.candidates(firm, type_index)
        totals = [0] * len(candidates)
        outcomes = self._outcomes
        for weight, types in self.opponents[firm]:
            bids = tuple(map(getitem, others, types))
            before, after = bids[:firm], bids[firm:]
            for k, report in enumerate(candidates):
                draw = before + (report,) + after
                allocation, price = outcomes.get(draw) or self.outcome(draw)
                won = allocation[firm]
                totals[k] += weight * (values[won] - price * won)
        return dict(zip(candidates, totals))

    def welfare(self, profile: _Profile) -> int:
        """Expected welfare of the profile, valued at true curves, over
        L * prod_j P_j; each draw's welfare is cached by its bids."""
        total = 0
        for (weight, types), cached in zip(self.draws, self._welfares):
            bids = tuple(map(getitem, profile, types))
            got = cached.get(bids)
            if got is None:
                allocation, _ = self.outcome(bids)
                value = sum(self.values[j][t][x] for j, (t, x) in enumerate(zip(types, allocation)))
                got = cached[bids] = value - self.costs[sum(allocation)]
            total += weight * got
        return total


def _walk(values, levels, strict, walked, chosen, top, spent) -> None:
    """Append to `walked`, depth first with ascending levels, every
    non-increasing extension of `chosen` (levels, each at most
    `levels[top]`) to the bid length that keeps no-overbidding against
    the true values, as a tuple of levels; `spent` is their sum. A module
    function, so the recursion leaves no reference cycle behind for the
    collector."""
    position = len(chosen)
    if position == len(values) - 1:
        walked.append(tuple(chosen))
        return
    bound = values[position + 1] - (values[position] if strict else spent)
    for k in range(top + 1):
        if levels[k] > bound:
            break
        chosen.append(levels[k])
        _walk(values, levels, strict, walked, chosen, k, spent + levels[k])
        chosen.pop()


def _checked_epsilon(epsilon: Fraction | int | str, profile_limit: int) -> Fraction:
    """`epsilon` as a Fraction, once it and the profile limit are valid."""
    if profile_limit < 1:
        raise ValidationError(f"profile limit must be at least 1, got {profile_limit}")
    epsilon = rat(epsilon)
    if epsilon < 0:
        raise ValidationError(f"epsilon must be non-negative, got {epsilon}")
    return epsilon


def find_grid_equilibria(
    analysis: Analysis,
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
    epsilon = _checked_epsilon(epsilon, profile_limit)
    if isinstance(analysis, MarketInstance):  # callers holding only an instance get the defaults
        analysis = Analysis(analysis)
    game = _GridGame(analysis, params, strict)
    if not game.types:
        raise ValidationError("at least one firm is required")
    slots, total = [], 1
    for i, scenarios in enumerate(game.types):
        slots.append([])
        for t in range(len(scenarios)):
            slots[i].append(game.candidates(i, t))
            total *= len(slots[i][t])
            if total > profile_limit:
                raise TooLargeError(
                    f"profile space has at least {total} profiles, limit {profile_limit}"
                )
    sizes = [math.prod(map(len, per_type)) for per_type in slots]
    star = max(reversed(range(len(slots))), key=sizes.__getitem__)
    slack = [math.floor(epsilon * scale) for scale in game.slot_scale]
    near_best = game.near_best

    def near(i: int, others: _Profile) -> list[dict[int, int]]:
        """Per type of firm i, against `others`, the candidates within
        slack of its best utility, each mapped to that utility, in
        canonical order."""
        got = near_best[i].get(others)
        if got is None:
            got = near_best[i][others] = []
            for t in range(len(slots[i])):
                utilities = game.utilities(i, t, others)
                least = max(utilities.values()) - slack[i]
                got.append({r: u for r, u in utilities.items() if u >= least})
        return got

    checked = [i for i in range(len(slots)) if i != star]
    found = []
    for rest in itertools.product(*(itertools.product(*slots[i]) for i in checked)):
        for own in itertools.product(*near(star, rest)):
            profile = rest[:star] + (own,) + rest[star:]
            for i in checked:
                if not all(map(contains, near(i, profile[:i] + profile[i + 1 :]), profile[i])):
                    break
            else:
                found.append(profile)
    if star != len(slots) - 1:
        position = [[{r: k for k, r in enumerate(c)} for c in per_type] for per_type in slots]
        found.sort(
            key=lambda profile: tuple(
                position[i][t][r] for i, strategy in enumerate(profile) for t, r in enumerate(strategy)
            )
        )
    return EquilibriumReport(
        params, epsilon, game, found, [game.welfare(profile) for profile in found], total
    )


class PoACheck(NamedTuple):
    """Worst equilibrium welfare versus the truthful-welfare guarantee."""

    holds: bool
    baseline: Fraction
    bound: Fraction
    worst: Fraction | None
    ratio: Fraction | None
    status: str


def check_poa_bound(analysis: Analysis, report: EquilibriumReport) -> PoACheck:
    """Check every equilibrium the report found clears the imported 1/3.15
    welfare floor. The report must be of the safe-price auction for its
    own cap. A failure is a reported finding, not an exception. The
    baseline is the truthful welfare of that auction, which the pricing
    rule does not change; with no equilibrium found the check holds
    vacuously."""
    cap = report.params.cap
    if report.params.floor != analysis.safe_price(cap):
        raise ValidationError(
            "report params do not match the safe-price auction for this cap"
        )
    baseline = analysis.safe_welfare(cap)
    bound = baseline * POA_FACTOR
    worst = report.worst_welfare
    found = worst is not None
    return PoACheck(
        holds=not found or worst >= bound,
        baseline=baseline,
        bound=bound,
        worst=worst,
        ratio=worst / baseline if found and baseline != 0 else None,
        status="checked" if found else "no-equilibria",
    )


def add_arguments(parser, name: str) -> None:
    """Declare the arguments of the `equilibrium` subcommand, `name`, and
    set its handler."""
    parser.add_argument("instance")
    parser.add_argument("--cap", required=True)
    parser.add_argument("--floor", required=True)
    parser.add_argument("--pricing", choices=PRICING_RULES, default=HIGHEST_LOSING)
    parser.add_argument("--epsilon", default="0")
    parser.add_argument("--strict-overbidding", action="store_true",
                        help="dominate marginal by marginal instead of prefix sums")
    add_common_arguments(parser)
    parser.add_argument("--profile-limit", type=int, default=DEFAULT_PROFILE_LIMIT)
    parser.set_defaults(func=cmd_equilibrium)


def cmd_equilibrium(args) -> int:
    """`capauction equilibrium`: search the grid equilibria and, at the
    safe price, check the worst one against the 1/3.15 floor."""
    instance = load_instance(args.instance)
    cap = parse_cap(args.cap)
    if cap is None:
        raise ValidationError("equilibrium search needs a bounded cap")
    params = AuctionParams(cap=cap, floor=rat(args.floor), ceiling=None, pricing=args.pricing)
    epsilon = _checked_epsilon(args.epsilon, args.profile_limit)
    analysis = Analysis(instance, args.scenario_limit)
    # A cost curve undefined at the cap fails here, before anything is printed.
    safe = analysis.safe_price(cap)
    report = find_grid_equilibria(
        analysis,
        params,
        epsilon=epsilon,
        strict=args.strict_overbidding,
        profile_limit=args.profile_limit,
    )
    print(f"instance: {instance.label or args.instance}")
    print(f"profiles searched: {report.searched}")
    print(f"equilibria found: {len(report._found)}")
    if report.worst_welfare is not None:
        print(f"worst equilibrium welfare: {display(report.worst_welfare)}")
    if params.floor == safe:
        poa = check_poa_bound(analysis, report)
        print(f"safe-price baseline welfare: {display(poa.baseline)}")
        print(f"welfare floor (baseline/3.15): {display(poa.bound)}")
        if poa.ratio is not None:
            print(f"worst/baseline ratio: {display(poa.ratio)}")
        print(f"bound holds: {poa.holds} ({poa.status})")
    header = ["profile", "firm", "type", "bid", "utility", "utility_dec", "welfare", "welfare_dec"]

    def rows():
        for k, (profile, w) in enumerate(zip(report.profiles, report.welfares)):
            welfare = rational_cells(w)
            for i, per_type in enumerate(profile):
                for t, report_vec in enumerate(per_type):
                    bid = "|".join(map(str, report_vec))
                    u = report.utilities[k][i][t]
                    yield [str(k), str(i), str(t), bid, *rational_cells(u), *welfare]

    write_report(args.out, header, rows())
    return 0

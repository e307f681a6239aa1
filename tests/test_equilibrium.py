"""Grid strategies, interim utilities and equilibrium enumeration, checked
against brute-force oracles that clear every auction with run_auction."""

import gc
import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from capauction import (
    Analysis,
    AuctionParams,
    EquilibriumReport,
    HIGHEST_LOSING,
    LOWEST_WINNING,
    MarketInstance,
    POA_FACTOR,
    PoACheck,
    TooLargeError,
    ValidationError,
    check_poa_bound,
    demand_reduction,
    find_grid_equilibria,
    first_best,
    generate,
    logscale,
    price_candidates,
    save_instance,
)
from capauction import auction, equilibrium
from capauction.cli import build_parser, main
from capauction.model import ERROR_BEYOND, _valuation_violations, costs
from oracles import (
    bid_levels,
    candidate_reports,
    cost_table,
    eager_report,
    expected_welfare,
    firm_distribution,
    make_safe_auction,
    mv,
    point_mass,
    quadratic,
    run_auction,
    satisfies_no_overbidding,
    scenario_product,
    value_of,
)
from test_analysis import markets
from test_golden import EQUILIBRIUM_CASES

MARKET = demand_reduction()
OPEN_FLOOR = AuctionParams(2, 0, None, HIGHEST_LOSING)
TRUTHFUL = ((mv(10, 10),), (mv(6, 1),))
SHADED = ((mv(10, 1),), (mv(6, 1),))


class TestNoOverbidding:
    def test_truthful_always_allowed(self):
        for v in (mv(10, 10), mv(6, 1), mv(0,)):
            assert satisfies_no_overbidding(v, v)
            assert satisfies_no_overbidding(v, v, strict=True)

    def test_prefix_mode_allows_rearranged_mass(self):
        # unit 2 bid above its true marginal, prefix still within bounds
        assert satisfies_no_overbidding(mv(9, 9), mv(10, 8))
        assert not satisfies_no_overbidding(mv(9, 9), mv(10, 8), strict=True)

    def test_prefix_violation_rejected(self):
        assert not satisfies_no_overbidding(mv(10, 10), mv(6, 1))

    def test_longer_than_truth(self):
        assert satisfies_no_overbidding(mv(6, 6, 6), mv(10, 10))
        assert not satisfies_no_overbidding(mv(7, 7, 7), mv(10, 10))


def bid_grid(instance, params):
    """The bid grid of a search on this instance with these parameters."""
    return equilibrium._GridGame(Analysis(instance), params).grid


class TestBidGrid:
    def test_demand_reduction_grid(self):
        assert bid_grid(MARKET, OPEN_FLOOR) == (F(0), F(1), F(6), F(10))

    def test_floor_joins_grid(self):
        m = MarketInstance(
            firms=(point_mass(mv(5)),), cost=quadratic(1)
        )
        assert bid_grid(m, AuctionParams(1, 2, None)) == (F(0), F(2), F(5))

    def test_floor_above_marginals_still_included(self):
        m = MarketInstance(
            firms=(point_mass(mv(5)),), cost=quadratic(1)
        )
        assert F(9) in bid_grid(m, AuctionParams(1, 9, None))

    def test_finite_ceiling_included(self):
        assert F(7) in bid_grid(MARKET, AuctionParams(2, 0, 7))

    def test_matches_the_set_construction(self):
        # Floors and ceilings on the grid, between its levels and above it.
        rng = random.Random(11)
        for firms in range(4):
            for _ in range(5):
                m = _mixed_instance(rng, firms, zeros=True)
                levels = bid_levels(m, AuctionParams(1, 0))
                off = [(a + b) / 2 for a, b in zip(levels, levels[1:])] + [levels[-1] + F(1, 3)]
                for floor in (*levels, *off):
                    for ceiling in (None, *(p for p in (*levels, *off) if p > floor)):
                        params = AuctionParams(1, floor, ceiling)
                        assert bid_grid(m, params) == bid_levels(m, params), (m, params)


class TestDraws:
    """A search's type draws are the scenario product, weighted by their
    probabilities: the weights over their total are the probabilities. Each
    firm's opponent draws are the product with its own factor left out."""

    @given(m=st.one_of(
        st.builds(lambda rng, firms: _mixed_instance(rng, firms), st.randoms(), st.integers(0, 3)),
        markets().filter(lambda m: m.joint is None),  # with zero-probability types
    ))
    @settings(max_examples=200, deadline=None)
    def test_match_the_product(self, m):
        def normalized(draws):
            total = sum(w for w, _ in draws)
            return [(F(w, total), types) for w, types in draws]

        game = equilibrium._GridGame(Analysis(m), AuctionParams(1, 0))
        assert normalized(game.draws) == [(p, types) for p, types, _ in scenario_product(m)]
        for i in range(len(m.firms)):
            others = m._replace(firms=m.firms[:i] + m.firms[i + 1 :])
            assert normalized(game.opponents[i]) == [
                (p, types) for p, types, _ in scenario_product(others)
            ]

    def test_no_firms_draw_once(self):
        m = MarketInstance(firms=(), cost=quadratic(1))
        assert equilibrium._GridGame(Analysis(m), AuctionParams(1, 0)).draws == ((1, ()),)


class TestCandidateReports:
    def test_filtered_by_overbidding(self):
        candidates = candidate_reports(MARKET, OPEN_FLOOR, firm=1, type_index=0)
        assert mv(6, 1) in candidates
        assert mv(6, 6) not in candidates  # prefix 12 over true total 7
        assert all(satisfies_no_overbidding(c, mv(6, 1)) for c in candidates)

    def test_firm_one_has_ten_pairs(self):
        candidates = candidate_reports(MARKET, OPEN_FLOOR, firm=0, type_index=0)
        assert len(candidates) == 10  # all non-increasing pairs over the grid

    def test_canonical_order(self):
        candidates = candidate_reports(MARKET, OPEN_FLOOR, firm=0, type_index=0)
        assert list(candidates) == sorted(candidates)

    def test_walk_matches_filter_and_sort(self):
        rng = random.Random(3)
        for _ in range(150):
            m = _mixed_instance(rng, rng.choice((1, 2, 3)), units=(0, 1, 2, 3), zeros=True)
            levels = sorted({v for f in m.firms for _, t in f for v in t})
            floor = rng.choice(levels + [F(0), F(5, 4), F(7, 3)])
            ceiling = rng.choice((None, floor + rng.choice((F(1, 2), F(1), F(8)))))
            params = AuctionParams(2, floor, ceiling)
            for i, f in enumerate(m.firms):
                for t in range(len(f)):
                    for strict in (False, True):
                        assert candidate_reports(m, params, i, t, strict) == _filtered_candidates(
                            m, params, i, t, strict
                        )

    def test_walk_matches_filter_on_long_vectors(self):
        # Safe-price slots of the one-firm families: up to 495 candidates
        # per slot and vectors up to 8 units long.
        longest = most = 0
        for m in (logscale(2), logscale(3), first_best(2)):
            for cap in (1, 2):
                params = make_safe_auction(cap, m.cost, HIGHEST_LOSING)
                for i, f in enumerate(m.firms):
                    for t in range(len(f)):
                        for strict in (False, True):
                            got = candidate_reports(m, params, i, t, strict)
                            assert got == _filtered_candidates(m, params, i, t, strict)
                            longest = max(longest, len(got[0]))
                            most = max(most, len(got))
        assert (longest, most) == (8, 495)


class TestUtility:
    """Hand-computed interim utilities, checked on the direct oracle that the
    search is compared with below."""

    def test_truthful_firm_one(self):
        assert _direct_utility(MARKET, OPEN_FLOOR, TRUTHFUL, 0, 0, mv(10, 10)) == 8

    def test_shaded_firm_one(self):
        assert _direct_utility(MARKET, OPEN_FLOOR, SHADED, 0, 0, mv(10, 1)) == 9

    def test_unallocated_firm(self):
        floor9 = AuctionParams(2, 9, None, HIGHEST_LOSING)
        assert _direct_utility(MARKET, floor9, TRUTHFUL, 1, 0, mv(6, 1)) == 0

    def test_expectation_over_opponent_types(self):
        m = MarketInstance(
            firms=(
                point_mass(mv(5, 5)),
                firm_distribution((F(1, 2), mv(8)), (F(1, 2), mv(2))),
            ),
            cost=quadratic(1),
        )
        params = AuctionParams(2, 0, None, HIGHEST_LOSING)
        reports = ((mv(5, 5),), (mv(8), mv(2)))
        # vs type 8: allocation (1,1) price 5; vs type 2: (2,0) price 2
        expected = F(1, 2) * (5 - 5) + F(1, 2) * (10 - 2 * 2)
        assert _direct_utility(m, params, reports, 0, 0, mv(5, 5)) == expected


class TestReportValidation:
    """A search and its analysis scan the valuations for the price grid
    once, and its walk emits only valid vectors, which the search clears
    without validating them again."""

    def test_search_walks_valid_vectors_on_one_grid(self, monkeypatch):
        scans, walked = [], set()
        candidates = equilibrium._GridGame.candidates

        def counted(instance):
            scans.append(instance)
            return price_candidates(instance)

        def recorded(self, firm, type_index):
            got = candidates(self, firm, type_index)
            walked.update(self.vectors(got))
            return got

        monkeypatch.setattr(auction, "price_candidates", counted)
        monkeypatch.setattr(equilibrium._GridGame, "candidates", recorded)
        m = generate(3, firms=2, scenarios_per_firm=2, max_units=2, value_high=8)
        for instance, params in ((MARKET, OPEN_FLOOR), (m, make_safe_auction(2, m.cost))):
            for strict in (False, True):
                scans.clear()
                assert find_grid_equilibria(Analysis(instance), params, strict=strict).profiles
                assert len(scans) == 1
        assert len(walked) > 20
        assert all(_valuation_violations(v, "bid") == [] for v in walked)


class TestFindEquilibria:
    def test_demand_reduction_equilibrium_found(self):
        report = find_grid_equilibria(MARKET, OPEN_FLOOR)
        assert SHADED in report.profiles
        idx = report.profiles.index(SHADED)
        assert report.welfares[idx] == -2
        assert report.worst_welfare == -2
        assert report.searched == 50

    def test_truthful_not_equilibrium_at_zero_floor(self):
        report = find_grid_equilibria(MARKET, OPEN_FLOOR)
        assert TRUTHFUL not in report.profiles

    def test_safe_floor_removes_negative_equilibria(self):
        safe = AuctionParams(2, 9, None, HIGHEST_LOSING)
        report = find_grid_equilibria(MARKET, safe)
        assert report.profiles
        assert all(w >= 0 for w in report.welfares)
        assert report.worst_welfare >= 0

    def test_single_firm_truthful_class_is_equilibrium(self):
        m = MarketInstance(
            firms=(point_mass(mv(4, 3)),), cost=quadratic(1)
        )
        params = AuctionParams(5, 0, None, HIGHEST_LOSING)
        report = find_grid_equilibria(m, params)
        assert ((mv(4, 3),),) in report.profiles

    def test_all_below_floor_zero_welfare(self):
        m = MarketInstance(
            firms=(point_mass(mv(4, 3)),), cost=quadratic(1)
        )
        report = find_grid_equilibria(m, AuctionParams(2, 6, None))
        assert report.profiles
        assert all(w == 0 for w in report.welfares)

    def test_epsilon_relaxation_grows_the_set(self):
        tight = find_grid_equilibria(MARKET, OPEN_FLOOR, epsilon=0)
        loose = find_grid_equilibria(MARKET, OPEN_FLOOR, epsilon=2)
        assert set(tight.profiles) <= set(loose.profiles)
        assert len(loose.profiles) > len(tight.profiles)

    def test_profile_limit_enforced(self):
        with pytest.raises(TooLargeError, match="50"):
            find_grid_equilibria(MARKET, OPEN_FLOOR, profile_limit=10)

    def test_profile_limit_below_one_is_malformed(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_GridGame", None)  # must not be reached
        for limit in (0, -1):
            with pytest.raises(ValidationError, match=f"profile limit must be at least 1, got {limit}"):
                find_grid_equilibria(MARKET, OPEN_FLOOR, profile_limit=limit)
        monkeypatch.undo()
        with pytest.raises(TooLargeError, match="limit 1"):
            find_grid_equilibria(MARKET, OPEN_FLOOR, profile_limit=1)

    def test_profile_limit_fails_before_the_last_slot(self, monkeypatch):
        # candidates per slot: 142, 285, 509, 505; the running product
        # passes 200000 at the third slot
        m = generate(1, cost_kind="marginals")
        walked = []
        candidates = equilibrium._GridGame.candidates

        def counted(self, firm, type_index):
            walked.append((firm, type_index))
            return candidates(self, firm, type_index)

        monkeypatch.setattr(equilibrium._GridGame, "candidates", counted)
        with pytest.raises(TooLargeError, match="at least 20599230 profiles, limit 200000"):
            find_grid_equilibria(m, AuctionParams(2, 2, None, HIGHEST_LOSING))
        assert walked == [(0, 0), (0, 1), (1, 0)]

    def test_rejects_a_market_without_firms(self):
        m = MarketInstance(firms=(), cost=quadratic(1))
        with pytest.raises(ValidationError, match="at least one firm is required"):
            find_grid_equilibria(Analysis(m), AuctionParams(1, 1))

    def test_rejects_negative_epsilon_and_joint(self):
        with pytest.raises(ValidationError):
            find_grid_equilibria(MARKET, OPEN_FLOOR, epsilon=-1)
        joint = MarketInstance(
            firms=(), cost=quadratic(1), joint=((F(1), (mv(3), mv(2))),)
        )
        with pytest.raises(ValidationError):
            find_grid_equilibria(joint, AuctionParams(1, 0, None))

    def test_reverification_gains_within_epsilon(self):
        report = find_grid_equilibria(MARKET, OPEN_FLOOR)
        for profile in report.profiles:
            for firm in range(2):
                assert max(_oracle_gains(MARKET, OPEN_FLOOR, profile, firm, False)) <= 0

    def test_bayesian_two_type_market(self):
        m = MarketInstance(
            firms=(
                point_mass(mv(5, 5)),
                firm_distribution((F(1, 2), mv(8)), (F(1, 2), mv(2))),
            ),
            cost=quadratic(1),
        )
        params = AuctionParams(2, 2, None, HIGHEST_LOSING)
        report = find_grid_equilibria(m, params, profile_limit=500_000)
        for k, profile in enumerate(report.profiles):
            for firm in range(2):
                assert max(_oracle_gains(m, params, profile, firm, False)) <= 0, (k, firm)


def _mixed_instance(rng, firms, units=(1, 1, 2), zeros=False):
    """Marginals over halves and thirds; two-type firms draw their
    probabilities over thirds or sevenths, so firms' denominators differ."""
    low = 0 if zeros else 1
    distributions = []
    for _ in range(firms):
        if rng.random() < 0.4:
            probabilities = (F(1),)
        else:
            den = rng.choice((3, 7))
            k = rng.randint(1, den - 1)
            probabilities = (F(k, den), F(den - k, den))
        distributions.append(tuple(
            (p, mv(*sorted((F(rng.randint(low, 8), rng.choice((1, 2, 3)))
                            for _ in range(rng.choice(units))), reverse=True)))
            for p in probabilities
        ))
    return MarketInstance(firms=tuple(distributions), cost=quadratic(rng.choice((F(1, 2), 1, F(2, 3)))))


def _filtered_candidates(instance, params, firm, type_index, strict):
    """Every non-increasing grid vector, filtered by no-overbidding, sorted."""
    truth = instance.firms[firm][type_index][1]
    length = max(sum(1 for x in v if x > 0) for _, v in instance.firms[firm])
    if length == 0:
        return ((),)
    grid = sorted(bid_levels(instance, params), reverse=True)
    combos = itertools.combinations_with_replacement(grid, length)
    return tuple(sorted(c for c in combos if satisfies_no_overbidding(c, truth, strict)))


def _type_draws(instance, firm=None, type_index=None):
    """(probability, type indices) of every joint type draw; with `firm`,
    only the draws where it has `type_index`, weighted by the others."""
    for combo in itertools.product(*(list(enumerate(f)) for f in instance.firms)):
        types = tuple(t for t, _ in combo)
        if firm is not None and types[firm] != type_index:
            continue
        prob = F(1)
        for j, (_, (p, _)) in enumerate(combo):
            if j != firm:
                prob *= p
        yield prob, types


def _direct_utility(instance, params, reports, firm, type_index, report):
    truth = instance.firms[firm][type_index][1]
    total = F(0)
    for prob, types in _type_draws(instance, firm, type_index):
        bids = [report if j == firm else reports[j][t] for j, t in enumerate(types)]
        out = run_auction(params, bids, instance.cost)
        won = out.allocation[firm]
        total += prob * (value_of(truth, won) - out.unit_price * won)
    return total


def _assert_same_report(report, want):
    """Every field of the search's report equals the eager oracle's."""
    assert EquilibriumReport._fields == want._fields
    for field in want._fields:
        assert getattr(report, field) == getattr(want, field), field


def _oracle_gains(instance, params, profile, firm, strict):
    """Per type of `firm`, what its best grid deviation gains over its report."""
    return tuple(
        max(
            _direct_utility(instance, params, profile, firm, t, report)
            for report in candidate_reports(instance, params, firm, t, strict)
        )
        - _direct_utility(instance, params, profile, firm, t, current)
        for t, current in enumerate(profile[firm])
    )


class TestAgainstDirectOracle:
    """The cached search against `oracles.eager_report`, which checks every
    profile of the candidate product, clears every auction it needs with
    run_auction and keeps only each slot's utilities per opponent
    strategies."""

    def _instances(self):
        rng = random.Random(5)
        found = 0
        while found < 40:
            m = generate(
                rng.randrange(10**6),
                firms=rng.choice((1, 2, 2)),
                scenarios_per_firm=rng.choice((1, 2, 2)),
                max_units=rng.choice((1, 1, 2)),
                value_high=rng.choice((4, 6)),
            )
            cap, floor = rng.choice((1, 2)), rng.choice((0, 1, 2))
            slots = [(i, t) for i, f in enumerate(m.firms) for t in range(len(f))]
            size = 1
            for i, t in slots:
                size *= len(candidate_reports(m, AuctionParams(cap, floor), i, t))
            if size <= 60:
                found += 1
                yield m, cap, floor

    def test_search_and_best_response_match(self):
        # The oracle tries every unilateral deviation of every slot, which is
        # the best-response test the search applies to each profile.
        for m, cap, floor in self._instances():
            for pricing, epsilon, strict in itertools.product(
                (HIGHEST_LOSING, LOWEST_WINNING), (F(0), F(1, 2)), (False, True)
            ):
                params = AuctionParams(cap, floor, None, pricing)
                report = find_grid_equilibria(m, params, epsilon, strict)
                assert report.params == params and report.epsilon == epsilon
                _assert_same_report(report, eager_report(m, params, epsilon, strict))

    def test_three_firms_and_mixed_denominators_match(self):
        # Slot scales differ by firm and epsilon * S_i is rarely an integer,
        # so the integer test rounds; the search is factored by the firm with
        # the largest strategy space, which need not be the last.
        rng = random.Random(8)
        runs = not_last = exact = 0
        while runs < 30:
            m = _mixed_instance(rng, rng.choice((2, 3, 3)))
            strict = rng.random() < 0.5
            params = AuctionParams(
                rng.choice((1, 2)), rng.choice((F(0), F(1, 2), F(4, 3), F(5, 2))), None,
                rng.choice((HIGHEST_LOSING, LOWEST_WINNING)),
            )
            sizes = [
                math.prod(len(candidate_reports(m, params, i, t, strict)) for t in range(len(f)))
                for i, f in enumerate(m.firms)
            ]
            if not 4 <= math.prod(sizes) <= 48:
                continue
            runs += 1
            not_last += len(m.firms) == 3 and max(sizes) > sizes[-1]
            for epsilon in (F(1, 3), F(1, 7)):
                report = find_grid_equilibria(m, params, epsilon, strict)
                _assert_same_report(report, eager_report(m, params, epsilon, strict))
                for profile in report.profiles:
                    for firm in range(len(m.firms)):
                        exact += epsilon in _oracle_gains(m, params, profile, firm, strict)
        assert not_last > 0  # three firms, the largest strategy space not last
        assert exact > 0  # a kept profile where a deviation gains exactly epsilon

    def test_gain_of_exactly_epsilon_is_kept(self):
        # against truthful firm 2, firm 1 gains exactly 1 by shading
        assert TRUTHFUL in find_grid_equilibria(MARKET, OPEN_FLOOR, epsilon=1).profiles
        assert TRUTHFUL not in find_grid_equilibria(MARKET, OPEN_FLOOR, epsilon=F(999, 1000)).profiles

    def test_error_extension_table_covering_sold_quantities(self):
        # Without a ceiling at most the cap (2) is sold, which the table
        # covers; the bids' total length (4) is beyond it.
        m = MarketInstance(
            firms=(
                point_mass(mv(5, 4)),
                firm_distribution((F(1, 2), mv(6, 5)), (F(1, 2), mv(3))),
            ),
            cost=cost_table(1, 2, extension=ERROR_BEYOND),
        )
        with pytest.raises(ValidationError, match="quantity 3 beyond cost table"):
            costs(m.cost, 4)
        params = AuctionParams(2, 0, None, HIGHEST_LOSING)
        report = find_grid_equilibria(m, params, F(1, 3))
        assert (report.searched, len(report.profiles), report.worst_welfare) == (252, 32, F(13, 2))
        _assert_same_report(report, eager_report(m, params, F(1, 3)))

    def test_zero_probability_type(self):
        # Firm 0's first type has probability 0; its interim utilities are
        # still its expectations over the rival's types.
        m = MarketInstance(
            firms=(
                firm_distribution((0, mv(3, 2)), (1, mv(2))),
                point_mass(mv(4)),
            ),
            cost=quadratic(1),
        )
        params = AuctionParams(1, 1, None)
        report = find_grid_equilibria(m, params)
        assert report.profiles
        _assert_same_report(report, eager_report(m, params))
        for profile, per_firm in zip(report.profiles, report.utilities):
            for firm, per_type in enumerate(profile):
                for t, bid in enumerate(per_type):
                    got = per_firm[firm][t]
                    assert got == _direct_utility(m, params, profile, firm, t, bid)
                assert max(_oracle_gains(m, params, profile, firm, False)) <= 0

    def test_cached_outcomes_match_run_auction(self):
        # The game clears integer vectors at the floor and ceiling over L;
        # each outcome it cached must be `run_auction`'s on the Fraction
        # vectors, with the price times L.
        rng = random.Random(13)
        seen = Counter()
        for _ in range(120):
            m = _mixed_instance(rng, rng.choice((1, 2, 2)))
            marginals = sorted({v for f in m.firms for _, t in f for v in t})
            on_grid = rng.random() < 0.5
            floor = rng.choice(marginals) if on_grid else rng.choice((F(0), F(5, 4), F(7, 3), F(11, 2)))
            ceiling = rng.choice((None, floor + rng.choice((F(1, 2), F(1), F(5, 3)))))
            pricing = rng.choice((HIGHEST_LOSING, LOWEST_WINNING))
            params = AuctionParams(rng.choice((1, 2, 3)), floor, ceiling, pricing)
            report = find_grid_equilibria(m, params, F(1, 3), profile_limit=10**6)
            game = report._game
            assert game._outcomes
            for bids, (allocation, price) in game._outcomes.items():
                out = run_auction(params, game.vectors(bids), m.cost)
                assert (out.allocation, out.unit_price * game.scale) == (allocation, price)
                assert isinstance(price, int)
                seen[out.case, pricing, ceiling is None, on_grid and floor in marginals] += 1
        cases = {"floor-binds", "cap-binds", "ceiling-binds"}
        assert {case for case, *_ in seen} == cases
        for pricing in (HIGHEST_LOSING, LOWEST_WINNING):
            for no_ceiling in (False, True):
                for on_grid in (False, True):
                    assert any(key[1:] == (pricing, no_ceiling, on_grid) for key in seen)


def _golden_searches():
    """(case, instance, params, epsilon, strict) of every recorded
    equilibrium case that exits 0, parsed as the command line parses them."""
    for case, (instance, options) in sorted(EQUILIBRIUM_CASES.items()):
        if case in ("joint-3", "random-1-marginals"):  # exit 1 and 2
            continue
        argv = ["equilibrium", "instance.json", *options]
        args = build_parser(argv).parse_args(argv)
        params = AuctionParams(int(args.cap), args.floor, None, args.pricing)
        yield case, instance, params, args.epsilon, args.strict_overbidding


GOLDEN_SEARCHES = list(_golden_searches())


class TestLazyReport:
    """The report builds `profiles`, `welfares` and `utilities` on first
    read; each equals the field the eager oracle builds as it searches."""

    SEARCHES = [
        *GOLDEN_SEARCHES,
        *(
            (f"demand-reduction-cap-{cap}-floor-{floor}-{pricing}-epsilon-{epsilon}", MARKET,
             AuctionParams(cap, floor, None, pricing), epsilon, strict)
            for cap, floor in ((1, 0), (2, 0), (2, 9), (3, 1))
            for pricing in (HIGHEST_LOSING, LOWEST_WINNING)
            for epsilon, strict in ((F(0), False), (F(1, 2), True))
        ),
    ]

    @pytest.mark.parametrize("case, instance, params, epsilon, strict", SEARCHES,
                             ids=[case for case, *_ in SEARCHES])
    def test_every_field_matches_the_eager_oracle(self, case, instance, params, epsilon, strict):
        report = find_grid_equilibria(instance, params, epsilon, strict)
        _assert_same_report(report, eager_report(instance, params, epsilon, strict))
        assert report == find_grid_equilibria(instance, params, epsilon, strict)

    def test_records_the_search_and_builds_each_field_once(self):
        report = find_grid_equilibria(MARKET, OPEN_FLOOR)
        assert set(vars(report)) == {
            "params", "epsilon", "worst_welfare", "searched", "_game", "_found", "_welfares",
        }
        assert report.utilities is report.utilities
        assert "utilities" in vars(report) and "profiles" not in vars(report)
        with pytest.raises(AttributeError, match="read-only"):
            report.welfares = ()
        with pytest.raises(AttributeError, match="read-only"):
            del report.utilities
        assert "welfares" not in vars(report)

    @pytest.mark.parametrize("instance, cap, floor, found", [
        (EQUILIBRIUM_CASES["random-20-small-safe-tie"][0], 3, 6, 96),
        (logscale(3), 1, 1, 9984),  # of 853,875 profiles
    ])
    def test_each_bid_is_one_integer_tuple_until_profiles_are_read(
        self, monkeypatch, instance, cap, floor, found
    ):
        """The game interns each bid once, as the integer tuple that keys
        its id; the report builds Fraction vectors only for `profiles`, one
        object per distinct vector."""
        built = []
        vectors = equilibrium._GridGame.vectors
        monkeypatch.setattr(equilibrium._GridGame, "vectors",
                            lambda game, ids: built.append(ids) or vectors(game, ids))
        params = AuctionParams(cap, floor, None, HIGHEST_LOSING)
        report = find_grid_equilibria(instance, params, profile_limit=10**6)
        assert len(report._found) == found
        game = report._game
        assert len(game._bids) == len(game._ids) > 1
        for bid, r in game._ids.items():
            assert game._bids[r] is bid
            assert all(type(level) is int for level in bid)
        report.welfares, report.utilities
        assert built == []
        every = [v for profile in report.profiles for strategy in profile for v in strategy]
        assert len(built) == 1
        assert len(every) > len({id(v) for v in every}) == len(set(every))

    @pytest.mark.parametrize("case", ["random-5-small-safe", "demand-reduction-epsilon"])
    def test_only_out_builds_the_lazy_fields(self, tmp_path, monkeypatch, capsys, case):
        instance, options = EQUILIBRIUM_CASES[case]
        save_instance(instance, tmp_path / "instance.json")
        monkeypatch.chdir(tmp_path)
        built = []
        for name in ("profiles", "welfares", "utilities"):
            lazy = vars(EquilibriumReport)[name]
            monkeypatch.setattr(EquilibriumReport, name, property(
                lambda self, lazy=lazy: built.append(lazy.attrname) or lazy.func(self)
            ))
        argv = ["equilibrium", "instance.json", *options]
        assert main(argv) == 0
        assert built == []
        printed = capsys.readouterr().out
        assert main([*argv, "--out", "report.csv"]) == 0
        assert set(built) == {"profiles", "welfares", "utilities"}
        assert capsys.readouterr().out == printed + "report written to report.csv\n"


@pytest.mark.parametrize("case, instance, params, epsilon, strict", GOLDEN_SEARCHES,
                         ids=[case for case, *_ in GOLDEN_SEARCHES])
def test_a_search_leaves_no_cyclic_garbage(case, instance, params, epsilon, strict):
    """A CLI process searches with the collector off, so everything a
    search drops must be freed by reference counts alone."""
    gc.collect()
    gc.disable()
    try:
        analysis = Analysis(instance)
        report = find_grid_equilibria(analysis, params, epsilon, strict)
        report.profiles, report.welfares, report.utilities
        if params.floor == analysis.safe_price(params.cap):
            check_poa_bound(analysis, report)
        del analysis, report
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestPerScenarioSafety:
    def test_safe_floor_no_overbid_profiles_never_negative(self):
        # stronger than the equilibrium claim: every grid profile of a
        # safe-price auction clears non-negative welfare in every scenario
        rng = random.Random(7)
        for _ in range(20):
            truths = tuple(
                mv(*sorted((rng.randint(0, 9) for _ in range(rng.randint(1, 3))),
                           reverse=True))
                for _ in range(2)
            )
            m = MarketInstance(
                firms=tuple(point_mass(v) for v in truths),
                cost=quadratic(rng.choice((1, 2))),
            )
            cap = rng.randint(1, 3)
            params = make_safe_auction(cap, m.cost, HIGHEST_LOSING)
            grid = bid_levels(m, params)
            for _ in range(30):
                bids = []
                ok = True
                for v in truths:
                    n = max(sum(1 for x in v if x > 0), 1)
                    bid = mv(*sorted((rng.choice(grid) for _ in range(n)), reverse=True))
                    if not satisfies_no_overbidding(bid, v):
                        ok = False
                        break
                    bids.append(bid)
                if not ok:
                    continue
                out = run_auction(params, bids, m.cost, truths)
                assert out.welfare >= 0


class TestPoACheck:
    def test_safe_auction_keeps_full_welfare_here(self):
        safe = make_safe_auction(2, MARKET.cost, HIGHEST_LOSING)
        report = find_grid_equilibria(MARKET, safe)
        poa = check_poa_bound(Analysis(MARKET), report)
        assert poa.holds
        assert poa.baseline == 2
        assert poa.worst == 2
        assert poa.ratio == 1
        assert poa.bound == 2 * POA_FACTOR

    def test_zero_baseline_vacuous(self):
        m = MarketInstance(
            firms=(point_mass(mv(1,)),), cost=quadratic(9)
        )
        safe = make_safe_auction(1, m.cost)
        report = find_grid_equilibria(m, safe)
        poa = check_poa_bound(Analysis(m), report)
        assert poa.holds

    def test_params_must_match_safe_price(self):
        report = find_grid_equilibria(MARKET, OPEN_FLOOR)
        with pytest.raises(ValidationError):
            check_poa_bound(Analysis(MARKET), report)

    def test_an_unbounded_cap_has_no_safe_price(self):
        report = find_grid_equilibria(MARKET, AuctionParams(None, 0, None))
        with pytest.raises(ValidationError, match="safe price needs cap >= 1, got None"):
            check_poa_bound(Analysis(MARKET), report)

    def test_random_tiny_instances_hold(self):
        # marginals exactly at the safe price make firms indifferent and are
        # excluded here; see test_exact_indifference_breaks_ratio_bound
        rng = random.Random(11)
        done = 0
        while done < 8:
            truths = tuple(
                mv(*sorted((rng.randint(1, 8) for _ in range(rng.randint(1, 2))),
                           reverse=True))
                for _ in range(2)
            )
            m = MarketInstance(
                firms=tuple(point_mass(v) for v in truths),
                cost=quadratic(1),
            )
            for cap in (1, 2):
                price = make_safe_auction(cap, m.cost).floor
                if any(price in v for v in truths):
                    continue
                report = find_grid_equilibria(
                    m, make_safe_auction(cap, m.cost, HIGHEST_LOSING)
                )
                assert check_poa_bound(Analysis(m), report).holds
            done += 1

    @staticmethod
    def oracle(analysis, report):
        """The check with its baseline from the `expected_welfare` oracle."""
        baseline = expected_welfare(analysis, report.params)
        bound = baseline * POA_FACTOR
        worst = report.worst_welfare
        if worst is None:
            return PoACheck(True, baseline, bound, None, None, "no-equilibria")
        ratio = worst / baseline if baseline != 0 else None
        return PoACheck(worst >= bound, baseline, bound, worst, ratio, "checked")

    @pytest.mark.parametrize("pricing", (LOWEST_WINNING, HIGHEST_LOSING))
    def test_baseline_matches_expected_welfare_oracle(self, pricing):
        # Safe-price searches on small random markets, as the benchmark's
        # strategic workload runs them, and a few caps past the largest demand.
        searches = [(seed, cap) for seed in range(12) for cap in (1, 2)]
        for seed, cap in searches + [(seed, 5) for seed in range(3)]:
            m = generate(seed, firms=2, scenarios_per_firm=2, max_units=2, value_high=8)
            report = find_grid_equilibria(m, make_safe_auction(cap, m.cost, pricing))
            got = check_poa_bound(Analysis(m), report)
            assert got == self.oracle(Analysis(m), report), (seed, cap)

    def test_exact_indifference_breaks_ratio_bound(self):
        # Boundary degeneracy: a firm whose value equals the safe price
        # gains nothing from buying, so walking away is also an equilibrium
        # and the producer surplus in the truthful baseline evaporates. The
        # ratio bound genuinely fails here and the check must report it as
        # a finding rather than crash.
        m = MarketInstance(
            firms=(
                point_mass(mv(2)),
                point_mass(mv(1)),
            ),
            cost=quadratic(1),
        )
        report = find_grid_equilibria(m, make_safe_auction(2, m.cost, HIGHEST_LOSING))
        poa = check_poa_bound(Analysis(m), report)
        assert poa.baseline == 1  # truthful sale at the floor is counted
        assert poa.worst == 0  # the walk-away equilibrium discards it
        assert not poa.holds
        # the provable guarantee is unaffected
        assert all(w >= 0 for w in report.welfares)


class TestDeterminism:
    def test_report_is_reproducible(self):
        a = find_grid_equilibria(MARKET, OPEN_FLOOR)
        b = find_grid_equilibria(MARKET, OPEN_FLOOR)
        assert a == b

    def test_profiles_in_canonical_order(self):
        report = find_grid_equilibria(MARKET, OPEN_FLOOR)
        keys = list(report.profiles)
        assert keys == sorted(keys)

"""The capped uniform-price rule, safe-price construction, single buyer."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from capauction import (
    CAP_BINDS,
    CEILING_BINDS,
    FLOOR_BINDS,
    HIGHEST_LOSING,
    LOWEST_WINNING,
    AuctionParams,
    ValidationError,
    demand_reduction,
    logscale,
    price_candidates,
)
from capauction.auction import _demand, clear_valid
from capauction.bounds import best_own_quantity
from oracles import (
    clear,
    combined_valuation,
    cost_of,
    cost_table,
    make_safe_auction,
    mv,
    point_mass,
    quadratic,
    run_auction,
    single_buyer_mechanism,
    value_of,
    welfare_of,
)

COST_9X = cost_table(9, 9)
EX_TRUTHS = (mv(10, 10), mv(6, 1))


def marginal_vectors(max_units=4, max_value=12):
    return st.lists(
        st.integers(min_value=0, max_value=max_value), max_size=max_units
    ).map(lambda vs: tuple(F(v) for v in sorted(vs, reverse=True)))


class TestDemand:
    def test_both_units_clear(self):
        assert _demand(mv(10, 10), F(6)) == 2

    def test_only_first_clears(self):
        assert _demand(mv(6, 1), F(6)) == 1

    def test_all_below(self):
        assert _demand(mv(6, 1), F(7)) == 0

    def test_price_zero_counts_positives_only(self):
        assert _demand(mv(6, 1, 0, 0), F(0)) == 2

    def test_infinite_price(self):
        assert _demand(mv(6, 1), None) == 0

    @given(marginal_vectors(5, 20), st.integers(0, 25), st.integers(0, 25))
    def test_non_increasing_in_price(self, v, p1, p2):
        lo, hi = sorted((F(p1), F(p2)))
        assert _demand(v, lo) >= _demand(v, hi)

    @given(marginal_vectors(5, 20))
    def test_demand_at_min_positive_counts_weakly_above(self, v):
        positives = [x for x in v if x > 0]
        if positives:
            p = min(positives)
            assert _demand(v, p) == sum(1 for x in v if x >= p)


class TestParams:
    def test_ceiling_must_exceed_floor(self):
        with pytest.raises(ValidationError):
            AuctionParams(2, 5, 5)

    def test_cap_at_least_one(self):
        with pytest.raises(ValidationError):
            AuctionParams(0, 0)

    @pytest.mark.parametrize("cap", (F(5, 2), 2.5, True, "2"))
    def test_cap_must_be_an_integer(self, cap):
        with pytest.raises(ValidationError, match="cap must be an integer"):
            AuctionParams(cap, 0)

    def test_unbounded_and_infinite_are_fine(self):
        AuctionParams(None, 3, None)

    def test_coerces_strings(self):
        p = AuctionParams(2, "1/2", "3/2")
        assert p.floor == F(1, 2) and p.ceiling == F(3, 2)


class TestDemandReductionMarket:
    def test_truthful_clearing(self):
        params = AuctionParams(2, 0, None, HIGHEST_LOSING)
        out = run_auction(params, EX_TRUTHS, COST_9X)
        assert out.allocation == (2, 0)
        assert out.unit_price == 6
        assert out.welfare == 2
        assert out.case == CAP_BINDS
        assert out.revenue == 12

    def test_shaded_bid_splits_allocation(self):
        params = AuctionParams(2, 0, None, HIGHEST_LOSING)
        out = run_auction(params, (mv(10, 1), mv(6, 1)), COST_9X, EX_TRUTHS)
        assert out.allocation == (1, 1)
        assert out.unit_price == 1
        assert out.welfare == -2

    def test_lowest_winning_prices_differ(self):
        params = AuctionParams(2, 0, None, LOWEST_WINNING)
        assert run_auction(params, EX_TRUTHS, COST_9X).unit_price == 10
        out = run_auction(params, (mv(10, 1), mv(6, 1)), COST_9X, EX_TRUTHS)
        assert out.unit_price == 6

    def test_huge_cap_sells_all_demand_at_floor(self):
        params = AuctionParams(10, 0, None)
        out = run_auction(params, EX_TRUTHS, COST_9X)
        assert out.case == FLOOR_BINDS
        assert out.allocation == (2, 2)
        assert out.unit_price == 0

    def test_unbounded_cap_is_floor_case(self):
        out = run_auction(AuctionParams(None, 7, None), EX_TRUTHS, COST_9X)
        assert out.case == FLOOR_BINDS
        assert out.allocation == (2, 0)

    def test_ceiling_binds_when_demand_reaches_cap(self):
        out = run_auction(AuctionParams(1, 0, 5), EX_TRUTHS, COST_9X)
        assert out.case == CEILING_BINDS
        assert out.allocation == (2, 1)
        assert out.unit_price == 5

    def test_rejects_increasing_bids(self):
        with pytest.raises(ValidationError):
            run_auction(AuctionParams(2, 0), (mv(1, 5), mv(6, 1)), COST_9X)

    def test_boundary_demand_equal_cap_is_cap_case(self):
        # total demand at the floor exactly equals the cap
        out = run_auction(AuctionParams(4, 0, None), EX_TRUTHS, COST_9X)
        assert out.case == CAP_BINDS
        assert out.allocation == (2, 2)
        assert out.unit_price == 1  # lowest winning

    def test_tie_break_prefers_lower_firm_then_earlier_unit(self):
        out = run_auction(AuctionParams(2, 0, None), (mv(6, 6), mv(6, 6)), quadratic(1))
        assert out.allocation == (2, 0)

    def test_highest_losing_clamps_to_floor(self):
        params = AuctionParams(2, 2, None, HIGHEST_LOSING)
        out = run_auction(params, (mv(10, 10), mv(1,)), COST_9X)
        assert out.allocation == (2, 0)
        assert out.unit_price == 2  # third-highest bid 1 clamped up

    def test_no_losing_bids_prices_at_floor(self):
        params = AuctionParams(2, 3, None, HIGHEST_LOSING)
        out = run_auction(params, (mv(10, 10),), quadratic(1))
        assert out.unit_price == 3


class TestSafeAuction:
    def test_quadratic_floor(self):
        assert make_safe_auction(4, quadratic(1)).floor == 4

    def test_single_unit(self):
        assert make_safe_auction(1, quadratic(1)).floor == 1

    def test_table_floor(self):
        params = make_safe_auction(2, COST_9X)
        assert params.floor == 9
        assert params.ceiling is None

    def test_error_extension_propagates(self):
        with pytest.raises(ValidationError):
            make_safe_auction(3, cost_table(9, 9, extension="error"))

    @given(
        st.lists(marginal_vectors(), min_size=1, max_size=3),
        st.integers(1, 6),
        st.integers(1, 3),
    )
    def test_truthful_welfare_never_negative(self, bids, cap, a):
        # floor at average cost keeps every sold unit's value above its
        # share of the cost whenever the ceiling never binds
        out = run_auction(make_safe_auction(cap, quadratic(a)), bids, quadratic(a))
        assert out.case in (FLOOR_BINDS, CAP_BINDS)
        assert out.welfare >= 0


class TestCasePartition:
    @given(
        st.lists(marginal_vectors(), min_size=1, max_size=3),
        st.integers(1, 8),
        st.integers(0, 12),
        st.integers(1, 13),
    )
    def test_exactly_one_case_applies(self, bids, cap, floor, gap):
        params = AuctionParams(cap, floor, floor + gap)
        out = run_auction(params, bids, quadratic(1))
        d_ceiling = sum(_demand(b, params.ceiling) for b in bids)
        d_floor = sum(_demand(b, params.floor) for b in bids)
        if d_ceiling >= cap:
            assert out.case == CEILING_BINDS and out.unit_price == params.ceiling
        elif d_floor < cap:
            assert out.case == FLOOR_BINDS and out.unit_price == params.floor
        else:
            assert out.case == CAP_BINDS
            assert sum(out.allocation) == cap
            assert out.unit_price >= params.floor

    @given(st.lists(marginal_vectors(), min_size=1, max_size=3), st.integers(1, 8))
    def test_lowest_winning_price_is_marginal_combined_value(self, bids, cap):
        params = AuctionParams(cap, 0, None, LOWEST_WINNING)
        out = run_auction(params, bids, quadratic(1))
        if out.case == CAP_BINDS:
            assert out.unit_price == (
                combined_valuation(bids, cap) - combined_valuation(bids, cap - 1)
            )

    @given(
        st.lists(marginal_vectors(), min_size=1, max_size=3),
        st.integers(1, 8),
        st.integers(0, 12),
    )
    def test_sold_units_clear_the_binding_price(self, bids, cap, floor):
        params = AuctionParams(cap, floor, floor + 2)
        out = run_auction(params, bids, quadratic(1))
        if out.case == CAP_BINDS:
            # winners hold the top marginals, all clearing the floor
            for b, x in zip(bids, out.allocation):
                assert all(m >= params.floor and m > 0 for m in b[:x])
        else:
            threshold = params.ceiling if out.case == CEILING_BINDS else params.floor
            for b, x in zip(bids, out.allocation):
                assert _demand(b, threshold) == x

    def test_deterministic(self):
        bids = (mv(5, 5, 2), mv(5, 3), mv(5,))
        params = AuctionParams(3, 1, None)
        assert run_auction(params, bids, quadratic(1)) == run_auction(
            params, bids, quadratic(1)
        )


def _random_vector(rng: random.Random, top: int) -> tuple[F, ...]:
    return tuple(sorted(
        (F(rng.randint(0, 2 * top), rng.choice((1, 2))) for _ in range(rng.randint(0, 4))),
        reverse=True,
    ))


class TestClear:
    def test_matches_run_auction(self):
        """`clear` against the oracle on random 1-3-firm markets, both
        pricing rules, with and without caps and ceilings; welfare is
        valued at separate true curves, as a strategic search does."""
        rng = random.Random(12)
        cases = set()
        for _ in range(400):
            firms = rng.randint(1, 3)
            bids = [_random_vector(rng, 6) for _ in range(firms)]
            truths = [_random_vector(rng, 6) for _ in range(firms)]
            cap = rng.choice((None, 1, 2, 3, 5, 8))
            floor = F(rng.randint(0, 12), rng.choice((1, 2)))
            ceiling = rng.choice((None, floor + F(rng.randint(1, 8), rng.choice((1, 3)))))
            params = AuctionParams(cap, floor, ceiling, rng.choice((LOWEST_WINNING, HIGHEST_LOSING)))
            cost = rng.choice((quadratic(F(1, 2)), cost_table(1, 2, 2, 5)))
            allocation, price, case = clear(params, bids)
            out = run_auction(params, bids, cost, truths)
            assert (allocation, price, case) == (out.allocation, out.unit_price, out.case)
            assert out.welfare == welfare_of(truths, allocation, cost)
            assert out.revenue == price * sum(allocation)
            assert run_auction(params, bids, cost).welfare == welfare_of(bids, allocation, cost)
            cases.add((case, params.pricing, cap is None, ceiling is None))
        assert {case for case, *_ in cases} == {CAP_BINDS, CEILING_BINDS, FLOOR_BINDS}
        assert len(cases) >= 12

    @given(
        st.lists(
            st.lists(st.fractions(0, 12, max_denominator=3), max_size=4)
            .map(lambda vs: tuple(sorted(vs, reverse=True))),
            min_size=1, max_size=3,
        ),
        st.none() | st.integers(1, 8),
        st.sampled_from((LOWEST_WINNING, HIGHEST_LOSING)),
        st.integers(1, 3),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_integer_levels_clear_like_their_fractions(self, bids, cap, pricing, extra, data):
        """The equilibrium search clears its bids as integers over a scale
        L, with the floor and ceiling over L: that gives the allocation and
        case of the Fraction bids and exactly L times their price, an int.
        Floors and ceilings are drawn on the bid values and off them."""
        values = sorted({v for b in bids for v in b} | {F(0)})
        off_values = st.fractions(0, 8, max_denominator=4)
        floor = data.draw(st.sampled_from(values) | off_values, label="floor")
        above = st.sampled_from([v for v in values if v > floor] or [floor + 1])
        gap = st.fractions(0, 6, max_denominator=4).filter(bool)
        ceiling = data.draw(st.none() | above | gap.map(floor.__add__), label="ceiling")
        want = clear_valid(bids, cap, floor, ceiling, pricing)
        numbers = [*values, floor] + ([] if ceiling is None else [ceiling])
        scale = math.lcm(*(v.denominator for v in numbers)) * extra
        levels = [tuple(int(v * scale) for v in b) for b in bids]
        allocation, price, case = clear_valid(
            levels, cap, int(floor * scale), None if ceiling is None else int(ceiling * scale),
            pricing,
        )
        assert (allocation, case) == (want[0], want[2])
        assert type(price) is int and price == want[1] * scale

    def test_rejects_the_bids_run_auction_rejects(self):
        bids = (mv(3, 1), (F(1), F(2)))
        with pytest.raises(ValidationError) as direct:
            clear(AuctionParams(2, 0), bids)
        with pytest.raises(ValidationError) as oracle:
            run_auction(AuctionParams(2, 0), bids, quadratic(1))
        assert str(direct.value) == str(oracle.value) == "bids[1]: not non-increasing at index 1"


class TestSingleBuyer:
    def test_demand_reduction_market(self):
        out = single_buyer_mechanism(EX_TRUTHS, COST_9X)
        assert out.scores == (2, 0)
        assert out.winner == 0
        assert out.quantity == 2
        assert out.welfare == 2
        assert out.right_payment == 0

    def test_all_marginals_below_first_cost(self):
        out = single_buyer_mechanism((mv(5, 2),), cost_table(8, 8))
        assert out.quantity == 0
        assert out.welfare == 0

    def test_flat_curve_hits_boundary(self):
        # four marginals of 8 against x^2: all increments positive
        out = single_buyer_mechanism((mv(8, 8, 8, 8),), quadratic(1))
        assert out.quantity == 4
        assert out.welfare == 16

    def test_tie_prefers_lower_index(self):
        out = single_buyer_mechanism((mv(4,), mv(4,)), quadratic(1))
        assert out.winner == 0
        assert out.right_payment == 3

    def test_smallest_maximizer_on_plateau(self):
        # second unit adds exactly zero: stay at one unit
        out = single_buyer_mechanism((mv(4, 3),), cost_table(1, 3))
        assert out.quantity == 1
        assert out.welfare == 3

    @given(st.lists(marginal_vectors(), min_size=1, max_size=3), st.integers(1, 3))
    def test_matches_bruteforce(self, truths, a):
        cost = quadratic(a)
        out = single_buyer_mechanism(truths, cost)
        brute = max(value_of(v, x) - cost_of(cost, x) for v in truths for x in range(0, 6))
        assert out.welfare == brute  # x = 0 is in the brute range, so brute >= 0

    def test_best_own_quantity_scans_increments(self):
        assert best_own_quantity(mv(10, 10), COST_9X) == (2, 2)


class TestPriceCandidates:
    def test_demand_reduction_grid(self):
        got = price_candidates(demand_reduction())
        assert got == (F(0), F(1), F(6), F(10), F(11))

    def test_single_marginal(self):
        from capauction import MarketInstance

        m = MarketInstance(firms=(point_mass(mv(5)),), cost=quadratic(1))
        assert price_candidates(m) == (F(0), F(5), F(6))

    def test_logscale_two(self):
        assert price_candidates(logscale(2)) == (F(0), F(4), F(8), F(9))

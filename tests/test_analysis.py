"""Expected welfare, optimization, sell-out probability, derived caps."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from capauction.analysis import (
    Candidate, optimize_cap_and_price, optimize_safe, safe_keys, sweep_keys,
)
from capauction.auction import (
    HIGHEST_LOSING, LOWEST_WINNING, Analysis, AuctionParams, _demand, price_candidates,
)
from capauction.bounds import (
    demand_quantile_cap, one_minus_inv_e, single_buyer_expected, verify_ceiling_removal,
)
from capauction.instances import demand_reduction, first_best, generate, logscale, scale_weight
from capauction.model import MarginalCostTable, MarketInstance, TooLargeError, ValidationError
from oracles import (
    CountedEntries,
    cost_of,
    cost_table,
    enumerate_scenarios,
    expected_welfare,
    firm_distribution,
    make_safe_auction,
    mv,
    point_mass,
    quadratic,
    run_auction,
    scenario_product,
    value_of,
)

BETA5 = scale_weight(5)


def sweep_rows(analysis, allow_ceiling=True):
    """Every candidate of the cap-and-price sweep, in search order, read off its keys."""
    grid = analysis.grid
    return tuple(
        Candidate(-cap, grid[i], grid[j] if j < len(grid) else None, F(num, analysis._den))
        for num, cap, i, j in sweep_keys(analysis, allow_ceiling)
    )


def safe_rows(analysis):
    """Every candidate of the safe-price sweep, caps ascending."""
    return tuple(
        Candidate(-cap, analysis.safe_price(-cap), None, w) for w, cap in safe_keys(analysis)
    )


def two_scenario_firm():
    """Demand 3 w.p. 1/2, demand 1 w.p. 1/2 at any price up to 4."""
    return MarketInstance(
        firms=(
            firm_distribution((F(1, 2), mv(4, 4, 4)), (F(1, 2), mv(4))),
        ),
        cost=quadratic(1),
    )


class TestEnumerate:
    def test_point_masses_single_row(self):
        table = enumerate_scenarios(demand_reduction())
        assert len(table) == 1
        assert table[0].probability == 1

    def test_product_of_two_by_two(self):
        m = MarketInstance(
            firms=(
                firm_distribution((F(1, 2), mv(3)), (F(1, 2), mv(2))),
                firm_distribution((F(1, 2), mv(5)), (F(1, 2), mv(1))),
            ),
            cost=quadratic(1),
        )
        table = enumerate_scenarios(m)
        assert len(table) == 4
        assert all(r.probability == F(1, 4) for r in table)
        assert sum(r.probability for r in table) == 1

    def test_logscale_probabilities(self):
        table = enumerate_scenarios(logscale(5))
        assert len(table) == 5
        for i, row in enumerate(table, start=1):
            assert row.probability == F(1, 4**i) / BETA5

    def test_limit_names_size(self):
        m = MarketInstance(
            firms=tuple(
                firm_distribution((F(1, 2), mv(3)), (F(1, 2), mv(2)))
                for _ in range(4)
            ),
            cost=quadratic(1),
        )
        with pytest.raises(TooLargeError, match="16"):
            enumerate_scenarios(m, limit=10)

    def test_joint_passthrough(self):
        m = MarketInstance(
            firms=(),
            cost=quadratic(1),
            joint=((F(1, 2), (mv(3), mv(2))), (F(1, 2), (mv(1), mv(5)))),
        )
        table = enumerate_scenarios(m)
        assert len(table) == 2


class TestExpectedWelfare:
    def test_demand_reduction_truthful(self):
        m = Analysis(demand_reduction())
        assert expected_welfare(m, AuctionParams(2, 0, None)) == 2

    def test_floor_above_everything(self):
        m = Analysis(demand_reduction())
        assert expected_welfare(m, AuctionParams(3, 11, None)) == 0

    def test_logscale_unbounded_floor_one(self):
        m = Analysis(logscale(5))
        assert expected_welfare(m, AuctionParams(None, 1, None)) == 5 / BETA5

    def test_pricing_rule_never_changes_welfare(self):
        m = Analysis(demand_reduction())
        for cap in (1, 2, 3):
            for floor in (0, 1, 6, 9):
                lw = expected_welfare(m, AuctionParams(cap, floor, None, LOWEST_WINNING))
                hl = expected_welfare(m, AuctionParams(cap, floor, None, HIGHEST_LOSING))
                assert lw == hl

    def test_row_order_independence(self):
        m = two_scenario_firm()
        table = enumerate_scenarios(m)
        reversed_rows = MarketInstance(  # the same scenarios as a reversed joint table
            firms=(),
            cost=m.cost,
            joint=tuple((r.probability, r.valuations) for r in reversed(table)),
        )
        params = AuctionParams(2, 1, None)
        assert expected_welfare(Analysis(m), params) == expected_welfare(
            Analysis(reversed_rows), params
        )


class TestOptimize:
    def test_demand_reduction_opt_is_two(self):
        opt = optimize_cap_and_price(Analysis(demand_reduction()), allow_ceiling=False)
        assert opt.winner.expected_welfare == 2
        assert opt.winner.cap == 2

    def test_worthless_market_opts_to_zero(self):
        m = MarketInstance(
            firms=(point_mass(mv(3, 2)),), cost=cost_table(5, 5)
        )
        opt = optimize_cap_and_price(Analysis(m))
        assert opt.winner.expected_welfare == 0

    def test_logscale_opt_exact(self):
        opt = optimize_cap_and_price(Analysis(logscale(5)), allow_ceiling=False)
        assert opt.winner.expected_welfare == 5 / BETA5

    def test_opt_at_least_best_safe_and_nonnegative(self):
        for seed in range(12):
            m = Analysis(generate(seed, firms=2, scenarios_per_firm=2, max_units=3))
            opt = optimize_cap_and_price(m, allow_ceiling=False)
            safe = optimize_safe(m)
            assert opt.winner.expected_welfare >= safe.winner.expected_welfare
            assert opt.winner.expected_welfare >= 0

    def test_table_covers_search(self):
        analysis = Analysis(demand_reduction())
        opt = optimize_cap_and_price(analysis, allow_ceiling=False)
        rows = sweep_rows(analysis, allow_ceiling=False)
        assert len(rows) == opt.searched
        assert all(opt.winner.expected_welfare >= cand.expected_welfare for cand in rows)


class TestOptimizeSafe:
    def test_logscale_best_safe_frozen_value(self):
        # independent closed-form oracle over cap brackets froze 3504/341
        result = optimize_safe(Analysis(logscale(5), cap_limit=32))
        assert result.winner.expected_welfare == F(3504, 341)
        assert result.winner.expected_welfare <= 4 / BETA5
        assert result.winner.cap == 4

    def test_single_firm_flat_curve(self):
        m = MarketInstance(
            firms=(point_mass(mv(10, 10)),), cost=cost_table(9, 9)
        )
        result = optimize_safe(Analysis(m))
        assert result.winner.cap == 2
        assert result.winner.expected_welfare == 2

    def test_empty_demand(self):
        m = MarketInstance(
            firms=(point_mass(mv(0, 0)),), cost=quadratic(1)
        )
        result = optimize_safe(Analysis(m))
        assert result.winner.expected_welfare == 0

    def test_reads_each_cost_entry_once(self):
        # The welfare rows and every cap's safe price share one walk of the table.
        n = 2000
        entries = CountedEntries(F(j, 7) for j in range(1, n + 1))
        m = MarketInstance(firms=(point_mass((F(n),) * n),), cost=MarginalCostTable(entries))
        assert optimize_safe(Analysis(m)).searched == n
        assert set(entries.reads) == set(range(n)) and max(entries.reads.values()) == 1

    def test_a_cap_limit_past_the_demand_reads_each_cost_entry_once(self):
        # Demand is 1, so the rows stop at quantity 1 and every larger cap's
        # safe price reads past them: one table for all caps, not one per cap.
        n = 2000
        entries = CountedEntries(F(j, 7) for j in range(1, n + 1))
        m = MarketInstance(firms=(point_mass(mv(n)),), cost=MarginalCostTable(entries))
        assert optimize_safe(Analysis(m, cap_limit=n)).searched == n
        assert set(entries.reads) == set(range(n)) and max(entries.reads.values()) == 1

    def test_short_table_names_the_first_cap_it_lacks(self):
        m = MarketInstance(firms=(point_mass(mv(9)),), cost=cost_table(1, 2, extension="error"))
        with pytest.raises(ValidationError, match="^quantity 3 beyond cost table of length 2 "):
            optimize_safe(Analysis(m, cap_limit=4))

    def test_a_safe_price_past_a_short_table_names_the_first_quantity_it_lacks(self):
        analysis = Analysis(MarketInstance(
            firms=(point_mass(mv(9)),), cost=cost_table(1, 2, extension="error")))
        for cap in (5, 3, 4):
            with pytest.raises(ValidationError, match="^quantity 3 beyond cost table of length 2 "):
                analysis.safe_price(cap)
        assert [analysis.safe_price(cap) for cap in (1, 2)] == [1, F(3, 2)]

    def test_safe_table_has_zero_cap_convention(self):
        analysis = Analysis(demand_reduction())
        assert analysis.safe_welfare(0) == 0
        assert analysis.safe_welfare(2) == 2

    def test_safe_table_rejects_an_unbounded_cap(self):
        with pytest.raises(ValidationError, match="safe price needs cap >= 1, got None"):
            Analysis(demand_reduction()).safe_welfare(None)

    def test_safe_table_rejects_an_unbounded_cap_before_tabulating(self):
        analysis = Analysis(logscale(4))
        with pytest.raises(ValidationError, match="safe price needs cap >= 1, got None"):
            analysis.safe_welfare(None)
        assert (analysis._reach, analysis._cost) == (-1, [])


class TestSellOut:
    def test_deterministic_demand(self):
        assert Analysis(demand_reduction()).sell_out_probability(2, F(0)) == 1

    def test_cap_above_everything(self):
        assert Analysis(demand_reduction()).sell_out_probability(5, F(0)) == 0

    def test_two_scenario_half(self):
        assert Analysis(two_scenario_firm()).sell_out_probability(2, F(1)) == F(1, 2)

    def test_monotone_in_cap_and_floor(self):
        m = Analysis(two_scenario_firm())
        probs = [m.sell_out_probability(c, F(1)) for c in range(1, 5)]
        assert probs == sorted(probs, reverse=True)
        by_floor = [m.sell_out_probability(2, F(f)) for f in (0, 1, 4, 5)]
        assert by_floor == sorted(by_floor, reverse=True)


class TestDemandQuantileCap:
    def test_deterministic_demand_gives_full_demand(self):
        assert demand_quantile_cap(Analysis(demand_reduction()), F(0)) == 4

    def test_half_half_market(self):
        # Pr[d >= 2] = 1/2 < 1 - 1/e, Pr[d >= 1] = 1
        assert demand_quantile_cap(Analysis(two_scenario_firm()), F(1)) == 1

    def test_zero_when_nothing_demanded(self):
        m = MarketInstance(
            firms=(point_mass(mv(0,)),), cost=quadratic(1)
        )
        assert demand_quantile_cap(Analysis(m), F(0)) == 0

    def test_default_threshold_over_approximates(self):
        # independent oracle: high-precision decimal exponential
        from decimal import Decimal, getcontext

        getcontext().prec = 80
        reference = F(1 - 1 / Decimal(1).exp())  # within 1e-79 of the true value
        t = one_minus_inv_e()
        assert t > reference - F(1, 10**70)  # strictly above the irrational value
        assert t - reference < F(2, 10**50)  # but 50-digit accurate


class TestSingleBuyerExpected:
    def test_demand_reduction(self):
        assert single_buyer_expected(Analysis(demand_reduction())) == 2

    def test_logscale_equals_first_best(self):
        assert single_buyer_expected(Analysis(logscale(5))) == 5 / BETA5

    def test_all_zero(self):
        m = MarketInstance(
            firms=(point_mass(mv(0, 0)),), cost=quadratic(1)
        )
        assert single_buyer_expected(Analysis(m)) == 0

    def test_dominates_each_fixed_firm(self):
        from capauction.bounds import best_own_quantity

        for seed in range(10):
            m = generate(seed, firms=3, scenarios_per_firm=2, max_units=3)
            total = single_buyer_expected(Analysis(m))
            table = enumerate_scenarios(m)
            for i in range(len(m.firms)):
                fixed = sum(
                    (
                        row.probability
                        * best_own_quantity(row.valuations[i], m.cost)[1]
                        for row in table
                    ),
                    F(0),
                )
                assert total >= fixed


class TestFirstBest:
    def test_max_total_demand(self):
        assert Analysis(logscale(5)).max_demand == 32
        assert Analysis(first_best(5)).max_demand == 64
        assert Analysis(demand_reduction()).max_demand == 4

    def test_rejects_n_before_the_horizon(self):
        with pytest.raises(ValidationError, match="n must be at least 1, got 0"):
            first_best(0, horizon=1)


class TestBruteForceOracle:
    def test_expected_welfare_matches_hand_evaluator(self):
        # independent literal implementation of the three-case rule
        def hand_expected(m, cap, floor):
            total = F(0)
            for row in enumerate_scenarios(m):
                demands = [
                    sum(1 for x in v if x >= floor and x > 0)
                    if floor == 0
                    else sum(1 for x in v if x >= floor)
                    for v in row.valuations
                ]
                if sum(demands) < cap:
                    alloc = demands
                else:
                    pool = sorted(
                        (
                            (value, firm)
                            for firm, v in enumerate(row.valuations)
                            for value in v
                        ),
                        key=lambda t: (-t[0], t[1]),
                    )
                    alloc = [0] * len(row.valuations)
                    for _, firm in pool[:cap]:
                        alloc[firm] += 1
                value = sum(
                    (value_of(v, x) for v, x in zip(row.valuations, alloc)), F(0)
                )
                total += row.probability * (value - cost_of(m.cost, sum(alloc)))
            return total

        for seed in range(25):
            m = generate(seed, firms=2, scenarios_per_firm=2, max_units=3,
                         cost_kind="quadratic" if seed % 2 else "marginals")
            analysis = Analysis(m)
            for cap in (1, 2, 4):
                for floor in (F(0), F(2), F(7)):
                    got = expected_welfare(analysis, AuctionParams(cap, floor, None))
                    assert got == hand_expected(m, cap, floor), (seed, cap, floor)


class TestWelfareKernel:
    """The quantity-indexed sweeps against loops over expected_welfare."""

    INSTANCES = (
        [logscale(n) for n in range(2, 6)]
        + [demand_reduction()]
        + [
            generate(seed, firms=2, scenarios_per_firm=2, max_units=3,
                     cost_kind="quadratic" if seed % 2 else "marginals")
            for seed in range(20)
        ]
    )

    @given(
        seed=st.integers(0, 10**6),
        firms=st.integers(1, 3),
        value_low=st.sampled_from((0, 1)),
        divisor=st.sampled_from((1, 3)),
        cost_kind=st.sampled_from(("quadratic", "marginals")),
        cap=st.none() | st.integers(1, 12),
        floor_index=st.integers(0, 30),
        off_grid=st.sampled_from((F(0), F(1, 3), F(1, 2))),
        ceiling_gap=st.none() | st.sampled_from((F(1, 4), F(1), F(3), F(40))),
        pricing=st.sampled_from((LOWEST_WINNING, HIGHEST_LOSING)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_expected_welfare(
        self, seed, firms, value_low, divisor, cost_kind, cap, floor_index, off_grid,
        ceiling_gap, pricing,
    ):
        m = generate(seed, firms=firms, scenarios_per_firm=2, max_units=3,
                     value_low=value_low, cost_kind=cost_kind)
        m = MarketInstance(  # fractional marginals when divisor > 1
            firms=tuple(
                tuple((p, tuple(v / divisor for v in vec)) for p, vec in firm)
                for firm in m.firms
            ),
            cost=m.cost,
        )
        grid = price_candidates(m)
        floor = grid[floor_index % len(grid)] + off_grid
        ceiling = None if ceiling_gap is None else floor + ceiling_gap
        params = AuctionParams(cap, floor, ceiling, pricing)
        analysis = Analysis(m)
        analysis._tabulate(None)
        assert analysis.welfare(cap, floor, ceiling) == expected_welfare(analysis, params)

    @pytest.mark.parametrize("allow_ceiling", (False, True))
    def test_optimize_matches_oracle(self, allow_ceiling):
        for m in self.INSTANCES:
            grid = price_candidates(m)
            analysis = Analysis(m)
            rows = []
            for cap in range(1, max(1, analysis.max_demand) + 2):
                for floor in grid:
                    ceilings = [c for c in grid if c > floor] if allow_ceiling else []
                    for ceiling in [None] + ceilings:
                        w = expected_welfare(analysis, AuctionParams(cap, floor, ceiling))
                        rows.append(Candidate(cap, floor, ceiling, w))
            # smaller cap, then larger floor, then larger ceiling (None largest)
            best = max(rows, key=lambda c: (
                c.expected_welfare, -c.cap, c.floor,
                (1, 0) if c.ceiling is None else (0, c.ceiling),
            ))
            opt = optimize_cap_and_price(analysis, allow_ceiling=allow_ceiling)
            assert sweep_rows(analysis, allow_ceiling) == tuple(rows), m.label
            assert opt.searched == len(rows)
            assert opt.winner == best

    def test_safe_sweeps_match_oracle(self):
        for m in self.INSTANCES:
            analysis = Analysis(m)
            cap_limit = max(1, analysis.max_demand)
            safe = [make_safe_auction(c, m.cost) for c in range(1, cap_limit + 1)]
            welfares = [expected_welfare(analysis, p) for p in safe]
            result = optimize_safe(analysis)
            assert [(c.cap, c.floor, c.expected_welfare) for c in safe_rows(analysis)] == [
                (p.cap, p.floor, w) for p, w in zip(safe, welfares)
            ]
            assert result.searched == len(safe)
            best = welfares.index(max(welfares))  # ties keep the smaller cap
            assert result.winner == Candidate(safe[best].cap, safe[best].floor, None, welfares[best])

    def test_ceiling_removal_search_matches_oracle(self):
        for m in self.INSTANCES:
            grid = price_candidates(m)
            analysis = Analysis(m)
            # The no-ceiling optimum's tie-break: the smaller cap, then the larger floor.
            w, cap, floor = max(
                (expected_welfare(analysis, AuctionParams(cap, floor, None)), -cap, floor)
                for cap in range(1, max(1, analysis.max_demand) + 2)
                for floor in grid
            )
            cert = verify_ceiling_removal(analysis, AuctionParams(1, grid[0], grid[-1]))
            assert (cert.lhs, cert.witness["witness_cap"], cert.witness["witness_floor"]) == (
                w, -cap, floor
            )

    def test_sold_out_welfare_matches_oracle(self):
        for m in self.INSTANCES:
            analysis = Analysis(m)
            for cap in range(1, analysis.max_demand + 2):
                for floor in price_candidates(m):
                    params = AuctionParams(cap, floor, None)
                    want = sum(
                        (
                            row.probability * run_auction(params, row.valuations, m.cost).welfare
                            for row in enumerate_scenarios(m)
                            if sum(_demand(v, floor) for v in row.valuations) >= cap
                        ),
                        F(0),
                    )
                    assert analysis.sold_out_welfare(cap, floor) == want, (m.label, cap, floor)

    def test_error_extension_table_fails_when_built(self):
        m = MarketInstance(
            firms=(
                point_mass(mv(9, 8, 7)),
                firm_distribution((F(1, 2), mv(6, 5)), (F(1, 2), mv(3))),
            ),
            cost=cost_table(1, 2, extension="error"),
        )
        analysis = Analysis(m)
        analysis._tabulate(2)
        assert analysis.welfare(2, F(0)) == 14
        with pytest.raises(ValidationError, match="beyond cost table"):
            analysis._tabulate(None)


# ---- integer tables and the reused sweep candidates ----------------------

VALUE = st.builds(F, st.integers(0, 12), st.sampled_from((1, 2, 3, 4, 6, 7)))
VALUATION = st.lists(VALUE, max_size=4).map(lambda vs: tuple(sorted(vs, reverse=True)))
# Types of one factor: (weight, valuation), weights 0..4 with one positive;
# a weight of 0 is a zero-probability type.
TYPE_WEIGHTS = st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(any)


def normalized(weights):
    total = sum(weights)
    return [F(w, total) for w in weights]


def result(compute):
    """`compute()`, or the type and message of the MarketError it raises."""
    try:
        return compute()
    except (TooLargeError, ValidationError) as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def markets(draw):
    """Product or joint instances with mixed denominators, zero-probability
    types and firms without positive marginals."""
    cost = draw(st.sampled_from((quadratic(1), quadratic(F(1, 2)), cost_table(1, F(3, 2), 4))))
    if draw(st.booleans()):
        firms = []
        for _ in range(draw(st.integers(1, 3))):
            weights = draw(TYPE_WEIGHTS)
            valuations = draw(st.lists(VALUATION, min_size=len(weights), max_size=len(weights)))
            firms.append(tuple(zip(normalized(weights), valuations)))
        return MarketInstance(firms=tuple(firms), cost=cost)
    width = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    rows = tuple(
        (p, tuple(draw(st.lists(VALUATION, min_size=width, max_size=width))))
        for p in normalized(weights)
    )
    return MarketInstance(firms=(), cost=cost, joint=rows)


class TestIntegerTables:
    """`Analysis` builds its integer tables from the firm types; the oracle
    builds them the old way, from the Fraction rows of enumerate_scenarios."""

    @given(m=markets())
    @settings(max_examples=200, deadline=None)
    def test_tables_match_enumerated_scenarios(self, m):
        analysis = Analysis(m)
        rows = enumerate_scenarios(m)
        pools = [sorted(v for vec in row.valuations for v in vec if v > 0) for row in rows]
        assert [F(w, analysis._weight) for w in analysis._probs] == [r.probability for r in rows]
        assert [[F(v, analysis._scale) for v in pool] for pool in analysis._pools] == pools
        assert analysis.max_demand == max(map(len, pools), default=0)
        grid = analysis.grid
        # Off the grid too: the safe prices C(k)/k the safe sweep reads, the
        # midpoints between grid prices, and prices below and above the grid.
        safe = [cost_of(m.cost, k) / k for k in range(1, analysis.max_demand + 2)]
        midpoints = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
        for price in [*grid, *safe, *midpoints, F(-1), grid[-1] + 1]:
            assert analysis.demand(price) == [
                sum(1 for v in pool if v >= price) for pool in pools
            ], price

    @given(m=markets(), limit=st.integers(-2, 30))
    @settings(max_examples=100, deadline=None)
    def test_limit_errors_match_enumerate_scenarios(self, m, limit):
        want = result(lambda: len(enumerate_scenarios(m, limit)))
        got = result(lambda: len(Analysis(m, scenario_limit=limit)._probs))
        assert got == want

    def test_limit_is_checked_before_any_other_work(self, monkeypatch):
        from capauction import auction as module

        def no_work(*args):
            raise AssertionError("work before the scenario limit check")

        monkeypatch.setattr(module, "price_candidates", no_work)
        with pytest.raises(TooLargeError, match="scenario product has 4 rows, limit 3"):
            Analysis(generate(0), scenario_limit=3)

    @pytest.mark.parametrize("limit", (0, -1))
    def test_limit_below_one_is_malformed(self, monkeypatch, limit):
        from capauction import auction as module

        def no_work(*args):
            raise AssertionError("work before the scenario limit check")

        monkeypatch.setattr(module, "price_candidates", no_work)
        with pytest.raises(ValidationError, match=f"scenario limit must be at least 1, got {limit}"):
            Analysis(generate(0), scenario_limit=limit)
        with pytest.raises(TooLargeError, match="scenario product has 4 rows, limit 1"):
            Analysis(generate(0), scenario_limit=1)

    @given(m=markets(), below_demand=st.integers(0, 3), allow_ceiling=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_every_sweep_row_matches_welfare(self, m, below_demand, allow_ceiling):
        cap_limit = max(1, Analysis(m).max_demand - below_demand)
        analysis = Analysis(m, cap_limit=cap_limit)
        opt = optimize_cap_and_price(analysis, allow_ceiling)
        rows = sweep_rows(analysis, allow_ceiling)
        assert len(rows) == opt.searched
        oracle = Analysis(m, cap_limit=cap_limit)
        for cand in rows:
            assert cand.expected_welfare == oracle.welfare(cand.cap, cand.floor, cand.ceiling)
        assert opt.winner.expected_welfare == max(c.expected_welfare for c in rows)

    def test_sweep_reuses_rows_where_nothing_binds(self):
        # generate(3): the sentinel cap and the high ceilings bind nowhere,
        # and cap_limit 1 leaves caps below the largest demand.
        m = generate(3)
        for cap_limit in (None, 1):
            analysis = Analysis(m, cap_limit=cap_limit)
            rows = sweep_rows(analysis)
            free = [
                c for c in rows
                if c.ceiling is not None and max(analysis.demand(c.ceiling)) <= c.cap
            ]
            assert free and len(free) < len(rows)
            oracle = Analysis(m, cap_limit=cap_limit)
            for cand in rows:
                assert cand.expected_welfare == expected_welfare(
                    oracle, AuctionParams(cand.cap, cand.floor, cand.ceiling)
                )


# ---- scenario order against the itertools.product enumeration ------------

NO_FIRMS = MarketInstance(firms=(), cost=quadratic(1))


class TestScenarioOrder:
    """Every scenario fold matches `oracles.scenario_product` row by row."""

    @given(m=st.one_of(markets(), st.just(NO_FIRMS)))
    @settings(max_examples=200, deadline=None)
    def test_folds_match_the_product(self, m):
        want = scenario_product(m)
        rows = enumerate_scenarios(m)
        assert [(r.probability, r.valuations) for r in rows] == [(p, vs) for p, _, vs in want]
        analysis = Analysis(m)
        assert [F(w, analysis._weight) for w in analysis._probs] == [p for p, _, _ in want]

    def test_no_firms_is_one_empty_scenario(self):
        assert enumerate_scenarios(NO_FIRMS) == ((F(1), ()),)
        analysis = Analysis(NO_FIRMS)
        assert (analysis._probs, analysis._weight) == ([1], 1)

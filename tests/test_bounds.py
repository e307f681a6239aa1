"""Certificates that read `Analysis` against the slow paths they replace."""

import math
import time
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st, target

from capauction.auction import Analysis, AuctionParams, _demand, price_candidates
from capauction.bounds import (
    DEFAULT_GAP_LIMIT, SINGLE_BUYER_COVER_CONSTANT, BoundCertificate, best_own_quantity,
    demand_quantile_cap, one_minus_inv_e, single_buyer_expected, verify_ceiling_removal,
    verify_decomposition_bounds, verify_price_gap, verify_sellout_conditional,
    verify_sellout_factor, verify_single_buyer_cover, worst_price_gap,
)
from capauction.instances import demand_reduction, first_best, generate, logscale
from capauction.model import (
    ERROR_BEYOND, REPEAT_LAST, MarginalCostTable, MarketInstance, QuadraticCost, ValidationError,
)
from oracles import (
    CountedEntries,
    cost_of,
    cost_table,
    enumerate_scenarios,
    expected_welfare,
    firm_distribution,
    mv,
    point_mass,
    quadratic,
    run_auction,
    safe_covers_charged_above,
    safe_price,
    scanned_own_quantity,
    scanned_price_gap,
    single_buyer_mechanism,
    split_logscale,
    value_of,
    verify_all,
)


def as_joint(m: MarketInstance) -> MarketInstance:
    """The same market given as an explicit joint table."""
    rows = enumerate_scenarios(m)
    return MarketInstance(
        firms=(), cost=m.cost, label=m.label,
        joint=tuple((row.probability, row.valuations) for row in rows),
    )


def with_error_extension(m: MarketInstance, length: int) -> MarketInstance:
    """The market with its cost cut to a table of `length` marginals that
    raises beyond its end."""
    marginals = tuple(cost_of(m.cost, x + 1) - cost_of(m.cost, x) for x in range(length))
    return m._replace(cost=MarginalCostTable(marginals, ERROR_BEYOND))


def market(seed, firms, cost_kind, joint, error_length):
    m = generate(seed, firms=firms, scenarios_per_firm=2, max_units=3, cost_kind=cost_kind)
    if error_length is not None:
        m = with_error_extension(m, error_length)
    return as_joint(m) if joint else m


MARKETS = dict(
    seed=st.integers(0, 10**6),
    firms=st.integers(1, 3),
    cost_kind=st.sampled_from(("quadratic", "marginals")),
    joint=st.booleans(),
    error_length=st.none() | st.integers(0, 6),
)


def result(compute):
    """`compute()`, or the message of the ValidationError it raises."""
    try:
        return compute()
    except ValidationError as exc:
        return f"ValidationError: {exc}"


class TestCeilingRemoval:
    """`verify_ceiling_removal` reads `Analysis.welfare`; the oracle
    clears every scenario of every auction with `run_auction`."""

    @staticmethod
    def oracle(analysis: Analysis, params: AuctionParams) -> BoundCertificate:
        base = expected_welfare(analysis, params)
        w_same = expected_welfare(analysis, AuctionParams(params.cap, params.floor, None))
        w_uncapped = expected_welfare(analysis, AuctionParams(None, params.ceiling, None))
        # The no-ceiling optimum's tie-break: the smaller cap, then the larger floor.
        best, cap, floor = max(
            (expected_welfare(analysis, AuctionParams(cap, floor, None)), -cap, floor)
            for cap in range(1, analysis.cap_limit + 2)
            for floor in analysis.grid
        )
        return BoundCertificate(
            name="ceiling-removal-half",
            lhs=best,
            rhs=base / 2,
            holds=best >= base / 2,
            status="checked" if base > 0 else "vacuous",
            witness=dict(
                base_welfare=base,
                witness_cap=-cap,
                witness_floor=floor,
                same_cap_welfare=w_same,
                uncapped_welfare=w_uncapped,
                shortcut_holds=max(w_same, w_uncapped) >= base / 2,
            ),
        )

    @given(
        **MARKETS,
        cap=st.integers(1, 10),
        below_demand=st.integers(0, 4),
        prices=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, seed, firms, cost_kind, joint, error_length, cap,
                            below_demand, prices):
        m = market(seed, firms, cost_kind, joint, error_length)
        max_demand = Analysis(m).max_demand
        cap_limit = max(1, max_demand - below_demand)  # at or below the largest demand
        grid = price_candidates(m)
        low, high = sorted(grid[i % len(grid)] for i in prices)
        if low == high:
            high += F(1, 2)  # an off-grid ceiling
        params = AuctionParams(cap, low, high)
        want = result(lambda: self.oracle(Analysis(m, cap_limit=cap_limit), params))
        got = result(lambda: verify_ceiling_removal(Analysis(m, cap_limit=cap_limit), params))
        if isinstance(want, str):
            # Both raise where a cost table runs out. The oracle names the
            # first quantity sold beyond it, the table its first missing entry.
            assert isinstance(got, str) and "beyond cost table" in got and "beyond cost table" in want
        else:
            assert got == want

    def test_welfares_tabulate_only_what_is_sold(self):
        # Demand reaches 5 but every auction here sells at most 2, which the
        # 2-entry "error" table covers.
        m = MarketInstance(
            firms=(
                point_mass(mv(9, 8, 7)),
                firm_distribution((F(1, 2), mv(6, 5)), (F(1, 2), mv(3))),
            ),
            cost=cost_table(1, 2, extension="error"),
        )
        analysis = Analysis(m, cap_limit=1)
        for auction in ((2, 6, 8), (2, 6, None), (None, 8, None)):
            assert analysis.welfare(*auction) == expected_welfare(analysis, AuctionParams(*auction))
        cert = verify_ceiling_removal(analysis, AuctionParams(2, 6, 8))
        assert cert.witness["base_welfare"] == 14
        with pytest.raises(ValidationError, match="quantity 3 beyond cost table"):
            analysis.welfare(3, 0)

    @pytest.mark.parametrize("seed", range(60))
    def test_witness_is_the_optimum_the_other_checks_name(self, seed):
        # One report names one best no-ceiling auction: on `generate(0)` the
        # optimum has floor 5, and floor 0 ties it at welfare 77/13.
        analysis = Analysis(generate(seed))
        removal = verify_ceiling_removal(analysis, AuctionParams(1, analysis.grid[0],
                                                                 analysis.grid[-1]))
        factor = verify_sellout_factor(analysis)
        assert (removal.witness["witness_cap"], removal.witness["witness_floor"]) == (
            factor.witness["optimum_cap"], factor.witness["optimum_floor"]
        )


def price_gap_loop(cost, limit):
    """Every (quantity, units) certificate, keeping the first of least margin."""
    worst = None
    for quantity in range(1, limit + 1):
        for units in range(quantity + 1):
            cert = verify_price_gap(cost, quantity, units)
            if worst is None or cert.margin < worst.margin:
                worst = cert
    return worst


def piecewise_linear_average(cost, x):
    """C(x)/x for the cost C extended linearly between integer quantities."""
    lo = math.floor(x)
    f = x - lo
    return (cost_of(cost, lo) * (1 - f) + cost_of(cost, lo + 1) * f) / x


COSTS = st.one_of(
    st.builds(quadratic, st.fractions(F(1, 10), 5)),
    st.builds(
        lambda steps, ext: cost_table(*(sum(steps[: i + 1]) for i in range(len(steps))),
                                      extension=ext),
        st.lists(st.sampled_from((0, F(1, 3), 1, 2)), min_size=0, max_size=25),
        st.sampled_from(("repeat-last", "error")),
    ),
)


class TestWorstPriceGap:
    @given(cost=COSTS, limit=st.integers(1, 22))
    @settings(max_examples=200, deadline=None)
    def test_matches_certificate_loop(self, cost, limit):
        # Both raise the same error where an "error" table runs out.
        assert result(lambda: worst_price_gap(cost, limit)) == result(
            lambda: price_gap_loop(cost, limit)
        )

    @given(cost=COSTS, limit=st.integers(1, 22))
    @settings(max_examples=200, deadline=None)
    def test_half_price_is_the_average_cost_at_half_the_quantity(self, cost, limit):
        for quantity in range(1, limit + 1):
            try:
                cert = verify_price_gap(cost, quantity, 0)
            except ValidationError:  # only where an "error" table stops short of C(quantity)
                with pytest.raises(ValidationError):
                    cost_of(cost, quantity)
                break
            assert cert.witness["half_price"] == piecewise_linear_average(cost, F(quantity, 2))

    def test_half_price_at_odd_and_even_quantities(self):
        # (C(1) + C(2)) / 2 per 3/2 licenses, not C(3/2) / (3/2) = 3/2
        assert verify_price_gap(quadratic(1), 3, 0).witness["half_price"] == F(5, 3)
        cert = verify_price_gap(quadratic(1), 8, 0)
        assert (cert.witness["full_price"], cert.witness["half_price"]) == (8, 4)

    @given(cost=COSTS, limit=st.integers(1, 120))
    @settings(max_examples=200, deadline=None)
    def test_bisection_matches_the_quadratic_scan(self, cost, limit):
        # Random convex tables (repeated marginals among them), quadratic
        # costs and short "error" tables, past where the loop above runs.
        assert result(lambda: worst_price_gap(cost, limit)) == result(
            lambda: scanned_price_gap(cost, limit)
        )

    def test_ties_keep_the_first_pair(self):
        # Linear cost: every margin is 0, so the first pair is kept.
        cert = worst_price_gap(cost_table(3), 20)
        assert cert == price_gap_loop(cost_table(3), 20)
        assert (cert.margin, cert.witness["quantity"], cert.witness["units"]) == (0, 1, 0)

    def test_short_error_table_message(self):
        cost = cost_table(1, 2, 4, extension="error")
        with pytest.raises(ValidationError) as loop:
            price_gap_loop(cost, 20)
        with pytest.raises(ValidationError) as fast:
            worst_price_gap(cost, 20)
        assert str(fast.value) == str(loop.value)
        assert "quantity 4 beyond cost table of length 3" in str(fast.value)

    def test_limit_below_one(self):
        with pytest.raises(ValidationError, match="at least 1"):
            worst_price_gap(quadratic(1), 0)

    def test_a_long_table_is_tabulated_in_one_pass(self):
        # C(0..n) of a marginal-cost table is one prefix sum, in the unsafe
        # scan and in `Analysis`; summing C(x) anew for each x is quadratic
        # and took minutes at this length.
        n = 20_000
        table = cost_table(*(F(v, 7) for v in range(1, n + 1)))
        start = time.perf_counter()
        cert = worst_price_gap(table, n)
        welfare = Analysis(MarketInstance((point_mass(mv(7) * n),), table)).welfare(None, F(0))
        assert time.perf_counter() - start < 10
        assert (cert.witness["quantity"], cert.witness["units"]) == (1, 0)
        assert welfare == 7 * n - F(n * (n + 1), 14)


class TestSingleBuyerExpected:
    @staticmethod
    def oracle(analysis):
        return sum(
            (row.probability * single_buyer_mechanism(row.valuations, analysis.instance.cost).welfare
             for row in enumerate_scenarios(analysis.instance)),
            F(0),
        )

    @given(**MARKETS)
    @settings(max_examples=150, deadline=None)
    def test_matches_mechanism(self, seed, firms, cost_kind, joint, error_length):
        analysis = Analysis(market(seed, firms, cost_kind, joint, error_length))
        want = result(lambda: self.oracle(analysis))
        assert result(lambda: single_buyer_expected(analysis)) == want

    def test_reads_no_cost_past_the_optimum(self):
        # The firm stops after one unit, so C(3), beyond the table, is never read.
        m = MarketInstance(
            firms=(point_mass(mv(5, 1, 1, 1)),),
            cost=cost_table(1, 2, extension="error"),
        )
        analysis = Analysis(m)
        assert single_buyer_expected(analysis) == self.oracle(analysis) == 4

    def test_logscale(self):
        analysis = Analysis(logscale(5))
        assert single_buyer_expected(analysis) == self.oracle(analysis)

    def test_no_firms(self):
        analysis = Analysis(MarketInstance(firms=(), cost=quadratic(1)))
        want = result(lambda: self.oracle(analysis))
        assert want == "ValidationError: at least one firm is required"
        assert result(lambda: single_buyer_expected(analysis)) == want


FRACTIONS = st.fractions(0, 12, max_denominator=6)


class TestBestOwnQuantity:
    """`best_own_quantity` walks the cost's marginals once; the oracle
    reads C(j) anew for every unit."""

    @given(
        valuation=st.lists(FRACTIONS, max_size=8).map(lambda vs: tuple(sorted(vs, reverse=True))),
        cost=FRACTIONS.filter(bool).map(QuadraticCost) | st.builds(
            lambda steps, extension: MarginalCostTable(tuple(accumulate(steps)), extension),
            st.lists(st.fractions(0, 3, max_denominator=4), max_size=8),
            st.sampled_from((REPEAT_LAST, ERROR_BEYOND)),
        ),
    )
    def test_matches_scan(self, valuation, cost):
        want = result(lambda: scanned_own_quantity(valuation, cost))
        assert result(lambda: best_own_quantity(valuation, cost)) == want

    def test_reads_each_marginal_cost_once(self):
        n = 4000
        entries = CountedEntries(F(j) for j in range(1, n + 1))
        # Unit j gains n + 1 - j, so every unit is bought.
        assert best_own_quantity((F(n + 1),) * n, MarginalCostTable(entries)) == (
            n, F(n * (n + 1) // 2)
        )
        assert entries.reads == Counter(range(n))

    def test_reads_no_entry_past_the_optimum(self):
        entries = CountedEntries((F(1), F(2)))
        cost = MarginalCostTable(entries, ERROR_BEYOND)
        assert best_own_quantity(mv(5, 1, 1, 1), cost) == scanned_own_quantity(
            mv(5, 1, 1, 1), cost_table(1, 2, extension="error")
        ) == (1, 4)
        assert entries.reads == Counter(range(2))


def scenario_demands(instance, floor):
    """(D_s(floor), p_s) per scenario, from the Fraction scenario rows."""
    return [
        (sum(_demand(v, floor) for v in row.valuations), row.probability)
        for row in enumerate_scenarios(instance)
    ]


def described(certs):
    return [(cert.name, cert.lhs, cert.rhs, cert.witness) for cert in certs]


class TestDecomposeWelfare:
    """`verify_decomposition_bounds` splits the welfare on the integer
    tables; the oracle clears every scenario with `run_auction`, splits
    each firm's allocation at its threshold, summing Fractions firm by
    firm, and clears the safe-price auctions the same way."""

    @staticmethod
    def oracle(analysis: Analysis, cap: int, floor: F) -> list:
        params = AuctionParams(cap, floor, None)
        cost = analysis.instance.cost
        reference = safe_price(cost, cap)
        sell_out_term = above_term = below_term = total = q = F(0)
        for row in enumerate_scenarios(analysis.instance):
            outcome = run_auction(params, row.valuations, cost)
            total += row.probability * outcome.welfare
            if sum(_demand(v, floor) for v in row.valuations) >= cap:
                sell_out_term += row.probability * outcome.welfare
                q += row.probability
                continue
            thresholds = [_demand(v, reference) for v in row.valuations]
            above = [min(x, theta) for x, theta in zip(outcome.allocation, thresholds)]
            below = [x - a for x, a in zip(outcome.allocation, above)]
            above_value = sum((value_of(v, a) for v, a in zip(row.valuations, above)), F(0))
            below_value = sum(
                (value_of(v, theta + b) - value_of(v, theta)
                 for v, b, theta in zip(row.valuations, below, thresholds)),
                F(0),
            )
            above_term += row.probability * (above_value - cost_of(cost, sum(above)))
            below_term += row.probability * (below_value - cost_of(cost, sum(below)))

        def safe(c):
            if c == 0:
                return F(0)
            return expected_welfare(analysis, AuctionParams(c, safe_price(cost, c), None))

        half = max((cap // 2, (cap + 1) // 2), key=safe)
        return [
            ("three-term-decomposition", sell_out_term + above_term + below_term, total,
             {"cap": cap, "floor": floor, "sell_out_term": sell_out_term,
              "above_term": above_term, "below_term": below_term}),
            ("safe-covers-above", safe(cap), sell_out_term + above_term, {"cap": cap}),
            ("half-cap-covers-below", safe(half), q * below_term / 2,
             {"cap": cap, "half_cap": half, "sell_out_probability": q}),
        ]

    @given(
        **MARKETS,
        cap_index=st.integers(0, 20),
        floor_kind=st.sampled_from(("grid", "between", "below-safe", "safe", "above-safe")),
        floor_index=st.integers(0, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, seed, firms, cost_kind, joint, error_length, cap_index,
                            floor_kind, floor_index):
        m = market(seed, firms, cost_kind, joint, error_length)
        cap = 1 + cap_index % (Analysis(m).max_demand + 1)  # 1 to max_demand + 1
        grid = price_candidates(m)
        floor = grid[floor_index % len(grid)]
        if floor_kind == "between":  # off the grid, between two of its prices
            floor = (floor + grid[(floor_index + 1) % len(grid)]) / 2
        elif floor_kind != "grid":
            reference = result(lambda: safe_price(m.cost, cap))
            if not isinstance(reference, str):  # else the short table raises anyway
                step = {"below-safe": F(-1, 7), "safe": 0, "above-safe": F(1, 7)}[floor_kind]
                floor = max(F(0), reference + step)
        want = result(lambda: self.oracle(Analysis(m), cap, floor))
        got = result(lambda: described(verify_decomposition_bounds(Analysis(m), cap, floor)))
        assert got == want
        if not isinstance(got, str):
            _, term_sum, total, _ = got[0]
            assert total <= term_sum

    def test_short_table_names_the_cap(self):
        # The safe price for cap 3 reads C(3), one past the two-entry table,
        # before any welfare is tabulated.
        m = MarketInstance(
            firms=(
                point_mass(mv(9, 8, 7)),
                firm_distribution((F(1, 2), mv(6, 5)), (F(1, 2), mv(3))),
            ),
            cost=cost_table(1, 2, extension="error"),
        )
        for cap, floor in ((3, F(0)), (3, F(9))):
            want = result(lambda: self.oracle(Analysis(m), cap, floor))
            assert want == (
                "ValidationError: quantity 3 beyond cost table of length 2 "
                "(extension policy 'error')"
            )
            assert result(lambda: verify_decomposition_bounds(Analysis(m), cap, floor)) == want
        certs = verify_decomposition_bounds(Analysis(m), 2, F(5))  # sells out everywhere
        assert described(certs) == self.oracle(Analysis(m), 2, F(5))
        terms = certs[0].witness
        assert (terms["sell_out_term"], terms["above_term"], terms["below_term"]) == (14, 0, 0)

    def test_unbounded_cap(self):
        with pytest.raises(ValidationError, match="needs a bounded cap"):
            verify_decomposition_bounds(Analysis(logscale(3)), None, F(0))


class TestDecompositionBounds:
    """`verify_decomposition_bounds` against the welfares and sell-out
    probability its witnesses name."""

    def test_three_certificates_in_order(self):
        analysis = Analysis(generate(3))
        cap, floor = 2, F(3)
        q = sum(p for d, p in scenario_demands(analysis.instance, floor) if d >= cap)
        terms, above, below = verify_decomposition_bounds(analysis, cap, floor)
        assert (terms.name, above.name, below.name) == (
            "three-term-decomposition", "safe-covers-above", "half-cap-covers-below"
        )
        split = terms.witness
        assert split.keys() == {"cap", "floor", "sell_out_term", "above_term", "below_term"}
        assert (split["cap"], split["floor"]) == (cap, floor)
        assert (terms.lhs, terms.rhs) == (
            split["sell_out_term"] + split["above_term"] + split["below_term"],
            analysis.welfare(cap, floor),
        )
        assert (above.lhs, above.rhs) == (
            analysis.safe_welfare(cap), split["sell_out_term"] + split["above_term"]
        )
        assert above.witness == {"cap": cap}
        assert (below.lhs, below.rhs) == (analysis.safe_welfare(1), q * split["below_term"] / 2)
        assert below.witness == {"cap": cap, "half_cap": 1, "sell_out_probability": q}
    @pytest.mark.parametrize("marginals, half_cap", [
        ((10, 10, 10), 2),  # safe welfare 9 at cap 1, 16 at cap 2
        ((3, 1), 1),  # 2 at both caps: the tie keeps the smaller half
    ])
    def test_odd_cap_takes_the_better_half(self, marginals, half_cap):
        m = MarketInstance(firms=(point_mass(mv(*marginals)),), cost=quadratic(1))
        analysis = Analysis(m)
        below = verify_decomposition_bounds(analysis, 3, F(0))[2]
        assert below.witness["half_cap"] == half_cap
        assert below.lhs == analysis.safe_welfare(half_cap) == max(
            analysis.safe_welfare(1), analysis.safe_welfare(2)
        )


# One firm demanding a unit worth 1 below the safe price 5: nothing trades at
# a safe price, and the optimum never sells out.
NO_TRADE = MarketInstance(firms=(point_mass(mv(1)),), cost=quadratic(5))


def every_certificate(analysis: Analysis) -> list[BoundCertificate]:
    opt = analysis.no_ceiling_optimum.winner
    ceiled = AuctionParams(opt.cap, analysis.grid[0], analysis.grid[-1])
    return [
        verify_ceiling_removal(analysis, ceiled),
        verify_sellout_conditional(analysis, AuctionParams(opt.cap, opt.floor)),
        worst_price_gap(analysis.instance.cost, 6),
        *verify_decomposition_bounds(analysis, opt.cap, opt.floor),
        verify_sellout_factor(analysis),
        *verify_single_buyer_cover(analysis),
    ]


def audit_sample() -> list[MarketInstance]:
    """The 187 instances of the certificate audit: `demand_reduction`,
    `first_best(3)`, `logscale(2..6)` and `generate` seeds 0-59 in three
    shapes (firms x types x units): 2 x 2 x 4 with quadratic cost, and
    3 x 2 x 3 and 2 x 3 x 4 with a marginal-cost table."""
    shapes = (
        dict(firms=2, scenarios_per_firm=2, max_units=4),
        dict(firms=3, scenarios_per_firm=2, max_units=3, cost_kind="marginals"),
        dict(firms=2, scenarios_per_firm=3, max_units=4, cost_kind="marginals"),
    )
    return [
        demand_reduction(), first_best(3), *map(logscale, range(2, 7)),
        *(generate(seed, **shape) for shape in shapes for seed in range(60)),
    ]


class TestVerdicts:
    @pytest.mark.parametrize("m", [
        NO_TRADE, demand_reduction(), logscale(3), *(generate(seed) for seed in range(4)),
        *audit_sample(),
    ])
    def test_only_unchecked_statuses_have_no_verdict(self, m):
        # Every certificate but `safe-covers-above`, whose known failures
        # the charged bound below corrects, holds or is unchecked.
        analysis = Analysis(m)
        for cert in every_certificate(analysis):
            if cert.status in ("not-applicable", "degenerate"):
                assert cert.holds is None, cert
            else:
                assert cert.holds == (cert.lhs >= cert.rhs), cert
            if cert.name != "safe-covers-above":
                assert cert.holds is not False, cert
        assert safe_covers_charged_above(analysis), m

    def test_no_trade_statuses(self):
        got = {cert.name: (cert.status, cert.holds) for cert in every_certificate(Analysis(NO_TRADE))}
        assert got["ceiling-removal-half"] == ("vacuous", True)
        assert got["sell-out-conditional-nonnegative"] == ("vacuous", True)
        assert got["safe-within-sellout-factor"] == ("not-applicable", None)
        assert got["four-term-cover"] == ("degenerate", None)

    def test_single_buyer_cover_needs_product_form(self):
        with pytest.raises(ValidationError, match="needs independent firms"):
            verify_single_buyer_cover(Analysis(as_joint(generate(0))))


def two_firm_slice() -> list[MarketInstance]:
    """Every unordered pair of firms, each with one type or two equally
    likely types, each type a non-increasing vector of one or two units
    in {1, 2, 3}, at cost x^2/2: 54 firms, 1,485 markets."""
    vectors = [mv(*vs) for vs in combinations_with_replacement((3, 2, 1), 2)] + [
        mv(v) for v in (3, 2, 1)
    ]
    firms = [point_mass(v) for v in vectors] + [
        firm_distribution((F(1, 2), v), (F(1, 2), w))
        for v, w in combinations_with_replacement(vectors, 2)
    ]
    return [
        MarketInstance(pair, quadratic(F(1, 2))) for pair in combinations_with_replacement(firms, 2)
    ]


class TestTwoFirmSlice:
    """A slice of the exhaustive small universe of ROADMAP item 1, checked
    at the default parameters of `verify --which all`."""

    def test_certificates_and_the_corrected_above_bound(self):
        markets = two_firm_slice()
        assert len(markets) == 1485
        unsafe = worst_price_gap(quadratic(F(1, 2)), DEFAULT_GAP_LIMIT)
        verdicts = Counter()
        for m in markets:
            analysis = Analysis(m)
            for cert in verify_all(analysis, unsafe):
                if cert.holds is not None:
                    assert cert.holds == (cert.lhs >= cert.rhs), (m, cert)
                if cert.name != "safe-covers-above":
                    assert cert.holds is not False, (m, cert)
                verdicts[cert.name, cert.status] += 1
            assert safe_covers_charged_above(analysis), m
        assert verdicts["four-term-cover", "degenerate"] == 10


class TestDemandQuantileCap:
    """`demand_quantile_cap` scans integer weights; the oracle scans the
    Fraction probabilities of the scenario rows."""

    @staticmethod
    def oracle(instance, floor):
        tail = F(0)
        for demand, probability in sorted(scenario_demands(instance, floor), reverse=True):
            tail += probability
            if tail >= one_minus_inv_e():
                return demand
        return 0

    @given(**MARKETS, floor_index=st.integers(0, 40), off_grid=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_tail_scan(self, seed, firms, cost_kind, joint, error_length, floor_index,
                               off_grid):
        m = market(seed, firms, cost_kind, joint, error_length)
        grid = price_candidates(m)
        floor = grid[floor_index % len(grid)] + (F(1, 5) if off_grid else 0)
        assert demand_quantile_cap(Analysis(m), floor) == self.oracle(m, floor)

    @pytest.mark.parametrize("step, want", [(0, 3), (F(-1, 10**60), 1)])
    def test_threshold_boundary(self, step, want):
        # Demand 3 with probability t + step and 1 otherwise, t being the
        # threshold: Pr[D >= 3] = t exactly is enough.
        t = one_minus_inv_e() + step
        m = MarketInstance(
            firms=(firm_distribution((t, mv(4, 4, 4)), (1 - t, mv(4))),),
            cost=quadratic(1),
        )
        analysis = Analysis(m)
        assert demand_quantile_cap(analysis, F(1)) == want
        assert demand_quantile_cap(analysis, F(5)) == 0


# A firm of one to three types, each with positive integer weight and one
# to four fractional marginals.
INDEPENDENT_FIRM = st.lists(
    st.tuples(st.integers(1, 5), st.lists(st.fractions(0, 16, max_denominator=4),
                                           min_size=1, max_size=4)),
    min_size=1, max_size=3,
).map(lambda types: tuple(
    (F(w, sum(w for w, _ in types)), tuple(sorted(vs, reverse=True))) for w, vs in types
))


class TestSeparations:
    """The paper's separations, exact: on `logscale(n)` safe-price auctions
    lose a factor that grows with n and the single-buyer mechanism
    recovers all of it; on `first_best(n)` the safe-price auction is
    optimal and the single-buyer mechanism does better still."""

    @staticmethod
    def ratios(family, n):
        """Best no-ceiling welfare over the best safe-price welfare and over
        the single-buyer welfare; for n <= 4 both optima are also cleared
        scenario by scenario."""
        analysis = Analysis(family(n))
        opt = analysis.no_ceiling_optimum.winner
        safe = analysis.safe_optimum.winner
        if n <= 4:
            for best in (opt, safe):
                assert expected_welfare(analysis, AuctionParams(best.cap, best.floor)) == (
                    best.expected_welfare
                )
        opt = opt.expected_welfare
        return opt / safe.expected_welfare, opt / single_buyer_expected(analysis)

    @pytest.mark.parametrize("n, over_safe", [
        (2, F(1)), (3, F(12, 11)), (4, F(64, 51)), (5, F(320, 219)), (6, F(1536, 907)),
    ])
    def test_logscale_safe_price_loses_what_single_buyer_recovers(self, n, over_safe):
        assert self.ratios(logscale, n) == (over_safe, 1)

    @pytest.mark.parametrize("n, over_single", [
        (2, F(7, 8)), (3, F(49, 64)), (4, F(675, 1024)), (5, F(2883, 5120)),
    ])
    def test_first_best_safe_price_is_optimal_and_single_buyer_beats_it(self, n, over_single):
        assert self.ratios(first_best, n) == (1, over_single)

    # ROADMAP item 10's split family: independent draws stay within about
    # 1.014 of the better of the two, while one joint draw loses a factor
    # that grows with n.
    @pytest.mark.parametrize("joint, n, m, ratio", [
        (False, 4, 2, F(1627, 1623)),
        (False, 4, 3, F(7794427, 7686971)),
        (False, 6, 3, F(54705459003, 56057327483)),
        (False, 8, 2, F(919483, 939351)),
        (True, 6, 3, F(23007, 13504)),
        (True, 8, 4, F(112, 61)),
        (True, 12, 8, F(655360, 239787)),
    ])
    def test_split_logscale_best_over_safe_or_single_buyer(self, joint, n, m, ratio):
        analysis = Analysis(split_logscale(n, m, joint))
        opt = analysis.no_ceiling_optimum.winner
        safe = analysis.safe_optimum.winner
        single = single_buyer_expected(analysis)
        if n <= 4:  # both optima cleared and the mechanism run scenario by scenario
            for best in (opt, safe):
                assert expected_welfare(analysis, AuctionParams(best.cap, best.floor)) == (
                    best.expected_welfare
                )
            cost = analysis.instance.cost
            assert single == sum(
                row.probability * single_buyer_mechanism(row.valuations, cost).welfare
                for row in enumerate_scenarios(analysis.instance)
            )
        assert opt.expected_welfare / max(safe.expected_welfare, single) == ratio

    @given(
        firms=st.lists(INDEPENDENT_FIRM, min_size=2, max_size=4),
        cost=st.fractions(F(1, 8), 4, max_denominator=8).map(QuadraticCost) | st.lists(
            st.fractions(0, 4, max_denominator=4), min_size=1, max_size=8,
        ).map(lambda steps: MarginalCostTable(tuple(accumulate(steps)))),
    )
    @settings(max_examples=150, deadline=None)
    def test_independent_markets_stay_within_the_cover_constant(self, firms, cost):
        # The headline guarantee: on independent firms the best no-ceiling
        # welfare is at most 26 times the better of the best safe-price
        # auction and the single-buyer mechanism. The search climbs the ratio.
        analysis = Analysis(MarketInstance(tuple(firms), cost))
        opt = analysis.no_ceiling_optimum.winner.expected_welfare
        better = max(analysis.safe_optimum.winner.expected_welfare,
                     single_buyer_expected(analysis))
        ratio = opt / better if better else F(0)
        target(float(ratio))
        assert opt <= SINGLE_BUYER_COVER_CONSTANT * better

    def test_largest_ratio_the_search_has_found(self):
        # 4,000 targeted examples of the property above climbed to 607/539:
        # opt sells 2 at floor 13, the best safe auction and the
        # single-buyer mechanism both reach 77/8.
        m = MarketInstance(
            (
                point_mass(mv(F(53, 4))),
                firm_distribution((F(4, 7), mv(8, 0)), (F(3, 7), mv(13, 11, 0, 0))),
                firm_distribution((F(3, 4), mv(0)), (F(1, 4), mv(13, 0))),
            ),
            quadratic(F(29, 8)),
        )
        analysis = Analysis(m)
        opt = analysis.no_ceiling_optimum.winner
        assert (opt.cap, opt.floor, opt.expected_welfare) == (2, 13, F(607, 56))
        assert analysis.safe_optimum.winner.expected_welfare == single_buyer_expected(analysis)
        assert opt.expected_welfare / single_buyer_expected(analysis) == F(607, 539)

    @pytest.mark.parametrize("n, m", [(2, 1), (4, 1), (4, 2), (4, 3), (6, 3), (8, 4), (12, 8)])
    def test_split_logscale_splits_each_logscale_type(self, n, m):
        # Type i of logscale(n) has 2^i units; split, each firm keeps
        # max(1, floor(2^i / m)) of them at logscale's probability.
        types = tuple((p, v[: max(1, len(v) // m)]) for p, v in logscale(n).firms[0])
        assert split_logscale(n, m).firms == (types,) * m
        assert split_logscale(n, m, joint=True).joint == tuple((p, (v,) * m) for p, v in types)

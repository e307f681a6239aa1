"""Valuation, cost, and welfare arithmetic."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from capauction import (
    FirmDistribution,
    MarginalCostTable,
    MarginalVector,
    MarketInstance,
    ValidationError,
    rat,
    validate,
)
from capauction.model import ERROR_BEYOND
from oracles import combined_valuation, cost_table, quadratic, value_of, welfare_of

mv = MarginalVector.of


def marginal_vectors(max_units=5, max_value=20):
    return st.lists(
        st.integers(min_value=0, max_value=max_value), max_size=max_units
    ).map(lambda vs: MarginalVector(tuple(F(v) for v in sorted(vs, reverse=True))))


def convex_tables(max_len=6, max_step=5):
    # partial sums of non-negative steps give a non-decreasing marginal table
    return st.lists(
        st.integers(min_value=0, max_value=max_step), min_size=1, max_size=max_len
    ).map(lambda steps: MarginalCostTable(tuple(itertools.accumulate(F(s) for s in steps))))


class TestRat:
    def test_parses_fraction_strings(self):
        assert rat("3/4") == F(3, 4)
        assert rat("7") == F(7)
        assert rat(F(1, 3)) == F(1, 3)

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(ValidationError):
            rat(0.5)
        with pytest.raises(ValidationError):
            rat("one half")
        with pytest.raises(ValidationError):
            rat("1/0")

    @pytest.mark.parametrize("value", (True, False))
    def test_rejects_booleans(self, value):
        with pytest.raises(ValidationError, match="booleans are not accepted"):
            rat(value)


class TestValueAt:
    def test_flat_marginals(self):
        assert value_of(mv(10, 10), 2) == 20

    def test_zero_units_is_zero(self):
        assert value_of(mv(10, 10), 0) == 0
        assert value_of(MarginalVector(()), 0) == 0

    def test_beyond_list_is_flat(self):
        assert value_of(mv(6, 1), 5) == 7


class TestConcavityConvexity:
    @given(marginal_vectors(), st.integers(1, 8))
    def test_values_concave(self, v, x):
        assert value_of(v, x + 1) - value_of(v, x) <= value_of(v, x) - value_of(v, x - 1)

    @given(convex_tables(), st.integers(1, 10))
    def test_costs_convex(self, q, x):
        assert q.cost(x + 1) - q.cost(x) >= q.cost(x) - q.cost(x - 1)

    @given(st.integers(1, 4), st.integers(1, 10))
    def test_quadratic_convex(self, a, x):
        q = quadratic(a)
        assert q.cost(x + 1) - q.cost(x) >= q.cost(x) - q.cost(x - 1)


class TestCombinedValuation:
    def test_picks_two_tens(self):
        assert combined_valuation([mv(10, 10), mv(6, 1)], 2) == 20

    def test_zero(self):
        assert combined_valuation([mv(10, 10), mv(6, 1)], 0) == 0

    def test_three_units(self):
        assert combined_valuation([mv(10, 10), mv(6, 1)], 3) == 26

    @given(
        st.lists(marginal_vectors(max_units=4, max_value=9), min_size=1, max_size=3),
        st.integers(0, 8),
    )
    def test_greedy_matches_partition_maximum(self, vs, x):
        best = max(
            sum((value_of(v, y) for v, y in zip(vs, split)), F(0))
            for split in itertools.product(range(x + 1), repeat=len(vs))
            if sum(split) == x
        )
        assert combined_valuation(vs, x) == best


class TestCost:
    def test_quadratic(self):
        assert quadratic(1).cost(2) == 4

    def test_zero(self):
        assert quadratic(3).cost(0) == 0
        assert cost_table(9, 9).cost(0) == 0

    def test_repeat_last_extension(self):
        assert cost_table(9, 9).cost(3) == 27

    def test_error_extension_raises(self):
        q = cost_table(9, 9, extension=ERROR_BEYOND)
        assert q.cost(2) == 18
        with pytest.raises(ValidationError):
            q.cost(3)


class TestWelfare:
    COST = cost_table(9, 9)

    def test_two_to_first_firm(self):
        assert welfare_of([mv(10, 10), mv(6, 1)], (2, 0), self.COST) == 2

    def test_split_allocation_goes_negative(self):
        assert welfare_of([mv(10, 10), mv(6, 1)], (1, 1), self.COST) == -2

    def test_all_zero(self):
        assert welfare_of([mv(10, 10), mv(6, 1)], (0, 0), self.COST) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            welfare_of([mv(10, 10)], (1, 1), self.COST)

    @given(
        st.lists(marginal_vectors(max_units=4, max_value=9), min_size=1, max_size=3),
        st.integers(0, 6),
    )
    def test_greedy_split_reaches_combined_welfare(self, vs, x):
        # welfare of the best split equals combined value minus cost
        q = quadratic(1)
        best = max(
            welfare_of(vs, split, q)
            for split in itertools.product(range(x + 1), repeat=len(vs))
            if sum(split) == x
        )
        assert best == combined_valuation(vs, x) - q.cost(x)


class TestValidate:
    def well_formed(self):
        return MarketInstance(
            firms=(
                FirmDistribution.point_mass(mv(10, 10)),
                FirmDistribution.point_mass(mv(6, 1)),
            ),
            cost=cost_table(9, 9),
        )

    def test_well_formed_instance(self):
        assert validate(self.well_formed()) == []

    def test_increasing_marginals_flagged(self):
        bad = MarketInstance(
            firms=(FirmDistribution.point_mass(mv(1, 5)),), cost=quadratic(1)
        )
        problems = validate(bad)
        assert any("index 1" in p for p in problems)

    def test_probabilities_must_sum_to_one(self):
        bad = MarketInstance(
            firms=(
                FirmDistribution.of((F(1, 2), mv(3)), (F(1, 3), mv(2))),
            ),
            cost=quadratic(1),
        )
        assert any("sum to" in p for p in validate(bad))

    def test_no_firms_flagged(self):
        bad = MarketInstance(firms=(), cost=quadratic(1))
        assert any("at least one firm" in p for p in validate(bad))

    def test_decreasing_cost_table_flagged(self):
        bad = MarketInstance(
            firms=(FirmDistribution.point_mass(mv(3)),),
            cost=cost_table(5, 4),
        )
        assert any("convexity" in p for p in validate(bad))

    def test_joint_table_probabilities(self):
        bad = MarketInstance(
            firms=(),
            cost=quadratic(1),
            joint=((F(1, 2), (mv(3), mv(2))),),
        )
        assert any("sum to" in p for p in validate(bad))

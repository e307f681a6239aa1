"""Valuation, cost, and welfare arithmetic."""

import itertools
from fractions import Fraction as F
from operator import sub

import pytest
from hypothesis import given, strategies as st

from capauction import (
    MarginalCostTable,
    MarketInstance,
    QuadraticCost,
    ValidationError,
    costs,
    demand_reduction,
    first_best,
    generate,
    load_instance,
    logscale,
    rat,
    save_instance,
    validate,
)
from capauction.model import ERROR_BEYOND, REPEAT_LAST
from oracles import (
    combined_valuation, cost_of, cost_table, firm_distribution, mv, point_mass, quadratic,
    value_of, welfare_of,
)


def marginal_vectors(max_units=5, max_value=20):
    return st.lists(
        st.integers(min_value=0, max_value=max_value), max_size=max_units
    ).map(lambda vs: tuple(F(v) for v in sorted(vs, reverse=True)))


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
        for exponent in ("1e5000", "1E3"):
            with pytest.raises(ValidationError, match="exponent notation is not accepted"):
                rat(exponent)

    @pytest.mark.parametrize("value", (True, False))
    def test_rejects_booleans(self, value):
        with pytest.raises(ValidationError, match="booleans are not accepted"):
            rat(value)


class TestValueAt:
    def test_flat_marginals(self):
        assert value_of(mv(10, 10), 2) == 20

    def test_zero_units_is_zero(self):
        assert value_of(mv(10, 10), 0) == 0
        assert value_of((), 0) == 0

    def test_beyond_list_is_flat(self):
        assert value_of(mv(6, 1), 5) == 7


class TestConcavityConvexity:
    @given(marginal_vectors(), st.integers(1, 8))
    def test_values_concave(self, v, x):
        assert value_of(v, x + 1) - value_of(v, x) <= value_of(v, x) - value_of(v, x - 1)

    @given(convex_tables(), st.integers(1, 10))
    def test_costs_convex(self, q, x):
        c = costs(q, x + 1)
        assert c[x + 1] - c[x] >= c[x] - c[x - 1]

    @given(st.integers(1, 4), st.integers(1, 10))
    def test_quadratic_convex(self, a, x):
        c = costs(quadratic(a), x + 1)
        assert c[x + 1] - c[x] >= c[x] - c[x - 1]


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
        assert costs(quadratic(1), 2) == [0, 1, 4]

    def test_zero(self):
        assert costs(quadratic(3), 0) == [0]
        assert costs(cost_table(9, 9), 0) == [0]

    def test_repeat_last_extension(self):
        assert costs(cost_table(9, 9), 3) == [0, 9, 18, 27]

    def test_error_extension_raises(self):
        q = cost_table(9, 9, extension=ERROR_BEYOND)
        assert costs(q, 2) == [0, 9, 18]
        with pytest.raises(ValidationError, match="^quantity 3 beyond cost table of length 2 "):
            costs(q, 5)

    @given(
        st.builds(F, st.integers(1, 9), st.integers(1, 4)).map(QuadraticCost)
        | st.builds(
            lambda steps, extension: MarginalCostTable(
                tuple(itertools.accumulate(map(F, steps))), extension
            ),
            st.lists(st.integers(0, 5), max_size=6),
            st.sampled_from((REPEAT_LAST, ERROR_BEYOND)),
        ),
        st.integers(0, 10),
    )
    def test_costs_tabulates_cost(self, cost, n):
        # One pass gives C(0..n), and the first n marginal costs their
        # differences, past the table's end too, or the error naming the
        # first quantity the table lacks.
        try:
            want = [cost_of(cost, x) for x in range(n + 1)]
        except ValidationError as exc:
            for tabulate in (lambda n: costs(cost, n),
                             lambda n: list(itertools.islice(cost.marginal_costs(), n))):
                with pytest.raises(ValidationError) as got:
                    tabulate(n)
                assert str(got.value) == str(exc)
        else:
            assert costs(cost, n) == want
            assert list(itertools.islice(cost.marginal_costs(), n)) == list(map(sub, want[1:], want))


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
        assert best == combined_valuation(vs, x) - cost_of(q, x)


class TestValidate:
    def well_formed(self):
        return MarketInstance(
            firms=(
                point_mass(mv(10, 10)),
                point_mass(mv(6, 1)),
            ),
            cost=cost_table(9, 9),
        )

    def test_well_formed_instance(self):
        assert validate(self.well_formed()) == []

    def test_increasing_marginals_flagged(self):
        bad = MarketInstance(
            firms=(point_mass(mv(1, 5)),), cost=quadratic(1)
        )
        problems = validate(bad)
        assert any("index 1" in p for p in problems)

    def test_probabilities_must_sum_to_one(self):
        bad = MarketInstance(
            firms=(
                firm_distribution((F(1, 2), mv(3)), (F(1, 3), mv(2))),
            ),
            cost=quadratic(1),
        )
        assert any("sum to" in p for p in validate(bad))

    def test_no_firms_flagged(self):
        bad = MarketInstance(firms=(), cost=quadratic(1))
        assert any("at least one firm" in p for p in validate(bad))

    def test_decreasing_cost_table_flagged(self):
        bad = MarketInstance(
            firms=(point_mass(mv(3)),),
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

    def test_messages_name_each_location(self):
        firms = MarketInstance(
            firms=((), firm_distribution((F(-1, 2), mv(1, -1)), (F(1, 3), mv(2, 3)))),
            cost=quadratic(1),
        )
        assert validate(firms) == [
            "firms[0]: no scenarios",
            "firms[1].scenarios[0]: probability -1/2 not positive",
            "firms[1].scenarios[0].marginals[1]: negative marginal -1",
            "firms[1].scenarios[1].marginals: not non-increasing at index 1",
            "firms[1]: probabilities sum to -1/6, not 1",
        ]
        joint = MarketInstance(
            firms=(),
            cost=quadratic(1),
            joint=((F(0), (mv(1, -1),)), (F(1, 2), (mv(2, 3), mv(1)))),
        )
        assert validate(joint) == [
            "joint_scenarios[0]: probability 0 not positive",
            "joint_scenarios[0].marginals[0][1]: negative marginal -1",
            "joint_scenarios[1]: expected 1 firms, got 2",
            "joint_scenarios[1].marginals[0]: not non-increasing at index 1",
            "joint_scenarios: probabilities sum to 1/2, not 1",
        ]


def _rationals(values) -> bool:
    return type(values) is tuple and all(type(v) is F for v in values)


def test_instances_hold_plain_tuples_of_fractions(tmp_path):
    built = [
        demand_reduction(), logscale(3), first_best(2), generate(0),
        generate(1, firms=3, scenarios_per_firm=3, cost_kind="marginals"),
    ]
    joint_file = tmp_path / "joint.json"
    joint_file.write_text(
        '{"cost": {"kind": "quadratic", "a": "1"}, "joint_scenarios": ['
        '{"prob": "1/3", "marginals": [["5", "2"], []]}, '
        '{"prob": "2/3", "marginals": [["4"], ["3/2", "1"]]}]}',
        encoding="utf-8",
    )
    loaded = [load_instance(joint_file)]
    for k, m in enumerate(built):
        save_instance(m, tmp_path / f"{k}.json")
        loaded.append(load_instance(tmp_path / f"{k}.json"))
    for m in built + loaded:
        rows = m.joint if m.joint is not None else ()
        assert type(m.firms) is tuple and type(rows) is tuple
        for firm in m.firms:
            assert type(firm) is tuple
            for pair in firm:
                assert type(pair) is tuple and len(pair) == 2
                p, valuation = pair
                assert type(p) is F and _rationals(valuation), pair
        for row in rows:
            assert type(row) is tuple and len(row) == 2 and type(row[0]) is F
            assert type(row[1]) is tuple and all(map(_rationals, row[1])), row
    assert loaded[1:] == built

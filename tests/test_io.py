"""Instance files: malformed input raises ValidationError, never a misparse."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from capauction import (
    FirmDistribution,
    MarginalVector,
    MarketInstance,
    ValidationError,
    demand_reduction,
    dumps_instance,
    enumerate_scenarios,
    generate,
    loads_instance,
)
from capauction.model import ERROR_BEYOND, MarginalCostTable

QUADRATIC = {"kind": "quadratic", "a": "1"}
FIRM = {"scenarios": [{"prob": "1", "marginals": ["9", "1"]}]}

# Each is a well-formed instance with one field given the wrong JSON type.
MALFORMED = {
    "marginals-string": {"cost": QUADRATIC,
                         "firms": [{"scenarios": [{"prob": "1", "marginals": "91"}]}]},
    "firms-number": {"cost": QUADRATIC, "firms": 5},
    "scenarios-object": {"cost": QUADRATIC, "firms": [{"scenarios": {"prob": "1"}}]},
    "cost-values-number": {"cost": {"kind": "marginals", "values": 7}, "firms": [FIRM]},
    "joint-number": {"cost": QUADRATIC, "joint_scenarios": 3},
    "joint-marginals-string": {"cost": QUADRATIC,
                               "joint_scenarios": [{"prob": "1", "marginals": ["91"]}]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_wrong_json_type_is_a_validation_error(name):
    with pytest.raises(ValidationError, match="expected a JSON array"):
        loads_instance(json.dumps(MALFORMED[name]))


def test_well_formed_lists_still_parse():
    m = loads_instance(json.dumps({"cost": QUADRATIC, "firms": [FIRM]}))
    assert m.firms[0].scenarios == ((F(1), MarginalVector.of(9, 1)),)
    assert loads_instance(dumps_instance(demand_reduction())) == demand_reduction()


# Each is a well-formed instance with one number given as a JSON boolean,
# which Python would otherwise read as 1 or 0.
BOOLEAN = {
    "prob-true": {"cost": QUADRATIC,
                  "firms": [{"scenarios": [{"prob": True, "marginals": ["9", "1"]}]}]},
    "marginal-false": {"cost": QUADRATIC,
                       "firms": [{"scenarios": [{"prob": "1", "marginals": ["9", False]}]}]},
    "coefficient-true": {"cost": {"kind": "quadratic", "a": True}, "firms": [FIRM]},
    "cost-value-true": {"cost": {"kind": "marginals", "values": ["1", True]}, "firms": [FIRM]},
    "joint-prob-true": {"cost": QUADRATIC,
                        "joint_scenarios": [{"prob": True, "marginals": [["9"], ["1"]]}]},
}

LABEL = {
    "label-number": {"label": 7, "cost": QUADRATIC, "firms": [FIRM]},
    "label-null": {"label": None, "cost": QUADRATIC, "firms": [FIRM]},
    "label-array": {"label": ["a"], "cost": QUADRATIC, "firms": [FIRM]},
}


@pytest.mark.parametrize("name", sorted(BOOLEAN))
def test_boolean_number_is_a_validation_error(name):
    with pytest.raises(ValidationError, match="booleans are not accepted"):
        loads_instance(json.dumps(BOOLEAN[name]))


@pytest.mark.parametrize("name", sorted(LABEL))
def test_non_string_label_is_a_validation_error(name):
    with pytest.raises(ValidationError, match="label: expected a JSON string"):
        loads_instance(json.dumps(LABEL[name]))


def scaled(m: MarketInstance, divisor: int) -> MarketInstance:
    """The market with every marginal divided by `divisor`."""
    return m._replace(firms=tuple(
        FirmDistribution(tuple(
            (p, MarginalVector(tuple(v / divisor for v in mv.marginals)))
            for p, mv in firm.scenarios
        ))
        for firm in m.firms
    ))


@given(
    seed=st.integers(0, 10**6),
    firms=st.integers(1, 3),
    scenarios=st.integers(1, 3),
    max_units=st.integers(1, 4),
    cost_kind=st.sampled_from(("quadratic", "marginals")),
    divisor=st.sampled_from((1, 3, 7)),
    error_extension=st.booleans(),
    joint=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_round_trip(seed, firms, scenarios, max_units, cost_kind, divisor, error_extension,
                    joint):
    m = scaled(generate(seed, firms=firms, scenarios_per_firm=scenarios, max_units=max_units,
                        cost_kind=cost_kind), divisor)
    if error_extension and cost_kind == "marginals":
        m = m._replace(cost=MarginalCostTable(m.cost.marginals, ERROR_BEYOND))
    if joint:
        rows = enumerate_scenarios(m)
        m = MarketInstance(firms=(), cost=m.cost, label=m.label,
                           joint=tuple((row.probability, row.valuations) for row in rows))
    text = dumps_instance(m)
    loaded = loads_instance(text)
    assert loaded == m
    assert dumps_instance(loaded) == text

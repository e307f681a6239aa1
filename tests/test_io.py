"""Instance files: malformed input raises ValidationError, never a misparse."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from capauction.instances import demand_reduction, generate
from capauction.io import dumps_instance, load_instance, loads_instance
from capauction.model import ERROR_BEYOND, MarginalCostTable, MarketInstance, ValidationError
from oracles import enumerate_scenarios, mv

QUADRATIC = {"kind": "quadratic", "a": "1"}
FIRM = {"scenarios": [{"prob": "1", "marginals": ["9", "1"]}]}

ARRAY = "expected a JSON array"

# Each is an instance file that loading rejects, and the message that names
# the mistake. Most are well-formed instances with one field given the
# wrong JSON type or left out. A dict or list is written as JSON, a string
# verbatim, and None leaves the path unwritten.
MALFORMED = {
    "marginals-string": ({"cost": QUADRATIC,
                          "firms": [{"scenarios": [{"prob": "1", "marginals": "91"}]}]}, ARRAY),
    "firms-number": ({"cost": QUADRATIC, "firms": 5}, ARRAY),
    "scenarios-object": ({"cost": QUADRATIC, "firms": [{"scenarios": {"prob": "1"}}]}, ARRAY),
    "cost-values-number": ({"cost": {"kind": "marginals", "values": 7}, "firms": [FIRM]}, ARRAY),
    "joint-number": ({"cost": QUADRATIC, "joint_scenarios": 3}, ARRAY),
    "joint-marginals-string": ({"cost": QUADRATIC,
                                "joint_scenarios": [{"prob": "1", "marginals": ["91"]}]}, ARRAY),
    "marginal-list": ({"cost": QUADRATIC,
                       "firms": [{"scenarios": [{"prob": "1", "marginals": [[1]]}]}]},
                      "not a rational: [1] (got list)"),
    "prob-object": ({"cost": QUADRATIC,
                     "firms": [{"scenarios": [{"prob": {"p": 1}, "marginals": ["9"]}]}]},
                    "not a rational: {'p': 1} (got dict)"),
    "not-json": ('{"cost": ', "instance file is not valid JSON"),
    # Past Python's 4,300-digit int limit, and past its recursion limit.
    "huge-integer": ('{"cost": {"kind": "quadratic", "a": "1"}, "firms": [{"scenarios": '
                     '[{"prob": "1", "marginals": [' + "9" * 5001 + ']}]}]}',
                     "instance file is not valid JSON: Exceeds the limit"),
    "deep-nesting": ("[" * 100_000, "instance file is not valid JSON: maximum recursion depth"),
    "unreadable": (None, "cannot read instance file"),
    "top-level-array": ([FIRM], "instance: expected a JSON object"),
    "cost-without-kind": ({"cost": {"a": "1"}, "firms": [FIRM]},
                          "cost: expected an object with a 'kind' field"),
    "cost-kind-unknown": ({"cost": {"kind": "cubic"}, "firms": [FIRM]},
                          "cost.kind: expected 'quadratic' or 'marginals', got 'cubic'"),
    "no-firms-or-joint": ({"cost": QUADRATIC},
                          "instance: needs either 'firms' or 'joint_scenarios'"),
    "firm-without-scenarios": ({"cost": QUADRATIC, "firms": [{}]}, "firms[0]: 'scenarios'"),
    "joint-row-without-prob": ({"cost": QUADRATIC, "joint_scenarios": [{"marginals": [["9"]]}]},
                               "joint_scenarios[0]: 'prob'"),
    # Parses, then fails `validate`.
    "probabilities-sum-to-half": ({"cost": QUADRATIC,
                                   "firms": [{"scenarios": [{"prob": "1/2", "marginals": ["9"]}]}]},
                                  "probabilities sum to 1/2, not 1"),
}


def malformed_file(tmp_path, name: str) -> str:
    """The path of the file for `MALFORMED[name]`, written under `tmp_path`."""
    content = MALFORMED[name][0]
    path = tmp_path / "instance.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content),
                        encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_wrong_json_type_is_a_validation_error(tmp_path, name):
    with pytest.raises(ValidationError) as raised:
        load_instance(malformed_file(tmp_path, name))
    assert MALFORMED[name][1] in str(raised.value)


def test_unknown_cost_extension_is_a_validation_error():
    cost = {"kind": "marginals", "values": ["1"], "extension": "wrap"}
    with pytest.raises(ValidationError, match="cost.extension: unknown policy 'wrap'"):
        loads_instance(json.dumps({"cost": cost, "firms": [FIRM]}))


def test_firms_beside_a_joint_table_are_rejected():
    joint = [{"prob": "1", "marginals": [["9", "1"]]}]
    with pytest.raises(ValidationError, match="either 'firms' or 'joint_scenarios', not both"):
        loads_instance(json.dumps({"cost": QUADRATIC, "firms": [FIRM], "joint_scenarios": joint}))
    m = loads_instance(json.dumps({"cost": QUADRATIC, "joint_scenarios": joint}))
    assert m.firms == () and m.joint == ((F(1), (mv(9, 1),)),)


def test_well_formed_lists_still_parse():
    m = loads_instance(json.dumps({"cost": QUADRATIC, "firms": [FIRM]}))
    assert m.firms[0] == ((F(1), mv(9, 1)),)
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
        tuple((p, tuple(v / divisor for v in vec)) for p, vec in firm) for firm in m.firms
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

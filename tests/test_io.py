"""Instance files: malformed input raises ValidationError, never a misparse."""

import json
from fractions import Fraction as F

import pytest

from capauction import (
    MarginalVector,
    ValidationError,
    demand_reduction,
    dumps_instance,
    loads_instance,
)

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

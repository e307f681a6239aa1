"""What a CLI process loads before it parses its arguments, and the records
that replaced dataclasses."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import capauction
from capauction import (
    AuctionParams,
    MarginalVector,
    ValidationError,
    demand_reduction,
    generate,
    quadratic,
)
from capauction.analysis import Analysis, enumerate_scenarios, optimize_cap_and_price
from capauction.bounds import verify_sellout_factor
from capauction.equilibrium import StrategyProfile, find_grid_equilibria

SRC = str(Path(capauction.__file__).resolve().parent.parent)

# Each of these is imported only by the subcommands that use it.
NOT_AT_STARTUP = ("dataclasses", "inspect", "csv", "capauction.bounds", "capauction.equilibrium")


def test_cli_import_loads_no_subcommand_module():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import capauction.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "capauction.cli" in loaded
    assert [name for name in NOT_AT_STARTUP if name in loaded] == []


def test_every_exported_name_resolves():
    assert len(set(capauction.__all__)) == len(capauction.__all__)
    listed = dir(capauction)
    for name in capauction.__all__:
        assert getattr(capauction, name) is not None, name
        assert name in listed, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'price_gap_at_half'"):
        capauction.price_gap_at_half
    assert not hasattr(capauction, "no_such_name")


def test_auction_params_repr_is_unchanged():
    assert repr(AuctionParams(2, 1)) == (
        "AuctionParams(cap=2, floor=Fraction(1, 1), ceiling=None, pricing='lowest-winning')"
    )


def test_auction_params_coerces_and_validates():
    assert AuctionParams(1, "3/2").floor == F(3, 2)
    assert AuctionParams(cap=1, floor=0, ceiling="5/2").ceiling == F(5, 2)
    for cap in (2.5, True, "2"):
        with pytest.raises(ValidationError, match="cap must be an integer"):
            AuctionParams(cap, 0)


def _records():
    instance = demand_reduction()
    analysis = Analysis(instance)
    params = AuctionParams(2, 9, None, "highest-losing")
    report = find_grid_equilibria(instance, params)
    return [
        MarginalVector.of(3, 1),
        quadratic(1),
        instance,
        instance.firms[0],
        params,
        enumerate_scenarios(instance),
        enumerate_scenarios(instance).rows[0],
        optimize_cap_and_price(analysis, allow_ceiling=False),
        verify_sellout_factor(analysis),
        report,
        report.profiles[0],
    ]


def test_records_are_read_only():
    for record in _records():
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_marginal_vectors_order_as_their_tuples():
    vectors = [MarginalVector.of(*vs) for vs in ((3, 1), (2, 2), (3,), (), (3, 1, 1))]
    assert sorted(vectors) == [MarginalVector(m) for m in sorted(v.marginals for v in vectors)]
    assert StrategyProfile(((vectors[0],),)).report(0, 0) == vectors[0]


def test_generated_instances_hash_and_compare_by_value():
    assert generate(4) == generate(4) and hash(generate(4)) == hash(generate(4))
    assert generate(4) != generate(5)

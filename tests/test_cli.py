"""Exit codes and printed results of the command-line surface."""

import json

import pytest

from capauction.cli import main

from test_io import MALFORMED


def write(tmp_path, obj):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_evaluate_rejects_malformed_instance(tmp_path, capsys, name):
    path = write(tmp_path, MALFORMED[name])
    assert main(["evaluate", path, "--cap", "1", "--floor", "0"]) == 1
    assert "expected a JSON array" in capsys.readouterr().err


# An "error"-extension cost table covers quantities 0..2 only, while
# total demand reaches 5.
SHORT_COST_TABLE = {
    "cost": {"kind": "marginals", "values": ["1", "2"], "extension": "error"},
    "firms": [
        {"scenarios": [{"prob": "1", "marginals": ["9", "8", "7"]}]},
        {"scenarios": [{"prob": "1/2", "marginals": ["6", "5"]},
                       {"prob": "1/2", "marginals": ["3"]}]},
    ],
}


def test_short_cost_table_within_cap_limit(tmp_path, capsys):
    path = write(tmp_path, SHORT_COST_TABLE)
    assert main(["optimize", path, "--no-ceiling", "--cap-limit", "1"]) == 0
    assert "expected welfare: 14 (" in capsys.readouterr().out


def test_short_cost_table_with_ceilings_fails(tmp_path, capsys):
    path = write(tmp_path, SHORT_COST_TABLE)
    assert main(["optimize", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: quantity ") and "beyond cost table" in err

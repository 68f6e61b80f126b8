import json
import math

import pytest

from kerrcav import Table, format_float, parse_json, render, to_csv, to_json


def sample_table():
    table = Table(["omega_p", "branch", "E", "stable", "tag"])
    table.append(0.95, 0, 12.25, True, "lo")
    table.append(1.0, 1, math.inf, False, "hi")
    table.append(1.05, 2, math.nan, True, "mid")
    return table


def test_format_float_digits():
    assert format_float(1.0) == "1.0000000000000000e+00"
    assert format_float(-0.25) == "-2.5000000000000000e-01"
    assert format_float(math.pi) == "3.1415926535897931e+00"
    assert format_float(math.inf) == "inf"
    assert format_float(-math.inf) == "-inf"
    assert format_float(math.nan) == "nan"


def test_format_float_round_trips_value():
    for x in (1.0 / 3.0, 1e-300, 6.02214076e23, -7.2e-12):
        assert float(format_float(x)) == x


def test_csv_layout():
    text = to_csv(sample_table())
    lines = text.splitlines()
    assert lines[0] == "omega_p,branch,E,stable,tag"
    assert lines[1].startswith("9.4999999999999996e-01,0,")
    assert "true" in lines[1] and "false" in lines[2]
    assert ",inf," in lines[2]
    assert ",nan," in lines[3]
    assert text.endswith("\n")


def test_row_width_checked():
    table = Table(["a", "b"])
    with pytest.raises(ValueError):
        table.append(1.0)


@pytest.mark.parametrize("columns, rows", [
    (["a", "b"], [[1.0], [1.0, 2.0, 3.0]]),
    (["a", "b"], [[1.0, 2.0], []]),
    ([], []),
    ([], [[]]),
])
def test_tables_are_rectangular(columns, rows):
    with pytest.raises(ValueError):
        Table(columns, rows)
    with pytest.raises(ValueError):
        parse_json(json.dumps({"schema": 1, "columns": columns,
                               "rows": rows}))


def test_json_parse_round_trip():
    text = to_json(sample_table())
    parsed = parse_json(text)
    assert parsed.columns == sample_table().columns
    assert to_json(parsed) == text
    # and a second round for good measure
    assert to_json(parse_json(to_json(parsed))) == text


def test_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        parse_json('{"schema": 2, "columns": [], "rows": []}')


def test_render_dispatch():
    table = sample_table()
    assert render(table, "csv") == to_csv(table)
    assert render(table, "json") == to_json(table)
    with pytest.raises(ValueError):
        render(table, "yaml")


def test_emission_is_deterministic():
    assert to_csv(sample_table()) == to_csv(sample_table())
    assert to_json(sample_table()) == to_json(sample_table())


def test_column_accessor():
    table = sample_table()
    assert table.column("branch") == [0, 1, 2]
    with pytest.raises(ValueError):
        table.column("missing")

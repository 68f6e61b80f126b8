import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcav import (Table, format_float, parse_json, render, tableio, to_csv,
                     to_json)
from kerrcav.tableio import _BLOCK_CELLS
from oracles import reference_csv, reference_json


def sample_table():
    return Table(["omega_p", "branch", "E", "stable", "tag"],
                 [(0.95, 0, 12.25, True, "lo"), (1.0, 1, math.inf, False, "hi"),
                  (1.05, 2, math.nan, True, "mid")])


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
    with pytest.raises(ValueError, match="every row needs 2 cells"):
        Table(["a", "b"], [(1.0,)])


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
    assert render(table, "csv") == to_csv(table).encode()
    assert render(table, "json") == to_json(table).encode()
    with pytest.raises(ValueError):
        render(table, "yaml")


def test_emission_is_deterministic():
    assert to_csv(sample_table()) == to_csv(sample_table())
    assert to_json(sample_table()) == to_json(sample_table())


def test_column_accessor():
    table = sample_table()
    assert table.column("branch").tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        table.column("missing")


def test_column_is_the_stored_array():
    x = np.linspace(0.0, 1.0, 5)
    table = Table.from_columns(["x", "n"], [x, np.arange(5)])
    column = table.column("x")
    assert column is table.column("x")
    assert np.shares_memory(column, x)
    assert not column.flags.writeable
    assert table.rows[1] == (0.25, 1)


@pytest.mark.parametrize("first, second", [(1.0, 1), (True, 1), (1, True),
                                           (1.0, "x"), (np.float64(1.0), 2)])
def test_a_column_holds_one_cell_type(first, second):
    with pytest.raises(ValueError, match="one cell type"):
        Table(["a"], [[first], [second]])
    with pytest.raises(ValueError, match="one cell type"):
        Table.from_columns(["a"], [[first, second]])


def test_cells_of_other_types_are_rejected():
    for cell in (None, 1j, b"x", [1.0]):
        with pytest.raises(ValueError, match="cell must be"):
            Table(["a"], [[cell]])
    # NUL bytes pad the cells' slots while a table renders
    with pytest.raises(ValueError, match="NUL"):
        Table(["a"], [["a\0b"]])


def test_parse_json_reads_quoted_non_finite_cells_as_floats():
    table = Table(["E", "only", "tag"], [[12.25, math.nan, "nan"],
                                         [math.inf, -math.inf, "inf"],
                                         [-math.inf, math.inf, "x"]])
    text = to_json(table)
    parsed = parse_json(text)
    assert parsed.column("E").dtype == np.float64
    assert parsed.column("only").dtype == np.float64
    assert parsed.column("tag").dtype.kind == "U"
    assert to_json(parsed) == text
    assert to_csv(parsed) == to_csv(table)


# ------------------------------------------------ vector float formatting

def float_table(values):
    return Table.from_columns(["x"], [np.asarray(values, dtype=np.float64)])


def python_csv(values):
    return "x\n" + "".join("%.16e\n" % v for v in values)


def edge_floats():
    """Every binary exponent (subnormals, zeros, infinities and NaNs
    included) with both signs and several mantissas, 10^k for every k with
    its two neighbours, and exact ties of the 17th digit."""
    rng = np.random.default_rng(20050518)
    mantissas = rng.integers(0, 2**52, (2048, 6), dtype=np.uint64)
    mantissas[:, 0] = 0
    mantissas[:, 1] = 2**52 - 1
    bits = (np.arange(2048, dtype=np.uint64)[:, None] << np.uint64(52)
            | mantissas).ravel()
    bits = np.concatenate([bits, bits | np.uint64(1 << 63)])
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ties = 2.0**49 + (2 * np.arange(64) + 1) / 8.0  # s = ....5 exactly
    return np.concatenate([bits.view(np.float64), powers,
                           np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf), ties, -ties])


def round_ups():
    """17-digit round-ups: doubles below 10^k that print as 1.0...0e+k."""
    return [v for k, v in ((k, float(f"1e{k}")) for k in range(-323, 309))
            if Fraction(v) < Fraction(10) ** k
            and format_float(v).startswith("1.0000000000000000e")]


def test_float_cells_match_python_on_edge_values():
    x = edge_floats()
    assert np.isnan(x).any() and np.signbit(x[np.isnan(x)]).any()
    ups = round_ups()
    assert ups and np.isin(ups, x).all()
    table = float_table(x)
    assert to_csv(table) == python_csv(x.tolist())
    assert to_json(table) == reference_json(table)
    assert to_csv(float_table([np.copysign(np.nan, -1.0)])) == "x\nnan\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_cells_match_python_on_random_bits(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    table = float_table(x)
    assert to_csv(table) == python_csv(x.tolist())
    assert to_json(table) == reference_json(table)


def test_tables_match_the_row_wise_renderer():
    for table in (sample_table(), Table(["a", "b"]),
                  Table.from_columns(["a"], [np.empty(0)])):
        assert to_csv(table) == reference_csv(table)
        assert to_json(table) == reference_json(table)


def test_cells_outside_the_vector_range_fall_back_to_python(monkeypatch):
    """|x| in [1e-290, 1e290) is scaled by the power table; its float
    neighbours outside that range, and the smallest and largest normals,
    are formatted by ``"%.16e" %`` (once per distinct value)."""
    low, high = 1e-290, 1e290
    inside = [low, math.nextafter(low, 1.0), math.nextafter(high, 0.0)]
    outside = [math.nextafter(low, 0.0), high, math.nextafter(high, math.inf),
               2.2250738585072014e-308, 1.7976931348623157e308]
    values = [v * sign for v in inside + outside for sign in (1.0, -1.0)]
    fallen = []
    text = tableio._float_text
    monkeypatch.setattr(tableio, "_float_text",
                        lambda x, quote: fallen.append(x) or text(x, quote))
    table = float_table(values * 2)
    assert to_csv(table) == python_csv(values * 2)
    assert sorted(fallen) == sorted(v for v in values if abs(v) in outside)


def test_power_table_holds_the_nearest_double_doubles():
    """Each row (p, p_hi, p_lo, q) holds p, the double nearest 10^k, q, the
    double nearest 10^k - p, and p split into 26 upper bits and a rest of
    at most half a unit of their last place."""
    powers = tableio._tables()[0]
    ks = range(tableio._K_MIN, tableio._K_MAX + 1)
    assert powers.shape == (len(ks), 4)
    for k, (p, p_hi, p_lo, q) in zip(ks, powers.tolist()):
        exact = Fraction(10) ** k
        assert p == float(exact)
        assert q == float(exact - Fraction(p))
        assert p_hi + p_lo == p
        upper = math.ulp(p) * 2**27  # the last place of p's upper 26 bits
        assert Fraction(p_hi) % Fraction(upper) == 0
        assert abs(p_lo) <= upper / 2


def block_edge_table(n_rows, step):
    """Float, int, bool and str columns of ``n_rows`` rows, with NaN (both
    signs), +-inf, both zeros, subnormals, 17th-digit round-ups and exact
    ties of the 17th digit in the rows on either side of every block edge
    (each multiple of ``step``) and in the last rows."""
    rng = np.random.default_rng(n_rows)
    ties = [2.0**49 + 0.125, -(2.0**49 + 0.375), 2.0**50 + 0.25]
    specials = np.array([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0,
                         5e-324, -2.225073858507201e-308, *ties,
                         *round_ups()[::5]])
    x = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    y = rng.random(n_rows)
    edges = [*range(step, n_rows + 1, step), n_rows]
    rows = np.unique([r for edge in edges for r in range(edge - 4, edge + 4)
                      if 0 <= r < n_rows])
    x[rows] = np.resize(specials, rows.size)
    y[rows] = np.resize(specials[::-1], rows.size)
    n = rng.integers(-2**63, 2**63 - 1, n_rows, dtype=np.int64, endpoint=True)
    flag = rng.random(n_rows) < 0.5
    tags = np.array(["", "lo", 'q"d', "ünï", "wide tag"])
    tag = tags[rng.integers(0, tags.size, n_rows)]
    return Table.from_columns(["x", "n", "flag", "tag", "y"],
                              [x, n, flag, tag, y])


@pytest.mark.parametrize("offset", [-1, 0, 1, None])
def test_tables_across_block_edges_match_the_row_wise_renderer(offset):
    """Tables of one block less a row, one block, one block and a row, and
    two blocks and a row: every cell kind, and the values that leave the
    vector path, on both sides of each edge."""
    step = _BLOCK_CELLS // 5
    n_rows = 2 * step + 1 if offset is None else step + offset
    table = block_edge_table(n_rows, step)
    assert to_csv(table) == reference_csv(table)
    assert to_json(table) == reference_json(table)


@pytest.mark.parametrize("columns, arrays, message", [
    (["a"], [np.zeros((2, 2))], "a column must be 1-d"),
    (["a", "b"], [np.zeros(2)], "1 columns of data for 2 names"),
    (["a", "b"], [np.zeros(2), np.zeros(3)],
     "every column needs the same length"),
])
def test_from_columns_rejects_misshapen_data(columns, arrays, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Table.from_columns(columns, arrays)

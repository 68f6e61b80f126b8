import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kerrcav
from kerrcav import (ConfigError, PumpDrive, critical_point,
                     intermodulation_gain, lo_phase_extrema, load_config,
                     parametric_gain, to_csv, to_json)
from kerrcav.jsonfile import read_json
from conftest import float_bits, make_uniform_profile
from oracles import (reference_csv, reference_json, scalar_reflection,
                     scalar_steady_states)


def bytes_checked(run):
    """``run`` whose every table renders to the bytes of the row-wise
    reference renderer, in csv and in json."""
    @functools.wraps(run)
    def checked(*args):
        table = run(*args)
        assert to_csv(table) == reference_csv(table)
        assert to_json(table) == reference_json(table)
        return table
    return checked


run_steady_sweep, run_gain_sweep, run_squeeze_sweep, run_critical = map(
    bytes_checked, (kerrcav.run_steady_sweep, kerrcav.run_gain_sweep,
                    kerrcav.run_squeeze_sweep, kerrcav.run_critical))

SQRT3 = math.sqrt(3.0)

FIG_DEVICE = {"omega0": 1.0, "kerr": -1e-4, "gamma1": 0.01, "gamma2": 0.011,
              "gamma3": 0.01e-4 / SQRT3}


def steady_config(fraction, count=400, start=0.9, stop=1.005):
    return {
        "schema": 1,
        "device": dict(FIG_DEVICE),
        "drive": {
            "omega_p": {"start": start, "stop": stop, "count": count},
            "b1_in": [{"times_critical": fraction}],
        },
    }


def rows_by_omega(table):
    grouped = {}
    for row in table.rows:
        grouped.setdefault(row[1], []).append(row)
    return grouped


# -------------------------------------------------------------------- configs

def test_config_requires_schema():
    with pytest.raises(ConfigError, match="schema"):
        load_config({"device": dict(FIG_DEVICE)})


def test_config_validates_device():
    bad = dict(FIG_DEVICE, gamma1=0.0, gamma2=0.0)
    with pytest.raises(ConfigError, match="device"):
        load_config({"schema": 1, "device": bad})


def test_config_grid_count_bounds():
    cfg = steady_config(0.5)
    cfg["drive"]["omega_p"]["count"] = 1
    with pytest.raises(ConfigError, match="count"):
        load_config(cfg)


def test_config_rejects_infinite_range():
    cfg = steady_config(0.5)
    cfg["drive"]["omega_p"]["start"] = math.inf
    with pytest.raises(ConfigError, match="finite"):
        load_config(cfg)


def test_config_rejects_overflowing_range():
    cfg = steady_config(0.5)
    cfg["drive"]["omega_p"].update(start=-1e308, stop=1e308)
    with pytest.raises(ConfigError, match="finite"):
        load_config(cfg)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300),
       st.integers(2, 2000))
def test_grid_points_are_start_plus_step_times_index(start, stop, count):
    """The grid is evaluated in one NumPy pass with the bits of
    start + step * i, each point on its own in Python floats."""
    grid = kerrcav.sweeps._load_grid(
        {"start": start, "stop": stop, "count": count}, "drive.omega_p")
    step = (stop - start) / (count - 1)
    expected = tuple(start + step * i for i in range(count))
    assert {type(w) for w in grid} == {float}
    assert float_bits(grid) == float_bits(expected)


def test_times_critical_needs_critical_point():
    cfg = steady_config(0.5)
    cfg["device"]["kerr"] = 0.0
    cfg["device"]["gamma3"] = 1e-6
    with pytest.raises(ConfigError) as excinfo:
        load_config(cfg)
    assert str(excinfo.value) == (
        "config field 'drive.b1_in[0]': no critical point: it needs "
        "|kerr| > sqrt(3)*gamma3 and gamma1 > 0")


def test_device_from_profile(tmp_path):
    profile = make_uniform_profile(n_grid=600)
    payload = {
        "l": profile.length, "I_c": profile.I_c, "hbar": profile.hbar,
        "grid": profile.n_grid,
        "C": profile.C.tolist(), "L0": profile.L0.tolist(),
        "dL": profile.dL.tolist(), "R0": profile.R0.tolist(),
        "dR": profile.dR.tolist(),
    }
    path = tmp_path / "line.json"
    path.write_text(json.dumps(payload))
    cfg = {"schema": 1,
           "device": {"profile": str(path), "mode_index": 1, "gamma1": 0.01}}
    config = load_config(cfg)
    assert config.device.omega0 == pytest.approx(math.pi, rel=1e-3)
    assert config.device.kerr < 0.0


def test_offsets_and_signal_frequencies_are_exclusive():
    cfg = steady_config(0.5)
    cfg["offsets"] = [0.0]
    cfg["signal_frequencies"] = [1.0]
    with pytest.raises(ConfigError, match="offsets"):
        load_config(cfg)


@pytest.mark.parametrize("key", ["offsets", "signal_frequencies",
                                 "pump_fractions"])
def test_config_number_lists_must_be_lists(key):
    cfg = steady_config(0.5)
    cfg[key] = 5
    with pytest.raises(ConfigError, match=key):
        load_config(cfg)


@pytest.mark.parametrize("value", [1.7, 1.0])
def test_config_mode_index_must_be_integer(tmp_path, value):
    cfg = {"schema": 1, "device": {"profile": str(tmp_path / "line.json"),
                                   "mode_index": value, "gamma1": 0.01}}
    with pytest.raises(ConfigError, match="mode_index"):
        load_config(cfg)


@pytest.mark.parametrize("field, value", [("kerr", math.nan),
                                          ("gamma3", math.inf),
                                          ("omega0", -math.inf)])
def test_config_rejects_non_finite_device_numbers(field, value):
    cfg = steady_config(0.5)
    cfg["device"][field] = value
    # round trip through JSON text: NaN and Infinity are what a file holds
    with pytest.raises(ConfigError, match=rf"device\.{field}.*finite"):
        load_config(json.loads(json.dumps(cfg)))


def test_config_rejects_non_finite_offsets_and_fractions():
    cfg = steady_config(0.5)
    for key in ("offsets", "pump_fractions"):
        with pytest.raises(ConfigError, match=rf"{key}\[1\]"):
            load_config({**cfg, key: [0.0, math.inf]})


# ------------------------------------------------------------ config decoding

def json_bits(value):
    """A comparable key for a decoded JSON value: each number by its type
    and (floats) IEEE bits, objects as their (key, value) pairs in order."""
    if isinstance(value, dict):
        return "dict", tuple((k, json_bits(v)) for k, v in value.items())
    if isinstance(value, list):
        return "list", tuple(map(json_bits, value))
    return type(value).__name__, float_bits(value)


# each document holds the same numbers top-level, where orjson reads its
# arrays one at a time, and nested, where it reads the document whole
DECODED_ALIKE = {
    "duplicate keys": '{"a": [1], "b": 2, "a": [3.5], "c": {"d": 1, "d": 2}}',
    "negative zero": '{"a": -0, "b": [-0, -0.0, 0.0, 0], "c": -0.0}',
    "subnormals": '{"a": [5e-324, 2.4703282292062328e-324, 1e-320, '
                  '-1e-310, 2.2250738585072009e-308, 2.225073858507201e-308],'
                  ' "b": 3e-324}',
    "integers": '{"a": [9007199254740993, 9223372036854775808, '
                '18446744073709551615, -9223372036854775808], '
                '"b": 18446744073709551615, "c": 9007199254740993}',
    "escaped strings": r'{"s": "a\"b\\c\/d\b\f\n\r\té😀 [x] {y}",'
                       r' "t": ["A", "é", "\u0000"]}',
}


@pytest.mark.parametrize("nested", [False, True], ids=["top", "nested"])
@pytest.mark.parametrize("name", DECODED_ALIKE)
def test_read_config_file_matches_json(tmp_path, name, nested):
    """orjson reads these documents (no fallback to json) to what json.load
    gives: the same values, types, float bits and key order."""
    import orjson

    text = DECODED_ALIKE[name]
    if nested:
        text = f'{{"o": {text}, "p": [{text}]}}'
    path = tmp_path / "cfg.json"
    path.write_bytes(text.encode())
    orjson.loads(text.encode())
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert json_bits(read_json(path, "config")) == json_bits(expected)


@pytest.mark.parametrize("text", [
    '{"a": [NaN, Infinity, -Infinity, 1e400, -1e400], "b": NaN}',
    '{"a": 1e400, "b": {"c": [-Infinity]}}',
    '{"s": "\\ud800"}',
    '{"a": ' + '1' + '0' * 400 + '}',
])
def test_read_config_file_reads_what_orjson_refuses_by_json(tmp_path, text):
    """NaN, Infinity, a number past float range and a lone surrogate load
    as json loads them."""
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    assert json_bits(read_json(path, "config")) == json_bits(json.loads(text))


@pytest.mark.parametrize("data", [
    b'\xef\xbb\xbf{"schema": 1}',
    b'{"schema": 1,\r\n "offsets": [0.0, 1e-3,\r\n]}',
    b'{"schema": 1, "device": }',
])
def test_read_config_file_reports_json_errors_as_json(tmp_path, data):
    """A byte-order mark, a trailing comma after CRLF line ends and a
    missing value are reported with json's message, line, column and
    offset."""
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    with pytest.raises(json.JSONDecodeError) as expected:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    with pytest.raises(json.JSONDecodeError) as got:
        read_json(path, "config")
    assert (got.value.msg, got.value.lineno, got.value.colno, got.value.pos) \
        == (expected.value.msg, expected.value.lineno, expected.value.colno,
            expected.value.pos)


def test_read_config_file_reads_integers_past_two_to_the_64_as_floats(
        tmp_path):
    """The one documented difference from json: orjson reads an integer
    outside [-2^63, 2^64) as the nearest double, where json keeps the
    int."""
    path = tmp_path / "cfg.json"
    path.write_text('{"a": 18446744073709551617, "b": -9223372036854775809,'
                    ' "c": 18446744073709551615}')
    assert json_bits(read_json(path, "config")) == json_bits(
        {"a": 2.0**64, "b": -(2.0**63), "c": 2**64 - 1})


# --------------------------------------------------------------- steady sweep

def test_steady_sweep_subcritical_single_branch():
    table = run_steady_sweep(load_config(steady_config(0.5)))
    grouped = rows_by_omega(table)
    assert len(grouped) == 400
    assert all(len(rows) == 1 for rows in grouped.values())
    energies = [rows[0][3] for _, rows in sorted(grouped.items())]
    # smooth pulled resonance: single maximum along the sweep
    peak = int(np.argmax(energies))
    assert all(b >= a for a, b in zip(energies[:peak], energies[1:peak + 1]))
    assert all(b <= a for a, b in zip(energies[peak:], energies[peak + 1:]))


def test_steady_sweep_supercritical_has_three_row_window():
    table = run_steady_sweep(load_config(steady_config(2.0, count=900)))
    grouped = rows_by_omega(table)
    counts = {len(rows) for rows in grouped.values()}
    assert 3 in counts
    # branch indices ascend in energy within a frequency
    for rows in grouped.values():
        energies = [r[3] for r in sorted(rows, key=lambda r: r[2])]
        assert energies == sorted(energies)


def test_steady_sweep_reflection_dip():
    table = run_steady_sweep(load_config(steady_config(0.5)))
    refl = [r[6] for r in table.rows]
    assert min(refl) < 0.2
    assert max(refl) <= 1.0 + 1e-9


def test_steady_sweep_zero_drive_rows():
    cfg = steady_config(0.5)
    cfg["drive"]["b1_in"] = [0.0]
    table = run_steady_sweep(load_config(cfg))
    assert all(math.isnan(r[6]) for r in table.rows)
    assert all(r[3] == 0.0 for r in table.rows)


def test_steady_sweep_requires_drive():
    with pytest.raises(ConfigError, match="drive"):
        run_steady_sweep(load_config({"schema": 1, "device": dict(FIG_DEVICE)}))


# ----------------------------------------------------------------- gain sweep

def test_gain_sweep_lossless_relation():
    cfg = {
        "schema": 1,
        "device": {"omega0": 1.0, "kerr": 5.0, "gamma1": 1e-4, "gamma2": 0.0,
                   "gamma3": 0.0},
        "drive": {"omega_p": {"start": 0.9995, "stop": 1.0004, "count": 60},
                  "b1_in": [{"times_critical": 0.8}]},
        "offsets": [0.0, 5e-5],
    }
    table = run_gain_sweep(load_config(cfg))
    for row in table.rows:
        _, _, _, _, g_s, g_i, diverged = row
        if not diverged:
            assert g_s - g_i == pytest.approx(1.0, abs=1e-9)


def test_gain_sweep_no_pump_rows_have_zero_conversion():
    cfg = steady_config(0.5)
    cfg["drive"]["b1_in"] = [0.0]
    cfg["offsets"] = [0.0, 1e-3]
    table = run_gain_sweep(load_config(cfg))
    assert all(row[5] == 0.0 for row in table.rows)


def test_gain_sweep_diverges_at_critical_point():
    device = dict(FIG_DEVICE)
    params_crit = critical_point(load_config(
        {"schema": 1, "device": device}).device)
    # place the critical frequency exactly on the grid
    cfg = {
        "schema": 1,
        "device": device,
        "drive": {"omega_p": {"start": params_crit.omega_p,
                              "stop": params_crit.omega_p + 0.01, "count": 11},
                  "b1_in": [{"times_critical": 1.0}]},
        "offsets": [0.0],
    }
    table = run_gain_sweep(load_config(cfg))
    diverged_rows = [row for row in table.rows if row[6]]
    assert diverged_rows
    assert all(math.isinf(row[4]) and math.isinf(row[5])
               for row in diverged_rows)
    # every grid point is present despite the divergence
    assert len({row[1] for row in table.rows}) == 11


def test_gain_sweep_absolute_signal_frequencies():
    cfg = steady_config(0.5, count=5)
    cfg["signal_frequencies"] = [1.0]
    table = run_gain_sweep(load_config(cfg))
    for row in table.rows:
        assert row[3] == pytest.approx(1.0 - row[1])


# --------------------------------------------------------------- squeeze sweep

def test_squeeze_sweep_lossless_preset():
    cfg = {
        "schema": 1,
        "device": {"omega0": 1.0, "kerr": 5.0, "gamma1": 1e-4, "gamma2": 0.0,
                   "gamma3": 0.0},
        "pump_fractions": [0.0, 0.5, 0.999],
    }
    table = run_squeeze_sweep(load_config(cfg))
    assert table.rows[0][1] == pytest.approx(1.0, abs=1e-12)
    assert table.rows[-1][1] < 1e-2
    mins = [row[1] for row in table.rows]
    assert mins == sorted(mins, reverse=True)


def test_squeeze_sweep_nonlinear_loss_preset():
    kerr = 5.0
    cfg = {
        "schema": 1,
        "device": {"omega0": 1.0, "kerr": kerr, "gamma1": 1e-4, "gamma2": 0.0,
                   "gamma3": 0.5 * kerr / SQRT3},
        "pump_fractions": list(np.linspace(0.1, 0.999, 12)),
    }
    table = run_squeeze_sweep(load_config(cfg))
    assert all(row[1] > 0.05 for row in table.rows)


def test_squeeze_sweep_requires_fractions():
    cfg = {"schema": 1, "device": {"omega0": 1.0, "kerr": 5.0, "gamma1": 1e-4,
                                   "gamma2": 0.0, "gamma3": 0.0}}
    with pytest.raises(ConfigError, match="pump_fractions"):
        run_squeeze_sweep(load_config(cfg))


# -------------------------------------------------------------------- critical

def test_run_critical_record():
    config = load_config({"schema": 1, "device": dict(FIG_DEVICE)})
    table = run_critical(config.device)
    assert table.columns == ["exists", "E_c", "omega_p_c", "b1c_in",
                             "ill_conditioned"]
    row = table.rows[0]
    crit = critical_point(config.device)
    assert row[0] is True
    assert row[1] == crit.energy
    assert row[2] == crit.omega_p
    assert row[3] == crit.drive
    assert row[4] is False


# ------------------------------------------------- batched sweeps, row by row

def scalar_steady_rows(config):
    """The steady-sweep rows from the one-point functions, on the scalar
    reference branches."""
    for amp in config.amplitudes:
        for omega_p in config.omega_p_grid:
            drive = PumpDrive(omega_p=omega_p, amplitude=amp, phase=config.psi1)
            for state in scalar_steady_states(config.device, drive):
                mag = ang = math.nan
                if amp > 0.0:
                    mag, re, im = scalar_reflection(config.device, drive,
                                                    state.energy)
                    ang = float(np.arctan2(im, re))
                yield [amp, omega_p, state.branch_index, state.energy,
                       state.amplitude, state.phase, mag, ang,
                       state.lambda_slow.real, state.lambda_slow.imag,
                       state.stable]


def scalar_gain_rows(config):
    """The gain-sweep rows from the one-point functions, on the scalar
    reference branches."""
    for amp in config.amplitudes:
        for omega_p in config.omega_p_grid:
            drive = PumpDrive(omega_p=omega_p, amplitude=amp, phase=config.psi1)
            for state in scalar_steady_states(config.device, drive):
                for value in config.offsets:
                    omega = value - omega_p if config.offsets_absolute else value
                    gs = parametric_gain(config.device, state, drive, omega)
                    gi = intermodulation_gain(config.device, state, drive,
                                              omega)
                    yield [amp, omega_p, state.branch_index, omega, gs, gi,
                           not (math.isfinite(gs) and math.isfinite(gi))]


def scalar_squeeze_rows(config):
    """The squeeze-sweep rows from the one-point functions, on the settled
    branch of the scalar reference: the first stable branch, else branch
    0."""
    crit = critical_point(config.device)
    for frac in config.pump_fractions:
        drive = PumpDrive(omega_p=crit.omega_p, amplitude=frac * crit.drive,
                          phase=config.psi1)
        branches = scalar_steady_states(config.device, drive)
        state = next((s for s in branches if s.stable), branches[0])
        ext = lo_phase_extrema(config.device, state, drive, config.env, 0.0)
        yield [frac, ext.p_min, ext.p_max, ext.phi_min, frac > 1.0,
               ext.diverged or not state.stable]


@st.composite
def sweep_configs(draw):
    """Sweep configs over random devices: K = gamma3 = 0, gamma3 = 0 and
    lossy ones; drives from zero through the critical drive (exactly, at
    the critical pump frequency) to 20x it; relative offsets or absolute
    signal frequencies; zero-temperature and hot baths."""
    kind = draw(st.sampled_from(["lossy", "no_tpl", "linear"]))
    kerr = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-6, -2))
    gamma1 = 10.0 ** draw(st.floats(-3.0, -1.0))
    device = {"omega0": 1.0, "kerr": 0.0 if kind == "linear" else kerr,
              "gamma1": gamma1,
              "gamma2": draw(st.sampled_from([0.0, 10.0 ** draw(
                  st.floats(-3.0, -1.0))])),
              "gamma3": (abs(kerr) * draw(st.floats(0.0, 0.55))
                         if kind == "lossy" else 0.0),
              "phi1": draw(st.floats(-3.0, 3.0)),
              "phi2": draw(st.floats(-3.0, 3.0)),
              "phi3": draw(st.floats(-3.0, 3.0))}
    config = load_config({"schema": 1, "device": device})
    crit = critical_point(config.device)
    g = config.device.gamma
    b_ref = crit.drive if crit.exists else math.sqrt(g**3 / gamma1 / 1e-4)
    amplitudes = [0.0] + [b_ref * 10.0 ** draw(st.floats(-1.0, 1.3))
                          for _ in range(draw(st.integers(1, 2)))]
    span = abs(kerr) * 2.0 * gamma1 * max(amplitudes) ** 2 / g**2 + 5.0 * g
    centre = 1.0 - 0.5 * span if kerr < 0.0 else 1.0 + 0.5 * span
    grid = {"start": centre - span, "stop": centre + span,
            "count": draw(st.integers(2, 40))}
    if crit.exists and draw(st.booleans()):
        amplitudes.append({"times_critical": 1.0})
        grid = {"start": crit.omega_p, "stop": crit.omega_p + span,
                "count": grid["count"]}
    theta = st.one_of(st.just("inf"), st.floats(0.05, 20.0))
    data = {"schema": 1, "device": device,
            "drive": {"omega_p": grid, "b1_in": amplitudes,
                      "psi1": draw(st.floats(-3.0, 3.0))},
            "env": {f"theta{i}": draw(theta) for i in (1, 2, 3)},
            "pump_fractions": draw(st.lists(
                st.one_of(st.just(1.0), st.floats(0.0, 3.0)),
                min_size=1, max_size=5))}
    offsets = draw(st.lists(st.one_of(st.just(0.0), st.floats(-0.05, 0.05)),
                            min_size=1, max_size=3))
    if draw(st.booleans()):
        data["signal_frequencies"] = [1.0 + w for w in offsets]
    else:
        data["offsets"] = offsets
    return load_config(data)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sweep_configs())
def test_sweeps_match_one_point_functions(config):
    """Each sweep table, evaluated in one NumPy pass, holds the rows the
    one-point functions give, in order and bit for bit."""
    runs = [(run_steady_sweep, scalar_steady_rows),
            (run_gain_sweep, scalar_gain_rows)]
    if critical_point(config.device).exists:
        runs.append((run_squeeze_sweep, scalar_squeeze_rows))
    for run, reference in runs:
        table = run(config)
        assert float_bits(table.rows) == float_bits(list(reference(config)))
        assert {type(c) for row in table.rows for c in row} <= {float, int,
                                                                 bool}

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from kerrcav import (DeviceParams, PumpDrive, ThermalEnv, critical_point,
                     cubic_coefficients, derive_device, load_config,
                     parse_json, predict_reflection, squeeze_columns)
from kerrcav.cli import build_parser, main
from conftest import make_uniform_profile

SQRT3 = math.sqrt(3.0)

DEVICE = {"omega0": 1.0, "kerr": -1e-4, "gamma1": 0.01, "gamma2": 0.011,
          "gamma3": 0.01e-4 / SQRT3}
NO_CRITICAL_POINT = ("no critical point: it needs |kerr| > sqrt(3)*gamma3 "
                     "and gamma1 > 0")


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def steady_cfg(tmp_path, name="cfg.json"):
    return write_json(tmp_path / name, {
        "schema": 1,
        "device": dict(DEVICE),
        "drive": {"omega_p": {"start": 0.95, "stop": 1.0, "count": 50},
                  "b1_in": [{"times_critical": 0.5}]},
    })


def profile_file(tmp_path):
    profile = make_uniform_profile(n_grid=600)
    return write_json(tmp_path / "line.json", {
        "l": profile.length, "I_c": profile.I_c, "hbar": profile.hbar,
        "grid": profile.n_grid,
        "C": profile.C.tolist(), "L0": profile.L0.tolist(),
        "dL": profile.dL.tolist(), "R0": profile.R0.tolist(),
        "dR": profile.dR.tolist(),
    })


def test_critical_subcommand_csv(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"schema": 1, "device": dict(DEVICE)})
    assert main(["critical", "--config", cfg]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    assert header == "exists,E_c,omega_p_c,b1c_in,ill_conditioned"
    assert row.startswith("true,")


def test_critical_reads_only_the_device(tmp_path, capsys):
    """`critical` reads the header and the device alone: a times_critical
    drive on a device without a critical point, or a drive block that is
    not an object, leaves it printing exists false."""
    linear = {**DEVICE, "kerr": 0.0, "gamma3": 0.0}
    for drive in ({"omega_p": {"start": 0.95, "stop": 1.0, "count": 5},
                   "b1_in": [{"times_critical": 0.5}]}, 5):
        cfg = write_json(tmp_path / "c.json",
                         {"schema": 1, "device": linear, "drive": drive})
        assert main(["critical", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == "false,nan,nan,nan,false"
        assert captured.err == ""


@pytest.mark.parametrize("kerr, gamma3", [(1e-120, 0.0), (-1e200, 5.8e-7)])
def test_critical_point_across_the_float_range(tmp_path, capsys, kerr,
                                               gamma3):
    """Devices whose K^2 or margin^3 leave the float range while their
    critical point does not: E_c near 2.4e118 or 2.4e-202, b_c near 2.7e58
    or 2.7e-102.  Each value is the closed form to 4e-16, evaluated in
    50-digit mpmath from the device's floats."""
    import mpmath

    device = {**DEVICE, "kerr": kerr, "gamma3": gamma3}
    cfg = write_json(tmp_path / "c.json", {"schema": 1, "device": device})
    assert main(["critical", "--config", cfg]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert (row[0], row[4]) == ("true", "false")
    with mpmath.workdps(50):
        k, g3, g1 = (mpmath.mpf(device[n]) for n in ("kerr", "gamma3",
                                                     "gamma1"))
        g = g1 + mpmath.mpf(device["gamma2"])
        margin = abs(k) - mpmath.sqrt(3) * g3
        expected = (
            2 * g / (mpmath.sqrt(3) * margin),
            device["omega0"] + g * mpmath.sign(k) * (
                4 * g3 * abs(k) + mpmath.sqrt(3) * (k * k + g3 * g3))
            / (k * k - 3 * g3 * g3),
            mpmath.sqrt(4 / (3 * mpmath.sqrt(3)) * g**3 * (k * k + g3 * g3)
                        / (g1 * margin**3)))
        for cell, value in zip(row[1:4], expected):
            assert abs(mpmath.mpf(cell) - value) <= 4e-16 * abs(value)


def test_steady_sweep_to_file(tmp_path):
    cfg = steady_cfg(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["steady-sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["b1_in", "omega_p", "branch", "E"]
    assert len(lines) == 51


def test_json_output_parses(tmp_path):
    cfg = steady_cfg(tmp_path)
    out = tmp_path / "sweep.json"
    assert main(["steady-sweep", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    table = parse_json(out.read_text())
    assert len(table.rows) == 50


def test_byte_identical_reruns(tmp_path):
    cfg = steady_cfg(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["steady-sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["steady-sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json", {"schema": 1, "device": {
        **DEVICE, "gamma1": -1.0}})
    assert main(["critical", "--config", cfg]) == 2
    assert "gamma1" in capsys.readouterr().err


def test_decoupled_port_has_no_critical_point(tmp_path, capsys):
    """A valid device with gamma1 = 0 has no finite critical drive:
    `critical` reports exists=false, and the commands that need the point
    (times_critical, squeeze-sweep) are configuration errors."""
    device = {**DEVICE, "gamma1": 0.0}
    cfg = write_json(tmp_path / "c.json", {"schema": 1, "device": device})
    assert main(["critical", "--config", cfg]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert row == "false,nan,nan,nan,false"
    sweep = write_json(tmp_path / "s.json", {
        "schema": 1, "device": device, "pump_fractions": [0.5],
        "drive": {"omega_p": {"start": 0.95, "stop": 1.0, "count": 5},
                  "b1_in": [{"times_critical": 0.5}]}})
    for command in ("steady-sweep", "squeeze-sweep"):
        assert main([command, "--config", sweep]) == 2
        err = capsys.readouterr().err
        assert "gamma1 > 0" in err and "Traceback" not in err
    squeeze = write_json(tmp_path / "q.json", {
        "schema": 1, "device": device, "pump_fractions": [0.5]})
    assert main(["squeeze-sweep", "--config", squeeze]) == 2
    assert f"config field 'device': {NO_CRITICAL_POINT}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("change", [{"kerr": 0.0, "gamma3": 0.0},
                                    {"gamma1": 0.0}],
                         ids=["linear", "decoupled"])
def test_no_critical_point_is_one_message(tmp_path, capsys, change):
    """A device without a critical point gives one message from every
    entry point that needs the point: a ValueError from squeeze_columns,
    and exit 2 naming the config field from squeeze-sweep and from a
    times_critical drive."""
    device = {**DEVICE, **change}
    with pytest.raises(ValueError) as excinfo:
        squeeze_columns(DeviceParams(**device), ThermalEnv(), [0.5])
    assert str(excinfo.value) == NO_CRITICAL_POINT
    for command, config, field in (
            ("squeeze-sweep", {"pump_fractions": [0.5]}, "device"),
            ("steady-sweep", {"drive": {
                "omega_p": {"start": 0.95, "stop": 1.0, "count": 5},
                "b1_in": [{"times_critical": 0.5}]}}, "drive.b1_in[0]")):
        cfg = write_json(tmp_path / "cfg.json",
                         {"schema": 1, "device": device, **config})
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            f"error: config field {field!r}: {NO_CRITICAL_POINT}\n"
        assert captured.out == ""


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1, "device": }')
    for command in ("critical", "fit"):
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err


def test_overflowing_drive_is_numeric_error(tmp_path, capsys):
    """b_in^2 overflows to inf: the drive power is not finite."""
    cfg = write_json(tmp_path / "huge.json", {
        "schema": 1,
        "device": dict(DEVICE),
        "drive": {"omega_p": {"start": 0.95, "stop": 1.0, "count": 3},
                  "b1_in": [1e200]},
    })
    assert main(["steady-sweep", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("error: numeric failure: drive power 2 gamma1 "
                            "b_in^2 is not finite\n")
    assert captured.out == ""


@pytest.mark.parametrize("document, field, message", [
    ([{"fit": {}}], "$", "top level must be an object"),
    ({"schema": 2, "fit": {}}, "schema", "expected 1, got 2"),
    ({"fit": {}}, "schema", "expected 1, got None"),
])
def test_fit_file_header_errors_are_the_sweep_config_errors(
        tmp_path, capsys, document, field, message):
    """A fit file and a sweep config share one header check: the same
    document exits 2 with the same message from fit and steady-sweep."""
    cfg = write_json(tmp_path / "fit.json", document)
    for command in ("fit", "steady-sweep"):
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config field {field!r}: {message}\n"
        assert captured.out == ""


def test_tiny_drive_keeps_its_steady_state(tmp_path, capsys):
    """On the README device a drive of 1e-155 makes the cubic's constant
    term subnormal; its one steady state, E ~ -c0/c1 ~ 4.5e-309, is still
    found rather than lost to balancing at the larger roots' scale."""
    device = {"omega0": 1.0, "kerr": -1e-4, "gamma1": 0.01, "gamma2": 0.011,
              "gamma3": 5.8e-7}
    cfg = write_json(tmp_path / "tiny.json", {
        "schema": 1,
        "device": device,
        "drive": {"omega_p": {"start": 0.95, "stop": 1.0, "count": 3},
                  "b1_in": [1e-155]},
    })
    assert main(["steady-sweep", "--config", cfg]) == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split(",")[:4] == ["b1_in", "omega_p", "branch", "E"]
    assert len(rows) == 3
    params = DeviceParams(**device)
    for row in rows:
        omega_p, energy = float(row.split(",")[1]), float(row.split(",")[3])
        c3, c2, c1, c0 = cubic_coefficients(
            params, PumpDrive(omega_p=omega_p, amplitude=1e-155))
        assert 0.0 < energy == pytest.approx(-c0 / c1, rel=1e-9)


def test_overflowing_kerr_names_the_coefficient(tmp_path, capsys):
    """K^2 overflows to inf: the cubic rejects the non-finite coefficient
    instead of reporting roots too far apart."""
    cfg = write_json(tmp_path / "kerr.json", {
        "schema": 1,
        "device": dict(DEVICE, kerr=-1e200),
        "drive": {"omega_p": {"start": 0.95, "stop": 1.0, "count": 3},
                  "b1_in": [0.01]},
    })
    assert main(["steady-sweep", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("error: numeric failure: cubic coefficient is "
                            "not finite\n")
    assert captured.out == ""


def test_missing_config_is_io_error(tmp_path, capsys):
    assert main(["critical", "--config", str(tmp_path / "nope.json")]) == 4


def test_line_derive(tmp_path, capsys):
    profile = profile_file(tmp_path)
    assert main(["line-derive", "--profile", profile, "--mode-index", "1",
                 "--gamma1", "0.01"]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    assert header.startswith("omega0,kerr,gamma1,gamma2,gamma3")
    omega0 = float(row.split(",")[0])
    assert omega0 == pytest.approx(math.pi, rel=1e-3)


def test_line_derive_rejects_bad_profile(tmp_path, capsys):
    bad = write_json(tmp_path / "short.json", {
        "l": 1.0, "I_c": 1.0, "hbar": 1.0, "grid": 32,
        "C": [1.0] * 32, "L0": [1.0] * 32, "dL": [0.0] * 32,
        "R0": [0.0] * 32, "dR": [0.0] * 31})
    assert main(["line-derive", "--profile", bad, "--mode-index", "1",
                 "--gamma1", "0.01"]) == 2
    assert "dR" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("dL", math.nan), ("R0", math.inf), ("C", math.inf),
    ("hbar", math.nan), ("I_c", math.inf),
    pytest.param("dR", 10**400, id="dR-10**400"),
    pytest.param("I_c", 10**400, id="I_c-10**400")])
def test_line_derive_rejects_non_finite_profile(tmp_path, capsys, key,
                                                value):
    """JSON's NaN and Infinity literals load as floats, and an integer too
    large for a float is not finite either; a profile holding one is a
    configuration error naming the key, not a table of nan or a numeric
    failure."""
    payload = json.loads(open(profile_file(tmp_path)).read())
    if isinstance(payload[key], list):
        payload[key][7] = value
    else:
        payload[key] = value
    bad = write_json(tmp_path / "bad.json", payload)
    assert main(["line-derive", "--profile", bad, "--mode-index", "1",
                 "--gamma1", "0.01"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and key in captured.err
    assert "must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [
    ("C", "1.0"), ("dL", True), ("R0", None), ("dR", [0.02]), ("l", "1.0"),
    ("hbar", True), ("I_c", None)])
def test_line_derive_rejects_non_number_profile_entry(tmp_path, capsys, key,
                                                      value):
    """A profile cell or number that JSON holds as a string, a bool, null or
    a list exits 2 naming it, where float() would have read "1.0" and
    true as numbers."""
    payload = json.loads(open(profile_file(tmp_path)).read())
    if isinstance(payload[key], list):
        payload[key][7] = value
        key = f"{key}[7]"
    else:
        payload[key] = value
    bad = write_json(tmp_path / "bad.json", payload)
    assert main(["line-derive", "--profile", bad, "--mode-index", "1",
                 "--gamma1", "0.01"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert f"{key} must be a number, got {value!r}" in captured.err
    assert captured.out == ""


def test_line_derive_reads_out_of_range_literal_as_infinite(tmp_path, capsys):
    """orjson refuses 1e400; json reads it as inf, which exits 2 naming its
    array."""
    text = open(profile_file(tmp_path)).read()
    head, tail = text.split('"dL": [', 1)
    bad = tmp_path / "bad.json"
    bad.write_text(f'{head}"dL": [1e400, {tail.split(", ", 1)[1]}')
    assert main(["line-derive", "--profile", str(bad), "--mode-index", "1",
                 "--gamma1", "0.01"]) == 2
    captured = capsys.readouterr()
    assert "'dL' must be finite" in captured.err
    assert captured.out == ""


def test_line_derive_reports_malformed_json_by_position(tmp_path, capsys):
    """A trailing comma is reported where json finds it, with json's
    message, though orjson reads the file first."""
    text = open(profile_file(tmp_path)).read().replace("]", ",\r\n]", 1)
    bad = tmp_path / "bad.json"
    bad.write_bytes(text.encode())
    with pytest.raises(json.JSONDecodeError) as info:
        json.loads(text.replace("\r\n", "\n"))
    exc = info.value
    assert main(["line-derive", "--profile", str(bad), "--mode-index", "1",
                 "--gamma1", "0.01"]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid JSON at line {exc.lineno}, column {exc.colno} "
        f"(byte offset {exc.pos}): {exc.msg}\n")


@pytest.mark.parametrize("head, tail", [
    (b"[", b"]"), (b'{"a": ', b"}"), (b'{"C": [{"a": ', b"}]}")])
def test_line_derive_rejects_deep_nesting_without_crashing(tmp_path, head,
                                                           tail):
    """A document nested 200,000 deep overflows orjson 3.8's stack; it is
    read by json instead and exits 2 (run apart, so a crash fails only
    this test)."""
    deep = tmp_path / "deep.json"
    deep.write_bytes(head + head[-6:] * 200_000 + b"1"
                     + tail[:1] * 200_000 + tail)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-m", "kerrcav.cli", "line-derive", "--profile",
         str(deep), "--mode-index", "1", "--gamma1", "0.01"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr == f"error: profile file {deep}: nested too deeply\n"


@pytest.mark.parametrize("key, value", [
    ("hbar", -1.0), ("hbar", 0.0), ("hbar", -0.0), ("I_c", -1.0), ("l", 0.0)])
def test_line_derive_rejects_non_positive_profile_scale(tmp_path, capsys, key,
                                                        value):
    """A negative hbar would flip the sign of kerr and gamma3 (a hardening
    line with gain), and a zero one would derive kerr = -0.0; each exits 2
    naming the field, as the length and I_c do."""
    payload = json.loads(open(profile_file(tmp_path)).read())
    payload[key] = value
    bad = write_json(tmp_path / "bad.json", payload)
    assert main(["line-derive", "--profile", bad, "--mode-index", "1",
                 "--gamma1", "0.01"]) == 2
    captured = capsys.readouterr()
    name = {"l": "length"}.get(key, key)
    assert captured.err == f"error: profile file {bad}: {name} must be > 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["critical", "fit"])
def test_deeply_nested_config_is_config_error(tmp_path, capsys, command):
    """A config nested past json's recursion limit exits 2 naming the file,
    where it used to end in a RecursionError traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command, "--config", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: config file {deep}: nested too deeply\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["steady-sweep", "fit"])
@pytest.mark.parametrize("head, tail", [
    (b"[", b"]"), (b'{"a": ', b"}"), (b'[{"a": ', b"}]")])
def test_deeply_nested_config_exits_without_crashing(tmp_path, command, head,
                                                     tail):
    """A config nested 200,000 deep (lists, objects or both) would overflow
    orjson 3.8's stack; it is read by json instead and exits 2 naming the
    file (run apart, so a crash fails only this test)."""
    deep = tmp_path / "deep.json"
    deep.write_bytes(head * 200_000 + b"1" + tail * 200_000)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-m", "kerrcav.cli", command, "--config", str(deep)],
        env=env, capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr == f"error: config file {deep}: nested too deeply\n"
    assert out.stdout == ""


def test_integer_past_two_to_the_64_reads_as_a_float(tmp_path, capsys):
    """orjson reads an integer literal past 2^64 as the nearest double, so
    a grid count of 2^64 + 1 is not an integer (json kept the int, and the
    grid failed later with NumPy's "Maximum allowed size exceeded")."""
    cfg = tmp_path / "big.json"
    cfg.write_text(open(steady_cfg(tmp_path)).read().replace(
        '"count": 50', '"count": 18446744073709551617'))
    assert main(["steady-sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: config field 'drive.omega_p.count': expected an integer, "
        "got 1.8446744073709552e+19\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", [
    "steady-sweep", "gain-sweep", "squeeze-sweep", "critical"])
def test_stdout_matches_the_out_file(tmp_path, capsys, command, fmt):
    """A table written to stdout (a text write) has the bytes of the
    --out file (a binary write)."""
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": 1, "device": dict(DEVICE),
        "drive": {"omega_p": {"start": 0.95, "stop": 1.0, "count": 700},
                  "b1_in": [{"times_critical": 0.5},
                            {"times_critical": 2.0}]},
        "offsets": [0.0, 1e-3], "pump_fractions": [0.0, 0.5, 0.99]})
    out = tmp_path / f"table.{fmt}"
    argv = [command, "--config", cfg, "--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed.encode() == out.read_bytes()


README_DEVICE = {"omega0": 1.0, "kerr": -1e-4, "gamma1": 0.01,
                 "gamma2": 0.011, "gamma3": 5.8e-7}
# More rows than one render block (16,384 cells: 1,489 steady rows, 2,340
# gain rows); the hot baths take squeeze-sweep through the thermal terms,
# the zero drive the pump solve through h(E) = 0, and the 1000x drive
# through Newton starts far from the folds
BLOCKS_SWEEP = {
    "schema": 1, "device": README_DEVICE,
    "drive": {"omega_p": {"start": 0.9, "stop": 1.005, "count": 1000},
              "b1_in": [0.0, {"times_critical": 0.5},
                        {"times_critical": 2.0}, {"times_critical": 1000.0}]},
    "offsets": [0.0, 1e-3], "pump_fractions": [0.0, 0.5, 0.9],
    "env": {"theta1": 0.5, "theta2": 2.0, "theta3": "inf"}}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", [
    "steady-sweep", "gain-sweep", "squeeze-sweep", "critical"])
def test_multi_block_tables_rerun_byte_identical(tmp_path, capsys, command,
                                                 fmt):
    """Tables of several render blocks are byte-identical across reruns,
    and standard output (a text write) has the bytes of the --out file."""
    cfg = write_json(tmp_path / "sweep.json", BLOCKS_SWEEP)
    argv = [command, "--config", cfg, "--format", fmt]
    outputs = []
    for run in range(2):
        out = tmp_path / f"table.{run}.{fmt}"
        assert main(argv + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1] == outputs[2]
    if command == "steady-sweep" and fmt == "csv":
        assert outputs[0].count(b"\n") - 1 > 2 * 1489


def test_zero_and_far_drives_give_no_negative_photon_number(tmp_path,
                                                            capsys):
    """No steady-sweep row has E < 0, at zero drive and at 1000x critical
    either."""
    cfg = write_json(tmp_path / "sweep.json", BLOCKS_SWEEP)
    assert main(["steady-sweep", "--config", cfg]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    crit = critical_point(DeviceParams(**README_DEVICE))
    energies = {}
    for row in rows:
        energies.setdefault(float(row["b1_in"]), []).append(float(row["E"]))
    assert set(energies) == {0.0, 0.5 * crit.drive, 2.0 * crit.drive,
                             1000.0 * crit.drive}
    assert min(min(e) for e in energies.values()) >= 0.0


def test_fit_ignores_psi1_to_the_byte(tmp_path, capsys):
    """A fit file of predict_reflection rows on the README device (24 pump
    frequencies at each of two drives) fits to the same bytes on a rerun,
    on standard output and with a psi1 in its fit block."""
    device = DeviceParams(**README_DEVICE)
    crit = critical_point(device)
    rows = [[w, b, predict_reflection(device, w, b)]
            for b in (0.5 * crit.drive, 2.0 * crit.drive)
            for w in np.linspace(0.95, 1.005, 24).tolist()]
    fit = {"initial": {"omega0": 1.0, "kerr": -1.1e-4, "gamma1": 0.01,
                       "gamma2": 0.0105, "gamma3": 8e-7},
           "free": ["kerr", "gamma2", "gamma3"], "refl_data": rows}
    outputs = []
    for name, block in (("a", fit), ("b", fit), ("c", dict(fit, psi1=0.7))):
        cfg = write_json(tmp_path / f"{name}.json", {"schema": 1, "fit": block})
        out = tmp_path / f"{name}.csv"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert main(["fit", "--config", cfg]) == 0
    outputs.append(capsys.readouterr().out.encode())
    assert len(set(outputs)) == 1
    assert outputs[0].splitlines()[1].endswith(b",true")


def negative_loss_profile(tmp_path, r0, dr):
    """The uniform test profile with every R0 and dR sample replaced."""
    payload = json.loads(open(profile_file(tmp_path)).read())
    payload["R0"] = [r0] * payload["grid"]
    payload["dR"] = [dr] * payload["grid"]
    return write_json(tmp_path / "negative.json", payload)


def test_line_derive_rejects_negative_loss_profile(tmp_path, capsys):
    """A negative resistance sample would derive a negative gamma2: a
    passive line that amplifies."""
    bad = negative_loss_profile(tmp_path, -0.05, 0.0)
    assert main(["line-derive", "--profile", bad, "--mode-index", "1",
                 "--gamma1", "0.01"]) == 2
    captured = capsys.readouterr()
    assert "'R0' must be >= 0" in captured.err
    assert captured.out == ""


def test_profile_device_rejects_negative_loss(tmp_path, capsys):
    """Through a sweep config's device.profile, the same profile is a
    configuration error, as the inline device with gamma2 < 0 is."""
    negative_loss_profile(tmp_path, -0.01, -1e-4)
    cfg = write_json(tmp_path / "sweep.json", {
        "schema": 1,
        "device": {"profile": "negative.json", "mode_index": 1,
                   "gamma1": 0.01},
        "drive": {"omega_p": {"start": 3.0, "stop": 3.3, "count": 64},
                  "b1_in": [0.1]},
    })
    assert main(["steady-sweep", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "'R0' must be >= 0" in captured.err
    assert captured.out == ""


def test_profile_device_is_validated(tmp_path, capsys):
    """A device derived from a profile goes through the same validation as
    an inline one: without loss and with gamma1 = 0 it has no damping."""
    negative_loss_profile(tmp_path, 0.0, 0.0)
    cfg = write_json(tmp_path / "critical.json", {
        "schema": 1,
        "device": {"profile": "negative.json", "mode_index": 1,
                   "gamma1": 0.0}})
    assert main(["critical", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config field 'device'" in err
    assert "gamma1 + gamma2 must be > 0" in err


@pytest.mark.parametrize("profile", [5, None, ""])
@pytest.mark.parametrize("command, block", [("critical", "device"),
                                            ("fit", "fit.initial")])
def test_non_string_profile_is_config_error(tmp_path, capsys, command, block,
                                            profile):
    """A profile reference that is not a file name exits 2 naming the
    field, before any file is looked up (an empty name would open the
    config's own directory)."""
    device = {"profile": profile, "mode_index": 1, "gamma1": 0.01}
    if command == "fit":
        payload = {"fit": {"initial": device, "free": ["omega0"],
                           "refl_data": [[1.0, 0.1, 0.5]] * 5}}
    else:
        payload = {"device": device}
    cfg = write_json(tmp_path / "c.json", {"schema": 1, **payload})
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config field '{block}.profile'")
    assert captured.out == ""


def test_fit_finds_profile_next_to_its_config(tmp_path, capsys, monkeypatch):
    """initial.profile is relative to the fit file, not to the working
    directory."""
    (tmp_path / "t1").mkdir()
    profile = make_uniform_profile(n_grid=600)
    write_json(tmp_path / "t1" / "p3.json", {
        "l": profile.length, "I_c": profile.I_c, "hbar": profile.hbar,
        "grid": profile.n_grid, **{key: getattr(profile, key).tolist()
                                   for key in ("C", "L0", "dL", "R0", "dR")}})
    device = derive_device(profile, 1, 0.01)
    rows = [[w, 0.01, predict_reflection(device, w, 0.01)]
            for w in np.linspace(3.0, 3.3, 8).tolist()]
    cfg = write_json(tmp_path / "t1" / "f.json", {"schema": 1, "fit": {
        "initial": {"profile": "p3.json", "mode_index": 1, "gamma1": 0.01},
        "free": ["omega0"], "refl_data": rows}})
    monkeypatch.chdir(tmp_path)
    assert main(["fit", "--config", os.path.join("t1", "f.json")]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert float(row.split(",")[0]) == pytest.approx(device.omega0,
                                                     rel=1e-12)


def test_gain_sweep_runs(tmp_path):
    cfg = write_json(tmp_path / "gain.json", {
        "schema": 1,
        "device": dict(DEVICE),
        "drive": {"omega_p": {"start": 0.96, "stop": 0.97, "count": 5},
                  "b1_in": [{"times_critical": 0.9}]},
        "offsets": [0.0, 1e-3],
    })
    out = tmp_path / "gain.csv"
    assert main(["gain-sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "b1_in,omega_p,branch,omega,G_S,G_I,diverged"
    assert len(lines) == 11


def test_squeeze_sweep_runs(tmp_path, capsys):
    cfg = write_json(tmp_path / "squeeze.json", {
        "schema": 1,
        "device": {"omega0": 1.0, "kerr": 5.0, "gamma1": 1e-4, "gamma2": 0.0,
                   "gamma3": 0.0},
        "pump_fractions": [0.0, 0.9],
    })
    assert main(["squeeze-sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "b1_frac,p_min0,p_max0,phi_min,above_critical,diverged"
    assert len(lines) == 3


def test_fit_non_convergence_exit_code(tmp_path, capsys, monkeypatch):
    import kerrcav.cli as cli_module
    from kerrcav import DeviceParams
    from kerrcav.fitting import FitResult, NonConvergence

    stub = FitResult(params=DeviceParams(**DEVICE), rms_residual=0.5,
                     n_evaluations=100_000, converged=False)

    def fail(problem):
        raise NonConvergence(stub)

    monkeypatch.setattr(cli_module, "run_fit", fail)
    cfg = write_json(tmp_path / "fit.json", {
        "schema": 1,
        "fit": {"initial": dict(DEVICE), "free": ["kerr"],
                "refl_data": [[1.0, 0.1, 0.5]] * 6},
    })
    assert main(["fit", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "no convergence" in captured.err
    # best-so-far record still emitted
    assert captured.out.splitlines()[1].endswith("false")


def test_fit_subcommand(tmp_path, capsys):
    true = load_config({"schema": 1, "device": dict(DEVICE)}).device
    crit = critical_point(true)
    amplitude = 0.7 * crit.drive
    rows = [[float(w), amplitude, predict_reflection(true, float(w), amplitude)]
            for w in np.linspace(0.96, 1.0, 25)]
    cfg = write_json(tmp_path / "fit.json", {
        "schema": 1,
        "fit": {
            "initial": {**DEVICE, "kerr": DEVICE["kerr"] * 1.2},
            "free": ["kerr"],
            "bounds": {"kerr": [-1e-3, 0.0]},
            "refl_data": rows,
        },
    })
    assert main(["fit", "--config", cfg]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header.startswith("omega0,kerr")
    fitted_kerr = float(row.split(",")[1])
    assert fitted_kerr == pytest.approx(DEVICE["kerr"], rel=1e-4)


@pytest.mark.parametrize("value", ["nan", "inf", "-0.01"])
def test_line_derive_rejects_bad_gamma1(tmp_path, capsys, value):
    profile = profile_file(tmp_path)
    assert main(["line-derive", "--profile", profile, "--mode-index", "1",
                 "--gamma1", value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "gamma1" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key, row, cell", [
    ("refl_data", [0.99, 0.0, 0.5], r"fit.refl_data[3][1]"),
    ("refl_data", [0.99, -0.1, 0.5], r"fit.refl_data[3][1]"),
    ("gain_data", [0.99, -0.1, 0.0], r"fit.gain_data[0][1]"),
])
def test_fit_rejects_drive_rows_without_a_model(tmp_path, capsys, key, row,
                                                cell):
    """A reflection row needs b1_in > 0 and a gain row b1_in >= 0."""
    refl = [[1.0 - 0.01 * i, 0.1, 0.5] for i in range(6)]
    fit = {"initial": dict(DEVICE), "free": ["kerr"], "refl_data": refl}
    if key == "refl_data":
        refl[3] = row
    else:
        fit["gain_data"] = [row]
    cfg = write_json(tmp_path / "fit.json", {"schema": 1, "fit": fit})
    assert main(["fit", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and cell in captured.err
    assert captured.out == ""


def test_fit_rejects_degenerate_bounds(tmp_path, capsys):
    """A free parameter whose bounds hold one point exits 2 naming them."""
    refl = [[1.0 - 0.01 * i, 0.1, 0.5] for i in range(6)]
    cfg = write_json(tmp_path / "fit.json", {"schema": 1, "fit": {
        "initial": dict(DEVICE), "free": ["kerr"],
        "bounds": {"kerr": [DEVICE["kerr"], DEVICE["kerr"]]},
        "refl_data": refl}})
    assert main(["fit", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config field 'fit.bounds.kerr'")
    assert "empty range" in captured.err
    assert captured.out == ""


def test_fit_rejects_unknown_bound_name(tmp_path, capsys):
    """A misspelt bound exits 2 naming it instead of leaving its parameter
    unbounded."""
    refl = [[1.0 - 0.01 * i, 0.1, 0.5] for i in range(6)]
    cfg = write_json(tmp_path / "fit.json", {"schema": 1, "fit": {
        "initial": dict(DEVICE), "free": ["kerr", "gamma3"],
        "bounds": {"gama3": [0, 1]}, "refl_data": refl}})
    assert main(["fit", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config field 'fit.bounds.gama3'")
    assert "unknown parameter" in captured.err
    assert captured.out == ""


def test_fit_rejects_fixed_value_outside_its_bound(tmp_path, capsys):
    """A bound on a parameter that is not free holds its fixed value: one
    outside exits 2 naming the bound instead of being ignored."""
    refl = [[1.0 - 0.01 * i, 0.1, 0.5] for i in range(6)]
    cfg = write_json(tmp_path / "fit.json", {"schema": 1, "fit": {
        "initial": dict(DEVICE), "free": ["omega0"],
        "bounds": {"kerr": [0, 1]}, "refl_data": refl}})
    assert main(["fit", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config field 'fit.bounds.kerr'")
    assert "fixed value -0.0001 outside [0.0, 1.0]" in captured.err
    assert captured.out == ""


def test_fit_rejects_duplicate_free_parameter(tmp_path, capsys):
    """A parameter freed twice exits 2 naming its second entry."""
    refl = [[1.0 - 0.01 * i, 0.1, 0.5] for i in range(6)]
    cfg = write_json(tmp_path / "fit.json", {"schema": 1, "fit": {
        "initial": dict(DEVICE), "free": ["kerr", "kerr"],
        "refl_data": refl}})
    assert main(["fit", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config field 'fit.free[1]'")
    assert "kerr" in captured.err
    assert captured.out == ""


def test_fit_stops_where_the_jacobian_is_undefined(tmp_path, capsys):
    """A critically coupled linear device reflects nothing at resonance,
    where |r| has no derivative: the fit exits 3 with the initial guess as
    its best-so-far record, not converged."""
    device = {"omega0": 1.0, "kerr": 0.0, "gamma1": 0.01, "gamma2": 0.01,
              "gamma3": 0.0}
    refl = [[w, 0.1, 0.5] for w in (0.98, 0.99, 1.0, 1.01, 1.02)]
    cfg = write_json(tmp_path / "fit.json", {"schema": 1, "fit": {
        "initial": device, "free": ["gamma2"], "refl_data": refl}})
    assert main(["fit", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "no convergence after 1 evaluations" in captured.err
    header, row = captured.out.strip().splitlines()
    assert row.split(",")[2:4] == ["1.0000000000000000e-02"] * 2
    assert row.endswith(",1,false")


def test_repeated_main_calls_share_one_parser(tmp_path, capsys):
    """main() may be called again and again in one process: every call
    after the first reuses one parser, and neither a json call nor a call
    that fails to parse changes what the next call writes."""
    cfg = steady_cfg(tmp_path)
    build_parser.cache_clear()

    def call(*argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    csv = call("steady-sweep", "--config", cfg)
    as_json = call("steady-sweep", "--config", cfg, "--format", "json")
    parser = build_parser()
    with pytest.raises(SystemExit) as failed:
        main(["steady-sweep"])
    assert failed.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert call("steady-sweep", "--config", cfg) == csv
    assert call("steady-sweep", "--config", cfg, "--format", "json") == as_json
    assert build_parser() is parser
    assert csv[0] == as_json[0] == 0 and csv[2] == as_json[2] == ""
    assert csv[1].startswith("b1_in,omega_p,")
    assert json.loads(as_json[1])["rows"]


def test_cli_import_builds_no_parser():
    """The parser is built on the first main() call, not at import."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import kerrcav.cli; print(kerrcav.cli.build_parser.cache_info())"],
        env=env, capture_output=True, text=True, check=True)
    assert "currsize=0" in out.stdout


def test_cli_import_loads_no_scipy(tmp_path):
    """No kerrcav command loads SciPy: neither importing the CLI nor whole
    `fit`, `line-derive` and `steady-sweep` runs, the last two on a
    non-uniform line profile (whose modes take the iterative solve)."""
    true = load_config({"schema": 1, "device": dict(DEVICE)}).device
    amplitude = 0.7 * critical_point(true).drive
    cfg = write_json(tmp_path / "fit.json", {"schema": 1, "fit": {
        "initial": {**DEVICE, "kerr": DEVICE["kerr"] * 1.2,
                    "gamma3": DEVICE["gamma3"] * 1.5},
        "free": ["kerr", "gamma3"],
        "refl_data": [[w, amplitude, predict_reflection(true, w, amplitude)]
                      for w in np.linspace(0.96, 1.0, 25).tolist()]}})
    x = np.linspace(0.0, 1.0, 64)
    line = write_json(tmp_path / "line.json", {
        "l": 1.0, "I_c": 1.0, "hbar": 1.0, "grid": 64,
        "C": (1.0 + 0.2 * np.sin(3.0 * x)).tolist(),
        "L0": (1.0 + 0.1 * np.cos(5.0 * x)).tolist(),
        "dL": [0.1] * 64, "R0": [0.05] * 64, "dR": [0.02] * 64})
    sweep = write_json(tmp_path / "sweep.json", {
        "schema": 1,
        "device": {"profile": line, "mode_index": 2, "gamma1": 0.01},
        "drive": {"omega_p": {"start": 6.0, "stop": 6.4, "count": 3},
                  "b1_in": [0.01]}})
    commands = [["fit", "--config", cfg],
                ["line-derive", "--profile", line, "--mode-index", "1",
                 "--gamma1", "0.01"],
                ["steady-sweep", "--config", sweep]]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, kerrcav.cli\n"
         "def scipy(): return sorted(m for m in sys.modules\n"
         "                           if m.split('.')[0] == 'scipy')\n"
         "print(scipy())\n"
         f"for args in {commands!r}:\n"
         "    code = kerrcav.cli.main(args)\n"
         "    print(code, scipy(), file=sys.stderr)"],
        env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[2].endswith(",true")
    assert lines[3].startswith("omega0,") and lines[5].startswith("b1_in,")
    assert out.stderr.splitlines() == ["0 []"] * 3


def test_cli_import_loads_no_orjson():
    """Importing the CLI loads no orjson: it is imported when the first
    file is read (any config, fit or profile), so `--help` and a parser
    error do not pay its start-up cost."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, kerrcav.cli; print('orjson' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# a config every sweep runs on; the tests below change one block of it
SWEEP = {"schema": 1, "device": dict(DEVICE),
         "drive": {"omega_p": {"start": 0.95, "stop": 1.0, "count": 3},
                   "b1_in": [0.01]},
         "offsets": [0.0], "pump_fractions": [0.5]}
LINEAR = dict(DEVICE, kerr=0.0, gamma3=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, change, message", [
    ("steady-sweep", {"device": LINEAR, "drive": dict(SWEEP["drive"],
                                                      b1_in=[1e154])},
     "cubic root beyond the float range"),
    # omega^2 overflows in D: |D| is huge there, not singular
    ("gain-sweep", {"offsets": [1e160]},
     "resolvent |D| beyond the float range"),
    ("gain-sweep", {"offsets": [1e300]},
     "resolvent |D| beyond the float range"),
    ("squeeze-sweep", {"env": {"theta1": 1e-320}},
     "occupation at theta = 1e-320 is not finite"),
])
def test_numeric_failures_exit_3_without_a_table(tmp_path, capsys, command,
                                                  change, message):
    """An overflow in the pump solve, the gains or the bath occupation is a
    numeric failure: exit 3, no table written and no warning leaked."""
    cfg = write_json(tmp_path / "cfg.json", {**SWEEP, **change})
    out = tmp_path / "table.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: numeric failure: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, change, field, message", [
    ("gain-sweep", {"offsets": None}, "offsets",
     "gain-sweep needs offsets or signal_frequencies"),
    ("gain-sweep", {"drive": None}, "drive",
     "gain-sweep needs drive.omega_p and drive.b1_in"),
    ("steady-sweep", {"drive": [0.95, 1.0]}, "drive", "expected an object"),
    ("squeeze-sweep", {"env": "inf"}, "env", "expected an object"),
    ("steady-sweep", {"drive": dict(SWEEP["drive"], omega_p=[0.95, 1.0])},
     "drive.omega_p", "expected an object"),
    ("squeeze-sweep", {"env": {"theta1": 0}}, "env.theta1",
     "must be > 0.0 (got 0.0)"),
    # NumPy refuses these grids before it allocates anything: 8e15 bytes
    # and 2^65 bytes
    ("steady-sweep", {"drive": dict(SWEEP["drive"], omega_p=dict(
        SWEEP["drive"]["omega_p"], count=10**15))}, "drive.omega_p.count",
     f"{10**15} points do not fit in memory"),
    ("steady-sweep", {"drive": dict(SWEEP["drive"], omega_p=dict(
        SWEEP["drive"]["omega_p"], count=2**62))}, "drive.omega_p.count",
     f"{2**62} points do not fit in memory"),
])
def test_config_errors_name_their_field(tmp_path, capsys, command, change,
                                        field, message):
    """A missing or malformed block exits 2 naming it (a change of None
    drops the key), without a traceback."""
    config = {key: value for key, value in {**SWEEP, **change}.items()
              if value is not None}
    cfg = write_json(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: config field {field!r}: {message}\n"
    assert captured.out == ""


def test_scalar_b1_in_reads_as_a_one_element_list(tmp_path, capsys):
    tables = []
    for b1_in in (0.01, [0.01]):
        cfg = write_json(tmp_path / "cfg.json", dict(
            SWEEP, drive=dict(SWEEP["drive"], b1_in=b1_in)))
        assert main(["steady-sweep", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        tables.append(captured.out)
    assert tables[0] == tables[1] and len(tables[0].splitlines()) == 4


def test_out_into_a_missing_directory_is_io_error(tmp_path, capsys):
    out = tmp_path / "missing" / "table.csv"
    assert main(["steady-sweep", "--config", steady_cfg(tmp_path),
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.parent.exists()

"""Config-driven sweeps producing deterministic tables.

A sweep is described by a single JSON document (schema 1).  The device block
is either the lumped parameters inline or a reference to a line-profile file
plus mode index; drive amplitudes may be given directly or as multiples of
the critical amplitude, which are resolved at load time.  Each sweep
evaluates its whole grid in one NumPy pass, with the same bits as the
one-point functions, and emits the rows in index order, so outputs are
deterministic byte for byte.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .jsonfile import (ConfigError, _header, _integer, _number, _numbers,
                       _read_config, _require)
from .model import DeviceParams, validate
from .noise import ThermalEnv, squeeze_columns
from .operating import critical_point, require_critical_point
from .smallsignal import _gains
from .steady import (_atan2, _branches, _records, _reflection_modulus,
                     _rows)
from .stripline import (derive_device, load_profile, mode_coefficients,
                        solve_mode)
from .tableio import Table

STEADY_COLUMNS = ["b1_in", "omega_p", "branch", "E", "B", "phi_B",
                  "refl_mag", "refl_phase", "lambda0_re", "lambda0_im", "stable"]
GAIN_COLUMNS = ["b1_in", "omega_p", "branch", "omega", "G_S", "G_I", "diverged"]
SQUEEZE_COLUMNS = ["b1_frac", "p_min0", "p_max0", "phi_min",
                   "above_critical", "diverged"]
CRITICAL_COLUMNS = ["exists", "E_c", "omega_p_c", "b1c_in", "ill_conditioned"]
LINE_COLUMNS = ["omega0", "kerr", "gamma1", "gamma2", "gamma3",
                "quad_u4_dL", "quad_u2_R0", "quad_u4_dR"]


@dataclass(frozen=True)
class SweepConfig:
    """Parsed and resolved sweep description."""

    device: DeviceParams
    omega_p_grid: tuple[float, ...] = ()
    amplitudes: tuple[float, ...] = ()
    psi1: float = 0.0
    env: ThermalEnv = field(default_factory=ThermalEnv)
    offsets: tuple[float, ...] = ()
    offsets_absolute: bool = False
    pump_fractions: tuple[float, ...] = ()


def _theta(value, path):
    if value in ("inf", "infinity"):
        return math.inf
    return _number(value, path, minimum=0.0, strict=True)


def load_device(block, path, base_dir="."):
    if not isinstance(block, dict):
        raise ConfigError(path, "expected an object")
    if "profile" in block:
        if not isinstance(block["profile"], str) or not block["profile"]:
            raise ConfigError(f"{path}.profile", "expected a file name")
        profile_path = os.path.join(base_dir, block["profile"])
        mode_index = _integer(_require(block, "mode_index", path),
                              f"{path}.mode_index", minimum=1)
        gamma1 = _number(_require(block, "gamma1", path), f"{path}.gamma1",
                         minimum=0.0)
        params = derive_device(load_profile(profile_path), mode_index, gamma1)
    else:
        params = DeviceParams(**{
            name: _number(_require(block, name, path), f"{path}.{name}")
            for name in ("omega0", "kerr", "gamma1", "gamma2", "gamma3")}, **{
            name: _number(block.get(name, 0.0), f"{path}.{name}")
            for name in ("phi1", "phi2", "phi3")})
    report = validate(params)
    if not report.ok:
        raise ConfigError(path, "; ".join(report.violations))
    return params


def _critical(device, path):
    """:func:`operating.require_critical_point`'s error as a ConfigError."""
    try:
        return require_critical_point(device)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _resolve_amplitude(value, path, device):
    if isinstance(value, dict):
        frac = _number(_require(value, "times_critical", path),
                       f"{path}.times_critical", minimum=0.0)
        return frac * _critical(device, path).drive
    return _number(value, path, minimum=0.0)


def _load_grid(block, path):
    if not isinstance(block, dict):
        raise ConfigError(path, "expected an object")
    start = _number(_require(block, "start", path), f"{path}.start")
    stop = _number(_require(block, "stop", path), f"{path}.stop")
    count = _integer(_require(block, "count", path), f"{path}.count", minimum=2)
    step = (stop - start) / (count - 1)
    if not math.isfinite(step):
        raise ConfigError(path, "range must be finite (stop - start overflows)")
    try:
        return tuple((start + step * np.arange(count)).tolist())
    except (MemoryError, ValueError):
        raise ConfigError(f"{path}.count", f"{count} points do not fit in "
                          "memory") from None


def _config_device(data, base_dir):
    return load_device(_require(_header(data), "device", "$"), "device",
                       base_dir)


def load_config(data, base_dir=".") -> SweepConfig:
    """Build a :class:`SweepConfig` from a parsed JSON document."""
    device = _config_device(data, base_dir)

    omega_grid, amplitudes, psi1 = (), (), 0.0
    if "drive" in data:
        drive = data["drive"]
        if not isinstance(drive, dict):
            raise ConfigError("drive", "expected an object")
        omega_grid = _load_grid(_require(drive, "omega_p", "drive"), "drive.omega_p")
        raw = _require(drive, "b1_in", "drive")
        raw = raw if isinstance(raw, list) else [raw]
        amplitudes = tuple(_resolve_amplitude(v, f"drive.b1_in[{i}]", device)
                           for i, v in enumerate(raw))
        psi1 = _number(drive.get("psi1", 0.0), "drive.psi1")

    env = ThermalEnv()
    if "env" in data:
        block = data["env"]
        if not isinstance(block, dict):
            raise ConfigError("env", "expected an object")
        env = ThermalEnv(**{name: _theta(block.get(name, "inf"), f"env.{name}")
                            for name in ("theta1", "theta2", "theta3")})

    if "offsets" in data and "signal_frequencies" in data:
        raise ConfigError("offsets", "give offsets or signal_frequencies, not both")
    offsets_absolute = "signal_frequencies" in data
    offsets = _numbers(data, "signal_frequencies" if offsets_absolute
                       else "offsets")
    fractions = _numbers(data, "pump_fractions", minimum=0.0)

    return SweepConfig(device=device, omega_p_grid=omega_grid,
                       amplitudes=amplitudes, psi1=psi1, env=env,
                       offsets=offsets, offsets_absolute=offsets_absolute,
                       pump_fractions=fractions)


def load_config_file(path) -> SweepConfig:
    """The sweep config file at ``path``; profiles are found next to it."""
    return load_config(*_read_config(path))


def load_device_file(path) -> DeviceParams:
    """The header and ``device`` alone of the sweep config at ``path``."""
    return _config_device(*_read_config(path))


def _grid(config: SweepConfig, command: str):
    """The grid's drives, amplitude-major, for ``command``: its b1_in and
    omega_p values, each with the index of every row's value in them."""
    if not config.omega_p_grid or not config.amplitudes:
        raise ConfigError("drive", f"{command} needs drive.omega_p and drive.b1_in")
    amps, freqs = np.array(config.amplitudes), np.array(config.omega_p_grid)
    amp, freq = np.divmod(np.arange(amps.size * freqs.size), freqs.size)
    return (amps, amp), (freqs, freq)


def run_steady_sweep(config: SweepConfig) -> Table:
    """Pump response over the frequency grid, one row per branch.

    Multivalued regions appear as several rows at the same frequency; the
    reflection columns are |r| (:func:`steady._reflection_modulus`) and arg r
    of the parts the records were built from, NaN for rows with zero drive,
    where the coefficient is undefined.
    """
    device = config.device
    (amps, amp), (freqs, freq) = _grid(config, "steady-sweep")
    omega_p, b_in, psi = _rows(freqs[freq], amps[amp], config.psi1)
    row, index, energy, count = _branches(device, omega_p, b_in)
    states, re, im = _records(device, omega_p[row], b_in[row], psi[row],
                              energy, row, index, count)
    driven = states.b_in > 0.0
    mag = np.where(driven, _reflection_modulus(
        device, energy, device.omega0 - states.omega_p), math.nan)
    ang = np.where(driven, _atan2(im, re), math.nan)
    return Table.from_columns(STEADY_COLUMNS, [
        (amps, amp[row]), (freqs, freq[row]), (np.arange(3), index),
        states.energy, states.amplitude, states.phase, mag, ang,
        states.lambda_slow.real, states.lambda_slow.imag, states.stable])


def run_gain_sweep(config: SweepConfig) -> Table:
    """Parametric and intermodulation gain over (drive, frequency, offset).

    ``diverged`` is the singular test of the D that gives the gains, which
    are inf there; no grid point is dropped.  A |D| beyond the float range
    (an offset above about 1.3e154) is an OverflowError.
    """
    (amps, amp), (freqs, freq) = _grid(config, "gain-sweep")
    if not config.offsets:
        raise ConfigError("offsets", "gain-sweep needs offsets or signal_frequencies")
    # the branches' energies only: the gains need no other field of a record
    row, index, energy, _ = _branches(config.device, freqs[freq], amps[amp])
    omega_p = freqs[freq[row]]
    offsets = np.array(config.offsets)
    omega = offsets - omega_p[:, None] if config.offsets_absolute else offsets
    gs, gi, diverged = (g.ravel() for g in _gains(
        config.device, energy[:, None],
        (config.device.omega0 - omega_p)[:, None], omega))
    # one row per (branch, offset), branch-major; a drive has up to 3 branches
    entry, offset = np.divmod(np.arange(gs.size), offsets.size)
    row = row[entry]
    return Table.from_columns(GAIN_COLUMNS, [
        (amps, amp[row]), (freqs, freq[row]), (np.arange(3), index[entry]),
        omega.ravel() if config.offsets_absolute else (offsets, offset),
        gs, gi, diverged])


def run_squeeze_sweep(config: SweepConfig) -> Table:
    """Zero-offset squeezing extrema at the critical pump frequency."""
    if not config.pump_fractions:
        raise ConfigError("pump_fractions", "squeeze-sweep needs pump_fractions")
    _critical(config.device, "device")
    return Table.from_columns(SQUEEZE_COLUMNS, squeeze_columns(
        config.device, config.env, config.pump_fractions,
        psi1=config.psi1).values())


def run_critical(device: DeviceParams) -> Table:
    """Single-row record of the critical operating point."""
    crit = critical_point(device)
    return Table(list(CRITICAL_COLUMNS), [(
        crit.exists, crit.energy, crit.omega_p, crit.drive,
        crit.ill_conditioned)])


def run_line_derive(profile_path, mode_index: int, gamma1: float) -> Table:
    """Derived lumped parameters of one line mode, plus the raw quadratures."""
    gamma1 = _number(gamma1, "--gamma1", minimum=0.0)
    profile = load_profile(profile_path)
    mode = solve_mode(profile, mode_index)
    c = mode_coefficients(profile, mode)
    return Table(list(LINE_COLUMNS), [(
        mode.omega_n, c.kerr, gamma1, c.gamma2, c.gamma3, c.quad_u4_dL,
        c.quad_u2_R0, c.quad_u4_dR)])

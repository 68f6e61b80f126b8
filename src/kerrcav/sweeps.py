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

from .jsonfile import read_json
from .model import DeviceParams, validate
from .noise import ThermalEnv, squeeze_columns
from .operating import critical_point
from .smallsignal import _gains
from .steady import _atan2, _branches, _reflection, branch_states
from .stripline import (derive_device, load_profile, mode_coefficients,
                        solve_mode)
from .tableio import Table

SCHEMA_VERSION = 1

STEADY_COLUMNS = ["b1_in", "omega_p", "branch", "E", "B", "phi_B",
                  "refl_mag", "refl_phase", "lambda0_re", "lambda0_im", "stable"]
GAIN_COLUMNS = ["b1_in", "omega_p", "branch", "omega", "G_S", "G_I", "diverged"]
SQUEEZE_COLUMNS = ["b1_frac", "p_min0", "p_max0", "phi_min",
                   "above_critical", "diverged"]
CRITICAL_COLUMNS = ["exists", "E_c", "omega_p_c", "b1c_in", "ill_conditioned"]
LINE_COLUMNS = ["omega0", "kerr", "gamma1", "gamma2", "gamma3",
                "quad_u4_dL", "quad_u2_R0", "quad_u4_dR"]


class ConfigError(ValueError):
    """Invalid sweep configuration; the message names the offending field."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"config field {field_path!r}: {message}")


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


def _require(mapping, key, path):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing")
    return mapping[key]


def _number(value, path, minimum=None, strict=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(path, f"must be finite (got {v!r})")
    if minimum is not None:
        if strict and not v > minimum:
            raise ConfigError(path, f"must be > {minimum} (got {v!r})")
        if not strict and not v >= minimum:
            raise ConfigError(path, f"must be >= {minimum} (got {v!r})")
    return v


def _integer(value, path, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(path, f"must be >= {minimum} (got {value})")
    return value


def _floats(values, path_of, minimum=None):
    """A list's cells as finite floats >= minimum; errors name path_of(i)."""
    if {type(v) for v in values} <= {int, float}:
        # the common case in one pass; on any doubt, _number names the cell
        try:
            floats = tuple(map(float, values))
        except OverflowError:
            floats = (math.inf,)
        if all(map(math.isfinite, floats)) and (
                minimum is None or min(floats, default=minimum) >= minimum):
            return floats
    return tuple(_number(v, path_of(i), minimum=minimum)
                 for i, v in enumerate(values))


def _numbers(data, key, minimum=None):
    values = data.get(key, [])
    if not isinstance(values, list):
        raise ConfigError(key, f"expected a list, got {values!r}")
    return _floats(values, lambda i: f"{key}[{i}]", minimum)


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
        params = DeviceParams(
            omega0=_number(_require(block, "omega0", path), f"{path}.omega0"),
            kerr=_number(_require(block, "kerr", path), f"{path}.kerr"),
            gamma1=_number(_require(block, "gamma1", path), f"{path}.gamma1"),
            gamma2=_number(_require(block, "gamma2", path), f"{path}.gamma2"),
            gamma3=_number(_require(block, "gamma3", path), f"{path}.gamma3"),
            phi1=_number(block.get("phi1", 0.0), f"{path}.phi1"),
            phi2=_number(block.get("phi2", 0.0), f"{path}.phi2"),
            phi3=_number(block.get("phi3", 0.0), f"{path}.phi3"),
        )
    report = validate(params)
    if not report.ok:
        raise ConfigError(path, "; ".join(report.violations))
    return params


def _resolve_amplitude(value, path, device):
    if isinstance(value, dict):
        frac = _number(_require(value, "times_critical", path),
                       f"{path}.times_critical", minimum=0.0)
        crit = critical_point(device)
        if not crit.exists:
            raise ConfigError(path, "times_critical needs a critical point "
                                    "(|kerr| > sqrt(3)*gamma3 and gamma1 > 0)")
        return frac * crit.drive
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


def load_config(data, base_dir=".") -> SweepConfig:
    """Build a :class:`SweepConfig` from a parsed JSON document."""
    if not isinstance(data, dict):
        raise ConfigError("$", "top level must be an object")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"expected {SCHEMA_VERSION}, got {schema!r}")
    device = load_device(_require(data, "device", "$"), "device", base_dir)

    omega_grid: tuple[float, ...] = ()
    amplitudes: tuple[float, ...] = ()
    psi1 = 0.0
    if "drive" in data:
        drive = data["drive"]
        if not isinstance(drive, dict):
            raise ConfigError("drive", "expected an object")
        omega_grid = _load_grid(_require(drive, "omega_p", "drive"), "drive.omega_p")
        raw = _require(drive, "b1_in", "drive")
        if not isinstance(raw, list):
            raw = [raw]
        amplitudes = tuple(_resolve_amplitude(v, f"drive.b1_in[{i}]", device)
                           for i, v in enumerate(raw))
        psi1 = _number(drive.get("psi1", 0.0), "drive.psi1")

    env = ThermalEnv()
    if "env" in data:
        block = data["env"]
        if not isinstance(block, dict):
            raise ConfigError("env", "expected an object")
        env = ThermalEnv(
            theta1=_theta(block.get("theta1", "inf"), "env.theta1"),
            theta2=_theta(block.get("theta2", "inf"), "env.theta2"),
            theta3=_theta(block.get("theta3", "inf"), "env.theta3"),
        )

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


def read_config_file(path):
    """The JSON document in a sweep or fit config file (see
    :func:`jsonfile.read_json`); one nested too deeply for json is a
    ValueError, as for a profile."""
    return read_json(path, "config")


def load_config_file(path) -> SweepConfig:
    return load_config(read_config_file(path),
                       base_dir=os.path.dirname(os.path.abspath(path)))


def _grid(config: SweepConfig):
    """The grid's drives (omega_p, b_in), amplitude-major."""
    n_omega, n_amp = len(config.omega_p_grid), len(config.amplitudes)
    return (np.tile(np.array(config.omega_p_grid), n_amp),
            np.repeat(np.array(config.amplitudes), n_omega))


def run_steady_sweep(config: SweepConfig) -> Table:
    """Pump response over the frequency grid, one row per branch.

    Multivalued regions appear as several rows at the same frequency; the
    reflection columns are |r| and arg r of the closed form
    r = (z - 2 gamma1) / z (:func:`steady._reflection`), NaN for rows with
    zero drive, where the coefficient is undefined.
    """
    if not config.omega_p_grid or not config.amplitudes:
        raise ConfigError("drive", "steady-sweep needs drive.omega_p and drive.b1_in")
    states = branch_states(config.device, *_grid(config), config.psi1)
    driven = states.b_in > 0.0
    mag = np.full(driven.shape, math.nan)
    ang = np.full(driven.shape, math.nan)
    mag[driven], re, im = _reflection(
        config.device, states.energy[driven],
        config.device.omega0 - states.omega_p[driven])
    ang[driven] = _atan2(im, re)
    return Table.from_columns(STEADY_COLUMNS, [
        states.b_in, states.omega_p, states.branch_index, states.energy,
        states.amplitude, states.phase, mag, ang, states.lambda_slow.real,
        states.lambda_slow.imag, states.stable])


def run_gain_sweep(config: SweepConfig) -> Table:
    """Parametric and intermodulation gain over (drive, frequency, offset).

    ``diverged`` is the singular test of the D that gives the gains, which
    are inf there; no grid point is dropped.  A gain not finite elsewhere
    (omega^2 overflows in D above about 1.3e154) is an OverflowError.
    """
    if not config.omega_p_grid or not config.amplitudes:
        raise ConfigError("drive", "gain-sweep needs drive.omega_p and drive.b1_in")
    if not config.offsets:
        raise ConfigError("offsets", "gain-sweep needs offsets or signal_frequencies")
    omega_p, b_in = _grid(config)
    # the branches' energies only: the gains need no other field of a record
    row, index, energy, _ = _branches(config.device, omega_p, b_in)
    omega_p = omega_p[row]
    # one row per (branch, offset), branch-major
    omega = np.array(config.offsets)[None, :]
    if config.offsets_absolute:
        omega = omega - omega_p[:, None]
    omega = np.broadcast_to(omega, (energy.size, omega.shape[1]))
    gs, gi, diverged = (g.ravel() for g in _gains(
        config.device, energy[:, None],
        (config.device.omega0 - omega_p)[:, None], omega))
    if not (diverged | (np.isfinite(gs) & np.isfinite(gi))).all():
        raise OverflowError("gain is not finite off the singular points")

    def per_row(x):
        return np.repeat(x, omega.shape[1])

    return Table.from_columns(GAIN_COLUMNS, [
        per_row(b_in[row]), per_row(omega_p), per_row(index), omega.ravel(),
        gs, gi, diverged])


def run_squeeze_sweep(config: SweepConfig) -> Table:
    """Zero-offset squeezing extrema at the critical pump frequency."""
    if not config.pump_fractions:
        raise ConfigError("pump_fractions", "squeeze-sweep needs pump_fractions")
    crit = critical_point(config.device)
    if not crit.exists:
        raise ConfigError("device", "squeeze-sweep needs a critical point "
                                    "(|kerr| > sqrt(3)*gamma3 and gamma1 > 0)")
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

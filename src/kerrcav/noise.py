"""Homodyne noise spectra and squeezing figures.

The homodyne detector mixes the reflected field with a local oscillator
phase-locked to the pump; its output noise power P(omega) sums, over the
three ports, the thermally weighted moduli of the transfer coefficients at
+/-omega.  P is normalized so that vacuum inputs with no pump give
P(omega) = 1; a value below 1 at some local-oscillator phase is squeezing.

Bath temperatures enter only through the dimensionless ratios
theta_i = hbar*omega_p / (k_B * T_i); theta = inf encodes T = 0.  The bath
occupation is evaluated at the pump frequency for all offsets, which is
accurate for offsets small compared to the pump frequency.
:func:`lo_phase_extrema_array` evaluates the extrema of a whole batch of
branches in one NumPy pass, bit-identical to :func:`lo_phase_extrema`.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import floatops as fo
from .model import DeviceParams, PumpDrive
from .operating import critical_point
from .smallsignal import (SingularResponse, transfer_coefficients,
                          transfer_coefficients_array)
from .steady import BranchStates, SteadyState, settled_states


@dataclass(frozen=True)
class ThermalEnv:
    """Dimensionless inverse temperatures of the three baths.

    Each theta must be positive; math.inf means the bath is at zero
    temperature.  Smaller theta (hotter bath) strictly raises the noise
    power wherever that port couples.
    """

    theta1: float = math.inf
    theta2: float = math.inf
    theta3: float = math.inf

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0 (inf for T = 0)")

    def occupations(self) -> tuple[float, float, float]:
        return (thermal_occupation(self.theta1),
                thermal_occupation(self.theta2),
                thermal_occupation(self.theta3))


def thermal_occupation(theta: float) -> float:
    """Mean bath photon number exp(-theta) / (1 - exp(-theta)).

    Evaluated as 1/expm1(theta), which stays finite and accurate for very
    hot baths (theta near 0) where the direct form loses the denominator.
    """
    if math.isinf(theta):
        return 0.0
    return 1.0 / math.expm1(theta)


@dataclass(frozen=True)
class SqueezeResult:
    """Phase dependence of the noise power at one offset frequency.

    P is an exact sinusoid in twice the local-oscillator phase, so the
    extrema are analytic: p_min = mean - |modulation|, p_max = mean +
    |modulation|, attained at phi_min and phi_max, which sit in quadrature
    (phi_max - phi_min = pi/2 mod pi).  ``p_of_phi`` evaluates P at any
    phase.  ``diverged`` marks operation at an instability, where p_max is
    infinite and p_min indeterminate (NaN).
    """

    p_of_phi: Callable[[float], float]
    p_min: float
    p_max: float
    phi_min: float
    phi_max: float
    diverged: bool = False


def _port_coefficients(params, state, drive, omega):
    """Signal/conjugate coefficient triples at +omega and -omega."""
    plus = transfer_coefficients(params, state, drive, omega)
    minus = transfer_coefficients(params, state, drive, -omega)
    sig_plus = (plus.refl_signal, plus.loss_signal, plus.tpl_signal)
    conj_plus = (plus.refl_conj, plus.loss_conj, plus.tpl_conj)
    sig_minus = (minus.refl_signal, minus.loss_signal, minus.tpl_signal)
    conj_minus = (minus.refl_conj, minus.loss_conj, minus.tpl_conj)
    return sig_plus, conj_plus, sig_minus, conj_minus


def _phase_quadratic(params, state, drive, env, omega):
    """Decompose P(phi) = mean + Re(mod * exp(2i*phi))."""
    sig_p, conj_p, sig_m, conj_m = _port_coefficients(params, state, drive, omega)
    occ = env.occupations()
    mean = 0.0
    mod = 0j
    for i in range(3):
        n = occ[i]
        mean += n * (abs(sig_p[i]) ** 2 + abs(conj_m[i]) ** 2)
        mean += (n + 1.0) * (abs(sig_m[i]) ** 2 + abs(conj_p[i]) ** 2)
        mod += 2.0 * n * sig_p[i] * conj_m[i]
        mod += 2.0 * (n + 1.0) * sig_m[i] * conj_p[i]
    return mean, mod


def lo_phase_extrema(params: DeviceParams, state: SteadyState, drive: PumpDrive,
                     env: ThermalEnv, omega: float = 0.0) -> SqueezeResult:
    """Analytic extrema of P over the local-oscillator phase.

    P(phi) = mean + |mod| cos(2 phi + arg mod) exactly, because P is a
    quadratic form in exp(i phi); the extremal phases are returned reduced
    to [0, pi).
    """
    try:
        mean, mod = _phase_quadratic(params, state, drive, env, omega)
    except SingularResponse:
        return SqueezeResult(
            p_of_phi=lambda phi: math.inf,
            p_min=math.nan, p_max=math.inf,
            phi_min=math.nan, phi_max=math.nan, diverged=True)
    amp = abs(mod)
    arg = cmath.phase(mod) if amp > 0.0 else 0.0
    phi_max = (-arg / 2.0) % math.pi
    phi_min = (phi_max + math.pi / 2.0) % math.pi

    def p_of_phi(phi: float, _mean=mean, _amp=amp, _arg=arg) -> float:
        return _mean + _amp * math.cos(2.0 * phi + _arg)

    return SqueezeResult(p_of_phi=p_of_phi, p_min=mean - amp, p_max=mean + amp,
                         phi_min=phi_min, phi_max=phi_max)


@dataclass(frozen=True, eq=False)
class SqueezeResults:
    """:func:`lo_phase_extrema` of each entry of a batch of branches, one
    array per field."""

    p_min: np.ndarray
    p_max: np.ndarray
    phi_min: np.ndarray
    phi_max: np.ndarray
    diverged: np.ndarray


def lo_phase_extrema_array(params: DeviceParams, states: BranchStates,
                           env: ThermalEnv, omega=0.0) -> SqueezeResults:
    """:func:`lo_phase_extrema` of each entry of ``states`` at offset
    ``omega`` (a scalar or one value per entry), in one pass.

    Entry i is bit-identical to ``lo_phase_extrema(params, states.state(i),
    states.drive(i), env, omega[i])``: the same quadratic form, summed port
    by port in the same order.
    """
    omega = np.broadcast_to(np.asarray(omega, dtype=float),
                            states.energy.shape)
    # column 0 holds the offsets +omega, column 1 -omega
    resp = transfer_coefficients_array(params, states,
                                       np.stack([omega, -omega], axis=1))
    diverged = resp.singular.any(axis=1)
    ok = ~diverged
    coefficients = [
        [fo.parts(getattr(resp, f"{port}_{kind}")[ok, side])
         for side, kind in ((0, "signal"), (0, "conj"), (1, "signal"),
                            (1, "conj"))]
        for port in ("refl", "loss", "tpl")]
    with np.errstate(all="ignore"):
        # the quadratic form, summed port by port as _phase_quadratic does
        mean = 0.0
        mod = (0.0, 0.0)
        for n, (sig_p, conj_p, sig_m, conj_m) in zip(env.occupations(),
                                                     coefficients):
            mean = mean + n * (fo.square(fo.modulus(sig_p))
                               + fo.square(fo.modulus(conj_m)))
            mean = mean + (n + 1.0) * (fo.square(fo.modulus(sig_m))
                                       + fo.square(fo.modulus(conj_p)))
            mod = fo.add(mod, fo.mul(fo.mul((2.0 * n, 0.0), sig_p), conj_m))
            mod = fo.add(mod, fo.mul(fo.mul((2.0 * (n + 1.0), 0.0), sig_m),
                                     conj_p))
        amp = fo.modulus(mod)
        arg = np.where(amp > 0.0, fo.phase(mod), 0.0)
        phi_max = np.remainder(-arg / 2.0, math.pi)
        phi_min = np.remainder(phi_max + math.pi / 2.0, math.pi)

    def spread(values, fill):
        out = np.full(ok.shape, fill)
        out[ok] = values
        return out

    return SqueezeResults(
        p_min=spread(mean - amp, math.nan), p_max=spread(mean + amp, math.inf),
        phi_min=spread(phi_min, math.nan), phi_max=spread(phi_max, math.nan),
        diverged=diverged)


@dataclass(frozen=True)
class SqueezeAtPump:
    """One row of :func:`squeeze_vs_pump`."""

    fraction: float
    drive_amplitude: float
    p_min0: float
    p_max0: float
    phi_min: float
    above_critical: bool
    diverged: bool


def squeeze_columns(params: DeviceParams, env: ThermalEnv,
                    pump_fractions: Sequence[float],
                    psi1: float = 0.0) -> dict[str, np.ndarray]:
    """The fields of :func:`squeeze_vs_pump`'s rows as arrays, by name,
    from one batched pass."""
    crit = critical_point(params)
    if not crit.exists:
        raise ValueError("no critical point: it needs |kerr| > sqrt(3)*gamma3 "
                         "and gamma1 > 0")
    fractions = np.asarray(pump_fractions, dtype=float)
    states = settled_states(params, crit.omega_p, fractions * crit.drive, psi1)
    ext = lo_phase_extrema_array(params, states, env, 0.0)
    return dict(fraction=fractions, drive_amplitude=states.b_in,
                p_min0=ext.p_min, p_max0=ext.p_max, phi_min=ext.phi_min,
                above_critical=fractions > 1.0,
                diverged=ext.diverged | ~states.stable)


def squeeze_vs_pump(params: DeviceParams, env: ThermalEnv,
                    pump_fractions: Sequence[float],
                    psi1: float = 0.0) -> list[SqueezeAtPump]:
    """Zero-offset squeezing extrema versus pump drive.

    The pump frequency is pinned to the critical value and the drive swept
    as fractions of the critical amplitude, so the critical point must
    exist.  Each fraction is solved on its lowest-energy stable branch;
    fractions above 1 are flagged since the branch choice is then a
    convention (the fold region covers the critical frequency).  All
    fractions are evaluated in one batched pass.
    """
    columns = squeeze_columns(params, env, pump_fractions, psi1)
    return [SqueezeAtPump(**dict(zip(columns, row))) for row in
            zip(*(c.tolist() for c in columns.values()))]

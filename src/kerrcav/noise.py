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
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import DeviceParams, PumpDrive
from .operating import critical_point
from .smallsignal import SingularResponse, transfer_coefficients
from .steady import SteadyState, settled_states


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


def noise_power(params: DeviceParams, state: SteadyState, drive: PumpDrive,
                env: ThermalEnv, omega: float, phi_lo: float) -> float:
    """Homodyne noise power P(omega) at local-oscillator phase ``phi_lo``.

    Sums, per port i, |e^{-i phi} S_i*(w) + e^{i phi} C_i(-w)|^2 n_i plus
    |e^{i phi} S_i(-w) + e^{-i phi} C_i*(w)|^2 (n_i + 1), where S and C are
    the signal and conjugate transfer coefficients and n_i the bath
    occupation.  Returns IEEE infinity at singular operating points.
    """
    try:
        sig_p, conj_p, sig_m, conj_m = _port_coefficients(
            params, state, drive, omega)
    except SingularResponse:
        return math.inf
    occ = env.occupations()
    lo = cmath.exp(1j * phi_lo)
    total = 0.0
    for i in range(3):
        n = occ[i]
        total += n * abs(sig_p[i].conjugate() / lo + lo * conj_m[i]) ** 2
        total += (n + 1.0) * abs(lo * sig_m[i] + conj_p[i].conjugate() / lo) ** 2
    return total


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


def squeeze_vs_pump(params: DeviceParams, env: ThermalEnv,
                    pump_fractions: Sequence[float],
                    psi1: float = 0.0) -> list[SqueezeAtPump]:
    """Zero-offset squeezing extrema versus pump drive.

    The pump frequency is pinned to the critical value and the drive swept
    as fractions of the critical amplitude, so the critical point must
    exist.  Each fraction is solved on its lowest-energy stable branch;
    fractions above 1 are flagged since the branch choice is then a
    convention (the fold region covers the critical frequency).  The
    settled branches of all fractions come from one batched call.
    """
    crit = critical_point(params)
    if not crit.exists:
        raise ValueError("no critical point: |kerr| <= sqrt(3)*gamma3")
    fractions = np.asarray(pump_fractions, dtype=float)
    batch = settled_states(params, crit.omega_p, fractions * crit.drive, psi1)
    rows = []
    for i, frac in enumerate(fractions.tolist()):
        chosen = batch.state(i)
        drive = batch.drive(i)
        ext = lo_phase_extrema(params, chosen, drive, env, 0.0)
        rows.append(SqueezeAtPump(
            fraction=frac,
            drive_amplitude=drive.amplitude,
            p_min0=ext.p_min,
            p_max0=ext.p_max,
            phi_min=ext.phi_min,
            above_critical=frac > 1.0,
            diverged=ext.diverged or not chosen.stable,
        ))
    return rows

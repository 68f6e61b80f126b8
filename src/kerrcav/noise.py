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

The extrema over the local-oscillator phase are one closed form in the
resolvent D(omega) of :mod:`smallsignal`, written in real arithmetic that
runs unchanged on floats and on arrays (:func:`_extrema`), so
:func:`lo_phase_extrema` and its batch :func:`lo_phase_extrema_array` give
the same bits by construction.  Both take D, |D| and the singular test that
marks a point ``diverged`` from :func:`smallsignal._resolvent`, and neither
forms the transfer coefficients.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import DeviceParams, PumpDrive
from .operating import require_critical_point
from .smallsignal import _resolvent
from .steady import (BranchStates, SteadyState, _atan2, _hypot,
                     _finite, settled_states)


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
    hot baths (theta near 0) where the direct form loses the denominator;
    below theta ~ 5.6e-309 it is not finite, an OverflowError.
    """
    if math.isinf(theta):
        return 0.0
    n = 1.0 / math.expm1(theta)
    if not math.isfinite(n):
        raise OverflowError(f"occupation at theta = {theta!r} is not finite")
    return n


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


def _extrema(params: DeviceParams, energy, delta, phase, omega, occupations,
             resolvent):
    """(mean, |mod|, arg mod, phi_min, phi_max) of P(phi) = mean + |mod|
    cos(2 phi + arg mod) at photon number ``energy``, detuning ``delta``,
    cavity phase ``phase`` and offset ``omega``, from the ``resolvent``
    D(omega) = d_re + i d_im, |D| = d > 0 as :func:`smallsignal._resolvent`
    returns it; runs unchanged on floats and arrays.

    D(-omega) is conj D, and every product of a signal coefficient at
    +-omega with a conjugate one at -+omega carries the factor v
    exp(-2i phi1) / |D|^2, v = (iK + gamma3) E exp(-2i phase), in which the
    port phases cancel.  With the port weights c = (4 gamma1^2, 4 gamma1
    gamma2, 8 gamma1 gamma3 E), occupations n and z_w(+-omega) = Gamma -
    i (+-omega + delta + 2 K E), Gamma = gamma + 2 gamma3 E,

        mod = 2 v exp(-2i phi1) S / |D|^2,
        S = 2 gamma1 [(2 n1 + 1) Re D - i Im D]
            - sum_k c_k [n_k z_w(omega) + (n_k + 1) z_w(-omega)],
        mean = sum_k n_k |S_k(omega)|^2 + (n_k + 1) |S_k(-omega)|^2
               + (2 n_k + 1) c_k |v|^2 / |D|^2,

    where |S_1(omega)|^2 = |D - 2 gamma1 z_w(omega)|^2 / |D|^2 and
    |S_k(omega)|^2 = c_k |z_w(omega)|^2 / |D|^2 for k = 2, 3.  Every
    component is divided by |D| before it is squared.  Off the singular
    points a mean or |mod| not finite (a hot bath) is an OverflowError.
    """
    d_re, d_im, d, singular = resolvent
    n1, n2, n3 = occupations
    g1 = params.gamma1
    c1 = 4.0 * g1 * g1
    c2 = 4.0 * g1 * params.gamma2
    c3 = 8.0 * g1 * params.gamma3 * energy
    shift = delta + 2.0 * params.kerr * energy
    # D, z_w(+omega) and z_w(-omega) over |D|: (dr, di), (zr, zp), (zr, zm)
    dr = d_re / d
    di = d_im / d
    zr = (params.gamma + 2.0 * params.gamma3 * energy) / d
    zp = -(omega + shift) / d
    zm = (omega - shift) / d
    # the weights of z_w(+omega) and z_w(-omega): in |S_2|^2 + |S_3|^2
    # (tp, tm) and in S (wp, wm)
    tp = c2 * n2 + c3 * n3
    tm = c2 * (n2 + 1.0) + c3 * (n3 + 1.0)
    wp = c1 * n1 + tp
    wm = c1 * (n1 + 1.0) + tm
    v = math.hypot(params.kerr, params.gamma3) * energy / d
    re = dr - 2.0 * g1 * zr
    im_p = di - 2.0 * g1 * zp
    im_m = di + 2.0 * g1 * zm
    zr2 = zr * zr
    mean = (n1 * (re * re + im_p * im_p)
            + (n1 + 1.0) * (re * re + im_m * im_m)
            + tp * (zr2 + zp * zp) + tm * (zr2 + zm * zm)
            + (wp + wm) * v * v)
    s_re = 2.0 * g1 * (2.0 * n1 + 1.0) * dr - (wp + wm) * zr
    s_im = -2.0 * g1 * di - (wp * zp + wm * zm)
    amp = 2.0 * v * _hypot(s_re, s_im)
    _finite(mean + amp, "noise power beyond the float range", singular)
    # the phase of 0 where the modulation vanishes (no pump)
    arg = (math.atan2(params.kerr, params.gamma3)
           - 2.0 * (params.phi1 + phase) + _atan2(s_im, s_re)) * (amp > 0.0)
    phi_max = (-arg / 2.0) % math.pi
    return mean, amp, arg, (phi_max + math.pi / 2.0) % math.pi, phi_max


def lo_phase_extrema(params: DeviceParams, state: SteadyState, drive: PumpDrive,
                     env: ThermalEnv, omega: float = 0.0) -> SqueezeResult:
    """Analytic extrema of P over the local-oscillator phase.

    P(phi) = mean + |mod| cos(2 phi + arg mod) exactly, because P is a
    quadratic form in exp(i phi); the extremal phases are returned reduced
    to [0, pi).  Both are closed forms in the resolvent D (:func:`_extrema`).
    """
    delta = drive.detuning(params)
    resolvent = _resolvent(params, state.energy, delta, omega)
    if resolvent[3]:
        return SqueezeResult(
            p_of_phi=lambda phi: math.inf,
            p_min=math.nan, p_max=math.inf,
            phi_min=math.nan, phi_max=math.nan, diverged=True)
    mean, amp, arg, phi_min, phi_max = _extrema(
        params, state.energy, delta, state.phase, omega, env.occupations(),
        resolvent)
    return SqueezeResult(
        p_of_phi=lambda phi: mean + amp * math.cos(2.0 * phi + arg),
        p_min=mean - amp, p_max=mean + amp, phi_min=phi_min, phi_max=phi_max)


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
    states.drive(i), env, omega[i])``: both evaluate :func:`_extrema`.
    """
    omega = np.broadcast_to(np.asarray(omega, dtype=float),
                            states.energy.shape)
    delta = params.omega0 - states.omega_p
    with np.errstate(all="ignore"):
        resolvent = _resolvent(params, states.energy, delta, omega)
        mean, amp, _, phi_min, phi_max = _extrema(
            params, states.energy, delta, states.phase, omega,
            env.occupations(), resolvent)
    diverged = resolvent[3]
    return SqueezeResults(
        p_min=np.where(diverged, math.nan, mean - amp),
        p_max=np.where(diverged, math.inf, mean + amp),
        phi_min=np.where(diverged, math.nan, phi_min),
        phi_max=np.where(diverged, math.nan, phi_max), diverged=diverged)


def squeeze_columns(params: DeviceParams, env: ThermalEnv,
                    pump_fractions: Sequence[float],
                    psi1: float = 0.0) -> dict[str, np.ndarray]:
    """Zero-offset squeezing extrema versus pump drive, as arrays by name.

    The pump frequency is pinned to the critical value and the drive swept
    as fractions of the critical amplitude, so the critical point must
    exist (:func:`operating.require_critical_point`).  Each fraction is
    solved on its lowest-energy stable branch; ``above_critical`` flags
    fractions above 1, since the branch choice is then a convention (the
    fold region covers the critical frequency).  The columns are
    ``fraction``, ``p_min0``, ``p_max0``, ``phi_min``, ``above_critical``
    and ``diverged``, in that order, from one batched pass.
    """
    crit = require_critical_point(params)
    fractions = np.asarray(pump_fractions, dtype=float)
    states = settled_states(params, crit.omega_p, fractions * crit.drive, psi1)
    ext = lo_phase_extrema_array(params, states, env, 0.0)
    return dict(fraction=fractions, p_min0=ext.p_min, p_max0=ext.p_max,
                phi_min=ext.phi_min, above_critical=fractions > 1.0,
                diverged=ext.diverged | ~states.stable)

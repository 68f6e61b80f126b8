"""Linearized response about the pump: transfer coefficients and gains.

Small signal and noise entering the three ports are carried to the test-port
output by six complex coefficients evaluated at the offset ``omega`` from the
pump frequency.  Each port contributes a direct (signal) coefficient and a
phase-conjugating one; the conjugating channel is what produces
intermodulation gain and squeezing.  All six share the resolvent
D(omega) = (-i*omega + lambda_slow) * (-i*omega + lambda_fast).  The
relaxation roots sum to 2*(gamma + 2*gamma3*E) and multiply to the slope
h'(E) of the pump balance h(E) = P (:mod:`steady`), so in closed form

    D(omega) = h'(E) - omega^2 - 2i*omega*(gamma + 2*gamma3*E),

which vanishes only at marginal operating points, where the gains diverge.
The power gains are closed forms in D, G_I = 4 gamma1^2 (K^2 + gamma3^2)
E^2 / |D|^2 and G_S = |D - 2 gamma1 z_w|^2 / |D|^2 with z_w = gamma +
2 gamma3 E - i (omega + omega0 - omega_p + 2 K E).  :func:`_resolvent` is
the one home of D, of |D| and of its tests (singular below SINGULAR_TOL
gamma^2, OverflowError where not finite); the gains, the transfer
coefficients and the homodyne extrema (:mod:`noise`) take what it returns.
The gains and the extrema are written once, in real arithmetic that runs
unchanged on Python floats and on NumPy arrays, so :func:`gains_array` is
bit-identical to its one-point functions by construction;
:func:`transfer_coefficients` is the one path for the six coefficients.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import DeviceParams, PumpDrive
from .steady import BranchStates, SteadyState, _finite, _h, _hypot

# |D| below this multiple of gamma^2 means operation at an instability.
SINGULAR_TOL = 1e-14


class SingularResponse(ArithmeticError):
    """Resolvent denominator vanished: operating exactly at an instability."""


@dataclass(frozen=True)
class SmallSignalResponse:
    """Transfer coefficients from the three ports at offset ``omega``.

    ``refl_signal``/``refl_conj`` multiply the test-port input at
    omega_p + omega and its conjugate image at omega_p - omega;
    ``loss_*`` and ``tpl_*`` are the analogous coefficients for the linear
    and two-photon loss ports.  ``self_coupling`` and ``conj_coupling`` are
    the linearized drift coefficients the response derives from.
    """

    omega: float
    self_coupling: complex
    conj_coupling: complex
    refl_signal: complex
    refl_conj: complex
    loss_signal: complex
    loss_conj: complex
    tpl_signal: complex
    tpl_conj: complex

    def commutator_sum(self) -> float:
        """Sum |signal coef|^2 - |conjugate coef|^2 over the three ports.

        Equals 1 identically: the output mode keeps the canonical
        commutator.
        """
        def abs2(z):
            return z.real * z.real + z.imag * z.imag

        return (abs2(self.refl_signal) + abs2(self.loss_signal)
                + abs2(self.tpl_signal) - abs2(self.refl_conj)
                - abs2(self.loss_conj) - abs2(self.tpl_conj))


def linearize(params: DeviceParams, state: SteadyState, drive: PumpDrive):
    """Drift coefficients (self, conjugate) of the linearized dynamics.

    The fluctuation a about the pump obeys
    da/dt + self_coupling * a + conj_coupling * a_dagger = inputs, with

        self_coupling = i*(omega0-omega_p) + gamma + 2*(i*K + g3) * B^2,
        conj_coupling = (i*K + g3) * B^2 * exp(-2i * phase).
    """
    delta = drive.detuning(params)
    b2 = state.energy
    nonlin = (1j * params.kerr + params.gamma3) * b2
    self_coupling = 1j * delta + params.gamma + 2.0 * nonlin
    conj_coupling = nonlin * cmath.exp(-2j * state.phase)
    return self_coupling, conj_coupling


def _resolvent(params: DeviceParams, energy, delta, omega):
    """(Re D, Im D, |D|, singular) at photon number ``energy``, detuning
    ``delta`` = omega0 - omega_p and offset ``omega``, from floats or arrays
    alike; singular is |D| < SINGULAR_TOL gamma^2, an operating point at an
    instability; OverflowError where |D| is not finite (offsets > 1.3e154)."""
    d_re = _h(energy, delta, params.kerr, params.gamma3,
              params.gamma)[1] - omega * omega
    d_im = -2.0 * omega * (params.gamma + 2.0 * params.gamma3 * energy)
    d = _finite(_hypot(d_re, d_im), "resolvent |D| beyond the float range")
    return d_re, d_im, d, d < SINGULAR_TOL * params.gamma**2


def _gains(params: DeviceParams, energy, delta, omega):
    """(G_S, G_I, singular) from the closed forms, the gains inf where |D|
    is singular, from floats or arrays alike.  Each gain is the square of
    a ratio of moduli, so no square overflows before the gain does."""
    g1 = params.gamma1
    with np.errstate(all="ignore"):
        d_re, d_im, d, singular = _resolvent(params, energy, delta, omega)
        signal = np.hypot(
            d_re - 2.0 * g1 * (params.gamma + 2.0 * params.gamma3 * energy),
            d_im + 2.0 * g1 * (omega + delta + 2.0 * params.kerr * energy)) / d
        # a NumPy quotient, which gives inf rather than raising where a
        # float |D| is 0
        conj = np.divide(2.0 * g1 * math.hypot(params.kerr, params.gamma3)
                         * energy, d)
        return (np.where(singular, math.inf, signal * signal),
                np.where(singular, math.inf, conj * conj), singular)


def transfer_coefficients(params: DeviceParams, state: SteadyState,
                          drive: PumpDrive, omega: float) -> SmallSignalResponse:
    """Six port-to-output transfer coefficients at offset ``omega``.

    ``omega`` is the offset from the pump frequency (rotating-frame
    convention); the conjugate coefficients mix in the image at -omega.
    ``state`` must be a steady state of ``drive``.

    Raises
    ------
    SingularResponse
        If |D(omega)| < SINGULAR_TOL * gamma^2 (operation at an
        instability, where the gain diverges).
    """
    w, v = linearize(params, state, drive)
    d_re, d_im, d_abs, singular = _resolvent(
        params, state.energy, drive.detuning(params), omega)
    if singular:
        raise SingularResponse(
            f"resolvent |D({omega:g})| = {d_abs:.3e} is singular")
    d = complex(d_re, d_im)
    zw = -1j * omega + w.conjugate()
    g1 = params.gamma1
    g2 = params.gamma2
    g3 = params.gamma3
    amp = state.amplitude
    phase = state.phase
    p1, p2, p3 = params.phi1, params.phi2, params.phi3
    refl_signal = (d - 2.0 * g1 * zw) / d
    refl_conj = 2.0 * g1 * v * cmath.exp(-2j * p1) / d
    loss_signal = -2.0 * math.sqrt(g1 * g2) * zw * cmath.exp(-1j * (p1 - p2)) / d
    loss_conj = 2.0 * math.sqrt(g1 * g2) * v * cmath.exp(-1j * (p1 + p2)) / d
    tpl_signal = -2.0 * math.sqrt(2.0 * g1 * g3) * amp * zw \
        * cmath.exp(-1j * (p1 - phase - p3)) / d
    tpl_conj = 2.0 * math.sqrt(2.0 * g1 * g3) * amp * v \
        * cmath.exp(-1j * (p1 + p3 + phase)) / d
    return SmallSignalResponse(
        omega=omega, self_coupling=w, conj_coupling=v, refl_signal=refl_signal,
        refl_conj=refl_conj, loss_signal=loss_signal, loss_conj=loss_conj,
        tpl_signal=tpl_signal, tpl_conj=tpl_conj)


def parametric_gain(params: DeviceParams, state: SteadyState,
                    drive: PumpDrive, omega: float) -> float:
    """Reflected power gain |refl_signal|^2 at offset ``omega``.

    Exceeding unity means parametric amplification.  Evaluated from the
    closed form in D, so underdamped (complex-root) operating points need
    no roots; returns IEEE infinity at singular points.
    """
    return float(_gains(params, state.energy, drive.detuning(params),
                        omega)[0])


def intermodulation_gain(params: DeviceParams, state: SteadyState,
                         drive: PumpDrive, omega: float) -> float:
    """Image-conversion power gain |refl_conj|^2 at offset ``omega``.

    Power converted from an input at omega_p - omega to the output at
    omega_p + omega; zero without a pump, diverging (IEEE infinity) at the
    instability points.
    """
    return float(_gains(params, state.energy, drive.detuning(params),
                        omega)[1])


def _aligned(x, omega):
    """An entry's values, aligned with the first axis of the offsets."""
    return x.reshape(x.shape + (1,) * (omega.ndim - 1))


def gains_array(params: DeviceParams, states: BranchStates, omega):
    """(G_S, G_I): :func:`parametric_gain` and :func:`intermodulation_gain`
    of the entries of ``states`` at the offsets ``omega``, in one pass.

    ``omega`` is a scalar, one offset per entry (shape (n,)) or several
    per entry (shape (n, m)); the gains take its shape, and inf marks the
    singular points.
    """
    omega = np.asarray(omega, dtype=float)
    return _gains(params, _aligned(states.energy, omega),
                  _aligned(params.omega0 - states.omega_p, omega), omega)[:2]

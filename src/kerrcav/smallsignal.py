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
2 gamma3 E - i (omega + omega0 - omega_p + 2 K E).
:func:`transfer_coefficients_array` and :func:`gains_array` evaluate a whole
batch of branches in one NumPy pass, bit-identical to their one-point
functions.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import floatops as fo
from .model import DeviceParams, PumpDrive
from .steady import BranchStates, SteadyState, _h

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
        return (
            fo.abs2(self.refl_signal)
            + fo.abs2(self.loss_signal)
            + fo.abs2(self.tpl_signal)
            - fo.abs2(self.refl_conj)
            - fo.abs2(self.loss_conj)
            - fo.abs2(self.tpl_conj)
        )


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
    """(Re D, Im D) at photon number ``energy``, detuning ``delta`` =
    omega0 - omega_p and offset ``omega``, from floats or arrays alike."""
    slope = _h(energy, delta, params.kerr, params.gamma3, params.gamma)[1]
    return (slope - omega * omega,
            -2.0 * omega * (params.gamma + 2.0 * params.gamma3 * energy))


def _gains(params: DeviceParams, energy, delta, omega):
    """(G_S, G_I) from the closed forms, inf where |D| is singular, from
    floats or arrays alike.  Each gain is the square of a ratio of moduli,
    so no square overflows before the gain itself does."""
    d_re, d_im = _resolvent(params, energy, delta, omega)
    g1 = params.gamma1
    with np.errstate(all="ignore"):
        d = np.hypot(d_re, d_im)
        signal = np.hypot(
            d_re - 2.0 * g1 * (params.gamma + 2.0 * params.gamma3 * energy),
            d_im + 2.0 * g1 * (omega + delta + 2.0 * params.kerr * energy)) / d
        conj = 2.0 * g1 * math.hypot(params.kerr, params.gamma3) * energy / d
        singular = d < SINGULAR_TOL * params.gamma**2
        return (np.where(singular, math.inf, signal * signal),
                np.where(singular, math.inf, conj * conj))


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
    d = complex(*_resolvent(params, state.energy, drive.detuning(params),
                            omega))
    if abs(d) < SINGULAR_TOL * params.gamma**2:
        raise SingularResponse(
            f"resolvent |D({omega:g})| = {abs(d):.3e} is singular")
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

    ``omega`` is shaped as for :func:`transfer_coefficients_array`, and
    the gains take its shape; inf marks the singular points.
    """
    omega = np.asarray(omega, dtype=float)
    return _gains(params, _aligned(states.energy, omega),
                  _aligned(params.omega0 - states.omega_p, omega), omega)


@dataclass(frozen=True, eq=False)
class SmallSignalResponses:
    """:class:`SmallSignalResponse` of each (branch, offset) of a batch, one
    complex array per field, all of the shape of the offsets.

    ``singular`` marks where :func:`transfer_coefficients` raises
    :class:`SingularResponse`; the coefficients there are garbage.
    """

    omega: np.ndarray
    self_coupling: np.ndarray
    conj_coupling: np.ndarray
    refl_signal: np.ndarray
    refl_conj: np.ndarray
    loss_signal: np.ndarray
    loss_conj: np.ndarray
    tpl_signal: np.ndarray
    tpl_conj: np.ndarray
    singular: np.ndarray


def transfer_coefficients_array(params: DeviceParams, states: BranchStates,
                                omega) -> SmallSignalResponses:
    """:func:`transfer_coefficients` of the entries of ``states`` at the
    offsets ``omega``, in one pass.

    ``omega`` is a scalar, one offset per entry (shape (n,)) or several
    per entry (shape (n, m)); the results take its shape.  Each point is
    bit-identical to ``transfer_coefficients(params, states.state(i),
    states.drive(i), omega[i, j])``; where that raises
    :class:`SingularResponse`, ``singular`` is set instead.  The linearized
    drift and the phase factors are evaluated once per entry.
    """
    omega = np.asarray(omega, dtype=float)
    energy, delta, phase, amp = (_aligned(x, omega) for x in (
        states.energy, params.omega0 - states.omega_p, states.phase,
        states.amplitude))
    g1, g2, g3 = params.gamma1, params.gamma2, params.gamma3
    p1, p2, p3 = params.phi1, params.phi2, params.phi3
    s12 = math.sqrt(g1 * g2)
    s13 = math.sqrt(2.0 * g1 * g3)
    with np.errstate(all="ignore"):
        # linearize
        nonlin = fo.mul(fo.parts(1j * params.kerr + g3), (energy, 0.0))
        w = fo.add(fo.add(fo.times_1j((delta, 0.0)), (params.gamma, 0.0)),
                   fo.mul((2.0, 0.0), nonlin))
        v = fo.mul(nonlin, fo.exp_imag(fo.mul((-0.0, -2.0), (phase, 0.0))))

        d = _resolvent(params, energy, delta, omega)
        singular = fo.modulus(d) < SINGULAR_TOL * params.gamma**2
        zw = fo.add(fo.times_minus_1j((omega, 0.0)), (w[0], -w[1]))
        numerators = dict(
            refl_signal=fo.sub(d, fo.mul((2.0 * g1, 0.0), zw)),
            refl_conj=fo.mul(fo.mul((2.0 * g1, 0.0), v),
                             fo.parts(cmath.exp(-2j * p1))),
            loss_signal=fo.mul(fo.mul((-2.0 * s12, 0.0), zw),
                               fo.parts(cmath.exp(-1j * (p1 - p2)))),
            loss_conj=fo.mul(fo.mul((2.0 * s12, 0.0), v),
                             fo.parts(cmath.exp(-1j * (p1 + p2)))),
            tpl_signal=fo.mul(fo.mul((-2.0 * s13 * amp, 0.0), zw),
                              fo.exp_imag(fo.times_minus_1j(
                                  ((p1 - phase) - p3, 0.0)))),
            tpl_conj=fo.mul(fo.mul((2.0 * s13 * amp, 0.0), v),
                            fo.exp_imag(fo.times_minus_1j(
                                ((p1 + p3) + phase, 0.0)))))
        shape = singular.shape

        def full(z):
            return fo.pack(np.broadcast_to(x, shape) for x in z)

        coefficients = {name: full(fo.div(numerator, d))
                        for name, numerator in numerators.items()}
    return SmallSignalResponses(
        omega=np.broadcast_to(omega, shape), self_coupling=full(w),
        conj_coupling=full(v), singular=singular, **coefficients)

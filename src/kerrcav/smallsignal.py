"""Linearized response about the pump: transfer coefficients and gains.

Small signal and noise entering the three ports are carried to the test-port
output by six complex coefficients evaluated at the offset ``omega`` from the
pump frequency.  Each port contributes a direct (signal) coefficient and a
phase-conjugating one; the conjugating channel is what produces
intermodulation gain and squeezing.  All six share the resolvent denominator

    D(omega) = (-i*omega + lambda_slow) * (-i*omega + lambda_fast),

which vanishes only at marginal operating points, where the gains diverge.
:func:`transfer_coefficients_array` evaluates the coefficients of a whole
batch of branches in one NumPy pass, bit-identical to
:func:`transfer_coefficients`.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import floatops as fo
from .model import DeviceParams, PumpDrive
from .steady import BranchStates, SteadyState

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
    lambda_slow: complex
    lambda_fast: complex
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


def transfer_coefficients(params: DeviceParams, state: SteadyState,
                          drive: PumpDrive, omega: float) -> SmallSignalResponse:
    """Six port-to-output transfer coefficients at offset ``omega``.

    ``omega`` is the offset from the pump frequency (rotating-frame
    convention); the conjugate coefficients mix in the image at -omega.
    The relaxation roots in D are the state's own, so ``state`` must be a
    steady state of ``drive``.

    Raises
    ------
    SingularResponse
        If |D(omega)| < SINGULAR_TOL * gamma^2 (operation at an
        instability, where the gain diverges).
    """
    w, v = linearize(params, state, drive)
    lam_slow, lam_fast = state.lambda_slow, state.lambda_fast
    d = (-1j * omega + lam_slow) * (-1j * omega + lam_fast)
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
        omega=omega,
        self_coupling=w,
        conj_coupling=v,
        lambda_slow=lam_slow,
        lambda_fast=lam_fast,
        refl_signal=refl_signal,
        refl_conj=refl_conj,
        loss_signal=loss_signal,
        loss_conj=loss_conj,
        tpl_signal=tpl_signal,
        tpl_conj=tpl_conj,
    )


def parametric_gain(params: DeviceParams, state: SteadyState,
                    drive: PumpDrive, omega: float) -> float:
    """Reflected power gain |refl_signal|^2 at offset ``omega``.

    Exceeding unity means parametric amplification.  Evaluated through the
    complex resolvent so underdamped (complex-root) operating points are
    handled; returns IEEE infinity at singular points.
    """
    try:
        resp = transfer_coefficients(params, state, drive, omega)
    except SingularResponse:
        return math.inf
    return fo.abs2(resp.refl_signal)


def intermodulation_gain(params: DeviceParams, state: SteadyState,
                         drive: PumpDrive, omega: float) -> float:
    """Image-conversion power gain |refl_conj|^2 at offset ``omega``.

    Power converted from an input at omega_p - omega to the output at
    omega_p + omega; zero without a pump, diverging (IEEE infinity) at the
    instability points.
    """
    try:
        resp = transfer_coefficients(params, state, drive, omega)
    except SingularResponse:
        return math.inf
    return fo.abs2(resp.refl_conj)


PORTS = ("refl", "loss", "tpl")


@dataclass(frozen=True, eq=False)
class SmallSignalResponses:
    """:class:`SmallSignalResponse` of each (branch, offset) of a batch, one
    complex array per field, all of the shape of the offsets.

    ``singular`` marks where :func:`transfer_coefficients` raises
    :class:`SingularResponse`; the coefficients there are garbage.  The
    coefficients of ports that were not asked for are None.
    """

    omega: np.ndarray
    self_coupling: np.ndarray
    conj_coupling: np.ndarray
    lambda_slow: np.ndarray
    lambda_fast: np.ndarray
    refl_signal: np.ndarray
    refl_conj: np.ndarray
    loss_signal: np.ndarray | None
    loss_conj: np.ndarray | None
    tpl_signal: np.ndarray | None
    tpl_conj: np.ndarray | None
    singular: np.ndarray

    def gains(self):
        """(G_S, G_I): :func:`parametric_gain` and
        :func:`intermodulation_gain` at each point, inf where singular."""
        with np.errstate(all="ignore"):
            return tuple(np.where(self.singular, math.inf, fo.abs2(coef))
                         for coef in (self.refl_signal, self.refl_conj))


def transfer_coefficients_array(params: DeviceParams, states: BranchStates,
                                omega, ports=PORTS) -> SmallSignalResponses:
    """:func:`transfer_coefficients` of the entries of ``states`` at the
    offsets ``omega``, in one pass.

    ``omega`` is a scalar, one offset per entry (shape (n,)) or several
    per entry (shape (n, m)); the results take its shape.  Each point is
    bit-identical to ``transfer_coefficients(params, states.state(i),
    states.drive(i), omega[i, j])``; where that raises
    :class:`SingularResponse`, ``singular`` is set instead.  The linearized
    drift and the phase factors are evaluated once per entry, and the
    coefficients only for the ``ports`` named (the test port "refl" always).
    """
    omega = np.asarray(omega, dtype=float)

    def per_entry(z):
        # an entry's values, aligned with the first axis of omega
        return [x.reshape(x.shape + (1,) * (omega.ndim - 1)) for x in z]

    g1, g2, g3 = params.gamma1, params.gamma2, params.gamma3
    p1, p2, p3 = params.phi1, params.phi2, params.phi3
    phase = states.phase
    with np.errstate(all="ignore"):
        # linearize
        delta = params.omega0 - states.omega_p
        nonlin = fo.mul(fo.parts(1j * params.kerr + g3), (states.energy, 0.0))
        w = per_entry(fo.add(
            fo.add(fo.times_1j((delta, 0.0)), (params.gamma, 0.0)),
            fo.mul((2.0, 0.0), nonlin)))
        v = per_entry(fo.mul(nonlin, fo.exp_imag(
            fo.mul((-0.0, -2.0), (phase, 0.0)))))
        lam_slow = per_entry(fo.parts(states.lambda_slow))
        lam_fast = per_entry(fo.parts(states.lambda_fast))

        shift = fo.times_minus_1j((omega, 0.0))
        d = fo.mul(fo.add(shift, lam_slow), fo.add(shift, lam_fast))
        singular = fo.modulus(d) < SINGULAR_TOL * params.gamma**2
        zw = fo.add(shift, (w[0], -w[1]))
        # the numerators of each port's (signal, conjugate) coefficients
        numerators = {"refl": (
            fo.sub(d, fo.mul((2.0 * g1, 0.0), zw)),
            fo.mul(fo.mul((2.0 * g1, 0.0), v), fo.parts(cmath.exp(-2j * p1))))}
        # gain sweeps and fits ask for the test port alone
        if "loss" in ports:
            s12 = math.sqrt(g1 * g2)
            numerators["loss"] = (
                fo.mul(fo.mul((-2.0 * s12, 0.0), zw),
                       fo.parts(cmath.exp(-1j * (p1 - p2)))),
                fo.mul(fo.mul((2.0 * s12, 0.0), v),
                       fo.parts(cmath.exp(-1j * (p1 + p2)))))
        if "tpl" in ports:
            s13 = math.sqrt(2.0 * g1 * g3)
            amp = states.amplitude
            scale_signal, scale_conj = per_entry([-2.0 * s13 * amp,
                                                  2.0 * s13 * amp])
            numerators["tpl"] = (
                fo.mul(fo.mul((scale_signal, 0.0), zw),
                       per_entry(fo.exp_imag(
                           fo.times_minus_1j(((p1 - phase) - p3, 0.0))))),
                fo.mul(fo.mul((scale_conj, 0.0), v),
                       per_entry(fo.exp_imag(
                           fo.times_minus_1j(((p1 + p3) + phase, 0.0))))))
        shape = singular.shape

        def full(z):
            return fo.pack(np.broadcast_to(x, shape) for x in z)

        coefficients = {f"{port}_{kind}": full(fo.div(numerator, d))
                        for port, pair in numerators.items()
                        for kind, numerator in zip(("signal", "conj"), pair)}
    return SmallSignalResponses(
        omega=np.broadcast_to(omega, shape), self_coupling=full(w),
        conj_coupling=full(v), lambda_slow=full(lam_slow),
        lambda_fast=full(lam_fast), singular=singular,
        **{f"{port}_{kind}": coefficients.get(f"{port}_{kind}")
           for port in PORTS for kind in ("signal", "conj")})

"""Classical pump response of the driven Kerr cavity.

With the pump written as a rotating tone at ``omega_p``, the steady
intracavity amplitude B and phase solve

    [i*(omega0 - omega_p) + gamma] * B + (i*kerr + gamma3) * B^3
        = -i * sqrt(2*gamma1) * b_in * exp(i*(phi1 + phase - psi1)),

whose squared modulus turns the photon number E = B^2 into a real cubic.
Depending on drive strength the cubic has one, two (fold tangency) or three
nonnegative roots; with three roots the middle branch is unstable and the
device is bistable.  Stability of each branch follows from the relaxation
roots of the linearized dynamics.
"""

import cmath
import math
from dataclasses import dataclass

from .cubic import real_roots
from .model import DeviceParams, PumpDrive

# Roots closer than this (relative) are a fold double root that double
# precision cannot split; they are reported once.
MERGE_TOL = 1e-7
# |Re lambda_slow| below this fraction of gamma marks critical slowing down.
MARGINAL_TOL = 1e-9


class DegenerateModel(ValueError):
    """Total damping gamma1 + gamma2 is zero: no steady state exists."""


class UndefinedForZeroDrive(ValueError):
    """Reflection coefficient requested with zero incoming pump."""


@dataclass(frozen=True)
class SteadyState:
    """One steady-state branch of the pump response.

    ``energy`` is the intracavity photon number E = amplitude**2,
    ``reflected`` the complex outgoing pump amplitude, and
    ``lambda_slow``/``lambda_fast`` the relaxation roots ordered by real
    part.  ``stable`` requires Re(lambda_slow) > 0 strictly; points within
    the marginal band (critical slowing down) are flagged ``marginal`` and
    not counted as stable.
    """

    energy: float
    amplitude: float
    phase: float
    reflected: complex
    lambda_slow: complex
    lambda_fast: complex
    stable: bool
    marginal: bool
    branch_index: int


def cubic_coefficients(params: DeviceParams, drive: PumpDrive):
    """Coefficients (c3, c2, c1, c0) of the photon-number cubic.

    The cubic is kept un-normalized,

        (K^2 + g3^2) E^3 + 2[(omega0-omega_p) K + gamma*g3] E^2
            + [(omega0-omega_p)^2 + gamma^2] E - 2 gamma1 b_in^2 = 0,

    so a vanishing nonlinearity (K = g3 = 0) degrades to a linear equation
    instead of dividing by K^2 + g3^2.
    """
    delta = drive.detuning(params)
    k = params.kerr
    g3 = params.gamma3
    g = params.gamma
    c3 = k * k + g3 * g3
    c2 = 2.0 * (delta * k + g * g3)
    c1 = delta * delta + g * g
    c0 = -2.0 * params.gamma1 * drive.amplitude**2
    return c3, c2, c1, c0


def solve_pump_energy(params: DeviceParams, drive: PumpDrive) -> list[float]:
    """Real nonnegative roots E of the pump cubic, ascending.

    Returns 1, 2 (fold tangency, the double root reported once) or 3 roots.
    Tiny negative roots from rounding are clamped to zero; genuinely
    negative or complex roots are discarded.

    Raises
    ------
    DegenerateModel
        If gamma1 + gamma2 == 0.
    """
    if params.gamma <= 0.0:
        raise DegenerateModel("gamma1 + gamma2 must be > 0")
    c3, c2, c1, c0 = cubic_coefficients(params, drive)
    if c0 == 0.0:
        # undriven port: E = 0 plus any positive branch of the quadratic
        # factor (none exist for gamma > 0, but solve it anyway)
        roots = [0.0] + [r for r in real_roots(0.0, c3, c2, c1) if r > 0.0]
        return sorted(roots)
    roots = real_roots(c3, c2, c1, c0)
    kept = []
    for r in roots:
        if r < -1e-12:
            continue
        kept.append(max(r, 0.0))
    kept.sort()
    scale = max(kept[-1], 1e-300) if kept else 0.0
    merged: list[float] = []
    for r in kept:
        if merged and abs(r - merged[-1]) <= MERGE_TOL * scale:
            merged[-1] = 0.5 * (merged[-1] + r)
        else:
            merged.append(r)
    return merged


def relaxation_roots(params: DeviceParams, drive: PumpDrive, energy: float):
    """Relaxation roots (slow, fast) of the branch with photon number E.

    Evaluated with the complex square root so underdamped operating points
    (complex-conjugate pair) are representable; for a nonnegative radicand
    both roots are real.
    """
    delta = drive.detuning(params)
    k = params.kerr
    g3 = params.gamma3
    radicand = (k * k + g3 * g3) * energy * energy - (delta + 2.0 * k * energy) ** 2
    s = cmath.sqrt(complex(radicand, 0.0))
    base = params.gamma + 2.0 * g3 * energy
    return base - s, base + s


def steady_state(params: DeviceParams, drive: PumpDrive, energy: float,
                 branch_index: int = 0) -> SteadyState:
    """Assemble the full steady-state record for one cubic root.

    ``energy`` must be a root returned by :func:`solve_pump_energy`.  The
    cavity phase is fixed by the drive balance; it is defined as 0 when the
    amplitude vanishes.
    """
    delta = drive.detuning(params)
    amp = math.sqrt(max(energy, 0.0))
    if amp == 0.0:
        phase = 0.0
    else:
        response = (1j * delta + params.gamma) * amp \
            + (1j * params.kerr + params.gamma3) * amp**3
        phase = drive.phase - params.phi1 + cmath.phase(1j * response)
    reflected = drive.amplitude - 1j * math.sqrt(2.0 * params.gamma1) * amp \
        * cmath.exp(-1j * (params.phi1 + phase - drive.phase))
    lam_slow, lam_fast = relaxation_roots(params, drive, energy)
    marginal = abs(lam_slow.real) <= MARGINAL_TOL * params.gamma
    stable = lam_slow.real > 0.0 and not marginal
    return SteadyState(
        energy=energy,
        amplitude=amp,
        phase=phase,
        reflected=reflected,
        lambda_slow=lam_slow,
        lambda_fast=lam_fast,
        stable=stable,
        marginal=marginal,
        branch_index=branch_index,
    )


def steady_states(params: DeviceParams, drive: PumpDrive) -> list[SteadyState]:
    """All steady-state branches at this drive, ascending in energy."""
    return [steady_state(params, drive, e, i)
            for i, e in enumerate(solve_pump_energy(params, drive))]


def settled_state(params: DeviceParams, drive: PumpDrive) -> SteadyState:
    """The branch a slowly swept drive settles on.

    That is the lowest-energy stable branch, or the lowest branch when none
    is stable (a marginal or unstable operating point).
    """
    branches = steady_states(params, drive)
    return next((s for s in branches if s.stable), branches[0])


def reflection_coefficient(state: SteadyState, drive: PumpDrive) -> complex:
    """Reflected-over-incoming pump amplitude ratio.

    Raises
    ------
    UndefinedForZeroDrive
        If the incoming pump amplitude is zero.
    """
    if drive.amplitude == 0.0:
        raise UndefinedForZeroDrive("reflection coefficient needs b_in > 0")
    return state.reflected / drive.amplitude

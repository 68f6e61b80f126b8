"""Classical pump response of the driven Kerr cavity.

With the pump written as a rotating tone at ``omega_p``, the steady
intracavity amplitude B and phase solve

    [i*(omega0 - omega_p) + gamma] * B + (i*kerr + gamma3) * B^3
        = -i * sqrt(2*gamma1) * b_in * exp(i*(phi1 + phase - psi1)),

whose squared modulus turns the photon number E = B^2 into a real cubic.
Depending on drive strength the cubic has one, two (fold tangency) or three
nonnegative roots; with three roots the middle branch is unstable and the
device is bistable.  Stability of each branch follows from the relaxation
roots of the linearized dynamics.  :func:`branch_states` evaluates every
branch of a whole batch of drives in one NumPy pass, bit-identical to the
scalar functions, and :func:`settled_states` picks from it the branch a
slowly swept drive settles on.
"""

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from . import floatops as fo
from .cubic import real_roots, real_roots_array
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


@dataclass(frozen=True, eq=False)
class BranchStates:
    """Steady-state branches of a batch of drives, one array entry each.

    ``row`` is the index of the entry's drive in the batch, ``omega_p``,
    ``b_in`` and ``drive_phase`` are that drive and ``n_branches`` counts
    all branches at it; the other fields are those of
    :class:`SteadyState`.  Entries are ordered by drive, then by energy.
    """

    row: np.ndarray
    omega_p: np.ndarray
    b_in: np.ndarray
    drive_phase: np.ndarray
    n_branches: np.ndarray
    energy: np.ndarray
    amplitude: np.ndarray
    phase: np.ndarray
    reflected: np.ndarray
    lambda_slow: np.ndarray
    lambda_fast: np.ndarray
    stable: np.ndarray
    marginal: np.ndarray
    branch_index: np.ndarray

    def take(self, at) -> "BranchStates":
        """The entries that ``at`` (indices or a mask) selects; ``row``
        keeps naming their drives in the original batch."""
        return BranchStates(**{f.name: getattr(self, f.name)[at]
                               for f in fields(self)})

    def drive(self, i: int) -> PumpDrive:
        return PumpDrive(omega_p=float(self.omega_p[i]),
                         amplitude=float(self.b_in[i]),
                         phase=float(self.drive_phase[i]))

    def state(self, i: int) -> SteadyState:
        return SteadyState(
            energy=float(self.energy[i]),
            amplitude=float(self.amplitude[i]),
            phase=float(self.phase[i]),
            reflected=complex(self.reflected[i]),
            lambda_slow=complex(self.lambda_slow[i]),
            lambda_fast=complex(self.lambda_fast[i]),
            stable=bool(self.stable[i]),
            marginal=bool(self.marginal[i]),
            branch_index=int(self.branch_index[i]),
        )

    def reflection(self):
        """(real, imaginary) parts of :func:`reflection_coefficient` of each
        entry; every drive must be nonzero."""
        return fo.div_float(fo.parts(self.reflected), self.b_in)

    def reflection_magnitude(self) -> np.ndarray:
        """|reflection coefficient| of each entry.

        Raises
        ------
        UndefinedForZeroDrive
            If any incoming pump amplitude is zero.
        """
        if np.any(self.b_in == 0.0):
            raise UndefinedForZeroDrive("reflection coefficient needs b_in > 0")
        # the signs of zero that the complex quotient adds (its ratio
        # 0.0 / b_in) do not reach the C library's hypot, which Python's
        # complex abs takes
        return np.hypot(self.reflected.real / self.b_in,
                        self.reflected.imag / self.b_in)


def _merge_folds(kept):
    """solve_pump_energy's fold merge on rows of two or three ascending
    energies, NaN-padded."""
    rows = np.arange(len(kept))
    count = 3 - np.isnan(kept).sum(axis=1)
    scale = np.maximum(kept[rows, count - 1], 1e-300)
    merged = np.full_like(kept, np.nan)
    merged[:, 0] = kept[:, 0]
    n = np.ones(len(kept), dtype=int)
    for j in (1, 2):
        r = kept[:, j]
        last = merged[rows, n - 1]
        close = (j < count) & (np.abs(r - last) <= MERGE_TOL * scale)
        merged[rows[close], n[close] - 1] = 0.5 * (last[close] + r[close])
        new = (j < count) & ~close
        merged[rows[new], n[new]] = r[new]
        n += new
    return merged


def _branch_energies(c3, c2, c1, c0):
    """:func:`solve_pump_energy` per row: (n, 3) energies, ascending,
    NaN-padded."""
    undriven = c0 == 0.0
    if undriven.any():
        # an undriven row solves the quadratic factor c3 E^2 + c2 E + c1
        c3, c2, c1, c0 = (np.where(undriven, 0.0, c3),
                          np.where(undriven, c3, c2),
                          np.where(undriven, c2, c1),
                          np.where(undriven, c1, c0))
    roots = real_roots_array(c3, c2, c1, c0)
    # clamp rounding negatives to 0 and drop the rest, which lead a row
    energy = np.maximum(roots, 0.0)
    negative = np.flatnonzero(roots[:, 0] < -1e-12)
    if negative.size:
        energy[negative] = np.sort(np.where(roots[negative] < -1e-12, np.nan,
                                            energy[negative]), axis=1)
    multi = np.flatnonzero(~np.isnan(energy[:, 1]))
    if multi.size:
        energy[multi] = _merge_folds(energy[multi])
    if undriven.any():
        # E = 0 plus the positive roots of the quadratic factor, unmerged
        quad = roots[undriven]
        energy[undriven] = np.sort(np.column_stack(
            [np.zeros(len(quad)), np.where(quad > 0.0, quad, np.nan)[:, :2]]),
            axis=1)
    return energy


def branch_states(params: DeviceParams, omega_p, b_in,
                  phase=0.0) -> BranchStates:
    """Every steady-state branch at every drive of a batch, in one pass.

    ``omega_p``, ``b_in`` and the drive ``phase`` are scalars or 1-D arrays
    of one length.  The entries of drive i are bit-identical to
    :func:`steady_states` at drive i: the same roots, clamp and fold merge
    as :func:`solve_pump_energy`, the same relaxation roots and the same
    record as :func:`steady_state`, in CPython's floating-point order.

    Raises
    ------
    DegenerateModel
        If gamma1 + gamma2 == 0.
    """
    if params.gamma <= 0.0:
        raise DegenerateModel("gamma1 + gamma2 must be > 0")
    omega_p, b_in, psi = fo.rows(omega_p, b_in, phase)
    k, g3, g = params.kerr, params.gamma3, params.gamma
    with np.errstate(all="ignore"):
        # the coefficients as cubic_coefficients forms them
        delta = params.omega0 - omega_p
        c3 = k * k + g3 * g3
        c0 = -2.0 * params.gamma1 * fo.square(b_in)
        energy = _branch_energies(np.full(delta.size, c3),
                                  2.0 * (delta * k + g * g3),
                                  delta * delta + g * g, c0)
        live = ~np.isnan(energy)
        row, index = np.nonzero(live)
        e = energy[live]
        delta, b_in, psi = delta[row], b_in[row], psi[row]

        # relaxation_roots: cmath.sqrt of a real radicand r is exactly
        # (sqrt(r), 0) for r >= 0 and (0, sqrt(-r)) otherwise
        radicand = c3 * e * e - fo.square(delta + 2.0 * k * e)
        root = np.sqrt(np.abs(radicand))
        s = (np.where(radicand >= 0.0, root, 0.0),
             np.where(radicand >= 0.0, 0.0, root))
        base = (g + 2.0 * g3 * e, 0.0)
        lam_slow = fo.sub(base, s)
        marginal = np.abs(lam_slow[0]) <= MARGINAL_TOL * g
        stable = (lam_slow[0] > 0.0) & ~marginal

        # steady_state's record; the phase is 0 where the amplitude is
        amp = np.sqrt(np.maximum(e, 0.0))
        response = fo.add(
            fo.mul(fo.add(fo.times_1j((delta, 0.0)), (g, 0.0)), (amp, 0.0)),
            fo.mul(fo.parts(1j * k + g3),
                   (fo.libm(math.pow, amp, 3.0), 0.0)))
        cavity_phase = np.where(
            amp == 0.0, 0.0,
            (psi - params.phi1) + fo.phase(fo.times_1j(response)))
        turn = fo.times_minus_1j(((params.phi1 + cavity_phase) - psi, 0.0))
        outgoing = fo.mul(fo.mul(fo.parts(1j * math.sqrt(2.0 * params.gamma1)),
                                 (amp, 0.0)), fo.exp_imag(turn))
        reflected = fo.sub((b_in, 0.0), outgoing)
    return BranchStates(
        row=row, omega_p=omega_p[row], b_in=b_in, drive_phase=psi,
        n_branches=live.sum(axis=1)[row], energy=e, amplitude=amp,
        phase=cavity_phase, reflected=fo.pack(reflected),
        lambda_slow=fo.pack(lam_slow), lambda_fast=fo.pack(fo.add(base, s)),
        stable=stable, marginal=marginal, branch_index=index)


def settled_states(params: DeviceParams, omega_p, b_in,
                   phase=0.0) -> BranchStates:
    """The branch a slowly swept drive settles on, for a batch of drives.

    That is the lowest-energy stable branch, or the lowest branch when none
    is stable (a marginal or unstable operating point): the entries of
    :func:`branch_states` that hold the first stable branch of each drive,
    else its branch 0, one per drive.

    Raises
    ------
    DegenerateModel
        If gamma1 + gamma2 == 0.
    """
    states = branch_states(params, omega_p, b_in, phase)
    first = np.flatnonzero(states.branch_index == 0)
    if first.size == states.energy.size:
        # one branch at every drive
        return states
    by_drive = np.zeros((first.size, 3), dtype=bool)
    by_drive[states.row, states.branch_index] = states.stable
    # argmax of an all-False row is branch 0
    return states.take(first + by_drive.argmax(axis=1))


def settled_state(params: DeviceParams, drive: PumpDrive) -> SteadyState:
    """The branch a slowly swept drive settles on: :func:`settled_states`
    for a batch of one drive."""
    return settled_states(params, drive.omega_p, drive.amplitude,
                          drive.phase).state(0)


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

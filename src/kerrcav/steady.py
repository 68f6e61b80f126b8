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
branch of a whole batch of drives in one NumPy pass, and
:func:`settled_states` picks from it the branch a slowly swept drive
settles on.  The one-drive functions (:func:`solve_pump_energy`,
:func:`steady_state`, :func:`steady_states`, :func:`settled_state`) are
those kernels for a batch of one.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import floatops as fo
from .cubic import real_roots_array
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

    Returns 1, 2 (fold tangency, the double root reported once) or 3 roots:
    the row of :func:`branch_states`' energies for this one drive.

    Raises
    ------
    DegenerateModel
        If gamma1 + gamma2 == 0.
    """
    if params.gamma <= 0.0:
        raise DegenerateModel("gamma1 + gamma2 must be > 0")
    with np.errstate(all="ignore"):
        energy = _branch_energies(*fo.rows(*cubic_coefficients(params,
                                                               drive)))[0]
    return energy[~np.isnan(energy)].tolist()


def steady_state(params: DeviceParams, drive: PumpDrive, energy: float,
                 branch_index: int = 0) -> SteadyState:
    """Assemble the full steady-state record for one cubic root.

    ``energy`` must be a root returned by :func:`solve_pump_energy`.  The
    cavity phase is fixed by the drive balance; it is defined as 0 when the
    amplitude vanishes.  This is the record :func:`branch_states` builds
    for each of its entries.
    """
    zero = np.zeros(1, dtype=int)
    # the branch count of a lone root is not known here, and the record
    # drops it
    return _records(params, *fo.rows(drive.omega_p, drive.amplitude,
                                     drive.phase, energy),
                    zero, zero + branch_index, zero + 1).state(0)


def steady_states(params: DeviceParams, drive: PumpDrive) -> list[SteadyState]:
    """All steady-state branches at this drive, ascending in energy:
    :func:`branch_states` for a batch of one drive."""
    states = branch_states(params, drive.omega_p, drive.amplitude, drive.phase)
    return [states.state(i) for i in range(states.energy.size)]


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
    """Merge fold double roots on rows of two or three ascending energies,
    NaN-padded: a root within MERGE_TOL (relative to the row's largest) of
    the last kept one replaces it by their mean."""
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
    """Nonnegative roots of each row's pump cubic, (n, 3), ascending and
    NaN-padded: rounding negatives clamp to zero, genuine negatives drop,
    and a fold double root double precision cannot split appears once.
    An undriven row (c0 = 0) keeps E = 0 alone: for gamma > 0 its quadratic
    factor has no positive root in exact arithmetic (with gamma3 = 0 and a
    detuning far beyond gamma, rounding can report a spurious one)."""
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
    return energy


def branch_states(params: DeviceParams, omega_p, b_in,
                  phase=0.0) -> BranchStates:
    """Every steady-state branch at every drive of a batch, in one pass.

    ``omega_p``, ``b_in`` and the drive ``phase`` are scalars or 1-D arrays
    of one length.  The entries of drive i are its branches, ascending in
    energy.

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
        energy = _branch_energies(np.full(delta.size, k * k + g3 * g3),
                                  2.0 * (delta * k + g * g3),
                                  delta * delta + g * g,
                                  -2.0 * params.gamma1 * fo.square(b_in))
    live = ~np.isnan(energy)
    row, index = np.nonzero(live)
    return _records(params, omega_p[row], b_in[row], psi[row], energy[live],
                    row, index, live.sum(axis=1)[row])


def _records(params: DeviceParams, omega_p, b_in, psi, energy, row, index,
             n_branches) -> BranchStates:
    """The record of photon number ``energy`` at drive (``omega_p``,
    ``b_in``, ``psi``), entry by entry; ``row``, ``index`` and
    ``n_branches`` pass through."""
    k, g3, g = params.kerr, params.gamma3, params.gamma
    e = energy
    with np.errstate(all="ignore"):
        delta = params.omega0 - omega_p
        # relaxation roots base -/+ sqrt(radicand), a complex root so that
        # underdamped points (a conjugate pair) are representable: (sqrt(r),
        # 0) for a radicand r >= 0, else (0, sqrt(-r))
        radicand = (k * k + g3 * g3) * e * e - fo.square(delta + 2.0 * k * e)
        root = np.sqrt(np.abs(radicand))
        s = (np.where(radicand >= 0.0, root, 0.0),
             np.where(radicand >= 0.0, 0.0, root))
        base = (g + 2.0 * g3 * e, 0.0)
        lam_slow = fo.sub(base, s)
        marginal = np.abs(lam_slow[0]) <= MARGINAL_TOL * g
        stable = (lam_slow[0] > 0.0) & ~marginal

        # the phase is 0 where the amplitude is
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
        row=row, omega_p=omega_p, b_in=b_in, drive_phase=psi,
        n_branches=n_branches, energy=e, amplitude=amp,
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
        # one branch at every drive, as at a fit's sub-critical drives
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

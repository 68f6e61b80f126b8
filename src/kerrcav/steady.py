"""Classical pump response of the driven Kerr cavity.

With the pump written as a rotating tone at ``omega_p``, the steady
intracavity amplitude B and phase solve

    [i*(omega0 - omega_p) + gamma] * B + (i*kerr + gamma3) * B^3
        = -i * sqrt(2*gamma1) * b_in * exp(i*(phi1 + phase - psi1)),

whose squared modulus turns the photon number E = B^2 into a real cubic,
h(E) = E |z(E)|^2 = P with z(E) = i (omega0 - omega_p + K E) + gamma
+ gamma3 E and P = 2 gamma1 b_in^2.  Depending on drive strength it has
one, two (fold tangency) or three nonnegative roots; with three roots the
middle branch is unstable and the device is bistable.  h rises except
between its two folds, the roots of the quadratic h', so the branch count
and a bound on each branch follow in closed form, and Newton steps from
those bounds reach each root from one side.  Stability of each branch
follows from the relaxation roots of the linearized dynamics.
:func:`branch_states` evaluates every branch of a whole batch of drives in
one NumPy pass, and :func:`settled_states` picks from it the branch a
slowly swept drive settles on.  The one-drive functions
(:func:`solve_pump_energy`, :func:`steady_state`, :func:`steady_states`,
:func:`settled_state`) are those kernels for a batch of one.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import floatops as fo
from .model import DeviceParams, PumpDrive

# The rounding floor of h(E) - P, in units of h's magnitude: a few ulps.
FLOOR = 4.0 * np.finfo(float).eps
# A cap on the Newton steps to one root; from its bound no root has taken
# ten.
MAX_STEPS = 50
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
    c0 = -2.0 * params.gamma1 * (drive.amplitude * drive.amplitude)
    return c3, c2, c1, c0


def solve_pump_energy(params: DeviceParams, drive: PumpDrive) -> list[float]:
    """Real nonnegative roots E of the pump cubic, ascending.

    Returns 1, 2 or 3 roots: the row of :func:`branch_states`' energies for
    this one drive.  Two roots mean that P lies within rounding of h at a
    fold, and the double root is then reported once, as the closed-form
    fold E- or E+.

    Raises
    ------
    DegenerateModel
        If gamma1 + gamma2 == 0.
    """
    if params.gamma <= 0.0:
        raise DegenerateModel("gamma1 + gamma2 must be > 0")
    p = 2.0 * params.gamma1 * (drive.amplitude * drive.amplitude)
    with np.errstate(all="ignore"):
        energy = _branch_energies(params.omega0, *fo.rows(drive.omega_p, p),
                                  params.kerr, params.gamma3, params.gamma)[0]
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


def _h(e, delta, k, g3, g):
    """h(E) = E (a^2 + b^2) and h'(E) = a^2 + b^2 + 2 E (a K + b gamma3),
    with a = delta + K E and b = gamma + gamma3 E."""
    a = delta + k * e
    b = g + g3 * e
    s = a * a + b * b
    return e * s, s + 2.0 * e * (a * k + b * g3)


def _at_fold(e, h, omega0, omega_p, p, k, g3, g):
    """Whether p is within the rounding floor of h = h(e) at a fold e (or
    at the inflection that stands in for the folds).

    The floor is FLOOR times h evaluated from its float inputs with every
    term's magnitude, e (|a| (|omega0| + |omega_p| + |K| e) + b^2), so a
    fold that rounding the pump frequency to a float can move onto p
    counts as on it."""
    a = (omega0 - omega_p) + k * e
    b = g + g3 * e
    span = np.abs(omega0) + np.abs(omega_p) + np.abs(k) * e
    return np.abs(h - p) <= FLOOR * (e * (np.abs(a) * span + b * b))


def _newton(e, delta, p, k, g3, g):
    """Newton steps on h(E) = p from the starts ``e``, row by row.

    Each start bounds its root on a concave or convex stretch of h, so the
    steps approach the root from the start's side.  A row stops at its
    first step that does not move toward the root (rounding noise, or h = p
    exactly), on its own mask, so its bits do not depend on the batch.

    Raises
    ------
    ArithmeticError
        If a row still moves after MAX_STEPS steps.
    """
    e = e.copy()
    live = np.arange(e.size)
    x, toward, steps = e, None, 0
    while live.size:
        if steps == MAX_STEPS:
            raise ArithmeticError("pump cubic: Newton steps did not settle")
        steps += 1
        h, slope = _h(x, delta, k, g3, g)
        step = (p - h) / slope
        if toward is None:
            toward = np.sign(step)
        nxt = x + step
        move = (nxt - x) * toward > 0.0
        if not move.all():
            e[live[~move]] = x[~move]
            live = live[move]
            nxt, delta, p, toward = (nxt[move], delta[move], p[move],
                                     toward[move])
        x = nxt
    return e


def _branch_energies(omega0, omega_p, p, k, g3, g):
    """Nonnegative roots E of h(E) = E |z(E)|^2 = p for each row, with
    z(E) = i (delta + K E) + gamma + gamma3 E: an (n, 3) array, ascending
    and NaN-padded.

    h rises except between its folds E- <= E+, the roots of h'(E) =
    3 c3 E^2 + 2 c2 E + c1, taken as c1/q and q/(3 c3) with
    q = -c2 + sqrt(c2^2 - 3 c3 c1) so that neither cancels.  A row has
    three roots exactly when h(E+) < p < h(E-): the lowest lies below E-,
    where h is concave, the highest above E+, where it is convex, and the
    middle one follows from the product of the roots, p / c3.  Without a
    fold the inflection -c2/(3 c3), clamped at 0, stands in for both folds.
    A row whose p is within the rounding floor of h(E-) or h(E+) has the
    closed-form double root there; where it is within the floor of both
    (the folds coalesce: the critical point, or an undriven row) its one
    root is that inflection.  h and h' are evaluated in factored form: the
    expanded coefficients lose the branch count to cancellation.

    Raises
    ------
    OverflowError
        If a coefficient of the cubic is infinite or NaN, or a root lies
        beyond the float range.
    ArithmeticError
        If a root takes more than MAX_STEPS Newton steps.
    """
    delta = omega0 - omega_p
    c3 = k * k + g3 * g3
    c2 = 2.0 * (delta * k + g * g3)
    c1 = delta * delta + g * g
    if not (np.isfinite(c3) and np.isfinite(c2).all()
            and np.isfinite(c1).all() and np.isfinite(p).all()):
        raise OverflowError("cubic coefficient is not finite")
    n = p.size
    out = np.full((n, 3), np.nan)
    if c3 == 0.0:
        # a linear device: h(E) = c1 E
        out[:, 0] = p / c1
        return out
    disc = c2 * c2 - 3.0 * c3 * c1
    fold = (c2 < 0.0) & (disc > 0.0)
    inflection = np.maximum(-c2 / (3.0 * c3), 0.0)
    e_lo = inflection.copy()
    e_hi = inflection.copy()
    q = -c2[fold] + np.sqrt(disc[fold])
    e_hi[fold] = q / (3.0 * c3)
    e_lo[fold] = c1[fold] / q
    h_lo = _h(e_lo, delta, k, g3, g)[0]
    h_hi = _h(e_hi, delta, k, g3, g)[0]
    near_lo = _at_fold(e_lo, h_lo, omega0, omega_p, p, k, g3, g)
    near_hi = _at_fold(e_hi, h_hi, omega0, omega_p, p, k, g3, g)
    below = np.flatnonzero(~near_lo & (p < h_lo))
    above = np.flatnonzero(~near_hi & (p > h_hi))

    # Newton from a bound on the side of each fold (or of the clamped
    # inflection) where the root lies: every term of the Taylor expansion of
    # h at that point moves h away from h(E-) below E- and from h(E+) above
    # E+, so each term alone reaching |p - h| bounds the root, and the
    # nearest bound is kept.  h is concave on the way to a root below E-
    # and convex on the way to one above E+.  The roots of a quotient's
    # numerator and denominator are taken apart, as the quotient would
    # overflow at the largest drives.
    at = np.concatenate([below, above])
    side = np.repeat([-1.0, 1.0], [below.size, above.size])
    x = np.concatenate([e_lo[below], e_hi[above]])
    gap = side * (p[at] - np.concatenate([h_lo[below], h_hi[above]]))
    slope = np.where(fold[at], 0.0, _h(x, delta[at], k, g3, g)[1])
    half_curve = 3.0 * c3 * x + c2[at]
    reach = np.fmin(np.fmin(
        np.where(slope > 0.0, gap / slope, np.inf),
        np.where(side * half_curve > 0.0,
                 np.sqrt(gap) / np.sqrt(np.abs(half_curve)), np.inf)),
        np.cbrt(gap) / np.cbrt(c3))
    root = _newton(np.maximum(x + side * reach, 0.0), delta[at], p[at], k,
                   g3, g)
    if not np.isfinite(root).all():
        raise OverflowError("cubic root beyond the float range")

    lo = np.full(n, np.nan)
    hi = np.full(n, np.nan)
    lo[below] = root[:below.size]
    hi[above] = root[below.size:]
    # a row with neither root has p within the floor of both folds' h
    out[:, 0] = np.where(np.isnan(lo), np.where(np.isnan(hi), inflection, hi),
                         lo)
    double_hi = near_hi & ~np.isnan(lo)
    out[double_hi, 1] = e_hi[double_hi]
    double_lo = near_lo & ~np.isnan(hi)
    out[double_lo, 0] = e_lo[double_lo]
    out[double_lo, 1] = hi[double_lo]
    three = np.flatnonzero(~np.isnan(lo) & ~np.isnan(hi))
    if three.size:
        mid = p[three] / (c3 * lo[three] * hi[three])
        out[three] = np.sort(np.column_stack([lo[three], mid, hi[three]]),
                             axis=1)
    return out


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
        energy = _branch_energies(params.omega0, omega_p,
                                  2.0 * params.gamma1 * (b_in * b_in),
                                  k, g3, g)
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
        mismatch = delta + 2.0 * k * e
        radicand = (k * k + g3 * g3) * e * e - mismatch * mismatch
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
            fo.mul(fo.parts(1j * k + g3), (amp * amp * amp, 0.0)))
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

"""Classical pump response of the driven Kerr cavity.

With the pump written as a rotating tone at ``omega_p``, the steady
intracavity amplitude B and phase solve

    [i*(omega0 - omega_p) + gamma] * B + (i*kerr + gamma3) * B^3
        = -i * sqrt(2*gamma1) * b_in * exp(i*(phi1 + phase - psi1)),

whose squared modulus turns the photon number E = B^2 into a real cubic,
h(E) = E |z(E)|^2 = P with z(E) = i (omega0 - omega_p + K E) + gamma +
gamma3 E and P = 2 gamma1 b_in^2, with one, two (fold tangency) or three
nonnegative roots; with three the middle branch is unstable (bistability).
:func:`_branch_energies` is the one pump solve.  The rest of a branch's record
is closed-form real arithmetic in z(E), the same on floats and on arrays: the
relaxation roots of the linearized dynamics give its stability, and the drive
balance the cavity phase psi - phi1 + atan2(gamma + gamma3 E, -(delta + K E))
and the reflection coefficient (:func:`_reflection_modulus`,
:func:`_reflection_parts`).  A batch of drives is one NumPy pass:
:func:`branch_states` of every branch, and :func:`settled_states` of the
branch a slowly swept drive settles on, by stability alone (:func:`_settle`).
The one-drive functions (:func:`solve_pump_energy`, :func:`steady_state`,
:func:`steady_states`, :func:`settled_state`) are a batch of one.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import DeviceParams, PumpDrive

# The rounding floor of h(E) - P, in units of h's magnitude: a few ulps.
FLOOR = 4.0 * np.finfo(float).eps
# How far past its closed-form root, relative, Newton starts: far above the
# few ulps that root is off by, so that the start lies on the root's side.
MARGIN = 2.0 ** -30
# A cap on the Newton steps to one root; from the closed-form start a root
# takes one or two, and no root took ten from the one-term bound that
# stands in where that start is NaN.
MAX_STEPS = 50
# |Re lambda_slow| below this fraction of gamma marks critical slowing down.
MARGINAL_TOL = 1e-9


class DegenerateModel(ValueError):
    """Total damping gamma1 + gamma2 is zero: no steady state exists."""


class UndefinedForZeroDrive(ValueError):
    """Reflection coefficient requested with zero incoming pump."""


@dataclass(frozen=True)
class SteadyState:
    """One steady-state branch of the pump response: photon number
    ``energy`` = amplitude**2, the complex outgoing pump amplitude
    ``reflected`` and the relaxation roots ordered by real part.  ``stable``
    needs Re(lambda_slow) > 0 strictly; the marginal band (critical slowing
    down) is flagged ``marginal`` and not stable."""

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
    """Coefficients (c3, c2, c1, c0) of the photon-number cubic, kept
    un-normalized so that K = g3 = 0 leaves a linear equation (one that is
    not finite is an OverflowError, as in the solve):

        (K^2 + g3^2) E^3 + 2[(omega0-omega_p) K + gamma*g3] E^2
            + [(omega0-omega_p)^2 + gamma^2] E - 2 gamma1 b_in^2 = 0.
    """
    c0 = -_drive_power(params.gamma1, drive.amplitude)
    return (*_checked_coefficients(drive.detuning(params), params.kerr,
                                   params.gamma3, params.gamma), c0)


def solve_pump_energy(params: DeviceParams, drive: PumpDrive) -> list[float]:
    """Real nonnegative roots E of the pump cubic, ascending: 1, 2 or 3,
    the row of :func:`branch_states`' energies for this drive.  With two,
    P lies within rounding of h at a fold, and the double root is reported
    once, as the closed-form fold E- or E+.

    Raises
    ------
    DegenerateModel
        If gamma1 + gamma2 == 0.
    """
    energy = _solve(params, *_rows(drive.omega_p, drive.amplitude))[0]
    return energy[~np.isnan(energy)].tolist()


def steady_state(params: DeviceParams, drive: PumpDrive, energy: float,
                 branch_index: int = 0) -> SteadyState:
    """The record :func:`branch_states` builds for a root ``energy`` of
    :func:`solve_pump_energy`; the cavity phase is 0 where the amplitude
    is."""
    zero = np.zeros(1, dtype=int)
    # the record drops the branch count, not known for a lone root
    return _records(params, *_rows(drive.omega_p, drive.amplitude,
                                   drive.phase, energy),
                    zero, zero + branch_index, zero + 1)[0].state(0)


def steady_states(params: DeviceParams, drive: PumpDrive) -> list[SteadyState]:
    """All steady-state branches at this drive, ascending in energy:
    :func:`branch_states` for a batch of one drive."""
    states = branch_states(params, drive.omega_p, drive.amplitude, drive.phase)
    return [states.state(i) for i in range(states.energy.size)]


@dataclass(frozen=True, eq=False)
class BranchStates:
    """Steady-state branches of a batch of drives, one array entry each,
    ordered by drive, then energy: ``row`` indexes the entry's drive in the
    batch, ``omega_p``, ``b_in`` and ``drive_phase`` are that drive,
    ``n_branches`` counts its branches, and the rest is :class:`SteadyState`.
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

    def drive(self, i: int) -> PumpDrive:
        return PumpDrive(*(float(x[i]) for x in (self.omega_p, self.b_in,
                                                 self.drive_phase)))

    def state(self, i: int) -> SteadyState:
        # entry i of each field, as the Python type SteadyState declares
        return SteadyState(**{f.name: f.type(getattr(self, f.name)[i])
                              for f in fields(SteadyState)})


def _coefficients(delta, k, g3, g):
    """(c3, c2, c1) of h(E) = c3 E^3 + c2 E^2 + c1 E at detuning delta =
    omega0 - omega_p; runs unchanged on floats and on arrays.  The one home
    of the coefficients: :func:`cubic_coefficients`, the solve, the fold
    locus and the fit's Jacobian take them from here."""
    return k * k + g3 * g3, 2.0 * (delta * k + g * g3), delta * delta + g * g


def _checked_coefficients(delta, k, g3, g):
    """:func:`_coefficients`; OverflowError if one is infinite or NaN, in
    one test of c3 (c2 . c1), and of each only where that is not finite.
    The fold locus and the fit's Jacobian take the unchecked form: the
    check would cost the locus about a quarter of its time."""
    c = _coefficients(delta, k, g3, g)
    return c if math.isfinite(c[0] * np.dot(c[1], c[2])) else tuple(
        _finite(x, "cubic coefficient is not finite") for x in c)


def _h(e, delta, k, g3, g):
    """(h(E), h'(E), a, b): h = E (a^2 + b^2) and h' = a^2 + b^2
    + 2 E (a K + b gamma3), with a = delta + K E and b = gamma + gamma3 E."""
    a = delta + k * e
    b = g + g3 * e
    s = a * a + b * b
    return e * s, s + 2.0 * e * (a * k + b * g3), a, b


def _fold_energies(c3, c2, c1):
    """Whether h has folds, c2 < 0 and disc > 0 for the discriminant
    disc = c2^2 - 3 c3 c1 of h'(E) = 3 c3 E^2 + 2 c2 E + c1, and the roots
    of h', the folds E- = c1/q <= E+ = q/(3 c3) with q = -c2 + sqrt(disc),
    so that neither cancels (NaN where disc < 0).  Floats stay Python
    floats (``math.sqrt``), arrays take ``np.sqrt``: the same bits."""
    disc = c2 * c2 - 3.0 * c3 * c1
    q = -c2 + (np.sqrt(disc) if not isinstance(disc, float)
               else math.sqrt(disc) if disc >= 0.0 else math.nan)
    return (c2 < 0.0) & (disc > 0.0), c1 / q, q / (3.0 * c3)


def _at_fold(e, gap, a, b, omega0, omega_p, k):
    """Whether ``gap`` = |h(e) - p| is within the rounding floor at a fold
    e (or the inflection standing in for the folds), a and b those of
    :func:`_h`: FLOOR times h with every term's magnitude, e (|a| (|omega0|
    + |omega_p| + |K| e) + b^2), so that a fold the rounding of the pump
    frequency can move onto p counts as on it.  Runs on floats and arrays."""
    span = abs(omega0) + abs(omega_p) + abs(k) * e
    return gap <= FLOOR * (e * (abs(a) * span + b * b))


def _newton(x, delta, c2, p, c3, k, g3, g):
    """Newton steps on h(E) = p from the starts ``x``, row by row.

    Each start lies past its root on a concave or convex stretch of h, so
    the steps approach it from that side.  A row stops at a step that does
    not move toward the root (rounding noise, or h = p), or after one whose
    successor, by Newton's error term |h''/2| step^2 / h', is within FLOOR
    of its value (from :func:`_start_offset`, the first), on its own mask,
    so its bits do not depend on the batch.

    Raises
    ------
    ArithmeticError
        If a row still moves after MAX_STEPS steps.
    """
    live, toward = True, None
    for _ in range(MAX_STEPS):
        h, slope, _, _ = _h(x, delta, k, g3, g)
        step = (p - h) / slope
        if toward is None:
            toward = np.sign(step)
        nxt = x + step
        move = live & ((nxt - x) * toward > 0.0)
        live = move & (np.abs(3.0 * c3 * x + c2) * (step * step)
                       > FLOOR * x * slope)
        x = np.where(move, nxt, x)
        if not np.count_nonzero(live):
            return x
    raise ArithmeticError("pump cubic: Newton steps did not settle")


def _start_offset(gap, slope, half_curve, c3):
    """The distance t from a fold (or the clamped inflection) to just past
    the root on its side, where h is ``gap`` > 0 from its value there.

    There h moves away by slope t + half_curve t^2 + c3 t^3, each term
    >= 0, and each alone reaching ``gap`` bounds t; the nearest bound T is
    a ratio of roots, which does not overflow at the largest drives.  In
    s = t/T, alpha s + beta s^2 + gamma s^3 = 1 with coefficients in
    [0, 1], and 1/s = v + alpha/3 with v the largest root of v^3 - 3 m v
    - 2 n = 0 (m, n sums of positive terms): Cardano's w + m/w, or the
    trigonometric form for three real roots.  Against mpmath s is within 2
    ulps (n^2 - m^3 cancels only at second order), so s (1 + MARGIN),
    capped at 1, lies past the root."""
    bounds = (gap / slope, np.sqrt(gap) / np.sqrt(half_curve),
              np.cbrt(gap) / np.cbrt(c3))
    reach = np.fmin(np.fmin(bounds[0], bounds[1]), bounds[2])
    a3 = reach / bounds[0] / 3.0
    beta = np.square(reach / bounds[1])
    gamma = reach / bounds[2]
    gamma = gamma * gamma * gamma
    m = beta / 3.0 + a3 * a3
    n = 0.5 * gamma + a3 * (0.5 * beta + a3 * a3)
    root_m = np.sqrt(m)
    m_root_m = m * root_m
    cos3 = n / m_root_m
    three = cos3 < 1.0
    trig = np.count_nonzero(three)
    # each form where some row takes it; a row's bits are its form's
    v = 2.0 * root_m * np.cos(np.arccos(cos3) / 3.0) if trig else None
    if v is None or trig < three.size:
        w = np.cbrt(n + np.sqrt(np.abs(n * n - m_root_m * m_root_m)))
        v = w + m / w if v is None else np.where(three, v, w + m / w)
    # fmin: a NaN (no root resolved) starts from T
    return reach * np.fmin((1.0 + MARGIN) / (v + a3), 1.0)


def _branch_energies(omega0, omega_p, p, k, g3, g):
    """Nonnegative roots E of h(E) = E |z(E)|^2 = p for each row, with
    z(E) = i (delta + K E) + gamma + gamma3 E: an (n, 3) array, ascending
    and NaN-padded.

    h rises except between its folds E- <= E+ (:func:`_fold_energies`), so
    a row has three roots exactly when h(E+) < p < h(E-): the lowest below
    E-, where h is concave, the highest above E+, where it is convex, and
    the middle one from their product, p / c3.  Without a fold the
    inflection -c2/(3 c3), clamped at 0, stands in for both.  Newton
    (:func:`_newton`) starts just past each outer root, from its side
    (:func:`_start_offset`).  A solve makes two or three NumPy passes over
    its rows, one for both folds, or for the inflection alone where no row
    folds (two on a fit's rows and on the README sweep grid, three on
    400,001 far-detuned rows at 1000x critical).  Where p is within the
    rounding floor of h(E-) or h(E+) the double root there is the fold,
    and within that of both (coalesced folds: the critical point, or no
    drive) the one root is the inflection (:func:`_one_branch_at` for one
    row).  h and h' are evaluated in factored form: the expanded
    coefficients lose the branch count to cancellation.

    Raises
    ------
    OverflowError
        If c3, c2 or c1 is infinite or NaN, or a root lies beyond the float
        range.
    ArithmeticError
        If a root takes more than MAX_STEPS Newton steps.
    """
    delta = omega0 - omega_p
    c3, c2, c1 = _checked_coefficients(delta, k, g3, g)
    out = np.full((p.size, 3), np.nan)
    if c3 == 0.0:
        # a linear device: h(E) = c1 E
        out[:, 0] = _finite(p / c1, "cubic root beyond the float range")
        return out
    fold, e_lo, e_hi = _fold_energies(c3, c2, c1)
    folds = np.count_nonzero(fold)
    inflection = np.maximum(c2 / (-3.0 * c3), 0.0)
    # E- and E+ as rows 0 and 1, so that one pass evaluates both, or the
    # inflection alone, a row of ends, where no row folds
    ends = (np.where(fold, np.stack([e_lo, e_hi]), inflection) if folds
            else inflection)
    h_end, slope, a, b = _h(ends, delta, k, g3, g)
    miss = p - h_end
    gap, side = abs(miss), np.sign(miss)
    near = _at_fold(ends, gap, a, b, omega0, omega_p, k)
    # a root lies past an end on the side of p
    live = ~near & (gap > 0.0)
    if folds:
        # below E- and above E+ only; h' is 0 at a fold
        live &= side == [[-1.0], [1.0]]
        slope = np.where(fold, 0.0, slope)

    # Newton from just past each root, from its side of the fold (or of the
    # clamped inflection), on the ends in place where each has a root: the
    # curvature counts where it bends h away
    every = np.count_nonzero(live) == live.size
    x, p_x = ends, p
    if not every:
        row = np.nonzero(live)[-1]
        x, gap, side, slope = (v[live] for v in (ends, gap, side, slope))
        c2, delta, p_x = c2[row], delta[row], p[row]
    reach = _start_offset(gap, np.maximum(slope, 0.0),
                          np.maximum(side * (3.0 * c3 * x + c2), 0.0), c3)
    # h < 0 below 0, so no root of h = p >= 0 lies there
    root = _finite(np.maximum(_newton(np.maximum(x + side * reach, 0.0),
                                      delta, c2, p_x, c3, k, g3, g),
                              0.0), "cubic root beyond the float range")
    if not every:
        # an end without a root keeps its place; neither the ends nor,
        # without a fold, the inflection they view is read again
        ends[live] = root
        root = ends

    if not folds:
        # a row with no root has p within the floor of h at the inflection
        out[:, 0] = root
        return out
    lo, hi = root
    double_lo, double_hi = near[0] & live[1], near[1] & live[0]
    # a row with neither root has p within the floor of both folds' h
    out[:, 0] = np.where(live[0] | double_lo, lo,
                         np.where(live[1], hi, inflection))
    out[:, 1] = np.where(double_lo | double_hi, hi, np.nan)
    three = np.flatnonzero(live[0] & live[1])
    if three.size:
        lo, hi = lo[three], hi[three]
        out[three] = np.sort(np.column_stack([lo, p[three] / (c3 * lo * hi),
                                              hi]), axis=1)
    return out


def _finite(x, message, skip=False):
    """``x`` if finite where not ``skip``, else OverflowError (x . x first)."""
    if not (skip is False and math.isfinite(
            np.vdot(x, x) if isinstance(x, np.ndarray) else x)
            or np.all(skip | (abs(x) < math.inf))):
        raise OverflowError(message)
    return x


def _drive_power(gamma1, b_in):
    """P = 2 gamma1 b_in^2 of floats or arrays; OverflowError if not finite."""
    return _finite(2.0 * gamma1 * (b_in * b_in),
                   "drive power 2 gamma1 b_in^2 is not finite")


def _one_branch_at(omega0, omega_p, p, k, g3, g) -> bool:
    """Whether p is within the rounding floor of h at both folds (or the
    inflection standing in for them) at pump frequency omega_p, where
    :func:`_branch_energies` reports one branch, as at the critical point:
    that test of one row in Python floats, as the fold locus asks it per
    fold, where a NumPy pass would cost several times the arithmetic."""
    delta = omega0 - omega_p
    c3, c2, c1 = _coefficients(delta, k, g3, g)
    fold, e_lo, e_hi = _fold_energies(c3, c2, c1)
    if not fold:
        e_lo = e_hi = max(-c2 / (3.0 * c3), 0.0)
    return all(_at_fold(e, abs(h - p), a, b, omega0, omega_p, k)
               for e in (e_lo, e_hi)
               for h, _, a, b in [_h(e, delta, k, g3, g)])


def _rows(*values):
    """The values as 1-D float arrays of one length; scalars repeat."""
    arrays = [np.ravel(np.asarray(v, dtype=float)) for v in values]
    sizes = {a.size for a in arrays} - {1}
    if len(sizes) > 1:
        raise ValueError(f"array sizes {sorted(sizes)} differ")
    n = sizes.pop() if sizes else 1
    return [a if a.size == n else np.full(n, a[0]) for a in arrays]


def _solve(params: DeviceParams, omega_p, b_in):
    """:func:`_branch_energies` of the drives (1-D arrays of one length);
    DegenerateModel if gamma1 + gamma2 == 0."""
    if params.gamma <= 0.0:
        raise DegenerateModel("gamma1 + gamma2 must be > 0")
    with np.errstate(all="ignore"):
        return _branch_energies(params.omega0, omega_p,
                                _drive_power(params.gamma1, b_in),
                                params.kerr, params.gamma3, params.gamma)


def _hypot(x, y):
    """The C library's hypot of floats or of arrays: Python's complex abs
    takes it for floats (``math.hypot`` is another function) and np.hypot
    for arrays."""
    if isinstance(x, float):
        return abs(complex(x, y))
    return np.hypot(x, y)


def _atan2(y, x):
    """``np.arctan2`` of arrays, and of floats as a Python float, which
    keeps the scalar callers' later arithmetic off NumPy scalars."""
    angle = np.arctan2(y, x)
    return float(angle) if isinstance(x, float) else angle


def _complex(re, im):
    """A complex array from its parts, without rounding."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _z(params: DeviceParams, energy, delta):
    """(Re z, Im z) = (gamma + gamma3 E, delta + K E) at photon number
    ``energy`` and detuning ``delta`` = omega0 - omega_p."""
    return params.gamma + params.gamma3 * energy, delta + params.kerr * energy


def _reflection_modulus(params: DeviceParams, energy, delta):
    """|r| = |z - 2 gamma1| / |z| <= 3 of r = (z - 2 gamma1)/z (|z| >= gamma),
    for the fit's model and the steady sweep's ``refl_mag``."""
    a, b = _z(params, energy, delta)
    return _hypot(a - 2.0 * params.gamma1, b) / _hypot(a, b)


def _reflection_parts(params: DeviceParams, energy, delta):
    """(Re r, Im r) = ((a - 2 gamma1) a + b^2, 2 gamma1 b) / |z|^2, z = a +
    ib: the records take them alone, for b_in r and the sweep's phase."""
    a, b = _z(params, energy, delta)
    bb = b * b
    m = a * a + bb
    return (((a - 2.0 * params.gamma1) * a + bb) / m,
            2.0 * params.gamma1 * b / m)


def _relaxation(params: DeviceParams, energy, delta):
    """The relaxation roots base -/+ s as (base, Re s, Im s), s the square
    root of the radicand r: (sqrt(r), 0) for r >= 0, else (0, sqrt(-r)), an
    underdamped conjugate pair."""
    k, g3 = params.kerr, params.gamma3
    mismatch = delta + 2.0 * k * energy
    radicand = (k * k + g3 * g3) * energy * energy - mismatch * mismatch
    root = np.sqrt(np.abs(radicand))
    real = radicand >= 0.0
    return (params.gamma + 2.0 * g3 * energy, np.where(real, root, 0.0),
            np.where(real, 0.0, root))


def _stability(params: DeviceParams, slow):
    """(stable, marginal) from Re lambda_slow: stable needs it > 0 outside
    the marginal band |Re lambda_slow| <= MARGINAL_TOL gamma."""
    marginal = np.abs(slow) <= MARGINAL_TOL * params.gamma
    return (slow > 0.0) & ~marginal, marginal


def branch_states(params: DeviceParams, omega_p, b_in,
                  phase=0.0) -> BranchStates:
    """Every steady-state branch at every drive of a batch, in one pass:
    ``omega_p``, ``b_in`` and the drive ``phase`` are scalars or 1-D arrays
    of one length, and drive i's entries are its branches, ascending.

    Raises
    ------
    DegenerateModel
        If gamma1 + gamma2 == 0.
    """
    omega_p, b_in, psi = _rows(omega_p, b_in, phase)
    row, index, energy, count = _branches(params, omega_p, b_in)
    return _records(params, omega_p[row], b_in[row], psi[row], energy, row,
                    index, count)[0]


def _branches(params: DeviceParams, omega_p, b_in):
    """Every branch of each drive (1-D arrays of one length) as the entry
    arrays (row, branch index, energy, branch count) of
    :func:`branch_states`, without the rest of its record."""
    energy = _solve(params, omega_p, b_in)
    live = ~np.isnan(energy)
    row, index = np.nonzero(live)
    return row, index, energy[live], live.sum(axis=1)[row]


def _records(params: DeviceParams, omega_p, b_in, psi, energy, row, index,
             n_branches):
    """The record of photon number ``energy`` at drive (``omega_p``,
    ``b_in``, ``psi``), entry by entry, and the (Re r, Im r) it was built
    from; ``row``, ``index`` and ``n_branches`` pass through."""
    e = energy
    with np.errstate(all="ignore"):
        delta = params.omega0 - omega_p
        base, s_re, s_im = _relaxation(params, e, delta)
        stable, marginal = _stability(params, base - s_re)
        # the phase is 0 where the amplitude is
        amp = np.sqrt(np.maximum(e, 0.0))
        a, b = _z(params, e, delta)
        cavity_phase = np.where(amp == 0.0, 0.0,
                                (psi - params.phi1) + _atan2(a, -b))
        r_re, r_im = _reflection_parts(params, e, delta)
    return BranchStates(
        row=row, omega_p=omega_p, b_in=b_in, drive_phase=psi,
        n_branches=n_branches, energy=e, amplitude=amp, phase=cavity_phase,
        reflected=_complex(b_in * r_re, b_in * r_im),
        lambda_slow=_complex(base - s_re, 0.0 - s_im),
        lambda_fast=_complex(base + s_re, 0.0 + s_im),
        stable=stable, marginal=marginal, branch_index=index), r_re, r_im


def _settle(params: DeviceParams, omega_p, b_in):
    """The settled entry of each drive (1-D arrays of one length) as the
    arrays (energy, branch index, branch count): the lowest-energy stable
    root of :func:`_branch_energies`, else root 0, by the record's stability
    test (:func:`_relaxation`, :func:`_stability`), building no record.
    DegenerateModel if gamma1 + gamma2 == 0."""
    energy = _solve(params, omega_p, b_in)
    if np.count_nonzero(nan := np.isnan(energy)) == 2 * len(energy):
        # one branch at every drive (the lowest root is never NaN)
        return energy[:, 0], np.zeros(len(nan), int), np.ones(len(nan), int)
    count = 3 - nan.sum(axis=1)
    with np.errstate(all="ignore"):
        base, s_re, _ = _relaxation(params, energy,
                                    (params.omega0 - omega_p)[:, None])
        # NaN padding is not stable, and argmax of an all-False row is 0
        index = _stability(params, base - s_re)[0].argmax(axis=1)
    return energy[np.arange(count.size), index], index, count


def settled_states(params: DeviceParams, omega_p, b_in,
                   phase=0.0) -> BranchStates:
    """The branch a slowly swept drive settles on, for a batch of drives:
    the lowest-energy stable branch, else branch 0 (a marginal or unstable
    operating point), one entry of :func:`branch_states` per drive, chosen
    by :func:`_settle` before any record is built.

    Raises
    ------
    DegenerateModel
        If gamma1 + gamma2 == 0.
    """
    omega_p, b_in, psi = _rows(omega_p, b_in, phase)
    energy, index, count = _settle(params, omega_p, b_in)
    return _records(params, omega_p, b_in, psi, energy,
                    np.arange(energy.size), index, count)[0]


def settled_state(params: DeviceParams, drive: PumpDrive) -> SteadyState:
    """The branch a slowly swept drive settles on: :func:`settled_states`
    for a batch of one drive."""
    return settled_states(params, drive.omega_p, drive.amplitude,
                          drive.phase).state(0)


def reflection_coefficient(state: SteadyState, drive: PumpDrive) -> complex:
    """Reflected-over-incoming pump amplitude ratio; UndefinedForZeroDrive
    if the incoming pump amplitude is zero."""
    if drive.amplitude == 0.0:
        raise UndefinedForZeroDrive("reflection coefficient needs b_in > 0")
    return state.reflected / drive.amplitude

"""Special operating points of the Duffing-like pump response.

In the detuning delta = omega0 - omega_p the pump balance of :mod:`steady`
is h(E) = E [(delta + K E)^2 + (gamma + gamma3 E)^2] = P, with
P = 2 gamma1 b_in^2.  Its folds (vertical tangents of the response, where
the system switches branch) are the roots E- <= E+ of the quadratic h'(E),
which :func:`steady._fold_energies` gives in closed form on the fold side
(c2 = 2 (delta K + gamma gamma3) < 0 and a positive discriminant), from the
cubic's coefficients of :func:`steady._coefficients`.  The fold curves

    H-(delta) = h(E-(delta); delta),    H+(delta) = h(E+(delta); delta)

are the local maximum and minimum of h, so a drive has three branches
exactly when H+(delta) < P < H-(delta).  Both start at the cusp delta_c of
the critical point, where E- = E+, and rise strictly away from it: with
a = delta + K E and b = gamma + gamma3 E > 0, h'(E) = a^2 + b^2
+ 2 E (a K + b gamma3) = 0 on them forces a K < 0, so

    dH/d(delta) = 2 E (delta + K E)        (h'(E) = 0 there)

has the sign of -K, the side the folds lie on.  Above the critical drive
the fold nearer the cusp is the one root of H-(delta) = P and the farther
fold the one root of H+(delta) = P.  The critical point, where the two
folds coalesce, is a closed form.

On its own the response curve is single valued in E: solving the pump
balance for the pump frequency gives omega_p(E) = omega0 + K E
-/+ sqrt(head(E)), head(E) = 2 gamma1 b_in^2 / E - (gamma + gamma3 E)^2,
the low- and high-frequency sides of the pulled resonance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import SQRT3, DeviceParams, PumpDrive
from .steady import (MAX_STEPS, _at_fold, _branch_energies, _coefficients,
                     _drive_power, _finite, _fold_energies, _h,
                     _one_branch_at)

# Denominator |K| - sqrt(3)*gamma3 below this fraction of |K| makes the
# critical-point formulas numerically explosive.
ILL_CONDITION_TOL = 1e-9


@dataclass(frozen=True)
class CriticalPoint:
    """Coalescence point of the two folds (onset of bistability).

    ``exists`` is False when |kerr| <= sqrt(3)*gamma3 or gamma1 = 0, in
    which case the remaining fields are NaN.  ``ill_conditioned`` warns
    that the defining denominator is within ILL_CONDITION_TOL of vanishing.
    """

    exists: bool
    energy: float = math.nan
    omega_p: float = math.nan
    drive: float = math.nan
    ill_conditioned: bool = False


def response_peak_detuning(params: DeviceParams, energy: float) -> float:
    """Pump frequency of the response maximum for peak photon number E.

    The peak sits where omega0 - omega_p + K*E = 0, i.e. pulled by K*E from
    the bare resonance (downward for a softening K < 0).
    """
    return params.omega0 + params.kerr * energy


def max_curve_energy(params: DeviceParams, drive: PumpDrive) -> float:
    """Largest photon number on the response curve (the peak).

    head(E) = 0 there: E (gamma + gamma3 E)^2 = 2 gamma1 b_in^2, the pump
    balance E |z(E)|^2 = P of the steady states with delta = K = 0.  That
    h(E) rises from h(0) = 0 without a fold, so it has one root, which the
    steady states' solve finds from above.
    """
    p = _drive_power(params.gamma1, drive.amplitude)
    with np.errstate(all="ignore"):
        return float(_branch_energies(0.0, np.zeros(1), np.full(1, p), 0.0,
                                      params.gamma3, params.gamma)[0, 0])


def curve_omega_p(params: DeviceParams, drive: PumpDrive, energy: float):
    """Pump frequencies (low side, high side) at which the curve reaches E,
    omega0 + K E -/+ sqrt(head(E)), with head clamped at 0."""
    head = _drive_power(params.gamma1, drive.amplitude) / energy \
        - (params.gamma + params.gamma3 * energy) ** 2
    root = math.sqrt(max(head, 0.0))
    center = params.omega0 + params.kerr * energy
    return center - root, center + root


def instability_locus(params: DeviceParams, drive: PumpDrive):
    """All (omega_p, E) fold points of the response curve, ascending in E.

    Each fold is the root of one fold curve of the module docstring, with
    the fold energy E-(delta) or E+(delta) of :mod:`steady`'s pump solve.
    Far from the cusp both curves are close to power laws, so the root is
    found by Newton steps on log H against log|delta| (dH/d(delta) from
    the module docstring), kept inside the bracket from the cusp delta_c to

        delta_out = sgn(-K) [3 (K^2 + gamma3^2) P / (2 gamma^2 |K|)
                             + gamma gamma3 / |K|],

    where H- >= H+ >= gamma^2 E+ >= gamma^2 (-c2) / (3 (K^2 + gamma3^2))
    = P: a step that would leave the bracket is a bisection instead.  The
    farther fold starts from the cusp, the nearer one from the farther
    fold, which bounds it since H- >= H+.  Each stops at the first step
    that no longer moves delta.

    A drive P within the rounding floor of h at the cusp (the rule
    :mod:`steady` takes for a fold double root) gives the critical point
    alone, and so does one within that floor of h at both folds of either
    fold's frequency (:func:`steady._one_branch_at`): the pump solve
    reports one branch there, as it does where the folds coalesce, so the
    band it resolves has no width.  A drive below the cusp, or a device
    without a critical point (|kerr| <= sqrt(3)*gamma3 or gamma1 = 0),
    gives no fold.

    Raises
    ------
    OverflowError
        If P = 2 gamma1 b_in^2 or the bracket lies beyond the float range.
    ArithmeticError
        If a fold takes more than MAX_STEPS steps.
    """
    p = _drive_power(params.gamma1, drive.amplitude)
    crit = critical_point(params)
    if not crit.exists:
        return []
    omega0, k, g3, g = params.omega0, params.kerr, params.gamma3, params.gamma
    delta_c = omega0 - crit.omega_p
    h_c, _, a, b = _h(crit.energy, delta_c, k, g3, g)
    if _at_fold(crit.energy, abs(h_c - p), a, b, omega0, crit.omega_p, k):
        return [(crit.omega_p, crit.energy)]
    if p < h_c:
        return []
    delta_out = _finite(-math.copysign(
        3.0 * (k * k + g3 * g3) * p / (2.0 * g * g * abs(k))
        + g * g3 / abs(k), k), "fold locus bracket beyond the float range")
    with np.errstate(invalid="ignore"):
        far = _fold_root(params, p, 2, delta_c, crit.energy, delta_c,
                         delta_out)
        near = _fold_root(params, p, 1, far[0], _fold_energies(
            *_coefficients(far[0], k, g3, g))[1], delta_c, far[0])
        folds = [(omega0 - delta, e) for delta, e in (near, far)]
        if any(_one_branch_at(omega0, omega_p, p, k, g3, g)
               for omega_p, _ in folds):
            return [(crit.omega_p, crit.energy)]
    return sorted(folds, key=lambda fold: fold[1])


def _fold_root(params: DeviceParams, p: float, curve: int, delta: float,
               e: float, inner: float, outer: float):
    """(delta, E) where fold curve ``curve`` (1: H-, 2: H+, the index into
    :func:`steady._fold_energies`) reaches p, from delta with fold energy e.

    H < p at ``inner`` and H >= p at ``outer``, and each evaluation moves
    the end of that bracket on its side.  A detuning where rounding leaves
    no fold (NaN, next to the cusp) counts as on the cusp's side.
    """
    k, g3, g = params.kerr, params.gamma3, params.gamma
    for _ in range(MAX_STEPS):
        h = _h(e, delta, k, g3, g)[0]
        if h == p:
            break
        if h > p:
            outer = delta
        else:
            inner = delta
        # the log-log step, clipped to the bracket: x = log(p/h) /
        # (d log H / d log|delta|)
        x = math.log1p((p - h) / h) * h / (delta * 2.0 * e * (delta + k * e))
        nxt = delta + delta * math.expm1(min(x, math.log(outer / delta)))
        if nxt == delta:
            break
        if not abs(inner) < abs(nxt) < abs(outer):
            nxt = 0.5 * (inner + outer)
            if nxt == inner or nxt == outer:
                break
        delta = nxt
        e = _fold_energies(*_coefficients(delta, k, g3, g))[curve]
    else:
        raise ArithmeticError("fold locus: Newton steps did not settle")
    return delta, e


def critical_point(params: DeviceParams) -> CriticalPoint:
    """Closed-form critical operating point (fold coalescence).

    When |kerr| > sqrt(3)*gamma3 the critical photon number, pump frequency
    and drive amplitude are

        E_c         = 2*gamma / (sqrt(3) (|K| - sqrt(3) g3)),
        omega0-w_pc = -gamma*sgn(K) * [4 g3 |K| + sqrt(3)(K^2+g3^2)]
                                      / (K^2 - 3 g3^2),
        b_c^2       = (4 / 3 sqrt(3)) gamma^3 (K^2+g3^2)
                                      / (gamma1 (|K| - sqrt(3) g3)^3).

    The last two are evaluated with |K|, g3 and the margin divided by 2^e,
    e the binary exponent of |K|, gamma and gamma1 by their own, and b_c is
    the root of the scaled b_c^2: these scalings are exact, so no power of
    K or of a rate leaves the float range unless the point does, and then
    an OverflowError is raised.

    Two-photon loss raises the drive needed to reach the fold threshold and
    removes it entirely at |kerr| <= sqrt(3)*gamma3 (``exists=False``).
    With gamma1 = 0 the drive port is decoupled and b_c is infinite: no
    finite drive reaches the point, which is also reported as
    ``exists=False``.
    """
    k, g3, g = abs(params.kerr), params.gamma3, params.gamma
    margin = k - SQRT3 * g3
    if not margin > 0.0 or params.gamma1 == 0.0:
        return CriticalPoint(exists=False)
    energy = 2.0 * g / (SQRT3 * margin)
    (k, e), (g, f), (g1, h) = map(math.frexp, (k, g, params.gamma1))
    g3, margin = math.ldexp(g3, -e), math.ldexp(margin, -e)
    # K^2 - 3 g3^2, factored where the expanded form cancels to 0 or below
    den = k * k - 3.0 * g3 * g3
    den = den if den > 0.0 else margin * (k + SQRT3 * g3)
    detuning = -math.copysign(params.gamma, params.kerr) \
        * (4.0 * g3 * k + SQRT3 * (k * k + g3 * g3)) / den
    # b_c^2 = 2^n drive_sq, and b_c its root, taken before the scaling
    n = 3 * f - h - e
    drive_sq = (4.0 / (3.0 * SQRT3)) * g**3 * (k * k + g3 * g3) \
        / (g1 * margin**3)
    try:
        drive = math.ldexp(math.sqrt(math.ldexp(drive_sq, n % 2)), n // 2)
    except OverflowError:
        drive = math.inf
    _finite(max(energy, abs(detuning), drive),
            "critical point beyond the float range")
    return CriticalPoint(True, energy, params.omega0 - detuning, drive,
                         ill_conditioned=margin < ILL_CONDITION_TOL * k)


def require_critical_point(params: DeviceParams) -> CriticalPoint:
    """:func:`critical_point`, or ValueError where the device has none."""
    crit = critical_point(params)
    if not crit.exists:
        raise ValueError("no critical point: it needs |kerr| > sqrt(3)*gamma3 "
                         "and gamma1 > 0")
    return crit

"""Special operating points of the Duffing-like pump response.

The response curve is treated parametrically in the photon number E, where
it is single valued: solving the pump cubic for the detuning gives

    omega_p(E) = omega0 + K*E -/+ sqrt(head(E)),
    head(E)    = 2*gamma1*b_in^2 / E - (gamma + gamma3*E)^2,

with the two signs tracing the low- and high-frequency sides of the pulled
resonance.  Folds (vertical tangents, where the system switches branch) are
the zeros of d(omega_p)/dE on the side the Kerr constant pulls toward,

    |K| + head'(E) / (2 sqrt(head(E))) = 0,

i.e. the double roots of the pump cubic.  head' < 0 for every E > 0, so the
squared condition head'^2 = 4 K^2 head has no other solutions and itself
forces head >= 0.  In the units x = E*|K|/gamma, r = gamma3/|K| and
sigma = 2*gamma1*b_in^2*|K|/gamma^3 it is the fold polynomial

    P(x) = [sigma + 2 r x^2 (1 + r x)]^2 - 4 x^3 [sigma - x (1 + r x)^2]
         = 4 (1 + r^2) x^4 (1 + r x)^2 - 4 sigma (1 - r^2) x^3
           + 4 r sigma x^2 + sigma^2,

of degree 6 (4 when gamma3 = 0), and every positive real root of P is a
fold.  On a fold sqrt(head) = -head'/(2|K|), so its pump frequency is

    omega_p = omega0 + K*E + [2*gamma1*b_in^2 / E^2
                              + 2*gamma3*(gamma + gamma3*E)] / (2K),

which needs no square root and so keeps its precision near the curve top,
where head cancels.  The critical point is where the two folds coalesce.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import SQRT3, DeviceParams, PumpDrive
from .steady import _branch_energies

# A fold-side slope maximum within this fraction of |kerr| of zero marks a
# tangency: the fold pair cannot be separated numerically and is reported
# as a single point.
TANGENCY_TOL = 1e-5
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


def curve_head(params: DeviceParams, drive: PumpDrive, energy: float) -> float:
    """Radicand of the detuning solution; nonnegative on the response curve."""
    g3 = params.gamma3
    return 2.0 * params.gamma1 * drive.amplitude**2 / energy \
        - (params.gamma + g3 * energy) ** 2


def max_curve_energy(params: DeviceParams, drive: PumpDrive) -> float:
    """Largest photon number on the response curve (the peak).

    head(E) = 0 there: E (gamma + gamma3 E)^2 = 2 gamma1 b_in^2, the pump
    balance E |z(E)|^2 = P of the steady states with delta = K = 0.  That
    h(E) rises from h(0) = 0 without a fold, so it has one root, which the
    steady states' solve finds from above.
    """
    p = 2.0 * params.gamma1 * (drive.amplitude * drive.amplitude)
    with np.errstate(all="ignore"):
        return float(_branch_energies(0.0, np.zeros(1), np.full(1, p), 0.0,
                                      params.gamma3, params.gamma)[0, 0])


def curve_omega_p(params: DeviceParams, drive: PumpDrive, energy: float):
    """Pump frequencies (low side, high side) at which the curve reaches E."""
    head = max(curve_head(params, drive, energy), 0.0)
    root = math.sqrt(head)
    center = params.omega0 + params.kerr * energy
    return center - root, center + root


def _fold_slope(params: DeviceParams, drive: PumpDrive, energy: float) -> float:
    """d(omega_p)/dE on the fold side, up to the sign of kerr.

    Equals |kerr| + d(sqrt(head))/dE; negative at both curve ends and
    positive between the folds when the drive exceeds critical.
    """
    head = curve_head(params, drive, energy)
    if head <= 0.0:
        return -math.inf
    return abs(params.kerr) + _head_slope(params, drive, energy) \
        / (2.0 * math.sqrt(head))


def _head_slope(params: DeviceParams, drive: PumpDrive, energy: float) -> float:
    """d(head)/dE, negative for every E > 0."""
    g3 = params.gamma3
    return -2.0 * params.gamma1 * drive.amplitude**2 / energy**2 \
        - 2.0 * g3 * (params.gamma + g3 * energy)


def _fold_omega_p(params: DeviceParams, drive: PumpDrive, energy: float) -> float:
    """Fold-side pump frequency at a fold, where sqrt(head) = -head'/(2|K|)."""
    return params.omega0 + params.kerr * energy \
        - _head_slope(params, drive, energy) / (2.0 * params.kerr)


# gamma3 / |kerr| below which the fold polynomial is solved in degree 4
SMALL_GAMMA3 = 1e-20


def _polish(poly, x: float) -> float:
    """Newton steps on the polynomial, kept while they shrink |poly(x)|.

    The companion-matrix roots lose digits when gamma3 is tiny next to
    |kerr| (two roots then sit near x = -|kerr|/gamma3): without these
    steps the folds are 1e-10 off in relative E at gamma3 = 1e-16 |kerr|.
    """
    deriv = np.polyder(poly)
    value = np.polyval(poly, x)
    for _ in range(3):
        slope = np.polyval(deriv, x)
        if slope == 0.0:
            break
        candidate = x - value / slope
        candidate_value = np.polyval(poly, candidate)
        if abs(candidate_value) >= abs(value):
            break
        x, value = float(candidate), candidate_value
    return x


def instability_locus(params: DeviceParams, drive: PumpDrive):
    """All (omega_p, E) fold points of the response curve, ascending in E.

    The folds are the positive real roots of the fold polynomial P(x) of
    the module docstring, x = E |kerr| / gamma, and each fold frequency
    comes from the root-free form of omega_p.  Empty when the drive is
    sub-critical or when |kerr| <= sqrt(3)*gamma3 (no fold can exist for
    any drive).

    Tangency: when the maximum of the fold-side slope lies within
    TANGENCY_TOL*|kerr| of zero, the pair is reported as the single
    coalesced point.  That is the case when P has two positive real roots
    and the slope at their midpoint is at most the tolerance, or when P
    has no positive real root but a complex-conjugate pair whose real part
    has a slope within the tolerance of zero.
    """
    if drive.amplitude == 0.0:
        return []
    k = abs(params.kerr)
    if k <= SQRT3 * params.gamma3:
        return []
    r = params.gamma3 / k
    sigma = 2.0 * params.gamma1 * drive.amplitude**2 * k / params.gamma**3
    c4 = 4.0 * (1.0 + r * r)
    # P(x) = c4 x^4 (1 + r x)^2 - 4 sigma (1 - r^2) x^3 + 4 r sigma x^2
    #        + sigma^2; np.roots drops the leading zeros when gamma3 = 0
    poly = np.array([c4 * r * r, 2.0 * c4 * r, c4,
                     -4.0 * sigma * (1.0 - r * r), 4.0 * r * sigma, 0.0,
                     sigma * sigma])
    # for gamma3 below about 1e-30 |kerr| the companion matrix of the
    # degree-6 form loses the folds beside its two roots near x = -1/r; the
    # (1 + r x)^2 factor is then 1 to double precision wherever a fold can
    # be, so the roots come from the degree-4 form and the Newton steps
    # polish them on the full one
    roots = np.roots(poly[2:] if r < SMALL_GAMMA3 else poly)
    unit = params.gamma / k
    folds = sorted(unit * _polish(poly, float(z.real)) for z in roots
                   if z.imag == 0.0 and z.real > 0.0)
    tol = TANGENCY_TOL * k
    if len(folds) == 2:
        mid = 0.5 * (folds[0] + folds[1])
        if _fold_slope(params, drive, mid) <= tol:
            folds = [mid]
    elif not folds:
        pairs = (unit * float(z.real) for z in roots
                 if z.imag > 0.0 and z.real > 0.0)
        folds = [e for e in pairs
                 if abs(_fold_slope(params, drive, e)) <= tol][:1]
    return [(_fold_omega_p(params, drive, e), e) for e in folds]


def critical_point(params: DeviceParams) -> CriticalPoint:
    """Closed-form critical operating point (fold coalescence).

    When |kerr| > sqrt(3)*gamma3 the critical photon number, pump frequency
    and drive amplitude are

        E_c         = 2*gamma / (sqrt(3) (|K| - sqrt(3) g3)),
        omega0-w_pc = -gamma*sgn(K) * [4 g3 |K| + sqrt(3)(K^2+g3^2)]
                                      / (K^2 - 3 g3^2),
        b_c^2       = (4 / 3 sqrt(3)) gamma^3 (K^2+g3^2)
                                      / (gamma1 (|K| - sqrt(3) g3)^3).

    Two-photon loss raises the drive needed to reach the fold threshold and
    removes it entirely at |kerr| <= sqrt(3)*gamma3 (``exists=False``).
    With gamma1 = 0 the drive port is decoupled and b_c is infinite: no
    finite drive reaches the point, which is also reported as
    ``exists=False``.
    """
    k = params.kerr
    g3 = params.gamma3
    margin = abs(k) - SQRT3 * g3
    if not margin > 0.0 or params.gamma1 == 0.0:
        return CriticalPoint(exists=False)
    g = params.gamma
    energy = 2.0 * g / (SQRT3 * margin)
    sgn = 1.0 if k > 0.0 else -1.0
    detuning = -g * sgn * (4.0 * g3 * abs(k) + SQRT3 * (k * k + g3 * g3)) \
        / (k * k - 3.0 * g3 * g3)
    drive_sq = (4.0 / (3.0 * SQRT3)) * g**3 * (k * k + g3 * g3) \
        / (params.gamma1 * margin**3)
    return CriticalPoint(
        exists=True,
        energy=energy,
        omega_p=params.omega0 - detuning,
        drive=math.sqrt(drive_sq),
        ill_conditioned=margin < ILL_CONDITION_TOL * abs(k),
    )

"""Lumped cavity coefficients from a superconducting transmission-line profile.

A nonuniform line with per-length capacitance C(x) and kinetic inductance
L(x) = L0(x) + dL(x)*(I/I_c)^2 supports modes u_n(x) solving the
Sturm-Liouville problem

    d/dx [ (1/C) du/dx ] = -omega_n^2 L0 u,    u(0) = u(l) = 0,

normalized by integral(L0 u^2 dx) = 1.  The current-dependent inductance
yields the mode's Kerr constant and cross-mode couplings; the companion
nonlinear resistance R(x) = R0(x) + dR(x)*(I/I_c)^2 yields the linear and
two-photon loss rates.  Everything here reduces to quadratures of the mode
shape, evaluated with the composite trapezoid rule on the same grid as the
eigensolver.

Mode k is found in a closed-form bracket.  Its eigenvalue omega_k^2 is the
minimax of the energy quotient sum(mid (du)^2) / (h^2 sum(L0 u^2)), with
mid = 1/C at the cell midpoints, so by Courant-Fischer it lies within
[min(mid) / max(L0), max(mid) / min(L0)] times the uniform line's
4 sin^2(k pi / (2 (m + 1))) / h^2 (m interior nodes, spacing h).  omega_k
is the energy quotient of the computed vector: a ratio of sums of positive
terms, accurate to rounding where the eigenvalue's bisection is not.
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import DeviceParams

PROFILE_KEYS = ("C", "L0", "dL", "R0", "dR")


class ResolutionError(ValueError):
    """Requested more modes than the grid can resolve."""


class SameModeError(ValueError):
    """Cross coupling requested for a mode with itself (that is the self-Kerr)."""


@dataclass(frozen=True)
class LineProfile:
    """Sampled transmission-line profile on a uniform grid over [0, l].

    Arrays hold per-length values at the grid nodes; no interpolation is
    applied, so the caller owns the discretization.  ``hbar`` is an explicit
    field so desk-scale fixtures can set it to 1.
    """

    length: float
    I_c: float
    hbar: float
    C: np.ndarray
    L0: np.ndarray
    dL: np.ndarray
    R0: np.ndarray
    dR: np.ndarray

    def __post_init__(self):
        arrays = {k: np.asarray(getattr(self, k), dtype=float) for k in PROFILE_KEYS}
        n = arrays["C"].size
        for key, arr in arrays.items():
            if arr.ndim != 1 or arr.size != n:
                raise ValueError(f"profile array {key!r} must be 1-d of length {n}")
            if not np.isfinite(arr).all():
                raise ValueError(f"profile array {key!r} must be finite")
            if key in ("R0", "dR") and np.any(arr < 0.0):
                raise ValueError(f"profile array {key!r} must be >= 0")
            object.__setattr__(self, key, arr)
        for key in ("length", "I_c", "hbar"):
            value = float(getattr(self, key))
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
            object.__setattr__(self, key, value)
        if n < 16:
            raise ValueError("profile needs at least 16 grid points")
        if not self.length > 0.0:
            raise ValueError("length must be > 0")
        if not self.I_c > 0.0:
            raise ValueError("I_c must be > 0")
        if np.any(arrays["C"] <= 0.0) or np.any(arrays["L0"] <= 0.0):
            raise ValueError("C and L0 samples must be strictly positive")

    @property
    def n_grid(self) -> int:
        return self.C.size

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_grid)


@dataclass(frozen=True)
class ModeSolution:
    """One normalized eigenmode: 1-based index, frequency and sampled shape.

    ``u`` includes the boundary zeros and satisfies the weighted
    normalization integral(L0 u^2 dx) = 1; the sign is fixed by a positive
    initial slope.
    """

    index: int
    omega_n: float
    u: np.ndarray


def load_profile(path) -> LineProfile:
    """Read a profile from a JSON file.

    Expected object: {"l", "I_c", "hbar", "grid", "C", "L0", "dL", "R0",
    "dR"} with arrays of length "grid"; anything else is rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"profile file {path}: expected an object")
    for key in ("l", "I_c", "hbar", "grid", *PROFILE_KEYS):
        if key not in data:
            raise ValueError(f"profile file {path}: missing key {key!r}")
    n = data["grid"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"profile file {path}: grid must be an integer, "
                         f"got {n!r}")
    for key in PROFILE_KEYS:
        if not isinstance(data[key], list):
            raise ValueError(f"profile file {path}: {key!r} must be a list")
        if len(data[key]) != n:
            raise ValueError(
                f"profile file {path}: array {key!r} has length "
                f"{len(data[key])}, expected grid = {n}")
    try:
        return LineProfile(
            length=float(data["l"]), I_c=float(data["I_c"]),
            hbar=float(data["hbar"]),
            **{k: np.array(data[k], dtype=float) for k in PROFILE_KEYS})
    except (TypeError, ValueError) as exc:  # e.g. null for a number
        raise ValueError(f"profile file {path}: {exc}") from exc


def solve_mode(profile: LineProfile, index: int) -> ModeSolution:
    """Eigenmode number ``index`` (1-based) of the line.

    Central differences with 1/C at the cell midpoints and the L0 weight
    folded in by its square root give a symmetric tridiagonal T; Sturm
    counts halve the mode's bracket (module docstring) until it holds this
    mode alone.  Raises ``ResolutionError`` past n_grid / 4 (modes that
    coarse are not resolved at second order) and ``ArithmeticError`` if the
    mode is outside its bracket or no float separates it from a neighbour.
    """
    # imported here: SciPy's linear algebra is needed only by the line
    # modes and slows every other command's start-up
    from scipy.linalg import eigh_tridiagonal

    if index < 1:
        raise ValueError("mode indices start at 1")
    if index > profile.n_grid // 4:
        raise ResolutionError(
            f"mode {index} needs a grid of at least {4 * index} points "
            f"(have {profile.n_grid})")
    x = profile.x
    h = x[1] - x[0]
    inv_c = 1.0 / profile.C
    mid = 0.5 * (inv_c[:-1] + inv_c[1:])
    w = profile.L0[1:-1]
    diag = (mid[:-1] + mid[1:]) / (h * h * w)
    off = -mid[1:-1] / (h * h * np.sqrt(w[:-1] * w[1:]))
    s = math.sin(index * math.pi / (2 * (w.size + 1)))
    mu = 4.0 * s * s / (h * h)
    # rounding in T, against a bound on its Gershgorin norm
    slack = 8.0 * math.ulp(1.0) * float(diag.max() - 2.0 * off.min())
    lo = max(mu * mid.min() / w.max() - slack, 0.0)
    hi = mu * mid.max() / w.min() + slack

    def count(a, b):  # eigenvalues of T in (a, b], from Sturm counts alone
        return eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                                select_range=(a, b), tol=math.inf).size

    below, inside = count(-slack, lo), count(lo, hi)
    if not below < index <= below + inside:
        raise ArithmeticError(f"mode {index} is outside ({lo:.17g}, {hi:.17g}]")
    while inside > 1:
        cut = 0.5 * (lo + hi)
        if not lo < cut < hi:
            raise ArithmeticError(f"mode {index} has a neighbour at {cut:.17g}")
        n = count(lo, cut)
        if below + n >= index:
            hi, inside = cut, n
        else:
            lo, below, inside = cut, below + n, inside - n
    # neighbouring modes sit about 2 lambda / index apart, so this
    # tolerance keeps inverse iteration contracting by ~1e-3 a step
    _, vec = eigh_tridiagonal(diag, off, select="v", select_range=(lo, hi),
                              tol=1e-3 * lo / index)
    u = np.zeros(profile.n_grid)
    u[1:-1] = vec[:, 0] / np.sqrt(w)
    u /= np.sqrt(np.trapezoid(profile.L0 * u * u, x))
    if u[1] < 0.0:
        u = -u
    du = np.diff(u)
    omega = math.sqrt(np.sum(mid * du * du) / (h * h * np.sum(w * u[1:-1]**2)))
    return ModeSolution(index=index, omega_n=omega, u=u)


def solve_modes(profile: LineProfile, n_modes: int) -> list[ModeSolution]:
    """Lowest ``n_modes`` eigenmodes of the line, frequencies ascending;
    mode k is ``solve_mode(profile, k)`` bit for bit."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return [solve_mode(profile, k) for k in range(1, n_modes + 1)]


# lumped coefficients of a normalized mode and the quadratures they scale
ModeCoefficients = namedtuple("ModeCoefficients", "kerr gamma2 gamma3 "
                              "quad_u4_dL quad_u2_R0 quad_u4_dR")


def mode_coefficients(profile: LineProfile,
                      mode: ModeSolution) -> ModeCoefficients:
    """Kerr constant and loss rates of a normalized mode (rad/s), each from
    one quadrature.  K = -(hbar omega_n^2 / I_c^2) integral(u^4 dL dx) is
    negative (softening) for any positive kinetic-inductance nonlinearity;
    gamma2 = (1/2) integral(u^2 R0 dx); gamma3 = (3 hbar omega_n / (8 I_c^2))
    integral(u^4 dR dx), the mode's frequency as the resonance frequency.
    """
    x, u4 = profile.x, mode.u**4
    u4_dl, u2_r0, u4_dr = (float(np.trapezoid(f, x)) for f in (
        u4 * profile.dL, mode.u**2 * profile.R0, u4 * profile.dR))
    omega, hbar, i_c = mode.omega_n, profile.hbar, profile.I_c
    return ModeCoefficients(-(hbar * omega**2 / i_c**2) * u4_dl, 0.5 * u2_r0,
                            3.0 * hbar * omega / (8.0 * i_c**2) * u4_dr,
                            u4_dl, u2_r0, u4_dr)


def cross_kerr(profile: LineProfile, mode_a: ModeSolution,
               mode_b: ModeSolution) -> float:
    """Cross-mode frequency-pull coupling between two distinct modes (rad/s).

    -3 hbar omega_a omega_b / I_c^2 * integral(u_a^2 u_b^2 dL dx); symmetric
    in the two modes.  Computed for diagnostics only; it never feeds any
    time evolution here.

    Raises
    ------
    SameModeError
        If both arguments are the same mode index (the self coupling is
        the Kerr constant of :func:`mode_coefficients`).
    """
    if mode_a.index == mode_b.index:
        raise SameModeError("self coupling is the Kerr constant, not a cross term")
    quad = np.trapezoid(mode_a.u**2 * mode_b.u**2 * profile.dL, profile.x)
    return float(-3.0 * profile.hbar * mode_a.omega_n * mode_b.omega_n
                 / profile.I_c**2 * quad)


def derive_device(profile: LineProfile, mode_index: int,
                  gamma1: float) -> DeviceParams:
    """Lumped device parameters for one mode of the line.

    The input-port rate ``gamma1`` is supplied by the caller (port coupling
    is not part of the line profile); phases are zeroed.
    """
    mode = solve_mode(profile, mode_index)
    coeffs = mode_coefficients(profile, mode)
    return DeviceParams(omega0=mode.omega_n, kerr=coeffs.kerr,
                        gamma1=float(gamma1), gamma2=coeffs.gamma2,
                        gamma3=coeffs.gamma3)

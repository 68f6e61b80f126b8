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
"""

import json
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
            object.__setattr__(self, key, arr)
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
    except TypeError as exc:  # a null, list or object where a number belongs
        raise ValueError(f"profile file {path}: {exc}") from exc


def _eigenmodes(profile: LineProfile, first: int, last: int):
    """Modes ``first``..``last`` (1-based) of the line, frequencies
    ascending.

    Second-order central differences with 1/C sampled at cell midpoints give
    a symmetric tridiagonal problem; the L0 weight is folded in through its
    diagonal square root, so eigenvalues are real and orderable.
    """
    # imported here: SciPy's linear algebra is needed only by the line
    # modes and slows every other command's start-up
    from scipy.linalg import eigh_tridiagonal

    if first < 1:
        raise ValueError("mode indices start at 1")
    if last > profile.n_grid // 4:
        raise ResolutionError(
            f"{last} modes need a grid of at least {4 * last} points "
            f"(have {profile.n_grid})")
    x = profile.x
    h = x[1] - x[0]
    inv_c = 1.0 / profile.C
    mid = 0.5 * (inv_c[:-1] + inv_c[1:])
    w = profile.L0[1:-1]
    diag = (mid[:-1] + mid[1:]) / (h * h * w)
    off = -mid[1:-1] / (h * h * np.sqrt(w[:-1] * w[1:]))
    vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                  select_range=(first - 1, last - 1))
    modes = []
    for i, index in enumerate(range(first, last + 1)):
        u = np.zeros(profile.n_grid)
        u[1:-1] = vecs[:, i] / np.sqrt(w)
        norm = np.trapezoid(profile.L0 * u * u, x)
        u /= np.sqrt(norm)
        if u[1] < 0.0:
            u = -u
        modes.append(ModeSolution(index=index, omega_n=float(np.sqrt(vals[i])),
                                  u=u))
    return modes


def solve_modes(profile: LineProfile, n_modes: int) -> list[ModeSolution]:
    """Lowest ``n_modes`` eigenmodes of the line, frequencies ascending.

    Raises
    ------
    ResolutionError
        If ``n_modes`` exceeds n_grid / 4 (modes that coarse are not
        resolved at second order).
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return _eigenmodes(profile, 1, n_modes)


def solve_mode(profile: LineProfile, index: int) -> ModeSolution:
    """Eigenmode number ``index`` (1-based) alone: the eigensolver is asked
    for that one eigenpair, not for every lower mode.

    Raises
    ------
    ResolutionError
        If ``index`` exceeds n_grid / 4.
    """
    return _eigenmodes(profile, index, index)[0]


def kerr_constant(profile: LineProfile, mode: ModeSolution) -> float:
    """Self-Kerr constant of a normalized mode (rad/s).

    K = -(hbar * omega_n^2 / I_c^2) * integral(u^4 dL dx); any positive
    kinetic-inductance nonlinearity makes it negative (softening).
    """
    quad = np.trapezoid(mode.u**4 * profile.dL, profile.x)
    return float(-(profile.hbar * mode.omega_n**2 / profile.I_c**2) * quad)


def cross_kerr(profile: LineProfile, mode_a: ModeSolution,
               mode_b: ModeSolution) -> float:
    """Cross-mode frequency-pull coupling between two distinct modes (rad/s).

    -3 hbar omega_a omega_b / I_c^2 * integral(u_a^2 u_b^2 dL dx); symmetric
    in the two modes.  Computed for diagnostics only; it never feeds any
    time evolution here.

    Raises
    ------
    SameModeError
        If both arguments are the same mode index (use
        :func:`kerr_constant`).
    """
    if mode_a.index == mode_b.index:
        raise SameModeError("self coupling is the Kerr constant, not a cross term")
    quad = np.trapezoid(mode_a.u**2 * mode_b.u**2 * profile.dL, profile.x)
    return float(-3.0 * profile.hbar * mode_a.omega_n * mode_b.omega_n
                 / profile.I_c**2 * quad)


def gamma2_from_profile(profile: LineProfile, mode: ModeSolution) -> float:
    """Linear loss rate of the mode from the residual resistance (rad/s).

    gamma2 = (1/2) integral(u^2 R0 dx); linear in R0.
    """
    return float(0.5 * np.trapezoid(mode.u**2 * profile.R0, profile.x))


def gamma3_from_profile(profile: LineProfile, mode: ModeSolution) -> float:
    """Two-photon loss rate of the driven mode (rad/s).

    gamma3 = (3 hbar omega_n / (8 I_c^2)) * integral(u^4 dR dx), with the
    mode's own frequency playing the role of the resonance frequency.
    """
    quad = np.trapezoid(mode.u**4 * profile.dR, profile.x)
    return float(3.0 * profile.hbar * mode.omega_n / (8.0 * profile.I_c**2) * quad)


def derive_device(profile: LineProfile, mode_index: int,
                  gamma1: float) -> DeviceParams:
    """Lumped device parameters for one mode of the line.

    The input-port rate ``gamma1`` is supplied by the caller (port coupling
    is not part of the line profile); phases are zeroed.
    """
    mode = solve_mode(profile, mode_index)
    return DeviceParams(
        omega0=mode.omega_n,
        kerr=kerr_constant(profile, mode),
        gamma1=float(gamma1),
        gamma2=gamma2_from_profile(profile, mode),
        gamma3=gamma3_from_profile(profile, mode),
    )

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
terms, accurate to rounding where a bisection for the eigenvalue is not.

The eigensolver is NumPy alone.  One odd-even (cyclic) reduction of the
tridiagonal T - sigma I gives both the solves of Rayleigh-quotient
iteration, which give the vector, and its Sturm counts, which narrow the
bracket when the iteration from the uniform line's sine does not certify
mode k at once.
"""

import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .jsonfile import (ConfigError, _integer, _number, _numbers, _require,
                       read_json)
from .model import DeviceParams

PROFILE_KEYS = ("C", "L0", "dL", "R0", "dR")
EPS = math.ulp(1.0)
SQRT_EPS = math.sqrt(EPS)
TINY = sys.float_info.min
# Rayleigh-quotient steps per try, before the bracket is narrowed and the
# iteration started again: from the sine it takes 1-3 on smooth profiles,
# and 3-6, rarely up to 12, on profiles whose C and L0 span up to 1e8
MAX_STEPS = 12


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
        for key in ("length", "I_c", "hbar"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be > 0")
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
    "dR"} with arrays of length "grid", checked by jsonfile's cell rules
    (a float64 array the reader decoded is taken as it is); an error
    reads ``profile file PATH: FIELD: DETAIL``.
    """
    data = read_json(path, "profile", PROFILE_KEYS)
    if not isinstance(data, dict):
        raise ValueError(f"profile file {path}: expected an object")
    try:
        for key in ("l", "I_c", "hbar", "grid", *PROFILE_KEYS):
            _require(data, key, "$")
        n = _integer(data["grid"], "grid", minimum=0)
        values = {key: _number(data[key], key) for key in ("l", "I_c", "hbar")}
        for key in PROFILE_KEYS:
            values[key] = _numbers(data, key)
            if len(values[key]) != n:
                raise ConfigError(key, f"has length {len(values[key])}, "
                                  f"expected grid = {n}")
    except ConfigError as exc:
        raise ValueError(f"profile file {path}: {exc.field_path}: "
                         f"{exc.detail}") from None
    try:
        return LineProfile(length=values.pop("l"), **values)
    except ValueError as exc:
        raise ValueError(f"profile file {path}: {exc}") from exc


def _odd_even(a, b):
    """Odd-even (cyclic) reduction of symmetric tridiagonal matrices.

    ``a`` holds the diagonals and ``b`` the off-diagonals along the last
    axis; leading axes are independent matrices.  Each level eliminates the
    even-numbered unknowns, whose block is diagonal, and leaves their
    Schur complement, again tridiagonal, on the odd-numbered ones (Buzbee,
    Golub & Nielson, SIAM J. Numer. Anal. 7, 1970), so n unknowns take
    about log2(n) vectorised passes.  Returns each level's (pivots, left
    and right couplings of the kept unknowns, and their ratios to the
    pivots) and the final 1x1 Schur complement.

    Unlike the sequential Sturm recurrence, the reduction is not backward
    stable: a pivot p whose couplings are b costs the next level about
    eps |b| / |p| of relative accuracy, where those couplings cancel.  So a
    pivot below sqrt(eps) |b| is moved out to that size, keeping its sign
    (a zero goes negative), which bounds the loss at sqrt(eps).  Small
    pivots are rare at a random shift, but near mode n/4 of a uniform line
    of n points they are about 1/n of their couplings, and the counts there
    were off for shifts up to 100 eps ||T|| from the eigenvalue (n = 20,000;
    10 eps ||T|| at n = 8,000).
    """
    levels = []
    while a.shape[-1] > 1:
        q, r = a.shape[-1] // 2, (a.shape[-1] - 1) // 2
        p, bl, br = a[..., 0::2], b[..., 0::2], b[..., 1::2]
        # a pivot's couplings sum to at most twice the largest: if every
        # pivot clears that, none needs moving
        if not np.abs(p).min() > 2.0 * SQRT_EPS * np.abs(b).max():
            floor = np.zeros(p.shape)
            floor[..., :q] = np.abs(bl)
            floor[..., 1:r + 1] += np.abs(br)
            floor = np.maximum(SQRT_EPS * floor, TINY)
            p = np.where(np.abs(p) < floor, np.copysign(
                floor, np.where(p == 0.0, -1.0, p)), p)
        rl, rr = bl / p[..., :q], br / p[..., 1:r + 1]
        a = a[..., 1::2] - bl * rl
        a[..., :r] -= br * rr
        b = -rr[..., :q - 1] * bl[..., 1:]
        levels.append((p, bl, br, rl, rr))
    return levels, a


def _below(a, b):
    """Eigenvalues below 0 of each symmetric tridiagonal (a, b), a zero
    one counted with them.  By Sylvester's law of inertia, applied level by
    level through the Schur complement (Haynsworth's additivity), this is
    the number of negative pivots of the odd-even reduction."""
    levels, last = _odd_even(a, b)
    return sum(np.count_nonzero(p < 0.0, axis=-1) for p, *_ in levels) \
        + np.count_nonzero(last <= 0.0, axis=-1)


def _solve(a, b, f):
    """x with (a, b) x = f for one symmetric tridiagonal (a, b), by the
    odd-even reduction and back-substitution.  A zero final pivot leaves
    the matrix singular to working precision; x is then its null vector,
    the limit of inverse iteration."""
    levels, last = _odd_even(a, b)
    evens = []
    for p, bl, br, rl, rr in levels:
        evens.append(f[0::2])
        f = f[1::2] - rl * evens[-1][:rl.size]
        f[:rr.size] -= rr * evens[-1][1:rr.size + 1]
    if abs(last[0]) < TINY:
        x, evens = np.ones(1), [np.zeros(e.size) for e in evens]
    else:
        x = f / last
    for (p, bl, br, _, _), fe in zip(reversed(levels), reversed(evens)):
        fe = fe.copy()
        fe[:bl.size] -= bl * x
        fe[1:br.size + 1] -= br * x[:br.size]
        y = np.empty(fe.size + x.size)
        y[0::2] = fe / p
        y[1::2] = x
        x = y
    return x


def _is_eigenpair(diag, off, v, q) -> bool:
    """Whether |((T - q) v)_i| <= 8 eps ((|T| + q) |v|)_i for every i, T
    = (diag, off) with off < 0: a componentwise backward error of a few
    eps, the most any solver can give."""
    tv = diag * v
    tv[:-1] += off * v[1:]
    tv[1:] += off * v[:-1]
    size = np.abs(v)
    scale = (diag + q) * size
    scale[:-1] -= off * size[1:]
    scale[1:] -= off * size[:-1]
    return bool(np.all(np.abs(tv - q * v) <= 8.0 * EPS * scale))


def _sign_changes(v) -> int:
    nonzero = v[v != 0.0]
    return int(np.count_nonzero(np.signbit(nonzero[1:])
                                != np.signbit(nonzero[:-1])))


def solve_mode(profile: LineProfile, index: int) -> ModeSolution:
    """Eigenmode number ``index`` (1-based) of the line.

    Central differences with 1/C at the cell midpoints and the L0 weight
    folded in by its square root give a symmetric tridiagonal T.
    Rayleigh-quotient iteration starts from the uniform line's discrete
    sine, with each shift kept in the mode's bracket (module docstring; its
    midpoint while the quotient is outside it).  It stops at the first
    vector that is an eigenvector to rounding (a componentwise backward
    error of at most 8 eps) or whose quotient a Rayleigh step no longer
    moves.  That vector is certified, and returned, only if its quotient
    lies in the bracket and it changes sign index - 1 times (Sturm's
    oscillation theorem), so the counts below are never its proof.  If it
    is not, Sturm counts (the inertia of T - sigma I) check that the mode
    is in the bracket and halve the bracket until it holds this mode alone
    and the iteration started again certifies a vector.

    Raises ``ResolutionError`` past n_grid / 4 (modes that coarse are not
    resolved at second order) and ``ArithmeticError`` if the counts put the
    mode outside its bracket, or if no float splits the bracket while no
    vector is certified.
    """
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
    slack = 8.0 * EPS * float(diag.max() - 2.0 * off.min())
    lo = max(mu * mid.min() / w.max() - slack, 0.0)
    hi = mu * mid.max() / w.min() + slack
    root_w = np.sqrt(w)

    def quotient(v):  # energy quotient of u = v / sqrt(L0), 0 at the ends
        du = np.diff(v / root_w, prepend=0.0, append=0.0)
        return np.sum(mid * du * du) / (h * h * np.sum(v * v))

    def rayleigh(v):
        """v's Rayleigh-quotient iterate once converged and certified, or
        None if it settles outside the bracket or does not settle."""
        q = quotient(v)
        for step in range(MAX_STEPS + 1):
            settled = False
            if step:
                inside = lo < q <= hi
                v = _solve(diag - (q if inside else 0.5 * (lo + hi)), off, v)
                v /= np.abs(v).max()
                q, last = quotient(v), q
                # a Rayleigh step converges cubically: one that no longer
                # moves the quotient has converged
                settled = inside and abs(q - last) <= 8.0 * EPS * q
            if settled or _is_eigenpair(diag, off, v, q):
                if not lo < q <= hi:  # a neighbour's vector
                    return None
                if _sign_changes(v) == index - 1:
                    return v
        return None

    def halve():  # False if no float splits the bracket
        nonlocal lo, hi, n_lo, n_hi
        cut = 0.5 * (lo + hi)
        if not lo < cut < hi:
            return False
        n = int(_below(diag - cut, off))
        if n >= target:
            hi, n_hi = cut, n
        else:
            lo, n_lo = cut, n
        return True

    sine = np.sin(index * math.pi / (w.size + 1) * np.arange(1, w.size + 1))
    if (vec := rayleigh(sine)) is None:
        # eigenvalues below -slack, lo and hi
        base, n_lo, n_hi = _below(diag - np.array([[-slack], [lo], [hi]]),
                                  off).tolist()
        target = base + index
        if not n_lo < target <= n_hi:
            raise ArithmeticError(
                f"mode {index} is outside ({lo:.17g}, {hi:.17g}]")
        while n_hi - n_lo > 1 or (vec := rayleigh(sine)) is None:
            if not halve():
                raise ArithmeticError(
                    f"mode {index} has no certified vector in ({lo:.17g}, "
                    f"{hi:.17g}], and no float splits that")
    omega = math.sqrt(quotient(vec))
    u = np.zeros(profile.n_grid)
    u[1:-1] = vec / root_w
    u /= np.sqrt(np.trapezoid(profile.L0 * u * u, x))
    if u[1] < 0.0:
        u = -u
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
    u2 = mode.u * mode.u  # products: NumPy's pow is slower, its bits vary
    u4 = u2 * u2
    u4_dl, u2_r0, u4_dr = (float(np.trapezoid(f, profile.x)) for f in (
        u4 * profile.dL, u2 * profile.R0, u4 * profile.dR))
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

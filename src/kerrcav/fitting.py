"""Least-squares extraction of device parameters from measured curves.

The observables that identify the model are the pump reflection magnitude
versus pump frequency (optionally at several drive amplitudes: a single
curve leaves the rates weakly constrained) and, optionally, the zero-offset
intermodulation gain.  The forward model (:func:`_model`, shared by the fit
and the predict functions, so they give the same bits) takes the settled
photon number E of all data rows in one batched pass (:func:`steady._settle`,
which builds no record), and both observables are closed forms in E
(:func:`_jacobian` gives them and differentiates them).  :func:`run_fit`
is a Levenberg-Marquardt loop over parameters projected onto where
:func:`model.validate` holds; a step costs one model pass per evaluation,
one Jacobian per accepted point and one ``lstsq`` per trial.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .jsonfile import ConfigError, _floats, _header, _number, _read_config
from .model import DeviceParams, validate
from .smallsignal import _gains
from .steady import (UndefinedForZeroDrive, _coefficients, _h,
                     _reflection_modulus, _rows, _settle)
from .sweeps import load_device

FREE_NAMES = ("omega0", "kerr", "gamma1", "gamma2", "gamma3")
MAX_EVALUATIONS = 100_000
FTOL = XTOL = GTOL = 1e-8  # the stopping tests of SciPy's least_squares
MU_START = 1e-9  # the damping of a Gauss-Newton step, to rounding


class NonConvergence(RuntimeError):
    """The fit spent its evaluation budget, met an undefined model where it
    needed a defined one or stopped short of its tolerances; ``best`` holds
    the best-so-far fit (with a NaN ``rms_residual`` if the model was
    undefined at the initial guess)."""

    def __init__(self, best: "FitResult"):
        self.best = best
        super().__init__(
            f"no convergence after {best.n_evaluations} evaluations "
            f"(best rms residual {best.rms_residual:.3e})")


@dataclass(frozen=True)
class FitProblem:
    """Data and search space for a parameter fit.

    ``refl_data`` rows are (omega_p, b1_in, |reflection|); ``gain_data``
    rows, optional, are (omega_p, b1_in, G_I at zero offset).  ``initial``
    provides starting values for the free parameters and fixed values for
    the rest.  Bounds are inclusive; intersected with the domain that
    :func:`validate` accepts, each must contain the parameter's initial or
    fixed value, and a free parameter's more than one point.
    """

    initial: DeviceParams
    free: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    refl_data: tuple[tuple[float, float, float], ...]
    gain_data: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        for i, name in enumerate(self.free):
            if name not in FREE_NAMES:
                raise ConfigError(f"fit.free.{name}",
                                  f"unknown parameter (choose from {FREE_NAMES})")
            if name in self.free[:i]:
                raise ConfigError(f"fit.free[{i}]",
                                  f"parameter {name!r} is already free")
        if not self.free:
            raise ConfigError("fit.free", "no free parameters")
        for name in self.bounds:
            if name not in FREE_NAMES:
                raise ConfigError(f"fit.bounds.{name}",
                                  f"unknown parameter (choose from {FREE_NAMES})")
        if len(self.refl_data) + len(self.gain_data) < 5:
            raise ConfigError("fit.refl_data", "need at least 5 data points")
        for name in dict.fromkeys((*self.free, *self.bounds)):
            lo, hi = self.search_bounds(name)
            x0 = getattr(self.initial, name)
            role = "initial" if name in self.free else "fixed"
            if not lo <= x0 <= hi:
                raise ConfigError(f"fit.bounds.{name}", f"{role} value "
                                  f"{x0!r} outside [{lo!r}, {hi!r}]")
            if lo == hi and name in self.free:
                raise ConfigError(f"fit.bounds.{name}",
                                  f"empty range [{lo!r}, {hi!r}]: fix the "
                                  "parameter instead of freeing it")

    def search_bounds(self, name: str) -> tuple[float, float]:
        """The user's bounds on ``name`` cut to the closed hull of what
        :func:`validate` accepts: omega0 > 0 and the rates >= 0."""
        lo, hi = self.bounds.get(name, (-math.inf, math.inf))
        return (lo if name == "kerr" else max(lo, 0.0)), hi


@dataclass(frozen=True)
class FitResult:
    params: DeviceParams
    rms_residual: float
    n_evaluations: int
    converged: bool


def _model(params: DeviceParams, omega_p, b1_in, n_refl):
    """(settled E, model values) at the drives (1-D arrays of one length):
    |reflection| on the first ``n_refl`` rows (UndefinedForZeroDrive if one
    has zero drive), G_I(0) on the rest."""
    if np.count_nonzero(b1_in[:n_refl] == 0.0):
        raise UndefinedForZeroDrive("reflection coefficient needs b_in > 0")
    energy = _settle(params, omega_p, b1_in)[0]
    delta = params.omega0 - omega_p
    values = _reflection_modulus(params, energy[:n_refl], delta[:n_refl])
    # the gain pass costs tens of microseconds even on no rows
    if n_refl < energy.size:
        values = np.concatenate([values, _gains(
            params, energy[n_refl:], delta[n_refl:], 0.0)[1]])
    return energy, values


def _predict(params, omega_p, b1_in, refl):
    """:func:`_model` on all rows as one observable, a float for scalar
    drives."""
    w, b = _rows(omega_p, b1_in)
    values = _model(params, w, b, w.size if refl else 0)[1]
    if np.ndim(omega_p) == 0 and np.ndim(b1_in) == 0:
        return float(values[0])
    return values


def predict_reflection(params: DeviceParams, omega_p, b1_in):
    """|reflection| on the lowest-energy stable branch.

    ``omega_p`` and ``b1_in`` are scalars or 1-D arrays of one length; an
    array in gives an array out, scalars a float.  |r| = |z - 2 gamma1| /
    |z| depends on E alone, so the drive phase does not enter.

    Raises
    ------
    UndefinedForZeroDrive
        If any ``b1_in`` is zero.
    """
    return _predict(params, omega_p, b1_in, True)


def predict_gain(params: DeviceParams, omega_p, b1_in):
    """Zero-offset intermodulation gain on the lowest-energy stable branch.

    Takes scalars or arrays as :func:`predict_reflection` does; all drives
    are evaluated in one batched pass.
    """
    return _predict(params, omega_p, b1_in, False)


# The partials of (delta, kerr, gamma, gamma3, gamma1), delta = omega0 -
# omega_p and gamma = gamma1 + gamma2, by each free parameter, cached as rows.
_PARTIALS = {"omega0": (1, 0, 0, 0, 0), "kerr": (0, 1, 0, 0, 0),
             "gamma1": (0, 0, 1, 0, 1), "gamma2": (0, 0, 1, 0, 0),
             "gamma3": (0, 0, 0, 1, 0)}
_partials = functools.lru_cache(lambda free: tuple(
    np.array([_PARTIALS[n] for n in free], dtype=float).T))


def _jacobian(params: DeviceParams, energy, omega_p, b_in, free,
              n_refl) -> np.ndarray:
    """Derivatives of the model values of :func:`_model` at the settled
    photon numbers ``energy`` of the drives (``omega_p``, ``b_in``) with
    respect to the ``free`` parameters, one column each: |reflection| on
    the first ``n_refl`` rows, the zero-offset gain on the rest.

    The photon number solves h(E) = c3 E^3 + c2 E^2 + c1 E = 2 gamma1 b^2,
    so dE = (d(2 gamma1 b^2) - dh at fixed E) / h'(E).  With A = gamma +
    gamma3 E and B = delta + K E (:func:`steady._h` gives both with h'),
    |r|^2 = ((A - 2 gamma1)^2 + B^2) / (A^2 + B^2); and the resolvent at
    zero offset is D(0) = h'(E), so G_I(0) = 4 c3 q^2 with q = gamma1 E /
    h'(E).  Entries are non-finite at a fold (h' = 0) and where |r| = 0.
    """
    dd, dk, dg, dg3, dg1 = _partials(tuple(free))
    k, g3, g, g1 = params.kerr, params.gamma3, params.gamma, params.gamma1
    e, b = energy[:, None], b_in[:, None]
    delta = (params.omega0 - omega_p)[:, None]
    with np.errstate(all="ignore"):
        dc3 = 2.0 * (k * dk + g3 * dg3)
        dc2 = 2.0 * (dd * k + delta * dk + dg * g3 + g * dg3)
        dc1 = 2.0 * (delta * dd + g * dg)
        _, slope, bb, a = _h(e, delta, k, g3, g)
        de = (2.0 * b * b * dg1 - e * (dc1 + e * (dc2 + e * dc3))) / slope

        er, der, a, bb = e[:n_refl], de[:n_refl], a[:n_refl], bb[:n_refl]
        u = a - 2.0 * g1
        da = dg + dg3 * er + g3 * der
        db = dd + dk * er + k * der
        m = a * a + bb * bb
        r2 = (u * u + bb * bb) / m
        refl = (u * (da - 2.0 * dg1) + bb * db - r2 * (a * da + bb * db)) \
            / (np.sqrt(r2) * m)
        if n_refl == len(e):
            # the gain block costs tens of microseconds even on no rows
            return refl

        e, de, slope, delta, dc1, dc2 = (
            x[n_refl:] for x in (e, de, slope, delta, dc1, dc2))
        c3, c2, _ = _coefficients(delta, k, g3, g)
        q = g1 * e / slope
        dslope = dc1 + e * (2.0 * dc2 + 3.0 * dc3 * e) \
            + (2.0 * c2 + 6.0 * c3 * e) * de
        dq = (dg1 * e + g1 * de - q * dslope) / slope
        gain = 4.0 * q * (dc3 * q + 2.0 * c3 * dq)
    return np.concatenate([refl, gain])


def run_fit(problem: FitProblem, max_evaluations: int = MAX_EVALUATIONS) -> FitResult:
    """Least-squares fit of the free parameters to the data rows.

    Levenberg-Marquardt (Moré, LNM 630, 1978) on the parameters z divided
    by their initial values: each step p solves [J; sqrt(mu) D] p = [-r; 0]
    by least squares, D the column norms of J (Marquardt's scaling, never
    shrinking, as in Moré), and the trial point z + p is clipped to the
    search bounds (Kanzow, Yamashita & Fukushima, J. Comput. Appl. Math.
    172 (2004) 375).  A trial point that lowers the cost is accepted and
    mu follows Nielsen's update (IMM-REP-1999-05), never below MU_START;
    any other, one where the model is undefined (a zero drive, an
    overflow) too, is rejected and raises mu.  It has converged when the
    projected gradient J^T r falls below GTOL, or a trial step lowers the
    cost by less than FTOL of it (at a gain ratio above 1/4) or moves z by
    less than XTOL (XTOL + |z|): SciPy's ``least_squares`` defaults.  On
    criterion 8's noisy data it agrees with that function's ``trf`` method
    to 1e-5 relative.  Identical inputs give identical fits.

    A step pays one :func:`_model` pass per evaluation, one :func:`_jacobian`
    (from that pass's energies) per accepted point and one ``lstsq`` per trial,
    on a system allocated once per fit whose damping block alone a trial
    rewrites; ``n_evaluations`` counts model passes.  Returns the last accepted
    point, the best evaluated.  Raises :class:`NonConvergence` (carrying the
    best-so-far result) if the budget is spent first, if the model is undefined
    at the initial guess, if the Jacobian is not finite (at a fold, or where
    |reflection| = 0) or if the damping overflows.
    """
    names = problem.free
    x0 = np.array([getattr(problem.initial, n) for n in names], dtype=float)
    scale = np.where(x0 != 0.0, np.abs(x0), 1.0)
    lo, hi = np.array([problem.search_bounds(n) for n in names]).T / scale
    omega_p, b1_in, observed = np.array(
        [*problem.refl_data, *problem.gain_data], dtype=float).T.copy()
    n_refl, m, n = len(problem.refl_data), observed.size, x0.size
    # [J; sqrt(mu) D] and [-r; 0], with views of J and of D's diagonal
    system, rhs = np.zeros((m + n, n)), np.zeros(m + n)
    jac, damping = system[:m], system[m:].reshape(-1)[::n + 1]
    evaluations = 0

    def evaluate(z):
        # (parameters, settled energies, residuals), None where undefined
        nonlocal evaluations
        evaluations += 1
        params = replace(problem.initial,
                         **dict(zip(names, (z * scale).tolist())))
        try:
            if validate(params).ok:
                energy, model = _model(params, omega_p, b1_in, n_refl)
                r = model - observed
                if np.isfinite(r).all():
                    return params, energy, r
        except (ArithmeticError, ValueError):
            pass
        return None

    z = x0 / scale
    point = evaluate(z)
    if point is None:
        raise NonConvergence(FitResult(problem.initial, math.nan, 1, False))
    mu, nu, d, stop = MU_START, 2.0, 0.0, False
    while True:
        params, energy, r = point
        ssr = float(np.dot(r, r))
        best = FitResult(params, math.sqrt(ssr / r.size), evaluations, stop)
        if stop:
            return best
        np.multiply(_jacobian(params, energy, omega_p, b1_in, names, n_refl),
                    scale, out=jac)
        if not np.isfinite(jac).all():
            raise NonConvergence(best)
        grad = r @ jac
        if np.abs(z - np.minimum(np.maximum(z - grad, lo), hi)).max() < GTOL:
            return replace(best, converged=True)
        d = np.maximum(d, np.sqrt(np.add.reduce(jac * jac)))
        np.negative(r, out=rhs[:m])
        grad2, z_norm = 2.0 * grad, math.sqrt(np.dot(z, z))
        while True:
            if evaluations >= max_evaluations or not math.isfinite(mu):
                raise NonConvergence(replace(best, n_evaluations=evaluations))
            np.multiply(d, math.sqrt(mu), out=damping)
            trial = np.minimum(np.maximum(
                z + np.linalg.lstsq(system, rhs)[0], lo), hi)
            new, step = evaluate(trial), trial - z
            if new is None:
                mu, nu = mu * nu, 2.0 * nu
                continue
            reduction = ssr - float(np.dot(new[2], new[2]))
            predicted = -float(grad2 @ step + np.square(jac @ step).sum())
            ratio = reduction / predicted if predicted > 0.0 else 0.0
            stop = bool(reduction < FTOL * ssr and ratio > 0.25
                        or math.sqrt(np.dot(step, step))
                        < XTOL * (XTOL + z_norm))
            if reduction > 0.0:
                z, point, nu = trial, new, 2.0
                mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3),
                         MU_START)
                break
            if stop:
                return replace(best, n_evaluations=evaluations, converged=True)
            mu, nu = mu * nu, 2.0 * nu


def load_fit_problem(data, base_dir=".") -> FitProblem:
    """Build a :class:`FitProblem` from a parsed ``fit`` block; a profile
    named by ``initial`` is found relative to ``base_dir``.  A ``psi1``
    must be a number, and is unused: the observables ignore the phase."""
    if not isinstance(data, dict):
        raise ConfigError("fit", "expected an object")
    initial = load_device(data.get("initial"), "fit.initial", base_dir)
    free = data.get("free")
    if not isinstance(free, list) or not free:
        raise ConfigError("fit.free", "expected a non-empty list")
    raw_bounds = data.get("bounds", {})
    if not isinstance(raw_bounds, dict):
        raise ConfigError("fit.bounds", "expected an object")
    bounds = {}
    for name, pair in raw_bounds.items():
        where = f"fit.bounds.{name}"
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise ConfigError(where, "expected [lo, hi]")
        bounds[name] = (_number(pair[0], f"{where}[0]"),
                        _number(pair[1], f"{where}[1]"))

    def rows(key):
        raw = data.get(key, [])
        if not isinstance(raw, list):
            raise ConfigError(f"fit.{key}", "expected a list")
        # the cells before the first malformed row, checked in one pass
        bad = next((i for i, row in enumerate(raw)
                    if not isinstance(row, list) or len(row) != 3), len(raw))
        cells = _floats([v for row in raw[:bad] for v in row],
                        lambda j: f"fit.{key}[{j // 3}][{j % 3}]")
        if bad < len(raw):
            raise ConfigError(f"fit.{key}[{bad}]",
                              "expected [omega_p, b1_in, value]")
        return tuple(zip(cells[0::3], cells[1::3], cells[2::3]))

    refl_data, gain_data = rows("refl_data"), rows("gain_data")
    _number(data.get("psi1", 0.0), "fit.psi1")
    return FitProblem(initial=initial, free=tuple(free), bounds=bounds,
                      refl_data=refl_data, gain_data=gain_data)


def load_fit_file(path) -> FitProblem:
    """:func:`load_fit_problem` of the ``fit`` block of the fit file at
    ``path`` (a sweep config's header; profiles found next to it), with
    the drive rule: ``b1_in`` >= 0, and > 0 in a reflection row, where the
    reflection is defined; a ConfigError names the first bad cell.  A
    :class:`FitProblem` built in Python is not checked: a zero reflection
    drive makes :func:`run_fit` raise :class:`NonConvergence` at the
    initial guess, and a negative drive fits as its magnitude does, since
    the model reads only P = 2 gamma1 b1_in^2."""
    data, base_dir = _read_config(path)
    problem = load_fit_problem(_header(data).get("fit"), base_dir)
    for key, sign in (("refl_data", ">"), ("gain_data", ">=")):
        for i, (_, b1_in, _) in enumerate(getattr(problem, key)):
            if b1_in < 0.0 or (sign == ">" and b1_in == 0.0):
                raise ConfigError(f"fit.{key}[{i}][1]",
                                  f"b1_in must be {sign} 0 (got {b1_in!r})")
    return problem

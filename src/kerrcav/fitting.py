"""Least-squares extraction of device parameters from measured curves.

The observables that identify the model are the pump reflection magnitude
versus pump frequency (optionally at several drive amplitudes: a single
curve leaves the rates weakly constrained) and, optionally, the zero-offset
intermodulation gain.  The forward model evaluates the lowest-energy stable
branch, matching how a slowly swept measurement settles, for all data rows
in one batched pass (:func:`steady.settled_states`).  The solver is SciPy's
trust-region least squares (``trf``) on the residual vector, over
parameters rescaled by the initial guess and bounded to where
:func:`model.validate` holds, with an analytic Jacobian: the photon number
on the settled branch solves the pump cubic, so its derivatives follow from
the implicit function theorem, and both observables are closed forms in it.
The forward G_I(0) is :func:`smallsignal.gains_array` at zero offset,
4 gamma1^2 (K^2 + gamma3^2) E^2 / h'(E)^2 since D(0) = h'(E): the formula
the Jacobian differentiates.
The Jacobian at a point reuses the settled states of the model evaluation
there, so ``n_evaluations`` and the evaluation budget count model
evaluations only; the solver is deterministic, so identical inputs give
identical fits.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import DeviceParams, validate
from .smallsignal import gains_array
from .steady import _h, settled_states
from .sweeps import ConfigError, _number, load_device

FREE_NAMES = ("omega0", "kerr", "gamma1", "gamma2", "gamma3")
MAX_EVALUATIONS = 100_000


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
    :func:`validate` accepts, each must contain the initial guess and more
    than one point.
    """

    initial: DeviceParams
    free: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    refl_data: tuple[tuple[float, float, float], ...]
    gain_data: tuple[tuple[float, float, float], ...] = ()
    psi1: float = 0.0

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
        if len(self.refl_data) + len(self.gain_data) < 5:
            raise ConfigError("fit.refl_data", "need at least 5 data points")
        for name in self.free:
            lo, hi = self.search_bounds(name)
            x0 = getattr(self.initial, name)
            if not lo <= x0 <= hi:
                raise ConfigError(f"fit.bounds.{name}",
                                  f"initial value {x0!r} outside [{lo!r}, {hi!r}]")
            if lo == hi:
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


def _scalar_or_array(values, omega_p, b1_in):
    if np.ndim(omega_p) == 0 and np.ndim(b1_in) == 0:
        return float(values[0])
    return values


def predict_reflection(params: DeviceParams, omega_p, b1_in, psi1=0.0):
    """|reflection| on the lowest-energy stable branch.

    ``omega_p`` and ``b1_in`` are scalars or 1-D arrays of one length; an
    array in gives an array out, scalars a float.

    Raises
    ------
    UndefinedForZeroDrive
        If any ``b1_in`` is zero.
    """
    batch = settled_states(params, omega_p, b1_in, psi1)
    return _scalar_or_array(batch.reflection_magnitude(), omega_p, b1_in)


def predict_gain(params: DeviceParams, omega_p, b1_in, psi1=0.0):
    """Zero-offset intermodulation gain on the lowest-energy stable branch.

    Takes scalars or arrays as :func:`predict_reflection` does; all drives
    are evaluated in one batched pass.
    """
    batch = settled_states(params, omega_p, b1_in, psi1)
    return _scalar_or_array(gains_array(params, batch, 0.0)[1], omega_p, b1_in)


# The partials of (delta, kerr, gamma, gamma3, gamma1) with respect to each
# free parameter, where delta = omega0 - omega_p and gamma = gamma1 + gamma2.
_PARTIALS = {"omega0": (1, 0, 0, 0, 0), "kerr": (0, 1, 0, 0, 0),
             "gamma1": (0, 0, 1, 0, 1), "gamma2": (0, 0, 1, 0, 0),
             "gamma3": (0, 0, 0, 1, 0)}


def _jacobian(params: DeviceParams, states, free, n_refl) -> np.ndarray:
    """Derivatives of the model values at the settled ``states`` with
    respect to the ``free`` parameters, one column each: |reflection| on
    the first ``n_refl`` entries, the zero-offset gain on the rest.

    The photon number solves h(E) = c3 E^3 + c2 E^2 + c1 E = 2 gamma1 b^2,
    so dE = (d(2 gamma1 b^2) - dh at fixed E) / h'(E).  With A = gamma +
    gamma3 E and B = delta + K E, |r|^2 = ((A - 2 gamma1)^2 + B^2) /
    (A^2 + B^2); and the resolvent at zero offset is D(0) = h'(E), so
    G_I(0) = 4 c3 q^2 with q = gamma1 E / h'(E).  Entries are non-finite at
    a fold (h' = 0) and where |r| = 0.
    """
    dd, dk, dg, dg3, dg1 = np.array([_PARTIALS[n] for n in free],
                                    dtype=float).T
    k, g3, g, g1 = params.kerr, params.gamma3, params.gamma, params.gamma1
    e = states.energy[:, None]
    b = states.b_in[:, None]
    delta = (params.omega0 - states.omega_p)[:, None]
    with np.errstate(all="ignore"):
        c3 = k * k + g3 * g3
        c2 = 2.0 * (delta * k + g * g3)
        dc3 = 2.0 * (k * dk + g3 * dg3)
        dc2 = 2.0 * (dd * k + delta * dk + dg * g3 + g * dg3)
        dc1 = 2.0 * (delta * dd + g * dg)
        slope = _h(e, delta, k, g3, g)[1]
        de = (2.0 * b * b * dg1 - e * (dc1 + e * (dc2 + e * dc3))) / slope

        a = g + g3 * e
        u = a - 2.0 * g1
        bb = delta + k * e
        da = dg + dg3 * e + g3 * de
        db = dd + dk * e + k * de
        m = a * a + bb * bb
        r2 = (u * u + bb * bb) / m
        refl = (u * (da - 2.0 * dg1) + bb * db - r2 * (a * da + bb * db)) \
            / (np.sqrt(r2) * m)

        q = g1 * e / slope
        dslope = dc1 + e * (2.0 * dc2 + 3.0 * dc3 * e) \
            + (2.0 * c2 + 6.0 * c3 * e) * de
        dq = (dg1 * e + g1 * de - q * dslope) / slope
        gain = 4.0 * q * (dc3 * q + 2.0 * c3 * dq)
    return np.concatenate([refl[:n_refl], gain[n_refl:]])


def run_fit(problem: FitProblem, max_evaluations: int = MAX_EVALUATIONS) -> FitResult:
    """Least-squares fit of the free parameters to the data rows.

    Returns the best evaluated parameters with their RMS residual.  The
    Jacobian is analytic (:func:`_jacobian`) and reuses the settled states
    of the model evaluation at its point, so ``n_evaluations`` and
    ``max_evaluations`` count model evaluations only.  A trial point where
    the model is undefined (a zero drive, an overflow) gets infinite
    residuals, on which the solver shrinks its trust region.  Raises
    :class:`NonConvergence` (carrying the best-so-far result) if the
    evaluation budget is exhausted first, if the model is undefined at the
    initial guess, if the Jacobian is not finite (at a fold, or where
    |reflection| = 0) or if the solver stops short of its tolerances.
    """
    # imported here: SciPy's optimizer takes longer to import than the
    # sweeps take to run
    from scipy.optimize import least_squares

    names = problem.free
    x0 = np.array([getattr(problem.initial, n) for n in names], dtype=float)
    scale = np.where(x0 != 0.0, np.abs(x0), 1.0)
    lo, hi = np.array([problem.search_bounds(n) for n in names]).T / scale
    refl = np.array(problem.refl_data, dtype=float).reshape(-1, 3)
    gain = np.array(problem.gain_data, dtype=float).reshape(-1, 3)
    rows = np.concatenate([refl, gain])
    observed = rows[:, 2]
    n_refl = len(refl)
    evaluations = 0
    best = FitResult(problem.initial, math.nan, 0, False)
    # the last point where the model was defined, with its parameters and
    # settled states
    last = (None, None, None)

    def residuals(z):
        nonlocal evaluations, best, last
        if evaluations == max_evaluations:
            raise NonConvergence(replace(best, n_evaluations=evaluations))
        evaluations += 1
        params = replace(problem.initial,
                         **dict(zip(names, (z * scale).tolist())))
        r = np.nan
        try:
            if validate(params).ok:
                states = settled_states(params, rows[:, 0], rows[:, 1],
                                        problem.psi1)
                model = states.take(slice(n_refl)).reflection_magnitude()
                # the gain pass costs tens of microseconds even on no rows
                if len(gain):
                    model = np.concatenate([model, gains_array(
                        params, states.take(slice(n_refl, None)), 0.0)[1]])
                r = model - observed
        except (ArithmeticError, ValueError):
            pass
        if not np.all(np.isfinite(r)):
            if math.isnan(best.rms_residual):
                # the initial guess: no defined point to fall back on
                raise NonConvergence(replace(best, n_evaluations=evaluations))
            return np.full(observed.size, np.inf)
        last = (z.copy(), params, states)
        rms = math.sqrt(float(np.dot(r, r)) / r.size)
        if not rms >= best.rms_residual:
            best = FitResult(params, rms, evaluations, False)
        return r

    def jacobian(z):
        # TRF asks for the Jacobian only at the point it evaluated last,
        # and only after accepting it, so the model is defined there
        point, params, states = last
        jac = _jacobian(params, states, names, n_refl) * scale
        if not (np.array_equal(point, z) and np.all(np.isfinite(jac))):
            raise NonConvergence(replace(best, n_evaluations=evaluations))
        return jac

    # max_nfev lifts SciPy's own cap of 100 evaluations per free parameter
    result = least_squares(residuals, x0 / scale, bounds=(lo, hi),
                           method="trf", jac=jacobian, x_scale="jac",
                           max_nfev=max_evaluations)
    fit = replace(best, n_evaluations=evaluations,
                  converged=bool(result.success))
    if not fit.converged:
        raise NonConvergence(fit)
    return fit


def load_fit_problem(data, path="fit", base_dir=".") -> FitProblem:
    """Build a :class:`FitProblem` from a parsed JSON config block; a
    profile named by ``initial`` is found relative to ``base_dir``."""
    if not isinstance(data, dict):
        raise ConfigError(path, "expected an object")
    initial = load_device(data.get("initial"), f"{path}.initial", base_dir)
    free = data.get("free")
    if not isinstance(free, list) or not free:
        raise ConfigError(f"{path}.free", "expected a non-empty list")
    raw_bounds = data.get("bounds", {})
    if not isinstance(raw_bounds, dict):
        raise ConfigError(f"{path}.bounds", "expected an object")
    bounds = {}
    for name, pair in raw_bounds.items():
        where = f"{path}.bounds.{name}"
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise ConfigError(where, "expected [lo, hi]")
        bounds[name] = (_number(pair[0], f"{where}[0]"),
                        _number(pair[1], f"{where}[1]"))

    def rows(key):
        raw = data.get(key, [])
        if not isinstance(raw, list):
            raise ConfigError(f"{path}.{key}", "expected a list")
        out = []
        for i, row in enumerate(raw):
            where = f"{path}.{key}[{i}]"
            if (not isinstance(row, list)) or len(row) != 3:
                raise ConfigError(where, "expected [omega_p, b1_in, value]")
            out.append(tuple(_number(v, f"{where}[{j}]")
                             for j, v in enumerate(row)))
        return tuple(out)

    return FitProblem(initial=initial, free=tuple(free), bounds=bounds,
                      refl_data=rows("refl_data"), gain_data=rows("gain_data"),
                      psi1=_number(data.get("psi1", 0.0), f"{path}.psi1"))


def check_drives(problem: FitProblem, path="fit") -> None:
    """Reject data rows whose drive leaves the model undefined.

    ``b1_in`` is an amplitude, so it must be >= 0, and a reflection row
    needs it > 0: the reflection is undefined at zero drive.  The CLI
    applies this to fit files; a :class:`FitProblem` built in Python is not
    checked, and a fit on such rows raises :class:`NonConvergence`.

    Raises
    ------
    ConfigError
        Naming the first offending cell, e.g. ``fit.refl_data[3][1]``.
    """
    for key, rows, positive in (("refl_data", problem.refl_data, True),
                                ("gain_data", problem.gain_data, False)):
        for i, (_, b1_in, _) in enumerate(rows):
            if b1_in < 0.0 or (positive and b1_in == 0.0):
                raise ConfigError(f"{path}.{key}[{i}][1]",
                                  f"b1_in must be {'>' if positive else '>='}"
                                  f" 0 (got {b1_in!r})")

"""Least-squares extraction of device parameters from measured curves.

The observables that identify the model are the pump reflection magnitude
versus pump frequency (optionally at several drive amplitudes: a single
curve leaves the rates weakly constrained) and, optionally, the zero-offset
intermodulation gain.  The forward model evaluates the lowest-energy stable
branch, matching how a slowly swept measurement settles, for all data rows
in one batched pass (:func:`steady.settled_states`).  Minimization is
Nelder-Mead on parameters rescaled by the initial guess, with a fixed
simplex initialization so identical problems give identical fits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .floatops import libm
from .model import DeviceParams, validate
from .smallsignal import transfer_coefficients_array
from .steady import settled_states
from .sweeps import ConfigError, _number, load_device

FREE_NAMES = ("omega0", "kerr", "gamma1", "gamma2", "gamma3")
MAX_EVALUATIONS = 100_000
# Objective value for parameters at which the model is invalid or undefined.
PENALTY = 1e30


class NonConvergence(RuntimeError):
    """Minimizer hit the evaluation budget, or the model was undefined at
    every evaluated point; ``best`` holds the best-so-far fit."""

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
    the rest.  Bounds are inclusive and must contain the initial guess.
    """

    initial: DeviceParams
    free: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    refl_data: tuple[tuple[float, float, float], ...]
    gain_data: tuple[tuple[float, float, float], ...] = ()
    psi1: float = 0.0

    def __post_init__(self):
        for name in self.free:
            if name not in FREE_NAMES:
                raise ConfigError(f"fit.free.{name}",
                                  f"unknown parameter (choose from {FREE_NAMES})")
        if not self.free:
            raise ConfigError("fit.free", "no free parameters")
        if len(self.refl_data) + len(self.gain_data) < 5:
            raise ConfigError("fit.refl_data", "need at least 5 data points")
        for name in self.free:
            lo, hi = self.bounds.get(name, (-math.inf, math.inf))
            x0 = getattr(self.initial, name)
            if not lo <= x0 <= hi:
                raise ConfigError(f"fit.bounds.{name}",
                                  f"initial value {x0!r} outside [{lo!r}, {hi!r}]")


@dataclass(frozen=True)
class FitResult:
    params: DeviceParams
    rms_residual: float
    n_evaluations: int
    converged: bool


def _with_values(base: DeviceParams, names, values) -> DeviceParams:
    fields = {n: getattr(base, n) for n in FREE_NAMES}
    fields.update(zip(names, values))
    return DeviceParams(phi1=base.phi1, phi2=base.phi2, phi3=base.phi3, **fields)


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
    _, gains = transfer_coefficients_array(params, batch, 0.0,
                                           ports=("refl",)).gains()
    return _scalar_or_array(gains, omega_p, b1_in)


def run_fit(problem: FitProblem, max_evaluations: int = MAX_EVALUATIONS) -> FitResult:
    """Minimize the sum of squared residuals over the free parameters.

    Returns the fitted parameters with the final RMS residual.  Raises
    :class:`NonConvergence` (carrying the best-so-far result) if the
    evaluation budget is exhausted first, or if the best objective value is
    still the penalty, so that no evaluated point had a defined model.
    """
    # imported here: SciPy's optimizer takes longer to import than the
    # sweeps take to run
    from scipy.optimize import minimize

    names = problem.free
    x0 = np.array([getattr(problem.initial, n) for n in names], dtype=float)
    scale = np.where(x0 != 0.0, np.abs(x0), 1.0)
    scaled_bounds = []
    for n, s in zip(names, scale):
        lo, hi = problem.bounds.get(n, (-math.inf, math.inf))
        scaled_bounds.append((lo / s, hi / s))
    n_data = len(problem.refl_data) + len(problem.gain_data)
    refl = np.array(problem.refl_data, dtype=float).reshape(-1, 3)
    gain = np.array(problem.gain_data, dtype=float).reshape(-1, 3)
    observed = np.concatenate([refl[:, 2], gain[:, 2]])

    def objective(z):
        params = _with_values(problem.initial, names, z * scale)
        if not validate(params).ok:
            return PENALTY
        predicted = []
        try:
            if len(refl):
                predicted.append(predict_reflection(
                    params, refl[:, 0], refl[:, 1], problem.psi1))
            if len(gain):
                predicted.append(predict_gain(
                    params, gain[:, 0], gain[:, 1], problem.psi1))
        except (ArithmeticError, ValueError):
            return PENALTY
        predicted = np.concatenate(predicted)
        if not np.all(np.isfinite(predicted)):
            return PENALTY
        # the squared residuals as a running total in row order
        squares = libm(math.pow, predicted - observed, 2.0)
        return float(np.cumsum(squares)[-1])

    result = minimize(objective, x0 / scale, method="Nelder-Mead",
                      bounds=scaled_bounds,
                      options=dict(maxfev=max_evaluations, maxiter=max_evaluations,
                                   xatol=1e-10, fatol=1e-16))
    fitted = _with_values(problem.initial, names, result.x * scale)
    fit = FitResult(params=fitted,
                    rms_residual=math.sqrt(max(result.fun, 0.0) / n_data),
                    n_evaluations=int(result.nfev),
                    converged=bool(result.success and result.fun < PENALTY))
    if not fit.converged:
        raise NonConvergence(fit)
    return fit


def load_fit_problem(data, path="fit") -> FitProblem:
    """Build a :class:`FitProblem` from a parsed JSON config block."""
    if not isinstance(data, dict):
        raise ConfigError(path, "expected an object")
    initial = load_device(data.get("initial"), f"{path}.initial")
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

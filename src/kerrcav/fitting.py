"""Least-squares extraction of device parameters from measured curves.

The observables that identify the model are the pump reflection magnitude
versus pump frequency (optionally at several drive amplitudes: a single
curve leaves the rates weakly constrained) and, optionally, the zero-offset
intermodulation gain.  The forward model evaluates the lowest-energy stable
branch, matching how a slowly swept measurement settles.  Minimization is
Nelder-Mead on parameters rescaled by the initial guess, with a fixed
simplex initialization so identical problems give identical fits.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .model import DeviceParams, PumpDrive, validate
from .smallsignal import intermodulation_gain
from .steady import reflection_coefficient, settled_state
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


def predict_reflection(params: DeviceParams, omega_p: float, b1_in: float,
                       psi1: float = 0.0) -> float:
    """|reflection| on the lowest-energy stable branch."""
    drive = PumpDrive(omega_p=omega_p, amplitude=b1_in, phase=psi1)
    return abs(reflection_coefficient(settled_state(params, drive), drive))


def predict_gain(params: DeviceParams, omega_p: float, b1_in: float,
                 psi1: float = 0.0) -> float:
    """Zero-offset intermodulation gain on the lowest-energy stable branch."""
    drive = PumpDrive(omega_p=omega_p, amplitude=b1_in, phase=psi1)
    return intermodulation_gain(params, settled_state(params, drive), drive, 0.0)


def run_fit(problem: FitProblem, max_evaluations: int = MAX_EVALUATIONS) -> FitResult:
    """Minimize the sum of squared residuals over the free parameters.

    Returns the fitted parameters with the final RMS residual.  Raises
    :class:`NonConvergence` (carrying the best-so-far result) if the
    evaluation budget is exhausted first, or if the best objective value is
    still the penalty, so that no evaluated point had a defined model.
    """
    names = problem.free
    x0 = np.array([getattr(problem.initial, n) for n in names], dtype=float)
    scale = np.where(x0 != 0.0, np.abs(x0), 1.0)
    scaled_bounds = []
    for n, s in zip(names, scale):
        lo, hi = problem.bounds.get(n, (-math.inf, math.inf))
        scaled_bounds.append((lo / s, hi / s))
    n_data = len(problem.refl_data) + len(problem.gain_data)

    def objective(z):
        params = _with_values(problem.initial, names, z * scale)
        if not validate(params).ok:
            return PENALTY
        total = 0.0
        try:
            for omega_p, b1_in, observed in problem.refl_data:
                total += (predict_reflection(params, omega_p, b1_in, problem.psi1)
                          - observed) ** 2
            for omega_p, b1_in, observed in problem.gain_data:
                predicted = predict_gain(params, omega_p, b1_in, problem.psi1)
                if not math.isfinite(predicted):
                    return PENALTY
                total += (predicted - observed) ** 2
        except (ArithmeticError, ValueError):
            return PENALTY
        return total

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

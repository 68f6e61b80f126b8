"""Simulation and analysis toolchain for Kerr-cavity parametric amplifiers.

Covers the classical pump response with bistability, the special operating
points of the pulled resonance, small-signal parametric and intermodulation
gain, homodyne squeezing spectra with thermal inputs, and the derivation of
the lumped model from a superconducting transmission-line profile.
"""

from .fitting import (FitProblem, FitResult, NonConvergence, load_fit_problem,
                      predict_gain, predict_reflection, run_fit)
from .jsonfile import ConfigError
from .model import (DeviceParams, DeviceValidation, PumpDrive, validate)
from .noise import (SqueezeResult, SqueezeResults, ThermalEnv,
                    lo_phase_extrema, lo_phase_extrema_array,
                    squeeze_columns, thermal_occupation)
from .operating import (CriticalPoint, critical_point, curve_omega_p,
                        instability_locus, max_curve_energy,
                        response_peak_detuning)
from .smallsignal import (SingularResponse, SmallSignalResponse, gains_array,
                          intermodulation_gain, linearize, parametric_gain,
                          transfer_coefficients)
from .steady import (BranchStates, DegenerateModel, SteadyState,
                     UndefinedForZeroDrive, branch_states, cubic_coefficients,
                     reflection_coefficient, settled_state, settled_states,
                     solve_pump_energy, steady_state, steady_states)
from .stripline import (LineProfile, ModeCoefficients, ModeSolution,
                        ResolutionError, SameModeError, cross_kerr,
                        derive_device, load_profile, mode_coefficients,
                        solve_mode, solve_modes)
from .sweeps import (SweepConfig, load_config, load_config_file, run_critical,
                     run_gain_sweep, run_line_derive, run_squeeze_sweep,
                     run_steady_sweep)
from .tableio import Table, format_float, parse_json, render, to_csv, to_json

__version__ = "0.1.0"

__all__ = [
    "BranchStates", "ConfigError", "CriticalPoint", "DegenerateModel",
    "DeviceParams", "DeviceValidation", "FitProblem", "FitResult",
    "LineProfile", "ModeCoefficients", "ModeSolution", "NonConvergence",
    "PumpDrive", "ResolutionError", "SameModeError", "SingularResponse",
    "SmallSignalResponse", "SqueezeResult", "SqueezeResults",
    "SteadyState", "SweepConfig", "Table", "ThermalEnv",
    "UndefinedForZeroDrive", "branch_states", "critical_point",
    "cross_kerr", "cubic_coefficients", "curve_omega_p", "derive_device",
    "format_float", "gains_array", "instability_locus",
    "intermodulation_gain", "linearize", "lo_phase_extrema",
    "lo_phase_extrema_array", "load_config", "load_config_file",
    "load_fit_problem", "load_profile", "max_curve_energy",
    "mode_coefficients", "parametric_gain", "parse_json", "predict_gain",
    "predict_reflection", "reflection_coefficient", "render",
    "response_peak_detuning", "run_critical", "run_fit", "run_gain_sweep",
    "run_line_derive", "run_squeeze_sweep", "run_steady_sweep",
    "settled_state", "settled_states", "solve_mode", "solve_modes",
    "solve_pump_energy", "squeeze_columns", "steady_state", "steady_states",
    "thermal_occupation", "to_csv", "to_json", "transfer_coefficients",
    "validate",
]

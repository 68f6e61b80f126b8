"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines on a green run."""

import json
import math
import time

import numpy as np
import pytest

from kerrcav import (DeviceParams, FitProblem, PumpDrive, ThermalEnv,
                     branch_states, critical_point, curve_omega_p,
                     instability_locus, lo_phase_extrema, max_curve_energy,
                     predict_reflection, run_fit, steady_states,
                     transfer_coefficients)
from kerrcav.cli import main as cli_main
from oracles import (brute_force_critical, fold_frequencies_from_root_count,
                     noise_power)

SQRT3 = math.sqrt(3.0)
COLD = ThermalEnv()

FIG_PARAMS = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01,
                          gamma2=1.1 * 0.01, gamma3=0.01e-4 / SQRT3)
SQUEEZE_PARAMS = DeviceParams(omega0=1.0, kerr=5.0, gamma1=1e-4, gamma2=0.0,
                              gamma3=0.0)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {number}: {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def settled(params, omega_p, amplitude):
    drive = PumpDrive(omega_p=omega_p, amplitude=amplitude)
    states = steady_states(params, drive)
    return next(s for s in states if s.stable), drive


def flat_slope_regions(params, amplitude, threshold=1e-6, n_grid=6000):
    """Connected E-regions where |d(omega_p)/dE| on the fold side is below
    the threshold, measured by finite differences along the curve."""
    drive = PumpDrive(omega_p=params.omega0, amplitude=amplitude)
    e_top = max_curve_energy(params, drive)
    energies = np.linspace(e_top * 1e-6, e_top * (1.0 - 1e-9), n_grid)
    side = 0 if params.kerr < 0.0 else 1
    omegas = np.array([curve_omega_p(params, drive, e)[side] for e in energies])
    slopes = np.diff(omegas) / np.diff(energies)
    flat = np.abs(slopes) < threshold
    regions = 0
    previous = False
    for value in flat:
        if value and not previous:
            regions += 1
        previous = value
    return regions


def test_criterion_1_fig2_reproduction():
    crit = critical_point(FIG_PARAMS)
    elapsed = 0.0
    grid = np.linspace(0.9, 1.005, 2000)

    def sweep_counts(amplitude):
        # branch counts per grid point, from one pass over the grid as the
        # steady-sweep command makes it
        states = branch_states(FIG_PARAMS, grid, amplitude)
        counts = np.zeros(grid.size, dtype=int)
        counts[states.row] = states.n_branches
        return counts.tolist()

    start = time.perf_counter()
    counts_half = sweep_counts(0.5 * crit.drive)
    counts_critical = sweep_counts(crit.drive)
    counts_double = sweep_counts(2.0 * crit.drive)
    elapsed = time.perf_counter() - start

    single_valued = set(counts_half) == {1} and set(counts_critical) == {1}

    tangency_regions = flat_slope_regions(FIG_PARAMS, crit.drive)
    locus_critical = instability_locus(
        FIG_PARAMS, PumpDrive(omega_p=1.0, amplitude=crit.drive))
    single_tangency = tangency_regions == 1 and len(locus_critical) == 1

    locus_double = instability_locus(
        FIG_PARAMS, PumpDrive(omega_p=1.0, amplitude=2.0 * crit.drive))
    transitions = fold_frequencies_from_root_count(FIG_PARAMS,
                                                   2.0 * crit.drive)
    window_ok = (3 in counts_double and len(locus_double) == 2
                 and len(transitions) == 2)
    endpoint_ok = window_ok and all(
        abs(a - b) <= 1e-8 * FIG_PARAMS.omega0
        for a, b in zip(sorted(w for w, _ in locus_double), transitions))

    runtime_ok = elapsed < 5.0
    report(1, single_valued and single_tangency and endpoint_ok and runtime_ok,
           f"0.5x single-valued={single_valued}, tangency regions="
           f"{tangency_regions}, fold-window endpoints match to "
           f"{max((abs(a - b) for a, b in zip(sorted(w for w, _ in locus_double), transitions)), default=math.nan):.2e}, "
           f"sweep time {elapsed:.2f}s")


def test_criterion_2_critical_formulas():
    crit = critical_point(FIG_PARAMS)
    amplitude, omega_p, energy = brute_force_critical(
        FIG_PARAMS, reference_amplitude=crit.drive)
    errs = (abs(amplitude - crit.drive) / crit.drive,
            abs(omega_p - crit.omega_p) / abs(crit.omega_p),
            abs(energy - crit.energy) / crit.energy)
    report(2, all(e <= 1e-6 for e in errs),
           f"brute-force vs closed form rel errors (b, omega_p, E) = "
           f"({errs[0]:.2e}, {errs[1]:.2e}, {errs[2]:.2e})")


def test_criterion_3_commutator_preservation():
    rng = np.random.default_rng(2024)
    worst = 0.0
    found = 0
    while found < 100:
        kerr = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-5.0, -3.0)
        params = DeviceParams(
            omega0=1.0, kerr=kerr,
            gamma1=10.0 ** rng.uniform(-3.0, -1.5),
            gamma2=10.0 ** rng.uniform(-3.0, -1.5),
            gamma3=rng.uniform(0.0, 2.0) * abs(kerr),
            phi1=rng.uniform(0.0, 2.0 * math.pi),
            phi2=rng.uniform(0.0, 2.0 * math.pi),
            phi3=rng.uniform(0.0, 2.0 * math.pi))
        drive = PumpDrive(
            omega_p=1.0 + rng.uniform(-5.0, 5.0) * params.gamma,
            amplitude=10.0 ** rng.uniform(-3.0, 0.0),
            phase=rng.uniform(0.0, 2.0 * math.pi))
        stable = [s for s in steady_states(params, drive) if s.stable]
        if not stable:
            continue
        state = stable[0]
        found += 1
        offsets = np.concatenate((
            [0.0], rng.uniform(-10.0, 10.0, 19) * params.gamma))
        for omega in offsets:
            resp = transfer_coefficients(params, state, drive, float(omega))
            worst = max(worst, abs(resp.commutator_sum() - 1.0))
    report(3, worst <= 1e-9,
           f"worst |sum - 1| over 100 stable points x 20 offsets = {worst:.2e}")


def test_criterion_4_lossless_squeezing_laws():
    crit = critical_point(SQUEEZE_PARAMS)
    worst_product = 0.0
    for frac in np.linspace(0.01, 0.99, 50):
        state, drive = settled(SQUEEZE_PARAMS, crit.omega_p, frac * crit.drive)
        ext = lo_phase_extrema(SQUEEZE_PARAMS, state, drive, COLD, 0.0)
        worst_product = max(worst_product, abs(ext.p_min * ext.p_max - 1.0))
    product_ok = worst_product <= 1e-9

    state, drive = settled(SQUEEZE_PARAMS, crit.omega_p, 0.999 * crit.drive)
    deep = lo_phase_extrema(SQUEEZE_PARAMS, state, drive, COLD, 0.0).p_min
    deep_ok = deep < 1e-2
    report(4, product_ok and deep_ok,
           f"max |p_min*p_max - 1| = {worst_product:.2e} over 50 drives; "
           f"p_min(0.999 b_c) = {deep:.2e}")


def test_criterion_5_two_photon_only_squeezing():
    gamma1 = 0.01
    gamma3 = 2e-3
    params = DeviceParams(omega0=1.0, kerr=0.0, gamma1=gamma1, gamma2=0.0,
                          gamma3=gamma3)

    def driven_min(energy):
        amp = math.sqrt(energy)
        drive = PumpDrive(omega_p=1.0,
                          amplitude=(gamma1 * amp + gamma3 * amp**3)
                          / math.sqrt(2.0 * gamma1))
        state = next(s for s in steady_states(params, drive) if s.stable)
        return lo_phase_extrema(params, state, drive, COLD, 0.0).p_min

    target = gamma1 / (3.0 * gamma3)
    at_target = driven_min(target)
    value_ok = abs(at_target - 2.0 / 3.0) <= 1e-6

    energies = np.linspace(0.7 * target, 1.3 * target, 121)
    values = [driven_min(e) for e in energies]
    best = energies[int(np.argmin(values))]
    scan_ok = abs(best - target) / target <= 0.01
    report(5, value_ok and scan_ok,
           f"P(0) at gamma1 = 3*gamma3*B^2: {at_target:.9f} (target 2/3); "
           f"scan minimum at B^2 = {best:.4f} vs {target:.4f}")


def test_criterion_6_vacuum_floor():
    state, drive = settled(FIG_PARAMS, 0.9993, 0.0)
    worst = 0.0
    for omega in np.linspace(-0.3, 0.3, 13):
        for phi in np.linspace(0.0, math.pi, 9):
            value = noise_power(FIG_PARAMS, state, drive, COLD, float(omega),
                                float(phi))
            worst = max(worst, abs(value - 1.0))
    report(6, worst <= 1e-12,
           f"max |P - 1| with no pump at T = 0: {worst:.2e}")


def test_criterion_7_line_oracles():
    from conftest import make_uniform_profile
    from kerrcav import mode_coefficients, solve_modes

    start = time.perf_counter()
    profile = make_uniform_profile(n_grid=2000)
    c, l0, length = profile.C[0], profile.L0[0], profile.length
    modes = solve_modes(profile, 5)
    freq_errs = []
    for n, mode in enumerate(modes, start=1):
        exact = n * math.pi / (length * math.sqrt(l0 * c))
        freq_errs.append(abs(mode.omega_n - exact) / exact)
    freq_ok = all(e <= 1e-3 for e in freq_errs)

    mode = modes[0]
    exact_omega = math.pi / (length * math.sqrt(l0 * c))
    gamma2 = mode_coefficients(profile, mode).gamma2
    gamma2_err = abs(gamma2 - profile.R0[0] / (2.0 * l0)) \
        / (profile.R0[0] / (2.0 * l0))
    kerr = mode_coefficients(profile, mode).kerr
    kerr_exact = -3.0 * profile.hbar * exact_omega**2 * profile.dL[0] \
        / (2.0 * profile.I_c**2 * l0**2 * length)
    kerr_err = abs(kerr - kerr_exact) / abs(kerr_exact)
    gamma3 = mode_coefficients(profile, mode).gamma3
    gamma3_exact = 9.0 * profile.hbar * exact_omega * profile.dR[0] \
        / (16.0 * profile.I_c**2 * l0**2 * length)
    gamma3_err = abs(gamma3 - gamma3_exact) / gamma3_exact
    elapsed = time.perf_counter() - start

    ok = (freq_ok and gamma2_err <= 5e-3 and kerr_err <= 5e-3
          and gamma3_err <= 5e-3 and elapsed < 10.0)
    report(7, ok,
           f"max freq err {max(freq_errs):.2e}, gamma2 err {gamma2_err:.2e}, "
           f"kerr err {kerr_err:.2e}, gamma3 err {gamma3_err:.2e}, "
           f"time {elapsed:.2f}s")


def test_criterion_8_fit_round_trip():
    true = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                        gamma3=0.3e-4)
    crit = critical_point(true)
    omegas = np.linspace(0.95, 1.005, 81)
    drives = [0.4 * crit.drive, 0.9 * crit.drive]
    clean = tuple((float(w), amp, predict_reflection(true, float(w), amp))
                  for amp in drives for w in omegas)
    names = ("omega0", "kerr", "gamma1", "gamma2", "gamma3")
    start = DeviceParams(omega0=true.omega0 * (1.0 + 2e-4),
                         kerr=true.kerr * 1.15, gamma1=true.gamma1 * 0.9,
                         gamma2=true.gamma2 * 1.1, gamma3=true.gamma3 * 1.3)

    problem = FitProblem(initial=start, free=names, bounds={}, refl_data=clean)
    clean_fit = run_fit(problem)
    # the analytic Jacobian takes 6 model evaluations here, finite
    # differences 36: a silent return to them fails this line
    assert clean_fit.n_evaluations <= 12, clean_fit.n_evaluations
    fitted = clean_fit.params
    noiseless_errs = {n: abs(getattr(fitted, n) - getattr(true, n))
                      / abs(getattr(true, n)) for n in names}
    noiseless_ok = all(e <= 1e-3 for e in noiseless_errs.values())

    per_seed = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        noisy = tuple((w, amp, r * (1.0 + 0.01 * rng.standard_normal()))
                      for w, amp, r in clean)
        result = run_fit(FitProblem(initial=start, free=names, bounds={},
                                    refl_data=noisy))
        per_seed.append([abs(getattr(result.params, n) - getattr(true, n))
                         / abs(getattr(true, n)) for n in names])
    medians = np.median(np.array(per_seed), axis=0)
    noisy_ok = bool(np.all(medians <= 0.05))
    report(8, noiseless_ok and noisy_ok,
           f"noiseless max rel err {max(noiseless_errs.values()):.2e}; "
           f"noisy medians {[f'{m:.3f}' for m in medians]}")


def test_criterion_9_deterministic_outputs(tmp_path):
    config = {
        "schema": 1,
        "device": {"omega0": 1.0, "kerr": -1e-4, "gamma1": 0.01,
                   "gamma2": 0.011, "gamma3": 0.01e-4 / SQRT3},
        "drive": {"omega_p": {"start": 0.93, "stop": 1.005, "count": 300},
                  "b1_in": [{"times_critical": 0.5},
                            {"times_critical": 2.0}]},
        "offsets": [0.0, 1e-3],
    }
    cfg_path = tmp_path / "determinism.json"
    cfg_path.write_text(json.dumps(config))
    identical = True
    for command in ("steady-sweep", "gain-sweep"):
        for fmt in ("csv", "json"):
            paths = [tmp_path / f"{command}.{fmt}.{i}" for i in (1, 2)]
            for path in paths:
                code = cli_main([command, "--config", str(cfg_path),
                                 "--out", str(path), "--format", fmt])
                assert code == 0
            identical &= paths[0].read_bytes() == paths[1].read_bytes()
    report(9, identical, "steady and gain sweeps byte-identical across "
                         "two runs in csv and json")

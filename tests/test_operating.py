import math

import numpy as np
import pytest

from kerrcav import (DeviceParams, PumpDrive, branch_states, critical_point,
                     curve_omega_p, instability_locus, max_curve_energy,
                     cubic_coefficients, response_peak_detuning,
                     solve_pump_energy, steady_state)
import kerrcav.operating
from conftest import float_bits
from oracles import (brute_force_critical, coalescence_residual,
                     fold_condition_residual,
                     fold_frequencies_from_root_count, numpy_polish)

SQRT3 = math.sqrt(3.0)


# -------------------------------------------------------------- response peak

def test_peak_at_bare_resonance_without_energy(fig_device):
    assert response_peak_detuning(fig_device, 0.0) == fig_device.omega0


def test_softening_kerr_pulls_peak_down(fig_device):
    assert response_peak_detuning(fig_device, 100.0) < fig_device.omega0
    hard = DeviceParams(omega0=1.0, kerr=2e-4, gamma1=0.01, gamma2=0.0,
                        gamma3=0.0)
    assert response_peak_detuning(hard, 100.0) > 1.0


def test_peak_tracks_argmax_of_swept_response(fig_device):
    """Oracle: argmax of the solved response over a dense frequency grid."""
    crit = critical_point(fig_device)
    drive = PumpDrive(omega_p=1.0, amplitude=2.0 * crit.drive)
    omegas = np.linspace(0.85, 1.01, 4001)
    states = branch_states(fig_device, omegas, drive.amplitude)
    best = np.argmax(states.energy)
    best_omega, best_energy = omegas[states.row[best]], states.energy[best]
    predicted = response_peak_detuning(fig_device, best_energy)
    spacing = omegas[1] - omegas[0]
    assert abs(predicted - best_omega) <= 2.0 * spacing
    # the parametric curve maximum agrees with the swept maximum
    e_top = max_curve_energy(fig_device, drive)
    assert best_energy == pytest.approx(e_top, rel=1e-4)
    lo, hi = curve_omega_p(fig_device, drive, e_top)
    assert lo == pytest.approx(hi, abs=1e-8)


# ------------------------------------------------------------------ fold locus

def test_locus_empty_subcritical(fig_device):
    crit = critical_point(fig_device)
    drive = PumpDrive(omega_p=1.0, amplitude=0.5 * crit.drive)
    assert instability_locus(fig_device, drive) == []


def test_locus_empty_for_zero_drive_and_no_kerr(fig_device):
    assert instability_locus(fig_device, PumpDrive(omega_p=1.0, amplitude=0.0)) == []
    no_fold = DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.01, gamma2=0.0,
                           gamma3=1e-5)
    assert instability_locus(no_fold, PumpDrive(omega_p=1.0, amplitude=5.0)) == []


def test_locus_single_point_at_critical_drive(fig_device):
    crit = critical_point(fig_device)
    drive = PumpDrive(omega_p=1.0, amplitude=crit.drive)
    points = instability_locus(fig_device, drive)
    assert len(points) == 1
    omega_p, energy = points[0]
    assert energy == pytest.approx(crit.energy, rel=1e-4)
    assert omega_p == pytest.approx(crit.omega_p, rel=1e-6)


def test_locus_two_points_above_critical(fig_device):
    """Oracle: count the root-count transitions of the solved response."""
    crit = critical_point(fig_device)
    drive = PumpDrive(omega_p=1.0, amplitude=2.0 * crit.drive)
    points = instability_locus(fig_device, drive)
    assert len(points) == 2
    transitions = fold_frequencies_from_root_count(fig_device, drive.amplitude)
    assert len(transitions) == 2
    locus_omegas = sorted(p[0] for p in points)
    for got, expected in zip(locus_omegas, transitions):
        assert abs(got - expected) <= 1e-8 * fig_device.omega0


def test_locus_points_sit_at_critical_slowing_down(fig_device):
    crit = critical_point(fig_device)
    for factor in (1.3, 2.0, 3.7):
        drive = PumpDrive(omega_p=1.0, amplitude=factor * crit.drive)
        points = instability_locus(fig_device, drive)
        assert len(points) == 2
        for omega_p, energy in points:
            state = steady_state(
                fig_device, PumpDrive(omega_p=omega_p, amplitude=drive.amplitude),
                energy)
            assert abs(state.lambda_slow.real) <= 1e-9 * fig_device.gamma
            assert fold_condition_residual(fig_device, drive, omega_p,
                                           energy) <= 1e-10


def double_root_residuals(params, omega_p, amplitude, energy):
    """|c(E)| and |E c'(E)| of the pump cubic, each over its sum of |terms|."""
    c3, c2, c1, c0 = cubic_coefficients(
        params, PumpDrive(omega_p=omega_p, amplitude=amplitude))
    t3, t2, t1 = c3 * energy**3, c2 * energy**2, c1 * energy
    value = abs(t3 + t2 + t1 + c0) / (abs(t3) + abs(t2) + abs(t1) + abs(c0))
    slope = abs(3.0 * t3 + 2.0 * t2 + t1) \
        / (3.0 * abs(t3) + 2.0 * abs(t2) + abs(t1))
    return value, slope


@pytest.mark.parametrize("gamma3", [0.0, 1e-22])
@pytest.mark.parametrize("factor", [300.0, 1000.0])
def test_locus_keeps_upper_fold_far_above_critical(factor, gamma3):
    """Single-port device far above critical: the upper fold sits about
    1/(4 sigma^2) below the curve top in relative E (1e-13 at 1000x) and
    must still be found, as a double root of the pump cubic.  A two-photon
    loss 1e-16 of |kerr| puts two more roots of the fold polynomial near
    E = -gamma/gamma3, which must not cost the folds their precision."""
    device = DeviceParams(omega0=1.0, kerr=-1e-6, gamma1=0.01, gamma2=0.0,
                          gamma3=gamma3)
    amplitude = factor * critical_point(device).drive
    points = instability_locus(device,
                               PumpDrive(omega_p=1.0, amplitude=amplitude))
    assert len(points) == 2
    for omega_p, energy in points:
        assert max(double_root_residuals(device, omega_p, amplitude,
                                         energy)) <= 1e-12


@pytest.mark.parametrize("ratio", [1e-35, 2e-159])
@pytest.mark.parametrize("factor", [1.02, 3.0, 1000.0])
def test_locus_with_vanishing_two_photon_loss(factor, ratio):
    """gamma3 far below |kerr| (the fold polynomial's leading coefficients
    span 1/r^2 = 1e70 or underflow) still gives the two folds of the
    gamma3 = 0 device, as double roots of the pump cubic."""
    lossless = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.001,
                            gamma2=0.1, gamma3=0.0)
    device = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.001, gamma2=0.1,
                          gamma3=ratio * 1e-4)
    drive = PumpDrive(omega_p=1.0,
                      amplitude=factor * critical_point(lossless).drive)
    points = instability_locus(device, drive)
    expected = instability_locus(lossless, drive)
    assert len(points) == len(expected) == 2
    for (omega_p, energy), (_, e0) in zip(points, expected):
        assert energy == pytest.approx(e0, rel=1e-12)
        assert max(double_root_residuals(device, omega_p, drive.amplitude,
                                         energy)) <= 1e-12


def test_polish_matches_numpy_on_random_sextics():
    """Horner's rule in Python floats takes np.polyval's steps: the same
    bits as the NumPy polish from starts near, at and away from the real
    roots, on sextics and on degree-4 polynomials with leading zeros."""
    rng = np.random.default_rng(2026)
    n_moved = 0
    for trial in range(400):
        poly = rng.normal(size=7) * 10.0 ** rng.integers(-8, 9, size=7)
        if trial % 4 == 0:
            poly[:2] = 0.0
        starts = [z.real for z in np.roots(poly) if abs(z.imag) < 1e-3]
        starts += [rng.normal() * 10.0 ** rng.integers(-3, 4)]
        for start in starts:
            for x in (start, start * (1.0 + 1e-6 * rng.normal())):
                got = kerrcav.operating._polish(tuple(poly.tolist()), x)
                assert float_bits(got) == float_bits(numpy_polish(poly, x))
                n_moved += got != x
    assert n_moved > 100


@pytest.mark.parametrize("kerr, gamma2, gamma3", [
    (-1e-6, 0.0, 0.0),        # the lossless single-port device
    (-1e-4, 0.011, 0.0),      # degree 4: gamma3 = 0
    (-1e-4, 0.011, 1e-25),    # degree 4: gamma3 < SMALL_GAMMA3 |kerr|
    (-1e-4, 0.011, 5.8e-7),   # the README device
    (-3e-3, 0.011, 1e-3),     # strong two-photon loss
])
def test_locus_polish_matches_numpy(monkeypatch, kerr, gamma2, gamma3):
    """Every polish a fold locus makes, on a drive ladder from 1.02x to
    1000x critical, gives the NumPy polish's bits."""
    polish = kerrcav.operating._polish
    calls = []

    def checked(poly, x):
        got = polish(poly, x)
        assert float_bits(got) == float_bits(numpy_polish(poly, x))
        calls.append(x)
        return got

    monkeypatch.setattr(kerrcav.operating, "_polish", checked)
    device = DeviceParams(omega0=1.0, kerr=kerr, gamma1=0.01,
                          gamma2=gamma2, gamma3=gamma3)
    crit = critical_point(device)
    for factor in np.geomspace(1.02, 1000.0, 25):
        instability_locus(device, PumpDrive(omega_p=crit.omega_p,
                                            amplitude=factor * crit.drive))
    assert len(calls) == 50


def test_locus_positive_kerr_mirror(fig_device):
    mirrored = DeviceParams(omega0=1.0, kerr=-fig_device.kerr,
                            gamma1=fig_device.gamma1, gamma2=fig_device.gamma2,
                            gamma3=fig_device.gamma3)
    crit = critical_point(mirrored)
    drive = PumpDrive(omega_p=1.0, amplitude=2.0 * crit.drive)
    points = instability_locus(mirrored, drive)
    assert len(points) == 2
    # hardening pull: folds above the bare resonance
    assert all(omega_p > mirrored.omega0 for omega_p, _ in points)


# -------------------------------------------------------------- critical point

def test_critical_point_reductions_at_zero_gamma3():
    params = DeviceParams(omega0=1.0, kerr=-3e-4, gamma1=0.02, gamma2=0.01,
                          gamma3=0.0)
    crit = critical_point(params)
    g = params.gamma
    k = abs(params.kerr)
    assert crit.exists
    assert crit.energy == pytest.approx(2.0 * SQRT3 * g / (3.0 * k), rel=1e-12)
    assert params.omega0 - crit.omega_p == pytest.approx(SQRT3 * g, rel=1e-12)
    assert crit.drive**2 == pytest.approx(
        4.0 / (3.0 * SQRT3) * g**3 / (params.gamma1 * k), rel=1e-12)


def test_critical_point_absent_when_loss_dominates():
    kerr = -1e-4
    params = DeviceParams(omega0=1.0, kerr=kerr, gamma1=0.01, gamma2=0.0,
                          gamma3=abs(kerr) / SQRT3)
    crit = critical_point(params)
    assert not crit.exists
    assert math.isnan(crit.energy)
    assert not critical_point(
        DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.01, gamma2=0.0,
                     gamma3=0.0)).exists
    # a decoupled port (gamma1 = 0) needs an infinite critical drive
    assert not critical_point(
        DeviceParams(omega0=1.0, kerr=kerr, gamma1=0.0, gamma2=0.011,
                     gamma3=0.0)).exists


def test_required_drive_grows_with_two_photon_loss():
    kerr = -1e-4
    drives = []
    for g3 in np.linspace(0.0, 0.5 * abs(kerr), 8):
        params = DeviceParams(omega0=1.0, kerr=kerr, gamma1=0.01, gamma2=0.011,
                              gamma3=g3)
        drives.append(critical_point(params).drive)
    assert all(b - a > 0.0 for a, b in zip(drives, drives[1:]))


def test_critical_point_lies_on_kerr_pulled_side():
    for kerr in (-2e-4, 2e-4):
        params = DeviceParams(omega0=1.0, kerr=kerr, gamma1=0.01, gamma2=0.011,
                              gamma3=0.1 * abs(kerr))
        crit = critical_point(params)
        detuning = params.omega0 - crit.omega_p
        assert math.copysign(1.0, detuning) == -math.copysign(1.0, kerr)


def test_critical_point_consistency_with_solver(fig_device):
    crit = critical_point(fig_device)
    drive = PumpDrive(omega_p=crit.omega_p, amplitude=crit.drive)
    roots = solve_pump_energy(fig_device, drive)
    match = min(roots, key=lambda r: abs(r - crit.energy))
    assert match == pytest.approx(crit.energy, rel=1e-6)
    assert fold_condition_residual(fig_device, drive, crit.omega_p,
                                   match) <= 1e-8
    assert coalescence_residual(fig_device, crit.omega_p, match) <= 1e-8
    state = steady_state(fig_device, drive, match)
    assert abs(state.lambda_slow.real) <= 1e-8 * fig_device.gamma


def test_ill_conditioned_flag():
    kerr = -1e-4
    params = DeviceParams(omega0=1.0, kerr=kerr, gamma1=0.01, gamma2=0.0,
                          gamma3=abs(kerr) * (1.0 - 1e-12) / SQRT3)
    crit = critical_point(params)
    assert crit.exists
    assert crit.ill_conditioned


def test_brute_force_detection_matches_closed_form(fig_device):
    """Oracle: discriminant sign-change detection over a (omega_p, b) grid."""
    crit = critical_point(fig_device)
    amplitude, omega_p, energy = brute_force_critical(
        fig_device, reference_amplitude=2.0 * crit.drive / 2.0)
    assert amplitude == pytest.approx(crit.drive, rel=1e-6)
    assert omega_p == pytest.approx(crit.omega_p, rel=1e-6)
    assert energy == pytest.approx(crit.energy, rel=1e-6)


def test_locus_matches_transitions_across_random_devices():
    """Randomized consistency: for random lossy devices at random drive
    factors the two folds always agree with the root-count transitions and
    sit at critical slowing down; at and just above the critical drive the
    locus is the single tangency point."""
    rng = np.random.default_rng(99)
    tested = 0
    while tested < 25:
        kerr = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-5.0, -2.5)
        params = DeviceParams(
            omega0=1.0, kerr=kerr,
            gamma1=10.0 ** rng.uniform(-3.0, -1.8),
            gamma2=10.0 ** rng.uniform(-3.0, -1.8),
            gamma3=rng.uniform(0.0, 0.5) * abs(kerr))
        crit = critical_point(params)
        if not crit.exists:
            continue
        tested += 1
        drive = PumpDrive(omega_p=1.0,
                          amplitude=rng.uniform(1.2, 30.0) * crit.drive)
        # inside the tangency band the folds coalesce into one point
        for factor in (1.0, 1.0 + 1e-7):
            tangency = instability_locus(
                params, PumpDrive(omega_p=1.0, amplitude=factor * crit.drive))
            assert len(tangency) == 1
            assert tangency[0][1] == pytest.approx(crit.energy, rel=1e-4)
        points = instability_locus(params, drive)
        transitions = fold_frequencies_from_root_count(params,
                                                       drive.amplitude)
        assert len(points) == 2
        assert len(transitions) == 2
        for (omega_p, energy), expected in zip(sorted(points), transitions):
            assert abs(omega_p - expected) <= 1e-8
            state = steady_state(
                params, PumpDrive(omega_p=omega_p, amplitude=drive.amplitude),
                energy)
            assert abs(state.lambda_slow.real) <= 1e-8 * params.gamma


def test_brute_force_detection_across_random_devices():
    rng = np.random.default_rng(5)
    for _ in range(4):
        kerr = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-5.0, -3.0)
        params = DeviceParams(
            omega0=1.0, kerr=kerr,
            gamma1=10.0 ** rng.uniform(-3.0, -2.0),
            gamma2=10.0 ** rng.uniform(-3.0, -2.0),
            gamma3=rng.uniform(0.0, 0.45) * abs(kerr))
        crit = critical_point(params)
        amplitude, omega_p, energy = brute_force_critical(
            params, reference_amplitude=crit.drive)
        assert amplitude == pytest.approx(crit.drive, rel=1e-6)
        assert omega_p == pytest.approx(crit.omega_p, rel=1e-6)
        assert energy == pytest.approx(crit.energy, rel=1e-6)

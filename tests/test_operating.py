import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrcav import operating, steady
from kerrcav import (DeviceParams, PumpDrive, branch_states, critical_point,
                     curve_omega_p, instability_locus, max_curve_energy,
                     cubic_coefficients, response_peak_detuning,
                     settled_state, solve_pump_energy, steady_state,
                     steady_states, validate)
from oracles import (brute_force_critical, coalescence_residual,
                     fold_condition_residual, fold_frequencies_from_root_count,
                     fold_points_mpmath, scalar_steady_states)

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
    must still be found, as a double root of the pump cubic, also with a
    two-photon loss 1e-16 of |kerr|."""
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
    """gamma3 far below |kerr| (gamma3^2 is lost next to K^2, or
    underflows) still gives the two folds of the gamma3 = 0 device, as
    double roots of the pump cubic."""
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


README_DEVICE = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01,
                            gamma2=0.011, gamma3=5.8e-7)
STRONG_G3 = DeviceParams(omega0=1.0, kerr=-3e-3, gamma1=0.01, gamma2=0.011,
                         gamma3=1e-3)
LOSSLESS = DeviceParams(omega0=1.0, kerr=-1e-6, gamma1=0.01, gamma2=0.0,
                        gamma3=0.0)


def oracle_devices():
    """Random devices of both Kerr signs with gamma3 from 0 to 0.577|K|,
    gamma3/|K| = 1e-35 and 2e-159, and the lossless device."""
    rng = np.random.default_rng(18)
    devices = []
    for ratio in [0.0, 0.1, 0.3, 0.5, 0.577, *rng.uniform(0.0, 0.577, 5)]:
        kerr = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-6.0, -2.0)
        devices.append(DeviceParams(
            omega0=1.0, kerr=kerr, gamma1=10.0 ** rng.uniform(-3.0, -1.0),
            gamma2=10.0 ** rng.uniform(-3.0, -1.0),
            gamma3=float(ratio) * abs(kerr)))
    devices += [DeviceParams(omega0=1.0, kerr=2e-4, gamma1=0.001, gamma2=0.1,
                             gamma3=ratio * 2e-4) for ratio in (1e-35, 2e-159)]
    return devices + [LOSSLESS]


NEAR_CRITICAL = [1.0 + 1e-9, 1.0 + 1e-7, 1.0 + 1e-5]
ABOVE_CRITICAL = [1.0001, 1.02, 1.5, 3.0, 10.0, 100.0, 1000.0]


def frequency_scale(params, omega_p):
    """max(|omega_p|, |omega0 - omega_p|): the pump solve takes the
    detuning omega0 - omega_p, so a fold frequency is resolved to the ulps
    of the larger of the two, also where omega_p itself nears 0."""
    return max(abs(omega_p), abs(params.omega0 - omega_p))


@pytest.mark.parametrize("params", oracle_devices())
def test_locus_matches_mpmath_folds(params):
    """The folds are the solutions of h = P, h' = 0 at 60 digits: omega_p
    to 1e-14, and E to 1e-12 relative from 1.0001x critical up.  Closer to
    the cusp E- and E+ lose digits to the cancellation in the discriminant
    of h', measured at up to 5.3e-11 at 1 + 1e-9; the bound there is
    1e-10.  Where the band is narrower than the rounding floor of h (at
    1 + 1e-9 on five of these devices, and at 1 + 1e-7 on the gamma3 =
    0.577|K| one) the pump solve has one branch at both mpmath folds, and
    the locus reports the critical point alone; from 1 + 1e-5 up it always
    reports the two folds."""
    crit = critical_point(params)
    for factor in NEAR_CRITICAL + ABOVE_CRITICAL:
        amplitude = factor * crit.drive
        points = instability_locus(params, PumpDrive(omega_p=1.0,
                                                     amplitude=amplitude))
        expected = fold_points_mpmath(params, amplitude)
        assert len(expected) == 2
        if len(points) == 1 and factor < NEAR_CRITICAL[2]:
            assert points == [(crit.omega_p, crit.energy)]
            states = branch_states(params, [w for w, _ in expected],
                                   amplitude)
            assert states.n_branches.tolist() == [1, 1]
            continue
        assert len(points) == 2
        e_tol = 1e-12 if factor >= 1.0001 else 1e-10
        for (omega_p, energy), (w, e) in zip(points, expected):
            assert abs(omega_p - w) <= 1e-14 * frequency_scale(params, w)
            assert energy == pytest.approx(e, rel=e_tol, abs=0.0)


def assert_branch_counts_change_at_folds(params, amplitude):
    """Three branches at the midpoint of the two folds, one at a relative
    1e-9 outside the band on either side."""
    (lo, _), (hi, _) = sorted(instability_locus(
        params, PumpDrive(omega_p=1.0, amplitude=amplitude)))
    out = 1e-9 * max(frequency_scale(params, lo), frequency_scale(params, hi))
    states = branch_states(params, [0.5 * (lo + hi), lo - out, hi + out],
                           amplitude)
    counts = np.zeros(3, dtype=int)
    counts[states.row] = states.n_branches
    assert counts.tolist() == [3, 1, 1]


@pytest.mark.parametrize("params", oracle_devices())
def test_branch_count_changes_at_the_locus(params):
    """branch_states takes the same folds: the band the locus reports is
    where the pump solve has three branches.  From 1 + 1e-5 up: at
    1 + 1e-7 the band of the gamma3 = 0.577|K| device (omega_p = -210) is
    one ulp wide, with no float inside it."""
    crit = critical_point(params)
    for factor in NEAR_CRITICAL[2:] + ABOVE_CRITICAL:
        assert_branch_counts_change_at_folds(params, factor * crit.drive)


def test_locus_and_branch_count_agree_inside_the_rounding_floor():
    """At 1 + 1e-7 times the critical drive of this device (omega_p near
    -210) the two folds lie one ulp apart, and the pump solve collapses the
    band to one branch: P is within the floor of h at both folds there.
    The locus then reports the critical point alone, where mpmath resolves
    two folds with three roots between them."""
    params = DeviceParams(omega0=1.0, kerr=-3.2e-6, gamma1=0.0179,
                          gamma2=0.0375, gamma3=0.577 * 3.2e-6)
    crit = critical_point(params)
    amplitude = (1.0 + 1e-7) * crit.drive
    points = instability_locus(params, PumpDrive(omega_p=1.0,
                                                 amplitude=amplitude))
    assert points == [(crit.omega_p, crit.energy)]
    expected = fold_points_mpmath(params, amplitude)
    assert len(expected) == 2
    omega_p = [w for w, _ in expected] + [crit.omega_p]
    states = branch_states(params, omega_p, amplitude)
    assert states.n_branches.tolist() == [1, 1, 1]
    # a little further from the cusp both sides see the two folds
    assert_branch_counts_change_at_folds(params, (1.0 + 1e-5) * crit.drive)


def near_both_folds(params, omega_p, p):
    """Row by row, the test of :func:`steady._branch_energies` that p lies
    within the rounding floor of h at both folds, as the batch ran it: one
    call on the stacked folds, E- in row 0 and E+ in row -1 (the one row
    of inflections where no row of the batch folds)."""
    at_fold = steady._at_fold
    near = []

    def spy(*args):
        near.append(at_fold(*args))
        return near[-1]

    with mock.patch.object(steady, "_at_fold", spy), \
            np.errstate(all="ignore"):
        steady._branch_energies(params.omega0, np.array(omega_p),
                                np.full(len(omega_p), p), params.kerr,
                                params.gamma3, params.gamma)
    near, = near
    return (near[0] & near[-1]).tolist()


def ulps_away(x, n):
    """x moved by n ulps (down for n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


ORACLE_DEVICES = oracle_devices()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(ORACLE_DEVICES))),
       st.sampled_from([1.0] + NEAR_CRITICAL + ABOVE_CRITICAL),
       st.integers(-4, 4))
@example(3, NEAR_CRITICAL[0], 1)
@example(4, NEAR_CRITICAL[0], -1)
@example(4, NEAR_CRITICAL[1], 2)
@example(6, NEAR_CRITICAL[0], 0)
@example(9, NEAR_CRITICAL[0], 3)
@example(12, NEAR_CRITICAL[0], -2)
def test_float_one_branch_rule_is_the_batch_rule(index, factor, ulps):
    """steady._one_branch_at, the float test the locus puts to each fold it
    finds, answers as the near-both-folds test of _branch_energies on the
    same row: at each fold the locus reports, ``ulps`` ulps from it and a
    relative 1e-9 outside it.  At the critical drive that fold is the
    critical point.  Where the locus reports the critical point alone above
    it (the examples: five devices at 1 + 1e-9 times critical, the gamma3 =
    0.577|K| one also at 1 + 1e-7) the folds mpmath resolves are rows too,
    and both tests find p within the floor at both folds there."""
    params = ORACLE_DEVICES[index]
    amplitude = factor * critical_point(params).drive
    p = 2.0 * params.gamma1 * (amplitude * amplitude)
    folds = [w for w, _ in instability_locus(
        params, PumpDrive(omega_p=1.0, amplitude=amplitude))]
    resolved = []
    if len(folds) == 1 and factor > 1.0:
        resolved = [w for w, _ in fold_points_mpmath(params, amplitude)]
        assert near_both_folds(params, resolved, p) == [True, True]
    omega_p = resolved + [
        x for w in folds
        for x in (w, ulps_away(w, ulps),
                  w - 1e-9 * frequency_scale(params, w),
                  w + 1e-9 * frequency_scale(params, w))]
    with np.errstate(invalid="ignore"):
        one_branch = [steady._one_branch_at(params.omega0, w, p, params.kerr,
                                            params.gamma3, params.gamma)
                      for w in omega_p]
    assert one_branch == near_both_folds(params, omega_p, p)


@pytest.mark.parametrize("params, eps", [
    (README_DEVICE, 3e-6), (README_DEVICE, 1e-6), (README_DEVICE, 1e-7),
    (STRONG_G3, 1e-5), (STRONG_G3, 3e-6), (STRONG_G3, 1e-6),
])
def test_locus_resolves_the_folds_just_above_critical(params, eps):
    """At (1 + eps) times the critical drive the two folds lie 1e-12 to
    4e-10 apart in omega_p, and the pump solve has three branches between
    them: the locus reports both, not one tangency point."""
    amplitude = (1.0 + eps) * critical_point(params).drive
    points = instability_locus(params, PumpDrive(omega_p=1.0,
                                                 amplitude=amplitude))
    expected = fold_points_mpmath(params, amplitude)
    assert len(points) == len(expected) == 2
    for (omega_p, _), (w, _) in zip(points, expected):
        assert abs(omega_p - w) <= 1e-14 * frequency_scale(params, w)
    assert_branch_counts_change_at_folds(params, amplitude)


@pytest.mark.parametrize("amplitude", [math.inf, -math.inf, math.nan])
def test_locus_rejects_a_non_finite_drive(fig_device, amplitude):
    with pytest.raises(OverflowError, match="drive power"):
        instability_locus(fig_device, PumpDrive(omega_p=1.0,
                                                amplitude=amplitude))


def test_locus_reports_an_overflowing_drive_power(fig_device):
    with pytest.raises(OverflowError, match="2 gamma1 b_in"):
        instability_locus(fig_device, PumpDrive(omega_p=1.0,
                                                amplitude=1e200))


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, 1e200])
def test_a_bad_drive_raises_one_overflow_everywhere(fig_device, amplitude):
    """A NaN, infinite or overflowing drive has no finite drive power
    P = 2 gamma1 b_in^2: every function that forms P raises the same
    OverflowError with the same message, and so does the float oracle."""
    drive = PumpDrive(omega_p=1.0, amplitude=amplitude)
    for call in (steady_states, settled_state, max_curve_energy,
                 cubic_coefficients, instability_locus, scalar_steady_states,
                 lambda params, drive: curve_omega_p(params, drive, 1.0)):
        with pytest.raises(OverflowError) as excinfo:
            call(fig_device, drive)
        assert str(excinfo.value) == ("drive power 2 gamma1 b_in^2 is not "
                                      "finite")


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gamma3=st.floats(1e-9, 1.0), gamma1=st.floats(1e-6, 1.0),
       gamma2=st.floats(0.0, 1.0), ratio=st.floats(0.0, 3.0),
       ulps=st.sampled_from([None, -1, 0, 1]),
       sign=st.sampled_from([-1.0, 1.0]))
@example(gamma3=5.8e-7, gamma1=0.01, gamma2=0.011, ratio=0.0, ulps=-1,
         sign=-1.0)
@example(gamma3=5.8e-7, gamma1=0.01, gamma2=0.011, ratio=0.0, ulps=0,
         sign=-1.0)
@example(gamma3=5.8e-7, gamma1=0.01, gamma2=0.011, ratio=0.0, ulps=1,
         sign=-1.0)
# one ulp above the edge K^2 - 3 gamma3^2 rounds to 0 or below here
@example(gamma3=1e-9, gamma1=1.0, gamma2=0.0, ratio=0.0, ulps=1, sign=-1.0)
@example(gamma3=0.0346, gamma1=0.01, gamma2=0.0, ratio=0.0, ulps=1,
         sign=1.0)
def test_bistability_flag_and_critical_point_agree(gamma3, gamma1, gamma2,
                                                   ratio, ulps, sign):
    """|K| > sqrt(3) gamma3 is tested twice, by validate's
    bistability_reachable and by critical_point's margin; with gamma1 > 0
    the two agree on random devices (|K| = ratio sqrt(3) gamma3), at
    |K| = sqrt(3) gamma3 exactly and one ulp either side.  Where the point
    exists, its detuning omega0 - omega_p has the sign of -K."""
    edge = SQRT3 * gamma3
    kerr = ratio * edge if ulps is None else math.nextafter(
        edge, ulps * math.inf) if ulps else edge
    params = DeviceParams(omega0=1.0, kerr=sign * kerr, gamma1=gamma1,
                          gamma2=gamma2, gamma3=gamma3)
    reachable = validate(params).bistability_reachable
    crit = critical_point(params)
    assert crit.exists == reachable
    if ulps is not None:
        assert reachable == (ulps == 1)
    if crit.exists:
        assert (params.omega0 - crit.omega_p) * sign < 0.0


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
    sit at critical slowing down.  At the critical drive the locus is the
    single tangency point; at 1 + 1e-7 times it, it is the two folds that
    60-digit mpmath resolves, at most 1e-10 apart in omega_p.  Their
    energies, about 1e-4 from E_c, hold to 1e-10: next to the cusp E- and
    E+ lose digits to the cancellation in the discriminant of h'."""
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
        tangency = instability_locus(
            params, PumpDrive(omega_p=1.0, amplitude=crit.drive))
        assert tangency == [(crit.omega_p, crit.energy)]
        # just above critical the two folds are resolved, as mpmath has them
        amplitude = (1.0 + 1e-7) * crit.drive
        pair = instability_locus(params,
                                 PumpDrive(omega_p=1.0, amplitude=amplitude))
        expected = fold_points_mpmath(params, amplitude)
        assert len(pair) == len(expected) == 2
        assert abs(expected[0][0] - expected[1][0]) <= 1e-10
        for (omega_p, energy), (w, e) in zip(pair, expected):
            assert omega_p == pytest.approx(w, rel=1e-14, abs=0.0)
            assert energy == pytest.approx(e, rel=1e-10, abs=0.0)
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


def test_fold_locus_step_cap_is_arithmetic_error(monkeypatch):
    """A fold that takes more steps than MAX_STEPS is an ArithmeticError:
    at 2x critical each fold takes more than one."""
    device = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                          gamma3=5.8e-7)
    crit = critical_point(device)
    drive = PumpDrive(omega_p=crit.omega_p, amplitude=2.0 * crit.drive)
    assert len(instability_locus(device, drive)) == 2
    monkeypatch.setattr(operating, "MAX_STEPS", 1)
    with pytest.raises(ArithmeticError,
                       match="fold locus: Newton steps did not settle"):
        instability_locus(device, drive)


def test_critical_drive_past_float_range_is_overflow():
    """With gamma = 1e250 and K = -1 the critical photon number and
    detuning are finite (about 1.2e250 and 1.7e250), but b_c is about
    1e375: its scaled root overflows, and the point is an OverflowError."""
    device = DeviceParams(omega0=1.0, kerr=-1.0, gamma1=1.0, gamma2=1e250,
                          gamma3=0.0)
    gamma = device.gamma
    assert math.isfinite(2.0 * gamma / SQRT3)  # E_c
    assert math.isfinite(gamma * SQRT3)  # omega0 - omega_pc
    with pytest.raises(OverflowError,
                       match="^critical point beyond the float range$"):
        critical_point(device)

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_bits
from kerrcav import (DeviceParams, PumpDrive, ThermalEnv, branch_states,
                     critical_point, lo_phase_extrema, lo_phase_extrema_array,
                     squeeze_columns, steady_states, thermal_occupation)
from oracles import noise_power, scan_phase_extrema
from test_steady import device_and_drives

SQRT3 = math.sqrt(3.0)
COLD = ThermalEnv()


def settled(params, omega_p, amplitude):
    drive = PumpDrive(omega_p=omega_p, amplitude=amplitude)
    states = steady_states(params, drive)
    return next(s for s in states if s.stable), drive


def two_photon_device(gamma1=0.01, gamma3=2e-3):
    return DeviceParams(omega0=1.0, kerr=0.0, gamma1=gamma1, gamma2=0.0,
                        gamma3=gamma3)


def two_photon_drive(params, energy):
    amp = math.sqrt(energy)
    return PumpDrive(omega_p=params.omega0,
                     amplitude=(params.gamma1 * amp + params.gamma3 * amp**3)
                     / math.sqrt(2.0 * params.gamma1))


# ------------------------------------------------------------------ occupation

def test_thermal_occupation_limits():
    assert thermal_occupation(math.inf) == 0.0
    assert thermal_occupation(1.0) == pytest.approx(1.0 / (math.e - 1.0))
    # hotter bath holds more photons
    assert thermal_occupation(0.5) > thermal_occupation(1.0)
    # classical limit: occupation approaches 1/theta without overflow
    assert thermal_occupation(1e-18) == pytest.approx(1e18, rel=1e-9)
    assert math.isfinite(thermal_occupation(1e-300))


def test_occupation_beyond_float_range_is_overflow():
    """Below theta ~ 5.6e-309 the occupation 1/expm1(theta) is inf; that is
    an overflow, not a noise power of nan."""
    assert math.isfinite(thermal_occupation(5.6e-309))
    with pytest.raises(OverflowError, match="not finite"):
        thermal_occupation(5.5e-309)
    with pytest.raises(OverflowError, match="theta = 1e-320"):
        ThermalEnv(theta1=1e-320).occupations()


def test_hot_bath_noise_beyond_float_range_is_overflow():
    """At a photon number of 1.26e42 and theta = 1e-300 on every bath the
    thermal terms of the noise power overflow although D is finite: both
    extrema paths raise rather than reporting p_min = nan, p_max = inf
    without the diverged flag."""
    params = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                          gamma3=5.8e-7)
    env = ThermalEnv(1e-300, 1e-300, 1e-300)
    states = branch_states(params, 0.97, 1e60)
    state, drive = states.state(0), states.drive(0)
    assert state.energy == pytest.approx(1.26e42, rel=1e-3)
    with pytest.raises(OverflowError, match="noise power"):
        lo_phase_extrema(params, state, drive, env, 1e3)
    with pytest.raises(OverflowError, match="noise power"):
        lo_phase_extrema_array(params, states, env, 1e3)


def test_theta_must_be_positive():
    with pytest.raises(ValueError):
        ThermalEnv(theta1=0.0)
    with pytest.raises(ValueError):
        ThermalEnv(theta2=-2.0)


# ------------------------------------------------------------------- vacuum P=1

def test_vacuum_floor(fig_device):
    state, drive = settled(fig_device, 0.9993, 0.0)
    for omega in (0.0, 1e-4, 0.037, -0.2):
        for phi in np.linspace(0.0, math.pi, 7):
            assert noise_power(fig_device, state, drive, COLD, omega, phi) \
                == pytest.approx(1.0, abs=1e-12)


def test_thermal_floor_without_pump():
    params = DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.02, gamma2=0.0,
                          gamma3=0.0)
    state, drive = settled(params, 1.0, 0.0)
    env = ThermalEnv(theta1=0.8)
    expected = 1.0 / math.tanh(0.4)
    assert noise_power(params, state, drive, env, 0.0, 0.3) \
        == pytest.approx(expected, rel=1e-12)


def test_hotter_bath_raises_noise(fig_device):
    crit = critical_point(fig_device)
    state, drive = settled(fig_device, crit.omega_p, 0.6 * crit.drive)
    omega, phi = 0.002, 0.7
    last = noise_power(fig_device, state, drive, COLD, omega, phi)
    for theta in (6.0, 3.0, 1.0, 0.3):
        for which in ("theta1", "theta2", "theta3"):
            env = ThermalEnv(**{which: theta})
            hotter = noise_power(fig_device, state, drive, env, omega, phi)
            assert hotter > noise_power(fig_device, state, drive,
                                        ThermalEnv(**{which: 2.0 * theta}),
                                        omega, phi)
    env_all = ThermalEnv(theta1=1.0, theta2=1.0, theta3=1.0)
    assert noise_power(fig_device, state, drive, env_all, omega, phi) > last


# ------------------------------------------------------------- phase extrema

def test_lossless_single_bath_dc_noise():
    params = DeviceParams(omega0=1.0, kerr=5.0, gamma1=1e-4, gamma2=0.0,
                          gamma3=0.0)
    crit = critical_point(params)
    env = ThermalEnv(theta1=1.7)
    state, drive = settled(params, crit.omega_p, 0.5 * crit.drive)
    ext = lo_phase_extrema(params, state, drive, env, 0.0)
    coth = 1.0 / math.tanh(0.85)
    assert ext.p_min * ext.p_max == pytest.approx(coth**2, rel=1e-9)


def test_extremal_phases_in_quadrature(fig_device):
    crit = critical_point(fig_device)
    env = ThermalEnv(theta1=3.0, theta2=2.0, theta3=4.0)
    for frac in (0.2, 0.7, 0.95):
        state, drive = settled(fig_device, crit.omega_p, frac * crit.drive)
        for omega in (0.0, 1e-3):
            ext = lo_phase_extrema(fig_device, state, drive, env, omega)
            gap = (ext.phi_max - ext.phi_min) % math.pi
            assert min(abs(gap - math.pi / 2.0),
                       abs(gap - math.pi / 2.0 - math.pi)) <= 1e-9
            assert ext.p_of_phi(ext.phi_min) == pytest.approx(ext.p_min, rel=1e-12)
            assert ext.p_of_phi(ext.phi_max) == pytest.approx(ext.p_max, rel=1e-12)


def test_extrema_match_brute_force_phase_scan():
    """Oracle: dense scan over 10^4 local-oscillator phases."""
    params = DeviceParams(omega0=1.0, kerr=5.0, gamma1=1e-4, gamma2=0.0,
                          gamma3=0.0)
    crit = critical_point(params)
    env = ThermalEnv(theta1=4.0)
    # weak pump keeps the phase modulation small enough that a 10^4-point
    # grid resolves the extrema to 1e-9 absolute
    state, drive = settled(params, crit.omega_p, 0.05 * crit.drive)
    ext = lo_phase_extrema(params, state, drive, env, 0.0)
    scan_min, scan_max = scan_phase_extrema(
        lambda phi: noise_power(params, state, drive, env, 0.0, phi))
    assert scan_min == pytest.approx(ext.p_min, abs=1e-9)
    assert scan_max == pytest.approx(ext.p_max, abs=1e-9)


def test_extrema_bound_brute_force_scan_strong_pump(fig_device):
    crit = critical_point(fig_device)
    env = ThermalEnv(theta1=2.0, theta2=3.0, theta3=1.0)
    state, drive = settled(fig_device, crit.omega_p, 0.9 * crit.drive)
    omega = 5e-4
    ext = lo_phase_extrema(fig_device, state, drive, env, omega)
    scan_min, scan_max = scan_phase_extrema(
        lambda phi: noise_power(fig_device, state, drive, env, omega, phi))
    modulation = 0.5 * (ext.p_max - ext.p_min)
    grid_gap = 1.01 * modulation * (math.pi / 10_000) ** 2 + 1e-12
    assert ext.p_min <= scan_min <= ext.p_min + grid_gap
    assert ext.p_max - grid_gap <= scan_max <= ext.p_max + 1e-12


def test_lossless_product_law_across_drives():
    params = DeviceParams(omega0=1.0, kerr=5.0, gamma1=1e-4, gamma2=0.0,
                          gamma3=0.0)
    crit = critical_point(params)
    for frac in np.linspace(0.02, 0.98, 25):
        state, drive = settled(params, crit.omega_p, frac * crit.drive)
        ext = lo_phase_extrema(params, state, drive, COLD, 0.0)
        assert ext.p_min * ext.p_max == pytest.approx(1.0, abs=1e-9)


def test_near_complete_squeezing_at_critical_drive():
    params = DeviceParams(omega0=1.0, kerr=5.0, gamma1=1e-4, gamma2=0.0,
                          gamma3=0.0)
    crit = critical_point(params)
    state, drive = settled(params, crit.omega_p, 0.999 * crit.drive)
    ext = lo_phase_extrema(params, state, drive, COLD, 0.0)
    assert ext.p_min < 1e-2


# ----------------------------------------------------------- two-photon limits

def test_two_photon_only_squeezing_value():
    params = two_photon_device()
    energy = params.gamma1 / (3.0 * params.gamma3)
    drive = two_photon_drive(params, energy)
    state = next(s for s in steady_states(params, drive) if s.stable)
    assert state.energy == pytest.approx(energy, rel=1e-9)
    # the optimal local-oscillator phase satisfies
    # cos(2 phi - 2 phase - 2 phi1) = 1, i.e. phi = phase here
    value = noise_power(params, state, drive, COLD, 0.0, state.phase)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-9)
    ext = lo_phase_extrema(params, state, drive, COLD, 0.0)
    assert ext.p_min == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_two_photon_optimum_energy():
    params = two_photon_device()
    target = params.gamma1 / (3.0 * params.gamma3)
    energies = np.linspace(0.4 * target, 1.8 * target, 141)
    values = []
    for energy in energies:
        drive = two_photon_drive(params, energy)
        state = next(s for s in steady_states(params, drive) if s.stable)
        values.append(lo_phase_extrema(params, state, drive, COLD, 0.0).p_min)
    best = energies[int(np.argmin(values))]
    assert best == pytest.approx(target, rel=0.01)
    assert min(values) == pytest.approx(2.0 / 3.0, abs=1e-6)


# -------------------------------------------------------------- squeeze vs pump

def test_squeeze_vs_pump_lossless_reaches_zero():
    params = DeviceParams(omega0=1.0, kerr=5.0, gamma1=1e-4, gamma2=0.0,
                          gamma3=0.0)
    columns = squeeze_columns(params, COLD, [0.0, 0.5, 0.9, 0.999])
    mins = columns["p_min0"]
    assert mins[0] == pytest.approx(1.0, abs=1e-12)
    assert all(b < a for a, b in zip(mins, mins[1:]))
    assert mins[-1] < 1e-2
    assert not columns["above_critical"].any()


def test_squeeze_vs_pump_linear_loss_floor():
    params = DeviceParams(omega0=1.0, kerr=5.0, gamma1=1e-4, gamma2=5e-4,
                          gamma3=0.0)
    columns = squeeze_columns(params, COLD, list(np.linspace(0.05, 0.999, 30)))
    assert np.all(columns["p_min0"] > 0.2)


def test_squeeze_vs_pump_nonlinear_loss_floor():
    kerr = 5.0
    params = DeviceParams(omega0=1.0, kerr=kerr, gamma1=1e-4, gamma2=0.0,
                          gamma3=0.5 * kerr / SQRT3)
    columns = squeeze_columns(params, COLD, list(np.linspace(0.05, 0.999, 20)))
    assert np.all(columns["p_min0"] > 0.05)


def test_squeeze_degrades_with_linear_loss():
    base_kerr = 5.0
    mins = []
    for gamma2 in (0.0, 1e-4, 3e-4, 1e-3):
        params = DeviceParams(omega0=1.0, kerr=base_kerr, gamma1=1e-4,
                              gamma2=gamma2, gamma3=0.0)
        mins.append(squeeze_columns(params, COLD, [0.95])["p_min0"][0])
    assert all(b > a - 1e-12 for a, b in zip(mins, mins[1:]))


def test_squeeze_vs_pump_requires_critical_point():
    params = DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.01, gamma2=0.0,
                          gamma3=1e-5)
    with pytest.raises(ValueError):
        squeeze_columns(params, COLD, [0.5])


@pytest.mark.parametrize("kerr, gamma1", [(0.0, 0.01), (-1e-4, 0.0)])
def test_missing_critical_point_names_both_conditions(kerr, gamma1):
    params = DeviceParams(omega0=1.0, kerr=kerr, gamma1=gamma1, gamma2=0.01,
                          gamma3=1e-5)
    with pytest.raises(ValueError, match=r"\|kerr\| > sqrt\(3\)\*gamma3 "
                                         r"and gamma1 > 0"):
        squeeze_columns(params, COLD, [0.5])


def test_squeeze_vs_pump_flags_above_critical(fig_device):
    columns = squeeze_columns(fig_device, COLD, [0.5, 1.4])
    assert columns["above_critical"].tolist() == [False, True]


# -------------------------------------------- closed form against the oracle

theta = st.one_of(st.just(math.inf), st.floats(0.05, 20.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(device_and_drives(),
       st.one_of(st.just(COLD), st.builds(ThermalEnv, theta, theta, theta)),
       st.floats(0.01, 3.0), st.sampled_from([-1.0, 1.0]))
def test_extrema_match_noise_power_oracle(case, env, offset, sign):
    """noise_power, summed port by port from the six transfer coefficients
    at +-omega, takes the closed-form extrema: p_max at phi_max, p_min at
    phi_min and their mean at phi_max +- pi/4, to 1e-12 max(1, p_max), on
    every branch at zero offset and at a nonzero one (in units of gamma).
    Where the extrema diverge the oracle is inf."""
    params, omega_p, b_in, psi = case
    states = branch_states(params, omega_p, b_in, psi)
    for i in range(states.energy.size):
        state, drive = states.state(i), states.drive(i)
        for omega in (0.0, sign * offset * params.gamma):
            ext = lo_phase_extrema(params, state, drive, env, omega)
            if ext.diverged:
                assert noise_power(params, state, drive, env, omega,
                                   0.0) == math.inf
                continue
            mean = 0.5 * (ext.p_max + ext.p_min)
            tol = 1e-12 * max(1.0, ext.p_max)
            for phi, expected in ((ext.phi_max, ext.p_max),
                                  (ext.phi_min, ext.p_min),
                                  (ext.phi_max - math.pi / 4.0, mean),
                                  (ext.phi_max + math.pi / 4.0, mean)):
                got = noise_power(params, state, drive, env, omega, phi)
                assert abs(got - expected) <= tol


def test_extrema_diverge_at_critical_point(fig_device):
    """At the critical point and zero offset the extrema diverge (p_max inf,
    p_min and the phases NaN) where the oracle is inf; a small offset away
    they are finite and the oracle takes them."""
    crit = critical_point(fig_device)
    states = branch_states(fig_device, crit.omega_p, crit.drive)
    state, drive = states.state(0), states.drive(0)
    env = ThermalEnv(theta1=2.0, theta2=0.5)
    ext = lo_phase_extrema(fig_device, state, drive, env, 0.0)
    assert ext.diverged and ext.p_max == math.inf
    assert math.isnan(ext.p_min) and math.isnan(ext.phi_min)
    assert noise_power(fig_device, state, drive, env, 0.0, 0.3) == math.inf
    ext = lo_phase_extrema(fig_device, state, drive, env, 1e-3)
    assert not ext.diverged
    assert noise_power(fig_device, state, drive, env, 1e-3, ext.phi_min) \
        == pytest.approx(ext.p_min, abs=1e-12 * ext.p_max)


# ----------------------------------------------------------------- batched form


@settings(max_examples=60, deadline=None, derandomize=True)
@given(device_and_drives(), st.builds(ThermalEnv, theta, theta, theta),
       st.one_of(st.just(0.0), st.floats(-0.05, 0.05)))
def test_extrema_array_matches_scalar_path(case, env, omega):
    """The batched LO-phase extrema equal lo_phase_extrema branch by branch,
    bit for bit, with zero-temperature and hot baths, including the
    diverged rows at the critical point."""
    params, omega_p, b_in, psi = case
    states = branch_states(params, omega_p, b_in, psi)
    ext = lo_phase_extrema_array(params, states, env, omega)
    for i in range(states.energy.size):
        expected = lo_phase_extrema(params, states.state(i), states.drive(i),
                                    env, omega)
        got = (ext.p_min[i], ext.p_max[i], ext.phi_min[i], ext.phi_max[i],
               bool(ext.diverged[i]))
        assert float_bits(got) == float_bits(
            (expected.p_min, expected.p_max, expected.phi_min,
             expected.phi_max, expected.diverged))

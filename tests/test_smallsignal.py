import cmath
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_bits
from kerrcav import (DeviceParams, PumpDrive, SingularResponse, branch_states,
                     critical_point, gains_array, instability_locus,
                     intermodulation_gain, linearize, parametric_gain,
                     steady_state, steady_states, transfer_coefficients,
                     transfer_coefficients_array)
from test_steady import device_and_drives


def pumped_state(params, omega_p, amplitude, branch=0):
    drive = PumpDrive(omega_p=omega_p, amplitude=amplitude)
    return steady_states(params, drive)[branch], drive


def random_stable_points(rng, count):
    """Stable operating points across random lossy devices and drives."""
    points = []
    while len(points) < count:
        kerr = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-5.0, -3.0)
        params = DeviceParams(
            omega0=1.0, kerr=kerr,
            gamma1=10.0 ** rng.uniform(-3.0, -1.5),
            gamma2=10.0 ** rng.uniform(-3.0, -1.5),
            gamma3=rng.uniform(0.0, 2.0) * abs(kerr),
            phi1=rng.uniform(0.0, 2.0 * math.pi),
            phi2=rng.uniform(0.0, 2.0 * math.pi),
            phi3=rng.uniform(0.0, 2.0 * math.pi))
        drive = PumpDrive(omega_p=1.0 + rng.uniform(-5.0, 5.0) * params.gamma,
                          amplitude=10.0 ** rng.uniform(-3.0, 0.0),
                          phase=rng.uniform(0.0, 2.0 * math.pi))
        for state in steady_states(params, drive):
            if state.stable and len(points) < count:
                points.append((params, state, drive))
    return points


# ------------------------------------------------------------------- linearize

def test_linearize_without_pump(fig_device):
    state, drive = pumped_state(fig_device, 0.998, 0.0)
    w, v = linearize(fig_device, state, drive)
    delta = fig_device.omega0 - drive.omega_p
    assert w == pytest.approx(1j * delta + fig_device.gamma)
    assert v == 0.0


def test_conjugate_coupling_modulus(fig_device):
    crit = critical_point(fig_device)
    for frac in (0.2, 0.9, 1.8):
        state, drive = pumped_state(fig_device, crit.omega_p, frac * crit.drive)
        _, v = linearize(fig_device, state, drive)
        expected = math.hypot(fig_device.kerr, fig_device.gamma3) * state.energy
        assert abs(v) == pytest.approx(expected, rel=1e-12)


def test_relaxation_roots_satisfy_vieta(fig_device):
    rng = np.random.default_rng(21)
    crit = critical_point(fig_device)
    for _ in range(50):
        omega_p = rng.uniform(0.95, 1.01)
        state, drive = pumped_state(fig_device, omega_p,
                                    rng.uniform(0.0, 2.0) * crit.drive)
        w, v = linearize(fig_device, state, drive)
        lam_slow, lam_fast = state.lambda_slow, state.lambda_fast
        assert lam_slow * lam_fast == pytest.approx(
            abs(w) ** 2 - abs(v) ** 2, rel=1e-10)
        assert lam_slow + lam_fast == pytest.approx(2.0 * w.real, rel=1e-12)
        assert lam_slow.real <= lam_fast.real


# -------------------------------------------------------- transfer coefficients

def test_empty_lossless_cavity_reflection_phase():
    """Oracle: direct substitution into the empty-cavity expression."""
    params = DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.015, gamma2=0.0,
                          gamma3=0.0)
    state, drive = pumped_state(params, 0.996, 0.0)
    delta = params.omega0 - drive.omega_p
    for omega in (-0.01, 0.0, 0.004):
        resp = transfer_coefficients(params, state, drive, omega)
        expected = (-1j * omega + 1j * delta - params.gamma1) \
            / (-1j * omega + 1j * delta + params.gamma1)
        assert resp.refl_signal == pytest.approx(expected, rel=1e-12)
        assert abs(resp.refl_signal) == pytest.approx(1.0, abs=1e-12)
        for other in (resp.refl_conj, resp.loss_signal, resp.loss_conj,
                      resp.tpl_signal, resp.tpl_conj):
            assert other == 0.0


def test_no_pump_means_no_conjugate_channel(fig_device):
    state, drive = pumped_state(fig_device, 1.0, 0.0)
    resp = transfer_coefficients(fig_device, state, drive, 0.003)
    assert resp.conj_coupling == 0.0
    assert resp.refl_conj == 0.0
    assert resp.tpl_signal == 0.0


def test_lossless_signal_conjugate_balance():
    params = DeviceParams(omega0=1.0, kerr=5.0, gamma1=1e-4, gamma2=0.0,
                          gamma3=0.0)
    crit = critical_point(params)
    state, drive = pumped_state(params, crit.omega_p, 0.9 * crit.drive)
    for omega in np.linspace(-5e-4, 5e-4, 11):
        resp = transfer_coefficients(params, state, drive, omega)
        balance = abs(resp.refl_signal) ** 2 - abs(resp.refl_conj) ** 2
        assert balance == pytest.approx(1.0, abs=1e-9)


def test_singular_response_at_critical_point(fig_device):
    crit = critical_point(fig_device)
    drive = PumpDrive(omega_p=crit.omega_p, amplitude=crit.drive)
    roots = steady_states(fig_device, drive)
    state = min(roots, key=lambda s: abs(s.energy - crit.energy))
    with pytest.raises(SingularResponse):
        transfer_coefficients(fig_device, state, drive, 0.0)
    assert parametric_gain(fig_device, state, drive, 0.0) == math.inf
    assert intermodulation_gain(fig_device, state, drive, 0.0) == math.inf


def test_commutator_preserved_at_random_stable_points():
    rng = np.random.default_rng(123)
    offsets = np.concatenate(([0.0], np.logspace(-6.0, -0.5, 9)))
    for params, state, drive in random_stable_points(rng, 60):
        for omega in offsets:
            resp = transfer_coefficients(params, state, drive, float(omega))
            assert resp.commutator_sum() == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------------------ gains

def test_unit_gain_for_empty_lossless_cavity():
    params = DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.02, gamma2=0.0,
                          gamma3=0.0)
    state, drive = pumped_state(params, 1.001, 0.0)
    for omega in (-0.05, 0.0, 0.01):
        assert parametric_gain(params, state, drive, omega) == pytest.approx(1.0)
        assert intermodulation_gain(params, state, drive, omega) == 0.0


def test_lossless_gain_relation():
    params = DeviceParams(omega0=1.0, kerr=5.0, gamma1=1e-4, gamma2=0.0,
                          gamma3=0.0)
    crit = critical_point(params)
    state, drive = pumped_state(params, crit.omega_p, 0.8 * crit.drive)
    for omega in np.linspace(-3e-4, 3e-4, 7):
        gs = parametric_gain(params, state, drive, omega)
        gi = intermodulation_gain(params, state, drive, omega)
        assert gs == pytest.approx(1.0 + gi, rel=1e-9)
        assert gs >= 1.0


def test_parametric_amplification_near_critical(fig_device):
    crit = critical_point(fig_device)
    state, drive = pumped_state(fig_device, crit.omega_p, 0.98 * crit.drive)
    assert parametric_gain(fig_device, state, drive, 0.0) > 1.0
    assert intermodulation_gain(fig_device, state, drive, 0.0) > 1.0


def test_intermodulation_gain_formula(fig_device):
    crit = critical_point(fig_device)
    state, drive = pumped_state(fig_device, crit.omega_p, 0.7 * crit.drive)
    omega = 2.0 * fig_device.gamma
    resp = transfer_coefficients(fig_device, state, drive, omega)
    denom = abs((-1j * omega + state.lambda_slow)
                * (-1j * omega + state.lambda_fast)) ** 2
    expected = 4.0 * fig_device.gamma1**2 * abs(resp.conj_coupling) ** 2 / denom
    assert intermodulation_gain(fig_device, state, drive, omega) \
        == pytest.approx(expected, rel=1e-12)


def test_gain_even_in_offset_for_real_roots(fig_device):
    crit = critical_point(fig_device)
    state, drive = pumped_state(fig_device, crit.omega_p, 0.999 * crit.drive)
    assert abs(state.lambda_slow.imag) == 0.0
    for omega in (1e-4, 3.7e-3, 0.02):
        assert intermodulation_gain(fig_device, state, drive, omega) \
            == pytest.approx(intermodulation_gain(fig_device, state, drive,
                                                  -omega), rel=1e-12)


def test_gain_peaks_at_pole_frequency_when_underdamped(fig_device):
    # far-detuned point: poles sit well off the real axis (Im >> Re), so the
    # resolvent minimum over real offsets approaches +/- Im(lambda_slow)
    state, drive = pumped_state(fig_device, 0.85, 1.5)
    re = state.lambda_slow.real
    pole = abs(state.lambda_slow.imag)
    assert pole > 5.0 * re
    omegas = np.linspace(0.5 * pole, 1.5 * pole, 4001)

    def resolvent(omega):
        return abs((-1j * omega + state.lambda_slow)
                   * (-1j * omega + state.lambda_fast))

    d_values = [resolvent(w) for w in omegas]
    g_values = [intermodulation_gain(fig_device, state, drive, w)
                for w in omegas]
    spacing = omegas[1] - omegas[0]
    minimum = omegas[int(np.argmin(d_values))]
    # exact location of the resolvent minimum for a complex pair
    exact = math.sqrt(pole**2 - re**2)
    assert abs(minimum - exact) <= 2.0 * spacing
    assert minimum == pytest.approx(pole, rel=0.03)
    assert abs(omegas[int(np.argmax(g_values))] - minimum) <= 2.0 * spacing


def test_gains_invariant_under_phase_conventions(fig_device):
    crit = critical_point(fig_device)
    rng = np.random.default_rng(77)
    omega = 1.3 * fig_device.gamma
    state0, drive0 = pumped_state(fig_device, crit.omega_p, 1.4 * crit.drive)
    gs0 = parametric_gain(fig_device, state0, drive0, omega)
    gi0 = intermodulation_gain(fig_device, state0, drive0, omega)
    for _ in range(15):
        params = DeviceParams(
            omega0=fig_device.omega0, kerr=fig_device.kerr,
            gamma1=fig_device.gamma1, gamma2=fig_device.gamma2,
            gamma3=fig_device.gamma3, phi1=rng.uniform(-7.0, 7.0),
            phi2=rng.uniform(-7.0, 7.0), phi3=rng.uniform(-7.0, 7.0))
        drive = PumpDrive(omega_p=drive0.omega_p, amplitude=drive0.amplitude,
                          phase=rng.uniform(-7.0, 7.0))
        state = steady_states(params, drive)[0]
        assert parametric_gain(params, state, drive, omega) \
            == pytest.approx(gs0, rel=1e-12)
        assert intermodulation_gain(params, state, drive, omega) \
            == pytest.approx(gi0, rel=1e-12)


def test_gains_match_time_domain_demodulation(fig_device):
    """Independent dynamic oracle: integrate the linearized fluctuation
    equation with a sinusoidal probe and demodulate the +/-omega response;
    the measured gains must match the frequency-domain formulas."""
    from scipy.integrate import solve_ivp

    crit = critical_point(fig_device)
    state, drive = pumped_state(fig_device, crit.omega_p, 0.7 * crit.drive)
    w, v = linearize(fig_device, state, drive)
    omega = 3.0 * fig_device.gamma
    force = -1j * math.sqrt(2.0 * fig_device.gamma1)

    def rhs(t, y):
        a = y[0] + 1j * y[1]
        da = -w * a - v * a.conjugate() + force * cmath.exp(-1j * omega * t)
        return [da.real, da.imag]

    period = 2.0 * math.pi / omega
    t_settle = 40.0 / state.lambda_slow.real
    n_periods = 8
    t_end = t_settle + n_periods * period
    t_eval = np.linspace(t_settle, t_end, 4001)
    sol = solve_ivp(rhs, (0.0, t_end), [0.0, 0.0], t_eval=t_eval,
                    rtol=1e-11, atol=1e-13)
    a = sol.y[0] + 1j * sol.y[1]
    window = n_periods * period
    alpha = np.trapezoid(a * np.exp(1j * omega * sol.t), sol.t) / window
    beta = np.trapezoid(a * np.exp(-1j * omega * sol.t), sol.t) / window

    gs_measured = abs(1.0 - 1j * math.sqrt(2.0 * fig_device.gamma1) * alpha) ** 2
    gi_measured = abs(-1j * math.sqrt(2.0 * fig_device.gamma1) * beta) ** 2
    assert gs_measured == pytest.approx(
        parametric_gain(fig_device, state, drive, omega), rel=1e-9)
    # beta carries the conversion from the +omega probe to the -omega output
    image = transfer_coefficients(fig_device, state, drive, -omega)
    assert gi_measured == pytest.approx(abs(image.refl_conj) ** 2, rel=1e-9)


def test_gain_diverges_on_fold_points(fig_device):
    crit = critical_point(fig_device)
    drive = PumpDrive(omega_p=1.0, amplitude=2.0 * crit.drive)
    for omega_p, energy in instability_locus(fig_device, drive):
        fold_drive = PumpDrive(omega_p=omega_p, amplitude=drive.amplitude)
        state = steady_state(fig_device, fold_drive, energy)
        gain = intermodulation_gain(fig_device, state, fold_drive, 0.0)
        assert gain == math.inf or gain > 1e12


# ----------------------------------------------------------------- batched form

offsets_per_branch = st.lists(
    st.one_of(st.just(-0.0), st.floats(-0.1, 0.1, allow_subnormal=False)),
    max_size=2).map(lambda rest: [0.0] + rest)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(device_and_drives(), offsets_per_branch)
def test_transfer_array_matches_scalar_path(case, offsets):
    """Each (branch, offset) of the batched coefficients is the scalar
    record bit for bit; ``singular`` is set exactly where the scalar path
    raises SingularResponse (the critical point at zero offset), where both
    gains are inf.  Offsets are relative, or absolute signal frequencies
    minus the pump frequency, as the gain sweep forms them."""
    params, omega_p, b_in, psi = case
    states = branch_states(params, omega_p, b_in, psi)
    relative = np.broadcast_to(offsets, (states.energy.size, len(offsets)))
    absolute = 1.0 + relative - states.omega_p[:, None]
    for omega in (relative, absolute):
        resp = transfer_coefficients_array(params, states, omega)
        gains = gains_array(params, states, omega)
        for (i, j), w in np.ndenumerate(omega):
            state, drive = states.state(i), states.drive(i)
            try:
                expected = transfer_coefficients(params, state, drive, w)
            except SingularResponse:
                assert resp.singular[i, j]
                assert gains[0][i, j] == gains[1][i, j] == math.inf
                continue
            assert not resp.singular[i, j]
            got = [complex(getattr(resp, name)[i, j]) for name in
                   ("self_coupling", "conj_coupling", "refl_signal",
                    "refl_conj", "loss_signal", "loss_conj", "tpl_signal",
                    "tpl_conj")]
            assert float_bits(expected) == (float_bits(float(w)),) + tuple(
                float_bits(z) for z in got)
            assert float_bits((gains[0][i, j], gains[1][i, j])) == float_bits(
                (parametric_gain(params, state, drive, w),
                 intermodulation_gain(params, state, drive, w)))


def test_transfer_array_singular_at_critical_point(fig_device):
    crit = critical_point(fig_device)
    states = branch_states(fig_device, crit.omega_p, crit.drive)
    resp = transfer_coefficients_array(fig_device, states, [[0.0, 1e-3]])
    assert resp.singular.tolist() == [[True, False]]
    g_s, g_i = gains_array(fig_device, states, [[0.0, 1e-3]])
    assert g_s[0, 0] == g_i[0, 0] == math.inf
    assert math.isfinite(g_s[0, 1]) and math.isfinite(g_i[0, 1])

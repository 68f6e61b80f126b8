import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_bits
from kerrcav import (DegenerateModel, DeviceParams, PumpDrive,
                     UndefinedForZeroDrive, branch_states, critical_point,
                     cubic_coefficients, instability_locus,
                     predict_reflection, reflection_coefficient,
                     settled_state, settled_states,
                     solve_pump_energy, steady_state, steady_states)
from kerrcav.steady import (_atan2, _coefficients, _fold_energies, _hypot,
                            _reflection_modulus, _reflection_parts, _rows,
                            _settle, _solve)
from oracles import (joint_reflection, mp_record_errors, scalar_reflection,
                     scalar_solve_pump_energy, scalar_steady_state,
                     scalar_steady_states)

SQRT3 = math.sqrt(3.0)


def cubic_value(coeffs, e):
    c3, c2, c1, c0 = coeffs
    return ((c3 * e + c2) * e + c1) * e + c0


# ---------------------------------------------------------------- coefficients

def test_linear_cavity_coefficients_and_root():
    params = DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.01, gamma2=0.005,
                          gamma3=0.0)
    drive = PumpDrive(omega_p=0.998, amplitude=0.3)
    c3, c2, c1, c0 = cubic_coefficients(params, drive)
    assert c3 == 0.0
    assert c2 == 0.0
    delta = params.omega0 - drive.omega_p
    # closed-form Lorentzian of the linear cavity
    expected = 2.0 * params.gamma1 * drive.amplitude**2 \
        / (delta**2 + params.gamma**2)
    roots = solve_pump_energy(params, drive)
    assert roots == pytest.approx([expected], rel=1e-12)


def test_undriven_cavity_gives_zero(fig_device):
    drive = PumpDrive(omega_p=0.999, amplitude=0.0)
    c3, c2, c1, c0 = cubic_coefficients(fig_device, drive)
    assert c0 == 0.0
    assert solve_pump_energy(fig_device, drive) == [0.0]


def test_far_detuned_undriven_cavity_has_one_branch():
    """At zero drive the quadratic factor's discriminant is
    -4 (K gamma - gamma3 delta)^2 and its only possible double root,
    -gamma/gamma3, is negative, so E = 0 is the only steady state.  With
    gamma3 = 0 and a detuning of 3e8 gamma the discriminant rounds to 0,
    which would give a spurious double root E = -delta/K = 3e5."""
    params = DeviceParams(omega0=1.0, kerr=1.0, gamma1=1e-3, gamma2=0.0,
                          gamma3=0.0)
    drive = PumpDrive(omega_p=1.0 + 3e5, amplitude=0.0)
    assert solve_pump_energy(params, drive) == [0.0]
    assert scalar_solve_pump_energy(params, drive) == [0.0]
    states = branch_states(params, [drive.omega_p, 1.0 - 3e5], 0.0)
    assert states.energy.tolist() == [0.0, 0.0]


def test_undriven_cavity_has_no_negative_photon_number():
    """h(E) < 0 for E < 0, so no root of h = P >= 0 lies below 0.  On this
    far-detuned row at zero drive the Newton steps from the lower bound
    ended at E = -1.0e-28; the roots are clamped at 0."""
    params = DeviceParams(omega0=1.0, kerr=-0.0051594923568258596,
                          gamma1=0.1, gamma2=0.0031622776601683794,
                          gamma3=0.0029434672886482836)
    omega_p = [-19.00678340429945, -5.0, 0.5, 1.0, 3.0]
    for w in omega_p:
        drive = PumpDrive(omega_p=w, amplitude=0.0)
        for roots in (solve_pump_energy(params, drive),
                      scalar_solve_pump_energy(params, drive)):
            assert float_bits(roots) == float_bits([0.0])
    energy = branch_states(params, omega_p, 0.0).energy.tolist()
    assert float_bits(energy) == float_bits([0.0] * len(omega_p))


def test_coefficients_match_squared_response_balance(fig_device):
    """Oracle: the cubic must equal E*|linear-plus-cubic response|^2 - 2 g1 b^2.

    Sampling that brute-force expression on a few energies and fitting a
    cubic through the samples recovers the coefficients independently of
    how cubic_coefficients assembles them.
    """
    drive = PumpDrive(omega_p=1.0, amplitude=1.3)
    delta = fig_device.omega0 - drive.omega_p
    g = fig_device.gamma

    def squared_balance(e):
        amp = math.sqrt(e)
        response = (1j * delta + g) * amp \
            + (1j * fig_device.kerr + fig_device.gamma3) * amp**3
        return abs(response) ** 2 - 2.0 * fig_device.gamma1 * drive.amplitude**2

    samples = np.array([50.0, 150.0, 400.0, 900.0])
    fitted = np.polyfit(samples, [squared_balance(e) for e in samples], 3)
    coeffs = cubic_coefficients(fig_device, drive)
    for got, expected in zip(coeffs, fitted):
        assert got == pytest.approx(expected, rel=1e-8, abs=1e-18)


# ------------------------------------------------------------------ root count

def test_root_count_vs_drive(fig_device):
    crit = critical_point(fig_device)
    omegas = np.linspace(0.92, 1.01, 801)

    def counts_at(fraction):
        out = set()
        for omega_p in omegas:
            drive = PumpDrive(omega_p=omega_p, amplitude=fraction * crit.drive)
            out.add(len(solve_pump_energy(fig_device, drive)))
        return out

    assert counts_at(0.5) == {1}          # sub-critical: single valued
    over = counts_at(2.0)                 # above critical: multivalued window
    assert 3 in over
    assert over <= {1, 2, 3}


@pytest.mark.parametrize("kerr, omega_p", [(-1e-4, 1e200), (-1e200, 1.0)])
def test_cubic_coefficients_share_the_solve_check(fig_device, kerr, omega_p):
    """A coefficient that is not finite (c1 from the detuning, c3 from K)
    is the same OverflowError from cubic_coefficients as from the solve."""
    params = dataclasses.replace(fig_device, kerr=kerr)
    drive = PumpDrive(omega_p=omega_p, amplitude=1e-3)
    for solve in (cubic_coefficients, steady_states):
        with pytest.raises(OverflowError) as excinfo:
            solve(params, drive)
        assert str(excinfo.value) == "cubic coefficient is not finite"


def solve_batch_of_one(params, drive):
    """The pump solve of one drive as a batch: ``steady._solve``."""
    return _solve(params, *_rows(drive.omega_p, drive.amplitude))


@pytest.mark.parametrize("amplitude", [math.inf, math.nan])
@pytest.mark.parametrize("kerr, omega_p", [(-1e-4, 1e200), (-1e200, 1.0)])
def test_drive_power_is_checked_before_the_coefficients(fig_device, kerr,
                                                        omega_p, amplitude):
    """A drive power and a cubic coefficient that are both not finite name
    the drive power, from the solve, the steady states and
    cubic_coefficients alike."""
    params = dataclasses.replace(fig_device, kerr=kerr)
    drive = PumpDrive(omega_p=omega_p, amplitude=amplitude)
    for solve in (solve_batch_of_one, steady_states, cubic_coefficients):
        with pytest.raises(OverflowError) as excinfo:
            solve(params, drive)
        assert str(excinfo.value) == "drive power 2 gamma1 b_in^2 is not finite"


def test_degenerate_model_raises():
    params = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.0, gamma2=0.0,
                          gamma3=1e-6)
    with pytest.raises(DegenerateModel):
        solve_pump_energy(params, PumpDrive(omega_p=1.0, amplitude=0.1))


def test_residuals_on_driven_sweeps(fig_device):
    crit = critical_point(fig_device)
    rng = np.random.default_rng(3)
    for _ in range(200):
        drive = PumpDrive(omega_p=rng.uniform(0.9, 1.05),
                          amplitude=rng.uniform(0.0, 3.0) * crit.drive)
        coeffs = cubic_coefficients(fig_device, drive)
        for e in solve_pump_energy(fig_device, drive):
            scale = max(abs(coeffs[0]) * e**3, abs(coeffs[1]) * e**2,
                        abs(coeffs[2]) * e, abs(coeffs[3]), 1e-300)
            assert abs(cubic_value(coeffs, e)) <= 1e-10 * scale


def test_tangency_reports_two_roots_with_marginal_flag():
    """A drive engineered to put a fold exactly on the curve: the double
    root is reported once (count 2) and sits at critical slowing down."""
    params = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                          gamma3=0.01e-4 / SQRT3)
    e_double = 600.0
    k = params.kerr
    g3 = params.gamma3
    c3 = k * k + g3 * g3
    # pick the detuning that makes E=600 satisfy d(cubic)/dE = 0
    disc = 4.0 * k**2 * e_double**2 \
        - 3.0 * c3 * e_double**2 - 4.0 * params.gamma * g3 * e_double \
        - params.gamma**2
    assert disc > 0.0
    delta = -2.0 * k * e_double - math.sqrt(disc)
    c2 = 2.0 * (delta * k + params.gamma * g3)
    c1 = delta**2 + params.gamma**2
    amplitude = math.sqrt(
        ((c3 * e_double + c2) * e_double + c1) * e_double / (2.0 * params.gamma1))
    drive = PumpDrive(omega_p=params.omega0 - delta, amplitude=amplitude)
    roots = solve_pump_energy(params, drive)
    assert len(roots) == 2
    double = min(roots, key=lambda r: abs(r - e_double))
    assert double == pytest.approx(e_double, rel=1e-6)
    state = steady_state(params, drive, double)
    assert state.marginal
    assert not state.stable


# ---------------------------------------------------------------- steady state

def test_undriven_state_is_trivial(fig_device):
    drive = PumpDrive(omega_p=0.997, amplitude=0.0)
    state = steady_states(fig_device, drive)[0]
    assert state.energy == 0.0
    assert state.amplitude == 0.0
    assert state.phase == 0.0
    assert state.reflected == 0.0
    assert state.lambda_slow.real == pytest.approx(fig_device.gamma)
    assert state.lambda_fast.real == pytest.approx(fig_device.gamma)
    assert state.stable


def test_energy_equals_amplitude_squared(fig_device):
    drive = PumpDrive(omega_p=0.999, amplitude=1.0)
    for state in steady_states(fig_device, drive):
        assert state.energy == pytest.approx(state.amplitude**2, rel=1e-15)


def test_lossless_cavity_reflects_all_power():
    params = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.0,
                          gamma3=0.0)
    for omega_p in np.linspace(0.95, 1.02, 41):
        drive = PumpDrive(omega_p=omega_p, amplitude=0.8)
        for state in steady_states(params, drive):
            refl = reflection_coefficient(state, drive)
            assert abs(refl) == pytest.approx(1.0, abs=1e-12)


def test_linear_lossless_detuned_cavity_reflection():
    params = DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.02, gamma2=0.0,
                          gamma3=0.0)
    for omega_p in (0.9, 0.999, 1.0, 1.07):
        drive = PumpDrive(omega_p=omega_p, amplitude=0.5)
        state = steady_states(params, drive)[0]
        assert abs(reflection_coefficient(state, drive)) == pytest.approx(1.0, abs=1e-12)


def test_lambda_slow_vanishes_at_critical_point(fig_device):
    crit = critical_point(fig_device)
    drive = PumpDrive(omega_p=crit.omega_p, amplitude=crit.drive)
    roots = solve_pump_energy(fig_device, drive)
    assert len(roots) == 1
    state = steady_state(fig_device, drive, roots[0])
    assert abs(state.lambda_slow.real) <= 1e-9 * fig_device.gamma
    assert state.marginal


def test_weak_drive_reflection_limit(fig_device):
    """Oracle: numeric evaluation at b = 1e-8 against the linearized form."""
    drive = PumpDrive(omega_p=0.9995, amplitude=1e-8)
    state = steady_states(fig_device, drive)[0]
    refl = reflection_coefficient(state, drive)
    delta = fig_device.omega0 - drive.omega_p
    g1, g2 = fig_device.gamma1, fig_device.gamma2
    expected = (g2 - g1 + 1j * delta) / (g1 + g2 + 1j * delta)
    assert refl == pytest.approx(expected, rel=1e-6)
    # matches the open-circuit limit magnitude regardless of sign convention
    assert abs(refl) == pytest.approx(abs((g1 - g2 - 1j * delta)
                                          / (g1 + g2 + 1j * delta)), rel=1e-6)


def test_reflection_dip_below_unity(fig_device):
    crit = critical_point(fig_device)
    drive = PumpDrive(omega_p=crit.omega_p, amplitude=0.5 * crit.drive)
    state = steady_states(fig_device, drive)[0]
    assert abs(reflection_coefficient(state, drive)) < 1.0


def test_reflection_requires_nonzero_drive(fig_device):
    drive = PumpDrive(omega_p=1.0, amplitude=0.0)
    state = steady_states(fig_device, drive)[0]
    with pytest.raises(UndefinedForZeroDrive):
        reflection_coefficient(state, drive)


def test_power_bookkeeping_with_losses(fig_device):
    """|reflected|^2 deficit must equal the dissipated flux 2 g2 E + 2 g3 E^2."""
    rng = np.random.default_rng(5)
    crit = critical_point(fig_device)
    for _ in range(100):
        drive = PumpDrive(omega_p=rng.uniform(0.95, 1.02),
                          amplitude=rng.uniform(0.05, 2.5) * crit.drive)
        for state in steady_states(fig_device, drive):
            incoming = drive.amplitude**2
            outgoing = abs(state.reflected) ** 2
            assert outgoing <= incoming * (1.0 + 1e-12)
            dissipated = 2.0 * fig_device.gamma2 * state.energy \
                + 2.0 * fig_device.gamma3 * state.energy**2
            assert incoming - outgoing == pytest.approx(dissipated, rel=1e-9,
                                                        abs=1e-15)


def test_gauge_invariance_under_port_and_pump_phase(fig_device):
    rng = np.random.default_rng(9)
    crit = critical_point(fig_device)
    base_drive = PumpDrive(omega_p=crit.omega_p, amplitude=1.7 * crit.drive)
    base = steady_states(fig_device, base_drive)
    for _ in range(20):
        phi1 = rng.uniform(-7.0, 7.0)
        psi1 = rng.uniform(-7.0, 7.0)
        params = DeviceParams(omega0=fig_device.omega0, kerr=fig_device.kerr,
                              gamma1=fig_device.gamma1, gamma2=fig_device.gamma2,
                              gamma3=fig_device.gamma3, phi1=phi1)
        drive = PumpDrive(omega_p=base_drive.omega_p,
                          amplitude=base_drive.amplitude, phase=psi1)
        for ref, state in zip(base, steady_states(params, drive)):
            assert state.amplitude == pytest.approx(ref.amplitude, rel=1e-12)
            assert abs(state.reflected) == pytest.approx(abs(ref.reflected),
                                                         rel=1e-12)
            assert state.lambda_slow == pytest.approx(ref.lambda_slow, rel=1e-12)
            assert state.lambda_fast == pytest.approx(ref.lambda_fast, rel=1e-12)


def test_phase_definition_solves_drive_balance(fig_device):
    """The returned phase must make the nonlinear response match the drive
    term of the equation of motion."""
    crit = critical_point(fig_device)
    drive = PumpDrive(omega_p=crit.omega_p, amplitude=1.5 * crit.drive,
                      phase=0.3)
    for state in steady_states(fig_device, drive):
        if state.energy == 0.0:
            continue
        delta = fig_device.omega0 - drive.omega_p
        lhs = (1j * delta + fig_device.gamma) * state.amplitude \
            + (1j * fig_device.kerr + fig_device.gamma3) * state.amplitude**3
        rhs = -1j * math.sqrt(2.0 * fig_device.gamma1) * drive.amplitude \
            * cmath.exp(1j * (fig_device.phi1 + state.phase - drive.phase))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_time_integration_settles_on_cubic_roots(fig_device):
    """Independent dynamic oracle: marching the mean-field equation of
    motion to steady state must land on a stable cubic root, never the
    unstable middle branch."""
    from scipy.integrate import solve_ivp

    from kerrcav import instability_locus

    def settle(drive, a0=0j):
        delta = fig_device.omega0 - drive.omega_p
        g = fig_device.gamma
        k, g3 = fig_device.kerr, fig_device.gamma3
        force = -1j * math.sqrt(2.0 * fig_device.gamma1) * drive.amplitude

        def rhs(_, y):
            a = y[0] + 1j * y[1]
            da = -(1j * delta + g) * a - (1j * k + g3) * abs(a) ** 2 * a + force
            return [da.real, da.imag]

        sol = solve_ivp(rhs, (0.0, 60.0 / g), [a0.real, a0.imag],
                        rtol=1e-10, atol=1e-12)
        return abs(sol.y[0, -1] + 1j * sol.y[1, -1]) ** 2

    crit = critical_point(fig_device)
    for offset, frac in ((0.0, 0.5), (-2e-3, 0.8)):
        drive = PumpDrive(omega_p=crit.omega_p + offset,
                          amplitude=frac * crit.drive)
        only = steady_states(fig_device, drive)[0]
        assert settle(drive) == pytest.approx(only.energy, rel=1e-8)

    folds = instability_locus(
        fig_device, PumpDrive(omega_p=1.0, amplitude=2.0 * crit.drive))
    inside = 0.5 * (folds[0][0] + folds[1][0])
    drive = PumpDrive(omega_p=inside, amplitude=2.0 * crit.drive)
    low, middle, high = steady_states(fig_device, drive)
    assert settle(drive) == pytest.approx(low.energy, rel=1e-8)
    kick = 2.0j * math.sqrt(high.energy)
    assert settle(drive, a0=kick) == pytest.approx(high.energy, rel=1e-8)


def test_branches_sorted_and_indexed(fig_device):
    from kerrcav import instability_locus

    crit = critical_point(fig_device)
    drive = PumpDrive(omega_p=crit.omega_p, amplitude=2.0 * crit.drive)
    folds = instability_locus(fig_device, drive)
    assert len(folds) == 2
    # inside the fold window the response is three valued
    inside = 0.5 * (folds[0][0] + folds[1][0])
    drive = PumpDrive(omega_p=inside, amplitude=drive.amplitude)
    states = steady_states(fig_device, drive)
    assert len(states) == 3
    energies = [s.energy for s in states]
    assert energies == sorted(energies)
    assert [s.branch_index for s in states] == [0, 1, 2]
    assert states[0].stable and not states[1].stable and states[2].stable


def test_settled_state_is_lowest_stable_branch(fig_device):
    from kerrcav import instability_locus

    crit = critical_point(fig_device)
    drive = PumpDrive(omega_p=crit.omega_p, amplitude=2.0 * crit.drive)
    folds = instability_locus(fig_device, drive)
    inside = PumpDrive(omega_p=0.5 * (folds[0][0] + folds[1][0]),
                       amplitude=drive.amplitude)
    assert settled_state(fig_device, inside) == steady_states(fig_device, inside)[0]
    # at the critical point no branch is stable: the lowest one is returned
    at_crit = PumpDrive(omega_p=crit.omega_p, amplitude=crit.drive)
    states = steady_states(fig_device, at_crit)
    assert not any(s.stable for s in states)
    assert settled_state(fig_device, at_crit) == states[0]


# ----------------------------------------------------------- batched kernel

@st.composite
def device_and_drives(draw):
    """A random device and 12 drives from 0.1x to 20x its critical drive
    (or a like scale without one).  A pump frequency lies between the folds
    when there are two, else across the band the resonance is pulled over.
    Includes gamma3 = 0, K = gamma3 = 0, gamma2 = 0, zero drive, the
    critical point and a fold point."""
    kind = draw(st.sampled_from(["lossy", "no_tpl", "linear"]))
    kerr = 10.0 ** draw(st.floats(-6.0, -2.0))
    kerr *= draw(st.sampled_from([-1.0, 1.0]))
    gamma1 = 10.0 ** draw(st.floats(-3.0, -1.0))
    gamma2 = draw(st.sampled_from([0.0, 10.0 ** draw(st.floats(-3.0, -1.0))]))
    gamma3 = abs(kerr) * draw(st.floats(0.0, 0.8))
    if kind != "lossy":
        gamma3 = 0.0
    if kind == "linear":
        kerr = 0.0
    params = DeviceParams(omega0=1.0, kerr=kerr, gamma1=gamma1, gamma2=gamma2,
                          gamma3=gamma3, phi1=draw(st.floats(-3.0, 3.0)))
    g = params.gamma
    crit = critical_point(params)
    b_ref = crit.drive if crit.exists else math.sqrt(g**3 / gamma1 / 1e-4)
    omega_p, b_in = [], []
    for _ in range(12):
        b = b_ref * 10.0 ** draw(st.floats(-1.0, math.log10(20.0)))
        folds = instability_locus(params, PumpDrive(omega_p=1.0, amplitude=b))
        if len(folds) == 2:
            lo, hi = sorted(w for w, _ in folds)
            w = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
        else:
            e_peak = 2.0 * gamma1 * b * b / (g * g)
            w = (1.0 + kerr * e_peak * draw(st.floats(-0.2, 1.2))
                 + g * draw(st.floats(-5.0, 5.0)))
        omega_p.append(w)
        b_in.append(b)
    b_in[0] = 0.0
    if crit.exists:
        omega_p[1], b_in[1] = crit.omega_p, crit.drive
        b_in[2] = 3.0 * crit.drive
        omega_p[2] = instability_locus(
            params, PumpDrive(omega_p=1.0, amplitude=b_in[2]))[0][0]
    return params, omega_p, b_in, draw(st.floats(-3.0, 3.0))


EPS = np.finfo(float).eps


def assert_record_near_mpmath(params, drive, state):
    """The phase and the reflected pump of ``state`` against the record
    that :func:`oracles.mp_record_errors` evaluates from the definition.

    Both closed forms take z(E) = a + ib, whose parts carry an absolute
    rounding error of about eps (|delta| + |K| E + gamma + gamma3 E); the
    phase atan2(a, -b) turns it into eps kappa and the reflected pump
    b_in (1 - 2 gamma1 / z) into less than eps kappa b_in, with kappa =
    (|delta| + |K| E + gamma + gamma3 E) / |z| >= 1.  The bounds are twice
    that, plus the phase's sum psi - phi1 + atan2: 2 eps (|psi| + |phi1| +
    pi + kappa) and 2 eps kappa b_in.  Over this module's draws the worst
    entries used 0.47 and 0.98 of eps times those scales."""
    a = params.gamma + params.gamma3 * state.energy
    delta = params.omega0 - drive.omega_p
    kappa = (abs(delta) + abs(params.kerr) * state.energy + a) \
        / math.hypot(a, delta + params.kerr * state.energy)
    phase_error, reflected_error = mp_record_errors(params, drive, state)
    assert phase_error <= 2.0 * EPS * (abs(drive.phase) + abs(params.phi1)
                                       + math.pi + kappa)
    assert reflected_error <= 2.0 * EPS * kappa * drive.amplitude


@settings(max_examples=150, deadline=None, derandomize=True)
@given(device_and_drives())
def test_settled_states_match_scalar_path(case):
    """The kernel gives, drive for drive, the scalar reference's branch
    count and settled branch, bit for bit, with its phase and reflected
    pump within the bounds of :func:`assert_record_near_mpmath`; and
    predict_reflection gives the scalar closed form |r| of that branch,
    bit for bit."""
    params, omega_p, b_in, psi = case
    batch = settled_states(params, omega_p, b_in, psi)
    driven = [i for i, b in enumerate(b_in) if b > 0.0]
    magnitude = dict(zip(driven, predict_reflection(
        params, [omega_p[i] for i in driven], [b_in[i] for i in driven])))
    for i, (w, b) in enumerate(zip(omega_p, b_in)):
        drive = PumpDrive(omega_p=w, amplitude=b, phase=psi)
        branches = scalar_steady_states(params, drive)
        expected = next((s for s in branches if s.stable), branches[0])
        assert batch.n_branches[i] == len(branches)
        assert batch.state(i) == expected
        assert batch.drive(i) == drive
        assert_record_near_mpmath(params, drive, batch.state(i))
        if b > 0.0:
            assert magnitude[i] == scalar_reflection(params, drive,
                                                     expected.energy)[0]


def test_linear_device_root_beyond_float_range_is_overflow():
    """K = gamma3 = 0 leaves h(E) = c1 E, whose root p / c1 overflows at
    b_in = 1e154 while the coefficients are finite; it fails the same
    finiteness check as a Kerr root, with the root's message from every
    solve.  Only a linear device gets there: with c3 > 0 the root is at
    most (P / c3)^(1/3), below 4e210 for any finite P and c3 at least the
    smallest subnormal."""
    params = DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.01, gamma2=0.011,
                          gamma3=0.0)
    drive = PumpDrive(omega_p=1.0, amplitude=1e154)
    assert all(map(math.isfinite, cubic_coefficients(params, drive)))
    for solve in (solve_batch_of_one, steady_states, solve_pump_energy,
                  settled_state, scalar_steady_states):
        with pytest.raises(OverflowError) as excinfo:
            solve(params, drive)
        assert str(excinfo.value) == "cubic root beyond the float range"
    assert math.isfinite(solve_pump_energy(
        params, PumpDrive(omega_p=1.0, amplitude=1e150))[0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(device_and_drives())
def test_branch_states_match_scalar_path(case):
    """Every branch of every drive, bit for bit (the sign of zero included):
    the same entries, in order, as the scalar reference drive by drive, and
    the same reflection coefficient; the phase and the reflected pump also
    within the bounds of :func:`assert_record_near_mpmath`."""
    params, omega_p, b_in, psi = case
    batch = branch_states(params, omega_p, b_in, psi)
    with np.errstate(divide="ignore", invalid="ignore"):
        # garbage at zero drive, not checked
        re = batch.reflected.real / batch.b_in
        im = batch.reflected.imag / batch.b_in
    expected = []
    for i, (w, b) in enumerate(zip(omega_p, b_in)):
        drive = PumpDrive(omega_p=w, amplitude=b, phase=psi)
        branches = scalar_steady_states(params, drive)
        expected.extend((i, drive, len(branches), s) for s in branches)
    assert batch.energy.size == len(expected)
    for j, (i, drive, count, state) in enumerate(expected):
        assert (batch.row[j], batch.n_branches[j]) == (i, count)
        assert batch.drive(j) == drive
        assert float_bits(batch.state(j)) == float_bits(state)
        assert_record_near_mpmath(params, drive, batch.state(j))
        if drive.amplitude > 0.0:
            assert float_bits(complex(re[j], im[j])) == float_bits(
                reflection_coefficient(state, drive))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(device_and_drives())
def test_steady_state_matches_scalar_record(case):
    """steady_state, the kernels' record for one entry, is the scalar
    reference's record bit for bit: at every branch energy of every drive,
    at E = 0, and at the fold points of each drive amplitude.  Its phase
    and reflected pump are within the bounds of
    :func:`assert_record_near_mpmath` except at E = 0 under a nonzero
    drive, which balances no drive and so has no reference record."""
    params, omega_p, b_in, psi = case
    for w, b in zip(omega_p, b_in):
        drive = PumpDrive(omega_p=w, amplitude=b, phase=psi)
        points = [(drive, e, i) for i, e in
                  enumerate(scalar_solve_pump_energy(params, drive))]
        points.append((drive, 0.0, 0))
        points.extend((PumpDrive(omega_p=fold, amplitude=b, phase=psi), e, 1)
                      for fold, e in instability_locus(params, drive))
        for at, e, i in points:
            state = steady_state(params, at, e, i)
            assert float_bits(state) == float_bits(
                scalar_steady_state(params, at, e, i))
            if e > 0.0 or at.amplitude == 0.0:
                assert_record_near_mpmath(params, at, state)


# ------------------------------------------------------ settled-entry kernel

def assert_settle_picks_settled_entry(params, omega_p, b_in, psi):
    """steady._settle, which builds no record, picks at each drive the
    entry a slowly swept drive settles on: the first stable branch of
    branch_states, else branch 0.  Its energy bits, branch index and branch
    count are those of that entry and of settled_states.  Returns the
    branch counts and whether any settled entry is marginal."""
    energy, index, count = _settle(params, np.array(omega_p, dtype=float),
                                   np.array(b_in, dtype=float))
    batch = settled_states(params, omega_p, b_in, psi)
    branches = branch_states(params, omega_p, b_in, psi)
    for i in range(len(omega_p)):
        entries = np.flatnonzero(branches.row == i)
        stable = entries[branches.stable[entries]]
        j = stable[0] if stable.size else entries[0]
        assert float_bits(float(energy[i])) == float_bits(
            float(branches.energy[j])) == float_bits(float(batch.energy[i]))
        assert index[i] == branches.branch_index[j] == batch.branch_index[i]
        assert count[i] == branches.n_branches[j] == batch.n_branches[i]
    return set(count.tolist()), bool(batch.marginal.any())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(device_and_drives())
def test_settle_kernel_matches_settled_states(case):
    """On random devices, with drives from zero through the critical point
    and a fold point to 20x critical, inside and outside the fold band."""
    assert_settle_picks_settled_entry(*case)


def test_settle_kernel_on_every_branch_count(fig_device):
    """Rows with one branch (below and at the critical drive, where the
    settled entry is marginal), two (a fold double root) and three (inside
    the fold band), in one batch and drive by drive."""
    crit = critical_point(fig_device)
    amplitude = 2.0 * crit.drive
    (lo, _), (hi, _) = sorted(instability_locus(
        fig_device, PumpDrive(omega_p=1.0, amplitude=amplitude)))
    omega_p = [crit.omega_p, crit.omega_p, lo, hi, 0.5 * (lo + hi),
               0.25 * lo + 0.75 * hi, hi + 0.01]
    b_in = [0.5 * crit.drive, crit.drive] + [amplitude] * 5
    counts, marginal = assert_settle_picks_settled_entry(
        fig_device, omega_p, b_in, 0.3)
    assert counts == {1, 2, 3} and marginal
    for w, b in zip(omega_p, b_in):
        assert_settle_picks_settled_entry(fig_device, [w], [b], 0.3)


# ------------------------------------------------- real-arithmetic helpers

def test_atan2_is_one_numpy_call_on_floats_and_arrays():
    """steady._atan2 is np.arctan2 for floats (returned as Python floats),
    1-element, n-element and strided arrays alike, bit for bit; it gives
    math.atan2's values at the signs of zero, the infinities, the smallest
    subnormal and NaN, and is within 1 ulp of it elsewhere (NumPy's build
    may round the last bit the other way)."""
    rng = np.random.default_rng(2024)
    special = [0.0, -0.0, 5e-324, -5e-324, -1.0, 1.0, math.inf, -math.inf,
               1e300, math.nan]
    n = 2000
    y = np.concatenate([rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n),
                        np.repeat(special, len(special))])
    x = np.concatenate([rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n),
                        np.tile(special, len(special))])
    whole = _atan2(y, x)
    floats = [_atan2(a, b) for a, b in zip(y.tolist(), x.tolist())]
    assert {type(v) for v in floats} == {float}
    assert float_bits(floats) == float_bits(whole.tolist())
    assert float_bits([_atan2(y[i:i + 1], x[i:i + 1])[0].item()
                       for i in range(y.size)]) == float_bits(whole.tolist())
    # forward strides only: NumPy may take another loop for a reversed view
    for step in (2, 3):
        assert float_bits(_atan2(y[::step], x[::step]).tolist()) == (
            float_bits(whole[::step].tolist()))
    expected = np.array([math.atan2(a, b)
                         for a, b in zip(y.tolist(), x.tolist())])
    assert float_bits(whole[n:].tolist()) == float_bits(expected[n:].tolist())
    assert np.all(abs(whole[:n] - expected[:n])
                  <= np.spacing(abs(expected[:n])))


def test_fold_energies_agree_on_floats_and_arrays(fig_device):
    """steady._fold_energies of Python floats (math.sqrt, NaN where disc <
    0) gives the fold flag and the E- and E+ bits of the same call on
    1-element arrays (np.sqrt), as Python floats: with folds, at disc = 0,
    at disc < 0 and at c2 >= 0, and on a device's coefficients across the
    detuning; the fold locus built on it returns Python floats."""
    cases = [(1.0, -3.0, 3.0), (1.0, -3.0, 2.0), (1.0, -1.0, 1.0),
             (1.0, 2.0, 3.0), (1.0, 2.0, 1.0), (1.0, 3.0, 3.0),
             (1.0, -0.0, -1.0)]
    params = fig_device
    cases += [_coefficients(delta, params.kerr, params.gamma3, params.gamma)
              for delta in np.linspace(-0.05, 0.05, 201).tolist()]
    seen = set()
    for c3, c2, c1 in cases:
        disc = c2 * c2 - 3.0 * c3 * c1
        seen.add((c2 >= 0.0, (disc > 0.0) - (disc < 0.0)))
        fold, e_lo, e_hi = _fold_energies(c3, c2, c1)
        with np.errstate(invalid="ignore"):
            arrays = _fold_energies(*(np.array([c]) for c in (c3, c2, c1)))
        assert {type(e_lo), type(e_hi)} == {float}
        assert fold is bool(arrays[0][0])
        assert float_bits([e_lo, e_hi]) == float_bits(
            [arrays[1][0].item(), arrays[2][0].item()])
        assert math.isnan(e_lo) == math.isnan(e_hi) == (disc < 0.0)
    assert seen == {(a, b) for a in (False, True) for b in (-1, 0, 1)}
    crit = critical_point(params)
    for scale in (1.0, 2.0, 1e3):
        points = instability_locus(params, PumpDrive(
            omega_p=1.0, amplitude=scale * crit.drive))
        assert points and {type(v) for p in points for v in p} == {float}


def test_hypot_is_one_function_on_floats_and_arrays():
    """steady._hypot of floats (Python's complex abs) and of arrays
    (np.hypot) is the C library's hypot: the same bits."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=5000) * 10.0 ** rng.uniform(-200, 200, 5000)
    y = rng.normal(size=5000) * 10.0 ** rng.uniform(-200, 200, 5000)
    assert float_bits(_hypot(x, y).tolist()) == float_bits(
        [_hypot(a, b) for a, b in zip(x.tolist(), y.tolist())])


def test_rows_repeat_scalars_and_reject_other_sizes():
    w, b, psi = _rows([0.9, 1.0, 1.1], 0.5, [0.0])
    assert [a.tolist() for a in (w, b, psi)] == [
        [0.9, 1.0, 1.1], [0.5] * 3, [0.0] * 3]
    assert all(a.dtype == float for a in (w, b, psi))
    with pytest.raises(ValueError, match="sizes"):
        _rows([0.9, 1.0], [0.5, 0.6, 0.7])


def test_reflection_split_keeps_every_bit():
    """|r| alone and (Re r, Im r) alone equal, bit for bit, the parts of the
    joint evaluation they were split from, on every branch of the README
    grid (0.5x and 2x critical, 2,000 pump frequencies) and on criterion
    8's 162 rows settled at the fit's start; and the scalar closed form
    still agrees with both."""
    readme = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                          gamma3=5.8e-7)
    truth = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                         gamma3=3e-5)
    start = DeviceParams(omega0=1.0002, kerr=-1.15e-4, gamma1=0.009,
                         gamma2=0.0121, gamma3=3.9e-5)
    b_c, b_fit = critical_point(readme).drive, critical_point(truth).drive
    cases = [branch_states(readme, np.tile(np.linspace(0.9, 1.005, 2000), 2),
                           np.repeat([0.5 * b_c, 2.0 * b_c], 2000)),
             settled_states(start, np.tile(np.linspace(0.95, 1.005, 81), 2),
                            np.repeat([0.4 * b_fit, 0.9 * b_fit], 81))]
    for params, states in zip((readme, start), cases):
        delta = params.omega0 - states.omega_p
        joint = joint_reflection(params, states.energy, delta)
        modulus = _reflection_modulus(params, states.energy, delta)
        parts = _reflection_parts(params, states.energy, delta)
        assert modulus.tobytes() == joint[0].tobytes()
        assert np.array(parts).tobytes() == np.array(joint[1:]).tobytes()
        for i in range(0, states.energy.size, 37):
            scalar = scalar_reflection(params, states.drive(i),
                                       float(states.energy[i]))
            assert float_bits(scalar) == float_bits(
                (float(modulus[i]), float(parts[0][i]), float(parts[1][i])))

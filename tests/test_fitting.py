import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kerrcav import (ConfigError, DeviceParams, FitProblem, NonConvergence,
                     PumpDrive, UndefinedForZeroDrive, branch_states,
                     critical_point, gains_array, instability_locus,
                     intermodulation_gain, load_fit_problem, predict_gain,
                     predict_reflection, run_fit,
                     settled_states, steady_states, transfer_coefficients)
from kerrcav import fitting, smallsignal
from kerrcav.cli import main
from kerrcav.sweeps import _number
from conftest import float_bits
from oracles import (reference_jacobian, scalar_reflection, stacked_run_fit,
                     trf_fit)

SQRT3 = math.sqrt(3.0)

TRUE = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                    gamma3=0.3e-4)


def synth_refl_rows(params, fractions=(0.4, 0.9), n_points=61):
    crit = critical_point(params)
    omegas = np.linspace(0.95, 1.005, n_points)
    rows = []
    for frac in fractions:
        amplitude = frac * crit.drive
        for omega_p in omegas:
            rows.append((float(omega_p), float(amplitude),
                         predict_reflection(params, float(omega_p), amplitude)))
    return tuple(rows)


def guessed(params, rel):
    return DeviceParams(omega0=params.omega0 * (1.0 + 2e-4),
                        kerr=params.kerr * (1.0 + rel),
                        gamma1=params.gamma1 * (1.0 - rel),
                        gamma2=params.gamma2 * (1.0 + rel),
                        gamma3=params.gamma3 * (1.0 + 2.0 * rel))


FREE = ("omega0", "kerr", "gamma1", "gamma2", "gamma3")
BOUNDS = {"omega0": (0.9, 1.1), "kerr": (-1e-3, -1e-6),
          "gamma1": (1e-4, 0.1), "gamma2": (1e-4, 0.1),
          "gamma3": (0.0, 1e-3)}


def relative_errors(fitted, true):
    return {name: abs(getattr(fitted, name) - getattr(true, name))
            / abs(getattr(true, name)) for name in FREE}


# ------------------------------------------------------------------ validation

def test_needs_enough_points():
    with pytest.raises(ConfigError, match="5 data points"):
        FitProblem(initial=TRUE, free=("kerr",), bounds={},
                   refl_data=(((1.0, 0.1, 0.5),) * 4))


def test_bounds_must_contain_guess():
    rows = synth_refl_rows(TRUE, fractions=(0.5,), n_points=11)
    with pytest.raises(ConfigError, match="bounds"):
        FitProblem(initial=TRUE, free=("kerr",),
                   bounds={"kerr": (-1e-6, -1e-7)}, refl_data=rows)


@pytest.mark.parametrize("bounds, name", [
    ({"kerr": (TRUE.kerr, TRUE.kerr)}, "kerr"),
    # the user's bounds meet the domain gamma3 >= 0 in one point
    ({"gamma3": (-1e-3, 0.0)}, "gamma3"),
])
def test_degenerate_bounds_name_the_field(bounds, name):
    rows = synth_refl_rows(TRUE, fractions=(0.5,), n_points=11)
    start = dataclasses.replace(TRUE, gamma3=0.0)
    with pytest.raises(ConfigError, match=rf"fit\.bounds\.{name}.*empty range"):
        FitProblem(initial=start, free=("kerr", "gamma3"), bounds=bounds,
                   refl_data=rows)


def test_unknown_free_parameter_rejected():
    rows = synth_refl_rows(TRUE, fractions=(0.5,), n_points=11)
    with pytest.raises(ConfigError, match="unknown parameter"):
        FitProblem(initial=TRUE, free=("phi1",), bounds={}, refl_data=rows)
    # a bound on a misspelt name would leave its parameter unbounded
    with pytest.raises(ConfigError, match=r"fit\.bounds\.gama3.*unknown"):
        FitProblem(initial=TRUE, free=("kerr", "gamma3"),
                   bounds={"gama3": (0.0, 1.0)}, refl_data=rows)


def test_duplicate_free_parameter_rejected():
    """A parameter freed twice would leave a dead column in the fit."""
    rows = synth_refl_rows(TRUE, fractions=(0.5,), n_points=11)
    with pytest.raises(ConfigError, match=r"fit\.free\[1\].*kerr"):
        FitProblem(initial=TRUE, free=("kerr", "kerr"), bounds={},
                   refl_data=rows)
    with pytest.raises(ConfigError, match=r"fit\.free\[2\].*gamma1"):
        FitProblem(initial=TRUE, free=("gamma1", "kerr", "gamma1"),
                   bounds={}, refl_data=rows)


def test_empty_data_rejected():
    with pytest.raises(ConfigError):
        FitProblem(initial=TRUE, free=("kerr",), bounds={}, refl_data=())


# ------------------------------------------------------------ forward model

def scalar_settled(params, omega_p, b1_in):
    """The settled branch picked from the scalar steady_states path."""
    drive = PumpDrive(omega_p=omega_p, amplitude=b1_in)
    branches = steady_states(params, drive)
    return next((s for s in branches if s.stable), branches[0]), drive


def test_predict_scalar_input():
    amplitude = 1.3 * critical_point(TRUE).drive
    for omega_p in (0.95, 0.985, 0.99, 1.0):
        state, drive = scalar_settled(TRUE, omega_p, amplitude)
        refl = predict_reflection(TRUE, omega_p, amplitude)
        gain = predict_gain(TRUE, omega_p, amplitude)
        assert type(refl) is float and type(gain) is float
        assert refl == scalar_reflection(TRUE, drive, state.energy)[0]
        assert gain == intermodulation_gain(TRUE, state, drive, 0.0)


def test_predict_array_input():
    crit = critical_point(TRUE)
    omegas = np.linspace(0.95, 1.005, 23)
    amplitudes = np.linspace(0.1, 2.0, 23) * crit.drive
    refl = predict_reflection(TRUE, omegas, amplitudes)
    gain = predict_gain(TRUE, omegas, amplitudes)
    assert refl.shape == gain.shape == (23,)
    for i, (w, b) in enumerate(zip(omegas.tolist(), amplitudes.tolist())):
        state, drive = scalar_settled(TRUE, w, b)
        assert refl[i] == scalar_reflection(TRUE, drive, state.energy)[0]
        assert gain[i] == intermodulation_gain(TRUE, state, drive, 0.0)
    # one pump frequency broadcasts over the drives
    assert np.array_equal(predict_reflection(TRUE, 0.99, amplitudes),
                          predict_reflection(TRUE, np.full(23, 0.99),
                                             amplitudes))
    with pytest.raises(UndefinedForZeroDrive):
        predict_reflection(TRUE, omegas, np.where(omegas > 0.98, 0.0,
                                                  amplitudes))


# ------------------------------------------------------------- Jacobian

@st.composite
def jacobian_points(draw):
    """A random bistable device with nonzero phases phi1 and psi1, a subset
    of free parameters in any order, and data rows: at a supercritical
    drive, pump frequencies inside the bistable band (where the settled
    branch is chosen among three) and around it, and drives from 0.1 to 3
    times critical.  The first half of the rows are reflection rows, the
    rest gain rows."""
    kerr = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-5, -3))
    params = DeviceParams(
        omega0=1.0, kerr=kerr, gamma1=10.0 ** draw(st.floats(-3.0, -1.5)),
        gamma2=10.0 ** draw(st.floats(-3.0, -1.5)),
        gamma3=abs(kerr) * draw(st.floats(0.05, 0.5)),
        phi1=draw(st.floats(0.1, 6.2)))
    crit = critical_point(params)
    band = PumpDrive(crit.omega_p, crit.drive * draw(st.floats(1.2, 3.0)))
    lo, hi = sorted(w for w, _ in instability_locus(params, band))
    inside = [lo + (hi - lo) * t for t in draw(st.lists(
        st.floats(0.05, 0.95), min_size=2, max_size=4))]
    around = draw(st.lists(st.tuples(st.floats(-5.0, 5.0),
                                     st.floats(0.1, 3.0)),
                           min_size=2, max_size=4))
    rows = [(w, band.amplitude) for w in inside] + [
        (crit.omega_p + x * params.gamma, f * crit.drive) for x, f in around]
    order = draw(st.permutations(range(len(rows))))
    omega_p, b1_in = np.array([rows[i] for i in order]).T
    free = tuple(draw(st.lists(st.sampled_from(FREE), min_size=1,
                               max_size=len(FREE), unique=True)))
    return params, draw(st.floats(0.1, 6.2)), omega_p, b1_in, free


def natural_scale(params, name):
    """The scale on which the model varies with a parameter: gamma for
    omega0, the value itself for the others."""
    return params.gamma if name == "omega0" else abs(getattr(params, name))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(jacobian_points())
def test_jacobian_matches_central_differences(point):
    """The analytic Jacobian of |reflection| and G_I(0) agrees with central
    differences of predict_reflection and predict_gain, extrapolated from
    the steps h and h/2, to 1e-6 of each row's largest derivative, each
    taken times its parameter's scale, plus the rounding of the difference
    quotient, 1e-8 of the row's value.
    Rows whose settled branch changes within a step have no derivative to
    compare, and rows within |lambda_slow| < gamma / 100 of a fold
    (h'(E) = 0, where the Jacobian diverges) none that a fixed step
    resolves."""
    params, psi1, omega_p, b1_in, free = point
    n_refl = omega_p.size // 2

    def model(p):
        return np.concatenate([
            predict_reflection(p, omega_p[:n_refl], b1_in[:n_refl]),
            predict_gain(p, omega_p[n_refl:], b1_in[n_refl:])])

    states = settled_states(params, omega_p, b1_in, psi1)
    jac = fitting._jacobian(params, states.energy, omega_p, b1_in, free,
                            n_refl)
    scales = np.array([natural_scale(params, name) for name in free])
    compared = np.abs(states.lambda_slow) >= 0.01 * params.gamma
    central = np.empty_like(jac)
    for j, name in enumerate(free):
        h = 1e-6 * scales[j]
        value = getattr(params, name)
        ends = [dataclasses.replace(params, **{name: value + s * h})
                for s in (1.0, -1.0, 0.5, -0.5)]
        for end in ends:
            moved = settled_states(end, omega_p, b1_in, psi1)
            compared &= ((moved.branch_index == states.branch_index)
                         & (moved.n_branches == states.n_branches))
        wide, narrow = ((model(ends[i]) - model(ends[i + 1])) / (2.0 * step)
                        for i, step in ((0, h), (2, 0.5 * h)))
        # Richardson's extrapolation cancels the h^2 error term of the
        # central difference, which near a fold outgrows the tolerance
        central[:, j] = (4.0 * narrow - wide) / 3.0
    assume(compared.any())
    jac, central = jac[compared], central[compared]
    assert np.all(np.isfinite(jac))
    size = np.max(np.abs(jac * scales), axis=1, keepdims=True)
    magnitude = np.abs(model(params)[compared])[:, None]
    error = np.abs(jac - central) * scales
    assert np.all(error <= 1e-6 * size + 1e-8 * magnitude), error / size


@settings(max_examples=100, deadline=None, derandomize=True)
@given(jacobian_points(), st.floats(0.0, 1.0))
def test_jacobian_bits_match_the_full_width_reference(point, share):
    """Taking each observable's derivatives on its own rows only leaves
    every bit of the Jacobian as it was when both were taken on every row
    and sliced, at any split between reflection and gain rows."""
    params, psi1, omega_p, b1_in, free = point
    states = settled_states(params, omega_p, b1_in, psi1)
    n_refl = round(share * omega_p.size)
    jac = fitting._jacobian(params, states.energy, omega_p, b1_in, free,
                            n_refl)
    reference = reference_jacobian(params, states, free, n_refl)
    assert jac.shape == reference.shape
    assert jac.tobytes() == reference.tobytes()


def test_jacobian_bits_on_criterion_8_rows():
    """The criterion-8 scenario, its 162 rows all reflection, half gain
    and all gain, all five parameters free."""
    states = settled_states(TRUE, *np.array(synth_refl_rows(TRUE, n_points=81))
                            .T[:2])
    for n_refl in (162, 81, 0):
        jac = fitting._jacobian(TRUE, states.energy, states.omega_p,
                                states.b_in, FREE, n_refl)
        reference = reference_jacobian(TRUE, states, FREE, n_refl)
        assert np.all(np.isfinite(jac))
        assert jac.tobytes() == reference.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(jacobian_points(), st.lists(st.floats(-10.0, 10.0), min_size=1,
                                   max_size=3))
# next to a fold, where h'(E) = 5.8e-7 against terms of 0.07: there the
# expanded c1 + 2 c2 E + 3 c3 E^2 is 2.4e-11 off in G_I
@example(point=(DeviceParams(omega0=1.0, kerr=-1e-3, gamma1=0.01,
                             gamma2=0.001, gamma3=5e-4),
                1.0, np.array([0.8167]), np.array([7.30006315]), ("kerr",)),
         offsets=[0.0])
def test_identities_behind_the_jacobian(point, offsets):
    """On every branch, lambda_slow * lambda_fast = h'(E) = c1 + 2 c2 E +
    3 c3 E^2 to 1e-13 of its largest term, and at offsets omega (drawn in
    units of gamma) the closed-form resolvent D(omega) = h'(E) - omega^2
    - 2i omega (gamma + 2 gamma3 E) is (-i omega + lambda_slow)(-i omega +
    lambda_fast) of the branch's own roots to 1e-13 of the terms' size.
    On branches with |lambda_slow| >= gamma / 100 the closed-form gains
    G_S and G_I are |refl_signal|^2 and |refl_conj|^2 of the transfer
    coefficients to 1e-12.  On the settled branch G_I(0) =
    4 gamma1^2 (K^2 + gamma3^2) E^2 / h'(E)^2 to 1e-13 of predict_gain,
    with h'(E) = a^2 + b^2 + 2 E (a K + b gamma3), a = delta + K E and
    b = gamma + gamma3 E, a form that does not cancel near a fold."""
    params, psi1, omega_p, b1_in, _ = point
    k, g3, g = params.kerr, params.gamma3, params.gamma

    def slope(states):
        e = states.energy
        delta = params.omega0 - states.omega_p
        terms = (delta * delta + g * g, 4.0 * (delta * k + g * g3) * e,
                 3.0 * (k * k + g3 * g3) * e * e)
        return sum(terms), np.max(np.abs(terms), axis=0)

    branches = branch_states(params, omega_p, b1_in, psi1)
    h1, size = slope(branches)
    lam_slow, lam_fast = branches.lambda_slow, branches.lambda_fast
    product = lam_slow * lam_fast
    assert np.all(np.abs(product - h1) <= 1e-13 * size)

    omega = np.array(offsets)[None, :] * g
    d_re, d_im, _, _ = smallsignal._resolvent(
        params, branches.energy[:, None],
        (params.omega0 - branches.omega_p)[:, None], omega)
    roots = ((-1j * omega + lam_slow[:, None])
             * (-1j * omega + lam_fast[:, None]))
    scale = (size[:, None] + omega * omega
             + np.abs(omega) * (np.abs(lam_slow) + np.abs(lam_fast))[:, None])
    assert np.all(np.abs(d_re + 1j * d_im - roots) <= 1e-13 * scale)

    omega = np.broadcast_to(omega, roots.shape)
    g_s, g_i = gains_array(params, branches, omega)
    for (i, j), w in np.ndenumerate(omega):
        if not abs(lam_slow[i]) >= 0.01 * g:
            continue
        resp = transfer_coefficients(params, branches.state(i),
                                     branches.drive(i), w)
        for gain, coefficient in ((g_s[i, j], resp.refl_signal),
                                  (g_i[i, j], resp.refl_conj)):
            expected = abs(coefficient) ** 2
            assert abs(gain - expected) <= 1e-12 * expected

    settled = settled_states(params, omega_p, b1_in, psi1)
    e = settled.energy
    a = params.omega0 - settled.omega_p + k * e
    b = g + g3 * e
    factored = a * a + b * b + 2.0 * e * (a * k + b * g3)
    closed = (4.0 * params.gamma1 ** 2 * (k * k + g3 * g3) * e * e
              / factored ** 2)
    gain = predict_gain(params, omega_p, b1_in)
    assert np.all(np.abs(closed - gain) <= 1e-13 * gain)


# ------------------------------------------------------------------ round trip

def test_noiseless_round_trip_recovers_parameters():
    rows = synth_refl_rows(TRUE)
    problem = FitProblem(initial=guessed(TRUE, 0.15), free=FREE,
                         bounds=BOUNDS, refl_data=rows)
    result = run_fit(problem)
    errors = relative_errors(result.params, TRUE)
    assert all(err < 1e-3 for err in errors.values()), errors
    assert result.rms_residual < 1e-7
    assert result.converged


def test_fit_is_deterministic():
    rows = synth_refl_rows(TRUE, fractions=(0.6,), n_points=31)
    problem = FitProblem(initial=guessed(TRUE, 0.1), free=("omega0", "kerr"),
                         bounds={}, refl_data=rows)
    first = run_fit(problem)
    second = run_fit(problem)
    assert first == second


def test_noisy_fits_agree_with_scipy_trust_region():
    """On criterion 8's 20 noisy data sets (1 % noise on 162 reflection
    rows, all five parameters free) each fitted parameter agrees within
    1e-5 relative with SciPy's least_squares (trf) on the same model and
    Jacobian."""
    rows = synth_refl_rows(TRUE, n_points=81)
    start = DeviceParams(omega0=TRUE.omega0 * (1.0 + 2e-4),
                         kerr=TRUE.kerr * 1.15, gamma1=TRUE.gamma1 * 0.9,
                         gamma2=TRUE.gamma2 * 1.1, gamma3=TRUE.gamma3 * 1.3)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        noisy = tuple((w, b, r * (1.0 + 0.01 * rng.standard_normal()))
                      for w, b, r in rows)
        problem = FitProblem(initial=start, free=FREE, bounds={},
                             refl_data=noisy)
        fit = run_fit(problem)
        assert fit.converged
        for name, value in trf_fit(problem).items():
            assert abs(getattr(fit.params, name) - value) <= 1e-5 * abs(value)


def test_gain_rows_participate():
    crit = critical_point(TRUE)
    amplitude = 0.6 * crit.drive
    omegas = np.linspace(0.96, 1.002, 41)
    refl = tuple((float(w), amplitude, predict_reflection(TRUE, float(w),
                                                          amplitude))
                 for w in omegas)
    gain = tuple((float(w), amplitude, predict_gain(TRUE, float(w), amplitude))
                 for w in omegas[::4])
    start = DeviceParams(omega0=TRUE.omega0, kerr=TRUE.kerr * 1.15,
                         gamma1=TRUE.gamma1, gamma2=TRUE.gamma2,
                         gamma3=TRUE.gamma3 * 1.4)
    problem = FitProblem(initial=start, free=("kerr", "gamma3"),
                         bounds={}, refl_data=refl, gain_data=gain)
    result = run_fit(problem)
    errors = relative_errors(result.params, TRUE)
    assert errors["kerr"] < 1e-3
    assert errors["gamma3"] < 1e-2


def test_non_convergence_reports_best_so_far():
    """The fit takes 6 evaluations here; every smaller budget is spent to
    the last evaluation and reported with the best fit so far."""
    rows = synth_refl_rows(TRUE, fractions=(0.7,), n_points=41)
    problem = FitProblem(initial=guessed(TRUE, 0.2), free=FREE,
                         bounds=BOUNDS, refl_data=rows)
    assert run_fit(problem).n_evaluations == 6
    for budget in range(1, 6):
        with pytest.raises(NonConvergence) as excinfo:
            run_fit(problem, max_evaluations=budget)
        best = excinfo.value.best
        assert best.n_evaluations == budget
        assert best.converged is False
        assert math.isfinite(best.rms_residual)


def test_active_bound_keeps_every_evaluation_valid(monkeypatch):
    """Data from a device without two-photon loss pulls gamma3 onto its
    bound 0; the domain bounds keep every evaluated device valid, and
    n_evaluations counts every model evaluation (the analytic Jacobian
    reuses them and evaluates nothing)."""
    true = dataclasses.replace(TRUE, gamma3=0.0)
    rows = synth_refl_rows(true)
    checked = []
    validate = fitting.validate

    def spy(params):
        report = validate(params)
        checked.append(report.ok)
        return report

    monkeypatch.setattr(fitting, "validate", spy)
    problem = FitProblem(initial=guessed(TRUE, 0.15), free=FREE, bounds={},
                         refl_data=rows)
    result = run_fit(problem)
    assert result.converged
    assert 0.0 <= result.params.gamma3 < 1e-7
    assert len(checked) == result.n_evaluations and all(checked)


def count_model_calls(monkeypatch, fault):
    """Route the fit's model evaluations (one steady solve each) through a
    spy that counts them and lets ``fault(call_number, (energy, values))``
    raise or replace what the evaluation returns."""
    calls = []
    model = fitting._model

    def spy(*args):
        calls.append(None)
        return fault(len(calls), model(*args))

    monkeypatch.setattr(fitting, "_model", spy)
    return calls


@pytest.mark.parametrize("bad_call", [7, 2])
def test_undefined_point_mid_fit(monkeypatch, bad_call):
    """An overflow at one evaluated point: at the first trial step (2) or
    the last one of the unfaulted fit (7 of 7) the solver rejects the point,
    raises its damping and the fit still converges.  Every model
    evaluation is one steady solve, and the Jacobian passes add none."""
    rows = synth_refl_rows(TRUE)

    def fault(call, evaluated):
        if call == bad_call:
            raise OverflowError("math range error")
        return evaluated

    calls = count_model_calls(monkeypatch, fault)
    problem = FitProblem(initial=guessed(TRUE, 0.4), free=FREE,
                         bounds=BOUNDS, refl_data=rows)
    result = run_fit(problem)
    assert len(calls) > bad_call
    assert result.converged and result.n_evaluations == len(calls)
    errors = relative_errors(result.params, TRUE)
    assert all(err < 1e-3 for err in errors.values()), errors


def test_non_finite_jacobian_mid_fit_stops_the_fit(monkeypatch):
    """An accepted point whose derivatives are undefined (here its photon
    numbers are NaN while its residuals are finite) stops the fit with the
    best fit so far instead of handing the solver a NaN Jacobian."""
    rows = synth_refl_rows(TRUE)

    def fault(call, evaluated):
        energy, values = evaluated
        if call == 3:
            return np.full_like(energy, np.nan), values
        return evaluated

    calls = count_model_calls(monkeypatch, fault)
    problem = FitProblem(initial=guessed(TRUE, 0.15), free=FREE,
                         bounds=BOUNDS, refl_data=rows)
    with pytest.raises(NonConvergence) as excinfo:
        run_fit(problem)
    best = excinfo.value.best
    assert best.n_evaluations == len(calls) == 3
    assert not best.converged and math.isfinite(best.rms_residual)


def test_zero_reflection_stops_the_fit():
    """|r| is not differentiable where it vanishes: a critically coupled
    linear device (gamma2 = gamma1) reflects nothing at resonance, so the
    Jacobian there is not finite and the fit stops at its first point,
    reported as not converged."""
    start = DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.01, gamma2=0.01,
                         gamma3=0.0)
    omegas = (0.98, 0.99, 1.0, 1.01, 1.02)
    assert predict_reflection(start, 1.0, 0.1) < 1e-15
    rows = tuple((w, 0.1, 1.01 * predict_reflection(start, w, 0.1))
                 for w in omegas)
    problem = FitProblem(initial=start, free=("gamma2",), bounds={},
                         refl_data=rows)
    with pytest.raises(NonConvergence) as excinfo:
        run_fit(problem)
    best = excinfo.value.best
    assert best.params == start and best.n_evaluations == 1
    assert not best.converged and math.isfinite(best.rms_residual)


def test_fit_undefined_everywhere_is_not_converged():
    """With every b1_in zero the reflection is undefined at every point, so
    the fit stops at its first evaluation: a failure, not a fit."""
    rows = tuple((w, 0.0, r) for w, _, r
                 in synth_refl_rows(TRUE, fractions=(0.7,), n_points=11))
    problem = FitProblem(initial=guessed(TRUE, 0.1), free=FREE,
                         bounds=BOUNDS, refl_data=rows)
    with pytest.raises(NonConvergence) as excinfo:
        run_fit(problem)
    assert not excinfo.value.best.converged


def test_python_built_problem_fits_a_negative_drive_as_its_magnitude():
    """The fit file's drive rule does not bind a FitProblem built in
    Python: the model reads only P = 2 gamma1 b1_in^2, so reflection rows
    at -b fit bit for bit as rows at b do."""
    rows = synth_refl_rows(TRUE, fractions=(0.7,), n_points=21)
    fits = [run_fit(FitProblem(
        initial=guessed(TRUE, 0.1), free=("kerr",), bounds={},
        refl_data=tuple((w, sign * b, r) for w, b, r in rows)))
        for sign in (1.0, -1.0)]
    assert fits[0].converged and fits[0] == fits[1]


ZERO_DRIVE = {"schema": 1, "fit": {
    "initial": dataclasses.asdict(TRUE), "free": ["kerr"],
    "refl_data": [[1.0 - 0.01 * i, 0.0 if i == 3 else 0.1, 0.5]
                  for i in range(6)]}}


@pytest.mark.parametrize("document, message", [
    ([{"fit": {}}], "config field '$': top level must be an object"),
    ({"schema": 2, "fit": {}}, "config field 'schema': expected 1, got 2"),
    (ZERO_DRIVE, "config field 'fit.refl_data[3][1]': b1_in must be > 0 "
                 "(got 0.0)"),
])
def test_fit_file_loader_applies_the_cli_rules(tmp_path, capsys, document,
                                               message):
    """load_fit_file, called without the CLI, rejects a bad header and a
    zero reflection drive with the message `kerrcav fit` prints."""
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ConfigError) as excinfo:
        fitting.load_fit_file(str(path))
    assert str(excinfo.value) == message
    assert main(["fit", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("refl_data, field", [
    (ZERO_DRIVE["fit"]["refl_data"], "fit.refl_data[3][1]"),
    ([[1.0 - 0.01 * i, 0.0, 0.5] for i in range(6)], "fit.refl_data[0][1]"),
])
def test_drive_rule_is_the_fit_files_alone(tmp_path, refl_data, field):
    """load_fit_problem builds a FitProblem from zero reflection drives,
    one or all, as the benchmark's cold start parses its degenerate fit
    file with it; load_fit_file rejects the same block and names the first
    zero drive."""
    block = {**ZERO_DRIVE["fit"], "refl_data": refl_data}
    problem = load_fit_problem(block)
    assert isinstance(problem, FitProblem)
    assert [b for _, b, _ in problem.refl_data] == [b for _, b, _ in refl_data]
    path = tmp_path / "fit.json"
    path.write_text(json.dumps({"schema": 1, "fit": block}))
    with pytest.raises(ConfigError) as excinfo:
        fitting.load_fit_file(str(path))
    assert excinfo.value.field_path == field


@pytest.mark.parametrize("bad_row", [(1.0, 0.1), (1.0, 0.1, 0.5, 0.5),
                                     (1.0, 0.1, 0.5, 0.5, 0.5)])
def test_rows_of_other_widths_are_rejected(bad_row):
    """A FitProblem built in Python is not checked, but run_fit takes no
    row that is not (omega_p, b1_in, value)."""
    rows = synth_refl_rows(TRUE, fractions=(0.7,), n_points=6)
    problem = FitProblem(initial=TRUE, free=("kerr",), bounds={},
                         refl_data=rows[:-1] + (bad_row,))
    with pytest.raises(ValueError):
        run_fit(problem)


def test_fixed_parameters_stay_fixed():
    rows = synth_refl_rows(TRUE, fractions=(0.7,), n_points=41)
    start = guessed(TRUE, 0.05)
    problem = FitProblem(initial=start, free=("gamma1", "gamma2"),
                         bounds={}, refl_data=rows)
    result = run_fit(problem)
    assert result.params.kerr == start.kerr
    assert result.params.omega0 == start.omega0
    assert result.params.gamma3 == start.gamma3


# ---------------------------------------------------------------- config load

def test_load_fit_problem_from_config():
    rows = synth_refl_rows(TRUE, fractions=(0.5,), n_points=11)
    data = {
        "initial": {"omega0": 1.0, "kerr": -1.1e-4, "gamma1": 0.009,
                    "gamma2": 0.012, "gamma3": 2e-5},
        "free": ["kerr", "gamma1"],
        "bounds": {"kerr": [-1e-3, 0.0]},
        "refl_data": [list(r) for r in rows],
    }
    problem = load_fit_problem(data)
    assert problem.free == ("kerr", "gamma1")
    assert problem.bounds["kerr"] == (-1e-3, 0.0)
    assert len(problem.refl_data) == 11
    with pytest.raises(ConfigError, match="refl_data"):
        load_fit_problem({**data, "refl_data": [[1.0, 0.1]]})
    with pytest.raises(ConfigError, match="free"):
        load_fit_problem({**data, "free": []})


def test_load_fit_problem_rejects_non_numbers():
    rows = [list(r) for r in synth_refl_rows(TRUE, fractions=(0.5,), n_points=6)]
    data = {"initial": {"omega0": 1.0, "kerr": -1.1e-4, "gamma1": 0.009,
                        "gamma2": 0.012, "gamma3": 2e-5},
            "free": ["kerr"], "refl_data": rows}
    bad_cell = r"refl_data\[5\]\[1\]'"
    for change, field in (({"bounds": {"kerr": [None, 0.0]}}, r"bounds\.kerr\[0\]"),
                          ({"bounds": [[-1e-3, 0.0]]}, "bounds"),
                          ({"refl_data": rows[:-1] + [[1.0, "x", 0.5]]},
                           bad_cell),
                          ({"refl_data": rows[:-1] + [[1.0, True, 0.5]]},
                           bad_cell),
                          ({"refl_data": rows[:-1] + [[1.0, None, 0.5]]},
                           bad_cell),
                          ({"refl_data": rows[:-1] + [[1.0, 10**400, 0.5]]},
                           bad_cell),
                          ({"refl_data": rows[:-1] + [[1.0, math.nan, 0.5]]},
                           bad_cell),
                          ({"refl_data": rows[:-1] + [[1.0, 0.5]]},
                           r"refl_data\[5\]'"),
                          # the first fault in row order is the one named
                          ({"refl_data": [rows[0], [1.0, None, 0.5]] + rows[2:5]
                            + [[1.0, 0.5]]}, r"refl_data\[1\]\[1\]'"),
                          ({"refl_data": [rows[0], (1.0, 0.1, 0.5)] + rows[2:5]
                            + [[1.0, None, 0.5]]}, r"refl_data\[1\]'"),
                          ({"gain_data": [[1.0, 0.1, -math.inf]]},
                           r"gain_data\[0\]\[2\]'"),
                          # a row that is not a list
                          ({"refl_data": rows[:-1] + [0.5]},
                           r"refl_data\[5\]'"),
                          ({"refl_data": rows[:-1] + [{"b1_in": 0.1}]},
                           r"refl_data\[5\]'"),
                          ({"gain_data": [rows[0], "row"]},
                           r"gain_data\[1\]'"),
                          ({"gain_data": [rows[0], [1.0, False, 0.5]]},
                           r"gain_data\[1\]\[1\]'"),
                          # faults in both keys: refl_data's is named first
                          ({"refl_data": rows[:-1] + [[1.0, None, 0.5]],
                            "gain_data": [[None, 0.1, 0.5]]}, bad_cell),
                          ({"refl_data": rows[:-1] + [5],
                            "gain_data": [[1.0, 0.1]]}, r"refl_data\[5\]'"),
                          ({"refl_data": 5}, "refl_data"),
                          ({"psi1": math.nan}, "psi1")):
        with pytest.raises(ConfigError, match=field):
            load_fit_problem({**data, **change})


class Cell(float):
    """A float that the one-pass row check leaves to the per-cell one."""


def test_fit_rows_one_pass_matches_cell_by_cell():
    """On the criterion-8 rows (ints among them), the one-pass check and
    the cell-by-cell one that any unusual cell falls back to give the
    same tuples of Python floats, bit for bit, as checking each cell with
    _number."""
    rows = [list(r) for r in synth_refl_rows(TRUE, n_points=81)]
    rows[0][0] = 1
    data = {"initial": dataclasses.asdict(TRUE), "free": list(FREE),
            "refl_data": rows, "gain_data": rows[:3]}
    expected = tuple(tuple(_number(v, "cell") for v in row) for row in rows)
    one_pass = load_fit_problem(data)
    data["refl_data"] = [row[:2] + [Cell(row[2])] for row in rows]
    fallback = load_fit_problem(data)
    for problem in (one_pass, fallback):
        assert float_bits(problem.refl_data) == float_bits(expected)
        assert float_bits(problem.gain_data) == float_bits(expected[:3])
        assert {type(v) for row in problem.refl_data for v in row} == {float}


# -------------------------------------------------- bistable fit evaluations

def bistable_rows(params, n_points=40):
    """Reflection rows at 2x the critical drive across the fold band, where
    the settled branch jumps, plus gain rows at 0.6x and 2x."""
    crit = critical_point(params)
    strong = 2.0 * crit.drive
    (lo, _), (hi, _) = sorted(instability_locus(
        params, PumpDrive(omega_p=1.0, amplitude=strong)))
    omegas = np.linspace(lo - 2.0 * (hi - lo), hi + (hi - lo), n_points)
    refl = tuple((float(w), strong, predict_reflection(params, float(w),
                                                       strong))
                 for w in omegas)
    gain = tuple((float(w), b, predict_gain(params, float(w), b))
                 for w in omegas[::5] for b in (0.6 * crit.drive, strong))
    return refl, gain


def test_fit_evaluations_are_the_predict_functions():
    """Every model evaluation of a fit whose rows span the bistable band
    gives, bit for bit, predict_reflection on its reflection rows and
    predict_gain on its gain rows at the evaluated parameters."""
    refl, gain = bistable_rows(TRUE)
    seen = []
    model = fitting._model

    def spy(params, omega_p, b1_in, n_refl):
        energy, values = model(params, omega_p, b1_in, n_refl)
        seen.append((params, omega_p.copy(), b1_in.copy(), n_refl, values))
        return energy, values

    problem = FitProblem(initial=dataclasses.replace(
        TRUE, kerr=TRUE.kerr * 1.02, gamma3=TRUE.gamma3 * 1.1),
        free=("kerr", "gamma3"), bounds={}, refl_data=refl, gain_data=gain)
    try:
        fitting._model = spy
        run_fit(problem)
    finally:
        fitting._model = model
    assert len(seen) >= 2
    counts = branch_states(TRUE, [w for w, _, _ in refl],
                           [b for _, b, _ in refl]).n_branches
    assert 3 in counts.tolist()
    for params, omega_p, b1_in, n_refl, values in seen:
        expected = np.concatenate([
            predict_reflection(params, omega_p[:n_refl], b1_in[:n_refl]),
            predict_gain(params, omega_p[n_refl:], b1_in[n_refl:])])
        assert values.tobytes() == expected.tobytes()


def test_bistable_fit_reruns_byte_identical(tmp_path, capsys):
    """kerrcav fit on rows across the fold band writes the same bytes on
    every run, to a file or to standard output."""
    import kerrcav.cli

    refl, gain = bistable_rows(TRUE)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps({"schema": 1, "fit": {
        "initial": {"omega0": 1.0, "kerr": TRUE.kerr * 1.02,
                    "gamma1": TRUE.gamma1, "gamma2": TRUE.gamma2,
                    "gamma3": TRUE.gamma3 * 1.1},
        "free": ["kerr", "gamma3"], "refl_data": refl, "gain_data": gain}}))
    outputs = []
    for run in range(2):
        out = tmp_path / f"fit.{run}.csv"
        assert kerrcav.cli.main(["fit", "--config", str(path),
                                 "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert kerrcav.cli.main(["fit", "--config", str(path)]) == 0
    outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1] == outputs[2]


def test_no_free_parameters_is_a_config_error():
    with pytest.raises(ConfigError, match="no free parameters"):
        FitProblem(initial=TRUE, free=(), bounds={},
                   refl_data=synth_refl_rows(TRUE, n_points=5))


def test_rejected_step_below_xtol_ends_converged(monkeypatch):
    """Every trial point reads worse than the start, so each is rejected and
    the damping rises until a step moves the scaled parameters by less than
    XTOL: that rejected trial ends the fit as converged at the start, after
    more than one evaluation."""
    def fault(call, evaluated):
        energy, values = evaluated
        return evaluated if call == 1 else (energy, values + 1e3)

    initial = guessed(TRUE, 0.1)
    problem = FitProblem(initial=initial, free=FREE, bounds=BOUNDS,
                         refl_data=synth_refl_rows(TRUE, n_points=21))
    calls = count_model_calls(monkeypatch, fault)
    result = run_fit(problem)
    assert result.converged
    assert result.params == initial
    assert 1 < result.n_evaluations == len(calls)


# ------------------------------------------------ the step and its kernels

def fit_or_best(problem, max_evaluations=fitting.MAX_EVALUATIONS,
                fit=run_fit):
    """The fit's result, or the best-so-far one it stopped with."""
    try:
        return fit(problem, max_evaluations)
    except NonConvergence as exc:
        return "no convergence", exc.best


def criterion_8_problems():
    """Criterion 8's clean set and its 20 noisy sets, all five parameters
    free, from its start."""
    rows = synth_refl_rows(TRUE, n_points=81)
    start = DeviceParams(omega0=TRUE.omega0 * (1.0 + 2e-4),
                         kerr=TRUE.kerr * 1.15, gamma1=TRUE.gamma1 * 0.9,
                         gamma2=TRUE.gamma2 * 1.1, gamma3=TRUE.gamma3 * 1.3)
    sets = [rows]
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        sets.append(tuple((w, b, r * (1.0 + 0.01 * rng.standard_normal()))
                          for w, b, r in rows))
    return [FitProblem(initial=start, free=FREE, bounds={}, refl_data=data)
            for data in sets]


def test_fit_bits_match_the_stacked_loop():
    """run_fit returns, bit for bit, the FitResult of the loop that stacked
    [J; sqrt(mu) D] afresh for every trial (oracles.stacked_run_fit): every
    parameter, the rms residual, n_evaluations and converged, on criterion
    8's clean and 20 noisy sets, a fit that ends on an active bound, one
    that runs into a user bound and one whose budget runs out."""
    true = dataclasses.replace(TRUE, gamma3=0.0)
    problems = criterion_8_problems() + [
        FitProblem(initial=guessed(TRUE, 0.15), free=FREE, bounds={},
                   refl_data=synth_refl_rows(true)),
        FitProblem(initial=guessed(TRUE, 0.2), free=FREE,
                   bounds={**BOUNDS, "kerr": (-1.3e-4, -1.1e-4)},
                   refl_data=synth_refl_rows(TRUE, fractions=(0.7,),
                                             n_points=41))]
    results = [fit_or_best(problem) for problem in problems]
    # the gamma3 bound 0 is reached, and the kerr bound stops the fit
    assert results[21].params.gamma3 == 0.0
    assert abs(results[22].params.kerr + 1.1e-4) < 1e-18
    results.append(fit_or_best(problems[0], 4))
    expected = [fit_or_best(problem, fit=stacked_run_fit)
                for problem in problems] + [
        fit_or_best(problems[0], 4, stacked_run_fit)]
    assert float_bits(results) == float_bits(expected)


def test_rejected_steps_below_xtol_match_the_stacked_loop(monkeypatch):
    """The fit whose every trial is rejected until a step falls below XTOL
    ends as the stacked loop does, bit for bit."""
    import oracles

    def fault(call, evaluated):
        energy, values = evaluated
        return evaluated if call == 1 else (energy, values + 1e3)

    problem = FitProblem(initial=guessed(TRUE, 0.1), free=FREE, bounds=BOUNDS,
                         refl_data=synth_refl_rows(TRUE, n_points=21))
    calls = count_model_calls(monkeypatch, fault)
    result = run_fit(problem)
    monkeypatch.setattr(oracles, "_model", fitting._model)
    del calls[:]
    expected = stacked_run_fit(problem)
    assert result.converged and result.n_evaluations > 1
    assert float_bits(result) == float_bits(expected)


def test_a_step_costs_one_model_pass_jacobian_and_solve(monkeypatch):
    """_model runs once per evaluation, _jacobian once per accepted point
    (a trial that lowers the cost, and the start) and np.linalg.lstsq once
    per trial: no Jacobian at a rejected point, no second solve."""
    problem = criterion_8_problems()[1]
    observed = np.array([r for _, _, r in problem.refl_data])
    evaluated, jacobians, solves = [], [], []
    model, jacobian, lstsq = fitting._model, fitting._jacobian, \
        np.linalg.lstsq

    def model_spy(params, *args):
        energy, values = model(params, *args)
        residual = values - observed
        evaluated.append((params, float(np.dot(residual, residual))))
        return energy, values

    def jacobian_spy(params, *args):
        jacobians.append(params)
        return jacobian(params, *args)

    def lstsq_spy(*args, **kwargs):
        solves.append(None)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(fitting, "_model", model_spy)
    monkeypatch.setattr(fitting, "_jacobian", jacobian_spy)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq_spy)
    result = run_fit(problem)
    accepted = [evaluated[0]]
    for point in evaluated[1:]:
        if point[1] < accepted[-1][1]:
            accepted.append(point)
    assert result.converged and result.params == accepted[-1][0]
    assert len(evaluated) == result.n_evaluations
    assert len(solves) == result.n_evaluations - 1
    # a fit that stops at an accepted point builds no Jacobian there
    assert jacobians == [params for params, _ in accepted][:len(jacobians)]
    assert len(accepted) - 1 <= len(jacobians) <= len(accepted)

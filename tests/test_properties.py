"""Properties over random inputs: the CLI's exit codes on any JSON document,
and the commutator sum and the pump-cubic residuals over random devices."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kerrcav.cli as cli
from kerrcav import (DeviceParams, PumpDrive, branch_states,
                     cubic_coefficients, run_fit, steady_states,
                     transfer_coefficients, transfer_coefficients_array)

SUBCOMMANDS = ("steady-sweep", "gain-sweep", "squeeze-sweep", "critical",
               "fit")

# ------------------------------------------------------------ CLI exit codes

numbers = st.one_of(st.floats(), st.floats(-2.0, 2.0),
                    st.integers(-3, 60), st.sampled_from([1e200, -1e308]))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=4)),
    max_leaves=10)


def maybe(valid):
    """Mostly a plausible value, sometimes any JSON value."""
    return st.one_of(valid, valid, valid, json_values)


device_blocks = st.fixed_dictionaries(
    {name: maybe(value) for name, value in (
        ("omega0", st.floats(0.5, 1.5)), ("kerr", st.floats(-1e-3, 1e-3)),
        ("gamma1", st.floats(0.0, 0.05)), ("gamma2", st.floats(0.0, 0.05)),
        ("gamma3", st.floats(0.0, 1e-3)))},
    optional={"phi1": numbers, "profile": st.text(max_size=4),
              "mode_index": numbers})
drive_values = st.one_of(numbers, st.fixed_dictionaries(
    {"times_critical": maybe(st.floats(0.0, 3.0))}))
config_documents = st.fixed_dictionaries(
    {"schema": maybe(st.just(1)), "device": maybe(device_blocks)},
    optional={
        "drive": maybe(st.fixed_dictionaries(
            {"omega_p": maybe(st.fixed_dictionaries(
                {"start": maybe(st.floats(0.8, 1.2)),
                 "stop": maybe(st.floats(0.8, 1.2)),
                 "count": maybe(st.integers(-1, 40))})),
             "b1_in": maybe(st.lists(drive_values, max_size=3))},
            optional={"psi1": numbers})),
        "env": maybe(st.dictionaries(
            st.sampled_from(["theta1", "theta2", "theta3"]),
            st.one_of(st.just("inf"), numbers))),
        "offsets": maybe(st.lists(numbers, max_size=3)),
        "signal_frequencies": maybe(st.lists(numbers, max_size=3)),
        "pump_fractions": maybe(st.lists(numbers, max_size=4)),
        "fit": maybe(st.fixed_dictionaries(
            {"initial": maybe(device_blocks),
             "free": maybe(st.lists(st.sampled_from(
                 ["omega0", "kerr", "gamma1", "gamma2", "gamma3", "x"]),
                 max_size=3)),
             "refl_data": maybe(st.lists(st.lists(numbers, min_size=3,
                                                  max_size=3), max_size=8))},
            optional={"bounds": maybe(st.dictionaries(
                st.sampled_from(["kerr", "gamma1"]),
                st.lists(numbers, max_size=3))),
                "gain_data": maybe(st.lists(st.lists(
                    numbers, min_size=3, max_size=3), max_size=4)),
                "psi1": numbers}))})


def short_fit(problem):
    # a bounded evaluation budget keeps every example fast
    return run_fit(problem, max_evaluations=60)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.one_of(config_documents, json_values))
def test_any_json_config_exits_with_a_documented_code(document):
    """Every subcommand ends in exit 0, 2, 3 or 4 on any JSON document,
    with an error line instead of a traceback."""
    original = cli.run_fit
    cli.run_fit = short_fit
    try:
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(document, fh)
            for command in SUBCOMMANDS:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main([command, "--config", path, "--out",
                                     os.path.join(work, "out.csv")])
                assert code in (0, 2, 3, 4), (command, code)
                assert "Traceback" not in err.getvalue()
                assert (code == 0) == (err.getvalue() == ""), err.getvalue()
    finally:
        cli.run_fit = original


# ------------------------------------------------ physics over random devices

@st.composite
def operating_points(draw):
    """A random lossy device and drive (phases included) and the offsets
    0 and up to 0.3 in magnitude."""
    kerr = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-5, -3))
    params = DeviceParams(
        omega0=1.0, kerr=kerr, gamma1=10.0 ** draw(st.floats(-3.0, -1.5)),
        gamma2=10.0 ** draw(st.floats(-3.0, -1.5)),
        gamma3=abs(kerr) * draw(st.floats(0.0, 2.0)),
        phi1=draw(st.floats(0.0, 6.3)), phi2=draw(st.floats(0.0, 6.3)),
        phi3=draw(st.floats(0.0, 6.3)))
    drive = PumpDrive(omega_p=1.0 + draw(st.floats(-5.0, 5.0)) * params.gamma,
                      amplitude=10.0 ** draw(st.floats(-3.0, 0.0)),
                      phase=draw(st.floats(0.0, 6.3)))
    offsets = [0.0] + draw(st.lists(st.floats(-0.3, 0.3), max_size=4))
    return params, drive, offsets


@settings(max_examples=200, deadline=None, derandomize=True)
@given(operating_points())
def test_commutator_sum_is_one(point):
    """The output mode keeps its commutator at every stable operating
    point: sum |signal|^2 - |conjugate|^2 = 1 to 1e-9, from the one-point
    coefficients and from the batched ones."""
    params, drive, offsets = point
    states = branch_states(params, drive.omega_p, drive.amplitude,
                           drive.phase)
    resp = transfer_coefficients_array(
        params, states, np.broadcast_to(offsets, (states.energy.size,
                                                  len(offsets))))
    batched = (np.abs(resp.refl_signal) ** 2 + np.abs(resp.loss_signal) ** 2
               + np.abs(resp.tpl_signal) ** 2 - np.abs(resp.refl_conj) ** 2
               - np.abs(resp.loss_conj) ** 2 - np.abs(resp.tpl_conj) ** 2)
    for i, state in enumerate(steady_states(params, drive)):
        if not state.stable:
            continue
        for j, omega in enumerate(offsets):
            scalar = transfer_coefficients(params, state, drive, omega)
            assert scalar.commutator_sum() == pytest.approx(1.0, abs=1e-9)
            assert batched[i, j] == pytest.approx(1.0, abs=1e-9)


def residual(coeffs, x):
    """|cubic(x)| (Horner) over its largest term, as the tests of the pump
    branches measure it."""
    c3, c2, c1, c0 = coeffs
    scale = max(abs(c3 * x**3), abs(c2 * x**2), abs(c1 * x), abs(c0), 1e-300)
    return abs(((c3 * x + c2) * x + c1) * x + c0) / scale


@settings(max_examples=200, deadline=None, derandomize=True)
@given(operating_points())
def test_pump_energies_solve_the_cubic(point):
    """Every branch energy, scalar and batched, is a root of the pump cubic
    to the tolerance of the fixed-device sweep test."""
    params, drive, _ = point
    coeffs = cubic_coefficients(params, drive)
    batched = branch_states(params, drive.omega_p, drive.amplitude,
                            drive.phase).energy.tolist()
    for e in [s.energy for s in steady_states(params, drive)] + batched:
        assert residual(coeffs, e) <= 1e-10

"""Properties over random inputs: the CLI's exit codes on any JSON document,
and the commutator sum and the pump-cubic residuals over random devices.
Also that the derandomized draws do not follow the literals of local
modules."""

import cmath
import contextlib
import importlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kerrcav.cli as cli
from kerrcav import (DeviceParams, PumpDrive, SingularResponse, ThermalEnv,
                     branch_states, critical_point, cubic_coefficients,
                     gains_array, intermodulation_gain, lo_phase_extrema,
                     lo_phase_extrema_array, parametric_gain, run_fit,
                     steady_states, transfer_coefficients)

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


PROFILE = {"l": 1.0, "I_c": 1.0, "hbar": 1.0, "grid": 16,
           **{key: [value] * 16 for key, value in (
               ("C", 1.0), ("L0", 1.0), ("dL", 0.1), ("R0", 0.05),
               ("dR", 0.02))}}
# integers past 2**64 reach load_profile as floats through orjson, and
# past float range as ints through json
cell_values = st.one_of(json_values, st.sampled_from(
    [2**64 + 1, 10**400, -(10**400)]))


@st.composite
def profile_documents(draw):
    """A valid 16-point profile with one entry, or one cell of one of its
    arrays, replaced by any JSON value."""
    document = json.loads(json.dumps(PROFILE))
    key = draw(st.sampled_from(sorted(document)))
    value = draw(cell_values)
    if isinstance(document[key], list) and draw(st.booleans()):
        document[key][draw(st.integers(0, 15))] = value
    else:
        document[key] = value
    return document


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(profile_documents(), json_values))
def test_any_json_profile_exits_with_a_documented_code(document):
    """line-derive ends in exit 0, 2, 3 or 4 on any JSON document given as
    a profile, with an error line instead of a traceback."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "profile.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["line-derive", "--profile", path,
                             "--mode-index", "1", "--gamma1", "0.01",
                             "--out", os.path.join(work, "out.csv")])
    assert code in (0, 2, 3, 4), code
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == ""), err.getvalue()


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
    point: sum |signal|^2 - |conjugate|^2 = 1 to 1e-9, with the moduli
    squared as commutator_sum forms them and as abs(z) ** 2."""
    params, drive, offsets = point
    for state in steady_states(params, drive):
        if not state.stable:
            continue
        for omega in offsets:
            resp = transfer_coefficients(params, state, drive, omega)
            assert resp.commutator_sum() == pytest.approx(1.0, abs=1e-9)
            squared = (abs(resp.refl_signal) ** 2 + abs(resp.loss_signal) ** 2
                       + abs(resp.tpl_signal) ** 2 - abs(resp.refl_conj) ** 2
                       - abs(resp.loss_conj) ** 2 - abs(resp.tpl_conj) ** 2)
            assert squared == pytest.approx(1.0, abs=1e-9)


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


@st.composite
def extreme_points(draw):
    """A random lossy device, a drive up to 1e200 times the critical drive
    of its Kerr part alone, an offset up to 1e300 in magnitude and baths
    as hot as theta = 1e-300."""
    params, drive, _ = draw(operating_points())
    scale = critical_point(replace(params, gamma3=0.0)).drive
    drive = replace(drive, amplitude=scale * 10.0 ** draw(st.floats(-3, 200)))
    omega = draw(st.one_of(st.just(0.0), st.floats(-3, 300).map(
        lambda e: 10.0 ** e))) * draw(st.sampled_from([-1.0, 1.0]))
    thetas = st.one_of(st.just(math.inf),
                       st.floats(-300, 2).map(lambda e: 10.0 ** e))
    env = ThermalEnv(draw(thetas), draw(thetas), draw(thetas))
    return params, drive, omega, env


def finite(*values):
    return all(cmath.isfinite(v) for v in values)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(extreme_points())
def test_small_signal_is_finite_singular_or_an_arithmetic_error(point):
    """Every gain, transfer and extrema function returns finite values,
    inf or NaN only where the point is singular (SingularResponse, or
    ``diverged``), or raises an ArithmeticError."""
    params, drive, omega, env = point
    try:
        states = branch_states(params, drive.omega_p, drive.amplitude,
                               drive.phase)
    except ArithmeticError:
        return
    singular = np.zeros(states.energy.size, dtype=bool)
    for i in range(singular.size):
        state = states.state(i)
        with contextlib.suppress(ArithmeticError):
            try:
                r = transfer_coefficients(params, state, drive, omega)
            except SingularResponse:
                singular[i] = True
            else:
                assert finite(r.refl_signal, r.refl_conj, r.loss_signal,
                              r.loss_conj, r.tpl_signal, r.tpl_conj)
        for gain in (parametric_gain, intermodulation_gain):
            with contextlib.suppress(ArithmeticError):
                assert singular[i] or math.isfinite(
                    gain(params, state, drive, omega))
        with contextlib.suppress(ArithmeticError):
            ext = lo_phase_extrema(params, state, drive, env, omega)
            assert ext.diverged == singular[i]
            assert ext.diverged or finite(ext.p_min, ext.p_max, ext.phi_min,
                                          ext.phi_max)
    with contextlib.suppress(ArithmeticError):
        for g in gains_array(params, states, omega):
            assert np.all(singular | np.isfinite(g))
    with contextlib.suppress(ArithmeticError):
        ext = lo_phase_extrema_array(params, states, env, omega)
        assert np.array_equal(ext.diverged, singular)
        for x in (ext.p_min, ext.p_max, ext.phi_min, ext.phi_max):
            assert np.all(singular | np.isfinite(x))


# ------------------------------------------------------------- pinned draws

def derandomized_draws():
    """The 100 floats a derandomized test of st.floats(-10, 10) sees."""
    seen = []

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(-10.0, 10.0))
    def record(x):
        seen.append(x)

    record()
    return seen


def test_new_local_literal_leaves_derandomized_draws_unchanged(
        tmp_path, monkeypatch):
    """A float literal in a freshly imported local module enters
    Hypothesis's own constant pool, and there it changes a derandomized
    test's draws; with the pool pinned (tests/conftest.py) the draws stay
    as they were."""
    from hypothesis.internal.conjecture import providers
    from hypothesis.internal.constants_ast import (constants_from_module,
                                                   is_local_module_file)

    from conftest import UNPINNED_HOOK

    pinned = derandomized_draws()
    literal = 0.123456789
    (tmp_path / "fresh_literals.py").write_text(f"X = {literal!r}\n")
    monkeypatch.syspath_prepend(str(tmp_path))

    def unpinned_draws():
        with monkeypatch.context() as unpinned:
            unpinned.setattr(providers, "_get_local_constants",
                             UNPINNED_HOOK[0])
            providers.CONSTANTS_CACHE.cache.clear()
            try:
                return derandomized_draws()
            finally:
                providers.CONSTANTS_CACHE.cache.clear()

    without = unpinned_draws()
    module = importlib.import_module("fresh_literals")
    try:
        assert is_local_module_file(module.__file__)
        assert literal in constants_from_module(module).floats
        assert unpinned_draws() != without
        assert derandomized_draws() == pinned
    finally:
        del sys.modules["fresh_literals"]

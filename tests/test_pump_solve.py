"""The pump solve h(E) = E |z(E)|^2 = P against mpmath, on fixed rows, row
by row, and across the folds of an extreme drive."""

import math

import mpmath
import numpy as np
import pytest

from conftest import float_bits
from kerrcav import steady
from kerrcav import (DeviceParams, PumpDrive, branch_states, critical_point,
                     cubic_coefficients, instability_locus, solve_pump_energy)

LOSSLESS = DeviceParams(omega0=1.0, kerr=-1e-6, gamma1=0.01, gamma2=0.0,
                        gamma3=0.0)


def mp_cubic(params, omega_p, b_in):
    """(c3, c2, c1, P) of the pump cubic of the float inputs, exact at 50
    digits (the expanded float coefficients lose the fold's sign at strong
    drive)."""
    k, g3, g = (mpmath.mpf(x) for x in (params.kerr, params.gamma3,
                                         params.gamma))
    delta = mpmath.mpf(params.omega0) - mpmath.mpf(omega_p)
    return (k * k + g3 * g3, 2 * (delta * k + g * g3), delta * delta + g * g,
            mpmath.mpf(2.0 * params.gamma1 * (b_in * b_in)))


def mp_branches(params, omega_p, b_in):
    """(roots, count) of the pump cubic of the float inputs, at 50 digits:
    the real nonnegative roots, ascending, and the branch count from the
    sign of h(E-) - P and h(E+) - P at the folds E- <= E+."""
    with mpmath.workdps(50):
        c3, c2, c1, p = mp_cubic(params, omega_p, b_in)
        # in units of (p / c3)^(1/3), where the coefficients are of order 1
        unit = mpmath.cbrt(p / c3)
        roots = mpmath.polyroots([1, c2 / (c3 * unit), c1 / (c3 * unit ** 2),
                                  -1], maxsteps=200, extraprec=200)
        real = sorted(float(unit * r.real) for r in roots
                      if abs(r.imag) <= mpmath.mpf(10) ** -30 * abs(r))
        disc = c2 * c2 - 3 * c3 * c1
        count = 1
        if c2 < 0 and disc > 0:
            def h(e):
                return ((c3 * e + c2) * e + c1) * e
            e_hi = (-c2 + mpmath.sqrt(disc)) / (3 * c3)
            e_lo = (-c2 - mpmath.sqrt(disc)) / (3 * c3)
            count = 3 if h(e_hi) < p < h(e_lo) else 1
        return [r for r in real if r >= 0.0], count


def mp_residual(params, omega_p, b_in, energy):
    """|cubic(E)| over its largest term, at 50 digits."""
    with mpmath.workdps(50):
        c3, c2, c1, p = mp_cubic(params, omega_p, b_in)
        e = mpmath.mpf(energy)
        terms = [c3 * e ** 3, c2 * e ** 2, c1 * e, -p]
        return float(abs(mpmath.fsum(terms)) / max(map(abs, terms)))


def random_rows(seed, n_devices, rows_per_device):
    """Random lossy devices (every fifth one lossless) driven at 1x to 1000x
    critical, with pump frequencies across and around the fold band."""
    rng = np.random.default_rng(seed)
    for i in range(n_devices):
        kerr = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -2.0)
        lossless = i % 5 == 0
        params = DeviceParams(
            omega0=1.0, kerr=kerr, gamma1=10.0 ** rng.uniform(-3.0, -1.0),
            gamma2=0.0 if lossless else 10.0 ** rng.uniform(-3.0, -1.0),
            gamma3=0.0 if lossless else abs(kerr) * rng.uniform(0.0, 0.55))
        b_in = 10.0 ** rng.uniform(0.0, 3.0) * critical_point(params).drive
        lo, hi = sorted(w for w, _ in instability_locus(
            params, PumpDrive(omega_p=1.0, amplitude=b_in)))
        span = hi - lo
        yield params, rng.uniform(lo - 0.2 * span, hi + 0.2 * span,
                                  rows_per_device), b_in


@pytest.mark.parametrize("params, omega_p, b_in", [
    *random_rows(2024, 10, 30),
    (LOSSLESS, np.linspace(-16000.0, 10.0, 41),
     1000.0 * critical_point(LOSSLESS).drive),
])
def test_roots_match_mpmath(params, omega_p, b_in):
    """Each row has mpmath's branch count; every root solves the cubic to
    1e-15 of its largest term, and a root at least 1e-3 (relative) from the
    others is mpmath's to 1e-12."""
    states = branch_states(params, omega_p, b_in)
    for i, w in enumerate(omega_p):
        got = states.energy[states.row == i].tolist()
        roots, count = mp_branches(params, float(w), b_in)
        assert len(got) == count == len(roots), (w, got, roots)
        for e, r in zip(got, roots):
            assert mp_residual(params, float(w), b_in, e) <= 1e-15
            if all(abs(s - r) >= 1e-3 * r for s in roots if s != r):
                assert e == pytest.approx(r, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("b_in", [1e150, 1e152, 1e154])
@pytest.mark.parametrize("omega_p", [0.95, 1.5])
def test_largest_drives_keep_their_steady_state(omega_p, b_in):
    """Up to the drive where 2 gamma1 b_in^2 overflows, the one steady
    state of the README device is mpmath's: Newton's starting bounds are
    taken as ratios of roots, which do not overflow there."""
    params = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                          gamma3=5.8e-7)
    roots, count = mp_branches(params, omega_p, b_in)
    got = solve_pump_energy(params, PumpDrive(omega_p=omega_p,
                                              amplitude=b_in))
    assert count == len(got) == 1
    assert got == pytest.approx(roots, rel=1e-12, abs=0.0)


def test_linear_device_gives_the_lorentzian_exactly():
    params = DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.01, gamma2=0.005,
                          gamma3=0.0)
    for omega_p in (0.9, 0.998, 1.0, 1.3):
        for b_in in (1e-155, 0.3, 1e100):
            drive = PumpDrive(omega_p=omega_p, amplitude=b_in)
            c3, c2, c1, c0 = cubic_coefficients(params, drive)
            assert solve_pump_energy(params, drive) == [-c0 / c1]


@pytest.mark.parametrize("params", [
    LOSSLESS,
    DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                 gamma3=5.8e-7),
    DeviceParams(omega0=1.0, kerr=2e-3, gamma1=0.01, gamma2=0.0,
                 gamma3=1e-3),
])
def test_zero_drive_gives_zero(params):
    omega_p = [params.omega0 + x for x in (-1e4, -0.3, -0.01, 0.0, 0.01, 0.3)]
    for w in omega_p:
        assert solve_pump_energy(params, PumpDrive(omega_p=w,
                                                   amplitude=0.0)) == [0.0]
    assert branch_states(params, omega_p, 0.0).energy.tolist() == [0.0] * 6


def fold_adjacent(params, b_in):
    """Pump frequencies on, a few ulps from and 1e-9 (relative) from each
    fold of the drive b_in."""
    out = []
    for w, _ in instability_locus(params, PumpDrive(omega_p=1.0,
                                                    amplitude=b_in)):
        up, down = w, w
        for _ in range(4):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            out += [up, down]
        out += [w, w * (1.0 + 1e-9), w * (1.0 - 1e-9)]
    return out


@pytest.mark.parametrize("params", [
    DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                 gamma3=5.8e-7),
    LOSSLESS,
])
def test_rows_are_independent_of_their_batch(params):
    """A row gives the same bits alone and inside a shuffled batch of
    three-branch, fold-adjacent, weakly driven and undriven rows and the
    critical point."""
    crit = critical_point(params)
    strong = 50.0 * crit.drive
    lo, hi = sorted(w for w, _ in instability_locus(
        params, PumpDrive(omega_p=1.0, amplitude=strong)))
    rows = [(w, strong) for w in np.linspace(lo, hi, 12)[1:-1].tolist()]
    rows += [(w, strong) for w in fold_adjacent(params, strong)]
    rows += [(w, 1e-6 * crit.drive)
             for w in (crit.omega_p, lo, hi, 1.0 + 5.0 * params.gamma)]
    rows += [(lo, 0.0), (hi, 0.0), (crit.omega_p, crit.drive)]
    order = np.random.default_rng(7).permutation(len(rows))
    omega_p, b_in = np.array([rows[i] for i in order]).T
    batch = branch_states(params, omega_p, b_in)
    counts = set()
    for i, (w, b) in enumerate(zip(omega_p, b_in)):
        alone = branch_states(params, w, b)
        assert float_bits(alone.energy.tolist()) == float_bits(
            batch.energy[batch.row == i].tolist())
        counts.add(alone.energy.size)
    assert counts == {1, 2, 3}


@pytest.mark.parametrize("times_critical", [300.0, 1000.0])
def test_branch_count_changes_only_at_the_folds(times_critical):
    """On the lossless weak-Kerr device at an extreme drive, the rows with
    more than one branch form one run across a fine pump-frequency grid,
    and each end of the run lies within one grid step of a fold of the
    closed-form locus (a fold merge once split the run near the upper
    fold into dozens)."""
    b_in = times_critical * critical_point(LOSSLESS).drive
    grid = np.linspace(-16000.0, 10.0, 400_001)
    step = grid[1] - grid[0]
    states = branch_states(LOSSLESS, grid, b_in)
    counts = np.zeros(grid.size, dtype=int)
    counts[states.row] = states.n_branches
    multi = np.flatnonzero(counts > 1)
    assert multi.size == multi[-1] - multi[0] + 1
    folds = sorted(w for w, _ in instability_locus(
        LOSSLESS, PumpDrive(omega_p=1.0, amplitude=b_in)))
    assert len(folds) == 2
    assert abs(grid[multi[0]] - folds[0]) <= step
    assert abs(grid[multi[-1]] - folds[1]) <= step


def h_passes(monkeypatch, params, omega_p, b_in):
    """How many times one branch_states call evaluates h, each a NumPy pass
    over the rows it has left."""
    calls = []
    h = steady._h

    def counted(*args):
        calls.append(args)
        return h(*args)

    with monkeypatch.context() as patch:
        patch.setattr(steady, "_h", counted)
        branch_states(params, omega_p, b_in)
    return len(calls)


def test_pump_solve_takes_few_passes(monkeypatch):
    """One pass evaluates h at both folds, and from its closed-form start
    each root takes one or two Newton steps: on a fit's 162 rows (a device
    off the one that made the data, below critical) and on the README grid
    of 4,000 drives, three passes at most, where the one-term bounds took
    ten and eleven."""
    truth = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                         gamma3=3e-5)
    guess = DeviceParams(omega0=1.0002, kerr=-1.15e-4, gamma1=0.009,
                         gamma2=0.0121, gamma3=3.9e-5)
    b_c = critical_point(truth).drive
    omega_p = np.tile(np.linspace(0.95, 1.005, 81), 2)
    b_in = np.repeat([0.4 * b_c, 0.9 * b_c], 81)
    assert h_passes(monkeypatch, guess, omega_p, b_in) <= 3
    readme = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                          gamma3=5.8e-7)
    b_c = critical_point(readme).drive
    omega_p = np.tile(np.linspace(0.9, 1.005, 2000), 2)
    b_in = np.repeat([0.5 * b_c, 2.0 * b_c], 2000)
    assert h_passes(monkeypatch, readme, omega_p, b_in) <= 3


def test_newton_step_cap_is_arithmetic_error(monkeypatch):
    """A root that needs more Newton steps than MAX_STEPS is an
    ArithmeticError, never a half-converged root: this far-detuned drive at
    1000x critical (three branches) takes two steps, so a cap of one stops
    it."""
    readme = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.01, gamma2=0.011,
                          gamma3=5.8e-7)
    drive = PumpDrive(omega_p=-50.0,
                      amplitude=1000.0 * critical_point(readme).drive)
    assert len(solve_pump_energy(readme, drive)) == 3
    monkeypatch.setattr(steady, "MAX_STEPS", 1)
    with pytest.raises(ArithmeticError,
                       match="pump cubic: Newton steps did not settle"):
        solve_pump_energy(readme, drive)

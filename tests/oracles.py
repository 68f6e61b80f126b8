"""Independent brute-force oracles used by the tests.

Everything here works from the pump cubic's coefficients or from direct
scanning only, never from the closed-form operating-point formulas it is
used to check.  The scalar pump path (``scalar_solve_pump_energy`` through
``scalar_steady_states``) is the one-point reference the batched kernels
are held to bit for bit: plain Python floats and ``cmath``, root by root,
with the record's phase and reflection in the kernels' closed forms.
``mp_record_errors`` holds those closed forms to the record's definition
in 50-digit mpmath.
The row-wise table renderer (``reference_csv``, ``reference_json``) is the
byte reference for ``tableio``: Python's own formatting, cell by cell.
``fold_points_mpmath`` is the 60-digit reference for the fold locus, and
``reference_jacobian`` the bit reference for the fit's analytic Jacobian.
"""

import cmath
import json
import math

import numpy as np

from kerrcav import (DegenerateModel, PumpDrive, SingularResponse,
                     SteadyState, branch_states, cubic_coefficients,
                     transfer_coefficients)
from kerrcav.fitting import _PARTIALS
from kerrcav.steady import FLOOR, MARGIN, MARGINAL_TOL, MAX_STEPS


# ------------------------------------------------- scalar reference path

def cubic_discriminant(c3: float, c2: float, c1: float, c0: float) -> float:
    """Discriminant of c3*x^3 + c2*x^2 + c1*x + c0 (> 0: three distinct real roots)."""
    return (
        18.0 * c3 * c2 * c1 * c0
        - 4.0 * c2**3 * c0
        + c2**2 * c1**2
        - 4.0 * c3 * c1**3
        - 27.0 * c3**2 * c0**2
    )


def _h(e: float, delta: float, k: float, g3: float, g: float):
    """h(E) = E (a^2 + b^2) and h'(E), with a = delta + K E and
    b = gamma + gamma3 E, in the order the kernel forms them."""
    a = delta + k * e
    b = g + g3 * e
    s = a * a + b * b
    return e * s, s + 2.0 * e * (a * k + b * g3)


def _at_fold(e, h, omega0, omega_p, p, k, g3, g) -> bool:
    a = (omega0 - omega_p) + k * e
    b = g + g3 * e
    span = abs(omega0) + abs(omega_p) + abs(k) * e
    return abs(h - p) <= FLOOR * (e * (abs(a) * span + b * b))


def _clamped(x: float) -> float:
    """np.maximum(x, 0.0), which returns its second operand on a tie."""
    return x if x > 0.0 else 0.0


def _newton(e: float, delta: float, c2: float, p: float, c3: float,
            k: float, g3: float, g: float) -> float:
    toward = None
    for _ in range(MAX_STEPS):
        h, slope = _h(e, delta, k, g3, g)
        step = (p - h) / slope
        if toward is None:
            toward = (step > 0.0) - (step < 0.0)
        nxt = e + step
        if not (nxt - e) * toward > 0.0:
            return e
        if not abs(3.0 * c3 * e + c2) * (step * step) > FLOOR * e * slope:
            return nxt
        e = nxt
    raise ArithmeticError("pump cubic: Newton steps did not settle")


def _start_offset(gap: float, slope: float, half_curve: float,
                  c3: float) -> float:
    """The kernel's Newton start, its distance from the fold: Cardano's
    root of the Taylor cubic in units of the nearest one-term bound.  The
    cube and arc cosine roots are NumPy's, as the kernel's: the math
    module's round otherwise."""
    bounds = (gap / slope if slope > 0.0 else math.inf,
              math.sqrt(gap) / math.sqrt(half_curve)
              if half_curve > 0.0 else math.inf,
              float(np.cbrt(gap)) / float(np.cbrt(c3)))
    reach = min(bounds)
    a3 = reach / bounds[0] / 3.0
    beta = reach / bounds[1]
    beta = beta * beta
    gamma = reach / bounds[2]
    gamma = gamma * gamma * gamma
    m = beta / 3.0 + a3 * a3
    n = 0.5 * gamma + a3 * (0.5 * beta + a3 * a3)
    root_m = math.sqrt(m)
    m_root_m = m * root_m
    if m_root_m > 0.0 and n / m_root_m < 1.0:
        v = 2.0 * root_m * math.cos(float(np.arccos(n / m_root_m)) / 3.0)
    else:
        w = float(np.cbrt(n + math.sqrt(abs(n * n - m_root_m * m_root_m))))
        v = w + m / w
    s = (1.0 + MARGIN) / (v + a3)
    return reach * (s if s < 1.0 else 1.0)


def scalar_solve_pump_energy(params, drive) -> list[float]:
    """Real nonnegative roots E of the pump cubic h(E) = p, ascending:
    the kernel's solve replayed in plain floats, one drive at a time.

    Returns 1, 2 (a fold double root, reported once) or 3 roots.

    Raises
    ------
    DegenerateModel
        If gamma1 + gamma2 == 0.
    """
    if params.gamma <= 0.0:
        raise DegenerateModel("gamma1 + gamma2 must be > 0")
    delta = drive.detuning(params)
    p = 2.0 * params.gamma1 * (drive.amplitude * drive.amplitude)
    k, g3, g = params.kerr, params.gamma3, params.gamma
    c3 = k * k + g3 * g3
    c2 = 2.0 * (delta * k + g * g3)
    c1 = delta * delta + g * g
    if not all(map(math.isfinite, (c3, c2, c1, p))):
        raise OverflowError("cubic coefficient is not finite")
    if c3 == 0.0:
        if not math.isfinite(p / c1):
            raise OverflowError("cubic root beyond the float range")
        return [p / c1]
    disc = c2 * c2 - 3.0 * c3 * c1
    fold = c2 < 0.0 and disc > 0.0
    inflection = _clamped(-c2 / (3.0 * c3))
    e_lo = e_hi = inflection
    if fold:
        q = -c2 + math.sqrt(disc)
        e_hi = q / (3.0 * c3)
        e_lo = c1 / q
    h_lo = _h(e_lo, delta, k, g3, g)[0]
    h_hi = _h(e_hi, delta, k, g3, g)[0]
    near_lo = _at_fold(e_lo, h_lo, params.omega0, drive.omega_p, p, k, g3, g)
    near_hi = _at_fold(e_hi, h_hi, params.omega0, drive.omega_p, p, k, g3, g)

    roots = {}
    for side, e_c, h_c, near in ((-1.0, e_lo, h_lo, near_lo),
                                 (1.0, e_hi, h_hi, near_hi)):
        gap = side * (p - h_c)
        if near or not gap > 0.0:
            continue
        slope = 0.0 if fold else _h(e_c, delta, k, g3, g)[1]
        reach = _start_offset(gap, slope, side * (3.0 * c3 * e_c + c2), c3)
        root = _newton(_clamped(e_c + side * reach), delta, c2, p, c3, k,
                       g3, g)
        if not math.isfinite(root):
            raise OverflowError("cubic root beyond the float range")
        roots[side] = _clamped(root)
    lo, hi = roots.get(-1.0), roots.get(1.0)
    if lo is not None and hi is not None:
        return sorted([lo, p / (c3 * lo * hi), hi])
    if lo is not None:
        return [lo, e_hi] if near_hi else [lo]
    if hi is not None:
        return [e_lo, hi] if near_lo else [hi]
    return [inflection]


def scalar_relaxation_roots(params, drive, energy: float):
    """Relaxation roots (slow, fast) of the branch with photon number E.

    Evaluated with the complex square root so underdamped operating points
    (complex-conjugate pair) are representable; for a nonnegative radicand
    both roots are real.
    """
    delta = drive.detuning(params)
    k = params.kerr
    g3 = params.gamma3
    mismatch = delta + 2.0 * k * energy
    radicand = (k * k + g3 * g3) * energy * energy - mismatch * mismatch
    s = cmath.sqrt(complex(radicand, 0.0))
    base = params.gamma + 2.0 * g3 * energy
    return base - s, base + s


def scalar_reflection(params, drive, energy: float):
    """(|r|, Re r, Im r) of r = (z - 2 gamma1) / z at photon number E, in
    Python floats: |z - 2 gamma1| / |z| through the C library's hypot
    (complex abs), and the parts ((a - 2 gamma1) a + b^2, 2 gamma1 b) / |z|^2
    with z = a + ib = (gamma + gamma3 E) + i (delta + K E)."""
    a = params.gamma + params.gamma3 * energy
    b = drive.detuning(params) + params.kerr * energy
    u = a - 2.0 * params.gamma1
    m = a * a + b * b
    return (abs(complex(u, b)) / abs(complex(a, b)), (u * a + b * b) / m,
            2.0 * params.gamma1 * b / m)


def scalar_steady_state(params, drive, energy: float,
                        branch_index: int = 0) -> SteadyState:
    """Assemble the full steady-state record for one cubic root.

    ``energy`` must be a root returned by :func:`scalar_solve_pump_energy`.
    The cavity phase psi - phi1 + atan2(gamma + gamma3 E, -(delta + K E))
    and the reflected pump b_in r are the closed forms of the drive balance
    (:func:`mp_record_errors` checks them against its definition); the
    phase is defined as 0 when the amplitude vanishes.
    """
    delta = drive.detuning(params)
    amp = math.sqrt(max(energy, 0.0))
    if amp == 0.0:
        phase = 0.0
    else:
        phase = (drive.phase - params.phi1) + math.atan2(
            params.gamma + params.gamma3 * energy,
            -(delta + params.kerr * energy))
    _, re, im = scalar_reflection(params, drive, energy)
    reflected = complex(drive.amplitude * re, drive.amplitude * im)
    lam_slow, lam_fast = scalar_relaxation_roots(params, drive, energy)
    marginal = abs(lam_slow.real) <= MARGINAL_TOL * params.gamma
    stable = lam_slow.real > 0.0 and not marginal
    return SteadyState(
        energy=energy,
        amplitude=amp,
        phase=phase,
        reflected=reflected,
        lambda_slow=lam_slow,
        lambda_fast=lam_fast,
        stable=stable,
        marginal=marginal,
        branch_index=branch_index,
    )


def scalar_steady_states(params, drive) -> list[SteadyState]:
    """All steady-state branches at this drive, ascending in energy."""
    return [scalar_steady_state(params, drive, e, i)
            for i, e in enumerate(scalar_solve_pump_energy(params, drive))]


def mp_record_errors(params, drive, state, dps: int = 50):
    """|phase - reference| and |reflected - reference| of ``state``.

    The reference record at its photon number E comes from the definition
    in ``dps``-digit mpmath, with every input the exact value of its float:
    the phase solves the drive balance as arg(i B z(E)) + psi - phi1 with
    B = sqrt(max(E, 0)) (0 where B is), and the reflected pump is b - i sqrt(2 gamma1) B
    exp(-i (phi1 + phase - psi)) at the drive b = sqrt(E |z(E)|^2 /
    (2 gamma1)) that E balances, scaled by b_in / b.  The two drives differ
    by the rounding of the root (of a fold double root, by the floor of h
    within which it is reported).
    """
    import mpmath

    with mpmath.workdps(dps):
        k, g3, g1, g2, omega0, omega_p, b_in, psi, phi1, e = (
            mpmath.mpf(x) for x in (
                params.kerr, params.gamma3, params.gamma1, params.gamma2,
                params.omega0, drive.omega_p, drive.amplitude, drive.phase,
                params.phi1, state.energy))
        amp = mpmath.sqrt(max(e, 0))
        z = (g1 + g2 + g3 * e) + 1j * (omega0 - omega_p + k * e)
        if amp == 0:
            phase = mpmath.mpf(0)
            reflected = b_in
        else:
            phase = psi - phi1 + mpmath.arg(1j * amp * z)
            b = mpmath.sqrt(e / (2 * g1)) * abs(z)
            reflected = (b - 1j * mpmath.sqrt(2 * g1) * amp * mpmath.exp(
                -1j * (phi1 + phase - psi))) * b_in / b
        return (float(abs(mpmath.mpf(state.phase) - phase)),
                float(abs(mpmath.mpc(state.reflected) - reflected)))


# ------------------------------------------------------ residuals and scans

def fold_condition_residual(params, drive, omega_p: float,
                            energy: float) -> float:
    """Normalized residual of the vertical-tangent condition at (omega_p, E).

    The condition (gamma + 2 g3 E)^2 = (K^2+g3^2) E^2 - (delta + 2 K E)^2
    holds exactly on fold points; the residual is scaled by the sum of the
    three squared terms.
    """
    delta = params.omega0 - omega_p
    k = params.kerr
    g3 = params.gamma3
    t1 = (params.gamma + 2.0 * g3 * energy) ** 2
    t2 = (k * k + g3 * g3) * energy * energy
    t3 = (delta + 2.0 * k * energy) ** 2
    return abs(t1 - t2 + t3) / (t1 + t2 + t3)


def coalescence_residual(params, omega_p: float, energy: float) -> float:
    """Normalized residual of the fold-coalescence condition at (omega_p, E).

    6 (K^2+g3^2) E + 4 [(omega0-omega_p) K + gamma*g3] = 0 exactly where the
    two folds merge.
    """
    delta = params.omega0 - omega_p
    k = params.kerr
    g3 = params.gamma3
    t1 = 6.0 * (k * k + g3 * g3) * energy
    t2 = 4.0 * (delta * k + params.gamma * g3)
    return abs(t1 + t2) / (abs(t1) + abs(t2))


def noise_power(params, state, drive, env, omega: float,
                phi_lo: float) -> float:
    """Homodyne noise power P(omega) at local-oscillator phase ``phi_lo``.

    Sums, per port i, |e^{-i phi} S_i*(w) + e^{i phi} C_i(-w)|^2 n_i plus
    |e^{i phi} S_i(-w) + e^{-i phi} C_i*(w)|^2 (n_i + 1), where S and C are
    the signal and conjugate transfer coefficients and n_i the bath
    occupation.  Returns IEEE infinity at singular operating points.  The
    brute-force reference for the analytic extrema of lo_phase_extrema.
    """
    try:
        plus = transfer_coefficients(params, state, drive, omega)
        minus = transfer_coefficients(params, state, drive, -omega)
    except SingularResponse:
        return math.inf
    sig_p = (plus.refl_signal, plus.loss_signal, plus.tpl_signal)
    conj_p = (plus.refl_conj, plus.loss_conj, plus.tpl_conj)
    sig_m = (minus.refl_signal, minus.loss_signal, minus.tpl_signal)
    conj_m = (minus.refl_conj, minus.loss_conj, minus.tpl_conj)
    occ = env.occupations()
    lo = cmath.exp(1j * phi_lo)
    total = 0.0
    for i in range(3):
        n = occ[i]
        total += n * abs(sig_p[i].conjugate() / lo + lo * conj_m[i]) ** 2
        total += (n + 1.0) * abs(lo * sig_m[i] + conj_p[i].conjugate() / lo) ** 2
    return total


def disc_at(params, omega_p, amplitude):
    drive = PumpDrive(omega_p=omega_p, amplitude=amplitude)
    return cubic_discriminant(*cubic_coefficients(params, drive))


def _max_on_curve_energy(params, amplitude):
    # largest E solving E*(gamma + gamma3*E)^2 = 2*gamma1*b^2 bounds every
    # steady state (the squared drive balance with zero detuning mismatch)
    def head(energy):
        return 2.0 * params.gamma1 * amplitude**2 / energy \
            - (params.gamma + params.gamma3 * energy) ** 2

    hi = 1.0
    while head(hi) > 0.0:
        hi *= 2.0
    lo = 1e-300
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if head(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _scan_window(params, amplitude):
    # at any fold the slow relaxation root vanishes, which forces
    # |delta + 2*K*E| <= sqrt(K^2 + gamma3^2)*E with E below the curve top,
    # so all folds live within this detuning span
    e_top = _max_on_curve_energy(params, amplitude)
    half = 3.0 * (abs(params.kerr) + params.gamma3) * e_top + 3.0 * params.gamma
    return params.omega0 - half, params.omega0 + half


def max_disc_over_omega(params, amplitude, n_grid=2000):
    """Maximum cubic discriminant over pump frequency (grid + golden section)."""
    lo, hi = _scan_window(params, amplitude)
    omegas = np.linspace(lo, hi, n_grid)
    values = [disc_at(params, w, amplitude) for w in omegas]
    i = int(np.argmax(values))
    a = omegas[max(0, i - 1)]
    b = omegas[min(n_grid - 1, i + 1)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = disc_at(params, c, amplitude)
    fd = disc_at(params, d, amplitude)
    for _ in range(300):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = disc_at(params, c, amplitude)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = disc_at(params, d, amplitude)
        if b - a <= 1e-17 * max(1.0, abs(a)):
            break
    best = 0.5 * (a + b)
    return disc_at(params, best, amplitude), best


def brute_force_critical(params, b_lo_factor=0.25, b_hi_factor=4.0,
                         reference_amplitude=1.0):
    """Detect the critical point from discriminant sign changes alone.

    Bisects the smallest drive for which the cubic acquires three real
    roots somewhere, then refines the frequency by bisecting the vanishing
    of the depressed-cubic quadratic coefficient (c2^2 - 3 c3 c1 = 0, the
    condition for the inflection point to be the fold).  Returns
    (amplitude, omega_p, energy).
    """
    b_lo = b_lo_factor * reference_amplitude
    b_hi = b_hi_factor * reference_amplitude
    assert max_disc_over_omega(params, b_lo)[0] < 0.0, "b_lo not sub-critical"
    assert max_disc_over_omega(params, b_hi)[0] > 0.0, "b_hi not super-critical"
    for _ in range(80):
        mid = 0.5 * (b_lo + b_hi)
        if max_disc_over_omega(params, mid)[0] > 0.0:
            b_hi = mid
        else:
            b_lo = mid
    amplitude = 0.5 * (b_lo + b_hi)
    _, omega_seed = max_disc_over_omega(params, amplitude)

    def depressed_quadratic(omega_p):
        drive = PumpDrive(omega_p=omega_p, amplitude=amplitude)
        c3, c2, c1, _ = cubic_coefficients(params, drive)
        return c2 * c2 - 3.0 * c3 * c1

    span = abs(params.omega0 - omega_seed) + params.gamma
    grid = np.linspace(omega_seed - 0.5 * span, omega_seed + 0.5 * span, 2001)
    values = [depressed_quadratic(w) for w in grid]
    zeros = []
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            zeros.append(grid[i])
        elif values[i] * values[i + 1] < 0.0:
            lo, hi = grid[i], grid[i + 1]
            f_lo = values[i]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = depressed_quadratic(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (fm > 0.0) == (f_lo > 0.0):
                    lo, f_lo = mid, fm
                else:
                    hi = mid
            zeros.append(0.5 * (lo + hi))
    assert zeros, "no inflection-fold frequency found near the seed"
    omega_p = min(zeros, key=lambda z: abs(z - omega_seed))
    drive = PumpDrive(omega_p=omega_p, amplitude=amplitude)
    c3, c2, c1, _ = cubic_coefficients(params, drive)
    energy = -c2 / (3.0 * c3)
    amplitude_refined = math.sqrt(
        ((c3 * energy + c2) * energy + c1) * energy / (2.0 * params.gamma1))
    return amplitude_refined, omega_p, energy


def fold_frequencies_from_root_count(params, amplitude, n_grid=4001):
    """Pump frequencies where the root count changes, by discriminant bisection.

    The counts come from the solver under test, one ``branch_states`` call
    over the whole grid; the transition frequencies themselves come from
    bisecting the discriminant sign, which is independent of how the roots
    are extracted.
    """
    lo, hi = _scan_window(params, amplitude)
    omegas = np.linspace(lo, hi, n_grid)
    states = branch_states(params, omegas, amplitude)
    counts = np.zeros(n_grid, dtype=int)
    counts[states.row] = states.n_branches
    transitions = []
    for i in range(len(omegas) - 1):
        if counts[i] == counts[i + 1]:
            continue
        a, b = omegas[i], omegas[i + 1]
        d_lo = disc_at(params, a, amplitude)
        for _ in range(200):
            mid = 0.5 * (a + b)
            dm = disc_at(params, mid, amplitude)
            if (dm > 0.0) == (d_lo > 0.0):
                a, d_lo = mid, dm
            else:
                b = mid
        transitions.append(0.5 * (a + b))
    return sorted(transitions)


def scan_phase_extrema(p_of_phi, n_phases=10_000):
    """Grid minimum/maximum of a phase-periodic function over [0, pi)."""
    phis = np.linspace(0.0, math.pi, n_phases, endpoint=False)
    values = np.array([p_of_phi(p) for p in phis])
    return float(values.min()), float(values.max())


# ------------------------------------------------- line eigenvalues

def line_eigenvalue(profile, index: int, dps: int = 40) -> float:
    """Eigenvalue number ``index`` (1-based) of the line's difference
    pencil, by bisection on Sturm counts in ``dps``-digit mpmath.

    The pencil A u = lambda W u is formed exactly from the float samples:
    A is tridiagonal with mid_i = (1/C_i + 1/C_(i+1)) / 2 over h^2 (h the
    float grid step), W = diag(L0) on the interior nodes.  The number of
    negative pivots of LDL^T(A - s W) counts the eigenvalues below s.  The
    search starts from [0, 4 max(mid) / (h^2 min(W))], which holds the
    whole spectrum, and stops at a width of 1e-30 relative.
    """
    import mpmath

    with mpmath.workdps(dps):
        x = profile.x
        h2 = (mpmath.mpf(x[1]) - mpmath.mpf(x[0])) ** 2
        inv_c = [1 / mpmath.mpf(c) for c in profile.C]
        mid = [(a + b) / 2 for a, b in zip(inv_c, inv_c[1:])]
        w = [mpmath.mpf(v) for v in profile.L0[1:-1]]
        diag = [(a + b) / h2 for a, b in zip(mid, mid[1:])]
        off2 = [(m / h2) ** 2 for m in mid[1:-1]]

        def below(s):
            count, pivot = 0, diag[0] - s * w[0]
            for i in range(1, len(w)):
                count += pivot < 0
                if pivot == 0:
                    pivot = mpmath.eps * (abs(diag[i - 1]) + 1)
                pivot = diag[i] - s * w[i] - off2[i - 1] / pivot
            return count + (pivot < 0)

        lo, hi = mpmath.mpf(0), 4 * max(mid) / (h2 * min(w))
        while hi - lo > mpmath.mpf(10) ** -30 * hi:
            cut = (lo + hi) / 2
            if below(cut) >= index:
                hi = cut
            else:
                lo = cut
        return float((lo + hi) / 2)


# ------------------------------------------------- folds at 60 digits

def fold_points_mpmath(params, amplitude, dps=60):
    """(omega_p, E) of every fold at the drive amplitude, ascending in E:
    the solutions of h(E) = P and h'(E) = 0 in ``dps``-digit mpmath, for
    the float parameters and P = 2 gamma1 b_in^2 taken exactly.

    For each detuning delta, h' = 0 is a quadratic in E whose roots
    E- <= E+ come from the plain quadratic formula; h(E-(delta)) = P and
    h(E+(delta)) = P are then each solved for delta by bisection between
    the cusp, where the discriminant of h' (a quadratic in delta) vanishes,
    and a detuning found by doubling where h(E+) exceeds P.  Empty below
    the critical drive; one point when P is h at the cusp exactly.
    """
    import mpmath

    with mpmath.workdps(dps):
        k, g3, g, omega0 = (mpmath.mpf(x) for x in (
            params.kerr, params.gamma3, params.gamma, params.omega0))
        p = 2 * mpmath.mpf(params.gamma1) * mpmath.mpf(amplitude) ** 2
        c3 = k * k + g3 * g3
        # c2^2 - 3 c3 c1 = A delta^2 + B delta + C
        a2, a1, a0 = (k * k - 3 * g3 * g3, 8 * g * g3 * k,
                      g * g * (g3 * g3 - 3 * k * k))
        if a2 <= 0 or p == 0:
            return []
        root = mpmath.sqrt(a1 * a1 - 4 * a2 * a0)
        # the cusp lies on the side the Kerr constant pulls toward
        side = -mpmath.sign(k)
        delta_c = max(((-a1 - root) / (2 * a2), (-a1 + root) / (2 * a2)),
                      key=lambda d: side * d)

        def folds(delta):
            c2 = 2 * (delta * k + g * g3)
            c1 = delta * delta + g * g
            r = mpmath.sqrt(max(c2 * c2 - 3 * c3 * c1, 0))
            return (-c2 - r) / (3 * c3), (-c2 + r) / (3 * c3)

        def h(e, delta):
            return e * ((delta + k * e) ** 2 + (g + g3 * e) ** 2)

        e_c = folds(delta_c)[0]
        h_c = h(e_c, delta_c)
        if p < h_c:
            return []
        if p == h_c:
            return [(float(omega0 - delta_c), float(e_c))]
        far = 2 * delta_c
        while h(folds(far)[1], far) <= p:
            far *= 2
        points = []
        for which in (0, 1):
            lo, hi = delta_c, far
            for _ in range(4 * dps):
                mid = (lo + hi) / 2
                if h(folds(mid)[which], mid) < p:
                    lo = mid
                else:
                    hi = mid
            delta = (lo + hi) / 2
            points.append((float(omega0 - delta),
                           float(folds(delta)[which])))
        return sorted(points, key=lambda point: point[1])


# ------------------------------------------------- full-width fit Jacobian
# The fit's analytic Jacobian as fitting had it before each observable's
# derivatives were taken on its own rows only, kept as it was: both
# observables on every row, then sliced.

def reference_jacobian(params, states, free, n_refl) -> np.ndarray:
    dd, dk, dg, dg3, dg1 = np.array([_PARTIALS[n] for n in free],
                                    dtype=float).T
    k, g3, g, g1 = params.kerr, params.gamma3, params.gamma, params.gamma1
    e = states.energy[:, None]
    b = states.b_in[:, None]
    delta = (params.omega0 - states.omega_p)[:, None]
    with np.errstate(all="ignore"):
        c3 = k * k + g3 * g3
        c2 = 2.0 * (delta * k + g * g3)
        dc3 = 2.0 * (k * dk + g3 * dg3)
        dc2 = 2.0 * (dd * k + delta * dk + dg * g3 + g * dg3)
        dc1 = 2.0 * (delta * dd + g * dg)
        slope = _h(e, delta, k, g3, g)[1]
        de = (2.0 * b * b * dg1 - e * (dc1 + e * (dc2 + e * dc3))) / slope

        a = g + g3 * e
        u = a - 2.0 * g1
        bb = delta + k * e
        da = dg + dg3 * e + g3 * de
        db = dd + dk * e + k * de
        m = a * a + bb * bb
        r2 = (u * u + bb * bb) / m
        refl = (u * (da - 2.0 * dg1) + bb * db - r2 * (a * da + bb * db)) \
            / (np.sqrt(r2) * m)

        q = g1 * e / slope
        dslope = dc1 + e * (2.0 * dc2 + 3.0 * dc3 * e) \
            + (2.0 * c2 + 6.0 * c3 * e) * de
        dq = (dg1 * e + g1 * de - q * dslope) / slope
        gain = 4.0 * q * (dc3 * q + 2.0 * c3 * dq)
    return np.concatenate([refl[:n_refl], gain[n_refl:]])


# ------------------------------------------------- row-wise table renderer
# The renderer tableio had before its columns were typed arrays, kept as
# it was: each cell formatted by Python through its type's text function.

def format_float(x: float) -> str:
    """Fixed 17-significant-digit scientific form; 'nan'/'inf'/'-inf' for
    non-finite values (which is how Python formats them)."""
    return f"{x:.16e}"


def _bool_text(cell: bool) -> str:
    return "true" if cell else "false"


def _json_float(cell: float) -> str:
    text = f"{cell:.16e}"
    # JSON has no literal for nan/inf; keep them as strings
    return text if math.isfinite(cell) else f'"{text}"'


# cell text by the cell's type; ``object`` formats any other type
_CSV_CELL = {float: format_float, bool: _bool_text, int: str, str: str,
             object: str}
_JSON_CELL = {float: _json_float, bool: _bool_text, int: str, str: json.dumps,
              object: json.dumps}


def _cell_text(cell, by_type) -> str:
    text = by_type.get(type(cell))
    if text is not None:
        return text(cell)
    # subclasses format as their base type
    for kind in (bool, int, float):
        if isinstance(cell, kind):
            return by_type[kind](cell)
    return by_type[object](cell)


def _float_texts(values: tuple, quote: bool) -> list[str]:
    """:func:`format_float` of each value; with ``quote``, non-finite texts
    in JSON quotes.  A value repeated across the column is formatted once,
    except zeros: 0.0 and -0.0 are one dict key but two texts."""
    distinct = dict.fromkeys(values)
    if 2 * len(distinct) <= len(values):
        memo = {v: f"{v:.16e}" for v in distinct}
        texts = list(map(memo.__getitem__, values))
        if 0.0 in memo:
            texts = [f"{v:.16e}" if v == 0.0 else t
                     for v, t in zip(values, texts)]
    else:
        texts = ("%.16e\n" * len(values) % values).split("\n")[:-1]
    if quote and not all(map(math.isfinite, distinct)):
        # JSON has no literal for nan/inf; keep them as strings
        texts = [t if math.isfinite(v) else f'"{t}"'
                 for v, t in zip(values, texts)]
    return texts


def _lines(table, sep: str, quote: bool) -> list[str]:
    """The rows as text, built column by column: a column of one type is
    formatted in one pass, each distinct value once."""
    by_type = _JSON_CELL if quote else _CSV_CELL
    columns = []
    for values in zip(*table.rows):
        kinds = set(map(type, values))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind is float:
            texts = _float_texts(values, quote)
        elif kind in by_type:
            memo = {v: by_type[kind](v) for v in dict.fromkeys(values)}
            texts = list(map(memo.__getitem__, values))
        else:
            texts = [_cell_text(c, by_type) for c in values]
        columns.append(texts)
    return list(map(sep.join, zip(*columns)))


def reference_csv(table) -> str:
    lines = [",".join(table.columns)] + _lines(table, ",", quote=False)
    return "\n".join(lines) + "\n"


def reference_json(table) -> str:
    lines = ['{"schema": 1,']
    lines.append(f' "columns": {json.dumps(table.columns)},')
    lines.append(' "rows": [')
    lines.append(",\n".join(f" [{line}]"
                            for line in _lines(table, ", ", quote=True)))
    lines.append("]}")
    return "\n".join(lines) + "\n"


def reference_render(table, fmt: str) -> str:
    return {"csv": reference_csv, "json": reference_json}[fmt](table)

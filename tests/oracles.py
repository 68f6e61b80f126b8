"""Independent brute-force oracles used by the tests.

Everything here works from the pump cubic's coefficients or from direct
scanning only, never from the closed-form operating-point formulas it is
used to check.  The scalar pump path (``scalar_real_roots`` through
``scalar_steady_states``) is the one-point reference the batched kernels
are held to bit for bit: plain Python floats and ``cmath``, root by root.
The row-wise table renderer (``reference_csv``, ``reference_json``) is the
byte reference for ``tableio``: Python's own formatting, cell by cell.
"""

import cmath
import json
import math
import sys

import numpy as np

from kerrcav import (DegenerateModel, PumpDrive, SingularResponse,
                     SteadyState, branch_states, cubic_coefficients,
                     transfer_coefficients)
from kerrcav.cubic import (EXP_MAX, RHO_MAX, ROOT_TOL, TERM_MAX,
                           TRIPLE_TOL)
from kerrcav.steady import MARGINAL_TOL, MERGE_TOL


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


def _solves(x: float, c3: float, c2: float, c1: float, c0: float) -> bool:
    """Whether |cubic(x)| is within ROOT_TOL of the sum of its terms'
    magnitudes."""
    f = ((c3 * x + c2) * x + c1) * x + c0
    scale = abs(c3 * x**3) + abs(c2 * x**2) + abs(c1 * x) + abs(c0)
    return abs(f) <= ROOT_TOL * scale


def _polish(root: float, c3: float, c2: float, c1: float, c0: float) -> float:
    for _ in range(3):
        f = ((c3 * root + c2) * root + c1) * root + c0
        # at a multiple root f and f' are both rounding noise and their
        # ratio is a garbage step; stop once f is below the noise floor
        scale = (abs(c3 * root**3) + abs(c2 * root**2)
                 + abs(c1 * root) + abs(c0))
        if abs(f) <= 1e-15 * scale:
            break
        fp = (3.0 * c3 * root + 2.0 * c2) * root + c1
        if fp == 0.0:
            break
        candidate = root - f / fp
        f_new = ((c3 * candidate + c2) * candidate + c1) * candidate + c0
        if abs(f_new) >= abs(f):
            break
        root = candidate
    return root


def scalar_balance(c3: float, c2: float, c1: float, c0: float):
    """(k, m) such that 2^m c(2^k y) is balanced, for a polynomial out of
    the bounds RHO_MAX, TERM_MAX and EXP_MAX, else (0, 0):
    ``cubic._balanced`` for one row."""
    coeffs = (c0, c1, c2, c3)
    nonzero = [i for i, c in enumerate(coeffs) if c != 0.0]
    if len(nonzero) < 2:
        return 0, 0
    d = nonzero[-1]
    e = [math.frexp(c)[1] for c in coeffs]
    rho = max((e[i] - e[d]) / (d - i) for i in nonzero[:-1])
    if c3 != 0.0 and c0 != 0.0:
        out = abs(e[d] + d * rho) > TERM_MAX
    else:
        out = max(abs(x) for x in e) > EXP_MAX
    if abs(rho) > RHO_MAX or out:
        k = math.floor(rho)
        return k, -e[d] - d * k
    return 0, 0


def scalar_real_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """Return all real roots of the cubic, ascending.

    Degenerate leading coefficients are handled exactly (quadratic, linear,
    constant), and so is a zero constant term (x = 0 and the roots of the
    quadratic factor).  A cluster of three mutually unresolvable roots is
    collapsed to the inflection point -c2/(3*c3), which is exact for a
    triple root.  Rows out of the bounds of ``scalar_balance`` are solved
    balanced.
    """
    k, m = scalar_balance(c3, c2, c1, c0)
    if k or m:
        scaled = [math.ldexp(c, m + i * k)
                  for i, c in ((3, c3), (2, c2), (1, c1), (0, c0))]
        if c3 != 0.0 and c0 != 0.0 and abs(scaled[3]) < sys.float_info.min:
            raise OverflowError("cubic roots too far apart to solve at one "
                                "scale")
        # math.ldexp raises OverflowError where a root leaves the float range
        return [math.ldexp(r, k) for r in scalar_real_roots(*scaled)]
    if c3 == 0.0:
        if c2 == 0.0:
            if c1 == 0.0:
                return []
            return [-c0 / c1]
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0.0:
            return []
        s = math.sqrt(disc)
        if not disc > 0.0:
            return [(-c1 - s) / (2.0 * c2)]
        # the root of larger magnitude without cancellation, the other
        # from the product of the roots
        q = -0.5 * (c1 + math.copysign(s, c1))
        return sorted([q / c2, c0 / q])
    if c0 == 0.0:
        # x = 0 is an exact root, once; the rest solve the quadratic factor
        return sorted([0.0] + [r for r in scalar_real_roots(0.0, c3, c2, c1)
                               if r != 0.0])

    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    # depressed form t^3 + p t + q with x = t - a/3
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c

    spread = max(math.sqrt(abs(p)), abs(q) ** (1.0 / 3.0))
    if a != 0.0 and spread <= TRIPLE_TOL * abs(a / 3.0):
        return [-a / 3.0]

    disc = -4.0 * p**3 - 27.0 * q * q
    # an exact double root has disc = 0 but rounds either way; a band scaled
    # by the cancelling terms keeps fold pairs from vanishing into the
    # single-root branch
    disc_scale = 4.0 * abs(p) ** 3 + 27.0 * q * q
    if p < 0.0 and disc >= -1e-14 * disc_scale:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        ts = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
    elif p == 0.0 and q == 0.0:
        ts = [0.0]
    else:
        s = math.sqrt(max(q * q / 4.0 + p**3 / 27.0, 0.0))
        ts = [math.copysign(abs(-q / 2.0 + s) ** (1.0 / 3.0), -q / 2.0 + s)
              + math.copysign(abs(-q / 2.0 - s) ** (1.0 / 3.0), -q / 2.0 - s)]

    roots = sorted(_polish(t - a / 3.0, c3, c2, c1, c0) for t in ts)
    if len(roots) == 3:
        # the double-root band also admits one real root beside a complex
        # pair far smaller in magnitude, where the trigonometric pair
        # solves nothing
        roots = [r for r in roots if _solves(r, c3, c2, c1, c0)] or roots
    return roots


def scalar_solve_pump_energy(params, drive) -> list[float]:
    """Real nonnegative roots E of the pump cubic, ascending.

    Returns 1, 2 (fold tangency, the double root reported once) or 3 roots.
    Tiny negative roots from rounding are clamped to zero; genuinely
    negative or complex roots are discarded.

    Raises
    ------
    DegenerateModel
        If gamma1 + gamma2 == 0.
    """
    if params.gamma <= 0.0:
        raise DegenerateModel("gamma1 + gamma2 must be > 0")
    c3, c2, c1, c0 = cubic_coefficients(params, drive)
    if c0 == 0.0:
        # undriven port: E = 0 plus any positive branch of the quadratic
        # factor (none exist for gamma > 0, but solve it anyway)
        roots = [0.0] + [r for r in scalar_real_roots(0.0, c3, c2, c1)
                         if r > 0.0]
        return sorted(roots)
    roots = scalar_real_roots(c3, c2, c1, c0)
    kept = []
    for r in roots:
        if r < -1e-12:
            continue
        kept.append(max(r, 0.0))
    kept.sort()
    scale = max(kept[-1], 1e-300) if kept else 0.0
    merged: list[float] = []
    for r in kept:
        if merged and abs(r - merged[-1]) <= MERGE_TOL * scale:
            merged[-1] = 0.5 * (merged[-1] + r)
        else:
            merged.append(r)
    return merged


def scalar_relaxation_roots(params, drive, energy: float):
    """Relaxation roots (slow, fast) of the branch with photon number E.

    Evaluated with the complex square root so underdamped operating points
    (complex-conjugate pair) are representable; for a nonnegative radicand
    both roots are real.
    """
    delta = drive.detuning(params)
    k = params.kerr
    g3 = params.gamma3
    radicand = (k * k + g3 * g3) * energy * energy - (delta + 2.0 * k * energy) ** 2
    s = cmath.sqrt(complex(radicand, 0.0))
    base = params.gamma + 2.0 * g3 * energy
    return base - s, base + s


def scalar_steady_state(params, drive, energy: float,
                        branch_index: int = 0) -> SteadyState:
    """Assemble the full steady-state record for one cubic root.

    ``energy`` must be a root returned by :func:`scalar_solve_pump_energy`.
    The cavity phase is fixed by the drive balance; it is defined as 0 when
    the amplitude vanishes.
    """
    delta = drive.detuning(params)
    amp = math.sqrt(max(energy, 0.0))
    if amp == 0.0:
        phase = 0.0
    else:
        response = (1j * delta + params.gamma) * amp \
            + (1j * params.kerr + params.gamma3) * amp**3
        phase = drive.phase - params.phi1 + cmath.phase(1j * response)
    reflected = drive.amplitude - 1j * math.sqrt(2.0 * params.gamma1) * amp \
        * cmath.exp(-1j * (params.phi1 + phase - drive.phase))
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

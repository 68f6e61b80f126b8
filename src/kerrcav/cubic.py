"""Closed-form real-root solver for cubics with graceful degeneration.

Roots are obtained from the Cardano closed form (evaluated trigonometrically
when all three roots are real, which is the numerically stable variant) and
then polished with a few Newton steps on the original polynomial.  Leading
coefficients of exactly zero degrade to the quadratic/linear cases, so a
vanishing nonlinearity never divides by zero.  :func:`real_roots_array`
solves many cubics at once and gives, row for row, the same bits as
:func:`real_roots`.
"""

import math

import numpy as np

from .floatops import libm, rows

# A depressed cubic whose roots all sit within TRIPLE_TOL of each other
# (relative to the inflection point) is treated as a triple root at the
# inflection: such clusters are not resolvable in double precision once
# coefficient and input rounding (one ulp of a detuning difference enters
# cube-root amplified) are accounted for.
TRIPLE_TOL = 1e-4
# A polished trigonometric root whose cubic value exceeds this fraction of
# the sum of the terms' magnitudes is no root (rounding leaves ~1e-16).
ROOT_TOL = 1e-8


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


def real_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """Return all real roots of the cubic, ascending.

    Degenerate leading coefficients are handled exactly (quadratic, linear,
    constant), and so is a zero constant term (x = 0 and the roots of the
    quadratic factor).  A cluster of three mutually unresolvable roots is
    collapsed to the inflection point -c2/(3*c3), which is exact for a
    triple root.
    """
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
        return sorted([0.0] + [r for r in real_roots(0.0, c3, c2, c1)
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


# 2*pi*k/3 as real_roots forms it, for the three trigonometric roots
_THIRDS = tuple(2.0 * math.pi * k / 3.0 for k in range(3))


def _polish_array(x, c3, c2, c1, c0):
    """:func:`_polish` on 1-D arrays of roots and their coefficients."""
    x = x.copy()
    live = np.arange(x.size)
    for _ in range(3):
        if not live.size:
            break
        r = x[live]
        k3, k2, k1, k0 = c3[live], c2[live], c1[live], c0[live]
        f = ((k3 * r + k2) * r + k1) * r + k0
        scale = (np.abs(k3 * libm(math.pow, r, 3.0))
                 + np.abs(k2 * libm(math.pow, r, 2.0))
                 + np.abs(k1 * r) + np.abs(k0))
        fp = (3.0 * k3 * r + 2.0 * k2) * r + k1
        candidate = r - f / fp
        f_new = ((k3 * candidate + k2) * candidate + k1) * candidate + k0
        step = (~(np.abs(f) <= 1e-15 * scale) & (fp != 0.0)
                & ~(np.abs(f_new) >= np.abs(f)))
        live = live[step]
        x[live] = candidate[step]
    return x


def _degenerate_roots(c2, c1, c0):
    """real_roots rows whose cubic coefficient is zero."""
    out = np.full((c2.size, 3), np.nan)
    linear = (c2 == 0.0) & (c1 != 0.0)
    out[linear, 0] = -c0[linear] / c1[linear]
    disc = c1 * c1 - 4.0 * c2 * c0
    s = np.sqrt(disc)
    # one root unless disc > 0 (none if disc < 0), a NaN disc included
    double = (c2 != 0.0) & ~(disc < 0.0) & ~(disc > 0.0)
    out[double, 0] = ((-c1 - s) / (2.0 * c2))[double]
    two = (c2 != 0.0) & (disc > 0.0)
    q = -0.5 * (c1 + np.copysign(s, c1))
    big, small = q / c2, c0 / q
    out[two, 0] = np.minimum(big, small)[two]
    out[two, 1] = np.maximum(big, small)[two]
    return out


def _trig_starts(p, q, a):
    """The three trigonometric roots of real_roots, before polishing."""
    m = 2.0 * np.sqrt(-p / 3.0)
    if np.any(p * m == 0.0):
        # p * m underflowed: a float division by zero, as real_roots has it
        raise ZeroDivisionError("float division by zero")
    arg = np.minimum(1.0, np.maximum(-1.0, 3.0 * q / (p * m)))
    theta = libm(math.acos, arg) / 3.0
    return np.stack([m * libm(math.cos, theta - third) - a / 3.0
                     for third in _THIRDS], axis=1)


def _cubic_roots(c3, c2, c1, c0):
    """real_roots rows whose cubic coefficient is nonzero."""
    out = np.full((c3.size, 3), np.nan)
    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    p = b - a * a / 3.0
    q = 2.0 * libm(math.pow, a, 3.0) / 27.0 - a * b / 3.0 + c
    # spread = max(sqrt|p|, |q|^(1/3)) is within tol iff both are; the cube
    # root is taken only where sqrt|p| already is
    tol = TRIPLE_TOL * np.abs(a / 3.0)
    rest = ~((a != 0.0) & (np.sqrt(np.abs(p)) <= tol))
    near = np.flatnonzero(~rest)
    if near.size:
        rest[near] = libm(math.pow, np.abs(q[near]), 1.0 / 3.0) > tol[near]
        triple = near[~rest[near]]
        out[triple, 0] = -a[triple] / 3.0
    rest = np.flatnonzero(rest)

    a, p, q = a[rest], p[rest], q[rest]
    p3 = libm(math.pow, p, 3.0)
    disc = -4.0 * p3 - 27.0 * q * q
    neg = np.flatnonzero(p < 0.0)
    disc_scale = (4.0 * libm(math.pow, np.abs(p[neg]), 3.0)
                  + 27.0 * q[neg] * q[neg])
    trig = neg[disc[neg] >= -1e-14 * disc_scale]
    single = np.ones(a.size, dtype=bool)
    single[trig] = False
    single = np.flatnonzero(single)

    # one real root (Cardano); p = q = 0 gives exactly 0 here
    qs = q[single]
    s = np.sqrt(np.maximum(qs * qs / 4.0 + p3[single] / 27.0, 0.0))
    u = -qs / 2.0 + s
    v = -qs / 2.0 - s
    starts = (np.copysign(libm(math.pow, np.abs(u), 1.0 / 3.0), u)
              + np.copysign(libm(math.pow, np.abs(v), 1.0 / 3.0), v)
              - a[single] / 3.0)
    which = rest[single]
    if trig.size:
        starts = np.concatenate(
            [starts, _trig_starts(p[trig], q[trig], a[trig]).ravel()])
        which = np.concatenate([which, np.repeat(rest[trig], 3)])
    polished = _polish_array(starts, c3[which], c2[which], c1[which],
                             c0[which])
    out[rest[single], 0] = polished[:single.size]
    if trig.size:
        roots = polished[single.size:]
        at = which[single.size:]
        k3, k2, k1, k0 = c3[at], c2[at], c1[at], c0[at]
        f = ((k3 * roots + k2) * roots + k1) * roots + k0
        scale = (np.abs(k3 * libm(math.pow, roots, 3.0))
                 + np.abs(k2 * libm(math.pow, roots, 2.0))
                 + np.abs(k1 * roots) + np.abs(k0))
        solves = (np.abs(f) <= ROOT_TOL * scale).reshape(-1, 3)
        roots = roots.reshape(-1, 3)
        # real_roots keeps all three where none solves the cubic
        drop = ~solves & solves.any(axis=1, keepdims=True)
        out[rest[trig]] = np.sort(np.where(drop, np.nan, roots), axis=1)
    return out


def real_roots_array(c3, c2, c1, c0) -> np.ndarray:
    """Real roots of many cubics: row i holds those of
    c3[i] x^3 + c2[i] x^2 + c1[i] x + c0[i], ascending, padded with NaN.

    The coefficients are scalars or 1-D arrays of one length; the result
    has shape (n, 3).  Each row is bit-identical to :func:`real_roots` on
    the same coefficients: the same degenerate cases, triple-root collapse,
    double-root band and guarded Newton steps, in the same floating-point
    order.
    """
    c3, c2, c1, c0 = rows(c3, c2, c1, c0)
    with np.errstate(all="ignore"):
        lead = c3 == 0.0
        if not (lead | (c0 == 0.0)).any():
            return _cubic_roots(c3, c2, c1, c0)
        factor = ~lead & (c0 == 0.0)
        roots = np.empty((c3.size, 3))
        roots[lead] = _degenerate_roots(c2[lead], c1[lead], c0[lead])
        # x = 0 once, and the nonzero roots of the quadratic factor
        quad = _degenerate_roots(c3[factor], c2[factor], c1[factor])
        roots[factor] = np.sort(np.column_stack(
            [np.zeros(len(quad)), np.where(quad != 0.0, quad, np.nan)[:, :2]]),
            axis=1)
        cubic = np.flatnonzero(~lead & ~factor)
        roots[cubic] = _cubic_roots(c3[cubic], c2[cubic], c1[cubic],
                                    c0[cubic])
    return roots

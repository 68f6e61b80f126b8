"""Closed-form real-root solver for cubics with graceful degeneration.

Roots are obtained from the Cardano closed form (evaluated trigonometrically
when all three roots are real, which is the numerically stable variant) and
then polished with a few Newton steps on the original polynomial.  Leading
coefficients of exactly zero degrade to the quadratic/linear cases, so a
vanishing nonlinearity never divides by zero.  :func:`real_roots_array`
solves many cubics at once; :func:`real_roots` is its row for one cubic.
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
# A polynomial of degree d (its leading nonzero coefficient c_d) is balanced
# by powers of two (Kahan, "To Solve a Real Cubic Equation", 1986) when the
# binary exponent rho of its roots' scale, max_i (e_i - e_d) / (d - i) over
# the nonzero c_i, i < d, leaves RHO_MAX; a full cubic (c3, c0 != 0) also
# when its largest term's, e_3 + 3 rho, leaves TERM_MAX, and the rest (they
# meet the quadratic formula) when a nonzero coefficient's leaves EXP_MAX.
# Inside these bounds no intermediate (rho's sixth power in the cubic's
# discriminant, a product of two coefficients in the quadratic's) over- or
# underflows, so such rows keep their bits.  A full cubic is not held to
# EXP_MAX: balancing it to its largest roots' scale can underflow a constant
# term that the unbalanced solver resolves (a drive of 1e-155 on the README
# device gives one).
RHO_MAX = 120.0
TERM_MAX = 900.0
EXP_MAX = 500


# 2*pi*k/3, for the three trigonometric roots
_THIRDS = tuple(2.0 * math.pi * k / 3.0 for k in range(3))


def _polish_array(x, c3, c2, c1, c0):
    """Up to three Newton steps on 1-D arrays of roots and coefficients; a
    root stops below the rounding floor (where, at a multiple root, f/f' is
    noise), at a zero slope, or at a step that does not shrink |f|."""
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
    """Rows whose cubic coefficient is zero."""
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
    """The three trigonometric roots, before polishing."""
    m = 2.0 * np.sqrt(-p / 3.0)
    if np.any(p * m == 0.0):
        # p * m underflowed: a float division by zero
        raise ZeroDivisionError("float division by zero")
    arg = np.minimum(1.0, np.maximum(-1.0, 3.0 * q / (p * m)))
    theta = libm(math.acos, arg) / 3.0
    return np.stack([m * libm(math.cos, theta - third) - a / 3.0
                     for third in _THIRDS], axis=1)


def _cubic_roots(c3, c2, c1, c0):
    """Rows whose cubic coefficient is nonzero."""
    out = np.full((c3.size, 3), np.nan)
    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    # depressed form t^3 + p t + q with x = t - a/3
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
    # an exact double root has disc = 0 but rounds either way; a band scaled
    # by the cancelling terms keeps fold pairs from vanishing into the
    # single-root branch
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
        # the double-root band also admits one real root beside a complex
        # pair far smaller in magnitude, where the trigonometric pair
        # solves nothing; all three stay where none solves the cubic
        drop = ~solves & solves.any(axis=1, keepdims=True)
        out[rest[trig]] = np.sort(np.where(drop, np.nan, roots), axis=1)
    return out


def _balanced(coeffs):
    """None if every row of ``coeffs`` (c0..c3 stacked, shape (4, n), all
    finite) keeps within the bounds above, else the rows as 2^m c(2^k y)
    and k, with k = m = 0 on the rows within the bounds.  A balanced row
    has a leading coefficient in [0.5, 1) and its largest roots of order 1;
    the scaling is exact unless a relatively negligible coefficient
    underflows.

    Raises
    ------
    OverflowError
        If a balanced full cubic's constant term underflows: its two
        smaller roots are too far below its largest (more than about
        2^511) to solve at the largest's scale.
    """
    nonzero = coeffs != 0.0
    col = np.arange(coeffs.shape[1])
    i = np.arange(4)[:, None]
    # the leading nonzero coefficient's index and exponent
    d = 3 - np.argmax(nonzero[::-1], axis=0)
    e = np.frexp(coeffs)[1]
    ed = e[d, col]
    lower = nonzero & (i < d)
    rho = np.max(np.where(lower, (e - ed) / np.maximum(d - i, 1), -np.inf),
                 axis=0)
    cubic = nonzero[0] & nonzero[3]
    wild = np.isfinite(rho) & (
        (np.abs(rho) > RHO_MAX)
        | np.where(cubic, np.abs(ed + d * rho) > TERM_MAX,
                   np.max(np.abs(e), axis=0) > EXP_MAX))
    if not wild.any():
        # every fit evaluation and README sweep: no row out of range
        return None
    k = np.where(wild, np.floor(rho), 0.0).astype(int)
    scaled = np.ldexp(coeffs, np.where(wild, -ed - d * k, 0) + i * k)
    if np.any(wild & cubic & (np.abs(scaled[0]) < np.finfo(float).tiny)):
        raise OverflowError("cubic roots too far apart to solve at one scale")
    return scaled, k


def real_roots_array(c3, c2, c1, c0) -> np.ndarray:
    """Real roots of many cubics: row i holds those of
    c3[i] x^3 + c2[i] x^2 + c1[i] x + c0[i], ascending, padded with NaN.

    The coefficients are scalars or 1-D arrays of one length; the result
    has shape (n, 3).  Degenerate leading coefficients are handled exactly
    (quadratic, linear, constant), and so is a zero constant term (x = 0
    and the roots of the quadratic factor).  A cluster of three mutually
    unresolvable roots is collapsed to the inflection point -c2/(3*c3),
    which is exact for a triple root.  A row whose roots' scale, largest
    term or coefficients lie near the ends of the float range is solved
    balanced by powers of two (see :data:`RHO_MAX`).

    Raises
    ------
    OverflowError
        If a coefficient is infinite or NaN, if a balanced row has a root
        beyond the float range, or if it is a full cubic whose two smaller
        roots lie more than about 2^511 below its largest (see
        :func:`_balanced`).
    """
    c3, c2, c1, c0 = rows(c3, c2, c1, c0)
    coeffs = np.stack([c0, c1, c2, c3])
    if not np.isfinite(coeffs).all():
        raise OverflowError("cubic coefficient is not finite")
    with np.errstate(all="ignore"):
        balanced = _balanced(coeffs)
        if balanced is None:
            return _dispatch(c3, c2, c1, c0)
        (c0, c1, c2, c3), k = balanced
        roots = np.ldexp(_dispatch(c3, c2, c1, c0), k[:, None])
    if np.any(np.isinf(roots[k != 0])):
        raise OverflowError("cubic root beyond the float range")
    return roots


def _dispatch(c3, c2, c1, c0):
    """:func:`real_roots_array` on the coefficients as given."""
    lead = c3 == 0.0
    if not (lead | (c0 == 0.0)).any():
        # every fit evaluation: all rows driven full cubics
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


def real_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """All real roots of one cubic, ascending: its row of
    :func:`real_roots_array` without the NaN padding."""
    roots = real_roots_array(c3, c2, c1, c0)[0]
    return roots[~np.isnan(roots)].tolist()

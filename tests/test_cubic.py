import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcav import real_roots, real_roots_array
from oracles import cubic_discriminant, scalar_real_roots


def poly(coeffs, x):
    c3, c2, c1, c0 = coeffs
    return ((c3 * x + c2) * x + c1) * x + c0


def test_random_cubics_match_numpy_roots():
    rng = np.random.default_rng(7)
    for _ in range(300):
        coeffs = rng.uniform(-5.0, 5.0, size=4)
        if abs(coeffs[0]) < 1e-3:
            coeffs[0] = 1e-3
        got = real_roots(*coeffs)
        expected = sorted(r.real for r in np.roots(coeffs)
                          if abs(r.imag) <= 1e-9 * max(1.0, abs(r)))
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, rel=1e-7, abs=1e-9)


def test_residuals_are_small():
    rng = np.random.default_rng(11)
    for _ in range(300):
        coeffs = rng.uniform(-3.0, 3.0, size=4) * 10.0 ** rng.integers(-4, 4)
        if coeffs[0] == 0.0:
            continue
        for r in real_roots(*coeffs):
            scale = max(abs(coeffs[0] * r**3), abs(coeffs[1] * r**2),
                        abs(coeffs[2] * r), abs(coeffs[3]), 1e-300)
            assert abs(poly(coeffs, r)) <= 1e-10 * scale


@pytest.mark.parametrize("coeffs, expected", [
    ((1.0, -1.5386782449054782e-115, 0.0, 0.0), [0.0, 1.5386782449054782e-115]),
    ((1.142710336645715e-252, 0.0, 1.0, 0.0), [0.0]),
    ((2.0, 3.0, 0.0, 0.0), [-1.5, 0.0]),
])
def test_zero_constant_term_gives_exact_zero_root(coeffs, expected):
    """x = 0 solves the cubic exactly when c0 = 0; it is returned once,
    with the roots of the quadratic factor, by both solvers (badly scaled
    coefficients once raised or gave a spurious 1.4e-17 double root)."""
    assert real_roots(*coeffs) == expected
    padded = expected + [math.nan] * (3 - len(expected))
    assert np.array_equal(real_roots_array(*coeffs)[0], padded,
                          equal_nan=True)


def test_zero_constant_term_keeps_small_roots_accurate():
    """The quadratic factor of -0.01 x^3 - 10 x^2 - 0.001 x has roots near
    -1e-4 and -1e3; the small one must not lose digits to cancellation."""
    coeffs = (-0.01, -10.0, -0.001, 0.0)
    for r in real_roots(*coeffs):
        scale = max(abs(coeffs[0] * r**3), abs(coeffs[1] * r**2),
                    abs(coeffs[2] * r), 1e-300)
        assert abs(poly(coeffs, r)) <= 1e-15 * scale


@pytest.mark.parametrize("c1", [0.0, 1.0])
def test_one_real_root_beside_a_small_complex_pair(c1):
    """-1e-4 x^3 - 1000 x^2 + c1 x - 1 has one real root near -1e7 and a
    complex pair of modulus ~0.03; the discriminant band once let the
    trigonometric branch add two spurious roots near 0."""
    coeffs = (-1e-4, -1000.0, c1, -1.0)
    expected = [r.real for r in np.roots(coeffs) if r.imag == 0.0]
    assert real_roots(*coeffs) == pytest.approx(expected, rel=1e-12)
    got = real_roots_array(*coeffs)[0]
    assert np.array_equal(got, real_roots(*coeffs) + [math.nan] * 2,
                          equal_nan=True)


def mpmath_real_roots(coeffs):
    """Real roots of the cubic with the given float coefficients, from
    mpmath at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in coeffs],
                                 maxsteps=500, extraprec=600)
        return sorted(float(r.real) for r in roots
                      if abs(r.imag) <= mpmath.mpf(10) ** -40 * abs(r))


@pytest.mark.parametrize("coeffs", [
    # one root near -9.565e83: the unscaled solver returned none
    (1.142710336645715e-252, 0.0, 0.0, 1.0),
    # -1 beside a complex pair of modulus 4.9e72: the unscaled solver
    # overflowed
    (1.9592649571135513e-152, -1.4882756627675344e-147,
     4.760040471729321e-07, 4.760040471729321e-07),
    # (x - 1)(x - 2)(x - 3) with subnormal and with huge coefficients
    (1e-310, -6e-310, 1.1e-309, -6e-310),
    (1e300, -6e300, 1.1e301, -6e300),
])
def test_badly_scaled_cubics_match_mpmath(coeffs):
    expected = mpmath_real_roots(coeffs)
    assert real_roots(*coeffs) == pytest.approx(expected, rel=1e-14)
    assert scalar_real_roots(*coeffs) == real_roots(*coeffs)


@pytest.mark.xfail(raises=OverflowError, strict=True,
                   reason="a row is solved at its largest roots' scale, where "
                          "a complex pair about 2^810 below them underflows")
def test_roots_far_apart_at_one_scale():
    """A root near -4.84e243 beside a complex pair of modulus 0.68: every
    root and their ratio are representable, but the balanced constant term
    underflows, so the solver raises instead of returning the root."""
    coeffs = (-3.2932508327202477e-239, -159438.55292458864,
              -1.0328336045944054e-71, -73760.6958857706)
    expected = mpmath_real_roots(coeffs)
    assert expected == pytest.approx([-4.84e243], rel=1e-3)
    assert real_roots(*coeffs) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("coeffs", [
    (1e-8, 2e-3, 1.0, -math.inf),
    (math.nan, 1.0, 1.0, 1.0),
    (math.inf, 0.0, 0.0, 0.0),
])
def test_non_finite_coefficients_raise(coeffs):
    with pytest.raises(OverflowError, match="cubic coefficient is not finite"):
        real_roots(*coeffs)
    # one such row fails the whole batch
    with pytest.raises(OverflowError, match="not finite"):
        real_roots_array(*zip((1.0, -7.0, 14.0, -8.0), coeffs))


def test_linear_degeneration():
    assert real_roots(0.0, 0.0, 2.0, -6.0) == [3.0]
    assert real_roots(0.0, 0.0, 0.0, 1.0) == []


def test_quadratic_degeneration():
    roots = real_roots(0.0, 1.0, -3.0, 2.0)
    assert roots == pytest.approx([1.0, 2.0])
    assert real_roots(0.0, 1.0, 0.0, 1.0) == []
    # double root reported once
    assert real_roots(0.0, 1.0, -4.0, 4.0) == pytest.approx([2.0])


def test_three_known_roots():
    # (x - 1)(x - 2)(x - 4) = x^3 - 7x^2 + 14x - 8
    assert real_roots(1.0, -7.0, 14.0, -8.0) == pytest.approx([1.0, 2.0, 4.0])


def test_double_root_cubic():
    # (x - 2)^2 (x - 7)
    roots = real_roots(1.0, -11.0, 32.0, -28.0)
    assert len(roots) == 3
    assert roots[0] == pytest.approx(2.0, rel=1e-6)
    assert roots[1] == pytest.approx(2.0, rel=1e-6)
    assert roots[2] == pytest.approx(7.0, rel=1e-10)


def test_triple_root_snaps_to_inflection():
    # (x - 5)^3 = x^3 - 15x^2 + 75x - 125
    roots = real_roots(1.0, -15.0, 75.0, -125.0)
    assert roots == [5.0]


def test_one_real_root():
    # x^3 + x + 10 has the single real root -2 (x = -2: -8 - 2 + 10 = 0)
    roots = real_roots(1.0, 0.0, 1.0, 10.0)
    assert roots == pytest.approx([-2.0])


def test_discriminant_signs():
    assert cubic_discriminant(1.0, -7.0, 14.0, -8.0) > 0.0   # three distinct
    assert cubic_discriminant(1.0, 0.0, 1.0, 10.0) < 0.0     # one real
    assert cubic_discriminant(1.0, -11.0, 32.0, -28.0) == pytest.approx(0.0, abs=1e-9)


coefficient = st.one_of(st.just(0.0), st.floats(-1e6, 1e6),
                        st.floats(-1e-6, 1e-6))
root = st.floats(-1e3, 1e3)


@st.composite
def cubic_rows(draw):
    """Coefficient rows: arbitrary, with vanishing leading terms, and built
    from double and triple roots."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        shape = draw(st.sampled_from(["any", "double", "triple"]))
        if shape == "any":
            rows.append(tuple(draw(coefficient) for _ in range(4)))
        else:
            r, s = draw(root), draw(root)
            if shape == "triple":
                s = r
            rows.append(tuple(np.poly([r, r, s]).tolist()))
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cubic_rows())
def test_array_roots_match_scalar_roots(rows):
    """Each row holds the scalar reference's roots of its coefficients, bit
    for bit, padded with NaN; where the reference raises (overflow, a zero
    division after underflow), the array solver raises the same error."""
    expected = []
    for coeffs in rows:
        try:
            expected.append(scalar_real_roots(*coeffs))
        except ArithmeticError as exc:
            with pytest.raises(type(exc)):
                real_roots_array(*coeffs)
    if len(expected) < len(rows):
        with pytest.raises(ArithmeticError):
            real_roots_array(*zip(*rows))
        return
    roots = real_roots_array(*zip(*rows))
    assert roots.shape == (len(rows), 3)
    for got, want in zip(roots, expected):
        padded = np.array(want + [math.nan] * (3 - len(want)))
        assert np.array_equal(got, padded, equal_nan=True)

"""Python's float and complex arithmetic on NumPy arrays, bit for bit.

The batched steady state (:mod:`steady`) evaluates the formulas of the
scalar reference the tests keep over whole arrays and must give the same
bits.  Both write powers 2 and 3 as products (``x * x``, ``x * x * x``,
:func:`abs2`), and ``np.cos`` and ``np.sin`` equal ``math.cos`` and
``math.sin``; only atan2 goes through ``math`` elementwise (:func:`phase`,
also the array half of the atan2 that the gains and the homodyne extrema
share with their float path).  NumPy's complex multiply rounds differently
from CPython's, so complex numbers are carried as (real, imaginary) pairs
of float arrays, combined in the order CPython's complex arithmetic uses.
A float operand of a complex operation is the pair (x, 0.0), as CPython
converts it.  The small-signal response and the noise need no pairs: they
are written once in real arithmetic that runs on floats and arrays alike.
"""

import math

import numpy as np


def rows(*values):
    """The values as 1-D float arrays of one length; scalars repeat."""
    arrays = [np.ravel(np.asarray(v, dtype=float)) for v in values]
    sizes = {a.size for a in arrays} - {1}
    if len(sizes) > 1:
        raise ValueError(f"array sizes {sorted(sizes)} differ")
    n = sizes.pop() if sizes else 1
    return [a if a.size == n else np.full(n, a[0]) for a in arrays]


def pack(z):
    """A complex array from a (real, imaginary) pair, without rounding."""
    re, im = z
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def parts(z):
    """The (real, imaginary) pair of a complex scalar or array."""
    return z.real, z.imag


def add(a, b):
    return a[0] + b[0], a[1] + b[1]


def sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def mul(a, b):
    """a * b as CPython's complex product rounds it."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def div_float(a, x):
    """a / x for a float x != 0, which CPython divides as the complex
    (x, 0.0): Smith's method with the ratio 0.0 / x."""
    ratio = 0.0 / x
    return (a[0] + a[1] * ratio) / x, (a[1] - a[0] * ratio) / x


def exp_imag(z):
    """cmath.exp(z) for z with real part +-0, such as -1j times a finite
    float: exp(0) = 1 exactly, leaving (cos, sin) of the imaginary part."""
    return np.cos(z[1]), np.sin(z[1])


def times_1j(z):
    """1j * z: the product with (0.0, 1.0), whose factors 1.0 are exact."""
    return 0.0 * z[0] - z[1], 0.0 * z[1] + z[0]


def times_minus_1j(z):
    """-1j * z: the product with (-0.0, -1.0), whose factors -1.0 only
    negate."""
    return -0.0 * z[0] + z[1], -0.0 * z[1] - z[0]


def modulus(z):
    """abs(z) for a complex z, raising OverflowError as CPython does when
    finite parts give an infinite modulus (the C library's hypot is what
    Python's complex abs takes)."""
    re, im = z
    out = np.hypot(re, im)
    if np.isinf(out).any() and np.any(np.isinf(out) & np.isfinite(re)
                                      & np.isfinite(im)):
        raise OverflowError("absolute value too large")
    return out


def abs2(z):
    """|z|^2 of a complex scalar or array as re*re + im*im (inf past 1e154)."""
    return z.real * z.real + z.imag * z.imag


def phase(z):
    """cmath.phase(z) of a pair of 1-D arrays: ``math.atan2`` of the
    imaginary and real parts, elementwise (``np.arctan2`` differs from it
    in the last bit on 6-8 % of random arguments)."""
    re, im = z
    return np.fromiter(map(math.atan2, im.tolist(), re.tolist()), float,
                       re.size)


"""The NumPy ufuncs the batched steady state shares with the one-point
code."""

import math

import numpy as np


def test_numpy_cos_sin_match_math():
    """The batched steady state takes np.cos and np.sin where the scalar
    reference takes math.cos/math.sin (or cmath.exp, which calls them), on
    the phase factor of the reflected field.  The angles are uniform on
    [-4 pi/3, pi/3], [-4 pi, 4 pi] and [-1e3, 1e3], the multiples of pi/24
    up to 8 pi/3, and signed zero and tiny angles.  Should a platform's
    NumPy round them otherwise, the bit-equality tests between the paths
    fail for this reason."""
    rng = np.random.default_rng(2024)
    angles = np.concatenate([
        rng.uniform(-4.0 * math.pi / 3.0, math.pi / 3.0, 100_000),
        rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 100_000),
        rng.uniform(-1e3, 1e3, 100_000),
        np.arange(-64, 65) * (math.pi / 24.0),
        [0.0, -0.0, 5e-324, 1e-300, -1e-8]])
    values = angles.tolist()
    for ufunc, fn in ((np.cos, math.cos), (np.sin, math.sin)):
        got = ufunc(angles)
        want = np.array(list(map(fn, values)))
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert differ.size == 0, (
            f"{ufunc.__name__} differs from math.{fn.__name__} on "
            f"{differ.size} of {angles.size} angles, first at "
            f"{angles[differ[0]]!r}")

import decimal
import json
import math
import random
import struct

import numpy as np
import pytest

from kerrcav import (LineProfile, ModeSolution, ResolutionError, SameModeError,
                     cross_kerr, derive_device, load_profile,
                     mode_coefficients, solve_mode, solve_modes)
from kerrcav import jsonfile, stripline
from kerrcav.jsonfile import read_json
from conftest import make_uniform_profile
from oracles import line_eigenvalue

SQRT3 = math.sqrt(3.0)


def uniform_env(profile):
    c = profile.C[0]
    l0 = profile.L0[0]
    return c, l0, profile.length


# ------------------------------------------------------------------ eigenmodes

def test_uniform_line_frequencies(uniform_profile):
    c, l0, length = uniform_env(uniform_profile)
    modes = solve_modes(uniform_profile, 5)
    for n, mode in enumerate(modes, start=1):
        exact = n * math.pi / (length * math.sqrt(l0 * c))
        assert mode.omega_n == pytest.approx(exact, rel=1e-3)
        assert mode.index == n
    freqs = [m.omega_n for m in modes]
    assert freqs == sorted(freqs)


def test_uniform_line_mode_shapes(uniform_profile):
    c, l0, length = uniform_env(uniform_profile)
    x = uniform_profile.x
    for n, mode in enumerate(solve_modes(uniform_profile, 3), start=1):
        exact = math.sqrt(2.0 / (l0 * length)) * np.sin(n * math.pi * x / length)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(mode.u - exact)) <= 1e-3 * scale


def test_boundary_and_normalization(uniform_profile):
    for mode in solve_modes(uniform_profile, 4):
        assert mode.u[0] == 0.0
        assert mode.u[-1] == 0.0
        assert mode.u[1] > 0.0
        norm = np.trapezoid(uniform_profile.L0 * mode.u**2, uniform_profile.x)
        assert norm == pytest.approx(1.0, abs=1e-9)


def test_orthonormality(uniform_profile):
    modes = solve_modes(uniform_profile, 6)
    x = uniform_profile.x
    for i, a in enumerate(modes):
        for j, b in enumerate(modes):
            overlap = np.trapezoid(uniform_profile.L0 * a.u * b.u, x)
            assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-6)


def test_resolution_guard():
    profile = make_uniform_profile(n_grid=40)
    solve_modes(profile, 10)
    with pytest.raises(ResolutionError):
        solve_modes(profile, 11)
    with pytest.raises(ValueError):
        solve_modes(profile, 0)
    solve_mode(profile, 10)
    with pytest.raises(ResolutionError):
        solve_mode(profile, 11)
    with pytest.raises(ValueError):
        solve_mode(profile, 0)


def wavy_profile(n_grid):
    """A non-uniform line: C and L0 vary by about +-20 % along it."""
    x = np.linspace(0.0, 1.0, n_grid)
    ones = np.ones(n_grid)
    return LineProfile(length=1.0, I_c=1.0, hbar=1.0,
                       C=1.0 + 0.2 * np.sin(3.0 * x) - 0.1 * np.cos(7.0 * x),
                       L0=1.0 + 0.15 * np.cos(5.0 * x), dL=0.1 * ones,
                       R0=0.05 * ones, dR=0.02 * ones)


def test_single_mode_matches_the_lowest_modes():
    """One path for every mode: solving mode k alone gives the same bits as
    solving the lowest four."""
    profile = wavy_profile(3000)
    modes = solve_modes(profile, 4)
    for index in range(1, 5):
        mode = solve_mode(profile, index)
        assert mode.index == index
        assert mode.omega_n == modes[index - 1].omega_n
        assert np.array_equal(mode.u, modes[index - 1].u)


@pytest.mark.parametrize("n_grid", [2000, 20000])
def test_uniform_line_matches_discrete_closed_form(n_grid):
    """On a uniform line the discrete modes are sines with
    lambda_k = 4 sin^2(k pi / (2 (n - 1))) / (C L0 h^2) and
    integral(u^4 dx) = 3 / (2 L0^2 l) for the normalized sine, so omega
    and the Kerr constant have closed forms to the last digit."""
    c, l0, dl = 0.9169554232903715, 1.1677296859513235, 0.19
    profile = make_uniform_profile(n_grid=n_grid, length=0.9190608207836183,
                                   c=c, l0=l0, dl=dl)
    h = profile.x[1] - profile.x[0]
    for index in (1, 2, 3):
        s = math.sin(index * math.pi / (2 * (n_grid - 1)))
        omega = 2.0 * s / (h * math.sqrt(c * l0))
        kerr = -omega**2 * 3.0 * dl / (2.0 * l0**2 * h * (n_grid - 1))
        mode = solve_mode(profile, index)
        assert mode.omega_n == pytest.approx(omega, rel=1e-14, abs=0.0)
        assert mode_coefficients(profile, mode).kerr \
            == pytest.approx(kerr, rel=1e-15, abs=0.0)


def test_nonuniform_frequencies_match_mpmath_oracle():
    """On a 160-point non-uniform line omega_k agrees with the eigenvalue
    of the same difference pencil found by 40-digit Sturm bisection."""
    profile = wavy_profile(160)
    for index in (1, 2, 3, 7):
        exact = math.sqrt(line_eigenvalue(profile, index))
        assert solve_mode(profile, index).omega_n \
            == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_high_modes_of_a_wide_bracket():
    """C and L0 varying by factors of 10 and 9 give a bracket holding
    dozens of modes; mode 60 is still isolated and matches the oracle."""
    x = np.linspace(0.0, 1.0, 400)
    profile = LineProfile(length=1.0, I_c=1.0, hbar=1.0,
                          C=1.0 + 9.0 * np.sin(7.0 * x) ** 2,
                          L0=1.0 + 0.8 * np.cos(5.0 * x),
                          dL=np.zeros(400), R0=np.zeros(400), dR=np.zeros(400))
    mode = solve_mode(profile, 60)
    exact = math.sqrt(line_eigenvalue(profile, 60))
    assert mode.omega_n == pytest.approx(exact, rel=1e-14, abs=0.0)
    assert np.count_nonzero(np.diff(np.sign(mode.u[1:-1]))) == 59


def wide_span_profile(rng, n_grid):
    """C and L0 each spanning up to 1e8, as a geometric ramp (either way)
    or as independent log-uniform samples."""
    arrays = {}
    for key in ("C", "L0"):
        span = 10.0 ** rng.uniform(0.0, 8.0)
        if rng.random() < 0.5:
            arrays[key] = np.geomspace(1.0, span, n_grid)[::rng.choice((-1, 1))]
        else:
            arrays[key] = span ** rng.random(n_grid)
    return LineProfile(length=1.0, I_c=1.0, hbar=1.0, **arrays,
                       dL=np.full(n_grid, 0.1), R0=np.full(n_grid, 0.05),
                       dR=np.full(n_grid, 0.02))


@pytest.mark.parametrize("seed", range(6))
def test_wide_span_modes_match_mpmath_oracle(seed):
    """Grids of 16-400 points whose C and L0 span up to 1e8: every mode is
    solved, omega_k is the 40-digit oracle's to 1e-14, and the vector
    changes sign k - 1 times.  Such modes are localised, their shift
    brackets wide, and Rayleigh iteration from the sine often settles on a
    neighbour before the bracket is halved."""
    rng = np.random.default_rng([28, seed])
    n_grid = int(rng.integers(16, 401))
    profile = wide_span_profile(rng, n_grid)
    for index in sorted({1, 2, int(rng.integers(3, n_grid // 4 + 1))}):
        mode = solve_mode(profile, index)
        exact = math.sqrt(line_eigenvalue(profile, index))
        assert mode.omega_n == pytest.approx(exact, rel=1e-14, abs=0.0)
        assert stripline._sign_changes(mode.u) == index - 1


def test_uncertified_vector_is_arithmetic_error(monkeypatch):
    """A vector whose node count never certifies it is never returned: the
    bracket is halved until no float splits it, then ArithmeticError."""
    profile = wavy_profile(64)
    solve_mode(profile, 3)
    monkeypatch.setattr(stripline, "_sign_changes", lambda v: -1)
    with pytest.raises(ArithmeticError, match="no certified vector"):
        solve_mode(profile, 3)


def test_singular_solve_returns_the_null_vector():
    """A zero final pivot leaves the matrix singular to working precision:
    the solve returns its null vector, the limit of inverse iteration, for
    any right-hand side."""
    a, b = np.array([1.0, 1.0]), np.array([-1.0])
    for f in (np.array([1.0, 0.0]), np.array([0.3, -2.0])):
        x = stripline._solve(a, b, f)
        assert x.tolist() == [1.0, 1.0]
        assert (a * x + np.r_[b * x[1:], 0.0] + np.r_[0.0, b * x[:-1]]
                ).tolist() == [0.0, 0.0]


def random_tridiagonals(seed, count):
    """Seeded symmetric tridiagonals (a, b) of 1-80 unknowns with normal
    entries, every fifth with one zero off-diagonal."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 81))
        a, b = rng.normal(size=n), rng.normal(size=n - 1)
        if k % 5 == 0 and n > 2:
            b[rng.integers(0, n - 1)] = 0.0
        yield rng, a, b


@pytest.mark.filterwarnings("error")
def test_inertia_matches_dense_eigenvalues():
    """The negative pivots of the odd-even reduction count the eigenvalues
    below the shift, as numpy.linalg.eigvalsh does: at random shifts, at
    shifts 1e-9 relative from each eigenvalue, at every diagonal entry
    (exact zero pivots) and on matrices with a zero off-diagonal.  A count
    may fall either way only for an eigenvalue within 64 eps ||T|| of the
    shift.  All shifts of a matrix are counted in one batch, which agrees
    with counting them one at a time."""
    for rng, a, b in random_tridiagonals(7, 400):
        dense = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
        eigs = np.linalg.eigvalsh(dense)
        tol = 64.0 * np.finfo(float).eps * np.abs(dense).sum(axis=1).max()
        shifts = np.concatenate([rng.normal(size=4), eigs * (1.0 + 1e-9),
                                 eigs * (1.0 - 1e-9), a])
        counts = stripline._below(a - shifts[:, None], b)
        for s, count in zip(shifts, counts):
            assert np.count_nonzero(eigs < s - tol) <= count \
                <= np.count_nonzero(eigs <= s + tol), (a, b, s)
        assert [stripline._below(a - s, b) for s in shifts[:3]] \
            == counts[:3].tolist()


def test_second_order_convergence():
    exact = math.pi  # mode 1 of the unit uniform line
    errors = []
    for n_grid in (500, 1000):
        profile = make_uniform_profile(n_grid=n_grid)
        errors.append(abs(solve_modes(profile, 1)[0].omega_n - exact))
    ratio = errors[0] / errors[1]
    assert 3.4 <= ratio <= 4.6


def test_nonuniform_spectrum_is_distinct():
    n = 1200
    x = np.linspace(0.0, 1.0, n)
    profile = LineProfile(
        length=1.0, I_c=1.0, hbar=1.0,
        C=1.0 + 0.35 * np.sin(math.pi * x),
        L0=1.0 + 0.25 * np.cos(2.0 * math.pi * x),
        dL=np.full(n, 0.05), R0=np.zeros(n), dR=np.zeros(n))
    modes = solve_modes(profile, 8)
    freqs = [m.omega_n for m in modes]
    gaps = [b - a for a, b in zip(freqs, freqs[1:])]
    assert all(g > 1e-6 * freqs[0] for g in gaps)


# ------------------------------------------------------------------ quadratures

def test_kerr_constant_uniform_oracle(uniform_profile):
    c, l0, length = uniform_env(uniform_profile)
    dl = uniform_profile.dL[0]
    mode = solve_modes(uniform_profile, 1)[0]
    got = mode_coefficients(uniform_profile, mode).kerr
    exact_omega = math.pi / (length * math.sqrt(l0 * c))
    expected = -3.0 * uniform_profile.hbar * exact_omega**2 * dl \
        / (2.0 * uniform_profile.I_c**2 * l0**2 * length)
    assert got == pytest.approx(expected, rel=5e-3)
    assert got < 0.0


def test_kerr_zero_without_nonlinearity():
    profile = make_uniform_profile(n_grid=400, dl=0.0)
    mode = solve_modes(profile, 1)[0]
    assert mode_coefficients(profile, mode).kerr == 0.0


def test_cross_kerr_uniform_oracle(uniform_profile):
    c, l0, length = uniform_env(uniform_profile)
    dl = uniform_profile.dL[0]
    modes = solve_modes(uniform_profile, 2)
    got = cross_kerr(uniform_profile, modes[0], modes[1])
    w1 = math.pi / (length * math.sqrt(l0 * c))
    w2 = 2.0 * w1
    expected = -3.0 * uniform_profile.hbar * w1 * w2 * dl \
        / (uniform_profile.I_c**2 * l0**2 * length)
    assert got == pytest.approx(expected, rel=5e-3)
    assert cross_kerr(uniform_profile, modes[1], modes[0]) \
        == pytest.approx(got, rel=1e-12)


def test_cross_kerr_rejects_same_mode(uniform_profile):
    mode = solve_modes(uniform_profile, 1)[0]
    with pytest.raises(SameModeError):
        cross_kerr(uniform_profile, mode, mode)


def test_gamma2_uniform_oracle(uniform_profile):
    r0 = uniform_profile.R0[0]
    l0 = uniform_profile.L0[0]
    mode = solve_modes(uniform_profile, 1)[0]
    got = mode_coefficients(uniform_profile, mode).gamma2
    assert got == pytest.approx(r0 / (2.0 * l0), rel=5e-3)


def test_gamma2_linearity():
    base = make_uniform_profile(n_grid=600)
    doubled = make_uniform_profile(n_grid=600, r0=2 * base.R0[0])
    mode = solve_modes(base, 1)[0]
    assert mode_coefficients(doubled, mode).gamma2 \
        == pytest.approx(2.0 * mode_coefficients(base, mode).gamma2,
                         rel=1e-12)
    none = make_uniform_profile(n_grid=600, r0=0.0)
    assert mode_coefficients(none, mode).gamma2 == 0.0


def test_gamma3_uniform_oracle(uniform_profile):
    c, l0, length = uniform_env(uniform_profile)
    dr = uniform_profile.dR[0]
    mode = solve_modes(uniform_profile, 1)[0]
    got = mode_coefficients(uniform_profile, mode).gamma3
    exact_omega = math.pi / (length * math.sqrt(l0 * c))
    expected = 9.0 * uniform_profile.hbar * exact_omega * dr \
        / (16.0 * uniform_profile.I_c**2 * l0**2 * length)
    assert got == pytest.approx(expected, rel=5e-3)
    zero = make_uniform_profile(dr=0.0)
    assert mode_coefficients(zero, mode).gamma3 == 0.0


def test_loss_to_kerr_ratio(uniform_profile):
    """For a uniform line gamma3/|K| reduces to 3 dR / (8 omega dL)."""
    mode = solve_modes(uniform_profile, 1)[0]
    coeffs = mode_coefficients(uniform_profile, mode)
    ratio = coeffs.gamma3 / abs(coeffs.kerr)
    expected = 3.0 * uniform_profile.dR[0] \
        / (8.0 * mode.omega_n * uniform_profile.dL[0])
    assert ratio == pytest.approx(expected, rel=1e-9)


def test_outputs_invariant_under_mode_sign_flip(uniform_profile):
    modes = solve_modes(uniform_profile, 2)
    flipped = ModeSolution(index=modes[0].index, omega_n=modes[0].omega_n,
                           u=-modes[0].u)
    got = mode_coefficients(uniform_profile, flipped)
    want = mode_coefficients(uniform_profile, modes[0])
    for name in ("kerr", "gamma2", "gamma3"):
        assert getattr(got, name) == pytest.approx(getattr(want, name),
                                                   rel=1e-12)
    assert cross_kerr(uniform_profile, flipped, modes[1]) \
        == pytest.approx(cross_kerr(uniform_profile, modes[0], modes[1]),
                         rel=1e-12)


# --------------------------------------------------------------- derive_device

def test_derive_device_uniform_ratio_fixture():
    """Choose dR so the derived loss-to-Kerr ratio hits a preset target."""
    target_ratio = 0.01 / SQRT3
    base = make_uniform_profile(n_grid=1000, dr=0.0)
    omega1 = solve_modes(base, 1)[0].omega_n
    dr = target_ratio * 8.0 * omega1 * base.dL[0] / 3.0
    profile = make_uniform_profile(n_grid=1000, dr=dr)
    device = derive_device(profile, 1, gamma1=0.01)
    assert device.gamma3 / abs(device.kerr) == pytest.approx(target_ratio,
                                                             rel=1e-9)
    assert device.omega0 == pytest.approx(omega1)
    assert device.gamma1 == 0.01
    assert device.phi1 == device.phi2 == device.phi3 == 0.0


def test_derive_device_linear_line():
    profile = make_uniform_profile(n_grid=400, dl=0.0, dr=0.0)
    device = derive_device(profile, 1, gamma1=0.005)
    assert device.kerr == 0.0
    assert device.gamma3 == 0.0
    assert device.gamma2 > 0.0


def test_derive_device_grid_refinement():
    coarse = derive_device(make_uniform_profile(n_grid=1000), 1, gamma1=0.01)
    fine = derive_device(make_uniform_profile(n_grid=2000), 1, gamma1=0.01)
    for name in ("omega0", "kerr", "gamma2", "gamma3"):
        a = getattr(coarse, name)
        b = getattr(fine, name)
        assert abs(a - b) <= 1e-3 * abs(b)


# -------------------------------------------------------------------- profiles

def test_profile_validation():
    with pytest.raises(ValueError):
        make_uniform_profile(n_grid=8)
    with pytest.raises(ValueError):
        make_uniform_profile(length=-1.0)
    with pytest.raises(ValueError):
        make_uniform_profile(c=0.0)
    with pytest.raises(ValueError):
        make_uniform_profile(i_c=0.0)
    bad = dict(length=1.0, I_c=1.0, hbar=1.0, C=np.ones(32), L0=np.ones(32),
               dL=np.ones(32), R0=np.ones(32), dR=np.ones(31))
    with pytest.raises(ValueError):
        LineProfile(**bad)


@pytest.mark.parametrize("key, value, message", [
    ("C", np.r_[np.ones(31), np.inf], "profile array 'C' must be finite"),
    ("dR", np.r_[np.nan, np.ones(31)], "profile array 'dR' must be finite"),
    ("length", math.inf, "length must be finite, got inf"),
    ("hbar", math.nan, "hbar must be finite, got nan"),
])
def test_profile_built_in_python_rejects_non_finite_values(key, value,
                                                           message):
    """A LineProfile built in Python checks every array and scalar for
    finite values itself, as the file loader does."""
    fields = dict(length=1.0, I_c=1.0, hbar=1.0, C=np.ones(32),
                  L0=np.ones(32), dL=np.ones(32), R0=np.ones(32),
                  dR=np.ones(32))
    fields[key] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        LineProfile(**fields)


def test_profile_file_round_trip(tmp_path, uniform_profile):
    payload = {
        "l": uniform_profile.length,
        "I_c": uniform_profile.I_c,
        "hbar": uniform_profile.hbar,
        "grid": uniform_profile.n_grid,
        "C": uniform_profile.C.tolist(),
        "L0": uniform_profile.L0.tolist(),
        "dL": uniform_profile.dL.tolist(),
        "R0": uniform_profile.R0.tolist(),
        "dR": uniform_profile.dR.tolist(),
    }
    path = tmp_path / "line.json"
    path.write_text(json.dumps(payload))
    loaded = load_profile(path)
    assert loaded.length == uniform_profile.length
    assert np.array_equal(loaded.C, uniform_profile.C)

    payload["dR"] = payload["dR"][:-1]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="dR"):
        load_profile(path)

    del payload["L0"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="L0"):
        load_profile(path)


def test_profile_file_rejects_wrong_types(tmp_path):
    good = {"l": 1.0, "I_c": 1.0, "hbar": 1.0, "grid": 32,
            **{k: [1.0] * 32 for k in ("C", "L0", "dL", "R0", "dR")}}
    path = tmp_path / "line.json"
    for change, field in (({"C": 5}, "C"), ({"grid": 32.5}, "grid"),
                          ({"grid": "32"}, "grid"), ({"l": None}, "line.json")):
        path.write_text(json.dumps({**good, **change}))
        with pytest.raises(ValueError, match=field):
            load_profile(path)


# ------------------------------------------------------------ profile decoding

def hard_numbers(seed, count):
    """JSON numbers that are hard to round, from a seeded generator: reprs
    of random finite doubles (a fifth of them subnormal), exact halfway
    points between neighbouring doubles, and mantissas of 20-40 digits
    written as integers, as decimals and with exponents."""
    rng = random.Random(seed)
    wide = decimal.Context(prec=1000)
    numbers = []
    while len(numbers) < count:
        bits = rng.getrandbits(64)
        if rng.random() < 0.2:
            bits &= 0x800F_FFFF_FFFF_FFFF
        x = struct.unpack("<d", struct.pack("<Q", bits))[0]
        if math.isfinite(x):
            numbers.append(repr(x))
        if rng.random() < 0.02:  # halfway between subnormals
            x = rng.randrange(1, 2**52) * 5e-324
        else:
            x = math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-80, 80))
        x = math.copysign(x, rng.choice((-1.0, 1.0)))
        halfway = wide.divide(wide.add(decimal.Decimal(x), decimal.Decimal(
            math.nextafter(x, math.inf))), 2)
        numbers.append(str(halfway))
        digits = "".join(rng.choices("0123456789", k=rng.randint(20, 40)))
        digits = rng.choice("123456789") + digits[1:]
        point = rng.randint(1, len(digits) - 1)
        numbers.append(rng.choice((
            digits, f"{digits[:point]}.{digits[point:]}", f"0.{digits}",
            f"{digits[0]}.{digits[1:]}e{rng.randint(-320, 280)}",
            f"-{digits}E+{rng.randint(0, 250)}")))
    return numbers[:count]


def as_bits(values):
    return np.array(values, dtype=float).view(np.uint64)


def test_orjson_decodes_hard_numbers_to_the_stdlib_bits():
    """orjson and json read every hard number to the same double (json
    reads an integer literal as an int, which float() rounds once)."""
    import orjson

    document = "[" + ",".join(hard_numbers(16, 30_000)) + "]"
    expected = json.loads(document)
    assert any(isinstance(v, int) and abs(v) > 2**64 for v in expected)
    assert np.array_equal(as_bits(orjson.loads(document.encode())),
                          as_bits(expected))


def test_load_profile_matches_the_stdlib_decoder(tmp_path):
    """Every array and number of a profile of hard numbers loads to the
    bits that json and float() give."""
    import orjson

    cells = [s.lstrip("-") for s in hard_numbers(17, 6_000)]
    cells = [s for s in cells if 0.0 < float(s) < math.inf][:5 * 1000 + 3]
    keys = ("C", "L0", "dL", "R0", "dR")
    text = ("{" + ", ".join(f'"{key}": [{",".join(cells[i::5][:1000])}]'
                            for i, key in enumerate(keys))
            + f', "l": {cells[-3]}, "I_c": {cells[-2]}, "hbar": {cells[-1]}'
            ', "grid": 1000}')
    orjson.loads(text.encode())  # so load_profile does not fall back to json
    path = tmp_path / "hard.json"
    path.write_text(text)
    loaded, expected = load_profile(path), json.loads(text)
    for key in keys:
        assert np.array_equal(getattr(loaded, key).view(np.uint64),
                              as_bits(expected[key])), key
    assert as_bits([loaded.length, loaded.I_c, loaded.hbar]).tolist() == \
        as_bits([expected["l"], expected["I_c"], expected["hbar"]]).tolist()


def test_profile_integers_load_to_the_stdlib_bits(tmp_path):
    """Integer cells at 2^53 + 1, 2^63, 2^64 - 1, past 2^64 and below -2^63
    load to the float64 bits of np.array(json.loads(...), dtype=float)."""
    import orjson

    n = 32
    cells = [2**53 + 1, 2**63, 2**64 - 1, 2**64 + 1, -(2**63) - 1, -0, 7, -7]
    payload = {"l": 1.0, "I_c": 1.0, "hbar": 1.0, "grid": n,
               **{k: [1.0] * n for k in ("C", "L0", "R0", "dR")},
               "dL": cells * (n // len(cells))}
    text = json.dumps(payload)
    orjson.loads(text.encode())  # so load_profile does not fall back to json
    path = tmp_path / "line.json"
    path.write_text(text)
    expected = np.array(json.loads(text)["dL"], dtype=float)
    assert expected[0] == 2.0**53 and expected[2] == 2.0**64
    assert read_json(path, "profile", ("dL",))["dL"].dtype == np.float64
    assert np.array_equal(load_profile(path).dL.view(np.uint64),
                          expected.view(np.uint64))


@pytest.mark.parametrize("text", [
    '{"C": 1, "L0": [2], "C": [3]}',       # a repeated key moves an array
    '{"C": [1], "L0": [2], "C": [3]}',
    '{"x": "[1, 2]", "C": [3]}',           # an array's text in a string
    '{"x": "a[", "C": [3], "y": "]"}',
    '{"a[b": [1], "c": "]"}',
    '{"o": {"C": [1]}, "C": [2]}',         # an array in a nested object
    '{"C": [1, [2]], "L0": [3]}',          # a nested array
    '{"C": [], "L0": [ 1 ,\n2.5e-3 ] , "dL" :[-0.0]}',
    '{"C": [1, "x", true, null], "k": "\\"["}',
    '[[1], [2]]', '[1, 2]', '"[1]"', '{}', '{"C": [1e400]}',
])
def test_decode_matches_json_on_any_layout(tmp_path, text):
    """Whatever arrays a document holds and wherever they sit, the profile
    decoder returns what json.loads does, key order included."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    # a float key turns on the array-by-array pass; no document here holds
    # "dR", so every value stays what json gives
    decoded = read_json(path, "profile", ("dR",))
    expected = json.loads(text)
    assert json.dumps(decoded) == json.dumps(expected)
    if isinstance(expected, dict):
        assert list(decoded) == list(expected)


@pytest.mark.parametrize("text", [
    '{"fit": {"refl_data": [[0.95, 0.1, 0.5], [0.96, 0.1, 0.4]]}}',
    '{"C": [1, [2]], "L0": [3]}',
    '[[1], [2]]',
])
def test_nested_arrays_skip_the_array_by_array_path(tmp_path, text):
    """A '[' inside an array, as in a fit file's rows, ends the array by
    array decoding before it decodes anything, and the file reads as
    json.load reads it."""
    import orjson

    decoded = []

    class Counted:
        JSONDecodeError = orjson.JSONDecodeError

        @staticmethod
        def loads(data):
            decoded.append(data)
            return orjson.loads(data)

    assert jsonfile._flat_arrays(Counted, text.encode(), ()) is None
    assert decoded == []
    path = tmp_path / "doc.json"
    path.write_text(text)
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert json.dumps(read_json(path, "config")) == json.dumps(expected)

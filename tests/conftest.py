import math

import hypothesis
import numpy as np
import pytest

import kerrcav.cli
from kerrcav import DeviceParams, LineProfile
from oracles import reference_render

SQRT3 = math.sqrt(3.0)

# Hypothesis draws some examples from a pool of constants, and fills it with
# the literals of every loaded local module, which here are those of
# src/kerrcav (paths with a "tests" part are skipped).  An edit that adds or
# removes a literal there would change the examples of every derandomized
# test, so the pool is pinned to these literals of src/kerrcav as they stood
# when the tests were written.  Only the strings up to 6 characters are
# kept, the longest any text strategy here draws; no test draws bytes.
POOL_INTEGERS = (-294, 101, 127, 326, 1000, 1024, 100000)
POOL_FLOATS = (
    -4.0, -3.0, -2.0, -1.0, 0.0, 2.2250738585072014e-308, 1e-20, 1e-14,
    1e-09, 1e-05, 0.001, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 134217729.0,
    1e+16, 1e+17, 1.7976931348623157e+308)
POOL_STRINGS = (
    "\x00", "\x00-", "\n]}\n", "$", "%.16e", ",", "--out", "-inf", ".", "0",
    "0.1.0", "; ", "B", "C", "E", "E_c", "G_I", "G_S", "I_c", "L0", "R0",
    "Table", "U", "b", "b1_in", "b1c_in", "bounds", "branch", "conj", "count",
    "csv", "dL", "dR", "device", "drive", "env", "exists", "f", "false",
    "fit", "fixed", "free", "gamma1", "gamma2", "gamma3", "grid", "hbar", "i",
    "ignore", "inf", "jac", "json", "kerr", "l", "length", "loss", "nan",
    "nf", "omega", "omega0", "p_max0", "p_min0", "phi1", "phi2", "phi3",
    "phi_B", "psi1", "r", "rb", "refl", "render", "rows", "schema", "signal",
    "stable", "start", "stop", "theta1", "theta2", "theta3", "to_csv", "tpl",
    "trf", "true", "u", "utf-8", "v", "w", "{:02d}", "{:04d}")


def pinned_constants():
    """The pool above, built as Hypothesis builds its own."""
    from hypothesis.internal.constants_ast import Constants
    from hypothesis.internal.floats import float_to_int
    from sortedcontainers import SortedSet

    return Constants(integers=SortedSet(POOL_INTEGERS),
                     floats=SortedSet(POOL_FLOATS, key=float_to_int),
                     bytes=SortedSet(), strings=SortedSet(POOL_STRINGS))


# Hypothesis's own pool hook, kept so a test can show what the pin prevents
UNPINNED_HOOK = []


def pytest_configure(config):
    try:
        from hypothesis.internal.conjecture import providers
        hook = providers._get_local_constants
        cache = providers.CONSTANTS_CACHE
    except (ImportError, AttributeError) as error:
        raise pytest.UsageError(
            f"Hypothesis {hypothesis.__version__} has no local-constant "
            f"pool hook to pin ({error}); the derandomized tests' draws "
            f"would follow every literal of src/kerrcav") from None
    pool = pinned_constants()
    UNPINNED_HOOK[:] = [hook]
    providers._get_local_constants = lambda: pool
    cache.cache.clear()
    config.add_cleanup(lambda: setattr(providers, "_get_local_constants",
                                       hook))


@pytest.fixture(autouse=True, scope="session")
def cli_tables_match_reference():
    """Every table a test emits through the CLI (to a file or to standard
    output) is also rendered by the row-wise reference renderer, and the
    two must agree byte for byte."""
    render_blocks = kerrcav.cli.render_blocks

    def checked(table, fmt):
        blocks = render_blocks(table, fmt)
        assert b"".join(blocks) == reference_render(table, fmt).encode()
        return blocks

    kerrcav.cli.render_blocks = checked
    yield
    kerrcav.cli.render_blocks = render_blocks


@pytest.fixture
def fig_device() -> DeviceParams:
    """Workhorse softening-Kerr device in omega0 = 1 units.

    gamma3 is tied to the Kerr constant so two-photon loss is present but
    the bistability condition |K| > sqrt(3)*gamma3 holds comfortably.
    """
    kerr = -1e-4
    return DeviceParams(omega0=1.0, kerr=kerr, gamma1=0.01, gamma2=0.011,
                        gamma3=0.01 * abs(kerr) / SQRT3)


@pytest.fixture
def lossless_device() -> DeviceParams:
    """Strong-Kerr single-port device (no internal loss)."""
    return DeviceParams(omega0=1.0, kerr=5.0, gamma1=1e-4, gamma2=0.0,
                        gamma3=0.0)


def make_uniform_profile(n_grid=2000, length=1.0, c=1.0, l0=1.0,
                         dl=0.1, r0=0.05, dr=0.02, i_c=1.0, hbar=1.0):
    ones = np.ones(n_grid)
    return LineProfile(length=length, I_c=i_c, hbar=hbar,
                       C=c * ones, L0=l0 * ones, dL=dl * ones,
                       R0=r0 * ones, dR=dr * ones)


@pytest.fixture
def uniform_profile() -> LineProfile:
    return make_uniform_profile()


def float_bits(value):
    """A comparable key for the bits of a number or of a record of numbers:
    floats by their IEEE bits (so -0.0 differs from 0.0; every NaN counts
    as one), complex numbers part by part, sequences and dataclasses item
    by item; callables are skipped."""
    import dataclasses
    import struct

    if dataclasses.is_dataclass(value):
        return tuple(float_bits(getattr(value, f.name))
                     for f in dataclasses.fields(value)
                     if not callable(getattr(value, f.name)))
    if isinstance(value, (tuple, list)):
        return tuple(float_bits(v) for v in value)
    if isinstance(value, complex):
        return float_bits(value.real), float_bits(value.imag)
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return value

import math

import numpy as np
import pytest

import kerrcav.cli
from kerrcav import DeviceParams, LineProfile
from oracles import reference_render

SQRT3 = math.sqrt(3.0)


@pytest.fixture(autouse=True, scope="session")
def cli_tables_match_reference():
    """Every table a test emits through the CLI is also rendered by the
    row-wise reference renderer, and the two must agree byte for byte."""
    render = kerrcav.cli.render

    def checked(table, fmt):
        text = render(table, fmt)
        assert text == reference_render(table, fmt)
        return text

    kerrcav.cli.render = checked
    yield
    kerrcav.cli.render = render


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

import math

from kerrcav import DeviceParams, validate

SQRT3 = math.sqrt(3.0)


def test_fig_device_is_valid_and_bistable(fig_device):
    report = validate(fig_device)
    assert report.ok
    assert report.violations == ()
    assert report.bistability_reachable


def test_zero_total_damping_is_invalid():
    params = DeviceParams(omega0=1.0, kerr=-1e-4, gamma1=0.0, gamma2=0.0,
                          gamma3=0.0)
    report = validate(params)
    assert not report.ok
    assert any("gamma1 + gamma2" in v for v in report.violations)


def test_bistability_comparison_is_strict():
    kerr = -2e-4
    params = DeviceParams(omega0=1.0, kerr=kerr, gamma1=0.01, gamma2=0.0,
                          gamma3=abs(kerr) / SQRT3)
    report = validate(params)
    assert report.ok
    assert not report.bistability_reachable
    barely = DeviceParams(omega0=1.0, kerr=kerr * (1 + 1e-12), gamma1=0.01,
                          gamma2=0.0, gamma3=abs(kerr) / SQRT3)
    assert validate(barely).bistability_reachable


def test_negative_rates_and_frequency_flagged():
    params = DeviceParams(omega0=-1.0, kerr=0.0, gamma1=-0.1, gamma2=0.2,
                          gamma3=-1e-9)
    report = validate(params)
    assert "omega0 must be > 0" in report.violations
    assert "gamma1 must be >= 0" in report.violations
    assert "gamma3 must be >= 0" in report.violations


def test_validate_is_pure_and_idempotent(fig_device):
    assert validate(fig_device) == validate(fig_device)
    frozen = DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.0, gamma2=0.0,
                          gamma3=0.0)
    assert validate(frozen) == validate(frozen)


def test_zero_kerr_and_gamma3_are_allowed():
    params = DeviceParams(omega0=1.0, kerr=0.0, gamma1=0.01, gamma2=0.0,
                          gamma3=0.0)
    report = validate(params)
    assert report.ok
    assert not report.bistability_reachable


def test_gamma_property(fig_device):
    assert fig_device.gamma == fig_device.gamma1 + fig_device.gamma2


def test_non_finite_fields_flagged(fig_device):
    from dataclasses import fields, replace
    for field in fields(DeviceParams):
        for value in (math.nan, math.inf, -math.inf):
            report = validate(replace(fig_device, **{field.name: value}))
            assert f"{field.name} must be finite" in report.violations

"""Lumped-parameter model of a driven Kerr cavity with two-photon loss.

The cavity is a single resonator mode at ``omega0`` with a Kerr constant
``kerr`` (intensity-dependent frequency pull), coupled to three ports: the
input/output test port (rate ``gamma1``), a linear dissipation port
(``gamma2``) and a two-photon dissipation port (``gamma3``).  Each port
coupling carries a phase ``phi1..phi3``.  All rates and frequencies are
angular (rad/s); test fixtures conventionally set ``omega0 = 1`` so every
other rate reads as a fraction of the resonance frequency.
"""

import math
from dataclasses import dataclass, fields

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class DeviceParams:
    """Immutable device parameter set.

    Attributes
    ----------
    omega0 : float
        Resonance frequency (rad/s, > 0).
    kerr : float
        Kerr constant (rad/s, signed; negative for a softening pull).
    gamma1 : float
        Input-port coupling rate (rad/s, >= 0).
    gamma2 : float
        Linear internal loss rate (rad/s, >= 0).
    gamma3 : float
        Two-photon loss rate (rad/s, >= 0).
    phi1, phi2, phi3 : float
        Port coupling phases (rad).  Observable magnitudes do not depend
        on them; they default to 0.
    """

    omega0: float
    kerr: float
    gamma1: float
    gamma2: float
    gamma3: float
    phi1: float = 0.0
    phi2: float = 0.0
    phi3: float = 0.0

    @property
    def gamma(self) -> float:
        """Total linear damping rate gamma1 + gamma2."""
        return self.gamma1 + self.gamma2


_FIELDS = tuple(f.name for f in fields(DeviceParams))


@dataclass(frozen=True)
class PumpDrive:
    """Incoming pump tone at the test port.

    ``amplitude`` is the real, nonnegative pump amplitude in sqrt(photon
    flux) units; ``phase`` its phase (rad).
    """

    omega_p: float
    amplitude: float
    phase: float = 0.0

    def detuning(self, params: DeviceParams) -> float:
        """Return omega0 - omega_p for the given device."""
        return params.omega0 - self.omega_p


@dataclass(frozen=True)
class DeviceValidation:
    """Result of :func:`validate`: violated invariants plus derived flags."""

    violations: tuple[str, ...]
    bistability_reachable: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(params: DeviceParams) -> DeviceValidation:
    """Check the device invariants and whether bistability is reachable.

    Returns a report rather than raising: ``violations`` lists every broken
    invariant (empty means valid); every field must be finite.
    ``bistability_reachable`` is True iff |kerr| > sqrt(3) * gamma3 with a
    strict comparison; at exact equality the response curve has no
    critical point and the flag is False.  Pure function: equal inputs give
    equal reports.
    """
    violations = [f"{name} must be finite" for name in _FIELDS
                  if not math.isfinite(getattr(params, name))]
    if not params.omega0 > 0.0:
        violations.append("omega0 must be > 0")
    violations += [f"{name} must be >= 0"
                   for name in ("gamma1", "gamma2", "gamma3")
                   if getattr(params, name) < 0.0]
    if not params.gamma > 0.0:
        violations.append("gamma1 + gamma2 must be > 0 (zero total damping)")
    reachable = abs(params.kerr) > SQRT3 * params.gamma3
    return DeviceValidation(tuple(violations), reachable)

"""Reference computations the benchmark checks kerrcav's outputs against.

Nothing here imports kerrcav.  Every quantity is rebuilt from the model as
the package README states it: the photon-number cubic of the pump balance,
energy balance of the reflected pump, the linearized 2x2 response solved as
a linear system, and the closed forms of a uniform transmission line.
Device parameters are plain mappings with the README's keys.
"""

import math

import numpy as np


def cubic(dev, omega_p, b_in):
    """Coefficients (c3, c2, c1, c0) of the photon-number cubic.

    (K^2 + g3^2) E^3 + 2 (delta K + gamma g3) E^2 + (delta^2 + gamma^2) E
    - 2 gamma1 b_in^2 = 0 with delta = omega0 - omega_p; works on arrays.
    """
    k, g3 = dev["kerr"], dev["gamma3"]
    g = dev["gamma1"] + dev["gamma2"]
    delta = dev["omega0"] - np.asarray(omega_p, dtype=float)
    b_in = np.asarray(b_in, dtype=float)
    c3 = k * k + g3 * g3
    c2 = 2.0 * (delta * k + g * g3)
    c1 = delta * delta + g * g
    c0 = -2.0 * dev["gamma1"] * b_in * b_in
    return c3, c2, c1, c0


def cubic_residuals(dev, omega_p, b_in, energy):
    """|c(E)|, |E c'(E)| and |E^2 c''(E)|, each over its sum of |terms|."""
    c3, c2, c1, c0 = cubic(dev, omega_p, b_in)
    e = np.asarray(energy, dtype=float)
    t3, t2, t1 = c3 * e**3, c2 * e**2, c1 * e
    value = np.abs(t3 + t2 + t1 + c0) / (np.abs(t3) + np.abs(t2) + np.abs(t1)
                                         + np.abs(c0))
    slope = np.abs(3.0 * t3 + 2.0 * t2 + t1) / (
        3.0 * np.abs(t3) + 2.0 * np.abs(t2) + np.abs(t1))
    curve = np.abs(6.0 * t3 + 2.0 * t2) / (6.0 * np.abs(t3) + 2.0 * np.abs(t2))
    return value, slope, curve


def reflection_from_energy(dev, b_in, energy):
    """|reflection| from energy balance: 1 - 2 (g2 E + g3 E^2) / b_in^2."""
    e = np.asarray(energy, dtype=float)
    lost = 2.0 * (dev["gamma2"] * e + dev["gamma3"] * e * e)
    return np.sqrt(1.0 - lost / (np.asarray(b_in, dtype=float) ** 2))


def settled_energy(dev, omega_p, b_in):
    """Photon number of the lowest-energy stable branch, from numpy.roots.

    A branch is stable where the cubic rises through it (c'(E) > 0), which
    is the sign of the slow relaxation root.  Roots are polished with two
    Newton steps on the cubic.
    """
    c3, c2, c1, c0 = (float(c) for c in cubic(dev, omega_p, b_in))
    candidates = []
    for root in np.roots([c3, c2, c1, c0]):
        if abs(root.imag) > 1e-9 * abs(root):
            continue
        e = root.real
        for _ in range(2):
            slope = (3.0 * c3 * e + 2.0 * c2) * e + c1
            if slope == 0.0:
                break
            e -= (((c3 * e + c2) * e + c1) * e + c0) / slope
        if e >= 0.0 and (3.0 * c3 * e + 2.0 * c2) * e + c1 > 0.0:
            candidates.append(e)
    return min(candidates)


def linear_gains(dev, omega_p, energy, omega):
    """Parametric and intermodulation power gains from a 2x2 linear solve.

    The fluctuation a at offset omega and its image a_dag at -omega obey
    [[-i w + s, v], [v*, -i w + s*]] (a, a_dag) = sqrt(2 g1) (a_in, a_in_dag)
    with s = i delta + gamma + 2 (i K + g3) E and |v| = |i K + g3| E; the
    output is a_in - sqrt(2 g1) a.  Returns (G_S, G_I, |det| / gamma^2).
    """
    k, g3, g1 = dev["kerr"], dev["gamma3"], dev["gamma1"]
    g = g1 + dev["gamma2"]
    e = np.asarray(energy, dtype=float)
    omega = np.asarray(omega, dtype=float)
    s = 1j * (dev["omega0"] - np.asarray(omega_p, dtype=float)) + g \
        + 2.0 * (1j * k + g3) * e
    v = abs(1j * k + g3) * e
    n = e.size
    m = np.empty((n, 2, 2), dtype=complex)
    m[:, 0, 0] = -1j * omega + s
    m[:, 0, 1] = v
    m[:, 1, 0] = v
    m[:, 1, 1] = -1j * omega + np.conj(s)
    rhs = np.zeros((n, 2, 1), dtype=complex)
    rhs[:, 0, 0] = 1.0
    x = np.linalg.solve(m, rhs)[:, :, 0]
    gain_s = np.abs(1.0 - 2.0 * g1 * x[:, 0]) ** 2
    gain_i = np.abs(2.0 * g1 * x[:, 1]) ** 2
    return gain_s, gain_i, np.abs(np.linalg.det(m)) / g**2


def uniform_line(profile, mode):
    """Closed forms for mode n of a uniform line with fixed ends.

    u_n = sqrt(2 / (L0 l)) sin(n pi x / l) gives omega_n = n pi / (l
    sqrt(L0 C)), integral(u^4) = 3 / (2 L0^2 l) and integral(u^2) = 1 / L0.
    Returns (omega0, kerr, gamma2, gamma3).
    """
    length, hbar, i_c = profile["l"], profile["hbar"], profile["I_c"]
    c, l0 = profile["C"][0], profile["L0"][0]
    dl, r0, dr = profile["dL"][0], profile["R0"][0], profile["dR"][0]
    omega = mode * math.pi / (length * math.sqrt(l0 * c))
    quartic = 3.0 / (2.0 * l0 * l0 * length)
    kerr = -hbar * omega**2 / i_c**2 * dl * quartic
    gamma2 = 0.5 * r0 / l0
    gamma3 = 3.0 * hbar * omega / (8.0 * i_c**2) * dr * quartic
    return omega, kerr, gamma2, gamma3


def critical_drive(dev):
    """Critical drive amplitude, b_c^2 = 4 gamma^3 (K^2 + g3^2) /
    (3 sqrt(3) gamma1 (|K| - sqrt(3) g3)^3); used only to place inputs."""
    k, g3 = dev["kerr"], dev["gamma3"]
    g = dev["gamma1"] + dev["gamma2"]
    margin = abs(k) - math.sqrt(3.0) * g3
    return math.sqrt(4.0 * g**3 * (k * k + g3 * g3)
                     / (3.0 * math.sqrt(3.0) * dev["gamma1"] * margin**3))

"""Seeded inputs of the three benchmark workloads.

Every input file the program sees is made here from the workload's seed;
the same seed and size give byte-identical files.  Regenerate a set with

    python3 perfbench/inputs.py --workload fit-roundtrip --seed 7 --out DIR

which writes the files plus ``manifest.json`` (what each file is, and the
facts the checks need) into DIR.
"""

import argparse
import json
import math
import os

import numpy as np

import oracle

WORKLOADS = ("readme-sweeps", "fit-roundtrip", "device-design")

README_DEVICE = {"omega0": 1.0, "kerr": -1e-4, "gamma1": 0.01,
                 "gamma2": 0.011, "gamma3": 5.8e-7}
# design devices: the README device, strong two-photon loss (|K| only
# 1.7x above the sqrt(3)*gamma3 threshold) and a lossless weak-Kerr device
DESIGN_DEVICES = {
    "readme": README_DEVICE,
    "strong-g3": {"omega0": 1.0, "kerr": -3e-3, "gamma1": 0.01,
                  "gamma2": 0.011, "gamma3": 1e-3},
    "lossless": {"omega0": 1.0, "kerr": -1e-6, "gamma1": 0.01,
                 "gamma2": 0.0, "gamma3": 0.0},
}
FIT_TRUE = {"omega0": 1.0, "kerr": -1e-4, "gamma1": 0.01, "gamma2": 0.011,
            "gamma3": 3e-5}
# criterion-8 starting point, relative to the true device
FIT_START = {"omega0": 1.0 * (1.0 + 2e-4), "kerr": -1e-4 * 1.15,
             "gamma1": 0.01 * 0.9, "gamma2": 0.011 * 1.1,
             "gamma3": 3e-5 * 1.3}

# full-size and quick (self-check) input sizes
SIZES = {
    "full": {"omega_count": 2000, "fractions": 3000, "fit_points": 81,
             "grids": (2000, 10000), "ladder": 100, "pump_levels": 7,
             "offsets": 40},
    "quick": {"omega_count": 200, "fractions": 100, "fit_points": 41,
              "grids": (400, 1000), "ladder": 20, "pump_levels": 3,
              "offsets": 10},
}


def _write(out_dir, name, data):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def readme_sweeps(rng, size, out_dir):
    """README sweep config with a dense seeded pump_fractions list."""
    fractions = np.sort(rng.uniform(0.0, 0.999, size["fractions"]))
    config = {
        "schema": 1,
        "device": README_DEVICE,
        "drive": {"omega_p": {"start": 0.9, "stop": 1.005,
                              "count": size["omega_count"]},
                  "b1_in": [{"times_critical": 0.5},
                            {"times_critical": 2.0}],
                  "psi1": 0.0},
        "env": {"theta1": "inf", "theta2": 2.5, "theta3": "inf"},
        "offsets": [0.0, 1e-3],
        "pump_fractions": fractions.tolist(),
    }
    return {"sweep": [_write(out_dir, "sweep.json", config)],
            "device": README_DEVICE, "fractions": fractions.tolist()}


def fit_roundtrip(rng, size, out_dir):
    """Criterion-8 reflection data, clean, seeded 1 % noise and degenerate."""
    b_c = oracle.critical_drive(FIT_TRUE)
    omegas = np.linspace(0.95, 1.005, size["fit_points"])
    clean = []
    for amp in (0.4 * b_c, 0.9 * b_c):
        for w in omegas:
            energy = oracle.settled_energy(FIT_TRUE, w, amp)
            refl = float(oracle.reflection_from_energy(FIT_TRUE, amp, energy))
            clean.append([float(w), amp, refl])
    sets = {"clean": clean}
    for k in (1, 2):
        noise = rng.standard_normal(len(clean))
        sets[f"noisy-{k}"] = [[w, a, r * (1.0 + 0.01 * z)]
                              for (w, a, r), z in zip(clean, noise)]
    # every b1_in is zero: the reflection is undefined at every point
    sets["degenerate"] = [[w, 0.0, r] for w, _, r in clean]
    files = {}
    for name, rows in sets.items():
        config = {"schema": 1,
                  "fit": {"initial": FIT_START, "free": list(FIT_START),
                          "refl_data": rows}}
        files[name] = _write(out_dir, f"fit-{name}.json", config)
    return {"fit": list(files.values()), "fit_files": files,
            "fit_data": sets, "true": FIT_TRUE}


def _smooth(rng, x, length, base):
    """base * (1 + three random sinusoids of total amplitude <= 0.24)."""
    shape = np.ones_like(x)
    for k in (1, 2, 3):
        shape += rng.uniform(-0.08, 0.08) * np.sin(
            k * math.pi * x / length + rng.uniform(0.0, 2.0 * math.pi))
    return base * shape


def _profile(length, grid, arrays):
    return {"l": length, "I_c": 1.0, "hbar": 1.0, "grid": grid,
            **{k: np.asarray(v, dtype=float).tolist()
               for k, v in arrays.items()}}


def device_design(rng, size, out_dir):
    """Line profiles, device set, fold-locus ladder and spectrum grid."""
    n_uniform, n_smooth = size["grids"]
    bases = {"C": rng.uniform(0.5, 2.0), "L0": rng.uniform(0.5, 2.0),
             "dL": rng.uniform(0.05, 0.2), "R0": rng.uniform(0.01, 0.1),
             "dR": rng.uniform(0.005, 0.05)}
    length = rng.uniform(0.5, 2.0)
    uniform = _profile(length, n_uniform,
                       {k: np.full(n_uniform, v) for k, v in bases.items()})

    # one smooth profile drawn once and sampled on two grids (the second
    # twice as fine), plus a copy with the loss and Kerr terms scaled
    smooth_len = rng.uniform(0.5, 2.0)
    state = rng.bit_generator.state
    sampled = {}
    for grid in (n_smooth, 2 * n_smooth):
        rng.bit_generator.state = state
        x = np.linspace(0.0, smooth_len, grid)
        sampled[grid] = {k: _smooth(rng, x, smooth_len, v)
                         for k, v in bases.items()}
    scale = float(rng.uniform(1.5, 3.0))
    scaled = dict(sampled[n_smooth])
    for key in ("dL", "R0", "dR"):
        scaled[key] = scaled[key] * scale
    profiles = {
        "uniform": uniform,
        "smooth": _profile(smooth_len, n_smooth, sampled[n_smooth]),
        "smooth-fine": _profile(smooth_len, 2 * n_smooth,
                                sampled[2 * n_smooth]),
        "smooth-scaled": _profile(smooth_len, n_smooth, scaled),
    }
    files = {name: _write(out_dir, f"line-{name}.json", data)
             for name, data in profiles.items()}

    fractions = [0.0] + np.sort(
        rng.uniform(0.05, 0.999, size["pump_levels"])).tolist()
    offsets = {}
    for name, dev in DESIGN_DEVICES.items():
        gamma = dev["gamma1"] + dev["gamma2"]
        offsets[name] = [0.0] + np.sort(
            rng.uniform(-10.0, 10.0, size["offsets"]) * gamma).tolist()
    return {
        "profile": list(files.values()), "profile_files": files,
        "uniform": {k: uniform[k] for k in ("l", "I_c", "hbar")}
        | {k: [bases[k]] for k in bases},
        "scale": scale,
        "devices": DESIGN_DEVICES,
        "ladder": np.geomspace(1.02, 1000.0, size["ladder"]).tolist(),
        "subcritical": [0.1, 0.5, 0.9, 0.98],
        "fractions": fractions,
        "offsets": offsets,
    }


BUILDERS = dict(zip(WORKLOADS, (readme_sweeps, fit_roundtrip, device_design)))


def generate(workload, seed, out_dir, size="full"):
    """Write the workload's input files into out_dir; return the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    manifest = BUILDERS[workload](rng, SIZES[size], out_dir)
    manifest.update(workload=workload, seed=seed, size=size)
    _write(out_dir, "manifest.json", manifest)
    return manifest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()

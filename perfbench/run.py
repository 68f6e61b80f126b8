"""kerrcav benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root; kerrcav is imported from ``src/``.  Inputs
are generated from the seed into a scratch directory under
``.bench_build/`` and removed at exit.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  ``--self-check`` runs every workload for two rounds at
reduced size with every check on, and exits non-zero on any failure that
is not one of the known faults listed in workloads.KNOWN_FAULTS.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One caller and no extra threads: a BLAS thread pool would contend with
# the caller for the machine's two cores and make eigensolves erratic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
COLD_SPAWNS = 5


def import_kerrcav():
    """Import kerrcav from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "kerrcav", "__init__.py")):
        raise SystemExit(f"error: no kerrcav package under {SRC}")
    sys.path.insert(0, SRC)
    import kerrcav
    import kerrcav.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(kerrcav.__file__))) \
            != SRC:
        raise SystemExit(f"error: kerrcav imported from {kerrcav.__file__}")
    return kerrcav


def cold_starts(manifest_path, count):
    """Seconds (scaled to the reference speed) of fresh interpreters
    importing kerrcav.cli and parsing the inputs, plus the scipy module
    count the probe reports."""
    from refclock import RefClock

    clock = RefClock()
    env = dict(os.environ, PYTHONPATH=SRC)
    times, report = [], {}
    for _ in range(count):
        clock.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "cold.py"), manifest_path],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        end = time.perf_counter()
        clock.sample()
        times.append((end - start) * clock.scale(start, end))
        if proc.returncode != 0:
            raise SystemExit(f"error: cold-start probe failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.splitlines()[-1])
    return times, report


def measure(workload, seconds, tracer=None, min_rounds=1):
    """Whole rounds until ``seconds`` of wall time have passed."""
    rounds = []
    start = time.perf_counter()
    with workload.clock.running():
        while len(rounds) < min_rounds \
                or time.perf_counter() - start < seconds:
            rounds.append(workload.run_round(tracer))
    for rnd in rounds:
        rnd.finish()
    return rounds


def totals(rounds):
    failures = {}
    for rnd in rounds:
        for label, n in rnd.failures.items():
            failures[label] = failures.get(label, 0) + n
    return sum(r.attempted for r in rounds), failures


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(rounds, cold_s):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": metric(statistics.median(cold_s), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "round_s": metric(statistics.median(r.op_s for r in rounds), "s"),
    }


def rate(rounds, kind):
    seconds = sum(r.kind_s[kind] for r in rounds)
    items = sum(r.kind_items[kind] for r in rounds)
    return items / seconds if seconds else 0.0


def per_layer(tracer, traced, untraced, scipy_modules):
    """Per-layer metrics: spans and counts from the traced rounds, the
    per-command rates from the untraced ones, all per round."""
    n = len(traced)
    t = tracer
    rows = sum(r.rows_rendered for r in traced) / n
    render_s = t.total_ns["tableio.render"] / 1e9 / n
    fits = [s for r in untraced for s in r.fit_s]
    evals = sum(r.fit_evals for r in traced)
    gain_rows = sum(r.kind_items["gain-sweep"] for r in traced)
    extremum_ops = ("squeeze-sweep", "spectrum")
    extrema = t.calls_in(extremum_ops, "noise.lo_phase_extrema")
    overhead = (statistics.median(r.op_s for r in traced)
                - statistics.median(r.op_s for r in untraced))

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "cli.scipy_modules_loaded": (scipy_modules, "count"),
        "cli.steady_rows_per_s": (rate(untraced, "steady-sweep"), "rows/s"),
        "cli.gain_rows_per_s": (rate(untraced, "gain-sweep"), "rows/s"),
        "cli.squeeze_rows_per_s": (rate(untraced, "squeeze-sweep"), "rows/s"),
        "cli.fit_s": (statistics.median(fits) if fits else 0.0, "s"),
        "cli.line_derive_per_s": (rate(untraced, "line-derive"), "1/s"),
        "sweeps.load_config_file.ms":
            (t.per_call("sweeps.load_config_file", 1e6), "ms"),
        "sweeps.run_steady_sweep.self_s":
            (t.self_ns["sweeps.run_steady_sweep"] / 1e9 / n, "s"),
        "sweeps.run_gain_sweep.self_s":
            (t.self_ns["sweeps.run_gain_sweep"] / 1e9 / n, "s"),
        "tableio.render.s": (render_s, "s"),
        "tableio.us_per_row": (ratio(render_s * 1e6, rows), "us"),
        "tableio.bytes_out": (sum(r.bytes_out for r in traced) / n, "bytes"),
        "cubic.real_roots.calls": (t.calls["cubic.real_roots"] / n, "count"),
        "cubic.real_roots.us_per_call":
            (t.per_call("cubic.real_roots", 1e3), "us"),
        "cubic.self_s": (t.module_self_s("cubic") / n, "s"),
        "steady.steady_states.calls":
            (t.calls["steady.steady_states"] / n, "count"),
        "steady.steady_states.us_per_call":
            (t.per_call("steady.steady_states", 1e3), "us"),
        "steady.branches_per_call":
            (ratio(t.items["steady.steady_states"],
                   t.calls["steady.steady_states"]), "count"),
        "steady.self_s": (t.module_self_s("steady") / n, "s"),
        "smallsignal.transfer_coefficients.calls":
            (t.calls["smallsignal.transfer_coefficients"] / n, "count"),
        "smallsignal.transfer_coefficients.us_per_call":
            (t.per_call("smallsignal.transfer_coefficients", 1e3), "us"),
        "smallsignal.self_s": (t.module_self_s("smallsignal") / n, "s"),
        "smallsignal.tc_per_gain_row":
            (ratio(t.calls_in(("gain-sweep",),
                              "smallsignal.transfer_coefficients"),
                   gain_rows), "count"),
        "smallsignal.tc_per_extremum":
            (ratio(t.calls_in(extremum_ops,
                              "smallsignal.transfer_coefficients"),
                   extrema), "count"),
        "noise.lo_phase_extrema.calls":
            (t.calls["noise.lo_phase_extrema"] / n, "count"),
        "noise.lo_phase_extrema.us_per_call":
            (t.per_call("noise.lo_phase_extrema", 1e3), "us"),
        "noise.self_s": (t.module_self_s("noise") / n, "s"),
        "noise.spectrum_points_per_s": (rate(untraced, "spectrum"), "1/s"),
        "operating.instability_locus.calls":
            (t.calls["operating.instability_locus"] / n, "count"),
        "operating.instability_locus.ms_per_call":
            (t.per_call("operating.instability_locus", 1e6), "ms"),
        "operating.critical_point.calls":
            (t.calls["operating.critical_point"] / n, "count"),
        "operating.self_s": (t.module_self_s("operating") / n, "s"),
        "operating.locus_per_s": (rate(untraced, "locus"), "1/s"),
        "stripline.load_profile.ms":
            (t.per_call("stripline.load_profile", 1e6), "ms"),
        "stripline.solve_modes.ms_per_call":
            (t.per_call("stripline.solve_modes", 1e6), "ms"),
        "stripline.self_s": (t.module_self_s("stripline") / n, "s"),
        "fitting.predict_reflection.calls":
            (t.calls["fitting.predict_reflection"] / n, "count"),
        "fitting.predict_reflection.us_per_call":
            (t.per_call("fitting.predict_reflection", 1e3), "us"),
        "fitting.predict_per_eval":
            (ratio(t.calls_in(("fit",), "fitting.predict_reflection"), evals),
             "count"),
        "fitting.fit_evals": (evals / n, "count"),
        "fitting.self_s": (t.module_self_s("fitting") / n, "s"),
        "model.validate.calls": (t.calls["model.validate"] / n, "count"),
        "trace.overhead_s": (overhead, "s"),
    }
    return {name: metric(v, unit) for name, (v, unit) in values.items()}


def run(kc, workload_name, seed, seconds, trace, work_dir, size="full",
        spawns=COLD_SPAWNS):
    import inputs
    import workloads
    from spans import Tracer

    manifest = inputs.generate(workload_name, seed,
                               os.path.join(work_dir, "inputs"), size)
    workload = workloads.CLASSES[workload_name](
        kc, manifest, os.path.join(work_dir, "inputs"))
    manifest_path = os.path.join(work_dir, "inputs", "manifest.json")

    if trace:
        _, report = cold_starts(manifest_path, 1)
        untraced = measure(workload, seconds / 2.0)
        tracer = Tracer()
        with tracer:
            traced = measure(workload, seconds / 2.0, tracer)
        rounds = untraced + traced
        metrics = per_layer(tracer, traced, untraced,
                            report["scipy_modules_loaded"])
    else:
        cold_s, _ = cold_starts(manifest_path, spawns)
        rounds = measure(workload, seconds, min_rounds=2)
        metrics = end_to_end(rounds, cold_s)

    print(f"{workload_name}: {len(rounds)} rounds, median raw round "
          f"{statistics.median(r.raw_s for r in rounds):.4f} s, scaled "
          f"{statistics.median(r.op_s for r in rounds):.4f} s",
          file=sys.stderr)
    attempted, failures = totals(rounds)
    unknown = {k: v for k, v in failures.items()
               if k not in workloads.KNOWN_FAULTS}
    for problem in workload.setup_problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for label, count in sorted(failures.items()):
        known = "known fault" if label in workloads.KNOWN_FAULTS else "FAILED"
        print(f"{workload_name}: {count} x {label} ({known})", file=sys.stderr)
    result = {
        "correct": not unknown and not workload.setup_problems,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    return result


def self_check(kc, work_root):
    import workloads
    ok = True
    for name in workloads.CLASSES:
        work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
        result = run(kc, name, 1, 0.0, False, work_dir, size="quick",
                     spawns=1)
        print(f"{name}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}")
        ok &= result["correct"]
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description="kerrcav benchmark")
    parser.add_argument("--workload", choices=(
        "readme-sweeps", "fit-roundtrip", "device-design"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="every workload at reduced size, all checks")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    kc = import_kerrcav()
    work_root = os.path.join(ROOT, ".bench_build")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="perfbench-", dir=work_root)
    try:
        if args.self_check:
            return self_check(kc, work_dir)
        result = run(kc, args.workload, args.seed, args.seconds, args.trace,
                     work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

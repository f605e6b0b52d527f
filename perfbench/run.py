"""szeta benchmark: one workload, timed or traced, checked.

    python3 perfbench/run.py --workload {gw_sweep,odd_grid,cli_calls}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  ``--trace 0`` repeats whole rounds of
the workload until S seconds have passed and reports the end-to-end
metrics; ``--trace 1`` runs one plain round and one traced round and
reports per-layer metrics.  Before the result the run prints one line
with its environment record; the last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Spans of a traced run go to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from prepare import PREPARE, ROOT, use_source_tree

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 4

# every per-layer metric, in report order: traced function, what, unit
LAYER_METRICS = (
    ("odd_extremal.g_real", ("self_s", "calls", "points")),
    ("odd_extremal.f_odd_vec", ("self_s", "points")),
    ("odd_extremal.f_even_vec", ("self_s", "points")),
    ("odd_extremal.ft_g", ("self_s", "calls")),
    ("odd_extremal.g_eval", ("self_s",)),
    ("odd_extremal.decay_envelope_const", ("self_s",)),
    ("odd_extremal.l1_gap_odd", ("self_s",)),
    ("explicit_formula.gw_evaluate", ("self_s", "calls", "residual_max")),
    ("explicit_formula.prime_sum", ("self_s",)),
    ("explicit_formula._gamma_integral", ("self_s",)),
    ("explicit_formula.rep_sum", ("self_s",)),
    ("explicit_formula.appendix_asymptotic", ("self_s",)),
    ("poisson_extremal.m_real", ("self_s", "points")),
    ("poisson_extremal.ft_m", ("calls",)),
    ("numkit.sieve_mangoldt", ("self_s", "calls")),
    ("numkit.quad_adaptive", ("self_s", "calls")),
    ("numkit.sum_tail_bounded", ("self_s", "calls", "terms")),
    ("numkit.polylog_H", ("calls",)),
    ("zeta_core.load_zeros", ("self_s",)),
    ("zeta_core.s_n_direct", ("self_s",)),
    ("zeta_core.zeta_logderiv", ("calls",)),
    ("zeta_core.zeta", ("calls",)),
    ("bounds.envelope", ("self_s",)),
    ("bounds.check_envelope", ("self_s",)),
    ("bounds.c_n", ("calls",)),
)


UNITS = {"self_s": "s", "residual_max": "1"}


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def setup_seconds(workload: str, probes: int) -> list:
    """Wall times of the workload's set-up in fresh processes."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "prepare.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def timed_run(wl, rec, seconds: float) -> float:
    """Whole rounds until ``seconds`` have passed; returns time per round."""
    t0 = time.perf_counter()
    rounds = 0
    while True:
        wl.round(rec)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / rounds


def traced_run(name: str, wl, rec, seed: int) -> dict:
    """One plain round, then one traced round; per-layer metrics."""
    from tracer import Tracer, combine
    t0 = time.perf_counter()
    wl.round(rec)
    plain_s = time.perf_counter() - t0

    child_dir = os.path.join(OUT_DIR, f"cli-{name}-seed{seed}")
    tracer = Tracer()
    tracer.install()
    try:
        if wl.in_children:
            shutil.rmtree(child_dir, ignore_errors=True)
            os.makedirs(child_dir)
            wl.trace_dir = child_dir
        else:
            PREPARE[name]()  # set-up again, now traced
        t0 = time.perf_counter()
        wl.round(rec)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    totals = dict(tracer.summary())
    children = []
    for path in sorted(glob.glob(os.path.join(child_dir, "*.json"))):
        with open(path) as fh:
            children.append(json.load(fh))
        combine(totals, children[-1]["summary"])
    shutil.rmtree(child_dir, ignore_errors=True)

    metrics = {}
    for fn, whats in LAYER_METRICS:
        for what in whats:
            key = f"{fn}.{what}"
            metrics[key] = (totals.get(key, 0), UNITS.get(what, "count"))
    for key in ("import_s", "command_s"):
        vals = [c[key] for c in children]
        metrics[f"cli.{key}"] = (statistics.median(vals) if vals else 0.0,
                                 "s")
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json"),
              "w") as fh:
        json.dump({"workload": name, "seed": seed, "plain_run_s": plain_s,
                   "traced_run_s": traced_s, "totals": totals,
                   "process": tracer.to_json(),
                   "cli_processes": children}, fh)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("gw_sweep", "odd_grid", "cli_calls"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    use_source_tree()
    import numpy as np
    from workloads import WORKLOADS, Recorder

    rng = np.random.default_rng(args.seed)
    cls = WORKLOADS[args.workload]
    env = environment(args.seed)
    # half the set-up probes before the timed part and half after, so
    # their median spans the run rather than one moment of it
    setup = [] if args.trace else setup_seconds(args.workload,
                                                SETUP_PROBES // 2)
    state = {} if cls.in_children else PREPARE[args.workload]()
    wl = cls(state, rng)
    wl.warm_up()
    rec = Recorder()

    if args.trace:
        metrics = traced_run(args.workload, wl, rec, args.seed)
    else:
        run_s = timed_run(wl, rec, args.seconds)
        rss = peak_rss_mib(children=cls.in_children)
        setup += setup_seconds(args.workload, SETUP_PROBES - len(setup))
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "run_s": (run_s, "s"),
                   "peak_rss_mib": (rss, "MiB")}

    problems = wl.check()
    for p in rec.failures + problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

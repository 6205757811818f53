"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in whole rounds until S seconds of
rounds have been measured, checks every round's outputs, and prints as its
last stdout line one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 rounds alternate traced and untraced and the
metrics are the per-layer ones. The exit code is nonzero when a check fails
or when the ugwkit sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("moons-outliers", "isometry-cli", "conic-grid")
SETUP_REPEATS = 15

# Runs in a fresh interpreter: times importing ugwkit (through the workload
# module) plus generating the workload's inputs.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Machine record


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, or None; git may not look above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def machine_record():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Measurement


def time_setup(workload, seed, out_dir):
    """Import plus input generation, timed in a fresh interpreter."""
    out_dir.mkdir()
    res = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), workload,
         str(seed), str(out_dir)],
        capture_output=True, text=True, timeout=60,
    )
    if res.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{res.stderr}")
    return float(res.stdout.split()[-1])


def run_rounds(wl, state, seconds, tracer, after_round):
    """Whole rounds until `seconds` of rounds are measured.

    With a tracer, even rounds are traced and odd ones not, and at least one
    of each runs. ``after_round(measured)`` is called after each round,
    outside the timed part. Returns the rounds and the run's operation counts.
    """
    rounds = []
    attempted = failed = 0
    problems = []
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.install()
        first = len(tracer.spans) if traced else None
        t0 = time.perf_counter()
        try:
            out = wl.run(state)
        finally:
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        rounds.append({"seconds": dt, "traced": traced,
                       "spans": (first, len(tracer.spans)) if traced else None})
        a, f = wl.ops(out)
        attempted += a
        failed += f
        problems += wl.check(state, out)
        measured = sum(r["seconds"] for r in rounds)
        after_round(measured)
        if measured >= seconds and (tracer is None or len(rounds) >= 2):
            return rounds, attempted, failed, problems


def layer_metrics(tracer, rounds, setup_spans):
    import tracing

    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    R = len(traced)
    spans = [s for r in traced for s in tracer.spans[slice(*r["spans"])]]
    table = tracing.layer_table(spans)

    def per_round(layer, key):
        return table[layer][key] / R if layer in table else 0.0

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    by_id = {s["id"]: s for s in spans}
    cli_calls = per_round("cli", "spans")
    ugw_in_cli = sum(1 for s in spans if s["layer"] == "ugw"
                     and tracing.has_ancestor(s, "cli", by_id)) / R
    unaccounted = [1.0 - tracing.root_time(tracer.spans[slice(*r["spans"])]) / r["seconds"]
                   for r in traced]
    setup_table = tracing.layer_table(setup_spans)
    m = {
        "sinkhorn.calls": per_round("sinkhorn", "spans"),
        "sinkhorn.sweeps": per_round("sinkhorn", "sweeps"),
        "sinkhorn.capped_calls": per_round("sinkhorn", "capped"),
        "sinkhorn.s": per_round("sinkhorn", "s"),
        "sinkhorn.us_per_sweep": ratio(per_round("sinkhorn", "s"),
                                       per_round("sinkhorn", "sweeps"), 1e6),
        "sinkhorn.mcells_per_s": ratio(per_round("sinkhorn", "cells"),
                                       per_round("sinkhorn", "s"), 1e-6),
        "ugw.solves": per_round("ugw", "spans"),
        "ugw.unconverged": per_round("ugw", "unconverged"),
        "ugw.outer_steps": per_round("ugw", "outer"),
        "ugw.s": per_round("ugw", "s"),
        "ugw.self_s": per_round("ugw", "self_s"),
        "ugw.local_cost_calls": per_round("ugw.local_cost", "spans"),
        "ugw.local_cost_s": per_round("ugw.local_cost", "s"),
        "ugw.local_cost_us_per_call": ratio(per_round("ugw.local_cost", "s"),
                                            per_round("ugw.local_cost", "spans"), 1e6),
        "cli.ugw_solves": ratio(ugw_in_cli, cli_calls),
        "cli.self_s": per_round("cli", "self_s"),
        "app.io_s": per_round("app.io", "s"),
        "lp.calls": per_round("lp", "spans"),
        "lp.pivots": per_round("lp", "pivots"),
        "lp.s": per_round("lp", "s"),
        "lp.us_per_pivot": ratio(per_round("lp", "s"), per_round("lp", "pivots"), 1e6),
        "conic.cgw_calls": per_round("conic", "spans"),
        "conic.rounds": per_round("conic", "rounds"),
        "conic.cgw_s": per_round("conic", "s"),
        "conic.cgw_self_s": per_round("conic", "self_s"),
        "conic.local_cost_s": per_round("conic.local_cost", "s"),
        "conic.certificate_s": per_round("conic.certificate", "s"),
        "geometry.s": per_round("geometry", "s"),
        "geometry.setup_s": setup_table["geometry"]["s"] if "geometry" in setup_table else 0.0,
        "trace.overhead_s": (statistics.median(r["seconds"] for r in traced)
                             - statistics.median(r["seconds"] for r in untraced)),
        "trace.unaccounted_share": statistics.fmean(unaccounted),
    }
    return m, tracing.format_table(table, R)


def declared_units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(args, work):
    import ugwkit
    import tracing
    import workloads

    if not Path(ugwkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported ugwkit from {ugwkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    machine = machine_record()
    print(json.dumps({"machine": machine}))

    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    main_dir = work / "main"
    main_dir.mkdir()
    if tracer is not None:
        tracer.install()
    try:
        state = wl.setup(args.seed, str(main_dir))
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_spans = list(tracer.spans) if tracer is not None else []

    setup_times = []

    def sample_setup(measured):
        # Set-up samples are spread over the run in step with the rounds, so
        # that they meet the same machine load as the rounds do.
        if tracer is not None:
            return
        while len(setup_times) < SETUP_REPEATS * min(1.0, measured / args.seconds):
            setup_times.append(time_setup(args.workload, args.seed,
                                          work / f"setup{len(setup_times)}"))

    rounds, attempted, failed, problems = run_rounds(wl, state, args.seconds, tracer,
                                                     sample_setup)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "attempted": attempted,
                      "failed": failed, "round_s": [r["seconds"] for r in rounds]}))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer is None:
        values = {
            "wall_s": statistics.median(r["seconds"] for r in rounds),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        values, table = layer_metrics(tracer, rounds, setup_spans)
        print(table)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        header = {"workload": args.workload, "seed": args.seed, "machine": machine,
                  "setup_spans": len(setup_spans), "rounds": rounds}
        tracer.write_jsonl(path, header)
        print(f"spans written to {path.relative_to(ROOT)}")

    units = declared_units()
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if not problems else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ugwkit" / "__init__.py").is_file():
        print(f"error: no ugwkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())

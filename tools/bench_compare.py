"""Compare the benchmark on two checkouts in alternating pairs of runs.

    python tools/bench_compare.py OLD_TREE NEW_TREE --pairs N --out BENCH_<tag>.json

OLD_TREE and NEW_TREE are checkouts of the repository (each holds
``perfbench/`` and ``src/``). The workloads and the run length are the
``workloads`` and ``run_seconds`` that NEW_TREE's ``BENCHMARK.json``
declares. For every workload and every seed 1..N, each tree's
``perfbench/run.py --trace 0`` runs once, the old tree first on odd seeds and
the new tree first on even ones, so that a drift in the machine's load falls
on both sides alike. Then each tree runs once with ``--trace 1`` at seed 11
(outside 1..N for N < 11) for the per-layer metrics.

The output is one JSON file:

- ``before_commit``: the old tree's git commit, when it has one;
- ``machine``: the machine record the runs print (without the commit);
- ``workloads``: per workload, ``summary`` (per side and end-to-end metric
  the median and quartiles over the N runs, and ``after_lower_<metric>``,
  the pairs where the new tree read lower, as "k/N") and ``pairs`` (each
  run's end-to-end metrics, failed and attempted operations and whether
  every check passed);
- ``traced_seed11``: per workload and side, the per-layer counters (the
  metrics whose unit is ``count`` in NEW_TREE's ``BENCHMARK.json``: calls,
  sweeps, capped calls, outer steps, LP pivots, rounds) that the traced run
  of either side reports nonzero (0 where a side lacks one). They do not
  depend on the machine. The per-layer times are left out: one traced run
  per side cannot resolve a change of a few percent in them;
- ``tier1``: per side, two runs of the tier-1 command
  ``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors
  --durations=10`` in the tree, in the order old, new, new, old: each run's
  wall seconds, exit code, summary line and ten slowest test phases, or the
  error that stopped it. Two runs per side cannot resolve a change of a few
  percent; they show where the test time goes.

The file is written once the pairs and traced runs are done, and again
with ``tier1``, so an error in the tier-1 step keeps the pairs. The exit
code is 1 when a run fails a check or prints no result, or a tier-1 run
fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

TRACE_SEED = 11
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10")
# a --durations line: "7.61s call     tests/test_acceptance.py::test_criterion_10_..."
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(\S.*)$")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_tree", type=Path)
    p.add_argument("new_tree", type=Path)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    bench = json.loads((args.new_tree / "BENCHMARK.json").read_text())
    args.workloads = [w["name"] for w in bench["workloads"]]
    args.seconds = bench["run_seconds"]
    args.counters = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    return args


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run; returns (machine record, result line) or raises."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=4 * seconds + 600)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError(f"{tree} {workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
    machine = json.loads(lines[0]).get("machine", {})
    return machine, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare_workload(args, workload, log):
    pairs = {}
    machine = None
    for seed in range(1, args.pairs + 1):
        order = ("before", "after") if seed % 2 else ("after", "before")
        pairs[str(seed)] = {}
        for side in order:
            tree = args.old_tree if side == "before" else args.new_tree
            machine, result = run_once(tree, workload, seed, args.seconds, 0)
            row = {name: result["metrics"][name]["value"] for name in END_TO_END}
            row.update(failed=result["failed"], attempted=result["attempted"],
                       correct=result["correct"])
            pairs[str(seed)][side] = row
            log(f"{workload} seed {seed} {side}: wall_s {row['wall_s']:.4f} "
                f"failed {row['failed']}/{row['attempted']} correct {row['correct']}")
    summary = {side: {name: quartiles([pairs[s][side][name] for s in pairs])
                      for name in END_TO_END} for side in ("before", "after")}
    for name in END_TO_END:
        lower = sum(pairs[s]["after"][name] < pairs[s]["before"][name] for s in pairs)
        summary[f"after_lower_{name}"] = f"{lower}/{len(pairs)}"
    return {"summary": summary, "pairs": pairs}, machine


def traced(args, workload, log):
    """Per-layer counters of one traced run per side, and whether both passed."""
    sides, correct = {}, {}
    for side, tree in (("before", args.old_tree), ("after", args.new_tree)):
        _, result = run_once(tree, workload, TRACE_SEED, args.seconds, 1)
        sides[side] = {name: m["value"] for name, m in result["metrics"].items()}
        correct[side] = result["correct"]
        log(f"{workload} traced {side}: correct {result['correct']}")
    keep = [name for name in args.counters
            if sides["before"].get(name) or sides["after"].get(name)]
    return {side: {name: sides[side].get(name, 0) for name in keep} for side in sides}, \
        all(correct.values())


def tier1(args, log):
    """Two tier-1 runs per side, old, new, new, old: per run the wall seconds,
    exit code, pytest's summary line and its ten slowest test phases, or the
    error that stopped the run."""
    out = {"before": [], "after": []}
    for side in ("before", "after", "after", "before"):
        tree = args.old_tree if side == "before" else args.new_tree
        env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                                  capture_output=True, text=True, timeout=3600)
        except (OSError, subprocess.SubprocessError) as exc:
            out[side].append({"wall_s": time.perf_counter() - start, "exit_code": None,
                              "error": f"{type(exc).__name__}: {exc}"})
            log(f"tier-1 {side}: {out[side][-1]['error']}")
            continue
        wall = time.perf_counter() - start
        lines = proc.stdout.splitlines()
        slowest = [{"s": float(m[1]), "phase": m[2], "test": m[3]}
                   for m in map(DURATION.match, lines) if m]
        out[side].append({"wall_s": wall, "exit_code": proc.returncode,
                          "summary": lines[-1].strip("= ") if lines else "",
                          "slowest": slowest})
        log(f"tier-1 {side}: {wall:.1f} s, {out[side][-1]['summary']}")
    return out


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)

    def log(text):
        print(text, file=sys.stderr, flush=True)

    out = {"before_commit": _commit(args.old_tree),
           "what": (f"old tree (before) and new tree (after), python3 perfbench/run.py "
                    f"--seconds {args.seconds:g} --trace 0, {args.pairs} pairs per workload; "
                    f"pairs alternate which side runs first (odd seeds the old tree first). "
                    f"traced_seed{TRACE_SEED}: one --trace 1 run per side at seed "
                    f"{TRACE_SEED}, its per-layer counters (unit count in BENCHMARK.json). "
                    f"tier1: two tier-1 test runs per side, old, new, new, old; too few "
                    f"to resolve a change of a few percent"),
           "machine": None, "workloads": {}, f"traced_seed{TRACE_SEED}": {}}
    for workload in args.workloads:
        out["workloads"][workload], machine = compare_workload(args, workload, log)
        out["machine"] = {k: v for k, v in machine.items() if k != "git_commit"}
    ok = True
    for workload in args.workloads:
        out[f"traced_seed{TRACE_SEED}"][workload], passed = traced(args, workload, log)
        ok = ok and passed
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    out["tier1"] = tier1(args, log)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    ok = ok and all(run["exit_code"] == 0 for runs in out["tier1"].values() for run in runs)
    ok = ok and all(row[side]["correct"] for w in out["workloads"].values()
                    for row in w["pairs"].values() for side in row)
    for workload, w in out["workloads"].items():
        s = w["summary"]
        log(f"{workload}: wall_s median {s['before']['wall_s']['median']:.4f} -> "
            f"{s['after']['wall_s']['median']:.4f} s, after lower in {s['after_lower_wall_s']}")
    return 0 if ok else 1


def _commit(tree):
    """Short git commit of a checkout, or None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(tree.resolve().parent))
    try:
        res = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    if res.returncode != 0:
        return None
    return res.stdout.strip() or None


if __name__ == "__main__":
    sys.exit(main())

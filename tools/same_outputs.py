"""Check that two ugwkit source trees give the same command-line outputs.

    python tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``ugwkit`` package (the
``src`` directory of a checkout). Every subcommand runs at a small setting,
once per tree, each run in a fresh interpreter with that tree alone on
PYTHONPATH and its own empty working directory: the six experiment drivers
in CSV and in JSON, with the moons driver a second time on two clouds whose
rho = 0.01 solves take the damped path of a 2-cycle, and the pu driver a
second time at its own eps = 2^-9 and rho = 2^-6, where the first inner plan
is tiny and the outer test needs an inner stop scaled to the plan mass (a
tree without one exits 1 there); the five drivers that sweep trials again at
eps = 1e-300, where some or all trials raise (the plan overflows) and are
recorded as error rows; then the solver commands on small spaces written
here with numpy, among them ``cgw`` at the conic-grid benchmark's grid and
restarts on two 6-point spaces, and on two spaces whose weights are all
1e-11 (a tree whose grid LP is not scaled to the mass exits 1 there). For each run the exit code, stdout, stderr and every file written are
compared byte for byte, once the tree's own path (a warning names it) is
replaced by <src> in stdout and stderr. One line is printed per run; the exit
code is 1 if anything differs. Where two outputs differ only in their
numbers, the line gives the largest relative difference |a - b| / max(|a|, |b|)
between corresponding numbers and where it is: the key path in a JSON output
(``tightness.plan_gap``, ``[3].ratio``), line:column in any other. A number
within 1e-12 of the output's largest |number| of zero counts as zero and is
left out: a residual or a cost of 0 comes out as 1e-17 on one side and
-1e-17 on the other. The counters ``iterations``, ``sweeps``,
``newton_steps`` and ``lp_pivots`` (JSON keys and ``name=value`` in stdout)
are left out of that maximum: a counter that moved is named with both
values. The run with the largest relative difference, and where in it, is
named at the end.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

DRIVERS = [
    ["ratio-hist", "--ns", "2,3", "--trials", "2", "--grid-k", "4", "--grid-l", "4",
     "--restarts", "2"],
    ["perturb", "--n", "3", "--ts", "0,0.1", "--grid-k", "4", "--grid-l", "4",
     "--restarts", "2"],
    ["moons", "--n", "8", "--n-outliers", "2", "--rhos", "1,0.1", "--seeds", "0,1",
     "--max-outer", "30"],
    # two solves whose undamped outer loop runs into a 2-cycle
    ["moons", "--n", "16", "--n-outliers", "3", "--rhos", "0.01", "--seeds", "1,2",
     "--max-outer", "200"],
    ["graph-match", "--n", "8", "--n-outliers", "2", "--eps-grid", "0.1",
     "--rho-grid", "1,inf", "--max-outer", "30"],
    ["scale-bias", "--n", "4", "--kappas", "0.5,2"],
    ["pu", "--folds", "1", "--n-pos", "5", "--n-unlabeled-pos", "5", "--n-unlabeled-neg", "3",
     "--rho-grid", "0.05,0.5", "--max-outer", "30"],
    # a solve whose plan mass falls to 1e-17 at its first step
    ["pu", "--folds", "1", "--n-pos", "6", "--n-unlabeled-pos", "6", "--n-unlabeled-neg", "3",
     "--rho-grid", "0.015625", "--max-outer", "300"],
]

# the same drivers with some or all trials raising inside the sweep
FAILING = [
    ["ratio-hist", "--ns", "2,3", "--trials", "2", "--eps", "1e-300", "--grid-k", "4",
     "--grid-l", "4", "--restarts", "2"],
    ["perturb", "--n", "3", "--ts", "0,0.1", "--eps", "1e-300", "--grid-k", "4",
     "--grid-l", "4", "--restarts", "2"],
    ["moons", "--n", "8", "--n-outliers", "2", "--rhos", "1", "--eps", "1e-300",
     "--max-outer", "5"],
    ["graph-match", "--n", "8", "--n-outliers", "2", "--eps-grid", "1e-300,0.1",
     "--rho-grid", "1", "--max-outer", "30"],
    ["pu", "--folds", "1", "--n-pos", "5", "--n-unlabeled-pos", "5", "--n-unlabeled-neg", "3",
     "--rho-grid", "0.05", "--eps", "1e-300", "--max-outer", "5"],
]


def write_inputs(root):
    """Two small spaces, the second also as a CSV matrix with a weights file,
    the two again with every weight 1e150 (a product plan of mass near 1e301)
    and with every weight 1e-11, a cost matrix with two weight vectors, and
    two 6-point spaces; returns their paths."""
    rng = np.random.default_rng(0)
    paths = {}
    for key, n in (("x", 4), ("y", 5)):
        pts = rng.normal(size=(n, 2))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
        weights = np.full(n, 1.0 / n)
        paths[key] = os.path.join(root, f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump({"dist": dist.tolist(), "weights": weights.tolist(), "label": key}, fh)
        paths[f"{key}_heavy"] = os.path.join(root, f"{key}_heavy.json")
        with open(paths[f"{key}_heavy"], "w") as fh:
            json.dump({"dist": dist.tolist(), "weights": [1e150] * n, "label": key}, fh)
        paths[f"{key}_csv"] = os.path.join(root, f"{key}.csv")
        paths[f"{key}_weights"] = os.path.join(root, f"{key}_weights.txt")
        np.savetxt(paths[f"{key}_csv"], dist, delimiter=",")
        np.savetxt(paths[f"{key}_weights"], weights)
    paths["cost"] = os.path.join(root, "cost.csv")
    paths["mu"] = os.path.join(root, "mu.txt")
    paths["nu"] = os.path.join(root, "nu.txt")
    np.savetxt(paths["cost"], rng.uniform(size=(3, 4)), delimiter=",")
    np.savetxt(paths["mu"], np.full(3, 0.4))
    np.savetxt(paths["nu"], np.full(4, 0.3))
    for key in ("x", "y"):
        # the first pair again with every weight 1e-11, and a 6-point space
        # with weights of the conic-grid benchmark's range
        with open(paths[key]) as fh:
            space = json.load(fh)
        paths[f"{key}_tiny"] = os.path.join(root, f"{key}_tiny.json")
        with open(paths[f"{key}_tiny"], "w") as fh:
            json.dump({**space, "weights": [1e-11] * len(space["weights"])}, fh)
        pts = rng.normal(size=(6, 2))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
        paths[f"{key}6"] = os.path.join(root, f"{key}6.json")
        with open(paths[f"{key}6"], "w") as fh:
            json.dump({"dist": dist.tolist(), "weights": rng.uniform(0.2, 1.5, 6).tolist(),
                       "label": f"{key}6"}, fh)
    return paths


def solver_runs(p):
    pair = ["--x", p["x"], "--y", p["y"]]
    return [
        ["uot", "--cost", p["cost"], "--mu", p["mu"], "--nu", p["nu"], "--rho", "0.5",
         "--eps", "0.05"],
        ["uot", "--cost", p["cost"], "--mu", p["mu"], "--nu", p["nu"], "--rho", "inf",
         "--eps", "0.05"],
        # a symmetric cost with mu = nu: the averaged single-potential iteration
        ["uot", "--cost", p["x_csv"], "--mu", p["x_weights"], "--nu", p["x_weights"],
         "--rho", "0.5", "--eps", "0.05"],
        ["ugw", *pair, "--rho", "0.5", "--eps", "0.05"],
        ["ugw", *pair, "--eps", "0.05", "--debias", "--init", "flb"],
        ["ugw", *pair, "--rho", "0.5", "--eps", "0.05", "--debias"],
        ["ugw", "--x", p["x"], "--y", p["x"], "--eps", "0.05", "--debias"],
        ["ugw", "--x", p["x"], "--y", p["x"], "--eps", "0.05", "--debias", "--init", "flb"],
        ["ugw", "--x", p["x_csv"], "--x-weights", p["x_weights"], "--y", p["y"],
         "--rho", "1", "--rho2", "0.5", "--eps", "0.1", "--max-outer", "5"],
        ["gw", *pair, "--eps", "0.05"],
        ["flb", *pair, "--rho", "1", "--rho2", "0.5"],
        ["flb", "--x", p["x"], "--y", p["x"]],
        ["cgw", *pair, "--rho", "0.5", "--grid-k", "4", "--grid-l", "4", "--restarts", "3",
         "--with-ugw", "--eps", "0.01"],
        ["cgw", *pair, "--grid-k", "4", "--grid-l", "4", "--restarts", "3"],
        ["cgw", *pair, "--grid-k", "10", "--grid-l", "7", "--restarts", "4"],
        ["cgw", "--x", p["y"], "--y", p["x"], "--grid-k", "4", "--grid-l", "5", "--restarts", "4"],
        # the conic-grid benchmark's grid and restarts, long enough for pivot
        # paths to depend on pricing roundoff
        ["cgw", "--x", p["x6"], "--y", p["y6"], "--grid-k", "10", "--grid-l", "10",
         "--restarts", "20"],
        ["cgw", "--x", p["x_tiny"], "--y", p["y_tiny"], "--grid-k", "4", "--grid-l", "4",
         "--restarts", "4"],
        ["scale", *pair, "--rho", "0.1", "--kappas", "0.5,2"],
        ["scale", *pair, "--format", "json"],
        ["scale", "--x", p["x_heavy"], "--y", p["y_heavy"]],
        ["gen", "--kind", "two_moons_outliers", "--n", "10", "--n-outliers", "2"],
        ["gen", "--kind", "ellipse2d", "--n", "6", "--format", "json"],
        ["gen", "--kind", "community_graph", "--n", "9"],
        ["gen", "--kind", "ellipse3d", "--n", "7"],
        ["gen", "--kind", "sphere", "--n", "6", "--format", "json"],
        ["gen", "--kind", "square", "--n", "9"],
    ]


def run(src, argv, work):
    """Run one command in a fresh interpreter; returns exit code, streams, files."""
    os.makedirs(work)
    src = os.path.abspath(src)
    proc = subprocess.run([sys.executable, "-m", "ugwkit.cli", *argv, "--out", "out"],
                          cwd=work, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, timeout=600)
    files = {}
    for base, _, names in os.walk(work):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, work)] = fh.read()
    own = os.fsencode(src)
    return {"exit code": proc.returncode, "stdout": proc.stdout.replace(own, b"<src>"),
            "stderr": proc.stderr.replace(own, b"<src>"), "files": files}


NUMBER = re.compile(rb"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
# an iteration counter: "sweeps": 235 in JSON, iterations=12 in stdout
COUNTERS = ("iterations", "sweeps", "newton_steps", "lp_pivots")
COUNTER = re.compile(rb"\b(" + "|".join(COUNTERS).encode() + rb')("?(?:: |=))(\d+)(?![\w.])')


def json_numbers(value, path=""):
    """(key path, number) for each number NUMBER finds in the text of a parsed
    JSON value, in document order: numbers inside keys and strings included,
    counters and non-finite floats (written as NaN, Infinity) left out."""
    if isinstance(value, dict):
        for key, item in value.items():
            sub = f"{path}.{key}" if path else key
            yield from ((sub, float(x)) for x in NUMBER.findall(key.encode()))
            if not (key in COUNTERS and type(item) is int):
                yield from json_numbers(item, sub)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_numbers(item, f"{path}[{i}]")
    elif isinstance(value, str):
        yield from ((path, float(x)) for x in NUMBER.findall(value.encode()))
    elif type(value) in (int, float) and math.isfinite(value):
        yield path, float(value)


def locate(text, k):
    """Where the k-th number of an output, counters left out, is: its key path
    when the output is a JSON object or array, else line:column."""
    counted = {m.start(3) for m in COUNTER.finditer(text)}
    starts = [m.start() for m in NUMBER.finditer(text) if m.start() not in counted]
    try:
        value = json.loads(text)
    except ValueError:
        value = None
    if isinstance(value, (dict, list)):
        found = list(json_numbers(value))
        if len(found) == len(starts):
            return found[k][0]
    line = text.count(b"\n", 0, starts[k]) + 1
    column = starts[k] - text.rfind(b"\n", 0, starts[k])
    return f"{line}:{column}"


def relative_difference(old, new):
    """Largest |a - b| / max(|a|, |b|) over corresponding numbers of two outputs
    and where it is, leaving out numbers at roundoff of zero and the counters,
    with a "name old -> new" line for each counter that moved; None when they
    differ in anything but numbers."""
    if not isinstance(old, bytes) or not isinstance(new, bytes):
        return None
    counts = [COUNTER.findall(text) for text in (old, new)]
    bare = [COUNTER.sub(rb"\1\2#", text) for text in (old, new)]
    if NUMBER.split(bare[0]) != NUMBER.split(bare[1]):
        return None
    moved = [f"{a[0].decode()} {int(a[2])} -> {int(b[2])}"
             for a, b in zip(*counts) if a[2] != b[2]]
    a, b = (np.array([float(x) for x in NUMBER.findall(text)]) for text in bare)
    big = np.maximum(np.abs(a), np.abs(b))
    keep = big > 1e-12 * big.max(initial=0.0)
    rel = np.divide(np.abs(a - b), big, out=np.zeros_like(big), where=keep)
    if not rel.any():
        return 0.0, None, moved
    k = int(np.argmax(rel))
    return float(rel[k]), locate(new, k), moved


def differences(old, new):
    """(name, (largest relative difference, where, moved counters) or None)
    for each output that differs."""
    diffs = [(key, relative_difference(old[key], new[key]))
             for key in ("exit code", "stdout", "stderr") if old[key] != new[key]]
    for name in sorted(set(old["files"]) | set(new["files"])):
        if old["files"].get(name) != new["files"].get(name):
            diffs.append((name, relative_difference(old["files"].get(name),
                                                    new["files"].get(name))))
    return diffs


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_src, new_src = args
    with tempfile.TemporaryDirectory() as root:
        inputs = write_inputs(root)
        runs = [[*cmd, "--format", fmt] for cmd in DRIVERS for fmt in ("csv", "json")]
        runs += FAILING + solver_runs(inputs)
        same = True
        worst = (0.0, None)
        for i, cmd in enumerate(runs):
            old = run(old_src, cmd, os.path.join(root, f"old{i}"))
            new = run(new_src, cmd, os.path.join(root, f"new{i}"))
            diffs = differences(old, new)
            same = same and not diffs
            shown = " ".join(os.path.basename(a) if os.sep in a else a for a in cmd)
            parts = []
            for name, diff in diffs:
                if diff is None:
                    parts.append(f"{name} (not only numbers)")
                    continue
                rel, where, moved = diff
                at = f" at {where}" if where else ""
                shown_rel = [f"numbers, max rel {rel:.1e}{at}"] if rel > 0 or not moved else []
                parts.append(f"{name} (" + "; ".join(shown_rel + moved) + ")")
                if rel > 0 and (worst[1] is None or rel > worst[0]):
                    worst = (rel, f"{shown}: {name}{at}")
            verdict = "differs: " + ", ".join(parts) if diffs else "identical"
            print(f"{shown}: exit {new['exit code']}, {len(new['files'])} files, {verdict}")
    print("all identical" if same else "outputs differ")
    if worst[1] is not None:
        print(f"largest relative difference between numbers: {worst[0]:.2e} ({worst[1]})")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

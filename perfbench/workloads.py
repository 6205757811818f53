"""The three benchmark workloads: input generation, one round, and checks.

A workload is set up once from the workload seed, then run in whole
rounds; every round repeats the same operations on the same inputs. The
seed reaches the input generators only. Solver seeds (``solve_cgw``'s
restart seed, the CLI ``--seed``) stay at their defaults.

Calls into ugwkit go through module attributes (``app.run_moons``,
``cli.main``, ``conic.solve_cgw``) so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ugwkit import app, cli, conic, geometry

import checks


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (seed, work_dir) -> state
    run: Callable  # (state) -> outputs of one round
    ops: Callable  # (outputs) -> (attempted, failed)
    check: Callable  # (state, outputs) -> list of problems


# ---------------------------------------------------------------------------
# moons-outliers: run_moons at acceptance criterion 11's setting

MOONS = dict(n=16, n_outliers=3, eps=1e-2, tol_pot=1e-11, max_outer=200)
# Criterion 11 seeds whose rho=0.01 solves stop at max_outer unconverged on
# every run; they are kept, with all four rhos, and counted as failed.
MOONS_FIXED_SEEDS = (1, 2)
MOONS_RHOS = (10.0, 1.0, 0.1, 0.01)
# The seed-drawn cloud runs rho=0.1 alone. rho=0.01 stops unconverged on some
# clouds and not on others, so its failures would depend on the seed; the
# rho=10 and rho=1 legs converge, but their time swings by 2-4x from cloud to
# cloud, which would make wall_s a measure of the seed.
MOONS_DRAWN_RHOS = (0.1,)


def moons_setup(seed, work_dir):
    rng = np.random.default_rng(seed)
    return {"drawn_seed": int(rng.integers(20, 2**31)), "out_dir": work_dir}


def moons_run(state):
    out = app.run_moons(out_dir=state["out_dir"], seeds=list(MOONS_FIXED_SEEDS),
                        rhos=MOONS_RHOS, **MOONS)
    drawn = app.run_moons(out_dir=state["out_dir"], seeds=[state["drawn_seed"]],
                          rhos=MOONS_DRAWN_RHOS, **MOONS)
    return out["rows"] + drawn["rows"]


def moons_ops(rows):
    """One operation per solve; an unconverged or raising solve failed."""
    return len(rows), sum(1 for row in rows if not row["converged"])


def moons_check(state, rows):
    return checks.moons_problems(rows, low_rho=MOONS_RHOS[-1])


# ---------------------------------------------------------------------------
# isometry-cli: `ugwkit ugw --debias` on a cloud and a moved, permuted copy

CLI_N = 120
CLI_SIDE = 5.0
# Points closer than this make the entropic plan split its row mass between
# neighbours, and the argmax no longer names the matched point.
CLI_MIN_SEP = 0.3


def separated_cloud(rng, n, side, min_sep):
    """Uniform points in [0, side]^2, rejecting any closer than min_sep."""
    pts = np.empty((n, 2))
    count = 0
    while count < n:
        p = rng.uniform(0.0, side, size=2)
        if count == 0 or np.min(np.sum((pts[:count] - p) ** 2, axis=1)) >= min_sep**2:
            pts[count] = p
            count += 1
    return pts


def cli_setup(seed, work_dir):
    rng = np.random.default_rng(seed)
    pts = separated_cloud(rng, CLI_N, CLI_SIDE, CLI_MIN_SEP)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    shift = rng.uniform(-CLI_SIDE, CLI_SIDE, size=2)
    perm = rng.permutation(CLI_N)
    moved = (pts @ rot.T + shift)[perm]  # moved[k] is the image of pts[perm[k]]
    x_path = os.path.join(work_dir, "x.json")
    y_path = os.path.join(work_dir, "y.json")
    app.save_space(geometry.space_from_points(pts, label="x"), x_path)
    app.save_space(geometry.space_from_points(moved, label="y"), y_path)
    return {
        "argv": ["ugw", "--x", x_path, "--y", y_path, "--out", work_dir, "--debias"],
        "out_dir": work_dir,
        "expected_col": np.argsort(perm),  # point i of X sits at column inv(perm)[i]
    }


def cli_run(state):
    with contextlib.redirect_stdout(sys.stderr):
        try:
            return cli.main(state["argv"])
        except SystemExit as exc:
            return exc.code


def cli_ops(code):
    """One operation per CLI invocation; a nonzero exit failed."""
    return 1, int(code != 0)


def cli_check(state, code):
    plan_path = os.path.join(state["out_dir"], "ugw_plan.csv")
    summary_path = os.path.join(state["out_dir"], "ugw_summary.json")
    plan = summary = None
    if os.path.exists(plan_path):
        plan = np.loadtxt(plan_path, delimiter=",", ndmin=2)
        os.remove(plan_path)  # the next round's check must not read this one's output
    if os.path.exists(summary_path):
        with open(summary_path) as fh:
            summary = json.load(fh)
        os.remove(summary_path)
    return checks.cli_problems(code, plan, summary, state["expected_col"])


# ---------------------------------------------------------------------------
# conic-grid: solve_cgw on small pairs of unequal mass, then a lift certificate

CONIC_SPEC = conic.ConeMetricSpec("gh", rho=1.0)
CONIC_GRID = dict(K=10, L=10, restarts=20)
# The grid instances are a fixed set: the LP work of a set of 12 varies by
# 10-20% from one random set to the next, which would make wall_s measure the
# seed. The seed draws the couplings that are lifted and certified.
CONIC_SIZES = ((3, 3), (3, 8), (4, 4), (4, 7), (5, 5), (5, 6),
               (6, 5), (6, 6), (7, 4), (7, 7), (8, 3), (8, 8))
CONIC_INSTANCE_SEED = 2009


def conic_setup(seed, work_dir):
    fixed = np.random.default_rng(CONIC_INSTANCE_SEED)
    rng = np.random.default_rng(seed)
    instances = []
    for n, m in CONIC_SIZES:
        X = geometry.space_from_points(fixed.normal(size=(n, 2)),
                                       weights=fixed.uniform(0.2, 1.5, n))
        Y = geometry.space_from_points(fixed.normal(size=(m, 2)),
                                       weights=fixed.uniform(0.2, 1.5, m))
        # a positive coupling to lift: the product plan with a random tilt
        pi = np.outer(X.weights, Y.weights) * rng.uniform(0.5, 1.5, size=(n, m))
        instances.append((X, Y, pi / math.sqrt(X.mass * Y.mass)))
    return {"instances": instances}


def conic_run(state):
    outputs = []
    for X, Y, pi in state["instances"]:
        try:
            res = conic.solve_cgw(X, Y, CONIC_SPEC, **CONIC_GRID)
            lifted = conic.conic_lift(pi, X, Y)
            H = conic.conic_energy(lifted, X.dist, Y.dist, CONIC_SPEC)
        except (RuntimeError, ValueError, ArithmeticError) as exc:
            outputs.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        outputs.append({"error": None, "grid": res.alpha.grid, "cost": res.cost, "H_lift": H})
    return outputs


def conic_ops(outputs):
    """One operation per grid instance; a raising instance failed."""
    return len(outputs), sum(1 for out in outputs if out["error"] is not None)


def conic_check(state, outputs):
    problems = []
    rho = CONIC_SPEC.rho
    for (X, Y, pi), out in zip(state["instances"], outputs):
        if out["error"] is not None:
            continue
        tag = f"conic {X.n}x{Y.n}: "
        found = checks.grid_moment_problems(out["grid"], X.weights, Y.weights)
        energy = checks.gh_grid_energy(out["grid"], X.dist, Y.dist, rho, X.mass, Y.mass)
        found += checks.energy_problems(out["cost"], energy)
        L = checks.quadratic_energy(pi, X.dist, Y.dist, X.weights, Y.weights, rho)
        found += checks.lift_problems(out["H_lift"], L)
        problems += [tag + p for p in found]
    return problems


WORKLOADS = {
    "moons-outliers": Workload(moons_setup, moons_run, moons_ops, moons_check),
    "isometry-cli": Workload(cli_setup, cli_run, cli_ops, cli_check),
    "conic-grid": Workload(conic_setup, conic_run, conic_ops, conic_check),
}

"""Experiment drivers, serialization, and the PU-learning predictor.

Every driver writes plot-ready data files (CSV or JSON rows) plus a JSON
manifest holding the seed and the resolved configuration, so a run can be
reproduced exactly from its manifest. Solver failures inside a driver are
recorded per trial and the driver keeps going; the aggregate convergence
flag feeds the CLI exit code.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import os
from dataclasses import asdict

import numpy as np

from . import geometry
from .conic import ConeMetricSpec, check_grid, solve_cgw
from .measures import MmSpace, TransportPlan
from .scaling import scaling_bias_report
from .ugw import UgwConfig, debiased_ugw, distortion_cost, solve_ugw

__all__ = [
    "pu_predict",
    "space_to_dict",
    "space_from_dict",
    "save_space",
    "load_space",
    "save_plan",
    "load_weights",
    "load_matrix",
    "read_config",
    "write_json",
    "write_table",
    "write_manifest",
    "cgw_ugw_ratio",
    "run_perturb",
    "run_ratio_hist",
    "run_moons",
    "run_graph_match",
    "run_scale_bias",
    "run_pu",
]

RATIO_FLOOR = 1e-9


# ---------------------------------------------------------------------------
# PU prediction


def pu_predict(plan, positive_ratio):
    """Label target atoms by their received marginal mass.

    The top ceil(r*m) atoms of the column marginal, in descending mass with
    lower index winning ties, get +1; the rest -1.
    """
    if not 0 < positive_ratio <= 1:
        raise ValueError("positive_ratio must be in (0, 1]")
    p2 = plan.col_marginal if isinstance(plan, TransportPlan) else np.asarray(plan, float)
    if p2.ndim == 2:
        p2 = p2.sum(axis=0)
    m = p2.size
    if m == 0:
        raise ValueError("empty plan")
    n_pos = math.ceil(positive_ratio * m)
    order = np.argsort(-p2, kind="stable")
    labels = -np.ones(m, dtype=int)
    labels[order[:n_pos]] = 1
    return labels


# ---------------------------------------------------------------------------
# Serialization


def space_to_dict(X):
    return {"dist": X.dist.tolist(), "weights": X.weights.tolist(), "label": X.label}


def space_from_dict(d):
    if not isinstance(d, dict):
        raise ValueError("a space must be a JSON object with 'dist' and 'weights'")
    for key in ("dist", "weights"):
        if key not in d:
            raise ValueError(f"a space needs the key {key!r}")
    try:
        dist, weights = np.asarray(d["dist"], float), np.asarray(d["weights"], float)
    except TypeError as exc:
        # an entry such as {} or null: a TypeError, where a bad string is a ValueError
        raise ValueError(f"dist and weights must hold numbers: {exc}") from exc
    return MmSpace(dist, weights, d.get("label"))


def save_space(X, path):
    with open(path, "w") as fh:
        json.dump(space_to_dict(X), fh)
    return path


def load_space(path, weights_path=None):
    """Load an MmSpace from JSON, or from a CSV matrix plus a weights file."""
    if str(path).endswith(".json"):
        with open(path) as fh:
            return space_from_dict(json.load(fh))
    dist = load_matrix(path)
    if weights_path is None:
        raise ValueError("CSV spaces need a separate weights file")
    return MmSpace(dist, load_weights(weights_path))


def load_matrix(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def load_weights(path):
    return np.loadtxt(path, ndmin=1)


def save_plan(plan, path):
    values = plan.values if isinstance(plan, TransportPlan) else np.asarray(plan)
    np.savetxt(path, values, delimiter=",")
    return path


def save_atoms(atoms, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "r", "j", "s", "mass"])
        writer.writerows(atoms.tolist())
    return path


# ---------------------------------------------------------------------------
# Config and tables


def _parse_value(text):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("inf", "+inf"):
        return math.inf
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def read_config(path):
    """key=value lines; '#' starts a comment, keys use flag spelling."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = _parse_value(value)
    return out


def _spelled(value):
    """``value`` with each non-finite float in it spelled "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {key: _spelled(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spelled(item) for item in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def write_json(payload, path):
    """Write ``payload`` as JSON, a non-finite float as the string "inf", "-inf"
    or "nan" (the bare Infinity and NaN are not JSON); returns the path."""
    with open(path, "w") as fh:
        json.dump(_spelled(payload), fh, indent=1, allow_nan=False)
    return path


def write_table(rows, fieldnames, path_base, fmt="csv"):
    """Write dict rows as CSV or a JSON array; returns the path written."""
    if fmt == "json":
        return write_json(rows, path_base + ".json")
    path = path_base + ".csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def write_manifest(out_dir, name, seed, config, files):
    from . import __version__

    manifest = {
        "driver": name,
        "seed": seed,
        "config": config,
        "version": __version__,
        "files": [os.path.basename(f) for f in files],
    }
    return write_json(manifest, os.path.join(out_dir, f"{name}_manifest.json"))


# ---------------------------------------------------------------------------
# Shared experiment pieces


def _random_pair(rng, n):
    X = geometry.space_from_points(rng.normal(size=(n, 2)), label="x")
    Y = geometry.space_from_points(rng.normal(size=(n, 2)), label="y")
    return X, Y


def _floored_ratio(num, denom):
    # both sides below the floor: the spaces match exactly, ratio 1 by convention
    if abs(num) < RATIO_FLOOR and abs(denom) < RATIO_FLOOR:
        return 1.0
    return num / max(denom, RATIO_FLOOR)


def cgw_ugw_ratio(X, Y, rho, eps=1e-2, K=10, L=10, restarts=20, seed=0, cfg=None, spec=None):
    """CGW cost over the eps-free UGW primal, with the 0/0 guard at 1.

    Both solvers see the same rho. When numerator and denominator both sit
    below the floor the spaces are matched exactly and the ratio is 1 by
    convention. By default cfg is built from eps and spec is the GH cone.
    """
    cfg = cfg or UgwConfig(eps=eps, rho1=rho, rho2=rho)
    spec = spec or ConeMetricSpec("gh", rho=rho)
    check_grid(K, L, restarts)
    sol = solve_ugw(X, Y, cfg)
    res = solve_cgw(X, Y, spec, K=K, L=L, restarts=restarts, seed=seed)
    return _floored_ratio(res.cost, sol.primal_unregularized), sol, res


# ---------------------------------------------------------------------------
# Drivers


def _ending(sol):
    """The row columns that say how a solve_ugw run ended."""
    return {"converged": sol.converged, "stop_reason": sol.diagnostics["stop_reason"],
            "damped_from": sol.diagnostics["damped_from"]}


def _sweep(fields, cases, solve):
    """Run solve(*args) for each (key, *args) of ``cases``; returns (rows, ok).

    key holds the case's key columns and solve returns the rest of its row,
    "converged" included; each row holds its columns in the order of
    ``fields``. A case that raises is recorded as a row of blanks with
    converged=False and the error, and the sweep goes on. ok is True when
    every case converged.
    """
    rows = []
    ok = True
    for key, *args in cases:
        try:
            row = {**key, **solve(*args), "error": ""}
        except Exception as exc:  # recorded, driver keeps going
            row = {**key, "converged": False, "error": str(exc)}
        rows.append({name: row.get(name, "") for name in fields})
        ok = ok and row["converged"]
    return rows, ok


def _publish(name, out_dir, seed, fmt, config, tables, files=(), **result):
    """Write each (file stem, rows, fields) table, then the manifest over the
    tables and ``files``; returns ``result`` with the written paths added."""
    files = [write_table(rows, fields, os.path.join(out_dir, stem), fmt)
             for stem, rows, fields in tables] + list(files)
    write_manifest(out_dir, name, seed, config, files)
    return {**result, "files": files}


def run_perturb(
    out_dir=".",
    seed=0,
    n=3,
    ts=(0.0, 1e-3, 1e-2, 1e-1, 0.5),
    rho=0.1,
    eps=1e-3,
    grid_k=10,
    grid_l=10,
    restarts=20,
    fmt="csv",
):
    """Ratio of the grid matching cost to the quadratic cost as the second
    space drifts away from the first along a fixed random direction.

    The quadratic side is the debiased value: near t = 0 the raw primal is
    dominated by the entropic bias (order eps^2), which the two self terms
    cancel to second order in t, so the reported ratio tracks the true one
    all the way down to identical spaces (where it is 1 by the floor rule).
    """
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, 2))
    delta = rng.normal(size=(n, 2))
    X = geometry.space_from_points(base, label="x")
    cfg = UgwConfig(eps=eps, rho1=rho, rho2=rho)
    spec = ConeMetricSpec("gh", rho=rho)
    check_grid(grid_k, grid_l, restarts)

    def solve(Y):
        deb = debiased_ugw(X, Y, cfg)
        res = solve_cgw(X, Y, spec, K=grid_k, L=grid_l, restarts=restarts, seed=seed)
        return {"ratio": _floored_ratio(res.cost, deb.value), "ugw_debiased": deb.value,
                "ugw_cross": deb.cross, "cgw_cost": res.cost, "converged": deb.converged}

    fields = ["t", "ratio", "ugw_debiased", "ugw_cross", "cgw_cost", "converged", "error"]
    cases = (({"t": t}, geometry.space_from_points(base + t * delta, label="y")) for t in ts)
    rows, ok = _sweep(fields, cases, solve)
    config = {"n": n, "ts": list(ts), "rho": rho, "eps": eps, "grid_k": grid_k,
              "grid_l": grid_l, "restarts": restarts}
    return _publish("perturb", out_dir, seed, fmt, config, [("perturb", rows, fields)],
                    rows=rows, converged=ok)


def run_ratio_hist(
    out_dir=".",
    seed=0,
    ns=(2, 3, 5),
    trials=50,
    rho=0.1,
    eps=1e-3,
    grid_k=10,
    grid_l=10,
    restarts=20,
    fmt="csv",
):
    """Histogram of grid-to-quadratic cost ratios over random pairs."""
    cfg = UgwConfig(eps=eps, rho1=rho, rho2=rho)
    spec = ConeMetricSpec("gh", rho=rho)
    check_grid(grid_k, grid_l, restarts)
    ratios = {n: [] for n in ns}

    def cases():
        for n in ns:
            for trial in range(trials):
                rng = np.random.default_rng([seed, n, trial])
                yield {"n": n, "trial": trial}, n, trial, *_random_pair(rng, n)

    def solve(n, trial, X, Y):
        ratio, sol, _ = cgw_ugw_ratio(X, Y, rho, eps, K=grid_k, L=grid_l, restarts=restarts,
                                      seed=seed * 1000 + trial, cfg=cfg, spec=spec)
        ratios[n].append(ratio)
        return {"ratio": ratio, "converged": sol.converged}

    fields = ["n", "trial", "ratio", "converged", "error"]
    rows, ok = _sweep(fields, cases(), solve)
    bins = np.arange(0.95, 1.31, 0.01)
    hist_rows = []
    for n in ns:
        counts, edges = np.histogram(ratios[n], bins=bins)
        overflow = sum(1 for r in ratios[n] if r >= bins[-1])
        underflow = sum(1 for r in ratios[n] if r < bins[0])
        for lo, hi, cnt in zip(edges[:-1], edges[1:], counts):
            hist_rows.append({"n": n, "bin_lo": round(lo, 4), "bin_hi": round(hi, 4),
                              "count": int(cnt)})
        hist_rows.append({"n": n, "bin_lo": round(bins[-1], 4), "bin_hi": math.inf,
                          "count": overflow})
        hist_rows.append({"n": n, "bin_lo": -math.inf, "bin_hi": round(bins[0], 4),
                          "count": underflow})
    config = {"ns": list(ns), "trials": trials, "rho": rho, "eps": eps,
              "grid_k": grid_k, "grid_l": grid_l, "restarts": restarts}
    tables = [("ratio_hist_trials", rows, fields),
              ("ratio_hist", hist_rows, ["n", "bin_lo", "bin_hi", "count"])]
    return _publish("ratio_hist", out_dir, seed, fmt, config, tables,
                    rows=rows, hist=hist_rows, ratios=ratios, converged=ok)


def run_moons(
    out_dir=".",
    seed=0,
    seeds=(),
    n=30,
    n_outliers=3,
    rhos=(10.0, 1.0, 0.1, 0.01),
    eps=1e-2,
    tol_pot=UgwConfig.tol_pot,
    max_outer=3000,
    fmt="csv",
):
    """Mass assigned to far-away outlier points as the marginal penalty drops.

    X carries the outliers, Y is a clean draw; the row marginal of the plan
    restricted to outlier atoms is reported per rho. Each of ``seeds`` draws
    one pair of clouds; no seeds means the single cloud of ``seed``.
    """
    seeds = list(seeds) or [seed]
    cfgs = {rho: UgwConfig(eps=eps, rho1=rho, rho2=rho, tol_pot=tol_pot, max_outer=max_outer)
            for rho in rhos}

    def cases():
        for sd in seeds:
            cloud = geometry.gen_shape("two_moons_outliers", n, sd, n_outliers=n_outliers)
            clean = geometry.gen_shape("two_moons_outliers", n, sd + 10_000, n_outliers=0)
            X = geometry.space_from_points(cloud, label="moons+outliers")
            Y = geometry.space_from_points(clean, label="moons")
            outlier_idx = np.nonzero(cloud.tags[X.kept] == -1)[0]
            for rho in rhos:
                yield {"seed": sd, "rho": rho}, X, Y, outlier_idx, rho

    def solve(X, Y, outlier_idx, rho):
        sol = solve_ugw(X, Y, cfgs[rho])
        mass = float(sol.pi.row_marginal[outlier_idx].sum())
        share = sol.pi.mass / X.n
        return {
            "outlier_mass": mass,
            "per_point_share": share,
            "mass_over_share": mass / share if share > 0 else math.inf,
            "plan_mass": sol.pi.mass,
            "inner_capped": sol.diagnostics["inner_capped"],
            **_ending(sol),
        }

    fields = ["seed", "rho", "outlier_mass", "per_point_share", "mass_over_share",
              "plan_mass", "converged", "inner_capped", "stop_reason", "damped_from", "error"]
    rows, ok = _sweep(fields, cases(), solve)
    config = {"seeds": seeds, "n": n, "n_outliers": n_outliers,
              "rhos": list(rhos), "eps": eps, "tol_pot": tol_pot, "max_outer": max_outer}
    return _publish("moons", out_dir, seed, fmt, config, [("moons", rows, fields)],
                    rows=rows, converged=ok)


def run_graph_match(
    out_dir=".",
    seed=0,
    n=20,
    n_outliers=2,
    eps_grid=(1e-2, 1e-1),
    rho_grid=(0.1, 1.0, math.inf),
    max_outer=3000,
    fmt="csv",
):
    """Plans between a community graph with outliers and a clean one, across
    the regularization grid (rho = inf runs the balanced mode)."""
    cfgs = {(eps, rho): UgwConfig(eps=eps, rho1=rho, rho2=rho, max_outer=max_outer)
            for eps in eps_grid for rho in rho_grid}
    g = geometry.gen_shape("community_graph", n, seed, n_outliers=n_outliers)
    g_clean = geometry.gen_shape("community_graph", n, seed + 10_000, n_outliers=0)
    X = geometry.space_from_graph(g, label="graph+outliers")
    Y = geometry.space_from_graph(g_clean, label="graph")

    def solve(eps, rho):
        sol = solve_ugw(X, Y, cfgs[eps, rho])
        plan_file = f"graph_match_plan_eps{eps:g}_rho{rho:g}.csv"
        save_plan(sol.pi, os.path.join(out_dir, plan_file))
        return {"cost_biconvex": sol.cost_biconvex, "plan_mass": sol.pi.mass,
                "iterations": sol.outer_iterations, **_ending(sol), "plan_file": plan_file}

    fields = ["eps", "rho", "cost_biconvex", "plan_mass", "iterations", "converged",
              "stop_reason", "damped_from", "plan_file", "error"]
    cases = (({"eps": eps, "rho": rho}, eps, rho)
             for eps in eps_grid for rho in rho_grid)
    rows, ok = _sweep(fields, cases, solve)
    config = {"n": n, "n_outliers": n_outliers, "eps_grid": list(eps_grid),
              "rho_grid": list(rho_grid), "max_outer": max_outer}
    plans = [os.path.join(out_dir, row["plan_file"]) for row in rows if row["plan_file"]]
    return _publish("graph_match", out_dir, seed, fmt, config,
                    [("graph_match", rows, fields)], plans, rows=rows, converged=ok)


def run_scale_bias(
    out_dir=".",
    seed=0,
    n=5,
    rho=0.1,
    kappas=(0.25, 0.5, 1.0, 2.0, 4.0),
    b_target=0.55,
    fmt="csv",
):
    """Optimal-scale comparison table on kappa-rescaled probability measures.

    The instance's distance matrices are normalized so the product plan's
    distortion hits b_target, which puts the theta crossover near kappa = 1
    for the default rho; b_target = 0 leaves them as drawn.
    """
    if not 0 <= b_target < math.inf:
        raise ValueError("b_target must be nonnegative and finite")
    rng = np.random.default_rng(seed)
    X, Y = _random_pair(rng, n)
    pi = np.outer(X.weights, Y.weights)
    b0 = distortion_cost(X.dist, Y.dist, pi)
    if b0 > 0 and b_target:
        # the distortion functional is quadratic in the squared distances,
        # every term picks up c^2 when both matrices are scaled by c
        c = (b_target / b0) ** 0.5
        X = MmSpace(c * X.dist, X.weights, "x")
        Y = MmSpace(c * Y.dist, Y.weights, "y")
    reports = scaling_bias_report(X, Y, pi, rho, kappas)
    rows = [asdict(r) for r in reports]
    for row in rows:
        row["theta_gap"] = row["theta_quadratic"] - row["theta_linear"]
    fields = ["kappa", "theta_quadratic", "theta_linear", "foc_residual_quadratic",
              "foc_residual_linear", "theta_gap"]
    config = {"n": n, "rho": rho, "kappas": list(kappas), "b_target": b_target}
    return _publish("scale_bias", out_dir, seed, fmt, config, [("scale_bias", rows, fields)],
                    rows=rows, reports=reports, converged=True)


def run_pu(
    out_dir=".",
    seed=0,
    folds=3,
    n_pos=20,
    n_unlabeled_pos=30,
    n_unlabeled_neg=15,
    eps=2.0**-9,
    rho_grid=tuple(2.0**-k for k in range(5, 11)),
    max_outer=3000,
    fmt="csv",
):
    """Positive-unlabeled pipeline on synthetic two-cluster folds.

    Positives and the positive part of the unlabeled pool come from one
    Gaussian cluster, negatives from a shifted one. The plan's column
    marginal ranks the unlabeled points; accuracy is measured against the
    generating labels across the rho validation grid.
    """
    if n_unlabeled_pos + n_unlabeled_neg < 1:
        raise ValueError("the unlabeled pool needs at least one point")
    r = n_unlabeled_pos / (n_unlabeled_pos + n_unlabeled_neg)
    truth = np.concatenate([np.ones(n_unlabeled_pos, int), -np.ones(n_unlabeled_neg, int)])
    cfgs = {rho: UgwConfig(eps=eps, rho1=rho, rho2=rho, max_outer=max_outer) for rho in rho_grid}

    def cases():
        for fold in range(folds):
            rng = np.random.default_rng([seed, fold])
            pos = rng.normal(0.0, 0.3, size=(n_pos, 2))
            upos = rng.normal(0.0, 0.3, size=(n_unlabeled_pos, 2))
            uneg = rng.normal(2.5, 0.3, size=(n_unlabeled_neg, 2))
            X = geometry.space_from_points(pos, label="positives")
            Y = geometry.space_from_points(np.vstack([upos, uneg]), label="unlabeled")
            for rho in rho_grid:
                yield {"fold": fold, "rho": rho}, X, Y, rho

    def solve(X, Y, rho):
        sol = solve_ugw(X, Y, cfgs[rho])
        labels = pu_predict(sol.pi, r)
        return {"accuracy": float(np.mean(labels == truth)), **_ending(sol)}

    fields = ["fold", "rho", "accuracy", "converged", "stop_reason", "damped_from", "error"]
    rows, ok = _sweep(fields, cases(), solve)
    config = {"folds": folds, "n_pos": n_pos, "n_unlabeled_pos": n_unlabeled_pos,
              "n_unlabeled_neg": n_unlabeled_neg, "eps": eps, "rho_grid": list(rho_grid),
              "max_outer": max_outer, "positive_ratio": r}
    return _publish("pu", out_dir, seed, fmt, config, [("pu", rows, fields)],
                    rows=rows, converged=ok)

"""Command line entry point.

Subcommands cover the individual solvers (uot, ugw, gw, flb, cgw, scale),
dataset generation (gen), and the experiment drivers (ratio-hist, perturb,
moons, graph-match, scale-bias, pu). A driver's flags are the keyword
parameters of its ``app.run_*`` function, dashes for underscores, parsed to
the type of the parameter's default; an unset flag leaves that default in
place. Global flags: --seed, --out, --format, --config. A config file holds
key=value lines mirroring the flag names (dashes or underscores); explicit
flags win over the file. The process exits 0 only if every solve it ran
converged, 1 otherwise, and 2 with a one-line message on bad input (an
unreadable file or value, or parameters a solver rejects). Drivers record a
failing trial in its row and go on.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys

import numpy as np

from . import __version__, app, geometry
from .conic import ConeMetricSpec, solve_cgw
from .flb import solve_flb
from .measures import MmSpace
from .scaling import scaling_bias_report
from .sinkhorn import uot_sinkhorn
from .ugw import UgwConfig, debiased_ugw, solve_ugw

__all__ = ["main"]

def _to_float(tok):
    tok = str(tok).strip().lower()
    if tok in ("inf", "+inf"):
        return math.inf
    return float(tok)


def _coerce(value, default):
    """A flag or config value parsed to the type of the default it replaces.

    An int default gives int, a float default float (inf accepted). A tuple
    default gives a list, from a comma-separated string or a single number:
    of ints when every element of the default is an int, else of floats.
    Any other default (None, a string, a switch) takes the value as it is.
    """
    if isinstance(default, tuple):
        if isinstance(value, (list, tuple)):
            items = value
        elif isinstance(value, (int, float)):
            items = [value]
        else:
            items = [tok for tok in str(value).split(",") if tok.strip()]
        floats = [_to_float(v) for v in items]
        return [int(v) for v in floats] if all(isinstance(d, int) for d in default) else floats
    if isinstance(default, bool) or not isinstance(default, (int, float)):
        return value
    return int(value) if isinstance(default, int) else _to_float(value)


class _Opts:
    """Merged view of CLI flags and the optional config file."""

    def __init__(self, ns, config):
        self.ns = ns
        self.config = config

    def get(self, key, default=None):
        """The value of ``key`` parsed to the type of ``default``; default when unset."""
        value = getattr(self.ns, key, None)
        if value is None:
            value = self.config.get(key, None)
        if value is None:
            return default
        try:
            return _coerce(value, default)
        except (ValueError, OverflowError):
            _fail(f"bad value for --{key.replace('_', '-')}: {value!r}")

    def given(self, defaults):
        """The keys of ``defaults`` that are set, each parsed to its default's type."""
        return {key: self.get(key, default) for key, default in defaults.items()
                if self.get(key) is not None}

    def require(self, key):
        value = self.get(key)
        if value is None:
            _fail(f"missing required option --{key.replace('_', '-')}")
        return value


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_space(opts, key):
    path = opts.require(key)
    weights = opts.get(f"{key}_weights")
    try:
        X = app.load_space(path, weights)
    except (OSError, ValueError) as exc:
        _fail(f"cannot load space from {path}: {exc}")
    if X.label is None:
        return MmSpace(X.dist, X.weights, key)
    return X


def _load_pair(opts):
    return _load_space(opts, "x"), _load_space(opts, "y")


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return path


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns True when every solve converged)


def cmd_gen(opts, out_dir, seed, fmt):
    kind = opts.require("kind")
    # the values only give the types; gen_shape keeps its own defaults
    extra = opts.given({"n_outliers": 0, "noise": 0.0})
    shape = geometry.gen_shape(kind, opts.get("n", 50), seed, **extra)
    if isinstance(shape, geometry.WeightedGraph):
        path = os.path.join(out_dir, f"gen_{kind}.json")
        _write_json(
            {"n": shape.n, "edges": [[int(i), int(j), float(w)] for i, j, w in shape.edges],
             "tags": shape.tags.tolist()},
            path,
        )
    elif fmt == "json":
        path = os.path.join(out_dir, f"gen_{kind}.json")
        _write_json({"points": shape.points.tolist(), "tags": shape.tags.tolist()}, path)
    else:
        path = os.path.join(out_dir, f"gen_{kind}.csv")
        np.savetxt(path, shape.points, delimiter=",")
        if np.any(shape.tags != 0):
            np.savetxt(os.path.join(out_dir, f"gen_{kind}_tags.csv"), shape.tags, fmt="%d")
    print(f"wrote {path}")
    return True


def cmd_uot(opts, out_dir, seed, fmt):
    cost = app.load_matrix(opts.require("cost"))
    mu = app.load_weights(opts.require("mu"))
    nu = app.load_weights(opts.require("nu"))
    rho1 = opts.get("rho", 1.0)
    res = uot_sinkhorn(
        cost, mu, nu, rho1, opts.get("rho2", rho1),
        eps=opts.get("eps", 1e-2),
        tol_pot=opts.get("tol_pot", 1e-6),
        max_inner=opts.get("max_inner", 3000),
    )
    app.save_plan(res.plan, os.path.join(out_dir, "uot_plan.csv"))
    summary = {
        "plan_mass": res.plan.mass,
        "iterations": res.iterations,
        "converged": res.converged,
        "residual": res.residual,
        "transport_cost": float(np.vdot(cost, res.plan.values)),
    }
    _write_json(summary, os.path.join(out_dir, "uot_summary.json"))
    print(f"uot: mass={summary['plan_mass']:.6g} iterations={res.iterations} "
          f"converged={res.converged}")
    return res.converged


def _run_quadratic(opts, out_dir, name, balanced):
    X, Y = _load_pair(opts)
    if balanced:
        rho1 = rho2 = math.inf
        if abs(X.mass - Y.mass) > 1e-9 * (1.0 + X.mass):
            print("warning: balanced mode with unequal total masses will not converge",
                  file=sys.stderr)
    else:
        rho1 = opts.get("rho", 1.0)
        rho2 = opts.get("rho2", rho1)
    cfg = UgwConfig(
        eps=opts.get("eps", 1e-2),
        rho1=rho1,
        rho2=rho2,
        max_outer=opts.get("max_outer", 3000),
        max_inner=opts.get("max_inner", 3000),
        tol_plan=opts.get("tol_plan", 1e-5),
        tol_pot=opts.get("tol_pot", 1e-9),
    )
    init_plan = None
    if opts.get("init", "product") == "flb":
        init_plan = solve_flb(X, Y, (rho1, rho2), eps=cfg.eps).plan.values
    sol = solve_ugw(X, Y, cfg, init_plan=init_plan)
    ok = sol.converged
    summary = {
        "cost_biconvex": sol.cost_biconvex,
        "cost_primal": sol.cost_primal,
        "mass_pi": sol.pi.mass,
        "iterations": sol.outer_iterations,
        "converged": sol.converged,
        "tightness": sol.diagnostics["tightness"],
    }
    if opts.get("debias", False):
        deb = debiased_ugw(X, Y, cfg, cross=sol)
        summary["debiased"] = {
            "value": deb.value,
            "converged": deb.converged,
            "cross": deb.cross,
            "self_x": deb.self_x,
            "self_y": deb.self_y,
        }
        ok = ok and deb.converged
    app.save_plan(sol.pi, os.path.join(out_dir, f"{name}_plan.csv"))
    _write_json(summary, os.path.join(out_dir, f"{name}_summary.json"))
    print(f"{name}: cost_biconvex={sol.cost_biconvex:.6g} mass={sol.pi.mass:.6g} "
          f"iterations={sol.outer_iterations} converged={sol.converged}")
    return ok


def cmd_ugw(opts, out_dir, seed, fmt):
    return _run_quadratic(opts, out_dir, "ugw", balanced=False)


def cmd_gw(opts, out_dir, seed, fmt):
    return _run_quadratic(opts, out_dir, "gw", balanced=True)


def cmd_flb(opts, out_dir, seed, fmt):
    X, Y = _load_pair(opts)
    rho1 = opts.get("rho", 1.0)
    res = solve_flb(
        X, Y, (rho1, opts.get("rho2", rho1)),
        eps=opts.get("eps", 1e-2),
        tol_pot=opts.get("tol_pot", 1e-6),
        max_inner=opts.get("max_inner", 3000),
    )
    app.save_plan(res.plan, os.path.join(out_dir, "flb_plan.csv"))
    summary = {
        "plan_mass": res.plan.mass,
        "iterations": res.iterations,
        "converged": res.converged,
        "residual": res.residual,
    }
    _write_json(summary, os.path.join(out_dir, "flb_summary.json"))
    print(f"flb: mass={summary['plan_mass']:.6g} converged={res.converged}")
    return res.converged


def cmd_cgw(opts, out_dir, seed, fmt):
    X, Y = _load_pair(opts)
    rho = opts.get("rho", 1.0)
    grid = dict(K=opts.get("grid_k", 10), L=opts.get("grid_l", 10),
                restarts=opts.get("restarts", 20), seed=seed)
    with_ugw = opts.get("with_ugw", False)
    if with_ugw:
        cfg = UgwConfig(eps=opts.get("eps", 1e-2), rho1=rho, rho2=rho,
                        tol_pot=opts.get("tol_pot", 1e-11))
        ratio, sol, res = app.cgw_ugw_ratio(X, Y, rho, cfg.eps, cfg=cfg, **grid)
    else:
        res = solve_cgw(X, Y, ConeMetricSpec("gh", rho=rho), **grid)
    summary = {
        "cost": res.cost,
        "restart_costs": [entry["cost"] for entry in res.restart_log],
        "lp_pivots": sum(entry["pivots"] for entry in res.restart_log),
        "unconverged_restarts": sum(not entry["converged"] for entry in res.restart_log),
    }
    if with_ugw:
        summary["ratio_vs_ugw"] = ratio
        summary["ugw_primal"] = sol.primal_unregularized
    app.save_atoms(res.alpha.to_atoms(), os.path.join(out_dir, "cgw_plan.csv"))
    _write_json(summary, os.path.join(out_dir, "cgw_summary.json"))
    print(f"cgw: cost={res.cost:.6g} restarts={len(res.restart_log)}")
    return sol.converged if with_ugw else True


def cmd_scale(opts, out_dir, seed, fmt):
    X, Y = _load_pair(opts)
    pi = np.outer(X.weights, Y.weights)
    reports = scaling_bias_report(X, Y, pi, opts.get("rho", 1.0),
                                  opts.get("kappas", (0.25, 0.5, 1.0, 2.0, 4.0)))
    fields = ["kappa", "theta_quadratic", "theta_linear", "foc_residual_quadratic",
              "foc_residual_linear"]
    rows = [{key: getattr(r, key) for key in fields} for r in reports]
    path = app.write_table(rows, fields, os.path.join(out_dir, "scale"), fmt)
    print(f"wrote {path}")
    return True


# ---------------------------------------------------------------------------
# Experiment drivers: subcommand name -> app.run_* function


_DRIVERS = {
    "ratio-hist": app.run_ratio_hist,
    "perturb": app.run_perturb,
    "moons": app.run_moons,
    "graph-match": app.run_graph_match,
    "scale-bias": app.run_scale_bias,
    "pu": app.run_pu,
}


def _driver_defaults(run):
    """The driver's keyword parameters and defaults, bar the global ones."""
    return {key: param.default for key, param in inspect.signature(run).parameters.items()
            if key not in ("out_dir", "seed", "fmt")}


def cmd_sweep(run, opts, out_dir, seed, fmt):
    result = run(out_dir=out_dir, seed=seed, fmt=fmt, **opts.given(_driver_defaults(run)))
    for f in result["files"]:
        print(f"wrote {f}")
    return result["converged"]


def _flag_help(default):
    if not isinstance(default, tuple):
        return f"default {default}"
    shown = ",".join(str(v) for v in default)
    return f"comma-separated list (default {shown})" if shown else "comma-separated list"


# ---------------------------------------------------------------------------
# Parser assembly


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="global RNG seed (default 0)")
    common.add_argument("--out", default=None, help="output directory (default .)")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="table format (default csv)")
    common.add_argument("--config", default=None,
                        help="key=value file mirroring the flag names")

    parser = argparse.ArgumentParser(prog="ugwkit", description=__doc__,
                                     parents=[common],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"ugwkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def solver_flags(p):
        p.add_argument("--rho", default=None, help="marginal penalty (inf for balanced)")
        p.add_argument("--rho2", default=None, help="second-marginal penalty (default rho)")
        p.add_argument("--eps", default=None, help="entropic strength")
        p.add_argument("--tol-pot", default=None, help="potential stopping tolerance")
        p.add_argument("--max-inner", default=None, help="inner iteration cap")

    def space_flags(p):
        p.add_argument("--x", default=None, help="first space (.json, or matrix CSV)")
        p.add_argument("--y", default=None, help="second space")
        p.add_argument("--x-weights", default=None, help="weights file for a CSV space")
        p.add_argument("--y-weights", default=None)

    p = sub.add_parser("gen", parents=[common], help="sample a synthetic shape or graph")
    p.add_argument("--kind", choices=geometry.SHAPE_KINDS, default=None)
    p.add_argument("--n", default=None, help="number of points / nodes")
    p.add_argument("--n-outliers", default=None)
    p.add_argument("--noise", default=None)

    p = sub.add_parser("uot", parents=[common], help="unbalanced OT for a fixed cost matrix")
    p.add_argument("--cost", default=None, help="cost matrix CSV")
    p.add_argument("--mu", default=None, help="source weights, one float per line")
    p.add_argument("--nu", default=None, help="target weights, one float per line")
    solver_flags(p)

    for name, help_text in (("ugw", "unbalanced quadratic matching"),
                            ("gw", "balanced quadratic matching (rho = inf)")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        space_flags(p)
        if name == "ugw":
            p.add_argument("--rho", default=None)
            p.add_argument("--rho2", default=None)
        p.add_argument("--eps", default=None)
        p.add_argument("--max-outer", default=None)
        p.add_argument("--max-inner", default=None)
        p.add_argument("--tol-plan", default=None)
        p.add_argument("--tol-pot", default=None)
        p.add_argument("--init", choices=("product", "flb"), default=None,
                       help="initial plan (default product)")
        p.add_argument("--debias", action="store_const", const=True, default=None,
                       help="also report the debiased cost (two more solves)")

    p = sub.add_parser("flb", parents=[common],
                       help="eccentricity-profile lower-bound matching")
    space_flags(p)
    solver_flags(p)

    p = sub.add_parser("cgw", parents=[common], help="conic grid matching")
    space_flags(p)
    p.add_argument("--rho", default=None)
    p.add_argument("--grid-k", default=None)
    p.add_argument("--grid-l", default=None)
    p.add_argument("--restarts", default=None)
    p.add_argument("--with-ugw", action="store_const", const=True, default=None,
                   help="also solve the quadratic problem and report the ratio")
    p.add_argument("--eps", default=None, help="entropic strength for --with-ugw")
    p.add_argument("--tol-pot", default=None, help="potential tolerance for --with-ugw")

    p = sub.add_parser("scale", parents=[common], help="optimal-scale comparison table")
    space_flags(p)
    p.add_argument("--rho", default=None)
    p.add_argument("--kappas", default=None, help="comma-separated mass multipliers")

    for name, run in _DRIVERS.items():
        summary = " ".join(inspect.getdoc(run).split("\n\n")[0].split()).rstrip(".")
        p = sub.add_parser(name, parents=[common], help=summary)
        for key, default in _driver_defaults(run).items():
            p.add_argument("--" + key.replace("_", "-"), default=None, help=_flag_help(default))

    return parser


_HANDLERS = {
    "gen": cmd_gen,
    "uot": cmd_uot,
    "ugw": cmd_ugw,
    "gw": cmd_gw,
    "flb": cmd_flb,
    "cgw": cmd_cgw,
    "scale": cmd_scale,
    **{name: functools.partial(cmd_sweep, run) for name, run in _DRIVERS.items()},
}


def main(argv=None):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    config = {}
    if ns.config is not None:
        try:
            config = app.read_config(ns.config)
        except (OSError, ValueError) as exc:
            _fail(str(exc))
    opts = _Opts(ns, config)
    seed = opts.get("seed", 0)
    out_dir = str(opts.get("out", "."))
    fmt = str(opts.get("format", "csv"))
    os.makedirs(out_dir, exist_ok=True)
    try:
        ok = _HANDLERS[ns.command](opts, out_dir, seed, fmt)
    except (ValueError, FloatingPointError) as exc:
        _fail(str(exc))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

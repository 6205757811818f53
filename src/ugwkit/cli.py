"""Command line entry point.

The subcommands are the solvers (uot, ugw, gw, flb, cgw, scale), dataset
generation (gen) and the experiment drivers (ratio-hist, perturb, moons,
graph-match, scale-bias, pu). One rule gives every flag: a subcommand's
flags are the keyword parameters of the function it runs (``_COMMANDS``),
dashes for underscores. A solver handler takes the parameters it passes on
as its own, defaults and all: uot those of ``uot_sinkhorn``, ugw and gw the
``UgwConfig`` fields, flb those of ``solve_flb``, cgw those of
``app.cgw_ugw_ratio``. A value is parsed to the type of the default (the
annotated type for a None default); no default makes a required flag, a
bool default a switch, and an unset flag keeps the default. --x and --y
name a .json space, or a distance-matrix CSV with its weights file in
--x-weights / --y-weights.

Global flags: --seed, --out, --format, --config, before or after the
subcommand name (the one after it wins). A config file holds key=value lines
mirroring the flag names (dashes or underscores); explicit flags win over
the file. The process exits 0 only if every solve it ran converged, 1
otherwise, and 2 with a one-line message on bad input (an unreadable file or
value, or parameters a solver rejects). Drivers record a failing trial in
its row and go on.
"""

import argparse
import inspect
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, app, geometry
from .conic import ConeMetricSpec, solve_cgw
from .flb import solve_flb
from .measures import MmSpace
from .scaling import scaling_bias_report
from .sinkhorn import uot_sinkhorn
from .ugw import UgwConfig, debiased_ugw, solve_ugw

__all__ = ["main"]

# parameters every subcommand function takes from the global flags
_GLOBAL = ("out_dir", "seed", "fmt")


def _to_float(tok):
    tok = str(tok).strip().lower()
    if tok in ("inf", "+inf"):
        return math.inf
    return float(tok)


def _to_int(tok):
    """An int from an integral number or its text; 2.5 is refused, not cut to 2."""
    if type(tok) is int:
        return tok
    number = _to_float(tok)
    if not number.is_integer():
        raise ValueError(f"not an integer: {tok!r}")
    return int(number)


def _coerce(value, like):
    """A flag or config value parsed to the type of ``like``.

    ``like`` is a parameter's default, or its annotated type. int gives int
    (integral numbers only), float gives float (inf accepted). A tuple gives
    a list, from a comma-separated string or a single number: of ints when
    every element of the tuple is an int, else of floats. A switch (bool)
    takes only a bool: a config file's true or false, in any case. Anything
    else (None, a string) takes the value as it is.
    """
    if isinstance(like, tuple):
        if isinstance(value, (list, tuple)):
            items = value
        elif isinstance(value, (int, float)):
            items = [value]
        else:
            items = [tok for tok in str(value).split(",") if tok.strip()]
        parse = _to_int if all(isinstance(d, int) for d in like) else _to_float
        return [parse(v) for v in items]
    kind = like if isinstance(like, type) else type(like)
    if kind is bool and type(value) is not bool:
        raise ValueError(f"not true or false: {value!r}")
    if kind is int:
        return _to_int(value)
    return _to_float(value) if kind is float else value


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _flags(run):
    """The flag parameters of ``run``: its keyword parameters bar the global ones."""
    return {key: param for key, param in inspect.signature(run).parameters.items()
            if key not in _GLOBAL}


def _like(param):
    """What a flag is parsed like: its default, or its annotation for a None default."""
    if param.default is None and param.annotation is not param.empty:
        return param.annotation
    return param.default


def _flag_help(param):
    if param.default is param.empty:
        return "required"
    if param.default is None:
        return "optional"
    if not isinstance(param.default, tuple):
        return f"default {param.default}"
    shown = ",".join(str(v) for v in param.default)
    return f"comma-separated list (default {shown})" if shown else "comma-separated list"


def _passes_on(source, *names):
    """Make the keyword parameters ``names`` of ``source``, defaults and all,
    flags of the decorated handler, which takes the ones set in ``**kwargs``."""
    params = inspect.signature(source).parameters
    extra = [params[name].replace(kind=inspect.Parameter.KEYWORD_ONLY) for name in names]

    def wrap(handler):
        sig = inspect.signature(handler)
        own = [p for p in sig.parameters.values() if p.kind is not p.VAR_KEYWORD]
        handler.__signature__ = sig.replace(parameters=own + extra)
        return handler

    return wrap


def _load(loader, path, what, *args):
    try:
        return loader(path, *args)
    except (OSError, ValueError) as exc:
        _fail(f"cannot load {what} from {path}: {exc}")


def _load_space(path, weights, label):
    X = _load(app.load_space, path, "space", weights)
    if X.label is None:
        return MmSpace(X.dist, X.weights, label)
    return X


def _load_pair(x, y, x_weights, y_weights):
    return _load_space(x, x_weights, "x"), _load_space(y, y_weights, "y")


def _sinkhorn_summary(res, **extra):
    """The summary JSON of a uot_sinkhorn result, ``extra`` keys last."""
    return {"plan_mass": res.plan.mass, "iterations": res.iterations,
            "newton_steps": res.newton_steps, "converged": res.converged,
            "residual": res.residual, **extra}


# ---------------------------------------------------------------------------
# Solver subcommands (each returns True when every solve converged)


def cmd_gen(out_dir, seed, fmt, kind, n=50, n_outliers: int = None, noise: float = None):
    """Sample a synthetic shape or graph.

    kind is one of ellipse2d, ellipse3d, square, sphere, two_moons_outliers
    and community_graph; an unset n-outliers or noise keeps the kind's own
    default.
    """
    extra = {key: value for key, value in (("n_outliers", n_outliers), ("noise", noise))
             if value is not None}
    shape = geometry.gen_shape(kind, n, seed, **extra)
    if isinstance(shape, geometry.WeightedGraph):
        path = os.path.join(out_dir, f"gen_{kind}.json")
        edges = [[int(i), int(j), float(w)] for i, j, w in shape.edges]
        app.write_json({"n": shape.n, "edges": edges, "tags": shape.tags.tolist()}, path)
    elif fmt == "json":
        path = os.path.join(out_dir, f"gen_{kind}.json")
        app.write_json({"points": shape.points.tolist(), "tags": shape.tags.tolist()}, path)
    else:
        path = os.path.join(out_dir, f"gen_{kind}.csv")
        np.savetxt(path, shape.points, delimiter=",")
        if np.any(shape.tags != 0):
            np.savetxt(os.path.join(out_dir, f"gen_{kind}_tags.csv"), shape.tags, fmt="%d")
    print(f"wrote {path}")
    return True


@_passes_on(uot_sinkhorn, "eps", "tol_pot", "max_inner")
def cmd_uot(out_dir, seed, fmt, cost, mu, nu, rho=1.0, rho2: float = None, **sinkhorn):
    """Unbalanced OT for a fixed cost matrix.

    cost is a matrix CSV, mu and nu weight files; rho2 defaults to rho.
    """
    cost = _load(app.load_matrix, cost, "cost matrix")
    mu = _load(app.load_weights, mu, "weights")
    nu = _load(app.load_weights, nu, "weights")
    res = uot_sinkhorn(cost, mu, nu, rho, rho if rho2 is None else rho2, **sinkhorn)
    app.save_plan(res.plan, os.path.join(out_dir, "uot_plan.csv"))
    summary = _sinkhorn_summary(res, transport_cost=float(np.vdot(cost, res.plan.values)))
    app.write_json(summary, os.path.join(out_dir, "uot_summary.json"))
    print(f"uot: mass={res.plan.mass:.6g} iterations={res.iterations} "
          f"converged={res.converged}")
    return res.converged


def _run_quadratic(out_dir, name, X, Y, cfg, init, debias):
    if init not in ("product", "flb"):
        raise ValueError(f"unknown init {init!r}; choose product or flb")
    init_plan = None
    if init == "flb":
        init_plan = solve_flb(X, Y, (cfg.rho1, cfg.rho2), eps=cfg.eps).plan.values
    sol = solve_ugw(X, Y, cfg, init_plan=init_plan)
    ok = sol.converged
    summary = {"cost_biconvex": sol.cost_biconvex, "cost_primal": sol.cost_primal,
               "mass_pi": sol.pi.mass, "iterations": sol.outer_iterations,
               "converged": sol.converged,
               **{key: sol.diagnostics[key] for key in ("sweeps", "newton_steps", "stop_reason",
                                                          "damped_from", "symmetric")},
               "tightness": sol.diagnostics["tightness"]}
    if debias:
        deb = debiased_ugw(X, Y, cfg, cross=sol)
        summary["debiased"] = asdict(deb)
        ok = ok and deb.converged
    app.save_plan(sol.pi, os.path.join(out_dir, f"{name}_plan.csv"))
    app.write_json(summary, os.path.join(out_dir, f"{name}_summary.json"))
    print(f"{name}: cost_biconvex={sol.cost_biconvex:.6g} mass={sol.pi.mass:.6g} "
          f"iterations={sol.outer_iterations} converged={sol.converged}")
    return ok


_UGW_FIELDS = ("eps", "max_outer", "max_inner", "tol_plan", "tol_pot")


@_passes_on(UgwConfig, *_UGW_FIELDS)
def cmd_ugw(out_dir, seed, fmt, x, y, x_weights=None, y_weights=None, rho=1.0,
            rho2: float = None, init="product", debias=False, **cfg):
    """Unbalanced quadratic matching.

    rho2 defaults to rho; init is product or flb; debias adds the debiased
    cost (two more solves).
    """
    X, Y = _load_pair(x, y, x_weights, y_weights)
    cfg = UgwConfig(rho1=rho, rho2=rho2, **cfg)
    return _run_quadratic(out_dir, "ugw", X, Y, cfg, init, debias)


@_passes_on(UgwConfig, *_UGW_FIELDS)
def cmd_gw(out_dir, seed, fmt, x, y, x_weights=None, y_weights=None, init="product",
           debias=False, **cfg):
    """Balanced quadratic matching (rho = inf)."""
    X, Y = _load_pair(x, y, x_weights, y_weights)
    if abs(X.mass - Y.mass) > 1e-9 * (1.0 + X.mass):
        print("warning: balanced mode with unequal total masses will not converge",
              file=sys.stderr)
    cfg = UgwConfig(rho1=math.inf, rho2=math.inf, **cfg)
    return _run_quadratic(out_dir, "gw", X, Y, cfg, init, debias)


@_passes_on(solve_flb, "eps", "tol_pot", "max_inner")
def cmd_flb(out_dir, seed, fmt, x, y, x_weights=None, y_weights=None, rho=1.0,
            rho2: float = None, **sinkhorn):
    """Eccentricity-profile lower-bound matching.

    rho2 defaults to rho.
    """
    X, Y = _load_pair(x, y, x_weights, y_weights)
    res = solve_flb(X, Y, (rho, rho if rho2 is None else rho2), **sinkhorn)
    app.save_plan(res.plan, os.path.join(out_dir, "flb_plan.csv"))
    app.write_json(_sinkhorn_summary(res), os.path.join(out_dir, "flb_summary.json"))
    print(f"flb: mass={res.plan.mass:.6g} converged={res.converged}")
    return res.converged


@_passes_on(app.cgw_ugw_ratio, "eps")
def cmd_cgw(out_dir, seed, fmt, x, y, x_weights=None, y_weights=None, rho=1.0, grid_k=10,
            grid_l=10, restarts=20, with_ugw=False, **ugw):
    """Conic grid matching.

    with-ugw also solves the quadratic problem (at eps) and reports the
    ratio.
    """
    X, Y = _load_pair(x, y, x_weights, y_weights)
    grid = dict(K=grid_k, L=grid_l, restarts=restarts, seed=seed)
    if with_ugw:
        ratio, sol, res = app.cgw_ugw_ratio(X, Y, rho, **ugw, **grid)
    else:
        res = solve_cgw(X, Y, ConeMetricSpec("gh", rho=rho), **grid)
    log = res.restart_log
    summary = {"cost": res.cost, "restart_costs": [entry["cost"] for entry in log],
               "lp_pivots": sum(entry["pivots"] for entry in log),
               "unconverged_restarts": sum(not entry["converged"] for entry in log),
               "reused_restarts": sum(entry["reused_from"] is not None for entry in log)}
    if with_ugw:
        summary["ratio_vs_ugw"] = ratio
        summary["ugw_primal"] = sol.primal_unregularized
    app.save_atoms(res.alpha.to_atoms(), os.path.join(out_dir, "cgw_plan.csv"))
    app.write_json(summary, os.path.join(out_dir, "cgw_summary.json"))
    print(f"cgw: cost={res.cost:.6g} restarts={len(log)}")
    return sol.converged if with_ugw else True


def cmd_scale(out_dir, seed, fmt, x, y, x_weights=None, y_weights=None, rho=1.0,
              kappas=(0.25, 0.5, 1.0, 2.0, 4.0)):
    """Optimal-scale comparison table."""
    X, Y = _load_pair(x, y, x_weights, y_weights)
    with np.errstate(over="ignore"):  # an infinite product mass is refused below
        pi = np.outer(X.weights, Y.weights)
    reports = scaling_bias_report(X, Y, pi, rho, kappas)
    fields = ["kappa", "theta_quadratic", "theta_linear", "foc_residual_quadratic",
              "foc_residual_linear"]
    rows = [{key: getattr(r, key) for key in fields} for r in reports]
    path = app.write_table(rows, fields, os.path.join(out_dir, "scale"), fmt)
    print(f"wrote {path}")
    return True


# ---------------------------------------------------------------------------
# Subcommand name -> the function it runs. A driver returns its result dict,
# a solver handler whether every solve converged.


_COMMANDS = {
    "gen": cmd_gen,
    "uot": cmd_uot,
    "ugw": cmd_ugw,
    "gw": cmd_gw,
    "flb": cmd_flb,
    "cgw": cmd_cgw,
    "scale": cmd_scale,
    "ratio-hist": app.run_ratio_hist,
    "perturb": app.run_perturb,
    "moons": app.run_moons,
    "graph-match": app.run_graph_match,
    "scale-bias": app.run_scale_bias,
    "pu": app.run_pu,
}


def _build_parser():
    # an unset global flag sets nothing: the value after the subcommand name wins
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", help="global RNG seed (default 0)")
    common.add_argument("--out", help="output directory (default .)")
    common.add_argument("--format", help="table format, csv or json (default csv)")
    common.add_argument("--config", help="key=value file mirroring the flag names")

    parser = argparse.ArgumentParser(prog="ugwkit", description=__doc__,
                                     parents=[common],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"ugwkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in _COMMANDS.items():
        summary = " ".join(inspect.getdoc(run).split("\n\n")[0].split()).rstrip(".")
        p = sub.add_parser(name, parents=[common], help=summary, description=inspect.getdoc(run))
        for key, param in _flags(run).items():
            flag = "--" + key.replace("_", "-")
            if isinstance(param.default, bool):
                p.add_argument(flag, action="store_const", const=True, default=None,
                               help="switch")
            else:
                p.add_argument(flag, default=None, help=_flag_help(param))
    return parser


def main(argv=None):
    ns = _build_parser().parse_args(argv)
    config = {}
    if "config" in ns:
        try:
            config = app.read_config(ns.config)
        except (OSError, ValueError) as exc:
            _fail(str(exc))
    # the set flags, from the command line or else the config file
    values = {key: value for key, value in config.items() if value is not None}
    values.update((key, value) for key, value in vars(ns).items() if value is not None)

    def parsed(key, like):
        try:
            return _coerce(values[key], like)
        except (ValueError, OverflowError):
            _fail(f"bad value for --{key.replace('_', '-')}: {values[key]!r}")

    run = _COMMANDS[ns.command]
    kwargs = {}
    for key, param in _flags(run).items():
        if key in values:
            kwargs[key] = parsed(key, _like(param))
        elif param.default is param.empty:
            _fail(f"missing required option --{key.replace('_', '-')}")
    seed = parsed("seed", 0) if "seed" in values else 0
    fmt = str(values.get("format", "csv"))
    if fmt not in ("csv", "json"):
        _fail(f"bad value for --format: {fmt!r}; choose csv or json")
    out_dir = str(values.get("out", "."))
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = run(out_dir=out_dir, seed=seed, fmt=fmt, **kwargs)
    except (ValueError, FloatingPointError) as exc:
        _fail(str(exc))
    if isinstance(result, dict):  # a driver: report the files it wrote
        for path in result["files"]:
            print(f"wrote {path}")
        result = result["converged"]
    return 0 if result else 1


if __name__ == "__main__":
    sys.exit(main())

import functools
import importlib
import inspect
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from ugwkit.app import save_space
from ugwkit.cli import main
from ugwkit.measures import MmSpace
from ugwkit.ugw import UgwConfig

from conftest import random_space


def _space_files(tmp_path, n=3, m=4, seed=0, weight=None):
    """Two random spaces; ``weight`` sets every weight (default uniform probability)."""
    rng = np.random.default_rng(seed)
    stem = "" if weight is None else "heavy_"
    paths = []
    for key, size in (("x", n), ("y", m)):
        X = random_space(rng, size)
        if weight is not None:
            X = MmSpace(X.dist, np.full(size, weight))
        paths.append(str(tmp_path / f"{stem}{key}.json"))
        save_space(X, paths[-1])
    return tuple(paths)


class TestGen:
    def test_points_csv_with_tags(self, tmp_path):
        rc = main(["gen", "--kind", "two_moons_outliers", "--n", "10",
                   "--n-outliers", "2", "--out", str(tmp_path)])
        assert rc == 0
        pts = np.loadtxt(tmp_path / "gen_two_moons_outliers.csv", delimiter=",")
        assert pts.shape == (12, 2)
        tags = np.loadtxt(tmp_path / "gen_two_moons_outliers_tags.csv")
        assert tags.shape == (12,)
        assert np.sum(tags == -1) == 2

    def test_points_json(self, tmp_path):
        rc = main(["gen", "--kind", "ellipse2d", "--n", "6", "--format", "json",
                   "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "gen_ellipse2d.json") as fh:
            payload = json.load(fh)
        assert len(payload["points"]) == 6

    def test_graph_always_json(self, tmp_path):
        rc = main(["gen", "--kind", "community_graph", "--n", "9",
                   "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "gen_community_graph.json") as fh:
            payload = json.load(fh)
        assert payload["n"] == 9
        assert all(len(e) == 3 for e in payload["edges"])

    def test_missing_kind_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "missing required option --kind" in capsys.readouterr().err


class TestConfigMerge:
    def test_config_supplies_missing_flags(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("kind = ellipse2d\nn = 5\n")
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "gen_ellipse2d.csv").exists()

    def test_cli_flag_wins_over_config(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("kind = ellipse2d\n")
        rc = main(["gen", "--config", str(cfg), "--kind", "square", "--n", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "gen_square.csv").exists()
        assert not (tmp_path / "gen_ellipse2d.csv").exists()

    def test_bad_config_fails(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no equals sign here\n")
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "square", "--config", str(cfg)])
        assert exc.value.code == 2


def _uot_files(tmp_path):
    rng = np.random.default_rng(1)
    cost = rng.uniform(0.0, 1.0, size=(3, 4))
    np.savetxt(tmp_path / "cost.csv", cost, delimiter=",")
    np.savetxt(tmp_path / "mu.txt", np.full(3, 0.4))
    np.savetxt(tmp_path / "nu.txt", np.full(4, 0.3))
    return str(tmp_path / "cost.csv"), str(tmp_path / "mu.txt"), str(tmp_path / "nu.txt")


class TestUot:
    def test_round_trip(self, tmp_path):
        cost, mu, nu = _uot_files(tmp_path)
        rc = main(["uot", "--cost", cost, "--mu", mu, "--nu", nu,
                   "--rho", "0.5", "--eps", "0.05", "--out", str(tmp_path)])
        assert rc == 0
        plan = np.loadtxt(tmp_path / "uot_plan.csv", delimiter=",")
        assert plan.shape == (3, 4)
        with open(tmp_path / "uot_summary.json") as fh:
            summary = json.load(fh)
        assert summary["converged"] is True
        assert summary["plan_mass"] == pytest.approx(plan.sum(), rel=1e-9)
        assert summary["newton_steps"] > 0

    def test_unconverged_exit_code(self, tmp_path):
        cost, mu, nu = _uot_files(tmp_path)
        rc = main(["uot", "--cost", cost, "--mu", mu, "--nu", nu,
                   "--max-inner", "1", "--out", str(tmp_path)])
        assert rc == 1


class TestQuadratic:
    def test_ugw_writes_plan_and_summary(self, tmp_path):
        x_path, y_path = _space_files(tmp_path)
        rc = main(["ugw", "--x", x_path, "--y", y_path, "--rho", "1.0",
                   "--eps", "0.05", "--tol-pot", "1e-9", "--out", str(tmp_path)])
        assert rc == 0
        plan = np.loadtxt(tmp_path / "ugw_plan.csv", delimiter=",")
        assert plan.shape == (3, 4)
        with open(tmp_path / "ugw_summary.json") as fh:
            summary = json.load(fh)
        assert summary["converged"] is True
        assert "tightness" in summary
        assert summary["cost_biconvex"] == pytest.approx(summary["cost_primal"], rel=1e-3)

    def test_ugw_debias_and_flb_init(self, tmp_path):
        x_path, y_path = _space_files(tmp_path)
        rc = main(["ugw", "--x", x_path, "--y", y_path, "--eps", "0.05",
                   "--init", "flb", "--debias", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "ugw_summary.json") as fh:
            summary = json.load(fh)
        assert {"value", "cross", "self_x", "self_y", "converged"} <= set(summary["debiased"])

    def test_summary_says_how_the_solve_ended(self, tmp_path):
        x_path, y_path = _space_files(tmp_path)
        for name, pair in (("cross", [x_path, y_path]), ("self", [x_path, x_path])):
            out = tmp_path / name
            rc = main(["ugw", "--x", pair[0], "--y", pair[1], "--eps", "0.05", "--tol-pot",
                       "1e-9", "--debias", "--out", str(out)])
            assert rc == 0
            with open(out / "ugw_summary.json") as fh:
                summary = json.load(fh)
            assert summary["stop_reason"] == "tol_plan"
            assert summary["damped_from"] is None
            keys = list(summary)
            assert keys.index("damped_from") == keys.index("stop_reason") + 1
            assert summary["sweeps"] >= summary["iterations"]
            # the symmetric path of a self-comparison takes no Newton step
            assert (summary["newton_steps"] > 0) is (name == "cross")
            assert summary["symmetric"] is (name == "self")
        assert summary["debiased"]["value"] == 0.0

    def test_flb_start_of_a_self_comparison_is_symmetric(self, tmp_path):
        # the eccentricity problem of X against X is symmetric, so its plan
        # is, and the ugw solve from it runs as a self-comparison
        x_path, _ = _space_files(tmp_path, n=6)
        rc = main(["ugw", "--x", x_path, "--y", x_path, "--init", "flb", "--eps", "0.05",
                   "--tol-pot", "1e-9", "--debias", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "ugw_summary.json") as fh:
            summary = json.load(fh)
        assert summary["symmetric"] is True
        assert summary["debiased"]["value"] == 0.0

    def test_gw_equal_masses(self, tmp_path, capsys):
        x_path, y_path = _space_files(tmp_path, n=4, m=5)
        rc = main(["gw", "--x", x_path, "--y", y_path, "--eps", "0.05",
                   "--tol-pot", "1e-9", "--out", str(tmp_path)])
        assert rc == 0
        assert "warning" not in capsys.readouterr().err
        plan = np.loadtxt(tmp_path / "gw_plan.csv", delimiter=",")
        np.testing.assert_allclose(plan.sum(axis=1), np.full(4, 0.25), atol=1e-5)

    def test_gw_unequal_masses_warns(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        X = random_space(rng, 3)
        Y = random_space(rng, 3)
        x_path, y_path = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        save_space(X, x_path)
        save_space(MmSpace(Y.dist, 2.0 * Y.weights), y_path)
        rc = main(["gw", "--x", x_path, "--y", y_path, "--max-outer", "2",
                   "--max-inner", "5", "--out", str(tmp_path)])
        assert rc == 1
        assert "unequal total masses" in capsys.readouterr().err

    def test_debias_reuses_the_cross_solve(self, tmp_path, monkeypatch):
        from ugwkit import cli, ugw

        calls = []

        def counted(fn):
            @functools.wraps(fn)
            def run(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return run

        # the CLI's own binding and the one debiased_ugw calls through
        monkeypatch.setattr(cli, "solve_ugw", counted(cli.solve_ugw))
        monkeypatch.setattr(ugw, "solve_ugw", counted(ugw.solve_ugw))
        x_path, y_path = _space_files(tmp_path)
        rc = main(["ugw", "--x", x_path, "--y", y_path, "--eps", "0.05", "--debias",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert len(calls) == 3  # cross, self_x, self_y

    def test_missing_space_file_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ugw", "--x", str(tmp_path / "nope.json"),
                  "--y", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "cannot load space" in capsys.readouterr().err


class TestCgw:
    def test_with_ugw_ratio(self, tmp_path):
        x_path, y_path = _space_files(tmp_path, n=3, m=3, seed=3)
        rc = main(["cgw", "--x", x_path, "--y", y_path, "--rho", "0.5",
                   "--grid-k", "6", "--grid-l", "6", "--restarts", "6",
                   "--with-ugw", "--eps", "1e-3", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "cgw_summary.json") as fh:
            summary = json.load(fh)
        assert "ratio_vs_ugw" in summary and "ugw_primal" in summary
        assert summary["cost"] == pytest.approx(min(summary["restart_costs"]), rel=1e-12)
        assert summary["lp_pivots"] > 0
        assert 0 <= summary["unconverged_restarts"] <= 6
        assert 0 <= summary["reused_restarts"] <= 5  # restart 0 has no earlier path to join
        with open(tmp_path / "cgw_plan.csv") as fh:
            assert fh.readline().strip() == "i,r,j,s,mass"


    @pytest.mark.parametrize("weight", [1e-7, 1e-11])
    def test_tiny_masses(self, tmp_path, weight):
        # the grid LP used to break at these masses: an infeasible LP at 1e-7,
        # a ZeroDivisionError once phase 1 dropped every row at 1e-11
        x_path, y_path = _space_files(tmp_path, n=2, m=2, weight=weight)
        rc = main(["cgw", "--x", x_path, "--y", y_path, "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "cgw_summary.json") as fh:
            summary = json.load(fh)
        assert 0 < summary["cost"] < 1e-12 and summary["unconverged_restarts"] == 0


class TestFlb:
    def test_writes_outputs(self, tmp_path):
        x_path, y_path = _space_files(tmp_path, seed=4)
        rc = main(["flb", "--x", x_path, "--y", y_path, "--rho", "1.0",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "flb_plan.csv").exists()
        with open(tmp_path / "flb_summary.json") as fh:
            assert json.load(fh)["converged"] is True


class TestScale:
    def test_table_formats(self, tmp_path):
        x_path, y_path = _space_files(tmp_path, seed=5)
        rc = main(["scale", "--x", x_path, "--y", y_path, "--rho", "0.1",
                   "--kappas", "0.5,2", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "scale.csv") as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0].startswith("kappa,")
        assert len(lines) == 3
        rc = main(["scale", "--x", x_path, "--y", y_path, "--rho", "0.1",
                   "--kappas", "0.5,2", "--format", "json", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "scale.json") as fh:
            assert len(json.load(fh)) == 2


class TestDrivers:
    def test_moons_accepts_max_outer(self, tmp_path):
        rc = main(["moons", "--n", "8", "--n-outliers", "2", "--rhos", "1.0",
                   "--seeds", "0", "--max-outer", "5", "--out", str(tmp_path)])
        assert rc in (0, 1)
        with open(tmp_path / "moons_manifest.json") as fh:
            assert json.load(fh)["config"]["max_outer"] == 5
        assert (tmp_path / "moons.csv").exists()

    def test_failed_solves_exit_1(self, tmp_path, capsys):
        # every solve raises at eps = 1e-300: its error rows are written and
        # the run ends as unconverged, not as bad input
        rc = main(["moons", "--n", "8", "--n-outliers", "2", "--rhos", "1", "--eps", "1e-300",
                   "--max-outer", "5", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == ""
        assert (tmp_path / "moons.csv").exists()

    def test_graph_match_accepts_max_outer(self, tmp_path):
        rc = main(["graph-match", "--n", "8", "--n-outliers", "2",
                   "--eps-grid", "0.1", "--rho-grid", "1.0", "--max-outer", "5",
                   "--out", str(tmp_path)])
        assert rc in (0, 1)
        with open(tmp_path / "graph_match_manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"]["max_outer"] == 5
        with open(tmp_path / "graph_match.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[-5:] == ["converged", "stop_reason", "damped_from", "plan_file", "error"]
        assert any(f.startswith("graph_match_plan_") for f in manifest["files"])

    def test_pu_accepts_max_outer(self, tmp_path):
        rc = main(["pu", "--folds", "1", "--n-pos", "5", "--n-unlabeled-pos", "5",
                   "--n-unlabeled-neg", "3", "--rho-grid", "0.05",
                   "--max-outer", "5", "--out", str(tmp_path)])
        assert rc in (0, 1)
        with open(tmp_path / "pu_manifest.json") as fh:
            assert json.load(fh)["config"]["max_outer"] == 5

    def test_infinite_rho_writes_valid_json(self, tmp_path):
        # rho = inf is written as the string "inf": a bare Infinity is not JSON
        rc = main(["moons", "--n", "8", "--n-outliers", "2", "--rhos", "inf", "--seeds", "0",
                   "--max-outer", "5", "--format", "json", "--out", str(tmp_path)])
        assert rc in (0, 1)

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        rows = json.loads((tmp_path / "moons.json").read_text(), parse_constant=refuse)
        manifest = json.loads((tmp_path / "moons_manifest.json").read_text(),
                              parse_constant=refuse)
        assert [row["rho"] for row in rows] == ["inf"]
        assert manifest["config"]["rhos"] == ["inf"]

    def test_perturb_inf_free_ts(self, tmp_path):
        rc = main(["perturb", "--n", "3", "--ts", "0.0,0.001", "--restarts", "4",
                   "--grid-k", "5", "--grid-l", "5", "--out", str(tmp_path)])
        assert rc in (0, 1)
        assert (tmp_path / "perturb.csv").exists()


class TestBadInput:
    @pytest.mark.parametrize("command, argv, message", [
        ("uot", ["--eps", "-1"], "eps must be positive"),
        ("ugw", ["--rho", "-1"], "rho must be nonnegative"),
        ("ugw", ["--eps", "abc"], "bad value for --eps"),
        ("cgw", ["--rho", "0"], "rho must be positive"),
        ("moons", ["--n", "abc"], "bad value for --n"),
        ("moons", ["--rhos=-1"], "rho must be nonnegative"),
        ("graph-match", ["--rho-grid=-1"], "rho must be nonnegative"),
        ("pu", ["--rho-grid=-1"], "rho must be nonnegative"),
        ("ratio-hist", ["--rho", "0"], "rho must be positive"),
        ("ratio-hist", ["--ns", "2.5"], "bad value for --ns"),
        ("moons", ["--seeds", "1.7"], "bad value for --seeds"),
        ("moons", ["--n", "2.5"], "bad value for --n"),
        ("ugw", ["--rho", "nan"], "rho must be nonnegative"),
        ("flb", ["--rho", "nan"], "rho must be nonnegative"),
        ("ugw", ["--max-outer", "0"], "must be at least 1"),
        ("uot", ["--max-inner", "0"], "must be at least 1"),
        ("gen", ["--kind", "blob"], "unknown shape kind"),
        ("ugw", ["--init", "random"], "unknown init"),
        ("cgw", ["--restarts", "0"], "restarts must be at least 1"),
        ("cgw", ["--restarts", "0", "--with-ugw"], "restarts must be at least 1"),
        ("ratio-hist", ["--restarts", "0"], "restarts must be at least 1"),
        ("perturb", ["--restarts", "0"], "restarts must be at least 1"),
        ("gen", ["--kind", "ellipse2d", "--n", "5", "--n-outliers", "2"],
         "takes no parameter 'n_outliers'"),
        ("gen", ["--kind", "square", "--noise", "0.1"], "takes no parameter 'noise'"),
        ("uot", ["--cost", "no_such_cost.csv"], "cannot load cost matrix from no_such_cost.csv"),
        ("uot", ["--mu", "no_such_mu.csv"], "cannot load weights from no_such_mu.csv"),
        ("uot", ["--nu", "no_such_nu.csv"], "cannot load weights from no_such_nu.csv"),
        ("pu", ["--n-pos", "0"], "a point cloud needs at least one point"),
        ("pu", ["--n-unlabeled-pos", "0", "--n-unlabeled-neg", "0"],
         "the unlabeled pool needs at least one point"),
        ("perturb", ["--n", "0"], "a point cloud needs at least one point"),
        ("scale-bias", ["--n", "0"], "a point cloud needs at least one point"),
        ("ratio-hist", ["--ns", "0"], "a point cloud needs at least one point"),
        ("moons", ["--n-outliers", "-1"], "n_outliers must be nonnegative"),
        ("gen", ["--kind", "two_moons_outliers", "--n-outliers", "-2"],
         "n_outliers must be nonnegative"),
        ("gen", ["--kind", "community_graph", "--n", "9", "--n-outliers", "-1"],
         "n_outliers must be nonnegative"),
        ("scale", [], "the plan must carry positive, finite mass"),
        ("moons", ["--format", "xml"], "bad value for --format"),
        ("moons", ["--seed", "1.5"], "bad value for --seed"),
        ("uot", ["--mu", "nan_mu.txt"], "mu and nu must be finite and strictly positive"),
        ("uot", ["--mu", "inf_mu.txt"], "mu and nu must be finite and strictly positive"),
        ("ugw", ["--x", "no_dist.json"], "a space needs the key 'dist'"),
        ("ugw", ["--x", "no_weights.json"], "a space needs the key 'weights'"),
        ("ugw", ["--x", "list.json"], "a space must be a JSON object"),
        ("cgw", ["--rho", "inf"], "rho must be positive and finite"),
        ("ratio-hist", ["--rho", "inf"], "rho must be positive and finite"),
        ("perturb", ["--rho", "inf"], "rho must be positive and finite"),
        ("ugw", ["--x", "dict_weights.json"], "cannot load space from dict_weights.json"),
        ("ugw", ["--x", "dict_dist.json"], "cannot load space from dict_dist.json"),
        ("graph-match", ["--n", "1"], "need at least 2 community nodes"),
        ("uot", ["--tol-pot", "-1"], "tol_pot must be nonnegative"),
        ("uot", ["--tol-pot", "nan"], "tol_pot must be nonnegative"),
        ("flb", ["--tol-pot", "-1"], "tol_pot must be nonnegative"),
        ("scale", ["--rho", "inf"], "rho must be positive and finite"),
        ("scale-bias", ["--rho", "inf"], "rho must be positive and finite"),
        ("scale-bias", ["--b-target=-1"], "b_target must be nonnegative and finite"),
    ])
    def test_exits_2_with_one_line(self, command, argv, message, tmp_path, capsys, monkeypatch):
        x_path, y_path = _space_files(tmp_path)
        cost, mu, nu = _uot_files(tmp_path)
        # weights with one non-finite entry, named relative to tmp_path
        for word in ("nan", "inf"):
            np.savetxt(tmp_path / f"{word}_mu.txt", [0.4, float(word), 0.4])
        # space files that are not a dist/weights object of numbers
        for name, content in (("no_dist", {"weights": [1.0]}), ("no_weights", {"dist": [[0]]}),
                              ("list", [1, 2]),
                              ("dict_weights", {"dist": [[0, 1], [1, 0]], "weights": {"a": 1}}),
                              ("dict_dist", {"dist": [[0, {}], [1, 0]], "weights": [1, 1]})):
            (tmp_path / f"{name}.json").write_text(json.dumps(content))
        monkeypatch.chdir(tmp_path)
        heavy_x, heavy_y = _space_files(tmp_path, weight=1e300)  # the product plan overflows
        inputs = {"uot": ["--cost", cost, "--mu", mu, "--nu", nu],
                  "ugw": ["--x", x_path, "--y", y_path],
                  "cgw": ["--x", x_path, "--y", y_path],
                  "flb": ["--x", x_path, "--y", y_path],
                  "moons": [], "graph-match": [], "pu": [], "ratio-hist": [],
                  "scale": ["--x", heavy_x, "--y", heavy_y],
                  "perturb": [], "scale-bias": [], "gen": []}[command]
        # a warning would print its own lines to stderr ahead of the error
        with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
            warnings.simplefilter("error")
            main([command, *inputs, *argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, line, message", [
        ("moons", "n = 2.5", "bad value for --n"),
        ("ratio-hist", "ns = 2.5", "bad value for --ns"),
        ("moons", "seeds = 1, 1.7", "bad value for --seeds"),
        ("moons", "format = xml", "bad value for --format"),
        # a switch takes only true or false, in any case
        ("ugw", "debias = no", "bad value for --debias"),
        ("ugw", "debias = off", "bad value for --debias"),
        ("ugw", "debias = yes", "bad value for --debias"),
        ("ugw", "debias = 0", "bad value for --debias"),
        ("cgw", "with-ugw = 1", "bad value for --with-ugw"),
    ])
    def test_config_value_exits_2_with_one_line(self, command, line, message, tmp_path,
                                                capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        x_path, y_path = _space_files(tmp_path)
        inputs = ["--x", x_path, "--y", y_path] if command in ("ugw", "cgw") else []
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


class TestParser:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "ugwkit" in capsys.readouterr().out

    def test_global_flags_before_the_subcommand_take_effect(self, tmp_path):
        # each global flag counts before the subcommand name as it does after it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = square\nn = 5\n")
        lead, trail, plain = tmp_path / "lead", tmp_path / "trail", tmp_path / "plain"
        assert main(["--seed", "7", "--out", str(lead), "--format", "json",
                     "--config", str(cfg), "gen"]) == 0
        assert main(["gen", "--seed", "7", "--out", str(trail), "--format", "json",
                     "--config", str(cfg)]) == 0
        assert main(["gen", "--out", str(plain), "--format", "json", "--config", str(cfg)]) == 0
        text = (lead / "gen_square.json").read_text()
        assert text == (trail / "gen_square.json").read_text()
        assert text != (plain / "gen_square.json").read_text()  # seed 7, not 0

    def test_a_global_flag_after_the_subcommand_wins(self, tmp_path):
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        first.write_text("kind = ellipse2d\n")
        second.write_text("kind = square\nn = 5\n")
        argv = ["--seed", "1", "--out", str(tmp_path / "a"), "--format", "csv",
                "--config", str(first), "gen", "--seed", "7", "--out", str(tmp_path / "b"),
                "--format", "json", "--config", str(second)]
        assert main(argv) == 0
        assert not (tmp_path / "a").exists()
        assert main(["gen", "--seed", "7", "--out", str(tmp_path / "c"), "--format", "json",
                     "--config", str(second)]) == 0
        assert ((tmp_path / "b" / "gen_square.json").read_text()
                == (tmp_path / "c" / "gen_square.json").read_text())


# Each driver subcommand with every flag it accepts: (flag, text, expected
# keyword value). Texts are chosen so that the type matters: "1" must reach a
# float parameter as 1.0, "4" an int parameter as 4, "inf" a float list as inf.
_DRIVER_FLAGS = {
    "perturb": ("run_perturb", [
        ("n", "4", 4), ("ts", "0,0.5", [0.0, 0.5]), ("rho", "1", 1.0),
        ("eps", "0.05", 0.05), ("grid-k", "6", 6), ("grid-l", "7", 7),
        ("restarts", "3", 3),
    ]),
    "ratio-hist": ("run_ratio_hist", [
        ("ns", "2,4", [2, 4]), ("trials", "5", 5), ("rho", "1", 1.0),
        ("eps", "0.05", 0.05), ("grid-k", "6", 6), ("grid-l", "7", 7),
        ("restarts", "3", 3),
    ]),
    "moons": ("run_moons", [
        ("n", "9", 9), ("n-outliers", "2", 2), ("rhos", "1,0.5", [1.0, 0.5]),
        ("eps", "0.05", 0.05), ("seeds", "3,4", [3, 4]), ("max-outer", "7", 7),
        ("tol-pot", "1e-8", 1e-8),
    ]),
    "graph-match": ("run_graph_match", [
        ("n", "9", 9), ("n-outliers", "2", 2), ("eps-grid", "1,0.5", [1.0, 0.5]),
        ("rho-grid", "0.5,inf", [0.5, math.inf]), ("max-outer", "7", 7),
    ]),
    "scale-bias": ("run_scale_bias", [
        ("n", "4", 4), ("rho", "1", 1.0), ("kappas", "0.5,2", [0.5, 2.0]),
        ("b-target", "1", 1.0),
    ]),
    "pu": ("run_pu", [
        ("folds", "2", 2), ("n-pos", "5", 5), ("n-unlabeled-pos", "6", 6),
        ("n-unlabeled-neg", "3", 3), ("eps", "1", 1.0), ("rho-grid", "0.5,inf", [0.5, math.inf]),
        ("max-outer", "7", 7),
    ]),
}


@pytest.fixture
def captured_drivers():
    """Replace every app.run_* driver by a recorder of its keyword arguments.

    The CLI module is reloaded around the test so that a driver table built at
    import time picks up the recorders and, afterwards, the real drivers. The
    recorders keep the drivers' signatures, which a CLI may read its flags from.
    """
    from ugwkit import app, cli

    calls = {}

    def recorder(name, original):
        @functools.wraps(original)
        def run(**kwargs):
            calls[name] = kwargs
            return {"files": [], "converged": True}

        return run

    originals = {name: getattr(app, name) for name, _ in _DRIVER_FLAGS.values()}
    for name, fn in originals.items():
        setattr(app, name, recorder(name, fn))
    importlib.reload(cli)
    try:
        yield cli, calls
    finally:
        for name, fn in originals.items():
            setattr(app, name, fn)
        importlib.reload(cli)


def _assert_same_kwargs(got, expected):
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert got[key] == value, key
        assert type(got[key]) is type(value), key
        if isinstance(value, list):
            assert [type(v) for v in got[key]] == [type(v) for v in value], key


class TestDriverFlags:
    @pytest.mark.parametrize("command", sorted(_DRIVER_FLAGS))
    def test_flags_reach_the_driver(self, command, captured_drivers, tmp_path):
        cli, calls = captured_drivers
        name, flags = _DRIVER_FLAGS[command]
        argv = [command, "--seed", "5", "--out", str(tmp_path)]
        for flag, text, _ in flags:
            argv += [f"--{flag}", text]
        assert cli.main(argv) == 0
        expected = {flag.replace("-", "_"): value for flag, _, value in flags}
        expected.update(out_dir=str(tmp_path), seed=5, fmt="csv")
        _assert_same_kwargs(calls[name], expected)

    @pytest.mark.parametrize("command", sorted(_DRIVER_FLAGS))
    def test_config_reaches_the_driver(self, command, captured_drivers, tmp_path):
        cli, calls = captured_drivers
        name, flags = _DRIVER_FLAGS[command]
        cfg = tmp_path / "run.cfg"
        # the underscore and the dash spelling are both accepted
        cfg.write_text("".join(f"{flag.replace('-', '_') if i % 2 else flag} = {text}\n"
                               for i, (flag, text, _) in enumerate(flags)))
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        expected = {flag.replace("-", "_"): value for flag, _, value in flags}
        expected.update(out_dir=str(tmp_path), seed=0, fmt="csv")
        _assert_same_kwargs(calls[name], expected)

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_seed_and_format_follow_the_flag_rule(self, source, captured_drivers, tmp_path):
        # the global flags parse like any other: 1e3 is the integer 1000
        cli, calls = captured_drivers
        argv = ["moons", "--out", str(tmp_path)]
        if source == "flags":
            argv += ["--seed", "1e3", "--format", "json"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = 1e3\nformat = json\n")
            argv += ["--config", str(cfg)]
        assert cli.main(argv) == 0
        assert calls["run_moons"] == {"out_dir": str(tmp_path), "seed": 1000, "fmt": "json"}
        assert type(calls["run_moons"]["seed"]) is int

    def test_unset_flags_keep_the_driver_defaults(self, captured_drivers, tmp_path):
        cli, calls = captured_drivers
        assert cli.main(["moons", "--out", str(tmp_path)]) == 0
        assert calls["run_moons"] == {"out_dir": str(tmp_path), "seed": 0, "fmt": "csv"}


# Each solver subcommand with every flag it takes beyond its input files:
# (flag, text, value the solver sees), text None for a switch. The texts are
# chosen so that the type matters, as for the drivers. _SOLVER_FIXED holds
# what the solver sees that no flag of the command sets.
_SOLVER_FLAGS = {
    "gen": [
        ("kind", "two_moons_outliers", "two_moons_outliers"), ("n", "7", 7),
        ("n-outliers", "2", 2), ("noise", "1", 1.0),
    ],
    "uot": [
        ("rho", "2", 2.0), ("rho2", "0.5", 0.5), ("eps", "1", 1.0),
        ("tol-pot", "1e-8", 1e-8), ("max-inner", "7", 7),
    ],
    "ugw": [
        ("rho", "2", 2.0), ("rho2", "0.5", 0.5), ("eps", "1", 1.0), ("max-outer", "4", 4),
        ("max-inner", "7", 7), ("tol-plan", "1e-4", 1e-4), ("tol-pot", "1e-8", 1e-8),
        ("init", "flb", "flb"), ("debias", None, True),
    ],
    "gw": [
        ("eps", "1", 1.0), ("max-outer", "4", 4), ("max-inner", "7", 7),
        ("tol-plan", "1e-4", 1e-4), ("tol-pot", "1e-8", 1e-8), ("init", "flb", "flb"),
        ("debias", None, True),
    ],
    "flb": [
        ("rho", "2", 2.0), ("rho2", "0.5", 0.5), ("eps", "1", 1.0),
        ("tol-pot", "1e-8", 1e-8), ("max-inner", "7", 7),
    ],
    "cgw": [
        ("rho", "2", 2.0), ("grid-k", "3", 3), ("grid-l", "4", 4), ("restarts", "2", 2),
        ("with-ugw", None, True), ("eps", "1", 1.0),
    ],
    "scale": [("rho", "2", 2.0), ("kappas", "0.5,2", [0.5, 2.0])],
}
_SOLVER_FIXED = {"gen": {"seed": 5}, "cgw": {"seed": 5},
                 "gw": {"rho": math.inf, "rho2": math.inf}}

# What each solver sees when only the input flags are given.
_SOLVER_DEFAULTS = {
    "gen": {"kind": "two_moons_outliers", "n": 50, "seed": 0},
    "uot": {"rho": 1.0, "rho2": 1.0, "eps": 1e-2, "tol-pot": 1e-6, "max-inner": 3000},
    "ugw": {"rho": 1.0, "rho2": 1.0, "eps": 1e-2, "max-outer": 3000, "max-inner": 3000,
            "tol-plan": 1e-5, "tol-pot": 1e-9, "init": "product", "debias": False},
    "gw": {"rho": math.inf, "rho2": math.inf, "eps": 1e-2, "max-outer": 3000,
           "max-inner": 3000, "tol-plan": 1e-5, "tol-pot": 1e-9, "init": "product",
           "debias": False},
    "flb": {"rho": 1.0, "rho2": 1.0, "eps": 1e-2, "tol-pot": 1e-6, "max-inner": 3000},
    "cgw": {"rho": 1.0, "grid-k": 10, "grid-l": 10, "restarts": 20, "seed": 0,
            "with-ugw": False},
    "scale": {"rho": 1.0, "kappas": (0.25, 0.5, 1.0, 2.0, 4.0)},
}


def _solver_inputs(tmp_path, command):
    """The input-file flags of ``command``, and the arrays they hold.

    The spaces are CSV distance matrices with separate weights files, so the
    --x-weights and --y-weights flags are exercised too.
    """
    if command == "gen":
        return {}, {}
    if command == "uot":
        cost, mu, nu = _uot_files(tmp_path)
        arrays = {"cost": np.loadtxt(cost, delimiter=","), "mu": np.loadtxt(mu),
                  "nu": np.loadtxt(nu)}
        return {"cost": cost, "mu": mu, "nu": nu}, arrays
    rng = np.random.default_rng(7)
    flags, arrays = {}, {}
    for key, n in (("x", 3), ("y", 4)):
        S = random_space(rng, n)
        flags[key] = str(tmp_path / f"{key}.csv")
        flags[f"{key}-weights"] = str(tmp_path / f"{key}_weights.txt")
        np.savetxt(flags[key], S.dist, delimiter=",")
        np.savetxt(flags[f"{key}-weights"], S.weights)
        arrays[key] = (np.loadtxt(flags[key], delimiter=","),
                       np.loadtxt(flags[f"{key}-weights"]))
    return flags, arrays


@pytest.fixture
def captured_solvers(monkeypatch):
    """Wrap every function a solver subcommand passes its flags to.

    Each wrapper keeps the arguments of its latest call, bound to the wrapped
    function's signature with the defaults filled in, and then runs the
    function, so the command finishes as usual.
    """
    from ugwkit import app, cli, geometry

    calls = {}

    def recorder(fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def run(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            calls[fn.__name__] = bound.arguments
            return fn(*args, **kwargs)

        return run

    for module, name in ((geometry, "gen_shape"), (cli, "uot_sinkhorn"), (cli, "solve_flb"),
                         (cli, "solve_ugw"), (app, "solve_ugw"), (cli, "debiased_ugw"),
                         (cli, "solve_cgw"), (app, "solve_cgw"),
                         (cli, "scaling_bias_report")):
        monkeypatch.setattr(module, name, recorder(getattr(module, name)))
    return calls


def _observed(command, calls, arrays):
    """The value each flag of ``command`` reached its solver with, by flag name.

    Also checks that the input files reached every recorded call.
    """
    for args in calls.values():
        for key, name in (("x", "X"), ("y", "Y")):
            if name in args and key in arrays:
                np.testing.assert_array_equal(args[name].dist, arrays[key][0])
                np.testing.assert_array_equal(args[name].weights, arrays[key][1])
    if command == "gen":
        a = calls["gen_shape"]
        return {"kind": a["kind"], "n": a["n"], "seed": a["seed"],
                **{key.replace("_", "-"): value for key, value in a["params"].items()}}
    if command == "uot":
        a = calls["uot_sinkhorn"]
        for key in ("cost", "mu", "nu"):
            np.testing.assert_array_equal(a[key], arrays[key])
        return {"rho": a["rho1"], "rho2": a["rho2"], "eps": a["eps"],
                "tol-pot": a["tol_pot"], "max-inner": a["max_inner"]}
    if command == "flb":
        a = calls["solve_flb"]
        rho, rho2 = a["rho"]
        return {"rho": rho, "rho2": rho2, "eps": a["eps"], "tol-pot": a["tol_pot"],
                "max-inner": a["max_inner"]}
    if command in ("ugw", "gw"):
        a = calls["solve_ugw"]
        cfg = a["cfg"]
        if a["init_plan"] is not None:
            assert tuple(calls["solve_flb"]["rho"]) == (cfg.rho1, cfg.rho2)
            assert calls["solve_flb"]["eps"] == cfg.eps
        if "debiased_ugw" in calls:
            assert calls["debiased_ugw"]["cfg"] == cfg
        return {"rho": cfg.rho1, "rho2": cfg.rho2, "eps": cfg.eps, "max-outer": cfg.max_outer,
                "max-inner": cfg.max_inner, "tol-plan": cfg.tol_plan, "tol-pot": cfg.tol_pot,
                "init": "product" if a["init_plan"] is None else "flb",
                "debias": "debiased_ugw" in calls}
    if command == "cgw":
        a = calls["solve_cgw"]
        assert a["spec"].setting == "gh"
        seen = {"rho": a["spec"].rho, "grid-k": a["K"], "grid-l": a["L"],
                "restarts": a["restarts"], "seed": a["seed"], "with-ugw": "solve_ugw" in calls}
        if seen["with-ugw"]:
            cfg = calls["solve_ugw"]["cfg"]
            assert cfg.rho1 == cfg.rho2 == seen["rho"]
            seen["eps"] = cfg.eps
        return seen
    a = calls["scaling_bias_report"]
    return {"rho": a["rho"], "kappas": a["kappa_grid"]}


class TestSolverFlags:
    @pytest.mark.parametrize("command", sorted(_SOLVER_FLAGS))
    def test_flags_reach_the_solver(self, command, captured_solvers, tmp_path):
        inputs, arrays = _solver_inputs(tmp_path, command)
        flags = _SOLVER_FLAGS[command]
        argv = [command, "--seed", "5", "--out", str(tmp_path)]
        for flag, text in [*inputs.items(), *((flag, text) for flag, text, _ in flags)]:
            argv += [f"--{flag}"] + ([] if text is None else [text])
        assert main(argv) in (0, 1)
        expected = {**_SOLVER_FIXED.get(command, {}),
                    **{flag: value for flag, _, value in flags}}
        _assert_same_kwargs(_observed(command, captured_solvers, arrays), expected)

    @pytest.mark.parametrize("command", sorted(_SOLVER_FLAGS))
    def test_config_reaches_the_solver(self, command, captured_solvers, tmp_path):
        inputs, arrays = _solver_inputs(tmp_path, command)
        flags = _SOLVER_FLAGS[command]
        lines = [(flag, text) for flag, text in inputs.items()]
        lines += [(flag, "true" if text is None else text) for flag, text, _ in flags]
        cfg = tmp_path / "run.cfg"
        # the underscore and the dash spelling are both accepted
        cfg.write_text("seed = 5\n" + "".join(
            f"{flag.replace('-', '_') if i % 2 else flag} = {text}\n"
            for i, (flag, text) in enumerate(lines)))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) in (0, 1)
        expected = {**_SOLVER_FIXED.get(command, {}),
                    **{flag: value for flag, _, value in flags}}
        _assert_same_kwargs(_observed(command, captured_solvers, arrays), expected)

    @pytest.mark.parametrize("command", sorted(_SOLVER_DEFAULTS))
    def test_unset_flags_keep_their_defaults(self, command, captured_solvers, tmp_path):
        inputs, arrays = _solver_inputs(tmp_path, command)
        if command == "gen":
            inputs = {"kind": "two_moons_outliers"}
        argv = [command, "--out", str(tmp_path)]
        for flag, path in inputs.items():
            argv += [f"--{flag}", path]
        assert main(argv) in (0, 1)
        _assert_same_kwargs(_observed(command, captured_solvers, arrays),
                            _SOLVER_DEFAULTS[command])

    def test_with_ugw_defaults(self, captured_solvers, tmp_path):
        inputs, arrays = _solver_inputs(tmp_path, "cgw")
        argv = ["cgw", "--with-ugw", "--grid-k", "3", "--grid-l", "3", "--restarts", "2",
                "--out", str(tmp_path)]
        for flag, path in inputs.items():
            argv += [f"--{flag}", path]
        assert main(argv) in (0, 1)
        seen = _observed("cgw", captured_solvers, arrays)
        assert seen["eps"] == 1e-2
        assert captured_solvers["solve_ugw"]["cfg"].tol_pot == UgwConfig.tol_pot

    @pytest.mark.parametrize("command", ["uot", "ugw", "flb"])
    def test_unset_rho2_equals_rho(self, command, captured_solvers, tmp_path):
        inputs, arrays = _solver_inputs(tmp_path, command)
        argv = [command, "--rho", "0.5", "--max-inner", "5", "--out", str(tmp_path)]
        for flag, path in inputs.items():
            argv += [f"--{flag}", path]
        assert main(argv) in (0, 1)
        seen = _observed(command, captured_solvers, arrays)
        assert seen["rho2"] == seen["rho"] == 0.5
        assert type(seen["rho2"]) is float

    @pytest.mark.parametrize("command", sorted([*_SOLVER_FLAGS, *_DRIVER_FLAGS]))
    def test_help_lists_every_flag(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        if command in _SOLVER_FLAGS:
            flags = [*_solver_inputs(tmp_path, command)[0],
                     *(flag for flag, _, _ in _SOLVER_FLAGS[command])]
        else:
            flags = [flag for flag, _, _ in _DRIVER_FLAGS[command][1]]
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
        assert listed == {"--help", "--seed", "--out", "--format", "--config",
                          *(f"--{flag}" for flag in flags)}

import functools
import importlib
import json
import math
import os

import numpy as np
import pytest

from ugwkit.app import save_space
from ugwkit.cli import main
from ugwkit.measures import MmSpace

from conftest import random_space


def _space_files(tmp_path, n=3, m=4, seed=0):
    rng = np.random.default_rng(seed)
    x_path = str(tmp_path / "x.json")
    y_path = str(tmp_path / "y.json")
    save_space(random_space(rng, n), x_path)
    save_space(random_space(rng, m), y_path)
    return x_path, y_path


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
        with open(tmp_path / "cgw_plan.csv") as fh:
            assert fh.readline().strip() == "i,r,j,s,mass"


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

    def test_graph_match_accepts_max_outer(self, tmp_path):
        rc = main(["graph-match", "--n", "8", "--n-outliers", "2",
                   "--eps-grid", "0.1", "--rho-grid", "1.0", "--max-outer", "5",
                   "--out", str(tmp_path)])
        assert rc in (0, 1)
        with open(tmp_path / "graph_match_manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"]["max_outer"] == 5
        assert (tmp_path / "graph_match.csv").exists()
        assert any(f.startswith("graph_match_plan_") for f in manifest["files"])

    def test_pu_accepts_max_outer(self, tmp_path):
        rc = main(["pu", "--folds", "1", "--n-pos", "5", "--n-unlabeled-pos", "5",
                   "--n-unlabeled-neg", "3", "--rho-grid", "0.05",
                   "--max-outer", "5", "--out", str(tmp_path)])
        assert rc in (0, 1)
        with open(tmp_path / "pu_manifest.json") as fh:
            assert json.load(fh)["config"]["max_outer"] == 5

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
    ])
    def test_exits_2_with_one_line(self, command, argv, message, tmp_path, capsys):
        x_path, y_path = _space_files(tmp_path)
        cost, mu, nu = _uot_files(tmp_path)
        inputs = {"uot": ["--cost", cost, "--mu", mu, "--nu", nu],
                  "ugw": ["--x", x_path, "--y", y_path],
                  "cgw": ["--x", x_path, "--y", y_path],
                  "moons": [], "graph-match": [], "pu": [], "ratio-hist": []}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, *argv, "--out", str(tmp_path)])
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
        ("tol-pot", "1e-8", 1e-8),
    ]),
    "scale-bias": ("run_scale_bias", [
        ("n", "4", 4), ("rho", "1", 1.0), ("kappas", "0.5,2", [0.5, 2.0]),
        ("b-target", "1", 1.0),
    ]),
    "pu": ("run_pu", [
        ("folds", "2", 2), ("n-pos", "5", 5), ("n-unlabeled-pos", "6", 6),
        ("n-unlabeled-neg", "3", 3), ("eps", "1", 1.0), ("rho-grid", "0.5,inf", [0.5, math.inf]),
        ("max-outer", "7", 7), ("tol-pot", "1e-8", 1e-8),
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

    def test_unset_flags_keep_the_driver_defaults(self, captured_drivers, tmp_path):
        cli, calls = captured_drivers
        assert cli.main(["moons", "--out", str(tmp_path)]) == 0
        assert calls["run_moons"] == {"out_dir": str(tmp_path), "seed": 0, "fmt": "csv"}

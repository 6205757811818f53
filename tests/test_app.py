import json
import math
import os

import numpy as np
import pytest

from ugwkit import app, geometry
from ugwkit.app import (
    cgw_ugw_ratio,
    load_matrix,
    load_space,
    pu_predict,
    read_config,
    run_moons,
    run_perturb,
    run_pu,
    run_ratio_hist,
    run_scale_bias,
    save_plan,
    save_space,
    space_from_dict,
    space_to_dict,
    write_json,
    write_table,
)
from ugwkit.measures import MmSpace, TransportPlan

from conftest import random_space


class TestPuPredict:
    def test_top_ceil_labeling(self):
        labels = pu_predict(np.array([0.1, 0.5, 0.3, 0.2]), 0.5)
        np.testing.assert_array_equal(labels, [-1, 1, 1, -1])

    def test_ceil_rounds_up(self):
        # ceil(0.26 * 4) = 2 positives even though 0.26 * 4 barely passes 1
        labels = pu_predict(np.array([4.0, 3.0, 2.0, 1.0]), 0.26)
        np.testing.assert_array_equal(labels, [1, 1, -1, -1])

    def test_stable_ties_prefer_lower_index(self):
        labels = pu_predict(np.array([0.4, 0.4, 0.1]), 1.0 / 3.0)
        np.testing.assert_array_equal(labels, [1, -1, -1])

    def test_full_ratio_labels_everything(self):
        labels = pu_predict(np.array([0.0, 1.0]), 1.0)
        np.testing.assert_array_equal(labels, [1, 1])

    def test_two_dim_input_sums_rows(self):
        plan = np.array([[0.0, 1.0, 0.0], [0.1, 0.0, 0.2]])
        # column marginals (0.1, 1.0, 0.2); ceil(0.3 * 3) = 1 -> index 1 only
        labels = pu_predict(plan, 0.3)
        np.testing.assert_array_equal(labels, [-1, 1, -1])

    def test_transport_plan_input(self):
        plan = TransportPlan(np.array([[0.0, 1.0], [0.3, 0.0]]))
        labels = pu_predict(plan, 0.5)
        np.testing.assert_array_equal(labels, [-1, 1])

    def test_ratio_validation(self):
        for bad in (0.0, -0.1, 1.2):
            with pytest.raises(ValueError):
                pu_predict(np.array([1.0, 2.0]), bad)

    def test_empty_plan(self):
        with pytest.raises(ValueError):
            pu_predict(np.zeros(0), 0.5)


class TestSerialization:
    def test_space_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = random_space(rng, 5, weights="random")
        X = MmSpace(X.dist, X.weights, label="probe")
        path = save_space(X, str(tmp_path / "space.json"))
        back = load_space(path)
        np.testing.assert_allclose(back.dist, X.dist)
        np.testing.assert_allclose(back.weights, X.weights)
        assert back.label == "probe"

    def test_space_dict_round_trip(self):
        rng = np.random.default_rng(1)
        X = random_space(rng, 4)
        back = space_from_dict(space_to_dict(X))
        np.testing.assert_allclose(back.dist, X.dist)

    def test_csv_space_needs_weights(self, tmp_path):
        rng = np.random.default_rng(2)
        X = random_space(rng, 4)
        dist_path = tmp_path / "dist.csv"
        np.savetxt(dist_path, X.dist, delimiter=",")
        with pytest.raises(ValueError):
            load_space(str(dist_path))
        w_path = tmp_path / "w.txt"
        np.savetxt(w_path, X.weights)
        back = load_space(str(dist_path), str(w_path))
        np.testing.assert_allclose(back.dist, X.dist, atol=1e-15)
        np.testing.assert_allclose(back.weights, X.weights, atol=1e-15)

    def test_plan_round_trip(self, tmp_path):
        values = np.random.default_rng(3).uniform(0.1, 1.0, size=(3, 4))
        path = save_plan(TransportPlan(values), str(tmp_path / "plan.csv"))
        np.testing.assert_allclose(load_matrix(path), values, rtol=1e-12)

    def test_atoms_header(self, tmp_path):
        atoms = np.array([[0, 1.0, 1, 2.0, 0.5], [1, 0.5, 0, 1.0, 0.25]])
        path = app.save_atoms(atoms, str(tmp_path / "atoms.csv"))
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "i,r,j,s,mass"
        assert len(lines) == 3

    def test_read_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# solver knobs\n"
            "eps = 1e-2\n"
            "rho=inf  # balanced\n"
            "max-outer = 40\n"
            "debias = true\n"
            "label = moons\n"
            "\n"
        )
        parsed = read_config(str(cfg))
        assert parsed == {
            "eps": 1e-2,
            "rho": math.inf,
            "max_outer": 40,
            "debias": True,
            "label": "moons",
        }

    def test_read_config_rejects_garbage(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals\n")
        with pytest.raises(ValueError):
            read_config(str(cfg))

    def test_write_table_formats(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        csv_path = write_table(rows, ["a", "b"], str(tmp_path / "t"), fmt="csv")
        assert csv_path.endswith(".csv")
        with open(csv_path) as fh:
            assert fh.readline().strip() == "a,b"
        json_path = write_table(rows, ["a", "b"], str(tmp_path / "t"), fmt="json")
        assert json_path.endswith(".json")
        with open(json_path) as fh:
            assert json.load(fh) == rows


    def test_write_json_spells_non_finite_floats(self, tmp_path):
        payload = {"a": [math.inf, -math.inf, math.nan, 1.5], "b": (1, {"c": np.float64(math.inf)})}
        path = write_json(payload, str(tmp_path / "p.json"))
        with open(path) as fh:
            got = json.loads(fh.read(), parse_constant=lambda name: pytest.fail(name))
        assert got == {"a": ["inf", "-inf", "nan", 1.5], "b": [1, {"c": "inf"}]}


class TestRatio:
    def test_generic_pair(self):
        rng = np.random.default_rng(7)
        X = geometry.space_from_points(rng.normal(size=(3, 2)), label="x")
        Y = geometry.space_from_points(rng.normal(size=(3, 2)), label="y")
        ratio, sol, res = cgw_ugw_ratio(X, Y, rho=0.1, eps=1e-3, K=8, L=8, restarts=8)
        assert ratio == pytest.approx(res.cost / sol.primal_unregularized, rel=1e-12)
        assert ratio > 0


class TestRunPerturb:
    def test_identical_spaces_hit_the_floor_rule(self, tmp_path):
        out = run_perturb(
            out_dir=str(tmp_path),
            seed=0,
            n=3,
            ts=(0.0, 1e-3),
            restarts=6,
            grid_k=6,
            grid_l=6,
        )
        rows = out["rows"]
        assert [r["t"] for r in rows] == [0.0, 1e-3]
        assert rows[0]["error"] == "" and rows[1]["error"] == ""
        # t = 0: both sides collapse below the floor, ratio pinned to 1
        assert rows[0]["ratio"] == 1.0
        assert rows[1]["ratio"] > 0
        for f in out["files"]:
            assert os.path.exists(f)
        with open(tmp_path / "perturb_manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["driver"] == "perturb"
        assert manifest["seed"] == 0
        assert manifest["config"]["ts"] == [0.0, 1e-3]
        assert set(manifest) == {"driver", "seed", "config", "version", "files"}


class TestRunRatioHist:
    def test_smoke(self, tmp_path):
        out = run_ratio_hist(out_dir=str(tmp_path), seed=0, ns=(2,), trials=2,
                             grid_k=6, grid_l=6, restarts=6)
        assert len(out["rows"]) == 2
        assert all(r["error"] == "" for r in out["rows"])
        assert len(out["ratios"][2]) == 2
        # histogram covers every trial exactly once
        total = sum(h["count"] for h in out["hist"])
        assert total == 2
        assert os.path.exists(tmp_path / "ratio_hist_manifest.json")


class TestRunMoons:
    def test_smoke(self, tmp_path):
        out = run_moons(out_dir=str(tmp_path), seed=0, seeds=[0], n=8, n_outliers=2,
                        rhos=(1.0,), eps=1e-2, tol_pot=1e-9, max_outer=50)
        rows = out["rows"]
        assert len(rows) == 1
        row = rows[0]
        assert row["error"] == ""
        assert row["rho"] == 1.0
        assert 0 <= row["outlier_mass"] <= row["plan_mass"]
        assert row["per_point_share"] > 0
        assert row["stop_reason"] == "tol_plan" and row["damped_from"] is None
        with open(tmp_path / "moons.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[-3:] == ["stop_reason", "damped_from", "error"]
        with open(tmp_path / "moons_manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"]["max_outer"] == 50
        assert manifest["config"]["n_outliers"] == 2

    def test_failed_solves_become_error_rows(self, tmp_path):
        # at eps = 1e-300 every solve raises (the plan overflows): the sweep
        # records each as an error row and still writes its table and manifest
        out = run_moons(out_dir=str(tmp_path), seed=0, seeds=[0, 1], n=8, n_outliers=2,
                        rhos=(1.0, 0.1), eps=1e-300, max_outer=5)
        assert out["converged"] is False
        assert [(row["seed"], row["rho"]) for row in out["rows"]] == [
            (0, 1.0), (0, 0.1), (1, 1.0), (1, 0.1)]
        for row in out["rows"]:
            assert row["converged"] is False and row["error"]
            assert row["outlier_mass"] == ""
        assert sorted(os.listdir(tmp_path)) == ["moons.csv", "moons_manifest.json"]
        with open(tmp_path / "moons.csv") as fh:
            assert len(fh.read().splitlines()) == 5


class TestRunScaleBias:
    def test_hand_value_and_gap_signs(self, tmp_path):
        out = run_scale_bias(out_dir=str(tmp_path), seed=0, n=4,
                             kappas=(0.25, 0.5, 1.0, 2.0, 4.0))
        rows = {r["kappa"]: r for r in out["rows"]}
        # the driver rescales the instance so the product plan's distortion
        # is b_target = 0.55; with probability weights the quadratic profile
        # then solves in closed form at kappa = 1
        expect = math.exp(-0.55 / (4.0 * 0.1))
        assert rows[1.0]["theta_quadratic"] == pytest.approx(expect, rel=1e-6)
        for r in out["rows"]:
            assert r["theta_gap"] == pytest.approx(
                r["theta_quadratic"] - r["theta_linear"], abs=1e-15
            )
            assert abs(r["foc_residual_quadratic"]) <= 1e-8
            assert abs(r["foc_residual_linear"]) <= 1e-8
        # shrinking mass biases the quadratic profile low, growth biases it high
        assert rows[0.25]["theta_gap"] < 0 and rows[0.5]["theta_gap"] < 0
        assert rows[2.0]["theta_gap"] > 0 and rows[4.0]["theta_gap"] > 0


class TestRunPu:
    def test_smoke(self, tmp_path):
        out = run_pu(out_dir=str(tmp_path), seed=0, folds=1, n_pos=6,
                     n_unlabeled_pos=6, n_unlabeled_neg=3,
                     rho_grid=(2.0**-6,), max_outer=300)
        rows = out["rows"]
        assert len(rows) == 1
        assert rows[0]["error"] == ""
        assert rows[0]["converged"] and rows[0]["stop_reason"] == "tol_plan"
        assert 0.0 <= rows[0]["accuracy"] <= 1.0
        with open(tmp_path / "pu_manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"]["positive_ratio"] == pytest.approx(6 / 9)

    def test_default_grid_converges(self, tmp_path):
        # eps = 2^-9 and rho down to 2^-10: the first inner plans are tiny, and
        # the inner stop follows the plan mass down so the outer test can pass
        out = run_pu(out_dir=str(tmp_path), seed=0, folds=1)
        assert len(out["rows"]) == 6
        assert out["converged"]
        assert all(row["stop_reason"] == "tol_plan" for row in out["rows"])

import csv
import json
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bayesgame.cli import main
from bayesgame.experiments import write_dataset_csv
from bayesgame.game import ActionSet, FinitePrior, GameSpec, StrategyProfile
from bayesgame.serialize import (
    ConfigError,
    game_from_jsonable,
    game_to_jsonable,
    prior_from_jsonable,
    prior_to_jsonable,
    profile_from_jsonable,
    solver_config_from_jsonable,
)
from bayesgame.solvers import SolverConfig, SolverTrace, TraceRecord, pg_rbc, prg_ie


def small_game(bounded=True):
    rng = np.random.default_rng(3)
    kwargs = {}
    if bounded:
        kwargs = dict(learner_set=ActionSet.l2_ball(1.0), adversary_set=ActionSet.l2_ball(2.0))
    spec = GameSpec(
        X=0.3 * rng.normal(size=(4, 2)), y=0.3 * rng.normal(size=4),
        z=0.3 * rng.normal(size=4), c_l=np.full(4, 0.2), **kwargs,
    )
    prior = FinitePrior(atoms=0.3 * rng.random((2, 4)), probs=np.array([0.5, 0.5]))
    return spec, prior


def write_solve_config(path, bounded=True, algorithm="pg-rbc", solver=None):
    spec, prior = small_game(bounded)
    doc = {
        "game": game_to_jsonable(spec),
        "prior": prior_to_jsonable(prior),
        "algorithm": algorithm,
        "solver": solver or {"max_iters": 500, "gamma": 0.6, "seed": 3, "trace_every": 100},
    }
    path.write_text(json.dumps(doc))
    return doc


def read_trace_without_walltime(path):
    with open(path) as fh:
        return [row[:3] for row in csv.reader(fh)]


class TestSerialize:
    def test_game_round_trip(self):
        spec, _ = small_game()
        doc = game_to_jsonable(spec)
        back = game_from_jsonable(doc)
        assert np.array_equal(back.X, spec.X)
        assert back.learner_set == spec.learner_set
        assert back.learner_loss == spec.learner_loss

    def test_prior_round_trip(self):
        _, prior = small_game()
        back = prior_from_jsonable(prior_to_jsonable(prior))
        assert np.array_equal(back.atoms, prior.atoms)
        for doc in (
            {"family": "gaussian", "mean": 1.0, "std": 4.0},
            {"family": "gamma", "shape": 1.0, "scale": 2.0},
            {"family": "lognormal", "mu": 0.0, "sigma": 1.0},
        ):
            assert prior_to_jsonable(prior_from_jsonable(doc)) == doc

    def test_errors_carry_json_path(self):
        with pytest.raises(ConfigError, match=r"game\.X"):
            game_from_jsonable({"y": [0.0], "z": [0.0], "c_l": [1.0]})
        with pytest.raises(ConfigError, match=r"prior\.family"):
            prior_from_jsonable({"family": "beta"})
        with pytest.raises(ConfigError, match=r"prior\.family"):
            prior_from_jsonable({"family": ["gaussian"]})
        with pytest.raises(ConfigError, match=r"solver\.gamma"):
            solver_config_from_jsonable({"max_iters": 10, "gamma": "fast"})
        with pytest.raises(ConfigError, match=r"game\.learner_set\.kind"):
            game_from_jsonable(
                {"X": [[1.0]], "y": [0.0], "z": [0.0], "c_l": [1.0],
                 "learner_set": {"kind": "box"}}
            )

    def test_reg_d_fixed(self):
        doc = {"X": [[1.0]], "y": [0.0], "z": [0.0], "c_l": [1.0]}
        assert game_from_jsonable(dict(doc, reg_d=1.0)).n == 1
        with pytest.raises(ConfigError, match=r"game\.reg_d"):
            game_from_jsonable(dict(doc, reg_d=2.0))


class TestSolve:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "game.json"
        write_solve_config(cfg)
        out = tmp_path / "run1"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "profile.json").exists()
        assert (out / "trace.csv").exists()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["seed"] == 3 and meta["version"]
        assert "final residual" in capsys.readouterr().out
        profile = profile_from_jsonable(json.loads((out / "profile.json").read_text()))
        assert profile.sigma.shape == (2, 4, 2)

    def test_seed_determinism(self, tmp_path):
        cfg = tmp_path / "game.json"
        write_solve_config(cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(cfg), "--out", str(a), "--seed", "7"]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(b), "--seed", "7"]) == 0
        assert (a / "profile.json").read_text() == (b / "profile.json").read_text()
        # wall time is physical; everything else must match bitwise
        assert read_trace_without_walltime(a / "trace.csv") == read_trace_without_walltime(
            b / "trace.csv"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_2_without_profile(self, tmp_path, capsys):
        cfg = tmp_path / "game.json"
        write_solve_config(cfg, bounded=False,
                           solver={"max_iters": 500, "gamma": 50.0, "seed": 3, "trace_every": 100})
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "last finite residual" in capsys.readouterr().err
        assert not (out / "profile.json").exists()

    def test_non_finite_profile_is_not_written(self, tmp_path, monkeypatch, capsys):
        def nan_solver(spec, prior, config):
            w = np.full(spec.m, np.nan)
            profile = StrategyProfile(w=w, sigma=np.zeros((2, spec.n, spec.m)))
            return SolverTrace([TraceRecord(1, 0.5, None, 0.0)], profile, False)

        monkeypatch.setattr("bayesgame.cli.pg_rbc", nan_solver)
        cfg = tmp_path / "game.json"
        write_solve_config(cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
        assert not (out / "profile.json").exists()

    def test_prg_ie_rejects_unbounded_sets(self, tmp_path, capsys):
        cfg = tmp_path / "game.json"
        write_solve_config(cfg, bounded=False, algorithm="prg-ie",
                           solver={"max_iters": 50, "gamma": 1e-3})
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "bounded" in capsys.readouterr().err

    def test_algo_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "game.json"
        write_solve_config(cfg, algorithm="pg-rbc",
                           solver={"max_iters": 2000, "gamma": 0.01, "tol": 1e-10})
        out = tmp_path / "eg"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--algo", "extragradient"]) == 0
        rows = read_trace_without_walltime(out / "trace.csv")
        assert rows[0] == ["t", "residual", "error_to_reference"]
        assert len(rows) == 2  # single summary row for the reference solver
        assert (out / "trace.csv").read_bytes().count(b"\r\n") == 2  # SolverTrace.to_csv's

    def test_malformed_config_paths(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"game": {"y": [0.0], "z": [0.0], "c_l": [1.0]},
                                   "algorithm": "pg-rbc"}))
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "game.X" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [True, 2.0, "3"])
    def test_discretize_k_must_be_an_integer(self, tmp_path, capsys, k):
        cfg = tmp_path / "game.json"
        doc = write_solve_config(cfg)
        doc.update(prior={"family": "gaussian", "mean": 0.3, "std": 0.1}, discretize_k=k)
        cfg.write_text(json.dumps(doc))
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "configuration error: discretize_k: expected an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value, token", [(float("nan"), "NaN"), (float("inf"), "Infinity"),
                                              (-float("inf"), "-Infinity")])
    @pytest.mark.parametrize("solver", [None, {"max_iters": 50, "gamma": 0.6,
                                               "strong_monotonicity": 2.0}],
                             ids=["probed", "override"])
    def test_non_finite_json_tokens_rejected(self, tmp_path, capsys, value, token, solver):
        cfg = tmp_path / "nan.json"
        doc = write_solve_config(cfg, solver=solver)
        doc["game"]["learner_set"]["radius"] = value
        cfg.write_text(json.dumps(doc))  # json.dumps writes the bare token
        assert token in cfg.read_text()
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"non-finite number {token}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestProbe:
    def test_probe_outputs_json(self, tmp_path, capsys):
        cfg = tmp_path / "game.json"
        write_solve_config(cfg)
        assert main(["probe", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda_hat"] > 0
        assert payload["L_hat"] >= 0 and payload["G_hat"] >= 0
        assert np.isfinite(payload["L_hat"]) and np.isfinite(payload["G_hat"])

    def test_probe_deterministic_and_warns_on_step(self, tmp_path, capsys):
        cfg = tmp_path / "game.json"
        write_solve_config(cfg)  # gamma 0.6 violates the prg-ie bound
        main(["probe", "--config", str(cfg), "--seed", "5"])
        first = capsys.readouterr()
        main(["probe", "--config", str(cfg), "--seed", "5"])
        second = capsys.readouterr()
        assert first.out == second.out
        assert "prg-ie step bound" in first.err

    @pytest.mark.parametrize("gamma", [0.6, 0.01, 1e-5])
    def test_probe_warnings_are_the_solvers_messages(self, tmp_path, capsys, gamma):
        cfg = tmp_path / "game.json"
        write_solve_config(cfg, solver={"max_iters": 1, "gamma": gamma})
        assert main(["probe", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        spec, prior = small_game()
        config = SolverConfig(max_iters=1, gamma=gamma)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prg_ie(spec, prior, replace(config, lipschitz=payload["L_hat"]))
            pg_rbc(spec, prior, replace(config, strong_monotonicity=payload["lambda_hat"]))
        assert payload["warnings"] == [str(w.message) for w in caught]
        assert payload["warnings"]  # each of these steps breaks at least one rule

    @pytest.mark.parametrize("seed", ["x", True, 1.5])
    def test_seed_must_be_an_integer(self, tmp_path, capsys, seed):
        cfg = tmp_path / "game.json"
        doc = write_solve_config(cfg)
        doc["probe"] = {"seed": seed}
        cfg.write_text(json.dumps(doc))
        assert main(["probe", "--config", str(cfg)]) == 1
        assert "configuration error: probe.seed: expected an integer" in capsys.readouterr().err

    def test_probe_out_file(self, tmp_path):
        cfg = tmp_path / "game.json"
        write_solve_config(cfg)
        out = tmp_path / "diag.json"
        assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["trials"] == 64


class TestBenchmarkCommand:
    def write_dataset(self, tmp_path, rows=60):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=rows).astype(float)
        features = rng.normal(size=(rows, 57)) + 0.5 * np.outer(labels, np.ones(57))
        path = tmp_path / "data.csv"
        write_dataset_csv(features, labels, path)
        return path

    def write_config(self, tmp_path, dataset, **extra):
        doc = {
            "dataset": str(dataset),
            "train_n": 20, "test_n": 20, "repetitions": 2, "test_draws": 5,
            "priors": [{"family": "gaussian", "mean": 1.0, "std": 1.0}],
            "methods": ["ridge"],
            "ridge_alpha_grid": [0.1, 1.0],
            "seed": 1,
        }
        doc.update(extra)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        return path

    def test_benchmark_smoke(self, tmp_path, capsys):
        dataset = self.write_dataset(tmp_path)
        cfg = self.write_config(tmp_path, dataset)
        out = tmp_path / "bench_out"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "method,prior_family,prior_params,repetition,rmse"
        assert len(lines) == 3
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["aggregates"][0]["method"] == "ridge"
        assert "rmse" in capsys.readouterr().out

    def test_benchmark_deterministic(self, tmp_path):
        dataset = self.write_dataset(tmp_path)
        cfg = self.write_config(tmp_path, dataset)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["benchmark", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["benchmark", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "results.csv").read_text() == (b / "results.csv").read_text()

    def test_invalid_dataset_path(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, tmp_path / "missing.csv")
        rc = main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "dataset" in capsys.readouterr().err

    def test_env_var_dataset_dir(self, tmp_path, monkeypatch):
        dataset_dir = tmp_path / "data_dir"
        dataset_dir.mkdir()
        dataset = self.write_dataset(dataset_dir)
        dataset.rename(dataset_dir / "spambase.data")
        monkeypatch.setenv("BAYESGAME_DATA", str(dataset_dir))
        cfg = self.write_config(tmp_path, dataset)
        doc = json.loads(cfg.read_text())
        del doc["dataset"]
        cfg.write_text(json.dumps(doc))
        assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_workers_flag(self, tmp_path):
        dataset = self.write_dataset(tmp_path)
        cfg = self.write_config(tmp_path, dataset)
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert main(["benchmark", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["benchmark", "--config", str(cfg), "--out", str(b), "--workers", "2"]) == 0
        assert (a / "results.csv").read_text() == (b / "results.csv").read_text()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("adam_epochs", "2"),
            ("train_n", "50"),
            ("two_equilibria", "no"),
            ("ridge_alpha_grid", [0.1, "1"]),
            ("adam_batch_grid", [32.0]),
            ("seed", True),
        ],
    )
    def test_mistyped_key_exits_1(self, tmp_path, capsys, key, value):
        dataset = self.write_dataset(tmp_path)
        cfg = self.write_config(tmp_path, dataset, **{key: value})
        out = tmp_path / "o"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"configuration error: {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_custom_z_rule_needs_a_vector(self, tmp_path, capsys):
        dataset = self.write_dataset(tmp_path)
        cfg = self.write_config(tmp_path, dataset, z_rule={"kind": "custom"})
        out = tmp_path / "o"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
        assert "configuration error: z_rule.vector" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_rows_exit_2_after_writing_the_outputs(self, tmp_path, capsys):
        # the vector fits the training split but not the test split, so every row fails
        dataset = self.write_dataset(tmp_path)
        cfg = self.write_config(tmp_path, dataset, train_n=20, test_n=30,
                                z_rule={"kind": "custom", "vector": [0.0] * 20})
        out = tmp_path / "o"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
        for name in ("results.csv", "aggregate.json", "metadata.json"):
            assert (out / name).is_file()
        errors = json.loads((out / "aggregate.json").read_text())["errors"]
        rows = len((out / "results.csv").read_text().strip().splitlines()) - 1
        assert errors and len(errors) == rows
        err = capsys.readouterr().err
        assert f"error: {len(errors)} of {rows} result rows failed" in err

    def test_desk_script_runs_the_command(self, tmp_path, monkeypatch):
        dataset_dir = tmp_path / "data_dir"
        dataset_dir.mkdir()
        self.write_dataset(dataset_dir, rows=450).rename(dataset_dir / "spambase.data")
        out = tmp_path / "desk"
        monkeypatch.setenv("BAYESGAME_DATA", str(dataset_dir))
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_desk_benchmark.py"
        done = subprocess.run([sys.executable, str(script), "--out", str(out), "--seed", "2"],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        doc = json.loads((out / "config.json").read_text())
        assert "dataset" not in doc
        replay = tmp_path / "replay"
        assert main(["benchmark", "--config", str(out / "config.json"), "--out", str(replay),
                     "--scale", "desk", "--seed", "2"]) == 0
        for name in ("results.csv", "aggregate.json", "metadata.json"):
            assert (out / name).read_text() == (replay / name).read_text()

    def test_scale_preset_overrides_sizes(self, tmp_path, capsys):
        dataset = self.write_dataset(tmp_path, rows=80)
        cfg = self.write_config(tmp_path, dataset)
        # desk preset wants 200+200 rows; the 80-row dataset must be rejected
        rc = main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--scale", "desk"])
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err

    def test_desk_preset_completes(self, tmp_path):
        # ridge-only keeps the desk sizes cheap enough for a unit test
        dataset = self.write_dataset(tmp_path, rows=450)
        cfg = self.write_config(tmp_path, dataset)
        out = tmp_path / "desk"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out),
                     "--scale", "desk"]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 repetitions of the chosen alpha

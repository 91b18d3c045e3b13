import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bayesgame
from bayesgame.cli import ProbeConfig, main
from bayesgame.experiments import (
    METHODS,
    BenchmarkConfig,
    ZRule,
    write_dataset_csv,
)
from bayesgame.game import (
    ActionSet,
    FinitePrior,
    GameSpec,
    GammaPrior,
    GaussianPrior,
    LogNormalPrior,
    LossKind,
    discretize_prior,
)
from bayesgame.serialize import (
    ConfigError,
    config_from_jsonable,
    game_from_jsonable,
    game_to_jsonable,
    prior_from_jsonable,
    prior_to_jsonable,
    to_jsonable,
)
from bayesgame.solvers import (
    SolverConfig,
    assumption_probe,
    pg_rbc,
    prg_ie,
)
from conftest import small_game, solve_doc


def write_solve_config(path, bounded=True, algorithm="pg-rbc", solver=None):
    doc = solve_doc(bounded, algorithm, solver)
    path.write_text(json.dumps(doc))
    return doc


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
            config_from_jsonable(SolverConfig, {"max_iters": 10, "gamma": "fast"}, "solver")
        with pytest.raises(ConfigError, match=r"game\.learner_set\.kind"):
            game_from_jsonable(
                {"X": [[1.0]], "y": [0.0], "z": [0.0], "c_l": [1.0],
                 "learner_set": {"kind": "box"}}
            )

    def test_solver_decoder_defaults_and_nulls(self):
        with pytest.raises(ConfigError, match=r"^solver\.max_iters: missing required field$"):
            config_from_jsonable(SolverConfig, {"gamma": 0.1}, "solver")
        doc = {"max_iters": 10, "gamma": 0.1, "lipschitz": None, "strong_monotonicity": 2}
        config = config_from_jsonable(SolverConfig, doc, "solver")
        assert config == SolverConfig(max_iters=10, gamma=0.1, strong_monotonicity=2.0)
        assert type(config.strong_monotonicity) is float

    def test_reg_d_fixed(self):
        doc = {"X": [[1.0]], "y": [0.0], "z": [0.0], "c_l": [1.0]}
        assert game_from_jsonable(doc).n == 1
        for reg_d in (1.0, 2.0):  # the coefficient is fixed to 1, so the key is a stray one
            with pytest.raises(ConfigError, match=r"^game\.reg_d: unknown key$"):
                game_from_jsonable(dict(doc, reg_d=reg_d))


reals = st.floats(-1e6, 1e6, allow_nan=False)
nonnegative = st.floats(0.0, 1e6)
positive = st.floats(1e-6, 1e6)
optional = st.none() | reals
seeds = st.integers(0, 2**63 - 1)
counts = st.integers(1, 10**6)


def nonempty_tuples(elements, unique_by=None):
    return st.lists(elements, min_size=1, max_size=4, unique_by=unique_by).map(tuple)


def grids(elements, fmt="g"):
    """Benchmark grids, whose values must print apart."""
    return nonempty_tuples(elements, unique_by=lambda value: format(value, fmt))


@st.composite
def games(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    losses = [draw(st.sampled_from(LossKind)) for _ in range(2)]
    targets = [arrays(float, n, elements=st.sampled_from([-1.0, 1.0]) if loss is LossKind.LOGISTIC
                      else reals) for loss in losses]
    action_sets = st.just(ActionSet.unconstrained()) | positive.map(ActionSet.l2_ball)
    return GameSpec(
        X=draw(arrays(float, (n, m), elements=reals)), y=draw(targets[0]), z=draw(targets[1]),
        c_l=draw(arrays(float, n, elements=nonnegative)), learner_loss=losses[0],
        adversary_loss=losses[1], learner_set=draw(action_sets),
        adversary_set=draw(action_sets), reg_l=draw(nonnegative),
    )


@st.composite
def finite_priors(draw):
    K, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    probs = draw(arrays(float, K, elements=st.floats(0.1, 1.0)))
    probs /= probs.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    return FinitePrior(atoms=draw(arrays(float, (K, n), elements=nonnegative)), probs=probs)


priors = (finite_priors() | st.builds(GaussianPrior, reals, positive)
          | st.builds(GammaPrior, positive, positive) | st.builds(LogNormalPrior, reals, positive))
solver_configs = st.builds(
    SolverConfig, max_iters=counts, gamma=positive, seed=seeds, tol=nonnegative,
    trace_every=counts, lipschitz=st.none() | nonnegative, strong_monotonicity=optional,
)
probe_configs = st.builds(ProbeConfig, trials=st.integers(2, 10**6), seed=seeds)
benchmark_configs = st.builds(
    BenchmarkConfig, train_n=counts, test_n=counts, repetitions=counts, test_draws=counts,
    prior_grid=nonempty_tuples(priors),
    methods=nonempty_tuples(st.sampled_from(METHODS), unique_by=str),  # no method twice
    c_l_value=nonnegative, z_rule=st.builds(ZRule, st.sampled_from(["flip", "zero"])),
    seed=seeds, reg_l=nonnegative, adam_lr_grid=grids(positive),
    adam_batch_grid=grids(counts, ""), ridge_alpha_grid=grids(positive),
    adam_epochs=counts, adam_samples=counts, fp_samples=counts, fp_iterations=counts,
    nash_iterations=counts, two_equilibria=st.booleans(),
)


def through_json(doc):
    return json.loads(json.dumps(doc, allow_nan=False))


def assert_same_fields(back, original, where="config"):
    """Equal field by field and item by item, each of the same type; arrays bit for bit."""
    assert type(back) is type(original), where
    if is_dataclass(original):
        for f in fields(original):
            name = f"{where}.{f.name}"
            assert_same_fields(getattr(back, f.name), getattr(original, f.name), name)
    elif isinstance(original, np.ndarray):
        assert back.dtype == original.dtype and back.shape == original.shape, where
        assert back.tobytes() == original.tobytes(), where
    elif isinstance(original, tuple):
        assert len(back) == len(original), where
        for i, (a, b) in enumerate(zip(back, original)):
            assert_same_fields(a, b, f"{where}[{i}]")
    else:
        assert back == original, where


class TestRoundTrip:
    """Encoding then decoding, through JSON text, gives the object back."""

    @settings(max_examples=60, deadline=None)
    @given(games())
    def test_game(self, spec):
        assert_same_fields(game_from_jsonable(through_json(game_to_jsonable(spec))), spec)

    @settings(max_examples=60, deadline=None)
    @given(priors)
    def test_prior(self, prior):
        assert_same_fields(prior_from_jsonable(through_json(prior_to_jsonable(prior))), prior)

    @settings(max_examples=60, deadline=None)
    @given(solver_configs)
    def test_solver_config(self, config):
        back = config_from_jsonable(SolverConfig, through_json(to_jsonable(config)), "solver")
        assert_same_fields(back, config)

    @settings(max_examples=30, deadline=None)
    @given(probe_configs)
    def test_probe_config(self, config):
        back = config_from_jsonable(ProbeConfig, through_json(to_jsonable(config)), "probe")
        assert_same_fields(back, config)

    @settings(max_examples=60, deadline=None)
    @given(benchmark_configs)
    def test_benchmark_config(self, config):
        back = config_from_jsonable(BenchmarkConfig, through_json(to_jsonable(config)), "")
        assert_same_fields(back, config)


BENCHMARK_DOC = {"priors": [{"family": "gaussian", "mean": 1.0, "std": 1.0}]}
GAUSSIAN = {"family": "gaussian", "mean": 0.3, "std": 0.1}


class TestMalformedConfig:
    """Each malformed document exits 1 with one line naming its key, and writes nothing;
    a document whose run cannot allocate its arrays exits 2 the same way."""

    @pytest.mark.parametrize(
        "command, section, update, message",
        [
            ("solve", "solver", {"toll": 1e-6}, "solver.toll: unknown key"),
            ("solve", "game", {"learner_sett": {"kind": "unconstrained"}},
             "game.learner_sett: unknown key"),
            ("solve", "game", {"adversary_set": {"kind": "l2_ball", "radius": 2.0, "center": 0}},
             "game.adversary_set.center: unknown key"),
            ("solve", "prior", {"scale": 1.0}, "prior.scale: unknown key"),
            ("probe", "probe", {"trials": 8, "seeed": 1}, "probe.seeed: unknown key"),
            ("benchmark", None, {"datset": "data.csv"}, "datset: unknown key"),
            ("benchmark", None, {"z_rule": {"kind": "zero", "vector": [0.0]}},
             "z_rule.vector: unknown key"),
            ("benchmark", None, {"priors": [{"family": "gamma", "shape": 1, "scale": 1, "k": 2}]},
             "priors[0].k: unknown key"),
            ("solve", "game", {"learner_set": {"kind": "unconstrained", "radius": 1.0}},
             "game.learner_set.radius: must be left out for an unconstrained set"),
            ("solve", "prior", {"atoms": [[[0.1] * 4]] * 2},
             "prior.atoms: must be a (K, n) matrix, got shape (2, 1, 4)"),
            ("solve", "game", {"X": [0.1] * 4}, "game.X: must be a matrix with n, m >= 1"),
            ("solve", "game", {"y": [0.1]}, "game.y: has shape (1,), expected (4,)"),
            ("solve", "prior", {"probs": [0.5, 0.6]}, "prior.probs: sum to 1.1, not 1"),
            ("solve", "game", {"X": [["0.1", "0.2"]] * 4}, "game.X: expected a numeric array"),
            ("benchmark", None, {"dataset": 0}, "dataset: expected a string, got 0"),
            ("benchmark", None, {"dataset": True}, "dataset: expected a string, got True"),
            ("solve", "game", {"learner_set": {"kind": "box"}},
             "game.learner_set.kind: expected unconstrained or l2_ball, got 'box'"),
            ("solve", "game", {"adversary_loss": "hinge"},
             "game.adversary_loss: expected quadratic or logistic, got 'hinge'"),
            ("solve", None, {"solverr": {"max_iters": 5, "gamma": 0.1}}, "solverr: unknown key"),
            ("solve", None, {"discretize_kk": 4}, "discretize_kk: unknown key"),
            ("probe", None, {"algoritm": "pg-rbc"}, "algoritm: unknown key"),
            ("benchmark", None, {"prior_grid": 5}, "prior_grid: unknown key"),
            ("benchmark", None, {"priors": []}, "priors: must not be empty"),
            ("solve", "game", {"X": [[0.1, 0.2]] * 3 + [[0.1]]},
             "game.X: expected a numeric array"),
            ("benchmark", None, {"adam_lr_grid": 0.1}, "adam_lr_grid: expected a list, got 0.1"),
            ("solve", None, {"game": {"y": [0.0], "z": [0.0], "c_l": [1.0]}},
             "game.X: missing required field"),
        ],
        ids=["solver-key", "game-key", "action-set-key", "prior-key", "probe-key",
             "benchmark-key", "z-rule-key", "priors-key", "unconstrained-radius", "3d-atoms",
             "1d-X", "short-y", "probs-sum", "string-array", "dataset-0", "dataset-true",
             "action-set-kind", "loss-kind",
             "solve-top-key", "discretize-k-key", "probe-top-key", "prior-grid-key",
             "empty-priors", "ragged-array", "grid-not-a-list", "missing-X"],
    )
    def test_exits_1_naming_the_key(self, tmp_path, capsys, command, section, update, message):
        self.check(tmp_path, capsys, command, section, update, [], message)

    @pytest.mark.parametrize(
        "command, section, update, message",
        [
            ("solve", "solver", {"gamma": 0}, "solver.gamma: must be positive and finite"),
            ("solve", "solver", {"trace_every": 0}, "solver.trace_every: must be >= 1"),
            ("solve", "solver", {"lipschitz": -3.0},
             "solver.lipschitz: must be nonnegative and finite"),
            ("solve", None, {"discretize_k": 0}, "discretize_k: must be >= 1"),
            ("solve", "prior", {"atoms": [[0.1] * 7] * 2},
             "prior.atoms: have dimension 7, expected 4"),
            ("probe", "probe", {"trials": 1}, "probe.trials: must be >= 2"),
            ("solve", None, {"prior": {"family": "gaussian", "mean": 1.0, "std": -1.0}},
             "prior.std: must be positive and finite"),
            ("solve", "game", {"learner_set": {"kind": "l2_ball", "radius": 0.0}},
             "game.learner_set.radius: must be positive and finite"),
            ("benchmark", None, {"reg_l": -1.0}, "reg_l: must be nonnegative and finite"),
            ("benchmark", None, {"seed": -1}, "seed: must be >= 0"),
            ("benchmark", None, {"adam_batch_grid": [32, 0]}, "adam_batch_grid[1]: must be >= 1"),
            ("benchmark", None, {"ridge_alpha_grid": [5.0, 5.0000001]},
             "ridge_alpha_grid: must not hold values that print alike: 5, 5"),
            ("benchmark", None, {"methods": ["ridge", "lasso"]},
             "methods[1]: must be one of bayes-adam, bayes-fp, nash, ridge, got 'lasso'"),
            ("benchmark", None, {"methods": ["ridge", "nash", "ridge"]},
             "methods[2]: must not repeat 'ridge'"),
            # each command decodes every section, also those it does not use
            ("solve", None, {"probe": 5}, "probe: expected an object"),
            ("probe", None, {"algorithm": "pg_rbc"},
             "algorithm: expected prg-ie or pg-rbc or extragradient, got 'pg_rbc'"),
            ("probe", None, {"discretize_k": 0}, "discretize_k: must be >= 1"),
            ("solve", None, {"solver": None}, "solver: expected an object"),
            ("probe", None, {"solver": None}, "solver: expected an object"),
            ("solve", None, {"algorithm": None},
             "algorithm: expected prg-ie or pg-rbc or extragradient, got None"),
            ("probe", None, {"algorithm": None},
             "algorithm: expected prg-ie or pg-rbc or extragradient, got None"),
            # a field's error comes before an unknown top-level key's
            ("solve", None, {"algorithm": "pg_rbc", "solverr": {"max_iters": 5}},
             "algorithm: expected prg-ie or pg-rbc or extragradient, got 'pg_rbc'"),
            # an object's own range checks come before its unknown keys, at every depth
            ("solve", None, {"discretize_k": 0, "zzz": 1}, "discretize_k: must be >= 1"),
            ("benchmark", None, {"train_n": 0, "zzz": 1}, "train_n: must be >= 1"),
            # a value of the wrong type, or out of its range
            ("solve", "solver", {"seed": 1.7}, "solver.seed: expected an integer, got 1.7"),
            ("solve", "solver", {"trace_every": 2.5},
             "solver.trace_every: expected an integer, got 2.5"),
            ("solve", "solver", {"seed": True}, "solver.seed: expected an integer, got True"),
            ("solve", "solver", {"tol": "x"}, "solver.tol: expected a number, got 'x'"),
            ("solve", "solver", {"lipschitz": "1"}, "solver.lipschitz: expected a number, got '1'"),
            ("solve", "solver", {"seed": -1}, "solver.seed: must be >= 0"),
            ("solve", None, {"prior": GAUSSIAN, "discretize_k": True},
             "discretize_k: expected an integer, got True"),
            ("solve", None, {"prior": GAUSSIAN, "discretize_k": 2.0},
             "discretize_k: expected an integer, got 2.0"),
            ("solve", None, {"prior": GAUSSIAN, "discretize_k": "3"},
             "discretize_k: expected an integer, got '3'"),
            ("probe", "probe", {"seed": "x"}, "probe.seed: expected an integer, got 'x'"),
            ("probe", "probe", {"seed": True}, "probe.seed: expected an integer, got True"),
            ("probe", "probe", {"seed": 1.5}, "probe.seed: expected an integer, got 1.5"),
            ("probe", "probe", {"seed": -3}, "probe.seed: must be >= 0"),
            ("probe", None, {"probe": 5}, "probe: expected an object"),
            ("probe", None, {"solver": 5}, "solver: expected an object"),
            ("probe", "solver", {"gamma": "x"}, "solver.gamma: expected a number, got 'x'"),
            ("probe", "solver", {"gamma": True}, "solver.gamma: expected a number, got True"),
            ("probe", "solver", {"gamma": None}, "solver.gamma: expected a number, got None"),
            ("benchmark", None, {"adam_epochs": "2"}, "adam_epochs: expected an integer, got '2'"),
            ("benchmark", None, {"train_n": "50"}, "train_n: expected an integer, got '50'"),
            ("benchmark", None, {"two_equilibria": "no"},
             "two_equilibria: expected a boolean, got 'no'"),
            ("benchmark", None, {"ridge_alpha_grid": [0.1, "1"]},
             "ridge_alpha_grid[1]: expected a number, got '1'"),
            ("benchmark", None, {"adam_batch_grid": [32.0]},
             "adam_batch_grid[0]: expected an integer, got 32.0"),
            ("benchmark", None, {"seed": True}, "seed: expected an integer, got True"),
            ("benchmark", None, {"c_l_value": -1.0}, "c_l_value: must be nonnegative and finite"),
            ("benchmark", None, {"train_n": 0}, "train_n: must be >= 1"),
            ("benchmark", None, {"test_n": -5}, "test_n: must be >= 1"),
            ("benchmark", None, {"adam_epochs": 0}, "adam_epochs: must be >= 1"),
            ("benchmark", None, {"adam_samples": 0}, "adam_samples: must be >= 1"),
            ("benchmark", None, {"fp_samples": 0}, "fp_samples: must be >= 1"),
            ("benchmark", None, {"fp_iterations": 0}, "fp_iterations: must be >= 1"),
            ("benchmark", None, {"nash_iterations": 0}, "nash_iterations: must be >= 1"),
            ("benchmark", None, {"ridge_alpha_grid": [-1.0]},
             "ridge_alpha_grid[0]: must be positive and finite"),
            ("benchmark", None, {"ridge_alpha_grid": [0.1, 0.0]},
             "ridge_alpha_grid[1]: must be positive and finite"),
            ("benchmark", None, {"adam_lr_grid": [-0.01]},
             "adam_lr_grid[0]: must be positive and finite"),
            ("benchmark", None, {"adam_batch_grid": [0]}, "adam_batch_grid[0]: must be >= 1"),
            ("benchmark", None, {"methods": []}, "methods: must not be empty"),
            ("benchmark", None, {"z_rule": {"kind": "custom"}},
             "z_rule.kind: expected flip or zero, got 'custom'"),
            ("benchmark", None, {"z_rule": {"kind": "custom", "vector": [0.0]}},
             "z_rule.kind: expected flip or zero, got 'custom'"),
        ],
        ids=["solver-gamma", "solver-trace-every", "solver-lipschitz", "discretize-k",
             "prior-dimension", "probe-trials", "prior-std", "ball-radius",
             "benchmark-reg-l", "benchmark-seed", "benchmark-batch", "benchmark-grid-labels",
             "benchmark-method", "benchmark-repeated-method",
             "solve-probe-section", "probe-algorithm", "probe-discretize-k", "solve-null-solver",
             "probe-null-solver", "solve-null-algorithm", "probe-null-algorithm",
             "field-before-unknown-key", "solve-check-before-unknown-key",
             "benchmark-check-before-unknown-key",
             "float-seed", "float-trace-every", "bool-seed", "string-tol", "string-lipschitz",
             "negative-seed", "bool-discretize-k", "float-discretize-k", "string-discretize-k",
             "probe-string-seed", "probe-bool-seed", "probe-float-seed", "probe-negative-seed",
             "probe-probe-section", "probe-solver-section", "probe-string-gamma",
             "probe-bool-gamma", "probe-null-gamma",
             "string-adam-epochs", "string-train-n", "string-two-equilibria",
             "string-in-ridge-grid", "float-in-batch-grid", "bool-benchmark-seed",
             "benchmark-c-l-value", "benchmark-train-n", "benchmark-test-n",
             "benchmark-adam-epochs", "benchmark-adam-samples", "benchmark-fp-samples",
             "benchmark-fp-iterations", "benchmark-nash-iterations", "negative-ridge-alpha",
             "zero-ridge-alpha", "negative-adam-lr", "zero-batch", "empty-methods",
             "custom-z-rule", "custom-z-rule-vector"],
    )
    def test_a_rejected_value_names_its_field(self, tmp_path, capsys, command, section, update,
                                              message):
        self.check(tmp_path, capsys, command, section, update, [], message)

    @pytest.mark.parametrize(
        "command, section, update, flags, message",
        [
            # a flag does not hide the key it replaces
            ("solve", "solver", {"seed": "x"}, ["--seed", "4"],
             "solver.seed: expected an integer, got 'x'"),
            ("probe", "probe", {"seed": "x"}, ["--seed", "4"],
             "probe.seed: expected an integer, got 'x'"),
            ("benchmark", None, {"seed": "x"}, ["--seed", "1"],
             "seed: expected an integer, got 'x'"),
            ("benchmark", None, {"train_n": "lots"}, ["--scale", "paper"],
             "train_n: expected an integer, got 'lots'"),
            ("benchmark", None, {"seed": "x", "train_n": "lots", "prior_grid": 5},
             ["--seed", "1", "--scale", "desk"], "train_n: expected an integer, got 'lots'"),
            ("solve", None, {"algorithm": "pg_rbc"}, ["--algo", "pg-rbc"],
             "algorithm: expected prg-ie or pg-rbc or extragradient, got 'pg_rbc'"),
            # a flag's own value is checked as its key's would be
            ("solve", None, {}, ["--seed", "-1"], "solver.seed: must be >= 0"),
            ("probe", None, {}, ["--seed", "-1"], "probe.seed: must be >= 0"),
            ("benchmark", None, {}, ["--workers", "0"], "workers: must be >= 1"),
            ("benchmark", None, {}, ["--workers", "-3"], "workers: must be >= 1"),
            # the algorithm a flag picks checks the game
            ("solve", "game", {"learner_set": {"kind": "unconstrained"},
                               "adversary_set": {"kind": "unconstrained"}}, ["--algo", "prg-ie"],
             "prg_ie requires bounded l2_ball action sets for both players"),
        ],
        ids=["solve-seed", "probe-seed", "benchmark-seed", "paper-train-n", "desk-train-n",
             "algorithm", "solve-negative-seed", "probe-negative-seed", "zero-workers",
             "negative-workers", "prg-ie-unbounded"],
    )
    def test_with_flags(self, tmp_path, capsys, command, section, update, flags, message):
        self.check(tmp_path, capsys, command, section, update, flags, message)

    @pytest.mark.parametrize(
        "command, section, update, dataset, env, message",
        [
            # a config that decodes, whose data cannot be read
            pytest.param("benchmark", None, {"dataset": "{tmp}/missing.csv"}, None, None,
                         "dataset: cannot read {tmp}/missing.csv: [Errno 2] No such file or "
                         "directory: '{tmp}/missing.csv'", id="missing-dataset"),
            pytest.param("benchmark", None, {"dataset": "{tmp}/spambase.data"}, "1,2,3\n", None,
                         "dataset: {tmp}/spambase.data:1: expected 58 comma-separated values, "
                         "found 3", id="malformed-dataset"),
            pytest.param("benchmark", None, {}, None, {"BAYESGAME_DATA": None},
                         "dataset: no path in config and BAYESGAME_DATA is not set",
                         id="no-dataset"),
            pytest.param("benchmark", None, {}, "1,2,3\n", {"BAYESGAME_DATA": "{tmp}"},
                         "dataset: {tmp}/spambase.data:1: expected 58 comma-separated values, "
                         "found 3", id="malformed-dataset-in-data-dir"),
            # a null is a value of the wrong type, not a missing key
            *[pytest.param("benchmark", None, {"dataset": None}, "1,2,3\n", {"BAYESGAME_DATA": env},
                           "dataset: expected a string, got None", id=f"null-dataset-{name}")
              for name, env in [("without-data-dir", None), ("with-data-dir", "{tmp}")]],
            # json.dumps writes a non-finite float as a bare token, which no command reads
            *[pytest.param(command, section, update, None, None,
                           f"{{tmp}}/config.json: non-finite number {token} is not allowed",
                           id=f"{token}-{command}")
              for value, token in [(float("nan"), "NaN"), (float("inf"), "Infinity"),
                                   (-float("inf"), "-Infinity")]
              for command, section, update in [
                  ("solve", "game", {"learner_set": {"kind": "l2_ball", "radius": value}}),
                  ("probe", "solver", {"strong_monotonicity": value}),
                  ("benchmark", None, {"reg_l": value})]],
        ],
    )
    def test_with_files_and_environment(self, tmp_path, capsys, command, section, update,
                                        dataset, env, message):
        self.check(tmp_path, capsys, command, section, update, [], message, dataset, env)

    @pytest.mark.parametrize("command", ["solve", "probe", "benchmark"])
    @pytest.mark.parametrize(
        "raw, reason",
        [(None, "cannot read ("), (b"{not json", "invalid JSON ("), (b"\xff", "invalid JSON ("),
         (b"[1, 2]", "top-level document must be an object")],
        ids=["missing", "invalid-json", "not-utf8", "top-level-array"],
    )
    def test_a_file_that_is_not_a_json_object(self, tmp_path, capsys, command, raw, reason):
        cfg = tmp_path / "config.json"
        if raw is not None:
            cfg.write_bytes(raw)
        err = self.rejected(tmp_path, capsys, self.argv(tmp_path, command))
        assert err.startswith(f"configuration error: {cfg}: {reason}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, section, update, message",
        [
            ("solve", "solver", {"toll": 1e-6}, "solver.toll: unknown key"),
            ("probe", None, {"probe": 5}, "probe: expected an object"),
            ("benchmark", None, {"ridge_alpha_grid": [-1.0]},
             "ridge_alpha_grid[0]: must be positive and finite"),
        ],
        ids=["solve", "probe", "benchmark"],
    )
    def test_a_process_exits_1_without_a_traceback(self, tmp_path, command, section, update,
                                                    message):
        self.write(tmp_path, command, section, update)
        env = dict(os.environ, PYTHONPATH=str(Path(bayesgame.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "bayesgame.cli", *self.argv(tmp_path, command)],
                             stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env)
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr == f"configuration error: {message}\n"  # the one line: no traceback
        assert not (tmp_path / "o").exists()

    def check(self, tmp_path, capsys, command, section, update, flags, message, dataset=None,
              env=None):
        """Run the command on the config ``write`` writes, beside ``dataset`` as the file
        ``spambase.data`` when given, with ``env``'s variables set (unset where None);
        ``{tmp}`` in ``update``, ``env`` and ``message`` stands for ``tmp_path``."""
        if dataset is not None:
            (tmp_path / "spambase.data").write_text(dataset)
        self.write(tmp_path, command, section, update)
        with pytest.MonkeyPatch.context() as patch:
            for name, value in (env or {}).items():
                if value is None:
                    patch.delenv(name, raising=False)
                else:
                    patch.setenv(name, value.replace("{tmp}", str(tmp_path)))
            err = self.rejected(tmp_path, capsys, self.argv(tmp_path, command) + flags)
        assert err == f"configuration error: {message}\n".replace("{tmp}", str(tmp_path))

    @staticmethod
    def write(tmp_path, command, section, update):
        """A valid config of the command's kind, with ``update`` applied to ``section``;
        ``{tmp}`` in a string stands for ``tmp_path``."""
        cfg = tmp_path / "config.json"
        doc = json.loads(json.dumps(BENCHMARK_DOC)) if command == "benchmark" else (
            write_solve_config(cfg))
        (doc if section is None else doc.setdefault(section, {})).update(update)
        cfg.write_text(json.dumps(doc).replace("{tmp}", json.dumps(str(tmp_path))[1:-1]))

    @staticmethod
    def argv(tmp_path, command):
        """The command on ``tmp_path``'s config, writing under ``tmp_path / "o"``."""
        out = tmp_path / "o" / "diag.json" if command == "probe" else tmp_path / "o"
        return [command, "--config", str(tmp_path / "config.json"), "--out", str(out)]

    @staticmethod
    def rejected(tmp_path, capsys, argv):
        """The stderr of a run that exits 1, prints nothing to stdout and writes nothing."""
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "o").exists()
        return err


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
        assert meta["config"]["algorithm"] == "pg-rbc"
        solver = config_from_jsonable(SolverConfig, meta["config"]["solver"], "solver")
        assert solver == SolverConfig(max_iters=500, gamma=0.6, seed=3, trace_every=100)
        assert "final residual" in capsys.readouterr().out
        profile = json.loads((out / "profile.json").read_text())
        assert np.shape(profile["w"]) == (2,) and np.shape(profile["sigma"]) == (2, 4, 2)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
    def test_metadata_hashes_the_config_files_bytes(self, tmp_path, newline):
        cfg = tmp_path / "game.json"
        write_solve_config(cfg)
        cfg.write_bytes(cfg.read_bytes().replace(b", ", b"," + newline))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        meta = json.loads((tmp_path / "o" / "metadata.json").read_text())
        assert meta["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()

    def test_algo_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "game.json"
        solver = {"max_iters": 2000, "gamma": 0.01, "tol": 1e-10, "trace_every": 5}
        write_solve_config(cfg, algorithm="pg-rbc", solver=solver)
        out = tmp_path / "eg"
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--algo", "extragradient"]) == 0
        with open(out / "trace.csv") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["t", "residual", "error_to_reference", "wall_time_s"]
        ts = [int(row[0]) for row in rows]
        assert len(rows) > 2 and ts[0] == 1 and ts == sorted(set(ts))  # a real trace
        assert float(rows[-1][1]) <= 1e-10
        assert all(float(row[3]) > 0 for row in rows)
        assert (out / "trace.csv").read_bytes().count(b"\r\n") == len(rows) + 1


class TestProbe:
    def test_probe_outputs_json(self, tmp_path, capsys):
        cfg = tmp_path / "game.json"
        write_solve_config(cfg)
        assert main(["probe", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload.keys() == {"lambda_hat", "L_hat", "trials", "seed", "warnings",
                                  "config_sha256", "version"}
        assert payload["lambda_hat"] > 0
        assert payload["L_hat"] >= 0 and np.isfinite(payload["L_hat"])

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

    def test_probe_discretizes_the_prior_that_solve_does(self, tmp_path, monkeypatch):
        # a continuous prior's atoms come from the solver's seed in both commands, so the
        # probed constants describe the finite game that solve runs on
        cfg = tmp_path / "game.json"
        doc = write_solve_config(cfg, solver={"max_iters": 10, "gamma": 0.1, "seed": 5})
        doc.update(prior={"family": "gaussian", "mean": 1.0, "std": 2.0}, discretize_k=4)
        cfg.write_text(json.dumps(doc))
        seen = {}

        def spy(name, run):
            def wrapped(spec, prior, *args, **kwargs):
                seen[name] = prior
                return run(spec, prior, *args, **kwargs)
            return wrapped

        monkeypatch.setattr("bayesgame.cli.pg_rbc", spy("solve", pg_rbc))
        monkeypatch.setattr("bayesgame.cli.assumption_probe", spy("probe", assumption_probe))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        out = tmp_path / "diag.json"  # probe's --seed seeds only the pairs
        assert main(["probe", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
        diag = json.loads(out.read_text(), parse_constant=pytest.fail)  # strict JSON
        assert np.isfinite([diag["L_hat"], diag["lambda_hat"]]).all()
        expected = discretize_prior(GaussianPrior(1.0, 2.0), 4, 4, seed=5)
        for prior in (seen["solve"], seen["probe"]):
            assert np.array_equal(prior.atoms, expected.atoms)
            assert np.array_equal(prior.probs, expected.probs)

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

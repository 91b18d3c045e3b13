"""The library's input contract: one row per rejected input, one test.

Inputs are checked once, at the public boundary.  Each row calls a public
function or constructor on one shared small game (n = 4 instances, m = 3
features, K = 2 atoms) and names what it must raise: the exact exception
class, the field a ``FieldError`` names (None for any other class) and the
whole message.  A rejected call writes nothing.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from bayesgame.cli import ProbeConfig
from bayesgame.experiments import (BenchmarkConfig, Dataset, ZRule, desk_config, evaluate,
                                   prior_label, ridge_fit, rmse, run_benchmark, split,
                                   write_dataset_csv)
from bayesgame.game import (ActionSet, ConfigError, FieldError, FinitePrior, GammaPrior,
                            GaussianPrior, LogNormalPrior, LossKind, StrategyProfile,
                            adversary_cost, discretize_prior, grad_adversary_X, grad_learner_w,
                            learner_cost, origin_profile, prior_mean, sample_prior)
from bayesgame.quadratic import (AdamConfig, bayes_adam, bayes_fp, best_response,
                                 stochastic_gradient, stochastic_objective)
from bayesgame.solvers import (SolverConfig, assumption_probe, epsilon_distance,
                               equilibrium_residual, extragradient, extragradient_reference,
                               pg_rbc, prg_ie, stacked_map, step_warnings)
from conftest import random_quadratic_game

NAN, INF = float("nan"), float("inf")
SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])
GAUSSIAN = GaussianPrior(1.0, 1.0)
SAMPLES = "c_d samples must be nonnegative and finite elementwise"
NOT_FINITE = {"c_l": "c_l must be nonnegative and finite elementwise",
              "X": "X must be finite elementwise", "y": "y must be finite elementwise",
              "z": "z must be finite elementwise"}
NOT_REAL = {"gamma": "gamma must be positive and finite",
            "tol": "tol must be nonnegative and finite",
            "lipschitz": "lipschitz must be nonnegative and finite",
            "strong_monotonicity": "strong_monotonicity must be finite"}


def poked(values, bad):
    """A copy of ``values`` whose second entry is ``bad``."""
    values = values.copy()
    values.flat[1] = bad
    return values


def bench(**overrides):
    return BenchmarkConfig(prior_grid=(GAUSSIAN,), **overrides)


def solver_config(**fields):
    """A short run whose step meets both step rules, so that no solver warns, with ``fields``."""
    return SolverConfig(**{"max_iters": 5, "gamma": 0.1, "lipschitz": 2.0,
                           "strong_monotonicity": 2.0, **fields})


class NanPrior(GaussianPrior):
    """A Gaussian prior whose first draw is NaN."""

    def draw(self, rng, n, num_samples):
        draws = super().draw(rng, n, num_samples)
        draws[0, 0] = NAN  # np.maximum(nan, 0) stays nan
        return draws


SOLVERS = {"pg_rbc": (pg_rbc, 0.5), "prg_ie": (prg_ie, 1e-3),
           "extragradient": (extragradient, 1.0)}
FINITE_PRIOR_ENTRIES = {
    "prg_ie": lambda g, prior: prg_ie(g.ball, prior, solver_config(gamma=1e-3)),
    "pg_rbc": lambda g, prior: pg_rbc(g.ball, prior, solver_config(gamma=0.5)),
    "extragradient": lambda g, prior: extragradient(g.ball, prior, solver_config(gamma=1.0)),
    "extragradient_reference": lambda g, prior: extragradient_reference(g.ball, prior, 1e-8),
    "assumption_probe": lambda g, prior: assumption_probe(g.ball, prior, 2, 0),
    "stacked_map": lambda g, prior: stacked_map(g.profile, prior, g.spec),
    "equilibrium_residual": lambda g, prior: equilibrium_residual(g.profile, prior, g.spec),
    "epsilon_distance": lambda g, prior: epsilon_distance(g.profile, g.profile, prior),
}
SEEDED = {
    "assumption_probe": lambda g, seed: assumption_probe(g.spec, g.prior, trials=2, seed=seed),
    "discretize_prior-finite": lambda g, seed: discretize_prior(g.prior, 4, 2, seed=seed),
    "discretize_prior-gaussian": lambda g, seed: discretize_prior(GAUSSIAN, 4, 2, seed=seed),
    "sample_prior": lambda g, seed: sample_prior(g.prior, 4, 3, seed=seed),
    "split": lambda g, seed: split(g.data, 1, 1, seed),
}
SEEDS = {"fraction": (1.5, "seed must be an integer, got 1.5"),
         "bool": (True, "seed must be an integer, got True"), "negative": (-1, "seed must be >= 0")}
WRONG_REFERENCES = {  # part: reference, field, message
    "sigma": (StrategyProfile(np.zeros(3), np.zeros((2, 1, 3))), "reference sigma",
              "reference sigma has shape (2, 1, 3), expected (2, 4, 3)"),
    "w": (StrategyProfile(np.zeros(1), np.zeros((2, 4, 3))), "reference w",
          "reference w has shape (1,), expected (3,)"),
}

# id, call on the shared game g, exception class, field, message
ROWS = [
    # game: action sets
    ("ActionSet-kind", lambda g: ActionSet("box"), FieldError, "kind",
     "kind must be unconstrained or l2_ball, got 'box'"),
    ("ActionSet-unconstrained-radius", lambda g: ActionSet("unconstrained", 1.0), FieldError,
     "radius", "radius must be left out for an unconstrained set"),
    ("ActionSet-bool-radius", lambda g: ActionSet("l2_ball", True), FieldError, "radius",
     "radius must be positive and finite"),  # a bool is no radius, though Python counts it as 1
    *[(f"l2_ball-radius-{r}", lambda g, r=r: ActionSet.l2_ball(r), FieldError, "radius",
       "radius must be positive and finite") for r in (0.0, True, NAN, INF, -INF)],
    # game: costs and gradients, and the generator's response
    ("learner_cost-w", lambda g: learner_cost(np.ones(2), g.X, g.spec), FieldError, "w",
     "w has shape (2,), expected (3,)"),
    ("learner_cost-Xbar", lambda g: learner_cost(np.ones(3), g.X.T, g.spec), FieldError,
     "Xbar", "Xbar has shape (3, 4), expected (4, 3)"),
    ("adversary_cost-w", lambda g: adversary_cost(np.ones((3, 1)), g.X, np.ones(4), g.spec),
     FieldError, "w", "w has shape (3, 1), expected (3,)"),
    ("grad_learner_w-w", lambda g: grad_learner_w(np.zeros(4), g.X, g.spec), FieldError, "w",
     "w has shape (4,), expected (3,)"),
    ("grad_adversary_X-w", lambda g: grad_adversary_X(np.zeros(4), g.X, np.ones(4), g.spec),
     FieldError, "w", "w has shape (4,), expected (3,)"),
    ("grad_adversary_X-c_d", lambda g: grad_adversary_X(np.ones(3), g.X, np.ones(5), g.spec),
     FieldError, "c_d", "c_d has shape (5,), expected (4,)"),
    *[(f"{name}-{kind}-c_d", lambda g, call=call, bad=bad: call(g, poked(np.ones(4), bad)),
       FieldError, "c_d", "c_d must be nonnegative and finite elementwise") for name, call in [
          ("adversary_cost", lambda g, c_d: adversary_cost(np.ones(3), g.X, c_d, g.spec)),
          ("grad_adversary_X", lambda g, c_d: grad_adversary_X(np.ones(3), g.X, c_d, g.spec)),
          ("best_response", lambda g, c_d: best_response(np.ones(3), g.X, g.spec.z, c_d))]
      for kind, bad in [("negative", -0.1), ("nan", NAN), ("inf", INF)]],
    # game: GameSpec
    ("GameSpec-z", lambda g: replace(g.spec, z=np.ones(3)), FieldError, "z",
     "z has shape (3,), expected (4,)"),
    ("GameSpec-negative-c_l", lambda g: replace(g.spec, c_l=poked(g.spec.c_l, -0.1)),
     FieldError, "c_l", "c_l must be nonnegative and finite elementwise"),
    *[(f"GameSpec-{bad}-{name}", lambda g, name=name, bad=bad: replace(
        g.spec, **{name: poked(getattr(g.spec, name), bad)}), FieldError, name, NOT_FINITE[name])
      for name in NOT_FINITE for bad in (NAN, INF, -INF)],
    *[(f"GameSpec-{bad}-reg_l", lambda g, bad=bad: replace(g.spec, reg_l=bad),
       FieldError, "reg_l", "reg_l must be nonnegative and finite") for bad in (NAN, INF)],
    ("GameSpec-logistic-y", lambda g: replace(g.spec, learner_loss=LossKind.LOGISTIC),
     FieldError, "y", "y must take values in {-1, +1} for logistic loss"),
    ("GameSpec-logistic-z", lambda g: replace(g.spec, adversary_loss="logistic"),
     FieldError, "z", "z must take values in {-1, +1} for logistic loss"),
    *[(f"GameSpec-{name}", lambda g, name=name: replace(g.spec, **{name: "hinge"}),
       FieldError, name, f"{name} must be quadratic or logistic")
      for name in ("learner_loss", "adversary_loss")],
    # game: priors
    ("FinitePrior-probs", lambda g: FinitePrior(np.ones((2, 4)), np.ones(3) / 3), FieldError,
     "probs", "probs has shape (3,), expected (2,)"),
    ("FinitePrior-probs-sum", lambda g: FinitePrior(np.ones((2, 4)), np.array([0.6, 0.5])),
     FieldError, "probs", "probs sum to 1.1, not 1"),
    *[(f"FinitePrior-{name}-probs", lambda g, probs=probs: FinitePrior(np.ones((2, 4)),
                                                                      np.array(probs)),
       FieldError, "probs", "probs must hold strictly positive probabilities")
      for name, probs in [("zero", [1.0, 0.0]), ("nan", [NAN, 0.5]), ("all-nan", [NAN, NAN])]],
    *[(f"FinitePrior-atoms-{bad}", lambda g, bad=bad: FinitePrior(poked(np.ones((1, 4)), bad),
                                                                  np.ones(1)),
       FieldError, "atoms", "atoms must be nonnegative and finite elementwise")
      for bad in (-1.0, NAN, INF)],
    *[(f"FinitePrior-{name}-atoms", lambda g, shape=shape, K=K: FinitePrior(
        np.ones(shape), np.full(K, 1.0 / K)), FieldError, "atoms",
       f"atoms must be a (K, n) matrix, got shape {shape}")
      for name, shape, K in [("3d", (2, 3, 4), 2), ("vector", (3,), 1), ("scalar", (), 1)]],
    ("prior_mean-dimension", lambda g: prior_mean(g.prior, 3), FieldError, "atoms",
     "atoms have dimension 4, expected 3"),
    ("FinitePrior-atoms", lambda g: FinitePrior(np.ones((2, 5)), np.full(2, 0.5)).mean_vector(4),
     FieldError, "atoms", "atoms have dimension 5, expected 4"),
    ("discretize_prior-passthrough-dimension", lambda g: discretize_prior(g.prior, 7, 2, seed=0),
     FieldError, "atoms", "atoms have dimension 4, expected 7"),
    *[(f"{make.__name__}-{name}-{value}", lambda g, make=make, kwargs=kwargs: make(**kwargs),
       FieldError, name, f"{name} must be {sign}finite")
      for make, kwargs, name, value, sign in [
          (GaussianPrior, {"mean": 0.0, "std": 0.0}, "std", 0.0, "positive and "),
          (GaussianPrior, {"mean": "x", "std": 1.0}, "mean", "x", ""),
          (GaussianPrior, {"mean": NAN, "std": 1.0}, "mean", NAN, ""),
          (GaussianPrior, {"mean": 0.0, "std": NAN}, "std", NAN, "positive and "),
          (GammaPrior, {"shape": -1.0, "scale": 1.0}, "shape", -1.0, "positive and "),
          (GammaPrior, {"shape": True, "scale": 1.0}, "shape", True, "positive and "),
          (GammaPrior, {"shape": NAN, "scale": 1.0}, "shape", NAN, "positive and "),
          (GammaPrior, {"shape": 1.0, "scale": INF}, "scale", INF, "positive and "),
          (LogNormalPrior, {"mu": 0.0, "sigma": -2.0}, "sigma", -2.0, "positive and "),
          (LogNormalPrior, {"mu": INF, "sigma": 1.0}, "mu", INF, ""),
          (LogNormalPrior, {"mu": 0.0, "sigma": NAN}, "sigma", NAN, "positive and ")]],
    *[(f"{name}-n-{n}", lambda g, call=call, n=n: call(n), FieldError, "n", "n must be >= 1")
      for name, call in [("sample_prior", lambda n: sample_prior(GAUSSIAN, n, 3, seed=0)),
                         ("discretize_prior", lambda n: discretize_prior(GAUSSIAN, n, 2, seed=0))]
      for n in (0, -1)],
    ("StrategyProfile-w", lambda g: StrategyProfile(np.ones((3, 1)), np.ones((1, 4, 3))),
     FieldError, "w", "w must be a (m,) vector, got shape (3, 1)"),
    ("StrategyProfile-sigma", lambda g: StrategyProfile(np.ones(3), g.X), FieldError, "sigma",
     "sigma must be a (K, n, m) stack, got shape (4, 3)"),
    # public counts and seeds
    *[(f"{entry}-2.5-{name}", call, FieldError, name, f"{name} must be an integer, got 2.5")
      for entry, name, call in [
          ("ProbeConfig", "trials", lambda g: ProbeConfig(trials=2.5)),
          ("assumption_probe", "trials", lambda g: assumption_probe(g.spec, g.prior, 2.5, 0)),
          ("discretize_prior", "K", lambda g: discretize_prior(g.prior, 4, 2.5, seed=0)),
          ("bayes_fp", "iterations", lambda g: bayes_fp(g.spec, g.prior.atoms, iterations=2.5)),
          ("sample_prior", "num_samples", lambda g: sample_prior(g.prior, 4, 2.5, seed=0)),
          ("split", "train_n", lambda g: split(g.data, 2.5, 1, 0)),
          ("split", "test_n", lambda g: split(g.data, 1, 2.5, 0)),
          ("sample_prior", "n", lambda g: sample_prior(GAUSSIAN, 2.5, 3, seed=0)),
          ("discretize_prior", "n", lambda g: discretize_prior(GAUSSIAN, 2.5, 2, seed=0))]],
    *[(f"{entry}-{kind}-seed", lambda g, call=call, seed=seed: call(g, seed), FieldError, "seed",
       message) for entry, call in SEEDED.items() for kind, (seed, message) in SEEDS.items()],
    # quadratic
    ("best_response-z", lambda g: best_response(np.ones(3), g.X, np.ones(3), np.ones(4)),
     FieldError, "z", "z has shape (3,), expected (4,)"),
    ("best_response-w", lambda g: best_response(np.ones(2), g.X, np.ones(4), np.ones(4)),
     FieldError, "w", "w has shape (2,), expected (3,)"),
    ("best_response-X", lambda g: best_response(np.ones(3), g.X[0], np.ones(4), np.ones(4)),
     FieldError, "X", "X must be a matrix with n, m >= 1"),
    ("best_response-nan-X", lambda g: best_response(np.ones(3), g.X * NAN, np.ones(4), np.ones(4)),
     FieldError, "X", "X must be finite elementwise"),
    ("stochastic_gradient-w", lambda g: stochastic_gradient(np.ones(4), g.spec, np.ones((2, 4))),
     FieldError, "w", "w has shape (4,), expected (3,)"),
    ("stochastic_objective-empty", lambda g: stochastic_objective(np.zeros(3), g.spec,
                                                                  np.zeros((0, 4))),
     FieldError, "c_d samples",
     "c_d samples must be a nonempty matrix with 4 columns, got shape (0, 4)"),
    *[(f"{name}-{bad}-samples", lambda g, call=call, bad=bad: call(
        g.spec, poked(g.prior.atoms, bad)), FieldError, "c_d samples", SAMPLES) for name, call in [
          ("stochastic_objective", lambda spec, s: stochastic_objective(np.ones(3), spec, s)),
          ("stochastic_gradient", lambda spec, s: stochastic_gradient(np.ones(3), spec, s)),
          ("bayes_fp", lambda spec, s: bayes_fp(spec, s, 2))] for bad in (NAN, INF)],
    ("bayes_adam-nan-draw", lambda g: bayes_adam(g.spec, NanPrior(1.0, 1.0), AdamConfig(
        epochs=1, total_samples=8, batch_size=4)), FieldError, "c_d samples", SAMPLES),
    ("bayes_fp-empty", lambda g: bayes_fp(g.spec, np.zeros((0, 4))), FieldError, "c_d samples",
     "c_d samples must be a nonempty matrix with 4 columns, got shape (0, 4)"),
    ("bayes_fp-vector", lambda g: bayes_fp(g.spec, np.zeros(4)), FieldError, "c_d samples",
     "c_d samples must be a nonempty matrix with 4 columns, got shape (4,)"),
    ("bayes_fp-logistic-learner", lambda g: bayes_fp(replace(
        g.spec, y=SIGNS, learner_loss="logistic"), np.zeros((1, 4))), ValueError, None,
     "bayes_fp requires a quadratic learner loss"),
    ("bayes_fp-logistic-adversary", lambda g: bayes_fp(replace(
        g.spec, z=SIGNS, adversary_loss="logistic"), np.zeros((1, 4))), ValueError, None,
     "the closed-form reduction requires a quadratic adversary loss"),
    ("bayes_fp-bounded", lambda g: bayes_fp(replace(
        g.spec, learner_set=ActionSet.l2_ball(1.0)), np.zeros((1, 4))), ValueError, None,
     "bayes_fp requires an unconstrained learner set"),
    ("AdamConfig-batch-size", lambda g: AdamConfig(batch_size=64, total_samples=32), FieldError,
     "batch_size", "batch_size must be <= total_samples"),
    *[(f"AdamConfig-{bad}-learning-rate", lambda g, bad=bad: AdamConfig(learning_rate=bad),
       FieldError, "learning_rate", "learning_rate must be positive and finite")
      for bad in (NAN, INF)],
    *[(f"AdamConfig-{name}-{value!r}", lambda g, name=name, value=value: AdamConfig(
        **{name: value}), FieldError, name, f"{name} must be an integer, got {value!r}")
      for name in ("batch_size", "epochs", "total_samples", "seed") for value in (1.5, 8.0, True)],
    *[(f"AdamConfig-seed-{seed}", lambda g, seed=seed: AdamConfig(seed=seed), FieldError, "seed",
       "seed must be >= 0") for seed in (-1, -(2**63))],
    # solvers
    *[(f"{name}-prior-dimension", lambda g, call=call: call(
        g, FinitePrior(np.full((2, 5), 0.1), np.full(2, 0.5))), FieldError, "atoms",
       "atoms have dimension 5, expected 4")
      for name, call in FINITE_PRIOR_ENTRIES.items()],
    *[(f"{name}-continuous-prior", lambda g, call=call: call(g, GAUSSIAN), TypeError, None,
       "expected a FinitePrior, got GaussianPrior: see discretize_prior")
      for name, call in FINITE_PRIOR_ENTRIES.items()],
    *[(f"{name}-reference-{part}", lambda g, run=run, gamma=gamma, reference=reference: run(
        g.ball, g.prior, solver_config(gamma=gamma), reference=reference), FieldError, field,
       message)
      for name, (run, gamma) in SOLVERS.items()
      for part, (reference, field, message) in WRONG_REFERENCES.items()],
    *[(f"epsilon_distance-reference-{part}", lambda g, reference=reference: epsilon_distance(
        g.profile, reference, g.prior), FieldError, field, message)
      for part, (reference, field, message) in WRONG_REFERENCES.items()],
    ("epsilon_distance-K", lambda g: epsilon_distance(
        g.profile, origin_profile(g.spec, 3), g.prior), FieldError, "reference sigma",
     "reference sigma has shape (3, 4, 3), expected (2, 4, 3)"),
    ("stacked_map-K", lambda g: stacked_map(origin_profile(g.spec, 3), g.prior, g.spec),
     FieldError, "profile sigma", "profile sigma has shape (3, 4, 3), expected (2, 4, 3)"),
    ("prg_ie-unbounded", lambda g: prg_ie(g.spec, g.prior, solver_config(gamma=1e-3)),
     ConfigError, None, "prg_ie requires bounded l2_ball action sets for both players"),
    ("assumption_probe-one-trial", lambda g: assumption_probe(g.spec, g.prior, 1, 0), FieldError,
     "trials", "trials must be >= 2"),
    *[(f"SolverConfig-{field}-{value!r}", lambda g, field=field, value=value: solver_config(
        **{field: value}), FieldError, field, NOT_REAL[field])
      for field, value in [("gamma", NAN), ("gamma", INF), ("gamma", "x"), ("tol", NAN),
                           ("lipschitz", NAN), ("lipschitz", -3.0), ("strong_monotonicity", INF)]],
    *[(f"SolverConfig-{field}-{value!r}", lambda g, field=field, value=value: solver_config(
        **{field: value}), FieldError, field, f"{field} must be an integer, got {value!r}")
      for field, value in [("max_iters", 10.5), ("trace_every", 2.5), ("seed", True)]],
    ("SolverConfig-seed--1", lambda g: solver_config(seed=-1), FieldError, "seed",
     "seed must be >= 0"),
    *[(f"step_warnings-{name}", lambda g, gamma=gamma, constants=constants: step_warnings(
        gamma, **constants), FieldError, field, NOT_REAL[field])
      for name, gamma, constants, field in [
          ("negative-L", 0.5, {"lipschitz": -3.0}, "lipschitz"),
          ("nan-L", 0.5, {"lipschitz": NAN}, "lipschitz"),
          ("inf-L", 0.5, {"lipschitz": INF}, "lipschitz"),
          ("nan-lambda", 0.5, {"strong_monotonicity": NAN}, "strong_monotonicity"),
          ("negative-gamma", -0.5, {"lipschitz": 2.3}, "gamma")]],
    # experiments: data
    ("ridge_fit-alpha", lambda g: ridge_fit(g.X, g.spec.y, 0.0), FieldError, "alpha",
     "alpha must be positive and finite"),
    ("ridge_fit-y", lambda g: ridge_fit(g.X, np.ones((4, 1)), 1.0), FieldError, "y",
     "y has shape (4, 1), expected (4,)"),
    ("ridge_fit-X", lambda g: ridge_fit(g.X[:, :0], g.spec.y, 1.0), FieldError, "X",
     "X must be a matrix with n, m >= 1"),
    *[(f"ridge_fit-{bad}-X", lambda g, bad=bad: ridge_fit(poked(g.X, bad), g.spec.y, 1.0),
       FieldError, "X", "X must be finite elementwise") for bad in (NAN, INF)],
    *[(f"ridge_fit-{bad}-y", lambda g, bad=bad: ridge_fit(g.X, poked(g.spec.y, bad), 1.0),
       FieldError, "y", "y must be finite elementwise") for bad in (NAN, INF)],
    ("rmse-predictions", lambda g: rmse(np.ones(3), g.spec.y), FieldError, "predictions",
     "predictions has shape (3,), expected (4,)"),
    ("Dataset-labels", lambda g: Dataset(g.X, np.ones(3)), FieldError, "labels",
     "labels has shape (3,), expected (4,)"),
    ("Dataset-empty", lambda g: Dataset(g.X[:0], []), FieldError, "features",
     "features must be a matrix with n, m >= 1"),
    ("Dataset-nan", lambda g: Dataset(g.X * NAN, np.ones(4)), FieldError, "features",
     "features must be finite elementwise"),
    *[(f"write_dataset_csv-{name}", lambda g, features=features, labels=labels: write_dataset_csv(
        features, np.array(labels), g.csv), FieldError, field, message)
      for name, features, labels, field, message in [
          ("fraction", np.zeros((2, 57)), [0.0, 0.7], "labels", "labels must be 0 or 1"),
          ("two", np.zeros((2, 57)), [0.0, 2.0], "labels", "labels must be 0 or 1"),
          ("nan-label", np.zeros((2, 57)), [0.0, NAN], "labels", "labels must be 0 or 1"),
          ("nan", np.full((2, 57), NAN), [0.0, 1.0], "features",
           "features must be finite elementwise"),
          ("inf", np.full((2, 57), -INF), [0.0, 1.0], "features",
           "features must be finite elementwise"),
          ("vector", np.zeros(57), [1.0], "features", "features must be a matrix with n, m >= 1"),
          ("short-labels", np.zeros((2, 57)), [1.0], "labels",
           "labels has shape (1,), expected (2,)"),
          ("narrow", np.zeros((2, 3)), [0.0, 1.0], "features",
           "features must have 57 columns, got 3"),
          ("wide", np.zeros((2, 58)), [0.0, 1.0], "features",
           "features must have 57 columns, got 58")]],
    ("split-overflow", lambda g: split(g.data, 3, 2, seed=0), ValueError, None,
     "train_n + test_n = 5 exceeds dataset size 4"),
    ("ZRule-kind", lambda g: ZRule("custom"), FieldError, "kind",
     "kind must be flip or zero, got 'custom'"),
    ("prior_label-object", lambda g: prior_label(object()), TypeError, None,
     "unknown prior type <class 'object'>"),
    # experiments: evaluate
    *[(f"evaluate-draws-{name}", lambda g, draws=draws: evaluate(
        np.zeros(3), g.data, ZRule(), draws), FieldError, "draws", message)
      for name, draws, message in [
          ("columns", np.ones((2, 3)),
           "draws must be a nonempty matrix with 4 columns, got shape (2, 3)"),
          ("vector", np.ones(4), "draws must be a nonempty matrix with 4 columns, got shape (4,)"),
          ("empty", np.ones((0, 4)),
           "draws must be a nonempty matrix with 4 columns, got shape (0, 4)"),
          ("negative", np.full((2, 4), -0.5), "draws must be nonnegative and finite elementwise"),
          ("nan", np.full((2, 4), NAN), "draws must be nonnegative and finite elementwise")]],
    *[(f"evaluate-{name}", lambda g, w=w, adversary_w=adversary_w: evaluate(
        w, g.data, ZRule(), np.ones((2, 4)), adversary_w=adversary_w), FieldError, field, message)
      for name, w, adversary_w, field, message in [
          ("w", np.ones(2), None, "w", "w has shape (2,), expected (3,)"),
          ("w-column", np.ones((3, 1)), None, "w", "w has shape (3, 1), expected (3,)"),
          ("adversary_w", np.ones(3), np.ones(2), "adversary_w",
           "adversary_w has shape (2,), expected (3,)")]],
    # experiments: the benchmark
    *[(f"run_benchmark-workers-{workers}", lambda g, workers=workers: run_benchmark(
        bench(), g.data, workers=workers), FieldError, "workers", message)
      for workers, message in [(0, "workers must be >= 1"), (-1, "workers must be >= 1"),
                               (1.5, "workers must be an integer, got 1.5"),
                               (True, "workers must be an integer, got True")]],
    ("run_benchmark-size-overflow", lambda g: run_benchmark(
        bench(train_n=3, test_n=2, methods=("ridge",)), g.data), ValueError, None,
     "train_n + test_n = 5 exceeds dataset size 4"),
    *[(f"BenchmarkConfig-{name}", lambda g, overrides=overrides: bench(**overrides), FieldError,
       field, f"{field} must be an integer, got {value!r}")
      for name, overrides, field, value in [
          ("batch", {"adam_batch_grid": (32.5,)}, "adam_batch_grid[0]", 32.5),
          ("bool-batch", {"adam_batch_grid": (8, True)}, "adam_batch_grid[1]", True),
          ("epochs", {"adam_epochs": 1.5}, "adam_epochs", 1.5),
          ("samples", {"adam_samples": 16.0}, "adam_samples", 16.0),
          ("train_n", {"train_n": 20.0}, "train_n", 20.0),
          ("bool-draws", {"test_draws": False}, "test_draws", False),
          ("seed", {"seed": 0.5}, "seed", 0.5)]],
    *[(f"BenchmarkConfig-{name}", lambda g, grid=grid, values=values: bench(**{grid: values}),
       FieldError, grid, f"{grid} must not hold values that print alike: {labels}")
      for name, grid, values, labels in [
          ("close-alphas", "ridge_alpha_grid", (5.0, 5.0000001), "5, 5"),
          ("equal-alphas", "ridge_alpha_grid", (1.0, 0.1, 1.0), "1, 0.1, 1"),
          ("equal-rates", "adam_lr_grid", (0.01, 0.01), "0.01, 0.01"),
          ("equal-batches", "adam_batch_grid", (32, 64, 32), "32, 64, 32")]],
    *[(f"BenchmarkConfig-empty-{grid}", lambda g, grid=grid: bench(**{grid: ()}), FieldError,
       grid, f"{grid} must not be empty")
      for grid in ("adam_lr_grid", "adam_batch_grid", "ridge_alpha_grid")],
    ("BenchmarkConfig-repeated-method", lambda g: bench(methods=("ridge", "nash", "ridge")),
     FieldError, "methods[2]", "methods[2] must not repeat 'ridge'"),
    *[(f"{name}-two-equilibria-{value!r}", lambda g, make=make, value=value: make(value),
       FieldError, "two_equilibria", f"two_equilibria must be a bool, got {value!r}")
      for name, make in [
          ("BenchmarkConfig", lambda value: bench(two_equilibria=value)),
          ("desk_config", lambda value: desk_config([GAUSSIAN], two_equilibria=value))]
      for value in ("no", 1, None)],
]


@pytest.fixture
def game(rng, tmp_path):
    spec = random_quadratic_game(rng, 4, 3)
    ball = replace(spec, learner_set=ActionSet.l2_ball(1.0), adversary_set=ActionSet.l2_ball(2.0))
    return SimpleNamespace(
        spec=spec, X=spec.X, ball=ball, prior=FinitePrior(rng.random((2, 4)), np.full(2, 0.5)),
        profile=origin_profile(spec, 2), data=Dataset(spec.X, np.array([0.0, 1.0, 0.0, 1.0])),
        csv=tmp_path / "out.csv")


@pytest.mark.parametrize("call, cls, field, message", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_rejected(game, tmp_path, call, cls, field, message):
    with pytest.raises(Exception) as raised:
        call(game)
    assert type(raised.value) is cls
    assert str(raised.value) == message
    assert getattr(raised.value, "field", None) == field
    assert not any(tmp_path.iterdir())

"""Quadratic-generator route: closed-form response, reduced objective, Adam.

When the generator's targeting loss is quadratic and its action space is
unconstrained, its optimal perturbation against a fixed ``w`` is available
row by row in closed form.  Substituting it back leaves a single (generally
nonconvex) stochastic objective in ``w`` over draws of the uncertain weights
``c_d``, minimized here with a from-scratch Adam loop.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .game import GameSpec, LossKind, Prior, _check_cd, _log1pexp, _sigmoid, project


@dataclass(frozen=True)
class AdamConfig:
    """Hyperparameters for the stochastic minimization of the reduced objective."""

    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8
    batch_size: int = 32
    epochs: int = 20
    total_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.eps_hat <= 0:
            raise ValueError("eps_hat must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.total_samples < 1:
            raise ValueError("total_samples must be >= 1")
        if not (1 <= self.batch_size <= self.total_samples):
            raise ValueError("batch_size must satisfy 1 <= batch_size <= total_samples")


def best_response(
    w: np.ndarray, X: np.ndarray, z: np.ndarray, c_d: np.ndarray
) -> np.ndarray:
    """Generator's optimal unconstrained perturbation of X against w.

    Row i moves x_i along -w proportionally to c_d[i] * (x_i.w - z_i),
    damped by 1 + |w|^2 * c_d[i].
    """
    w = np.asarray(w, dtype=float)
    X = np.asarray(X, dtype=float)
    z = np.asarray(z, dtype=float)
    if X.ndim != 2 or X.shape[1] != w.shape[0]:
        raise ValueError(f"X has shape {X.shape}, incompatible with w of shape {w.shape}")
    if z.shape != (X.shape[0],):
        raise ValueError(f"z has shape {z.shape}, expected ({X.shape[0]},)")
    c_d = _check_cd(c_d, X.shape[0])
    coef = c_d * (X @ w - z) / (1.0 + (w @ w) * c_d)
    return X - np.outer(coef, w)


def perturbed_prediction(w: np.ndarray, x: np.ndarray, z: float, c_d_i: float) -> float:
    """Prediction on the transformed point: equals (best-response row) . w."""
    if c_d_i < 0:
        raise ValueError("c_d_i must be nonnegative")
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    wsq = float(w @ w)
    return float((x @ w + wsq * c_d_i * z) / (1.0 + wsq * c_d_i))


def _perturbed_predictions(
    w: np.ndarray, X: np.ndarray, z: np.ndarray, samples: np.ndarray
) -> np.ndarray:
    """Predictions on the transformed points for every sample, shape (S, n)."""
    wsq = w @ w
    margins = X @ w  # (n,)
    return (margins[None, :] + wsq * samples * z[None, :]) / (1.0 + wsq * samples)


def _as_sample_matrix(c_d_samples, n: int) -> np.ndarray:
    samples = np.asarray(c_d_samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[None, :]
    if samples.ndim != 2 or samples.shape[1] != n or samples.shape[0] < 1:
        raise ValueError(
            f"c_d samples must be a nonempty list of vectors of length {n}"
        )
    if np.any(samples < 0):
        raise ValueError("c_d samples must be nonnegative elementwise")
    return samples


def stochastic_objective(
    w: np.ndarray, spec: GameSpec, c_d_samples
) -> float:
    """Sample-average learner loss at the generator's best responses, plus ridge.

    Requires the generator's quadratic loss (the reduction's premise); the
    learner's loss may be quadratic or logistic.
    """
    if spec.adversary_loss is not LossKind.QUADRATIC:
        raise ValueError("the closed-form reduction requires a quadratic adversary loss")
    w = np.asarray(w, dtype=float)
    if w.shape != (spec.m,):
        raise ValueError(f"w has shape {w.shape}, expected ({spec.m},)")
    samples = _as_sample_matrix(c_d_samples, spec.n)
    preds = _perturbed_predictions(w, spec.X, spec.z, samples)
    if spec.learner_loss is LossKind.QUADRATIC:
        losses = (preds - spec.y[None, :]) ** 2
    else:
        losses = _log1pexp(-spec.y[None, :] * preds)
    return float(np.mean(losses @ spec.c_l) + spec.reg_l * (w @ w))


def stochastic_gradient(w: np.ndarray, spec: GameSpec, batch) -> np.ndarray:
    """Exact gradient of ``stochastic_objective`` restricted to the batch.

    Differentiates through the best response: with s = |w|^2, a = c_d[i],
    u = x_i.w and pred = (u + s a z_i)/(1 + s a),

        d pred / d w = x_i/(1 + s a) + 2 a (z_i - pred) w / (1 + s a).
    """
    if spec.adversary_loss is not LossKind.QUADRATIC:
        raise ValueError("the closed-form reduction requires a quadratic adversary loss")
    w = np.asarray(w, dtype=float)
    if w.shape != (spec.m,):
        raise ValueError(f"w has shape {w.shape}, expected ({spec.m},)")
    samples = _as_sample_matrix(batch, spec.n)
    S = samples.shape[0]
    denom = 1.0 + (w @ w) * samples  # (S, n)
    preds = (spec.X @ w)[None, :] / denom + (w @ w) * samples * spec.z[None, :] / denom
    if spec.learner_loss is LossKind.QUADRATIC:
        dloss = 2.0 * (preds - spec.y[None, :])
    else:
        dloss = -spec.y[None, :] * _sigmoid(-spec.y[None, :] * preds)
    weight = spec.c_l[None, :] * dloss / denom  # (S, n)
    grad_x_part = (weight.sum(axis=0) @ spec.X) / S
    w_coef = float(np.sum(weight * 2.0 * samples * (spec.z[None, :] - preds))) / S
    return grad_x_part + w_coef * w + 2.0 * spec.reg_l * w


def bayes_adam(
    spec: GameSpec, prior: Prior, config: AdamConfig
) -> tuple[np.ndarray, list[float]]:
    """Minimize the reduced stochastic objective with Adam over sampled weights.

    Draws ``total_samples`` weight vectors once, then sweeps shuffled
    minibatches for ``epochs`` epochs with bias-corrected moment updates,
    projecting onto the learner's set after every step.  Returns the final
    weights and the per-epoch objective evaluated on the full sample set.
    Fully deterministic given the config seed.
    """
    if spec.adversary_loss is not LossKind.QUADRATIC:
        raise ValueError("bayes_adam requires a quadratic adversary loss")
    rng = np.random.default_rng(config.seed)
    samples = np.maximum(prior.draw(rng, spec.n, config.total_samples), 0.0)

    w = project(np.zeros(spec.m), spec.learner_set)
    m1 = np.zeros(spec.m)
    m2 = np.zeros(spec.m)
    step = 0
    trace: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(config.total_samples)
        for lo in range(0, config.total_samples, config.batch_size):
            batch = samples[order[lo : lo + config.batch_size]]
            g = stochastic_gradient(w, spec, batch)
            step += 1
            m1 = config.beta1 * m1 + (1.0 - config.beta1) * g
            m2 = config.beta2 * m2 + (1.0 - config.beta2) * g * g
            m1_hat = m1 / (1.0 - config.beta1**step)
            m2_hat = m2 / (1.0 - config.beta2**step)
            w = project(
                w - config.learning_rate * m1_hat / (np.sqrt(m2_hat) + config.eps_hat),
                spec.learner_set,
            )
        trace.append(stochastic_objective(w, spec, samples))
    return w, trace


def objective_trace_to_csv(trace: list[float], path) -> None:
    """Write the per-epoch objective values as CSV (epoch, objective)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "objective"])
        for epoch, value in enumerate(trace, start=1):
            writer.writerow([epoch, repr(value)])

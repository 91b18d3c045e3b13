"""Quadratic-generator route: closed-form response, reduced objective, Adam.

When the generator's targeting loss is quadratic and its action space is
unconstrained, its optimal perturbation against a fixed ``w`` is available
row by row in closed form.  Substituting it back leaves a single (generally
nonconvex) stochastic objective in ``w`` over draws of the uncertain weights
``c_d``, minimized here with a from-scratch Adam loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import (
    GameSpec,
    LossKind,
    Prior,
    _check_cd,
    _check_w,
    _check_weights,
    _clamped_draws,
    _loss,
    _loss_slope,
    _project,
    project,
)

# Adam's moment decay rates and denominator offset
_BETA1, _BETA2, _EPS_HAT = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamConfig:
    """Hyperparameters for the stochastic minimization of the reduced objective."""

    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 20
    total_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
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
    return X - np.outer(_response_coef(X @ w, z, w @ w, c_d), w)


def _response_coef(margins, z, wsq, c_d):
    """How far the best response moves each row along ``-w``: x_i - coef_i * w.

    ``margins`` is ``X @ w``, ``wsq`` is ``w @ w`` and ``c_d`` is (n,) or (S, n); unchecked.
    """
    denom = wsq * c_d
    denom += 1.0
    coef = c_d * (margins - z)
    coef /= denom
    return coef


def _perturbed_predictions(w, X, z, samples, w_adv):
    """Predictions ``Xbar @ w`` on the rows the best response to ``w_adv`` moves.

    One row per sample: shape (S, n) for samples of shape (S, n).  The rows
    are x_i - coef_i * w_adv, so predictions shift by coef_i * (w_adv . w).
    Unchecked.
    """
    margins = X @ w
    margins_adv = margins if w_adv is w else X @ w_adv
    coef = _response_coef(margins_adv, z, w_adv @ w_adv, samples)
    coef *= w_adv @ w
    return margins - coef


def _as_sample_matrix(c_d_samples, n: int) -> np.ndarray:
    samples = np.asarray(c_d_samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[None, :]
    if samples.ndim != 2 or samples.shape[1] != n or samples.shape[0] < 1:
        raise ValueError(
            f"c_d samples must be a nonempty list of vectors of length {n}"
        )
    _check_weights(samples, "c_d samples")
    return samples


def _check_reduction(w, spec: GameSpec, c_d_samples) -> tuple[np.ndarray, np.ndarray]:
    """Validate the arguments of the reduced objective and its gradient."""
    if spec.adversary_loss is not LossKind.QUADRATIC:
        raise ValueError("the closed-form reduction requires a quadratic adversary loss")
    return _check_w(w, spec), _as_sample_matrix(c_d_samples, spec.n)


def stochastic_objective(
    w: np.ndarray, spec: GameSpec, c_d_samples
) -> float:
    """Sample-average learner loss at the generator's best responses, plus ridge.

    Requires the generator's quadratic loss (the reduction's premise); the
    learner's loss may be quadratic or logistic.
    """
    w, samples = _check_reduction(w, spec, c_d_samples)
    return _stochastic_objective(w, spec, samples)


def _stochastic_objective(w, spec: GameSpec, samples) -> float:
    """``stochastic_objective`` for a checked (S, n) sample matrix; unchecked."""
    preds = _perturbed_predictions(w, spec.X, spec.z, samples, w)
    losses = _loss(spec.learner_loss, preds, spec.y)
    return float(np.mean(losses @ spec.c_l) + spec.reg_l * (w @ w))


def stochastic_gradient(w: np.ndarray, spec: GameSpec, batch) -> np.ndarray:
    """Exact gradient of ``stochastic_objective`` restricted to the batch.

    Differentiates through the best response: with s = |w|^2, a = c_d[i],
    u = x_i.w and pred = (u + s a z_i)/(1 + s a),

        d pred / d w = x_i/(1 + s a) + 2 a (z_i - pred) w / (1 + s a).
    """
    w, samples = _check_reduction(w, spec, batch)
    return _stochastic_gradient(w, spec, samples, np.empty((2,) + samples.shape))


def _stochastic_gradient(w, spec: GameSpec, samples, scratch) -> np.ndarray:
    """``stochastic_gradient`` for a checked (S, n) sample matrix; unchecked.

    With e = z - X w and r = 1/(1 + s a), a prediction is z - e r and
    z - pred = e r, so only ``a`` varies down a column and the gradient needs
    two column sums, of l'(pred) r and of l'(pred) a r^2.  The quadratic
    slope 2(z - y) - 2 e r is affine in r, so for that loss the two sums
    follow from four column moments of the block: sum r, sum r^2, sum a r^2
    and sum a r^3.  Each column sum is one BLAS gemv against ones, where
    numpy's ``sum(axis=0)`` runs one inner-loop call per row; the two round
    differently.  ``scratch`` of shape (2, S, n) is overwritten.
    """
    damp, work = scratch
    S = samples.shape[0]
    ones = np.ones(S)
    e = spec.z - spec.X @ w
    np.multiply(samples, w @ w, out=damp)
    damp += 1.0
    np.reciprocal(damp, out=damp)
    if spec.learner_loss is LossKind.QUADRATIC:  # l'(pred) = k ((z - y) - e r) with k = 2
        np.multiply(damp, damp, out=work)
        r1, r2 = ones @ damp, ones @ work
        work *= samples
        ar2 = ones @ work
        work *= damp
        ar3 = ones @ work
        d = spec.z - spec.y
        x_sum, w_sum, k = d * r1 - e * r2, d * ar2 - e * ar3, 2.0
    else:
        np.multiply(damp, e, out=work)
        np.subtract(spec.z, work, out=work)
        _loss_slope(spec.learner_loss, work, spec.y, out=work)
        work *= damp
        x_sum = ones @ work
        work *= samples
        work *= damp
        w_sum, k = ones @ work, 1.0  # the sums of l'(pred) itself
    w_coef = 2.0 * k * float((spec.c_l * e) @ w_sum) / S + 2.0 * spec.reg_l
    return (spec.c_l * x_sum) @ spec.X * (k / S) + w_coef * w


def bayes_adam(
    spec: GameSpec, prior: Prior, config: AdamConfig, *, record_objective: bool = True
) -> tuple[np.ndarray, list[float]]:
    """Minimize the reduced stochastic objective with Adam over sampled weights.

    Draws ``total_samples`` weight vectors once, then sweeps shuffled
    minibatches for ``epochs`` epochs with bias-corrected moment updates,
    projecting onto the learner's set after every step.  Returns the final
    weights and the per-epoch objective evaluated on the full sample set;
    with ``record_objective=False`` that objective is never evaluated and
    the list is empty.  Fully deterministic given the config seed, and the
    weights do not depend on ``record_objective``.
    """
    rng = np.random.default_rng(config.seed)
    draws = _clamped_draws(prior, rng, spec.n, config.total_samples)
    w, samples = _check_reduction(project(np.zeros(spec.m), spec.learner_set), spec, draws)
    m1 = np.zeros(spec.m)
    m2 = np.zeros(spec.m)
    step = 0
    trace: list[float] = []
    work = np.empty((3, config.batch_size, spec.n))  # the batch, then the kernel's scratch
    for _ in range(config.epochs):
        order = rng.permutation(config.total_samples)
        for lo in range(0, config.total_samples, config.batch_size):
            rows = order[lo : lo + config.batch_size]  # in range: "clip" takes unbuffered
            batch = np.take(samples, rows, axis=0, out=work[0, : len(rows)], mode="clip")
            g = _stochastic_gradient(w, spec, batch, work[1:, : len(rows)])
            step += 1
            m1 = _BETA1 * m1 + (1.0 - _BETA1) * g
            m2 = _BETA2 * m2 + (1.0 - _BETA2) * g * g
            m1_hat = m1 / (1.0 - _BETA1**step)
            m2_hat = m2 / (1.0 - _BETA2**step)
            w = _project(
                w - config.learning_rate * m1_hat / (np.sqrt(m2_hat) + _EPS_HAT), spec.learner_set
            )
        if record_objective:
            trace.append(_stochastic_objective(w, spec, samples))
    return w, trace

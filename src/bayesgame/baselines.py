"""Reference strategies: plain ridge, point-mass Nash, fixed-point iteration."""

from __future__ import annotations

import numpy as np

from .game import GameSpec, LossKind, Prior, prior_mean
from .quadratic import _as_sample_matrix, _response_coef
from .solvers import SolverConfig


def ridge_fit(X: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Minimizer of |Xw - y|^2 + alpha |w|^2 via the normal equations."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("X must be a matrix with n, m >= 1")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    m = X.shape[1]
    return np.linalg.solve(X.T @ X + alpha * np.eye(m), X.T @ y)


def bayes_fp(spec: GameSpec, c_d_samples, iterations: int = 20) -> np.ndarray:
    """Best-response dynamics on the sampled game, quadratic losses only.

    Alternates the generator's closed-form perturbation of X for every sample
    with the learner's exact minimizer of the sample-averaged weighted ridge
    cost over the transformed matrices.  The learner solve uses the rank-one
    structure of each transformed matrix, so an iteration costs O(S n + n m^2)
    instead of O(S n m^2).
    """
    if spec.learner_loss is not LossKind.QUADRATIC:
        raise ValueError("bayes_fp requires a quadratic learner loss")
    if spec.adversary_loss is not LossKind.QUADRATIC:
        raise ValueError("bayes_fp requires a quadratic adversary loss")
    if spec.learner_set.bounded:
        raise ValueError("bayes_fp requires an unconstrained learner set")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    samples = _as_sample_matrix(c_d_samples, spec.n)

    X, y, z, c_l = spec.X, spec.y, spec.z, spec.c_l
    base_gram = X.T @ (c_l[:, None] * X)
    base_rhs = X.T @ (c_l * y)
    cy = c_l * y
    reg = spec.reg_l * np.eye(spec.m)

    w = np.zeros(spec.m)
    for _ in range(iterations):
        # transformed matrices are X - outer(kappa_s, w); fold the rank-one
        # corrections into the averaged normal equations directly
        kappa, _ = _response_coef(X @ w, z, w @ w, samples)
        kbar = kappa.mean(axis=0)
        u = X.T @ (c_l * kbar)
        quad = float(np.mean(np.sum(kappa * (c_l[None, :] * kappa), axis=1)))
        A = base_gram - np.outer(u, w) - np.outer(w, u) + quad * np.outer(w, w) + reg
        b = base_rhs - w * float(kbar @ cy)
        w = np.linalg.solve(A, b)
    return w


def nash_strategy(spec: GameSpec, prior: Prior, solver: SolverConfig) -> np.ndarray:
    """Complete-information strategy for the prior collapsed to its mean.

    The mean weight vector (clamped at 0) acts as the single known c_d and the
    resulting game is solved by ``bayes_fp`` for ``solver.max_iters`` rounds.
    """
    if spec.adversary_loss is not LossKind.QUADRATIC:
        raise ValueError("nash_strategy requires a quadratic adversary loss")
    atom = prior_mean(prior, spec.n)
    return bayes_fp(spec, atom[None, :], iterations=solver.max_iters)

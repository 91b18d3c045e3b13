"""Quadratic-generator route: closed-form response, reduced objective, Adam, fixed point.

When the generator's targeting loss is quadratic and its action space is
unconstrained, its optimal perturbation against a fixed ``w`` is available
row by row in closed form.  With ``a_i = c_d[i]``, row i moves to

    xbar_i = x_i - a_i (x_i.w - z_i) r_i w,   r_i = 1/(1 + |w|^2 a_i),

so a prediction on a moved row is ``xbar_i.w = z_i - e_i r_i`` with
``e_i = z_i - x_i.w``.  Every kernel below builds on this response.
Substituting it back leaves a single (generally nonconvex) stochastic
objective in ``w`` over draws of the uncertain weights ``c_d``: the learner's
cost when it moves first and the generator answers.  A from-scratch Adam loop
(``bayes_adam``) minimizes it.  For a quadratic learner loss, best-response
iteration (``bayes_fp``) computes another point: where it converges, the
simultaneous Bayesian equilibrium of the finite-prior VI (``bayesgame.solvers``).
Away from ``c_d = 0`` the two points differ; ``tests/test_solutions.py`` pins
the difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (
    FieldError,
    GameSpec,
    LossKind,
    Prior,
    _check_cd,
    _check_count,
    _check_matrix,
    _check_real,
    _check_shape,
    _check_weight_rows,
    _clamped_draws,
    _into_ball,
    _loss,
    _loss_slope,
    prior_mean,
    project,
)

# Adam's moment decay rates and denominator offset
_BETA1, _BETA2, _EPS_HAT = 0.9, 0.999, 1e-8
_OBJECTIVE_ROWS = 64  # sample rows per block of the objective's (rows, n) temporaries


@dataclass(frozen=True)
class AdamConfig:
    """Hyperparameters for the stochastic minimization of the reduced objective."""

    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 20
    total_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_real(self.learning_rate, "learning_rate", "positive")
        for name, low in (("batch_size", 1), ("epochs", 1), ("total_samples", 1), ("seed", 0)):
            _check_count(getattr(self, name), name, low)
        if self.batch_size > self.total_samples:
            raise FieldError("batch_size", "must be <= total_samples")


def best_response(
    w: np.ndarray, X: np.ndarray, z: np.ndarray, c_d: np.ndarray
) -> np.ndarray:
    """Generator's optimal unconstrained perturbation of X against w: the rows xbar_i."""
    X = _check_matrix(X, "X")
    w, z = _check_shape(w, X.shape[1:], "w"), _check_shape(z, X.shape[:1], "z")
    c_d = _check_cd(c_d, X.shape[0])
    return X - np.outer(_response_coef(X @ w, z, w @ w, c_d), w)


def _damping(c_d, wsq, out=None):
    """``1 + |w|^2 a`` for each entry ``a`` of ``c_d``, so ``1/r``; into ``out`` if given.

    ``wsq`` is ``w @ w``; unchecked.
    """
    out = np.multiply(c_d, wsq, out=out)
    out += 1.0
    return out


def _response_coef(margins, z, wsq, c_d):
    """How far the response moves each row along ``-w``: ``a_i (x_i.w - z_i) r_i``.

    ``margins`` is ``X @ w``, ``wsq`` is ``w @ w`` and ``c_d`` is (n,) or (S, n); unchecked.
    """
    denom = _damping(c_d, wsq)
    coef = c_d * (margins - z)
    coef /= denom
    return coef


def _perturbed_predictions(w, X, z, samples, w_adv):
    """Predictions ``Xbar @ w`` on the rows the best response to ``w_adv`` moves.

    One row per sample: shape (S, n) for samples of shape (S, n).  Row i
    moves by ``_response_coef`` along ``-w_adv``, so its prediction shifts by
    that coefficient times ``w_adv.w``.  Unchecked.
    """
    margins = X @ w
    margins_adv = margins if w_adv is w else X @ w_adv
    coef = _response_coef(margins_adv, z, w_adv @ w_adv, samples)
    coef *= w_adv @ w
    return margins - coef


def _check_reduction(spec: GameSpec, c_d_samples) -> np.ndarray:
    """Check the reduction's premise; ``c_d_samples`` as a checked (S, n) matrix."""
    if spec.adversary_loss is not LossKind.QUADRATIC:
        raise ValueError("the closed-form reduction requires a quadratic adversary loss")
    samples = np.asarray(c_d_samples, dtype=float)
    _check_weight_rows(samples, spec.n, "c_d samples")
    return samples


def stochastic_objective(
    w: np.ndarray, spec: GameSpec, c_d_samples
) -> float:
    """Sample-average learner loss at the generator's best responses, plus ridge.

    Requires the generator's quadratic loss (the reduction's premise); the
    learner's loss may be quadratic or logistic.
    """
    w, samples = _check_shape(w, (spec.m,), "w"), _check_reduction(spec, c_d_samples)
    return _stochastic_objective(w, spec, samples)


def _stochastic_objective(w, spec: GameSpec, samples) -> float:
    """``stochastic_objective`` for a checked (S, n) sample matrix; unchecked.

    Sample losses are summed in blocks of ``_OBJECTIVE_ROWS`` rows at its multiples,
    a lone last row joining the one before, so BLAS sums rows as for the whole matrix:
    with OpenBLAS 0.3.31 a block starting elsewhere, or a one-row block, summed some
    rows' losses in another order.  The blocks bound the objective's temporaries.
    """
    edges = [*range(0, max(len(samples) - 1, 1), _OBJECTIVE_ROWS), len(samples)]
    per_sample = np.empty(len(samples))
    for lo, hi in zip(edges, edges[1:]):
        preds = _perturbed_predictions(w, spec.X, spec.z, samples[lo:hi], w)
        per_sample[lo:hi] = _loss(spec.learner_loss, preds, spec.y) @ spec.c_l
    return float(np.mean(per_sample) + spec.reg_l * (w @ w))


def stochastic_gradient(w: np.ndarray, spec: GameSpec, batch) -> np.ndarray:
    """Exact gradient of ``stochastic_objective`` restricted to the batch.

    Differentiates through the response: the prediction z_i - e_i r_i of
    the module docstring has

        d pred / d w = r_i x_i + 2 a_i e_i r_i^2 w.
    """
    w, samples = _check_shape(w, (spec.m,), "w"), _check_reduction(spec, batch)
    state = _GradientState.build(spec, np.empty((2,) + samples.shape))
    return _stochastic_gradient(w, spec, samples, state)


@dataclass(frozen=True, slots=True)
class _GradientState:
    """What the gradient kernel reuses across a fit's batches of ``S`` sample rows."""

    d: np.ndarray  # z - y
    two_reg: float  # 2 reg_l
    ones: np.ndarray  # (S,): a column sum is one BLAS gemv against it
    scratch: np.ndarray  # (2, S, n), overwritten by every call

    @classmethod
    def build(cls, spec: GameSpec, scratch: np.ndarray) -> "_GradientState":
        """The state for batches of ``scratch.shape[1]`` rows, working in ``scratch``."""
        return cls(spec.z - spec.y, 2.0 * spec.reg_l, np.ones(scratch.shape[1]), scratch)

    def head(self, S: int) -> "_GradientState":
        """The same state for batches of ``S`` rows, no more than this one's."""
        return _GradientState(self.d, self.two_reg, self.ones[:S], self.scratch[:, :S])


def _stochastic_gradient(w, spec: GameSpec, samples, state: _GradientState) -> np.ndarray:
    """``stochastic_gradient`` for a checked (S, n) sample matrix; unchecked.

    With the module docstring's e and r, z - pred = e r, so only the
    sample ``a`` varies down a column and the gradient needs
    two column sums, of l'(pred) r and of l'(pred) a r^2.  The quadratic
    slope 2(z - y) - 2 e r is affine in r, so for that loss the two sums
    follow from four column moments of the block: sum r, sum r^2, sum a r^2
    and sum a r^3.  Each column sum is one BLAS gemv against ones, where
    numpy's ``sum(axis=0)`` runs one inner-loop call per row; the two round
    differently.  Products go through ``ndarray.dot``, which calls the same
    BLAS routine as ``@`` with less dispatch.  ``state`` must be for S rows.
    An Adam step with fewer numpy calls was tried and was not faster: the four
    moments combined in one (4, n) buffer, or Adam's two bias corrections as one
    division by a (2, 1) column, broadcast a vector over rows, which costs about
    twice a same-shape call at these sizes.
    """
    damp, work = state.scratch
    ones = state.ones
    S = samples.shape[0]
    e = spec.z - spec.X.dot(w)
    np.reciprocal(_damping(samples, w.dot(w), out=damp), out=damp)
    if spec.learner_loss is LossKind.QUADRATIC:  # l'(pred) = k ((z - y) - e r) with k = 2
        np.square(damp, out=work)
        r1, r2 = ones.dot(damp), ones.dot(work)
        work *= samples
        ar2 = ones.dot(work)
        work *= damp
        ar3 = ones.dot(work)
        d = state.d
        x_sum, w_sum, k = d * r1 - e * r2, d * ar2 - e * ar3, 2.0
    else:
        np.multiply(damp, e, out=work)
        np.subtract(spec.z, work, out=work)
        _loss_slope(spec.learner_loss, work, spec.y, out=work)
        work *= damp
        x_sum = ones.dot(work)
        work *= samples
        work *= damp
        w_sum, k = ones.dot(work), 1.0  # the sums of l'(pred) itself
    w_coef = 2.0 * k * float((spec.c_l * e).dot(w_sum)) / S + state.two_reg
    return (spec.c_l * x_sum).dot(spec.X) * (k / S) + w_coef * w


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
    total, size = config.total_samples, config.batch_size
    draws = _clamped_draws(prior, rng, spec.n, total)
    samples = _check_reduction(spec, draws)
    w = project(np.zeros(spec.m), spec.learner_set)
    work = np.empty((3, size, spec.n))  # the batch, then the kernel's scratch
    state = _GradientState.build(spec, work[1:])
    # batch size -> (batch buffer, kernel state); the last batch may be short
    blocks = {S: (work[0, :S], state.head(S)) for S in (size, total % size or size)}
    mom = np.zeros((2, spec.m))  # Adam's first and second moments, m1 and m2
    m1, m2 = mom
    decay = np.array([[_BETA1], [_BETA2]])
    gain = 1.0 - decay
    hat = np.empty((2, spec.m))  # each step's moment update, then the bias-corrected moments
    m1_hat, m2_hat = hat
    step = 0
    trace: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(total)
        for lo in range(0, total, size):
            rows = order[lo : lo + size]  # in range: "clip" takes unbuffered
            batch, batch_state = blocks[len(rows)]
            samples.take(rows, axis=0, out=batch, mode="clip")
            g = _stochastic_gradient(w, spec, batch, batch_state)
            step += 1
            # m1 = b1 m1 + (1 - b1) g, m2 = b2 m2 + (1 - b2) g g and the step
            # lr m1_hat / (sqrt(m2_hat) + eps), each rounded as that formula
            mom *= decay
            np.multiply(gain, g, out=hat)
            m2_hat *= g
            mom += hat
            np.divide(m2, 1.0 - _BETA2**step, out=m2_hat)
            np.sqrt(m2_hat, out=m2_hat)
            m2_hat += _EPS_HAT
            np.divide(m1, 1.0 - _BETA1**step, out=m1_hat)
            m1_hat *= config.learning_rate
            m1_hat /= m2_hat
            w = w - m1_hat
            _into_ball(w, w, spec.learner_set.radius)
        if record_objective:
            trace.append(_stochastic_objective(w, spec, samples))
    return w, trace


def bayes_fp(spec: GameSpec, c_d_samples, iterations: int = 20) -> np.ndarray:
    """Best-response dynamics on the sampled game, quadratic learner loss only.

    Alternates the generator's response for every sample with the learner's
    exact minimizer of the sample-averaged weighted ridge cost over the moved
    matrices.  Each moved matrix is X minus a rank-one term, so the learner's
    normal equations need two column means of the (S, n) block and an
    iteration costs O(S n + n m^2) instead of O(S n m^2).  Where the rounds
    converge they reach the equilibrium of the game with one equally weighted
    atom per sample, not the minimizer of ``stochastic_objective``; they can
    also cycle, and the round count is fixed, with no stop test.
    """
    if spec.learner_loss is not LossKind.QUADRATIC:
        raise ValueError("bayes_fp requires a quadratic learner loss")
    if spec.learner_set.bounded:
        raise ValueError("bayes_fp requires an unconstrained learner set")
    _check_count(iterations, "iterations")
    samples = _check_reduction(spec, c_d_samples)

    X, y, z, c_l = spec.X, spec.y, spec.z, spec.c_l
    base_gram = X.T @ (c_l[:, None] * X) + spec.reg_l * np.eye(spec.m)
    base_rhs = X.T @ (c_l * y)
    cy = c_l * y
    damped = np.empty_like(samples)
    ones = np.ones(samples.shape[0])  # column means as BLAS gemv, as in the Adam gradient

    w = np.zeros(spec.m)
    for _ in range(iterations):
        # rows move to X - outer(kappa_s, w), kappa_s = (X w - z) a r
        gap = X @ w - z
        np.divide(samples, _damping(samples, w @ w, out=damped), out=damped)
        kbar = gap * (ones @ damped / len(ones))
        damped *= damped
        quad = float((c_l * gap * gap) @ (ones @ damped / len(ones)))
        u = X.T @ (c_l * kbar)
        A = base_gram - np.outer(u, w) - np.outer(w, u) + quad * np.outer(w, w)
        b = base_rhs - w * float(kbar @ cy)
        w = np.linalg.solve(A, b)
    return w


def nash_strategy(spec: GameSpec, prior: Prior, iterations: int) -> np.ndarray:
    """Complete-information strategy for the prior collapsed to its mean.

    The mean weight vector (clamped at 0) acts as the single known c_d and the
    resulting game is solved by ``bayes_fp`` for ``iterations`` rounds.
    """
    atom = prior_mean(prior, spec.n)
    return bayes_fp(spec, atom[None, :], iterations=iterations)

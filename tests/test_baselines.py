import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesgame.experiments import ridge_fit
from bayesgame.game import (
    ActionSet,
    FieldError,
    FinitePrior,
    GameSpec,
    GammaPrior,
    GaussianPrior,
    LogNormalPrior,
    LossKind,
)
from bayesgame.quadratic import bayes_fp, best_response, nash_strategy
from conftest import random_quadratic_game


def weighted_ridge_oracle(X, y, c_l, reg_l):
    # normal equations of sum_i c_l[i] (x_i.w - y_i)^2 + reg_l |w|^2
    m = X.shape[1]
    A = X.T @ (c_l[:, None] * X) + reg_l * np.eye(m)
    return np.linalg.solve(A, X.T @ (c_l * y))


class TestRidgeFit:
    def test_zero_targets(self, rng):
        X = rng.normal(size=(5, 3))
        assert ridge_fit(X, np.zeros(5), 0.5) == pytest.approx(np.zeros(3))

    def test_hand_value(self):
        # (4 + 1) w = 2
        assert ridge_fit(np.array([[2.0]]), np.array([1.0]), 1.0) == pytest.approx([0.4])

    def test_normal_equations_residual(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 8))
            X = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            alpha = float(rng.uniform(0.05, 3.0))
            w = ridge_fit(X, y, alpha)
            resid = np.linalg.norm((X.T @ X + alpha * np.eye(m)) @ w - X.T @ y)
            assert resid <= 1e-10

    def test_rejects_nonpositive_alpha(self, rng):
        with pytest.raises(ValueError, match="alpha"):
            ridge_fit(rng.normal(size=(3, 2)), np.zeros(3), 0.0)

    @pytest.mark.parametrize("which", ["X", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_data(self, rng, which, bad):
        X, y = rng.normal(size=(3, 2)), np.zeros(3)
        (X if which == "X" else y)[0] = bad
        with pytest.raises(ValueError, match="finite"):
            ridge_fit(X, y, 1.0)


class TestBayesFp:
    def test_zero_samples_give_weighted_ridge_in_one_step(self, rng):
        spec = random_quadratic_game(rng, 6, 3)
        samples = np.zeros((5, 6))
        w1 = bayes_fp(spec, samples, iterations=1)
        w20 = bayes_fp(spec, samples, iterations=20)
        oracle = weighted_ridge_oracle(spec.X, spec.y, spec.c_l, spec.reg_l)
        assert w1 == pytest.approx(oracle)
        assert w20 == pytest.approx(oracle)

    def test_fixed_point_self_consistency(self, rng):
        # weak coupling: the dynamics contract, one extra round barely moves w
        spec = GameSpec(
            X=0.4 * rng.normal(size=(8, 3)), y=0.4 * rng.normal(size=8),
            z=0.4 * rng.normal(size=8), c_l=np.full(8, 0.2),
        )
        samples = 0.3 * rng.random((20, 8))
        w = bayes_fp(spec, samples, iterations=40)
        w_next = bayes_fp(spec, samples, iterations=41)
        assert np.linalg.norm(w_next - w) <= 1e-6

    def test_deterministic(self, rng):
        spec = random_quadratic_game(rng, 5, 2)
        samples = rng.random((7, 5))
        assert np.array_equal(bayes_fp(spec, samples), bayes_fp(spec, samples))

    def test_preconditions(self, rng):
        spec = random_quadratic_game(rng, 4, 2)
        with pytest.raises(ValueError, match="nonempty"):
            bayes_fp(spec, np.zeros((0, 4)))
        logistic = GameSpec(
            X=rng.normal(size=(4, 2)), y=rng.choice([-1.0, 1.0], 4), z=rng.normal(size=4),
            c_l=np.ones(4), learner_loss=LossKind.LOGISTIC,
        )
        with pytest.raises(ValueError, match="quadratic"):
            bayes_fp(logistic, np.zeros((1, 4)))
        generator = dataclasses.replace(logistic, learner_loss=LossKind.QUADRATIC,
                                        adversary_loss=LossKind.LOGISTIC,
                                        z=rng.choice([-1.0, 1.0], 4))
        with pytest.raises(ValueError, match="^the closed-form reduction requires a quadratic "
                                             "adversary loss$"):
            bayes_fp(generator, np.zeros((1, 4)))
        bounded = dataclasses.replace(spec, learner_set=ActionSet.l2_ball(1.0))
        with pytest.raises(ValueError, match="^bayes_fp requires an unconstrained learner set$"):
            bayes_fp(bounded, np.zeros((1, 4)))
        with pytest.raises(FieldError, match=r"^c_d samples must be a nonempty matrix with 4 "
                                             r"columns, got shape \(4,\)$"):
            bayes_fp(spec, np.zeros(4))  # one weight vector is the row c_d[None, :]


def reference_bayes_fp(spec, samples, iterations):
    """Best-response rounds on the public response: one moved matrix per sample.

    The learner's step is the normal equations of the sample-averaged weighted
    ridge cost over those matrices, solved as written.
    """
    C, S = np.diag(spec.c_l), len(samples)
    w = np.zeros(spec.m)
    for _ in range(iterations):
        moved = [best_response(w, spec.X, spec.z, a) for a in samples]
        A = sum(Xbar.T @ C @ Xbar for Xbar in moved) / S + spec.reg_l * np.eye(spec.m)
        b = sum(Xbar.T @ C @ spec.y for Xbar in moved) / S
        w = np.linalg.solve(A, b)
    return w


class TestBayesFpMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_column_means_match_per_sample_responses(self, seed, zero_targets):
        rng = np.random.default_rng(seed)
        n, m, S = (int(v) for v in rng.integers(1, 7, size=3))
        spec = random_quadratic_game(rng, n, m)
        if zero_targets:  # every iterate stays at the zero start
            spec = dataclasses.replace(spec, y=np.zeros(n))
        samples = rng.random((S + 1, n)) * 3.0
        samples[rng.random(S + 1) < 0.5] = 0.0
        samples[0] = 0.0  # at least one all-zero row
        iterations = int(rng.integers(1, 6))
        expected = reference_bayes_fp(spec, samples, iterations)
        gap = np.abs(bayes_fp(spec, samples, iterations) - expected).max()
        # the column means round differently from the per-sample matrices, and the
        # fixed-point rounds amplify that (2.4e-13 relative at worst over 2000 seeds)
        assert gap <= 1e-10 * np.abs(expected).max()


class TestNashStrategy:
    def test_zero_mean_prior_reduces_to_weighted_ridge(self, rng):
        # with c_l = 0.1 and reg_l = 1:  (0.1 X'X + I) w = 0.1 X'y
        X = rng.normal(size=(7, 3))
        y = rng.normal(size=7)
        spec = GameSpec(X=X, y=y, z=rng.normal(size=7), c_l=np.full(7, 0.1), reg_l=1.0)
        prior = GaussianPrior(mean=-1.0, std=1.0)  # clamped mean is zero
        w = nash_strategy(spec, prior, iterations=20)
        oracle = np.linalg.solve(0.1 * X.T @ X + np.eye(3), 0.1 * X.T @ y)
        assert w == pytest.approx(oracle)

    def test_single_atom_prior_matches_bayes_fp_bitwise(self, rng):
        spec = random_quadratic_game(rng, 5, 3)
        atom = rng.random(5)
        prior = FinitePrior(atoms=atom[None, :], probs=np.array([1.0]))
        w_nash = nash_strategy(spec, prior, iterations=20)
        w_fp = bayes_fp(spec, atom[None, :], iterations=20)
        assert np.array_equal(w_nash, w_fp)

    @pytest.mark.parametrize("prior, mean", [
        (GammaPrior(shape=2.0, scale=0.35), 2.0 * 0.35),
        (LogNormalPrior(mu=-0.5, sigma=0.8), math.exp(-0.5 + 0.8**2 / 2)),
    ], ids=["gamma", "lognormal"])
    def test_continuous_prior_collapses_to_its_mean(self, rng, prior, mean):
        spec = random_quadratic_game(rng, 5, 3)
        w_fp = bayes_fp(spec, np.full((1, 5), mean), iterations=20)
        assert np.array_equal(nash_strategy(spec, prior, iterations=20), w_fp)

    def test_deterministic(self, rng):
        spec = random_quadratic_game(rng, 5, 3)
        prior = GaussianPrior(mean=1.0, std=2.0)
        assert np.array_equal(nash_strategy(spec, prior, 20), nash_strategy(spec, prior, 20))

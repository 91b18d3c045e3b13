import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bayesgame import quadratic
from bayesgame.experiments import Dataset, ZRule, evaluate, ridge_fit, rmse
from bayesgame.game import (
    ActionSet,
    FinitePrior,
    GameSpec,
    GammaPrior,
    GaussianPrior,
    LogNormalPrior,
    LossKind,
    grad_learner_w,
    learner_cost,
    sample_prior,
)
from bayesgame.quadratic import (
    AdamConfig,
    _perturbed_predictions,
    bayes_adam,
    bayes_fp,
    best_response,
    nash_strategy,
    stochastic_gradient,
    stochastic_objective,
)
from conftest import (
    desk_shaped_game,
    golden_min,
    gradient_drift,
    peak_mib,
    random_quadratic_game,
    reference_gradient,
    small_reduction_game,
)


class TestBestResponse:
    def test_zero_weights_leave_data_unchanged(self, rng):
        X = rng.normal(size=(4, 3))
        out = best_response(rng.normal(size=3), X, rng.normal(size=4), np.zeros(4))
        assert out == pytest.approx(X)

    def test_one_dimensional_brute_force(self):
        # minimize 1*(xbar*1 - 0)^2 + (2 - xbar)^2 by golden section; the
        # derivative-free oracle is only accurate to ~sqrt(machine eps)
        xbar = golden_min(lambda v: 1.0 * v**2 + (2.0 - v) ** 2, -10, 10)
        assert xbar == pytest.approx(1.0, abs=1e-7)
        out = best_response(np.array([1.0]), np.array([[2.0]]), np.array([0.0]), np.array([1.0]))
        assert out == pytest.approx(np.array([[xbar]]), abs=1e-7)
        assert out == pytest.approx(np.array([[1.0]]), abs=1e-12)


class TestPerturbedPrediction:
    def test_zero_weight_cases(self, rng):
        X, w, z = rng.normal(size=(4, 3)), rng.normal(size=3), np.full(4, 3.0)
        assert np.array_equal(_perturbed_predictions(w, X, z, np.zeros(4), w), X @ w)
        assert np.array_equal(best_response(w, X, z, np.zeros(4)), X)
        zero = np.zeros(3)
        assert not _perturbed_predictions(zero, X, z, np.full(4, 2.0), zero).any()

    def test_hand_value(self):
        w, X, z, c_d = np.array([1.0]), np.array([[2.0]]), np.array([0.0]), np.array([1.0])
        assert _perturbed_predictions(w, X, z, c_d, w) == pytest.approx([1.0])
        assert best_response(w, X, z, c_d) @ w == pytest.approx([1.0])

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, 3, elements=st.floats(-5, 5)),
        arrays(np.float64, 3, elements=st.floats(-5, 5)),
        st.floats(-5, 5),
        st.floats(0, 10),
    )
    def test_equals_best_response_row_dot_w(self, x, w, z, c_d_i):
        X, z, c_d = x[None, :], np.array([z]), np.array([c_d_i])
        row = best_response(w, X, z, c_d)[0]
        got = _perturbed_predictions(w, X, z, c_d, w)[0]
        assert got == pytest.approx(float(row @ w), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, 3, elements=st.floats(-5, 5)),
        arrays(np.float64, 3, elements=st.floats(-5, 5)),
        st.floats(-5, 5),
        st.floats(0, 10),
    )
    def test_prediction_is_z_minus_damped_residual(self, x, w, z, c_d_i):
        # the identity the gradient kernel and bayes_fp are built on
        u = float(x @ w)
        expected = z - (z - u) / (1.0 + (w @ w) * c_d_i)
        got = _perturbed_predictions(w, x[None, :], np.array([z]), np.array([c_d_i]), w)[0]
        # relative to |u| + |z|; the floor covers subnormal u and z, where an ulp is larger
        assert abs(got - expected) <= 1e-12 * (abs(u) + abs(z)) + 1e-300

    @pytest.mark.parametrize(
        "prior, draws",
        [(FinitePrior(np.zeros((1, 6)), np.ones(1)), 3), (GammaPrior(1.0, 1.0), 1),
         (GammaPrior(1.0, 1.0), 40)],
        ids=["zero", "one", "many"],
    )
    def test_every_prediction_path_equals_best_response_dot_w(self, rng, prior, draws):
        labels = rng.integers(0, 2, size=6).astype(float)
        z = 1.0 - labels
        spec = GameSpec(X=rng.normal(size=(6, 3)), y=labels, z=z, c_l=rng.random(6))
        w = rng.normal(size=3)
        samples = sample_prior(prior, 6, draws, seed=5)
        rows = [best_response(w, spec.X, z, c) @ w for c in samples]
        got = _perturbed_predictions(w, spec.X, z, samples, w)
        assert got.shape == (draws, 6)
        for pred, row in zip(got, rows):
            assert pred == pytest.approx(row, rel=1e-12, abs=1e-12)
        expected = np.mean([spec.c_l @ (row - labels) ** 2 for row in rows]) + w @ w
        assert stochastic_objective(w, spec, samples) == pytest.approx(expected, rel=1e-12)
        got = evaluate(w, Dataset(spec.X, labels), ZRule("flip"), samples)
        assert got == pytest.approx(np.mean([rmse(row, labels) for row in rows]), rel=1e-12)


class TestStochasticObjective:
    def test_zero_samples_reduce_to_learner_cost(self, rng):
        spec = random_quadratic_game(rng, 5, 3)
        w = rng.normal(size=3)
        samples = np.zeros((4, 5))
        assert stochastic_objective(w, spec, samples) == pytest.approx(
            learner_cost(w, spec.X, spec)
        )

    def test_hand_value(self):
        spec = GameSpec(X=np.array([[2.0]]), y=np.array([1.0]), z=np.array([0.0]),
                        c_l=np.array([0.1]))
        assert stochastic_objective(np.array([1.0]), spec, np.array([[1.0]])) == pytest.approx(1.0)

    def test_zero_w_ignores_samples(self, rng):
        spec = random_quadratic_game(rng, 4, 2)
        samples = rng.random((6, 4))
        expected = float(spec.c_l @ (spec.X @ np.zeros(2) - spec.y) ** 2)
        assert stochastic_objective(np.zeros(2), spec, samples) == pytest.approx(expected)

    def test_single_atom_matches_transformed_cost(self, rng):
        spec = random_quadratic_game(rng, 5, 3)
        w = rng.normal(size=3)
        atom = rng.random(5)
        xbar = best_response(w, spec.X, spec.z, atom)
        direct = float(spec.c_l @ (xbar @ w - spec.y) ** 2 + spec.reg_l * (w @ w))
        assert stochastic_objective(w, spec, atom[None, :]) == pytest.approx(direct)

    def test_logistic_learner_loss_permitted(self, rng):
        spec = GameSpec(
            X=rng.normal(size=(4, 2)), y=rng.choice([-1.0, 1.0], size=4),
            z=rng.normal(size=4), c_l=rng.random(4),
            learner_loss=LossKind.LOGISTIC,
        )
        value = stochastic_objective(rng.normal(size=2), spec, rng.random((3, 4)))
        assert np.isfinite(value)


class TestStochasticGradient:
    def test_zero_w_formula(self, rng):
        spec = random_quadratic_game(rng, 5, 3)
        batch = rng.random((4, 5))
        g = stochastic_gradient(np.zeros(3), spec, batch)
        expected = -2.0 * (spec.c_l * spec.y) @ spec.X
        assert g == pytest.approx(expected)

    def test_zero_batch_reduces_to_learner_gradient(self, rng):
        spec = random_quadratic_game(rng, 5, 3)
        w = rng.normal(size=3)
        g = stochastic_gradient(w, spec, np.zeros((2, 5)))
        assert g == pytest.approx(grad_learner_w(w, spec.X, spec))


class TestBayesAdam:
    def test_zero_data_stays_at_origin(self):
        n, m = 4, 3
        spec = GameSpec(X=np.zeros((n, m)), y=np.zeros(n), z=np.zeros(n), c_l=np.ones(n))
        prior = GaussianPrior(mean=1.0, std=1.0)
        config = AdamConfig(learning_rate=0.01, batch_size=8, epochs=3, total_samples=16, seed=0)
        w, trace = bayes_adam(spec, prior, config)
        assert w == pytest.approx(np.zeros(m))
        assert len(trace) == 3

    def test_point_mass_prior_approaches_ridge(self, rng):
        # light version of the acceptance check, looser tolerance
        X = rng.normal(size=(10, 2))
        y = 0.5 * rng.normal(size=10)
        spec = GameSpec(X=X, y=y, z=np.zeros(10), c_l=np.ones(10), reg_l=1.0)
        prior = FinitePrior(atoms=np.zeros((1, 10)), probs=np.array([1.0]))
        config = AdamConfig(learning_rate=0.01, batch_size=1, epochs=2000, total_samples=1, seed=0)
        w, trace = bayes_adam(spec, prior, config)
        target = learner_cost(ridge_fit(X, y, 1.0), X, spec)
        assert trace[-1] - target <= 1e-3

    def test_projection_keeps_weights_in_ball(self, rng):
        spec = GameSpec(
            X=rng.normal(size=(8, 3)), y=4.0 * rng.normal(size=8), z=np.zeros(8),
            c_l=np.ones(8), learner_set=ActionSet.l2_ball(0.05),
        )
        prior = GaussianPrior(mean=0.5, std=0.5)
        config = AdamConfig(learning_rate=0.05, batch_size=4, epochs=5, total_samples=16, seed=2)
        w, _ = bayes_adam(spec, prior, config)
        assert np.linalg.norm(w) <= 0.05 + 1e-12


class TestSampleWorkingSet:
    """1000 draws of n=200 weights are held once: the clamp at 0 is made in place."""

    spec, _ = desk_shaped_game()
    prior = GaussianPrior(mean=1.0, std=4.0)
    S = 1000 * spec.n * 8 / 2**20  # one sample matrix, MiB

    def test_bayes_adam_keeps_one_matrix_and_its_work_blocks(self):
        config = AdamConfig(batch_size=128, epochs=1, total_samples=1000)
        blocks = 3 * 128 * self.spec.n * 8 / 2**20
        peak = peak_mib(bayes_adam, self.spec, self.prior, config, record_objective=False)
        assert peak <= self.S + blocks + 0.25

    def test_bayes_adam_objective_works_in_row_blocks(self):
        # the per-epoch objective holds a few blocks of rows, not (S, n) arrays (5.24 MiB before)
        config = AdamConfig(batch_size=128, epochs=1, total_samples=1000)
        blocks = 3 * 128 * self.spec.n * 8 / 2**20
        objective = 3 * (quadratic._OBJECTIVE_ROWS + 1) * self.spec.n * 8 / 2**20
        peak = peak_mib(bayes_adam, self.spec, self.prior, config)
        assert peak <= self.S + blocks + objective + 0.25

    def test_sample_prior_keeps_one_matrix(self):
        assert peak_mib(sample_prior, self.prior, self.spec.n, 1000, 0) <= self.S + 0.25


class TestFusedKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([LossKind.QUADRATIC, LossKind.LOGISTIC]),
        st.booleans(),
    )
    def test_fused_gradient_bit_identical(self, seed, learner_loss, bounded):
        rng = np.random.default_rng(seed)
        n, m, S = (int(v) for v in rng.integers(1, 7, size=3))
        spec = small_reduction_game(rng, n, m, learner_loss, 0.5 if bounded else None)
        batch = rng.random((S + 1, n)) * 3.0
        batch[rng.random(S + 1) < 0.5] = 0.0
        batch[0] = 0.0  # at least one all-zero row
        w = rng.normal(size=m)
        expected = stochastic_gradient(w, spec, batch)
        # the kernel overwrites its scratch; a state built for more rows serves a short batch
        stale = np.full((2, S + 3, n), np.nan)
        state = quadratic._GradientState.build(spec, stale).head(S + 1)
        assert np.array_equal(quadratic._stochastic_gradient(w, spec, batch, state), expected)
        assert np.array_equal(reference_gradient(w, spec, batch), expected)
        # the column sums round differently from the earlier per-element formula
        assert gradient_drift(w, spec, batch) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([LossKind.QUADRATIC, LossKind.LOGISTIC]),
        st.floats(0.01, 1.0),
    )
    def test_every_adam_iterate_stays_in_the_ball(self, seed, learner_loss, radius):
        rng = np.random.default_rng(seed)
        n, m = (int(v) for v in rng.integers(1, 7, size=2))
        spec = small_reduction_game(rng, n, m, learner_loss, radius)
        # the zero atom puts all-zero rows into the batches
        prior = FinitePrior(atoms=np.stack([np.zeros(n), 3.0 * rng.random(n)]),
                            probs=np.array([0.5, 0.5]))
        config = AdamConfig(learning_rate=0.5, batch_size=3, epochs=3, total_samples=10,
                            seed=int(rng.integers(1000)))
        project_kernel = quadratic._into_ball
        iterates = []

        def recording_project(point, flat, radius):
            out = project_kernel(point, flat, radius)
            iterates.append(out)
            return out

        with mock.patch.object(quadratic, "_into_ball", recording_project):
            w, _ = bayes_adam(spec, prior, config, record_objective=False)
        assert len(iterates) == 3 * 4  # ceil(10 / 3) steps per epoch
        assert all(np.linalg.norm(v) <= radius + 1e-12 for v in iterates)
        assert np.array_equal(w, iterates[-1])


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
    @pytest.mark.parametrize("prior, mean", [
        (GammaPrior(shape=2.0, scale=0.35), 2.0 * 0.35),
        (LogNormalPrior(mu=-0.5, sigma=0.8), math.exp(-0.5 + 0.8**2 / 2)),
    ], ids=["gamma", "lognormal"])
    def test_continuous_prior_collapses_to_its_mean(self, rng, prior, mean):
        spec = random_quadratic_game(rng, 5, 3)
        w_fp = bayes_fp(spec, np.full((1, 5), mean), iterations=20)
        assert np.array_equal(nash_strategy(spec, prior, iterations=20), w_fp)

import dataclasses
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
    LossKind,
    _loss,
    _loss_slope,
    grad_adversary_X,
    grad_learner_w,
    learner_cost,
    project,
    sample_prior,
)
from bayesgame.quadratic import (
    AdamConfig,
    _perturbed_predictions,
    bayes_adam,
    bayes_fp,
    best_response,
    stochastic_gradient,
    stochastic_objective,
)
from conftest import (
    central_diff_vector,
    coordinate_descent_adversary,
    desk_shaped_game,
    fd_step,
    golden_min,
    peak_mib,
    random_quadratic_game,
    rel_err,
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

    def test_stationarity_of_response(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            spec = random_quadratic_game(rng, n, m)
            w = rng.normal(size=m)
            c_d = rng.random(n)
            xbar = best_response(w, spec.X, spec.z, c_d)
            g = grad_adversary_X(w, xbar, c_d, spec)
            assert np.linalg.norm(g) <= 1e-8

    def test_matches_coordinate_descent(self, rng):
        for _ in range(10):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, m))
            w = rng.normal(size=m)
            z = rng.normal(size=n)
            c_d = rng.random(n)
            closed = best_response(w, X, z, c_d)
            numerical = coordinate_descent_adversary(w, X, z, c_d, tol=1e-12)
            assert np.max(np.abs(closed - numerical)) <= 1e-6

    def test_negative_cd_rejected(self, rng):
        with pytest.raises(ValueError, match="nonnegative"):
            best_response(np.ones(2), np.ones((3, 2)), np.zeros(3), np.array([0.1, -1.0, 0.2]))


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
        got = evaluate(w, Dataset(spec.X, labels), ZRule("flip"), prior, draws, seed=5)
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

    def test_empty_samples_rejected(self, rng):
        spec = random_quadratic_game(rng, 3, 2)
        with pytest.raises(ValueError, match="nonempty"):
            stochastic_objective(np.zeros(2), spec, np.zeros((0, 3)))

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

    @pytest.mark.parametrize("learner_loss", [LossKind.QUADRATIC, LossKind.LOGISTIC])
    def test_matches_finite_differences(self, rng, learner_loss):
        for _ in range(20):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            if learner_loss is LossKind.QUADRATIC:
                spec = random_quadratic_game(rng, n, m)
            else:
                spec = GameSpec(
                    X=rng.normal(size=(n, m)), y=rng.choice([-1.0, 1.0], size=n),
                    z=rng.normal(size=n), c_l=rng.random(n),
                    reg_l=float(rng.uniform(0.1, 2.0)),
                    learner_loss=LossKind.LOGISTIC,
                )
            w = rng.normal(size=m)
            batch = rng.random((3, n))
            g = stochastic_gradient(w, spec, batch)
            fd = central_diff_vector(
                lambda v: stochastic_objective(v, spec, batch), w, fd_step(w)
            )
            assert rel_err(g, fd) <= 1e-5


class TestBayesAdam:
    def test_zero_data_stays_at_origin(self):
        n, m = 4, 3
        spec = GameSpec(X=np.zeros((n, m)), y=np.zeros(n), z=np.zeros(n), c_l=np.ones(n))
        prior = GaussianPrior(mean=1.0, std=1.0)
        config = AdamConfig(learning_rate=0.01, batch_size=8, epochs=3, total_samples=16, seed=0)
        w, trace = bayes_adam(spec, prior, config)
        assert w == pytest.approx(np.zeros(m))
        assert len(trace) == 3

    def test_deterministic(self, rng):
        spec = random_quadratic_game(rng, 6, 3)
        prior = GaussianPrior(mean=1.0, std=0.5)
        config = AdamConfig(learning_rate=0.01, batch_size=8, epochs=4, total_samples=32, seed=9)
        w1, t1 = bayes_adam(spec, prior, config)
        w2, t2 = bayes_adam(spec, prior, config)
        assert np.array_equal(w1, w2)
        assert t1 == t2

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

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="batch_size"):
            AdamConfig(batch_size=64, total_samples=32)


def reference_adam(spec, prior, config, gradient=stochastic_gradient):
    """The Adam loop as written before the unchecked kernels, on the public functions.

    ``gradient(w, spec, batch)`` is the minibatch gradient it steps along.
    """
    rng = np.random.default_rng(config.seed)
    samples = np.maximum(prior.draw(rng, spec.n, config.total_samples), 0.0)
    w = project(np.zeros(spec.m), spec.learner_set)
    m1 = np.zeros(spec.m)
    m2 = np.zeros(spec.m)
    step = 0
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(config.total_samples)
        for lo in range(0, config.total_samples, config.batch_size):
            batch = samples[order[lo : lo + config.batch_size]]
            g = gradient(w, spec, batch)
            step += 1
            m1 = quadratic._BETA1 * m1 + (1.0 - quadratic._BETA1) * g
            m2 = quadratic._BETA2 * m2 + (1.0 - quadratic._BETA2) * g * g
            m1_hat = m1 / (1.0 - quadratic._BETA1**step)
            m2_hat = m2 / (1.0 - quadratic._BETA2**step)
            w = project(
                w - config.learning_rate * m1_hat / (np.sqrt(m2_hat) + quadratic._EPS_HAT),
                spec.learner_set,
            )
        trace.append(stochastic_objective(w, spec, samples))
    return w, trace


def reference_gradient_terms(w, spec, samples):
    """The minibatch gradient's three terms as written before the column-sum kernel."""
    S = samples.shape[0]
    wsq = w @ w
    denom = 1.0 + wsq * samples
    margins = spec.X @ w
    preds = margins - samples * (margins - spec.z) / (1.0 + wsq * samples) * wsq
    weight = spec.c_l * _loss_slope(spec.learner_loss, preds, spec.y) / denom
    grad_x_part = (weight.sum(axis=0) @ spec.X) / S
    w_coef = float(np.sum(weight * 2.0 * samples * (spec.z[None, :] - preds))) / S
    return grad_x_part, w_coef * w, 2.0 * spec.reg_l * w


def gradient_drift(w, spec, samples):
    """Max-abs gap between the kernel and the earlier formula, over the largest term."""
    terms = reference_gradient_terms(w, spec, samples)
    gap = np.abs(stochastic_gradient(w, spec, samples) - (terms[0] + terms[1] + terms[2]))
    return float(gap.max() / max(np.abs(t).max() for t in terms))


def small_reduction_game(rng, n, m, learner_loss, radius=None):
    """A random game for the quadratic reduction, on a learner ball if ``radius``."""
    if learner_loss is LossKind.LOGISTIC:
        labels = rng.choice([-1.0, 1.0], size=n)
    else:
        labels = rng.normal(size=n)
    kwargs = {} if radius is None else {"learner_set": ActionSet.l2_ball(radius)}
    return GameSpec(
        X=rng.normal(size=(n, m)), y=labels, z=rng.normal(size=n), c_l=rng.random(n),
        reg_l=float(rng.uniform(0.1, 2.0)), learner_loss=learner_loss, **kwargs,
    )


class TestBayesAdamMatchesReference:
    @pytest.mark.parametrize("learner_loss", [LossKind.QUADRATIC, LossKind.LOGISTIC])
    @pytest.mark.parametrize("radius", [None, 0.3], ids=["unconstrained", "ball"])
    @pytest.mark.parametrize("total, batch", [(40, 8), (37, 8)], ids=["full", "partial"])
    def test_weights_and_trace_bit_identical(self, rng, learner_loss, radius, total, batch):
        spec = small_reduction_game(rng, 7, 4, learner_loss, radius)
        prior = GaussianPrior(mean=1.0, std=2.0)
        config = AdamConfig(
            learning_rate=0.1, batch_size=batch, epochs=4, total_samples=total, seed=3
        )
        w_ref, trace_ref = reference_adam(spec, prior, config)
        w, trace = bayes_adam(spec, prior, config)
        assert np.array_equal(w, w_ref)
        assert trace == trace_ref
        w_lean, trace_lean = bayes_adam(spec, prior, config, record_objective=False)
        assert np.array_equal(w_lean, w_ref)
        assert trace_lean == []


class TestBlockedObjective:
    """The objective's row blocks sum each row as the whole-matrix gemv does."""

    @pytest.mark.parametrize("learner_loss", [LossKind.QUADRATIC, LossKind.LOGISTIC])
    @pytest.mark.parametrize("S", [1, 2, 63, 64, 65, 66, 129, 1000, 1001])
    def test_equals_the_whole_matrix_form(self, S, learner_loss):
        rng = np.random.default_rng(S)
        spec = small_reduction_game(rng, 200, 57, learner_loss)
        samples = np.maximum(rng.normal(1.0, 4.0, size=(S, spec.n)), 0.0)
        w = 0.3 * rng.normal(size=spec.m)
        preds = _perturbed_predictions(w, spec.X, spec.z, samples, w)
        losses = _loss(spec.learner_loss, preds, spec.y)
        whole = float(np.mean(losses @ spec.c_l) + spec.reg_l * (w @ w))
        assert stochastic_objective(w, spec, samples) == whole


class TestBayesAdamDrift:
    """Adam on the kernel against Adam on the per-element gradient, at desk shape."""

    @pytest.mark.parametrize("learner_loss", [LossKind.QUADRATIC, LossKind.LOGISTIC])
    def test_weights_stay_within_1e_10(self, learner_loss):
        spec, _ = desk_shaped_game()
        if learner_loss is LossKind.LOGISTIC:
            spec = dataclasses.replace(spec, y=2.0 * spec.y - 1.0, learner_loss=learner_loss)
        prior = GaussianPrior(mean=1.0, std=4.0)
        config = AdamConfig(batch_size=32, epochs=2, total_samples=1000, seed=5)
        def per_element_gradient(w, spec, batch):
            return sum(reference_gradient_terms(w, spec, batch))

        w_ref, _ = reference_adam(spec, prior, config, per_element_gradient)
        w, _ = bayes_adam(spec, prior, config, record_objective=False)
        assert np.linalg.norm(w - w_ref) <= 1e-10 * np.linalg.norm(w_ref)


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
        stale = np.full((2,) + batch.shape, np.nan)  # the kernel overwrites its scratch
        assert np.array_equal(quadratic._stochastic_gradient(w, spec, batch, stale), expected)
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
        project_kernel = quadratic._project
        iterates = []

        def recording_project(point, action_set):
            out = project_kernel(point, action_set)
            iterates.append(out)
            return out

        with mock.patch.object(quadratic, "_project", recording_project):
            w, _ = bayes_adam(spec, prior, config, record_objective=False)
        assert len(iterates) == 3 * 4  # ceil(10 / 3) steps per epoch
        assert all(np.linalg.norm(v) <= radius + 1e-12 for v in iterates)
        assert np.array_equal(w, iterates[-1])


class TestNonFiniteSamplesRejected:
    """``c_d`` samples with NaN or inf fail at every entry of the quadratic route."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("entry", [
        lambda spec, s: stochastic_objective(np.ones(spec.m), spec, s),
        lambda spec, s: stochastic_gradient(np.ones(spec.m), spec, s),
        lambda spec, s: bayes_fp(spec, s, 2),
        lambda spec, s: best_response(np.ones(spec.m), spec.X, spec.z, s[0]),
    ], ids=["stochastic_objective", "stochastic_gradient", "bayes_fp", "best_response"])
    def test_sample_matrix(self, rng, entry, bad):
        spec = random_quadratic_game(rng, 3, 2)
        samples = np.array([[bad, 0.1, 0.2], [0.3, 0.1, 0.2]])
        with pytest.raises(ValueError, match="c_d"):
            entry(spec, samples)

    def test_prior_draw_in_bayes_adam(self, rng):
        spec = random_quadratic_game(rng, 3, 2)

        class NanPrior(GaussianPrior):
            def draw(self, rng, n, num_samples):
                draws = super().draw(rng, n, num_samples)
                draws[0, 0] = float("nan")  # np.maximum(nan, 0) stays nan
                return draws

        with pytest.raises(ValueError, match="c_d"):
            bayes_adam(spec, NanPrior(1.0, 1.0), AdamConfig(epochs=1, total_samples=8,
                                                            batch_size=4))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_scalar_weight_and_adam_config(self, bad):
        with pytest.raises(ValueError, match="c_d must be nonnegative and finite"):
            best_response(np.ones(2), np.ones((1, 2)), np.zeros(1), np.array([bad]))
        with pytest.raises(ValueError, match="learning_rate"):
            AdamConfig(learning_rate=bad)

    @pytest.mark.parametrize("seed", [-1, -(2**63)])
    def test_adam_config_rejects_a_negative_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            AdamConfig(seed=seed)

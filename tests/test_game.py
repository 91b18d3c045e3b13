import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bayesgame.game import (
    ActionSet,
    FinitePrior,
    GameSpec,
    GammaPrior,
    GaussianPrior,
    LogNormalPrior,
    LossKind,
    StrategyProfile,
    _loss,
    _sigmoid,
    adversary_cost,
    discretize_prior,
    grad_adversary_X,
    grad_learner_w,
    learner_cost,
    prior_mean,
    project,
    sample_prior,
)
from bayesgame.quadratic import stochastic_gradient
from bayesgame.solvers import stacked_map
from conftest import random_logistic_game, random_quadratic_game


def tiny_spec(c_l=0.1, **kwargs):
    return GameSpec(
        X=np.array([[2.0]]), y=np.array([1.0]), z=np.array([0.0]),
        c_l=np.array([c_l]), **kwargs,
    )


class TestCosts:
    def test_learner_cost_hand_value(self):
        # 0.1 * (2*1 - 1)^2 + 1 * |1|^2
        assert learner_cost(np.array([1.0]), np.array([[2.0]]), tiny_spec()) == pytest.approx(1.1)

    def test_learner_cost_logistic_zero_weights(self, rng):
        spec = random_logistic_game(rng, 5, 3)
        Xbar = rng.normal(size=(5, 3))
        expected = float(spec.c_l.sum()) * math.log(2.0)
        assert learner_cost(np.zeros(3), Xbar, spec) == pytest.approx(expected)

    def test_logistic_loss_is_exact_past_the_old_cutoff(self):
        # log(1 + e^31) = 31 + 3.4e-14; a cutoff that returns the margin itself drops that term
        margins, signs = np.array([-31.0, -800.0, 800.0]), np.ones(3)
        losses = _loss(LossKind.LOGISTIC, margins, signs)
        assert losses[0] == math.log1p(math.exp(31.0))
        assert losses[1] == 800.0 and 0.0 <= losses[2] < 1e-300

    def test_sigmoid_matches_the_masked_form(self, rng):
        def masked_sigmoid(t):  # the form before the single-exp kernel
            out = np.empty_like(t, dtype=float)
            pos = t >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
            e = np.exp(t[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        edges = [40.0, -40.0, 800.0, -800.0, 0.0, -0.0, math.inf, -math.inf, math.nan]
        t = np.concatenate([rng.normal(scale=10.0, size=(128, 200)).ravel(), edges])
        assert np.array_equal(_sigmoid(t), masked_sigmoid(t), equal_nan=True)
        # the tail keeps its relative accuracy, where 0.5 (1 + tanh(t/2)) reads 0
        assert _sigmoid(np.array([-40.0]))[0] == math.exp(-40.0) / (1.0 + math.exp(-40.0))

    def test_learner_cost_zero_case(self, rng):
        spec = GameSpec(X=rng.normal(size=(4, 2)), y=np.zeros(4), z=np.zeros(4), c_l=rng.random(4))
        assert learner_cost(np.zeros(2), rng.normal(size=(4, 2)), spec) == 0.0

    def test_adversary_cost_hand_value(self):
        spec = tiny_spec(c_l=1.0)
        value = adversary_cost(np.array([1.0]), np.array([[1.0]]), np.array([1.0]), spec)
        assert value == pytest.approx(2.0)  # 1*(1-0)^2 + (2-1)^2

    def test_adversary_cost_unperturbed_zero(self, rng):
        spec = random_quadratic_game(rng, 5, 3)
        w = rng.normal(size=3)
        spec = GameSpec(X=spec.X, y=spec.y, z=spec.X @ w, c_l=spec.c_l)
        assert adversary_cost(w, spec.X, np.zeros(5), spec) == 0.0

    def test_adversary_cost_unperturbed_drops_penalty(self, rng):
        spec = random_quadratic_game(rng, 5, 3)
        w = rng.normal(size=3)
        c_d = rng.random(5)
        expected = float(c_d @ (spec.X @ w - spec.z) ** 2)
        assert adversary_cost(w, spec.X, c_d, spec) == pytest.approx(expected)


class TestGradients:
    def test_learner_gradient_hand_value(self):
        # 2*0.1*(2-1)*2 + 2*1*1
        g = grad_learner_w(np.array([1.0]), np.array([[2.0]]), tiny_spec())
        assert g == pytest.approx([2.4])

    def test_learner_gradient_zero_at_origin(self, rng):
        spec = GameSpec(X=rng.normal(size=(4, 2)), y=np.zeros(4), z=np.zeros(4),
                        c_l=rng.random(4), reg_l=1.7)
        assert grad_learner_w(np.zeros(2), rng.normal(size=(4, 2)), spec) == pytest.approx(np.zeros(2))

    def test_adversary_gradient_hand_value(self):
        spec = tiny_spec(c_l=1.0)
        g = grad_adversary_X(np.array([1.0]), np.array([[1.0]]), np.array([1.0]), spec)
        assert g == pytest.approx(np.array([[0.0]]))  # 2*1*(1-0)*1 + 2*(1-2)

    def test_adversary_gradient_zero_unperturbed(self, rng):
        spec = random_quadratic_game(rng, 4, 3)
        w = rng.normal(size=3)
        g = grad_adversary_X(w, spec.X, np.zeros(4), spec)
        assert g == pytest.approx(np.zeros((4, 3)))


class TestProjection:
    def test_feasible_point_unchanged(self):
        assert project(np.array([3.0, 4.0]), ActionSet.l2_ball(5.0)) == pytest.approx([3.0, 4.0])

    def test_radial_scaling(self):
        p = project(np.array([3.0, 4.0]), ActionSet.l2_ball(1.0))
        assert p == pytest.approx([0.6, 0.8])
        assert np.linalg.norm(p) == pytest.approx(1.0)

    def test_unconstrained_identity(self, rng):
        M = rng.normal(size=(3, 4))
        assert project(M, ActionSet.unconstrained()) is M or np.array_equal(
            project(M, ActionSet.unconstrained()), M
        )

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, 4, elements=st.floats(-100, 100)),
        st.floats(0.1, 10.0),
    )
    def test_idempotent(self, v, radius):
        s = ActionSet.l2_ball(radius)
        once = project(v, s)
        assert np.allclose(project(once, s), once)

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, 5, elements=st.floats(-50, 50)),
        arrays(np.float64, 5, elements=st.floats(-50, 50)),
        st.floats(0.1, 10.0),
    )
    def test_nonexpansive(self, u, v, radius):
        s = ActionSet.l2_ball(radius)
        lhs = np.linalg.norm(project(u, s) - project(v, s))
        assert lhs <= np.linalg.norm(u - v) + 1e-12

    def test_profile_feasibility(self):
        spec = tiny_spec(learner_set=ActionSet.l2_ball(1.0), adversary_set=ActionSet.l2_ball(2.0))
        assert StrategyProfile(np.array([1.0]), np.full((2, 1, 1), 2.0)).is_feasible(spec)
        assert not StrategyProfile(np.array([1.5]), np.zeros((2, 1, 1))).is_feasible(spec)
        assert not StrategyProfile(np.zeros(1), np.full((2, 1, 1), 2.5)).is_feasible(spec)


class TestConvexity:
    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_learner_cost_midpoint_convex(self, rng, loss):
        for _ in range(25):
            game = random_quadratic_game if loss == "quadratic" else random_logistic_game
            spec = game(rng, 5, 3)
            Xbar = rng.normal(size=(5, 3))
            u, v = rng.normal(size=3), rng.normal(size=3)
            mid = learner_cost((u + v) / 2, Xbar, spec)
            assert mid <= (learner_cost(u, Xbar, spec) + learner_cost(v, Xbar, spec)) / 2 + 1e-12

    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_adversary_cost_midpoint_convex(self, rng, loss):
        for _ in range(25):
            game = random_quadratic_game if loss == "quadratic" else random_logistic_game
            spec = game(rng, 5, 3)
            w = rng.normal(size=3)
            c_d = rng.random(5)
            U, V = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
            mid = adversary_cost(w, (U + V) / 2, c_d, spec)
            both = adversary_cost(w, U, c_d, spec) + adversary_cost(w, V, c_d, spec)
            assert mid <= both / 2 + 1e-12


class TestPriors:

    def test_point_mass_sampling(self):
        atom = np.array([0.5, 1.5, 0.0])
        prior = FinitePrior(atoms=atom[None, :], probs=np.array([1.0]))
        samples = sample_prior(prior, 3, 50, seed=9)
        assert np.all(samples == atom)

    def test_samples_clamped_nonnegative(self):
        samples = sample_prior(GaussianPrior(mean=-1.0, std=1.0), 3, 200, seed=0)
        assert np.all(samples >= 0)
        assert np.any(samples == 0)  # clamping must actually engage here

    def test_gaussian_unclamped_mean(self):
        # statistical check on the raw draws, before clamping
        prior = GaussianPrior(mean=1.0, std=1.0)
        raw = prior.draw(np.random.default_rng(123), 5, 100_000)
        se = 1.0 / math.sqrt(raw.shape[0])
        assert np.all(np.abs(raw.mean(axis=0) - 1.0) <= 3 * se)

    @pytest.mark.parametrize(
        "prior",
        [GaussianPrior(1.0, 1.0), GammaPrior(2.0, 0.5), LogNormalPrior(0.0, 1.0)],
    )
    def test_discretize_continuous(self, prior):
        finite = discretize_prior(prior, n=6, K=8, seed=4)
        assert finite.num_atoms == 8
        assert finite.probs.sum() == 1.0
        assert np.all(finite.probs == 0.125)
        assert np.all(finite.atoms >= 0)

    def test_discretize_finite_passthrough(self):
        prior = FinitePrior(atoms=np.ones((3, 2)), probs=np.array([0.2, 0.3, 0.5]))
        assert discretize_prior(prior, 2, 3, seed=0) is prior

    def test_discretize_single_atom_expands(self):
        atom = np.array([1.0, 2.0])
        prior = FinitePrior(atoms=atom[None, :], probs=np.array([1.0]))
        finite = discretize_prior(prior, 2, 5, seed=0)
        assert finite.num_atoms == 5
        assert np.all(finite.atoms == atom)
        assert np.all(finite.probs == 0.2)

    def test_prior_mean_clamped(self):
        assert prior_mean(GaussianPrior(mean=-2.0, std=1.0), 3) == pytest.approx(np.zeros(3))
        finite = FinitePrior(atoms=np.array([[1.0, 0.0], [3.0, 2.0]]), probs=np.array([0.5, 0.5]))
        assert prior_mean(finite, 2) == pytest.approx([2.0, 1.0])


class TestGameSpecValidation:
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda kind: kind.value)
    def test_a_loss_kind_may_be_given_by_its_value(self, kind):
        rng = np.random.default_rng(4)
        data = dict(X=rng.normal(size=(5, 3)), y=rng.choice([-1.0, 1.0], 5),
                    z=rng.normal(size=5), c_l=rng.random(5))
        by_member = GameSpec(**data, learner_loss=kind)
        by_value = GameSpec(**data, learner_loss=kind.value, adversary_loss="quadratic")
        assert (by_value.learner_loss, by_value.adversary_loss) == (kind, LossKind.QUADRATIC)
        w, prior = rng.normal(size=3), FinitePrior(rng.random((2, 5)), np.array([0.5, 0.5]))
        profile = StrategyProfile(w, rng.normal(size=(2, 5, 3)))
        assert learner_cost(w, data["X"], by_value) == learner_cost(w, data["X"], by_member)
        for a, b in zip(stacked_map(profile, prior, by_value),
                        stacked_map(profile, prior, by_member)):
            assert np.array_equal(a, b)
        assert np.array_equal(stochastic_gradient(w, by_value, prior.atoms),
                              stochastic_gradient(w, by_member, prior.atoms))

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesgame import game, solvers
from bayesgame.game import (
    ActionSet,
    ConfigError,
    FieldError,
    FinitePrior,
    GameSpec,
    GaussianPrior,
    LossKind,
    StrategyProfile,
    _gradients,
    _loss_slope,
    _OperatorState,
    discretize_prior,
    grad_adversary_X,
    grad_learner_w,
    origin_profile,
    project,
)
from bayesgame.solvers import (
    SolverConfig,
    SolverError,
    _extragradient_on_map,
    assumption_probe,
    epsilon_distance,
    equilibrium_residual,
    extragradient,
    extragradient_reference,
    pg_rbc,
    prg_ie,
    stacked_map,
    step_warnings,
)
from conftest import (
    desk_shaped_game,
    monotone_ball_game,
    random_finite_prior,
    random_logistic_game,
    random_profile,
    peak_mib,
    random_quadratic_game,
    single_atom_game,
)


def zero_game(n=3, m=2, K=2, bounded=True):
    kwargs = {}
    if bounded:
        kwargs = dict(learner_set=ActionSet.l2_ball(1.0), adversary_set=ActionSet.l2_ball(1.0))
    spec = GameSpec(X=np.zeros((n, m)), y=np.zeros(n), z=np.zeros(n), c_l=np.ones(n), **kwargs)
    prior = FinitePrior(atoms=np.zeros((K, n)), probs=np.full(K, 1.0 / K))
    return spec, prior


class TestStackedMap:
    def test_single_atom_learner_block(self, rng):
        spec = random_quadratic_game(rng, 5, 3)
        prior = FinitePrior(atoms=rng.random((1, 5)), probs=np.array([1.0]))
        profile = random_profile(rng, spec, 1)
        learner, adversary = stacked_map(profile, prior, spec)
        assert learner == pytest.approx(grad_learner_w(profile.w, profile.sigma[0], spec))
        assert adversary[0] == pytest.approx(
            grad_adversary_X(profile.w, profile.sigma[0], prior.atoms[0], spec)
        )

    def test_zero_game_origin_is_stationary(self):
        spec, prior = zero_game()
        profile = origin_profile(spec, prior.num_atoms)
        learner, adversary = stacked_map(profile, prior, spec)
        assert np.all(learner == 0) and np.all(adversary == 0)

    def test_learner_block_matches_sampling_oracle(self, rng):
        # the weighted sum equals the average gradient over atoms drawn by p_k
        spec = random_quadratic_game(rng, 6, 4)
        prior = random_finite_prior(rng, 6, 5)
        profile = random_profile(rng, spec, 5)
        learner, _ = stacked_map(profile, prior, spec)

        draws = 1_000_000
        counts = rng.multinomial(draws, prior.probs)
        grads = np.stack(
            [grad_learner_w(profile.w, profile.sigma[k], spec) for k in range(5)]
        )
        mc = (counts / draws) @ grads
        spread = np.abs(grads - learner).max()
        tol = 3.0 * spread / np.sqrt(draws)
        assert np.abs(mc - learner).max() <= max(tol, 1e-9)

    def test_k_mismatch_rejected(self, rng):
        spec = random_quadratic_game(rng, 4, 2)
        prior = random_finite_prior(rng, 4, 3)
        profile = random_profile(rng, spec, 2)
        with pytest.raises(ValueError, match="sigma"):
            stacked_map(profile, prior, spec)


class TestResidualAndDistance:
    def test_zero_at_zero_game_origin(self):
        spec, prior = zero_game()
        profile = origin_profile(spec, prior.num_atoms)
        assert equilibrium_residual(profile, prior, spec) == 0.0

    def test_positive_off_equilibrium(self, rng):
        spec = random_quadratic_game(rng, 4, 3)
        prior = random_finite_prior(rng, 4, 2)
        profile = random_profile(rng, spec, 2)
        assert equilibrium_residual(profile, prior, spec) > 0

    def test_unconstrained_residual_is_scaled_map_norm(self, rng):
        spec = random_quadratic_game(rng, 4, 3)
        prior = random_finite_prior(rng, 4, 2)
        profile = random_profile(rng, spec, 2)
        learner, adversary = stacked_map(profile, prior, spec)
        norm2 = float(learner @ learner + np.sum(adversary * adversary))
        assert equilibrium_residual(profile, prior, spec) == pytest.approx(norm2)

    def test_epsilon_distance_identical(self, rng):
        spec = random_quadratic_game(rng, 3, 2)
        prior = random_finite_prior(rng, 3, 2)
        p = random_profile(rng, spec, 2)
        assert epsilon_distance(p, p, prior) == 0.0

    def test_epsilon_distance_unit_w_offset(self, rng):
        prior = random_finite_prior(rng, 3, 2)
        sigma = rng.normal(size=(2, 3, 4))
        a = StrategyProfile(w=np.array([1.0, 0.0, 0.0, 0.0]), sigma=sigma)
        b = StrategyProfile(w=np.zeros(4), sigma=sigma.copy())
        assert epsilon_distance(a, b, prior) == pytest.approx(1.0)

    def test_epsilon_distance_hand_value(self):
        prior = FinitePrior(atoms=np.zeros((2, 3)), probs=np.array([0.5, 0.5]))
        sigma_a = np.zeros((2, 3, 2))
        sigma_b = np.zeros((2, 3, 2))
        sigma_b[0, 0, 0] = 2.0  # Frobenius distance 2 on the first block
        a = StrategyProfile(w=np.zeros(2), sigma=sigma_a)
        b = StrategyProfile(w=np.zeros(2), sigma=sigma_b)
        assert epsilon_distance(a, b, prior) == pytest.approx(2.0)  # 0.5 * 4

    def test_k_mismatch(self, rng):
        prior = random_finite_prior(rng, 3, 2)
        a = StrategyProfile(w=np.zeros(2), sigma=np.zeros((2, 3, 2)))
        b = StrategyProfile(w=np.zeros(2), sigma=np.zeros((3, 3, 2)))
        with pytest.raises(ValueError, match=r"reference sigma has shape \(3, 3, 2\), "
                                             r"expected \(2, 3, 2\)"):
            epsilon_distance(a, b, prior)


class TestPrgIe:
    def test_zero_game_fixed_point(self):
        spec, prior = zero_game()
        config = SolverConfig(max_iters=25, gamma=1e-3, trace_every=5, lipschitz=2.0)
        trace = prg_ie(spec, prior, config)
        assert np.all(trace.final_profile.w == 0)
        assert np.all(trace.final_profile.sigma == 0)
        assert all(rec.residual == 0 for rec in trace.iterations)

    def test_requires_bounded_sets(self, rng):
        spec = random_quadratic_game(rng, 3, 2, bounded=False)
        prior = random_finite_prior(rng, 3, 2)
        config = SolverConfig(max_iters=10, gamma=1e-3)
        with pytest.raises(ConfigError, match="bounded"):
            prg_ie(spec, prior, config)

    def test_deterministic(self):
        spec, prior = monotone_ball_game()
        config = SolverConfig(max_iters=400, gamma=2e-3, trace_every=100, lipschitz=2.3)
        t1 = prg_ie(spec, prior, config)
        t2 = prg_ie(spec, prior, config)
        assert np.array_equal(t1.final_profile.w, t2.final_profile.w)
        assert np.array_equal(t1.final_profile.sigma, t2.final_profile.sigma)
        assert [r.residual for r in t1.iterations] == [r.residual for r in t2.iterations]

    def test_iterates_feasible(self):
        spec, prior = monotone_ball_game()
        config = SolverConfig(max_iters=300, gamma=2e-3, trace_every=50, lipschitz=2.3)
        trace = prg_ie(spec, prior, config)
        assert trace.final_profile.is_feasible(spec)

    def test_step_size_warning(self):
        spec, prior = monotone_ball_game()
        config = SolverConfig(max_iters=5, gamma=0.5, lipschitz=2.3)
        with pytest.warns(UserWarning, match="gamma"):
            prg_ie(spec, prior, config)


class TestPgRbc:
    def test_zero_game_fixed_point(self):
        spec, prior = zero_game()
        config = SolverConfig(max_iters=25, gamma=0.5, trace_every=5, strong_monotonicity=2.0)
        trace = pg_rbc(spec, prior, config)
        assert np.all(trace.final_profile.w == 0)
        assert all(rec.residual == 0 for rec in trace.iterations)

    def test_single_atom_matches_deterministic_projected_gradient(self, rng):
        spec = random_quadratic_game(rng, 4, 3, bounded=True)
        atoms = rng.random((1, 4))
        prior = FinitePrior(atoms=atoms, probs=np.array([1.0]))
        iters = 500
        config = SolverConfig(
            max_iters=iters, gamma=0.4, seed=5, trace_every=100, strong_monotonicity=2.0
        )
        trace = pg_rbc(spec, prior, config)

        # hand-rolled deterministic projected gradient with the same schedule
        w = project(np.zeros(3), spec.learner_set)
        sigma = project(np.zeros((4, 3)), spec.adversary_set)
        for t in range(iters):
            gamma_t = 0.4 if t == 0 else 0.4 / t
            w_next = project(w - gamma_t * grad_learner_w(w, sigma, spec), spec.learner_set)
            sigma = project(
                sigma - gamma_t * grad_adversary_X(w, sigma, atoms[0], spec),
                spec.adversary_set,
            )
            w = w_next
        assert trace.final_profile.w == pytest.approx(w, abs=1e-14)
        assert trace.final_profile.sigma[0] == pytest.approx(sigma, abs=1e-14)

    def test_deterministic(self):
        spec, prior = monotone_ball_game()
        config = SolverConfig(max_iters=500, gamma=0.5, seed=7, trace_every=100,
                              strong_monotonicity=2.0)
        t1 = pg_rbc(spec, prior, config)
        t2 = pg_rbc(spec, prior, config)
        assert np.array_equal(t1.final_profile.w, t2.final_profile.w)
        assert np.array_equal(t1.final_profile.sigma, t2.final_profile.sigma)

    def test_step_size_warning(self):
        spec, prior = monotone_ball_game()
        config = SolverConfig(max_iters=5, gamma=0.01, strong_monotonicity=2.0)
        with pytest.warns(UserWarning, match="gamma"):
            pg_rbc(spec, prior, config)

    def test_iterates_feasible(self):
        spec, prior = monotone_ball_game()
        config = SolverConfig(max_iters=300, gamma=0.5, seed=3, trace_every=50,
                              strong_monotonicity=2.0)
        trace = pg_rbc(spec, prior, config)
        assert trace.final_profile.is_feasible(spec)


class TestExtragradient:
    def test_zero_game_returns_origin_immediately(self):
        spec, prior = zero_game()
        profile = extragradient_reference(spec, prior, tol=1e-12)
        assert np.all(profile.w == 0) and np.all(profile.sigma == 0)

    def test_residual_below_tol_and_unconstrained_stationarity(self, rng):
        spec = GameSpec(
            X=0.3 * rng.normal(size=(2, 2)),
            y=0.3 * rng.normal(size=2),
            z=0.3 * rng.normal(size=2),
            c_l=np.full(2, 0.2),
        )
        prior = FinitePrior(atoms=0.2 * rng.random((1, 2)), probs=np.array([1.0]))
        profile = extragradient_reference(spec, prior, tol=1e-12)
        assert equilibrium_residual(profile, prior, spec) <= 1e-12
        learner, adversary = stacked_map(profile, prior, spec)
        assert np.linalg.norm(learner) <= 1e-5
        assert np.linalg.norm(adversary) <= 1e-5

    def test_restart_at_solution_stops_at_the_first_step(self):
        # every route traces its first point after one step, t = 1
        spec, prior = monotone_ball_game()
        solution = extragradient_reference(spec, prior, tol=1e-10)

        def map_fn(w, sigma, out):
            t_w, out[...] = stacked_map(StrategyProfile(w=w, sigma=sigma), prior, spec)
            return t_w

        profile, iters = _extragradient_on_map(map_fn, solution, spec, 0.1, 1e-10, 100)
        assert iters == 1
        assert equilibrium_residual(profile, prior, spec) <= 1e-10

    def test_two_map_evaluations_per_iteration(self):
        spec, prior = monotone_ball_game()
        calls = 0

        def map_fn(w, sigma, out):
            nonlocal calls
            calls += 1
            t_w, out[...] = stacked_map(StrategyProfile(w=w, sigma=sigma), prior, spec)
            return t_w

        x0 = origin_profile(spec, prior.num_atoms)
        profile, iters = _extragradient_on_map(map_fn, x0, spec, 0.2, 1e-10, 1000)
        w, sigma, ref_iters, halvings = reference_extragradient(spec, prior, 0.2, 1e-10)
        assert iters == ref_iters > 0 and halvings > 0
        assert calls == 1 + 2 * iters + halvings  # one more map call per halving
        assert np.array_equal(profile.w, w) and np.array_equal(profile.sigma, sigma)

    def test_backtracking_converges_where_the_probed_step_stalls(self):
        # Gaussian features: the fixed step 0.5/L_hat of a 16-trial probe stalled
        # at a residual of 4.1e3 after 3000 iterations on this game
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 5))
        y = rng.integers(0, 2, 20).astype(float)
        spec = GameSpec(X=X, y=y, z=1.0 - y, c_l=np.full(20, 0.1),
                        learner_set=ActionSet.l2_ball(1.0),
                        adversary_set=ActionSet.l2_ball(2.0 * float(np.linalg.norm(X))))
        prior = discretize_prior(GaussianPrior(1.0, 4.0), 20, 4, seed=1)
        profile = extragradient_reference(spec, prior, tol=1e-10, max_iters=500)
        assert equilibrium_residual(profile, prior, spec) <= 1e-10

    def test_non_finite_map_stops_the_step_search(self):
        spec, prior = monotone_ball_game()
        calls = 0

        def nan_map(w, sigma, out):
            nonlocal calls
            calls += 1
            out[...] = np.nan
            return np.full_like(w, np.nan)

        x0 = origin_profile(spec, prior.num_atoms)
        with pytest.raises(SolverError, match="t=1 within 60 halvings"):
            _extragradient_on_map(nan_map, x0, spec, 1.0, 1e-10, 10_000)
        assert calls < 100

    def test_step_holds_at_an_exact_solution(self):
        # every step stays at the zero game's origin; a step grown after it as
        # well would overflow near t = 1750, and inf * 0 = nan stops the search
        spec, prior = zero_game()
        config = SolverConfig(max_iters=2000, gamma=1.0, trace_every=500)
        trace = extragradient(spec, prior, config)
        assert [rec.residual for rec in trace.iterations] == [0.0] * 5
        assert not trace.final_profile.w.any() and not trace.final_profile.sigma.any()

    def test_nonconvergence_reports_residual(self):
        spec, prior = monotone_ball_game()
        with pytest.raises(SolverError, match="residual"):
            extragradient_reference(spec, prior, tol=1e-14, max_iters=3)


class TestStepRules:
    """The solvers check their step against the caller's constants; none of them probes."""

    @pytest.fixture
    def probe_calls(self, monkeypatch):
        calls = []
        probe = solvers.assumption_probe

        def counting(*args, **kwargs):
            calls.append(args)
            return probe(*args, **kwargs)

        monkeypatch.setattr(solvers, "assumption_probe", counting)
        return calls

    @pytest.mark.parametrize("constants, expected", [
        ({}, ["not checked"]),
        ({"lipschitz": 2.3, "strong_monotonicity": 2.0}, []),  # both rules hold
    ], ids=["none", "given"])
    @pytest.mark.parametrize("solver, gamma", [(pg_rbc, 0.5), (prg_ie, 2e-3)],
                             ids=["pg_rbc", "prg_ie"])
    def test_solvers_never_probe(self, probe_calls, solver, gamma, constants, expected):
        spec, prior = monotone_ball_game()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solver(spec, prior, SolverConfig(max_iters=20, gamma=gamma, **constants))
        assert probe_calls == []
        assert len(caught) == len(expected)
        assert all(text in str(w.message) for w, text in zip(caught, expected))

    def test_oracle_never_probes(self, probe_calls):
        spec, prior = monotone_ball_game()
        extragradient_reference(spec, prior, tol=1e-8)
        assert probe_calls == []

    @pytest.mark.parametrize("gamma, constants, expected", [
        (0.5, {"lipschitz": 2.3}, ["prg-ie step bound"]),
        (2e-3, {"lipschitz": 2.3}, []),
        (1.0, {"lipschitz": 0.0}, ["prg-ie step bound"]),  # the bound is min(1, ...) = 1
        (0.99, {"lipschitz": 0.0}, []),
        (0.25, {"strong_monotonicity": 2.0}, ["pg-rbc step bound"]),  # needs gamma > 1/4
        (0.26, {"strong_monotonicity": 2.0}, []),
        (5.0, {"strong_monotonicity": 0.0}, ["non-monotone"]),
        (None, {"lipschitz": 2.3, "strong_monotonicity": -1.0}, ["non-monotone"]),
        (1e-3, {"lipschitz": 2.3, "strong_monotonicity": 2.0}, ["pg-rbc step bound"]),
        (0.6, {"lipschitz": 2.3, "strong_monotonicity": 0.1},
         ["prg-ie step bound", "pg-rbc step bound"]),
    ])
    def test_step_warnings(self, gamma, constants, expected):
        messages = step_warnings(gamma, **constants)
        assert len(messages) == len(expected)
        assert all(text in message for message, text in zip(messages, expected))

    @pytest.mark.parametrize("gamma, constants, message", [
        (0.5, {"lipschitz": -3.0}, "^lipschitz must be nonnegative and finite$"),
        (0.5, {"lipschitz": math.nan}, "^lipschitz must be nonnegative and finite$"),
        (0.5, {"lipschitz": math.inf}, "^lipschitz must be nonnegative and finite$"),
        (0.5, {"strong_monotonicity": math.nan}, "^strong_monotonicity must be finite$"),
        (-0.5, {"lipschitz": 2.3}, "^gamma must be positive and finite$"),
    ], ids=["negative-L", "nan-L", "inf-L", "nan-lambda", "negative-gamma"])
    def test_step_warnings_rejects_bad_constants(self, gamma, constants, message):
        # a negative L used to return [] and a NaN lambda to warn "lambda=nan <= 0"
        with pytest.raises(FieldError, match=message):
            step_warnings(gamma, **constants)


class TestAssumptionProbe:
    def test_decoupled_regularizer_game(self):
        # with c_l = 0 and zero atoms the operator is 2*identity per block
        n, m, K = 4, 3, 2
        spec = GameSpec(
            X=np.zeros((n, m)), y=np.zeros(n), z=np.zeros(n), c_l=np.zeros(n),
            reg_l=1.0,
            learner_set=ActionSet.l2_ball(2.0), adversary_set=ActionSet.l2_ball(2.0),
        )
        prior = FinitePrior(atoms=np.zeros((K, n)), probs=np.array([0.4, 0.6]))
        diag = assumption_probe(spec, prior, trials=50, seed=0)
        assert diag.lambda_hat == pytest.approx(2.0, abs=1e-9)
        assert diag.lambda_hat >= 1.0
        assert diag.L_hat == pytest.approx(2.0, abs=1e-9)
        assert diag.G_hat >= 0

    def test_deterministic(self):
        spec, prior = monotone_ball_game()
        d1 = assumption_probe(spec, prior, trials=40, seed=12)
        d2 = assumption_probe(spec, prior, trials=40, seed=12)
        assert d1 == d2

    def test_duplicate_pairs_skipped(self, monkeypatch):
        spec, prior = monotone_ball_game()
        fixed = random_profile(np.random.default_rng(0), spec, prior.num_atoms)

        def draw_fixed(rng, s, w, sigma):
            w[...], sigma[...] = fixed.w, fixed.sigma

        monkeypatch.setattr("bayesgame.solvers._draw_feasible_profile", draw_fixed)
        with pytest.raises(SolverError, match="duplicate"):
            assumption_probe(spec, prior, trials=5, seed=0)

    def test_overflow_is_not_reported_as_duplicates(self):
        # every pair is distinct, but |dz|^2 overflows to inf and the quotients are NaN
        spec = GameSpec(X=np.full((3, 2), 1e300), y=np.zeros(3), z=np.zeros(3), c_l=np.ones(3),
                        learner_set=ActionSet.l2_ball(1e300),
                        adversary_set=ActionSet.l2_ball(1e300))
        prior = FinitePrior(atoms=np.ones((2, 3)), probs=np.array([0.5, 0.5]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match="non-finite quotient"):
                assumption_probe(spec, prior, trials=5, seed=0)

    def test_requires_two_trials(self):
        spec, prior = monotone_ball_game()
        with pytest.raises(ValueError, match="trials"):
            assumption_probe(spec, prior, trials=1, seed=0)

    def test_checks_the_prior_dimension(self):
        # as every solver does, before any array is filled
        spec, _ = monotone_ball_game()
        prior = FinitePrior(np.full((2, 7), 0.5), np.array([0.5, 0.5]))
        with pytest.raises(FieldError, match="^atoms have dimension 7, expected 10$"):
            assumption_probe(spec, prior, 4, 0)


class TestFixedPointInvariant:
    def test_solvers_hold_still_at_equilibrium(self):
        # residual is exactly zero at the zero game's origin; one iteration
        # of either solver must not move it (1e-12 tolerance)
        spec, prior = zero_game()
        for solver, gamma in ((prg_ie, 1e-3), (pg_rbc, 0.5)):
            config = SolverConfig(max_iters=1, gamma=gamma, seed=1,
                                  lipschitz=2.0, strong_monotonicity=2.0)
            trace = solver(spec, prior, config)
            assert np.linalg.norm(trace.final_profile.w) <= 1e-12
            assert np.linalg.norm(trace.final_profile.sigma) <= 1e-12


class TestTraceSerialization:
    def test_csv(self, tmp_path):
        spec, prior = monotone_ball_game()
        ref = extragradient_reference(spec, prior, tol=1e-8)
        config = SolverConfig(max_iters=200, gamma=2e-3, trace_every=50, lipschitz=2.3)
        trace = prg_ie(spec, prior, config, reference=ref)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,residual,error_to_reference,wall_time_s"
        assert len(lines) == len(trace.iterations) + 1

    def test_tol_stopping_marks_converged(self):
        spec, prior = zero_game()
        config = SolverConfig(max_iters=50, gamma=1e-3, tol=1e-9, trace_every=10, lipschitz=2.0)
        trace = prg_ie(spec, prior, config)
        assert trace.converged
        assert trace.iterations[-1].residual <= 1e-9


# --------------------------------------------------------------------------
# The solver loops run unchecked kernels; these reference loops are the
# per-call loop bodies they replaced, built on the gradients and the
# projection as first written, so that they share no kernel with the loops.
# --------------------------------------------------------------------------


def reference_grad_learner_w(w, Xbar, margins, spec):
    """The learner's gradient kernel as first written: one matmul, whatever the stack."""
    coef = spec.c_l * _loss_slope(spec.learner_loss, margins, spec.y)
    return (coef[..., None, :] @ Xbar)[..., 0, :] + 2.0 * spec.reg_l * w


def reference_grad_adversary_X(w, Xbar, margins, c_d, spec):
    """The generator's gradient kernel as first written: a broadcast rank-one term."""
    coef = c_d * _loss_slope(spec.adversary_loss, margins, spec.z)
    return coef[..., None] * w + 2.0 * (Xbar - spec.X)


def reference_map(w, sigma, prior, spec):
    """The operator from the first-form gradients: the probability-weighted learner
    gradient and the generator's block for each atom."""
    margins = sigma @ w
    learner = reference_grad_learner_w(w, sigma, margins, spec)
    return prior.probs @ learner, reference_grad_adversary_X(w, sigma, margins, prior.atoms, spec)


def reference_project(point, action_set):
    """Projection onto the set from ``np.linalg.norm``, which is ``sqrt(x.x)``; a point
    outside the ball is multiplied once by ``radius / norm``, as the kernel rounds."""
    point = np.array(point, dtype=float)
    norm = np.linalg.norm(point)
    if action_set.bounded and not norm <= action_set.radius:
        point = point * (action_set.radius / norm)
    return point


def reference_residual(w, sigma, prior, spec):
    """Natural-map residual (probe step 1), one reference projection per block."""
    t_w, t_sig = reference_map(w, sigma, prior, spec)
    total = float(np.sum((w - reference_project(w - t_w, spec.learner_set)) ** 2))
    for k in range(prior.num_atoms):
        step = reference_project(sigma[k] - t_sig[k], spec.adversary_set)
        total += float(np.sum((sigma[k] - step) ** 2))
    return total


def reference_error(w, sigma, prior, reference):
    """The probability-weighted squared distance to ``reference``, one block at a time;
    None without a reference."""
    if reference is None:
        return None
    dw = w - reference.w
    blocks = [float(np.sum((sigma[k] - reference.sigma[k]) ** 2)) for k in range(prior.num_atoms)]
    return float(dw @ dw + prior.probs @ np.array(blocks))


def is_trace_point(done, config):
    return done == 1 or done % config.trace_every == 0 or done == config.max_iters


def reference_pg_rbc(spec, prior, config, reference=None):
    """pg_rbc with the first-form gradients at each step; the final profile, and the
    residual and error to ``reference`` at each trace point."""
    K = prior.num_atoms
    rng = np.random.default_rng(config.seed)
    indices = rng.choice(K, size=config.max_iters, p=prior.probs)
    w, sigma = np.zeros(spec.m), np.zeros((K, spec.n, spec.m))
    residuals, errors = [], []
    for t in range(config.max_iters):
        gamma_t = config.gamma if t == 0 else config.gamma / t
        j = indices[t]
        margins = sigma[j] @ w
        t_w = reference_grad_learner_w(w, sigma[j], margins, spec)
        t_sig = reference_grad_adversary_X(w, sigma[j], margins, prior.atoms[j], spec)
        w = reference_project(w - gamma_t * t_w, spec.learner_set)
        sigma[j] = reference_project(sigma[j] - gamma_t * t_sig, spec.adversary_set)
        if is_trace_point(t + 1, config):
            residuals.append(reference_residual(w, sigma, prior, spec))
            errors.append(reference_error(w, sigma, prior, reference))
    return w, sigma, residuals, errors


def reference_prg_ie(spec, prior, config, reference=None):
    """prg_ie with the operator from ``reference_map`` at each step; returns as
    ``reference_pg_rbc`` does."""
    K, gamma = prior.num_atoms, config.gamma
    w_cur = w_til_prev = w_til = np.zeros(spec.m)
    sig_cur = sig_til_prev = sig_til = np.zeros((K, spec.n, spec.m))
    residuals, errors = [], []
    for t in range(1, config.max_iters + 1):
        delta = 1.0 / t
        w_ref = 2.0 * w_til - w_til_prev
        sig_ref = 2.0 * sig_til - sig_til_prev
        learner, adv = reference_map(w_ref, sig_ref, prior, spec)
        w_til_next = reference_project(w_cur - gamma * learner, spec.learner_set)
        sig_til_next = np.empty_like(sig_cur)
        for k in range(K):
            sig_til_next[k] = reference_project(sig_cur[k] - gamma * adv[k], spec.adversary_set)
        w_next = (delta / 2.0) * w_cur + (1.0 - delta) * w_til_next
        sig_next = (delta / 2.0) * sig_cur + (1.0 - delta) * sig_til_next
        w_til_prev, sig_til_prev = w_til, sig_til
        w_til, sig_til = w_til_next, sig_til_next
        w_cur, sig_cur = w_next, sig_next
        if is_trace_point(t, config):
            residuals.append(reference_residual(w_cur, sig_cur, prior, spec))
            errors.append(reference_error(w_cur, sig_cur, prior, reference))
    return w_cur, sig_cur, residuals, errors


def reference_extragradient(spec, prior, gamma, tol):
    """Backtracking extragradient from the origin, first trial step ``gamma``, with a
    fresh operator evaluation for every residual; returns the profile, the
    iterations and the halvings of the step."""
    w, sigma = np.zeros(spec.m), np.zeros((prior.num_atoms, spec.n, spec.m))

    def operator(at_w, at_sigma):
        return reference_map(at_w, at_sigma, prior, spec)

    def step(size, t_w, t_sig):  # from the current iterate
        return reference_project(w - size * t_w, spec.learner_set), np.stack(
            [reference_project(s - size * t, spec.adversary_set) for s, t in zip(sigma, t_sig)]
        )

    def distance(a_w, a_sig, b_w, b_sig):  # Euclidean over (w, sigma), added block by block
        total = float(np.sum((a_w - b_w) ** 2))
        for a, b in zip(a_sig, b_sig):
            total += float(np.sum((a - b) ** 2))
        return math.sqrt(total)

    iters = halvings = 0
    while iters == 0 or reference_residual(w, sigma, prior, spec) > tol:
        t_w, t_sig = operator(w, sigma)
        while True:
            w_half, sig_half = step(gamma, t_w, t_sig)
            h_w, h_sig = operator(w_half, sig_half)
            moved = distance(w, sigma, w_half, sig_half)
            if gamma * distance(t_w, t_sig, h_w, h_sig) <= 0.9 * moved:
                break
            gamma /= 2.0
            halvings += 1
        w, sigma = step(gamma, h_w, h_sig)
        if moved > 0:
            gamma *= 1.5
        iters += 1
    return w, sigma, iters, halvings


def with_balls(spec, learner_radius, adversary_radius):
    return dataclasses.replace(
        spec,
        learner_set=ActionSet.l2_ball(learner_radius),
        adversary_set=ActionSet.l2_ball(adversary_radius),
    )


def equivalence_games():
    # every branch of the slope kernel: both losses quadratic, both logistic,
    # and each mixed pair; and one game of the desk's shape
    fixture = monotone_ball_game()
    ball, free, single = single_atom_game()
    logistic = random_logistic_game(np.random.default_rng(5), 8, 4)
    logistic_prior = random_finite_prior(np.random.default_rng(6), 8, 3)
    mixed = random_logistic_game(np.random.default_rng(12), 8, 4, adversary_logistic=False)
    mixed_prior = random_finite_prior(np.random.default_rng(13), 8, 3)
    return {
        "fixture": fixture,
        "fixture-tight-balls": (with_balls(fixture[0], 0.05, 0.1), fixture[1]),
        "k1-ball": (ball, single),
        "k1-free": (free, single),
        "logistic-ball": (with_balls(logistic, 1.0, 2.0), logistic_prior),
        "logistic-free": (logistic, logistic_prior),
        "logistic-learner": (with_balls(mixed, 1.0, 2.0), mixed_prior),
        "logistic-generator": (dataclasses.replace(
            with_balls(mixed, 1.0, 2.0), learner_loss=LossKind.QUADRATIC,
            adversary_loss=LossKind.LOGISTIC), mixed_prior),
        "desk": desk_shaped_game(K=3),
    }


GAMES = equivalence_games()

PRG_IE_GAMES = sorted(name for name, (spec, _) in GAMES.items() if spec.learner_set.bounded)

# These games fit in one chunk of atoms; the loops' passes over sigma are
# also run in chunks of 1, 2 and K - 1 atoms (an uneven last chunk).
CHUNKINGS = ["1", "2", "K-1"]


def set_chunking(monkeypatch, spec, prior, chunking):
    atoms = {"1": 1, "2": 2, "K-1": max(1, prior.num_atoms - 1)}[chunking]
    monkeypatch.setattr(game, "_CHUNK_BYTES", atoms * spec.n * spec.m * 8)
    chunks = _OperatorState.build(spec, prior.atoms, prior.probs).chunks
    assert len(chunks) == math.ceil(prior.num_atoms / atoms)


class TestUncheckedLoopsMatchReference:
    """The loops are bit-identical to the per-call reference loops."""

    @staticmethod
    def assert_same(trace, reference):
        w, sigma, residuals, errors = reference
        assert np.array_equal(trace.final_profile.w, w)
        assert np.array_equal(trace.final_profile.sigma, sigma)
        assert [rec.residual for rec in trace.iterations] == residuals
        assert [rec.error_to_reference for rec in trace.iterations] == errors

    @staticmethod
    def reference_profile(name):
        spec, prior = GAMES[name]
        return random_profile(np.random.default_rng(9), spec, prior.num_atoms)

    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_pg_rbc(self, name, reference=None):
        spec, prior = GAMES[name]
        config = SolverConfig(max_iters=400, gamma=0.5, seed=4, trace_every=50,
                              strong_monotonicity=2.0)
        self.assert_same(pg_rbc(spec, prior, config, reference),
                         reference_pg_rbc(spec, prior, config, reference))

    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_pg_rbc_error_column(self, name):
        self.test_pg_rbc(name, self.reference_profile(name))

    @pytest.mark.parametrize("name", PRG_IE_GAMES)
    def test_prg_ie(self, name, reference=None):
        spec, prior = GAMES[name]
        config = SolverConfig(max_iters=300, gamma=4e-3, trace_every=50, lipschitz=2.0)
        self.assert_same(prg_ie(spec, prior, config, reference),
                         reference_prg_ie(spec, prior, config, reference))

    @pytest.mark.parametrize("name", PRG_IE_GAMES)
    def test_prg_ie_error_column(self, name):
        self.test_prg_ie(name, self.reference_profile(name))

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize("name", PRG_IE_GAMES)
    def test_prg_ie_in_chunks(self, monkeypatch, name, chunking):
        set_chunking(monkeypatch, *GAMES[name], chunking)
        self.test_prg_ie(name)

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize("name", PRG_IE_GAMES)
    def test_prg_ie_error_column_in_chunks(self, monkeypatch, name, chunking):
        set_chunking(monkeypatch, *GAMES[name], chunking)
        self.test_prg_ie_error_column(name)

    def test_equilibrium_residual(self):
        for spec, prior in GAMES.values():
            profile = random_profile(np.random.default_rng(8), spec, prior.num_atoms, scale=3.0)
            assert equilibrium_residual(profile, prior, spec) == reference_residual(
                profile.w, profile.sigma, prior, spec
            )

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_equilibrium_residual_in_chunks(self, monkeypatch, name, chunking):
        spec, prior = GAMES[name]
        set_chunking(monkeypatch, spec, prior, chunking)
        profile = random_profile(np.random.default_rng(8), spec, prior.num_atoms, scale=3.0)
        assert equilibrium_residual(profile, prior, spec) == reference_residual(
            profile.w, profile.sigma, prior, spec
        )

    @pytest.mark.parametrize("chunking", [None] + CHUNKINGS)
    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_extragradient(self, monkeypatch, name, chunking):
        spec, prior = GAMES[name]
        if chunking:
            set_chunking(monkeypatch, spec, prior, chunking)
        w, sigma, iters, _ = reference_extragradient(spec, prior, 1.0, 1e-8)
        profile = extragradient_reference(spec, prior, tol=1e-8, max_iters=iters)
        assert np.array_equal(profile.w, w) and np.array_equal(profile.sigma, sigma)


class TestTraceSchedule:
    """Every solver traces at t = 1, every trace_every and the last iteration, and stops on tol."""

    SOLVERS = {
        "extragradient": (extragradient, dict(gamma=1.0)),
        "pg_rbc": (pg_rbc, dict(gamma=0.5, seed=4, strong_monotonicity=2.0)),
        "prg_ie": (prg_ie, dict(gamma=4e-3, lipschitz=2.0)),
    }

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_trace_points(self, name):
        run, kwargs = self.SOLVERS[name]
        spec, prior = monotone_ball_game()
        trace = run(spec, prior, SolverConfig(max_iters=237, trace_every=50, **kwargs))
        assert [rec.t for rec in trace.iterations] == [1, 50, 100, 150, 200, 237]
        assert not trace.converged

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_tol_stops_at_first_trace_point_within_tol(self, name):
        run, kwargs = self.SOLVERS[name]
        spec, prior = monotone_ball_game()
        full = run(spec, prior, SolverConfig(max_iters=400, trace_every=20, **kwargs))
        residuals = [rec.residual for rec in full.iterations]
        tol = residuals[len(residuals) // 2]
        stop = next(i for i, residual in enumerate(residuals) if residual <= tol)
        t_stop = full.iterations[stop].t
        trace = run(spec, prior, SolverConfig(max_iters=400, trace_every=20, tol=tol, **kwargs))
        assert trace.converged and not full.converged
        head = full.iterations[: stop + 1]
        assert [(r.t, r.residual) for r in trace.iterations] == [(r.t, r.residual) for r in head]
        shorter = run(spec, prior, SolverConfig(max_iters=t_stop, trace_every=20, **kwargs))
        assert np.array_equal(trace.final_profile.w, shorter.final_profile.w)
        assert np.array_equal(trace.final_profile.sigma, shorter.final_profile.sigma)

    @pytest.mark.parametrize("with_reference", [False, True], ids=["alone", "reference"])
    @pytest.mark.parametrize("trace_every", [1, 7, 1000])
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_one_operator_state_per_solve(self, monkeypatch, name, trace_every, with_reference):
        # the trace points evaluate on the state the iterations run on
        run, kwargs = self.SOLVERS[name]
        spec, prior = monotone_ball_game()
        reference = random_profile(np.random.default_rng(3), spec, prior.num_atoms)
        build, builds = _OperatorState.build.__func__, []

        def counting_build(cls, *args, **kw):
            builds.append(args)
            return build(cls, *args, **kw)

        monkeypatch.setattr(_OperatorState, "build", classmethod(counting_build))
        config = SolverConfig(max_iters=40, trace_every=trace_every, **kwargs)
        trace = run(spec, prior, config, reference if with_reference else None)
        assert len(builds) == 1
        assert (trace.iterations[-1].error_to_reference is not None) == with_reference


def kernel_gradients(w, Xbar, c_d, spec):
    """``_gradients`` at one matrix ``Xbar`` (with ``c_d`` (n,)) or a stack (with one
    row of ``c_d`` per matrix), in one chunk, into NaN-filled buffers: the slopes,
    the learner's gradient and the generator's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game, "_CHUNK_BYTES", Xbar.nbytes)
        atoms = c_d.reshape(-1, spec.n)
        state = _OperatorState.build(spec, atoms, np.full(len(atoms), 1.0 / len(atoms)))
    lead = Xbar.shape[:-2]
    weights = state.chunk(slice(None)) if lead else state.weights[0]
    coef, scratch = state.buffers[len(Xbar) if lead else 0]  # the state's, for this shape
    coef.fill(np.nan)
    scratch.fill(np.nan)
    row = np.full(lead + (spec.m,), np.nan)
    out = np.full_like(Xbar, np.nan)
    _gradients(state, w, Xbar, weights, row, out)
    return coef, row, out


KERNEL_SHAPES = {"fixture": (10, 5, 4), "desk": (200, 57, 16)}  # n, m, K


@pytest.mark.parametrize("shape", sorted(KERNEL_SHAPES))
@given(seed=st.integers(0, 2**32 - 1), stack=st.sampled_from([None, 1, 2, "K"]),
       learner_logistic=st.booleans(), adversary_logistic=st.booleans())
@settings(max_examples=20, deadline=None)
def test_gradient_kernels_equal_their_first_form(shape, seed, stack, learner_logistic,
                                                 adversary_logistic):
    # on one block (stack None) and on stacks of 1, 2 and K blocks, into
    # caller's buffers filled with NaN; the slopes carry their weights, and a
    # quadratic player's factor 2 rides on its weight, which rounds the same
    n, m, K = KERNEL_SHAPES[shape]
    rng = np.random.default_rng(seed)
    signs = lambda: rng.choice([-1.0, 1.0], size=n)  # noqa: E731 - targets for either loss
    spec = GameSpec(
        X=rng.normal(size=(n, m)), y=signs(), z=signs(), c_l=rng.random(n),
        reg_l=float(rng.uniform(0.1, 2.0)),
        learner_loss=LossKind.LOGISTIC if learner_logistic else LossKind.QUADRATIC,
        adversary_loss=LossKind.LOGISTIC if adversary_logistic else LossKind.QUADRATIC,
    )
    lead = () if stack is None else (K if stack == "K" else stack,)
    Xbar = 3.0 * rng.normal(size=lead + (n, m))
    c_d = rng.random(lead + (n,)) * (rng.random(lead + (n,)) < 0.8)  # with zero weights
    w = rng.normal(size=m) * (rng.random(m) < 0.8)  # and zero entries: products of +-0.0
    margins = Xbar @ w
    coef, learner, adversary = kernel_gradients(w, Xbar, c_d, spec)
    assert np.array_equal(coef[0], spec.c_l * _loss_slope(spec.learner_loss, margins, spec.y))
    assert np.array_equal(coef[1], c_d * _loss_slope(spec.adversary_loss, margins, spec.z))
    assert np.array_equal(learner, reference_grad_learner_w(w, Xbar, margins, spec))
    assert np.array_equal(adversary, reference_grad_adversary_X(w, Xbar, margins, c_d, spec))
    if stack is None:  # the public gradients run the same kernel
        assert np.array_equal(grad_learner_w(w, Xbar, spec), learner)
        assert np.array_equal(grad_adversary_X(w, Xbar, c_d, spec), adversary)


def test_stacked_map_of_a_fortran_ordered_profile():
    # the generator kernel writes through a (rows, m) view of its output, which
    # must be C-ordered whatever the input's order; the products of the other
    # layout may round differently
    spec, prior = GAMES["fixture"]
    profile = random_profile(np.random.default_rng(9), spec, prior.num_atoms, scale=3.0)
    fortran = StrategyProfile(w=profile.w, sigma=np.asfortranarray(profile.sigma))
    for got, expected in zip(stacked_map(fortran, prior, spec), stacked_map(profile, prior, spec)):
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("name", sorted(GAMES))
def test_batched_kernels_equal_per_atom_gradients(name):
    spec, prior = GAMES[name]
    profile = random_profile(np.random.default_rng(9), spec, prior.num_atoms, scale=3.0)
    w, sigma = profile.w, profile.sigma
    learner = np.stack([grad_learner_w(w, s, spec) for s in sigma])
    adversary = np.stack([grad_adversary_X(w, s, a, spec) for s, a in zip(sigma, prior.atoms)])
    _, rows, blocks = kernel_gradients(w, sigma, prior.atoms, spec)
    assert np.array_equal(rows, learner)
    assert np.array_equal(blocks, adversary)
    t_w, t_sig = stacked_map(profile, prior, spec)
    assert np.array_equal(t_w, prior.probs @ learner)
    assert np.array_equal(t_sig, adversary)


class TestBoundaryValidation:
    """With no checks inside the loops, bad input is still rejected at entry."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda spec, prior: pg_rbc(spec, prior, SolverConfig(max_iters=5, gamma=0.5)),
            lambda spec, prior: prg_ie(spec, prior, SolverConfig(max_iters=5, gamma=1e-3)),
            lambda spec, prior: extragradient_reference(spec, prior, tol=1e-8),
        ],
        ids=["pg_rbc", "prg_ie", "extragradient_reference"],
    )
    def test_prior_of_wrong_dimension(self, run):
        spec, _ = monotone_ball_game()
        wrong_n = FinitePrior(atoms=np.full((2, spec.n + 1), 0.1), probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="atoms"):
            run(spec, wrong_n)

    @pytest.mark.parametrize("solver, gamma", [(pg_rbc, 0.5), (prg_ie, 1e-3), (extragradient, 1.0)],
                             ids=["pg_rbc", "prg_ie", "extragradient"])
    @pytest.mark.parametrize("w_shape, sigma_shape, message", [
        ((5,), (4, 1, 5), r"reference sigma has shape \(4, 1, 5\), expected \(4, 10, 5\)"),
        ((1,), (4, 10, 5), r"reference w has shape \(1,\), expected \(5,\)"),
    ], ids=["sigma", "w"])
    def test_reference_of_wrong_shape(self, solver, gamma, w_shape, sigma_shape, message):
        spec, prior = monotone_ball_game()
        reference = StrategyProfile(w=np.zeros(w_shape), sigma=np.zeros(sigma_shape))
        config = SolverConfig(max_iters=5, gamma=gamma, lipschitz=2.0, strong_monotonicity=2.0)
        with pytest.raises(ValueError, match=message):
            solver(spec, prior, config, reference=reference)

    @pytest.mark.parametrize("w_shape, sigma_shape, message", [
        ((1,), (2, 1, 3), r"reference sigma has shape \(2, 1, 3\), expected \(2, 4, 3\)"),
        ((1,), (2, 4, 3), r"reference w has shape \(1,\), expected \(3,\)"),
    ], ids=["sigma", "w"])
    def test_epsilon_distance_rejects_a_mismatched_reference(self, w_shape, sigma_shape, message):
        # these shapes broadcast: unchecked, the first returned 15.0
        prior = FinitePrior(atoms=np.zeros((2, 4)), probs=np.array([0.5, 0.5]))
        profile = StrategyProfile(w=np.ones(3), sigma=np.ones((2, 4, 3)))
        reference = StrategyProfile(w=np.zeros(w_shape), sigma=np.zeros(sigma_shape))
        with pytest.raises(ValueError, match=message):
            epsilon_distance(profile, reference, prior)
        with pytest.raises(ValueError, match=r"^atoms have dimension 5, expected 4$"):
            epsilon_distance(profile, profile, FinitePrior(np.zeros((2, 5)), np.array([0.5, 0.5])))

    def test_public_gradients_validate(self):
        spec, prior = monotone_ball_game()
        Xbar = spec.X.copy()
        with pytest.raises(ValueError, match="w"):
            grad_learner_w(np.zeros(spec.m + 1), Xbar, spec)
        with pytest.raises(ValueError, match="w"):
            grad_adversary_X(np.zeros(spec.m + 1), Xbar, prior.atoms[0], spec)
        negative = prior.atoms[0].copy()
        negative[0] = -0.1
        with pytest.raises(ValueError, match="c_d"):
            grad_adversary_X(np.zeros(spec.m), Xbar, negative, spec)


class TestDivergence:
    def test_pg_rbc_divergence_raises(self):
        spec = dataclasses.replace(
            monotone_ball_game()[0],
            learner_set=ActionSet.unconstrained(),
            adversary_set=ActionSet.unconstrained(),
        )
        prior = monotone_ball_game()[1]
        config = SolverConfig(max_iters=500, gamma=50.0, seed=3, trace_every=100,
                              strong_monotonicity=2.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SolverError, match=r"t=\d+.*last finite residual \d"):
                pg_rbc(spec, prior, config)
        # the overflow is reported once, as the divergence, not as numpy warnings
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("solver, gamma", [(pg_rbc, 0.5), (prg_ie, 1e-3)],
                             ids=["pg_rbc", "prg_ie"])
    def test_non_finite_first_trace_point(self, solver, gamma):
        spec, prior = monotone_ball_game()
        spec.y[0] = np.nan  # after construction, since GameSpec rejects a NaN y
        config = SolverConfig(max_iters=20, gamma=gamma, trace_every=5, lipschitz=2.0,
                              strong_monotonicity=2.0)
        with pytest.raises(SolverError, match="t=1: residual nan, last finite residual None"):
            solver(spec, prior, config)


# --------------------------------------------------------------------------
# The probe draws into reused buffers; this is the loop it replaced, on
# freshly allocated profiles and the public operator.
# --------------------------------------------------------------------------


def reference_probe(spec, prior, trials, seed):
    rng = np.random.default_rng(seed)
    probs = prior.probs

    def point(shape, action_set):
        p = rng.standard_normal(shape)
        if not action_set.bounded:
            return p
        norm = np.linalg.norm(p)
        return p * (action_set.radius * rng.random() ** (1.0 / p.size) / norm)

    def profile():
        w = point((spec.m,), spec.learner_set)
        sigma = np.stack([point((spec.n, spec.m), spec.adversary_set)
                          for _ in range(prior.num_atoms)])
        return StrategyProfile(w=w, sigma=sigma)

    lambda_hat, l_hat, g_hat = np.inf, 0.0, 0.0
    for _ in range(trials):
        a, b = profile(), profile()
        maps = []
        for prof in (a, b):
            t_w, t_sig = stacked_map(prof, prior, spec)
            learner = np.stack([grad_learner_w(prof.w, s, spec) for s in prof.sigma])
            g_hat = max(g_hat, float(np.max(np.linalg.norm(learner, axis=1))),
                        float(np.max(np.sqrt(np.sum(t_sig * t_sig, axis=(1, 2))))))
            maps.append((t_w, t_sig))
        dw, dsig = a.w - b.w, a.sigma - b.sigma
        den = float(dw @ dw + probs @ np.sum(dsig * dsig, axis=(1, 2)))
        if den < 1e-24:
            continue
        dtw, dtsig = maps[0][0] - maps[1][0], maps[0][1] - maps[1][1]
        num = float(dw @ dtw + probs @ np.sum(dsig * dtsig, axis=(1, 2)))
        tnorm = float(dtw @ dtw + probs @ np.sum(dtsig * dtsig, axis=(1, 2)))
        lambda_hat = min(lambda_hat, num / den)
        l_hat = max(l_hat, np.sqrt(tnorm / den))
    return lambda_hat, l_hat, g_hat


@pytest.mark.parametrize("name", sorted(GAMES) + ["desk-shaped"])
def test_probe_matches_reference(name):
    spec, prior = desk_shaped_game() if name == "desk-shaped" else GAMES[name]
    trials = 4 if name == "desk-shaped" else 20
    diag = assumption_probe(spec, prior, trials=trials, seed=3)
    assert (diag.lambda_hat, diag.L_hat, diag.G_hat) == reference_probe(spec, prior, trials, 3)


@pytest.mark.parametrize("chunking", CHUNKINGS)
@pytest.mark.parametrize("name", sorted(GAMES) + ["desk-shaped"])
def test_probe_in_chunks_matches_reference(monkeypatch, name, chunking):
    spec, prior = desk_shaped_game() if name == "desk-shaped" else GAMES[name]
    set_chunking(monkeypatch, spec, prior, chunking)
    test_probe_matches_reference(name)


class TestDeskWorkingSet:
    """At desk size the loops keep only the sigma stacks their algorithm needs.

    Every other pass over sigma runs on chunks of atoms; the 1 MiB slack
    covers the chunk buffers and small temporaries.  The tighter bounds count
    n x m blocks past the stacks: the chunk buffers a loop writes (a chunk is
    2 atoms here, and pg_rbc's kernel works on one block at a time), plus
    about one block for each operator state's per-atom weights and small
    temporaries, so a loop that held a chunk buffer it never writes fails.
    """

    spec, prior = desk_shaped_game()
    S = prior.num_atoms * spec.n * spec.m * 8 / 2**20  # one sigma stack, MiB
    block = S / prior.num_atoms

    def test_prg_ie_keeps_three_stacks(self):
        config = SolverConfig(max_iters=20, gamma=1e-4, trace_every=10, lipschitz=1.0)
        # the reflected chunk, the kernel's scratch and the trace point's map (2 + 2 + 2)
        assert peak_mib(prg_ie, self.spec, self.prior, config) <= 3 * self.S + 8 * self.block

    def test_residual_keeps_no_stack(self):
        profile = random_profile(np.random.default_rng(2), self.spec, self.prior.num_atoms)
        assert peak_mib(equilibrium_residual, profile, self.prior, self.spec) <= 1

    def test_probe_keeps_the_pair(self):
        # the kernel's scratch (2 blocks) and the pair's maps (2 x 2)
        peak = peak_mib(assumption_probe, self.spec, self.prior, 2, 0)
        assert peak <= 2 * self.S + 8 * self.block

    def test_stacked_map_keeps_one_stack(self):
        profile = random_profile(np.random.default_rng(2), self.spec, self.prior.num_atoms)
        # the kernel's scratch (2 blocks)
        assert peak_mib(stacked_map, profile, self.prior, self.spec) <= self.S + 4 * self.block

    def test_pg_rbc_keeps_one_stack(self):
        config = SolverConfig(max_iters=30, gamma=0.5, trace_every=10, strong_monotonicity=2.0)
        assert peak_mib(pg_rbc, self.spec, self.prior, config) <= self.S + 1

    def test_pg_rbc_with_a_reference_keeps_one_stack(self):
        reference = random_profile(np.random.default_rng(2), self.spec, self.prior.num_atoms)
        config = SolverConfig(max_iters=30, gamma=0.5, trace_every=10, strong_monotonicity=2.0)
        # the kernel's scratch and step, then the trace point's one-block map or the
        # error's two block temporaries (1 + 1 + 2)
        peak = peak_mib(pg_rbc, self.spec, self.prior, config, reference=reference)
        assert peak <= self.S + 5.5 * self.block

    def test_oracle_keeps_four_stacks_whatever_its_budget(self):
        def failing_oracle(max_iters):
            with pytest.raises(SolverError, match="did not reach"):
                extragradient_reference(self.spec, self.prior, tol=1e-10, max_iters=max_iters)

        short, longer = peak_mib(failing_oracle, 3), peak_mib(failing_oracle, 6)
        assert short <= 4 * self.S + 6 * self.block  # the kernel's scratch, the step test's buffer
        assert abs(longer - short) < self.block


# --------------------------------------------------------------------------
# The loops write into buffers they own and project in place.
# --------------------------------------------------------------------------


class TestNoAliasing:
    @pytest.mark.parametrize("scale", [0.1, 10.0], ids=["inside", "outside"])
    def test_project_returns_a_new_array(self, scale):
        ball = ActionSet.l2_ball(1.0)
        for a in (scale * np.ones(3), scale * np.ones((2, 3))):
            before = a.copy()
            out = project(a, ball)
            assert not np.shares_memory(out, a)
            assert np.array_equal(a, before)
            assert np.linalg.norm(out) <= 1.0 + 1e-12

    def test_solvers_leave_their_inputs_untouched(self):
        spec, prior = monotone_ball_game()
        reference = extragradient_reference(spec, prior, tol=1e-8)
        inputs = [spec.X, spec.y, spec.z, spec.c_l, prior.atoms, prior.probs,
                  reference.w, reference.sigma]
        before = [a.copy() for a in inputs]
        extragradient_reference(spec, prior, tol=1e-8)
        pg_rbc(spec, prior, SolverConfig(max_iters=200, gamma=0.5, trace_every=50,
                                         strong_monotonicity=2.0), reference=reference)
        prg_ie(spec, prior, SolverConfig(max_iters=200, gamma=2e-3, trace_every=50,
                                         lipschitz=2.0), reference=reference)
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("solver, gamma", [(extragradient, 1.0), (pg_rbc, 0.5), (prg_ie, 2e-3)],
                             ids=["extragradient", "pg_rbc", "prg_ie"])
    def test_second_call_keeps_the_first_profile(self, solver, gamma):
        spec, prior = monotone_ball_game()
        config = SolverConfig(max_iters=200, gamma=gamma, seed=1, trace_every=50,
                              lipschitz=2.3, strong_monotonicity=2.0)
        first = solver(spec, prior, config).final_profile
        kept = first.copy()
        second = solver(spec, prior, dataclasses.replace(config, seed=2, gamma=2 * gamma))
        assert not np.shares_memory(first.sigma, second.final_profile.sigma)
        assert np.array_equal(first.w, kept.w) and np.array_equal(first.sigma, kept.sigma)


@pytest.mark.parametrize("field, value", [
    ("gamma", float("nan")), ("gamma", float("inf")), ("tol", float("nan")),
    ("lipschitz", float("nan")), ("lipschitz", -3.0), ("strong_monotonicity", float("inf")),
    ("max_iters", 10.5), ("trace_every", 2.5), ("seed", True), ("gamma", "x"),
])
def test_solver_config_rejects_non_finite(field, value):
    kwargs = {"max_iters": 10, "gamma": 0.1, field: value}
    with pytest.raises(ValueError, match=field):
        SolverConfig(**kwargs)


def test_solver_config_rejects_a_negative_seed():
    assert SolverConfig(max_iters=10, gamma=0.1, seed=0).seed == 0
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SolverConfig(max_iters=10, gamma=0.1, seed=-1)


# --------------------------------------------------------------------------
# Properties of the VI solvers on random small ball games
# --------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from(["extragradient", "pg_rbc", "prg_ie"]),
    st.floats(1e-3, 2.0),
)
def test_vi_iterates_feasible_and_residuals_finite(seed, logistic, which, gamma):
    rng = np.random.default_rng(seed)
    n, m, K = (int(v) for v in rng.integers(1, 6, size=3))
    radii = rng.uniform(0.05, 3.0, size=2)
    if logistic:
        spec = with_balls(random_logistic_game(rng, n, m), *radii)
    else:
        spec = with_balls(random_quadratic_game(rng, n, m), *radii)
    prior = random_finite_prior(rng, n, K, scale=2.0)
    config = SolverConfig(max_iters=40, gamma=gamma, seed=seed % 1000, trace_every=7,
                          lipschitz=1.0, strong_monotonicity=1.0)
    points = []
    trace_point = solvers._trace_point

    def recording_trace_point(records, t, profile, *args):
        points.append(profile.copy())
        return trace_point(records, t, profile, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_trace_point", recording_trace_point)
        trace = getattr(solvers, which)(spec, prior, config)
    assert len(points) == len(trace.iterations) == 7  # t = 1, 7, ..., 35, 40
    assert all(p.is_feasible(spec) for p in points + [trace.final_profile])
    assert all(np.isfinite(rec.residual) for rec in trace.iterations)

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesgame import game, solvers
from bayesgame.game import (
    ActionSet,
    FinitePrior,
    GameSpec,
    GaussianPrior,
    LossKind,
    StrategyProfile,
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
    kernel_gradients,
    monotone_ball_game,
    random_finite_prior,
    random_logistic_game,
    random_profile,
    peak_mib,
    random_quadratic_game,
    reference_extragradient,
    reference_grad_adversary_X,
    reference_grad_learner_w,
    with_balls,
    zero_game,
)


class TestStackedMap:
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


class TestPrgIe:
    def test_zero_game_fixed_point(self):
        spec, prior = zero_game()
        config = SolverConfig(max_iters=25, gamma=1e-3, trace_every=5, lipschitz=2.0)
        trace = prg_ie(spec, prior, config)
        assert np.all(trace.final_profile.w == 0)
        assert np.all(trace.final_profile.sigma == 0)
        assert all(rec.residual == 0 for rec in trace.iterations)

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

    def test_tol_stops_a_run_whose_budget_would_not_fit_in_memory(self):
        spec, prior = monotone_ball_game()
        config = SolverConfig(max_iters=10**15, gamma=0.5, tol=1e3, strong_monotonicity=2.0)
        trace = pg_rbc(spec, prior, config)
        assert trace.converged and [rec.t for rec in trace.iterations] == [1]

    @pytest.mark.parametrize("K", [1, 3])
    def test_block_draws_equal_one_draw(self, K):
        probs = np.arange(1.0, K + 1) / (K * (K + 1) / 2)
        count = 2 * solvers._PG_RBC_DRAW_BLOCK + 5
        draws = list(solvers._atom_draws(np.random.default_rng(4), probs, count))
        assert draws == np.random.default_rng(4).choice(K, size=count, p=probs).tolist()


class TestExtragradient:
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
    spec, prior = monotone_ball_game()
    profile = random_profile(np.random.default_rng(9), spec, prior.num_atoms, scale=3.0)
    fortran = StrategyProfile(w=profile.w, sigma=np.asfortranarray(profile.sigma))
    for got, expected in zip(stacked_map(fortran, prior, spec), stacked_map(profile, prior, spec)):
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())


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

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Criterion 8 needs the real spambase CSV on disk (BAYESGAME_DATA or
./data/spambase.data); it is informational and never fails the build.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from bayesgame.experiments import desk_config, load_spambase, ridge_fit, run_benchmark
from bayesgame.game import (
    ActionSet,
    FinitePrior,
    GameSpec,
    GaussianPrior,
    LossKind,
    StrategyProfile,
    adversary_cost,
    grad_adversary_X,
    grad_learner_w,
    learner_cost,
    project,
    sample_prior,
)
from bayesgame.quadratic import (
    AdamConfig,
    bayes_adam,
    bayes_fp,
    best_response,
    stochastic_gradient,
    stochastic_objective,
)
from bayesgame.solvers import (
    SolverConfig,
    _extragradient_on_map,
    assumption_probe,
    epsilon_distance,
    equilibrium_residual,
    extragradient_reference,
    pg_rbc,
    prg_ie,
    stacked_map,
)
from conftest import (
    central_diff_matrix,
    central_diff_vector,
    coordinate_descent_adversary,
    fd_step,
    monotone_ball_game,
    random_logistic_game,
    random_quadratic_game,
    rel_err,
    single_atom_game,
)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    worst = {"learner": 0.0, "adversary": 0.0, "stochastic": 0.0}
    for loss in ("quadratic", "logistic"):
        rng = np.random.default_rng(101 if loss == "quadratic" else 202)
        for _ in range(100):
            n, m = int(rng.integers(1, 11)), int(rng.integers(1, 7))
            if loss == "quadratic":
                spec = random_quadratic_game(rng, n, m)
            else:
                spec = random_logistic_game(rng, n, m)
            w = rng.normal(size=m)
            Xbar = rng.normal(size=(n, m))
            c_d = rng.random(n)

            g = grad_learner_w(w, Xbar, spec)
            fd = central_diff_vector(lambda v: learner_cost(v, Xbar, spec), w, fd_step(w))
            worst["learner"] = max(worst["learner"], rel_err(g, fd))

            ga = grad_adversary_X(w, Xbar, c_d, spec)
            fda = central_diff_matrix(
                lambda M: adversary_cost(w, M, c_d, spec), Xbar, fd_step(Xbar)
            )
            worst["adversary"] = max(worst["adversary"], rel_err(ga, fda))

        # the reduction needs a quadratic generator; the learner loss varies
        rng = np.random.default_rng(303 if loss == "quadratic" else 404)
        for _ in range(100):
            n, m = int(rng.integers(1, 11)), int(rng.integers(1, 7))
            if loss == "quadratic":
                spec = random_quadratic_game(rng, n, m)
            else:
                spec = GameSpec(
                    X=rng.normal(size=(n, m)), y=rng.choice([-1.0, 1.0], size=n),
                    z=rng.normal(size=n), c_l=rng.random(n),
                    reg_l=float(rng.uniform(0.1, 2.0)), learner_loss=LossKind.LOGISTIC,
                )
            w = rng.normal(size=m)
            batch = rng.random((int(rng.integers(1, 5)), n))
            gs = stochastic_gradient(w, spec, batch)
            fds = central_diff_vector(
                lambda v: stochastic_objective(v, spec, batch), w, fd_step(w)
            )
            worst["stochastic"] = max(worst["stochastic"], rel_err(gs, fds))
    elapsed = time.perf_counter() - start
    ok = all(v <= 1e-5 for v in worst.values()) and elapsed < 10.0
    detail = (
        f"max rel err learner={worst['learner']:.2e} adversary={worst['adversary']:.2e} "
        f"stochastic={worst['stochastic']:.2e} ({elapsed:.1f}s)"
    )
    assert report("criterion 1 gradient suite", ok, detail)


def test_criterion_2_closed_form_best_response():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_stationarity = 0.0
    worst_gap = 0.0
    for _ in range(100):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        spec = random_quadratic_game(rng, n, m)
        w = rng.normal(size=m)
        c_d = rng.random(n)
        closed = best_response(w, spec.X, spec.z, c_d)
        worst_stationarity = max(
            worst_stationarity, float(np.linalg.norm(grad_adversary_X(w, closed, c_d, spec)))
        )
        numerical = coordinate_descent_adversary(w, spec.X, spec.z, c_d, tol=1e-10)
        worst_gap = max(worst_gap, float(np.max(np.abs(closed - numerical))))
    elapsed = time.perf_counter() - start
    ok = worst_stationarity <= 1e-8 and worst_gap <= 1e-6 and elapsed < 10.0
    assert report(
        "criterion 2 closed-form best response",
        ok,
        f"stationarity={worst_stationarity:.2e} minimizer gap={worst_gap:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_3_pg_rbc_rate():
    start = time.perf_counter()
    spec, prior = monotone_ball_game()
    diag = assumption_probe(spec, prior, trials=300, seed=3)
    assert diag.lambda_hat > 0, "fixture must be strongly monotone"
    reference = extragradient_reference(spec, prior, tol=1e-10)

    gamma0 = 1.0 / diag.lambda_hat
    mean_error = None
    ts = None
    for seed in range(20):
        config = SolverConfig(
            max_iters=100_000, gamma=gamma0, seed=seed, trace_every=500,
            strong_monotonicity=diag.lambda_hat,
        )
        trace = pg_rbc(spec, prior, config, reference=reference)
        errs = np.array([r.error_to_reference for r in trace.iterations if r.t >= 1000])
        if ts is None:
            ts = np.array([r.t for r in trace.iterations if r.t >= 1000])
        mean_error = errs if mean_error is None else mean_error + errs
    mean_error /= 20.0

    slope = float(np.polyfit(np.log10(ts), np.log10(mean_error), 1)[0])
    t_err = ts * mean_error
    ratio = float(t_err.max() / t_err[0])
    elapsed = time.perf_counter() - start
    ok = slope <= -0.8 and ratio <= 10.0 and elapsed < 120.0
    assert report(
        "criterion 3 pg-rbc O(1/t) rate",
        ok,
        f"slope={slope:.2f} (<= -0.8), t*err ratio={ratio:.2f} (<= 10), "
        f"lambda_hat={diag.lambda_hat:.3f} ({elapsed:.1f}s)",
    )


def test_criterion_4_prg_ie_strong_convergence(monkeypatch):
    start = time.perf_counter()
    spec, prior = monotone_ball_game()
    diag = assumption_probe(spec, prior, trials=300, seed=3)
    reference = extragradient_reference(spec, prior, tol=1e-10)

    gamma = 0.99 * min(1.0, 1.0 / (100.0 * diag.L_hat))
    config = SolverConfig(
        max_iters=100_000, gamma=gamma, trace_every=1000, lipschitz=diag.L_hat
    )
    trace = prg_ie(spec, prior, config, reference=reference)
    final_error = trace.iterations[-1].error_to_reference
    feasible = trace.final_profile.is_feasible(spec, tol=1e-9)

    # observe every single iterate of a shorter run through the trace hook
    import bayesgame.solvers as solvers_module

    original = solvers_module._trace_point
    seen = {"all_feasible": True, "count": 0}

    def checking(records, t, profile, state, ref_, start_):
        seen["all_feasible"] &= profile.is_feasible(spec, tol=1e-9)
        seen["count"] += 1
        return original(records, t, profile, state, ref_, start_)

    monkeypatch.setattr(solvers_module, "_trace_point", checking)
    prg_ie(spec, prior, SolverConfig(max_iters=2000, gamma=gamma, trace_every=1,
                                     lipschitz=diag.L_hat))
    feasible = feasible and seen["all_feasible"] and seen["count"] == 2000

    elapsed = time.perf_counter() - start
    ok = final_error <= 1e-4 and feasible and elapsed < 120.0
    assert report(
        "criterion 4 prg-ie strong convergence",
        ok,
        f"error={final_error:.2e} (<= 1e-4), every iterate feasible={feasible}, "
        f"gamma={gamma:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_5_degenerate_prior_consistency():
    start = time.perf_counter()
    ball_spec, free_spec, prior = single_atom_game()
    diag = assumption_probe(ball_spec, prior, trials=200, seed=1)
    reference = extragradient_reference(ball_spec, prior, tol=1e-12)

    rbc = pg_rbc(
        ball_spec, prior,
        SolverConfig(max_iters=150_000, gamma=1.0 / diag.lambda_hat, seed=0,
                     trace_every=10_000, strong_monotonicity=diag.lambda_hat),
    ).final_profile
    prg = prg_ie(
        ball_spec, prior,
        SolverConfig(max_iters=200_000, gamma=0.99 * min(1.0, 1.0 / (100.0 * diag.L_hat)),
                     trace_every=10_000, lipschitz=diag.L_hat),
    ).final_profile
    w_fp = bayes_fp(free_spec, prior.atoms, iterations=60)

    profiles = {"extragradient": reference, "pg-rbc": rbc, "prg-ie": prg}
    worst = 0.0
    names = list(profiles)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            worst = max(worst, epsilon_distance(profiles[a], profiles[b], prior))
    for name in names:
        worst = max(worst, float(np.sum((w_fp - profiles[name].w) ** 2)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    assert report(
        "criterion 5 degenerate-prior consistency",
        ok,
        f"worst pairwise distance={worst:.2e} (<= 1e-6) ({elapsed:.1f}s)",
    )


def test_criterion_6_bayes_adam_matches_ridge():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    n, m = 15, 3
    X = rng.normal(size=(n, m))
    y = 0.5 * rng.normal(size=n)
    spec = GameSpec(X=X, y=y, z=np.zeros(n), c_l=np.ones(n), reg_l=1.0)
    prior = FinitePrior(atoms=np.zeros((1, n)), probs=np.array([1.0]))

    w_ridge = ridge_fit(X, y, 1.0)
    ridge_objective = learner_cost(w_ridge, X, spec)
    config = AdamConfig(learning_rate=1e-4, batch_size=1, epochs=30_000,
                        total_samples=1, seed=0)
    _, trace = bayes_adam(spec, prior, config)
    gap = abs(trace[-1] - ridge_objective)
    elapsed = time.perf_counter() - start
    ok = gap <= 1e-6 and elapsed < 30.0
    assert report(
        "criterion 6 bayes-adam vs ridge",
        ok,
        f"objective gap={gap:.2e} (<= 1e-6) ({elapsed:.1f}s)",
    )


def test_criterion_7_invariant_suites():
    start = time.perf_counter()
    ok_parts = {}
    rng = np.random.default_rng(777)

    # projection idempotence and nonexpansiveness on random pairs
    good = True
    for _ in range(200):
        radius = float(rng.uniform(0.1, 5.0))
        s = ActionSet.l2_ball(radius)
        u = rng.normal(size=6) * rng.uniform(0.1, 10)
        v = rng.normal(size=6) * rng.uniform(0.1, 10)
        pu, pv = project(u, s), project(v, s)
        good &= bool(np.allclose(project(pu, s), pu))
        good &= np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12
    ok_parts["projection"] = good

    # prior determinism
    prior = GaussianPrior(mean=1.0, std=2.0)
    ok_parts["prior determinism"] = np.array_equal(
        sample_prior(prior, 5, 64, seed=3), sample_prior(prior, 5, 64, seed=3)
    )

    # pg-rbc one-step unbiasedness over 1e5 sampled block indices
    spec = random_quadratic_game(rng, 6, 4)
    K = 3
    atoms = 0.5 * rng.random((K, 6))
    probs = np.array([0.25, 0.35, 0.4])
    fprior = FinitePrior(atoms=atoms, probs=probs)
    profile = StrategyProfile(
        w=rng.normal(size=4), sigma=rng.normal(size=(K, 6, 4))
    )
    learner_dirs = np.stack([grad_learner_w(profile.w, s, spec) for s in profile.sigma])
    adv_dirs = np.stack(
        [grad_adversary_X(profile.w, s, a, spec) for s, a in zip(profile.sigma, atoms)]
    )
    draws = 100_000
    counts = rng.multinomial(draws, probs)
    freq = counts / draws

    expected_w = probs @ learner_dirs
    sampled_w = freq @ learner_dirs
    var_w = np.sum(probs[:, None] * (learner_dirs - expected_w) ** 2, axis=0)
    se_w = np.sqrt(var_w / draws)
    good = bool(np.all(np.abs(sampled_w - expected_w) <= 3 * se_w + 1e-12))
    # block k moves only when sampled: expectation is p_k times its gradient
    for k in range(K):
        diff = abs(freq[k] - probs[k]) * np.abs(adv_dirs[k])
        se = np.sqrt(probs[k] * (1 - probs[k]) / draws) * np.abs(adv_dirs[k])
        good &= bool(np.all(diff <= 3 * se + 1e-12))
    stacked_learner, stacked_adv = stacked_map(profile, fprior, spec)
    good &= bool(np.allclose(expected_w, stacked_learner))
    good &= bool(np.allclose(probs[:, None, None] * adv_dirs, probs[:, None, None] * stacked_adv))
    ok_parts["pg-rbc unbiasedness"] = good

    # block scaling leaves the solution set unchanged (cross residuals)
    bspec, bprior = monotone_ball_game(n=5, m=3, K=3, seed=21)

    def plain_map(w, sigma, out):
        t_w, out[...] = stacked_map(StrategyProfile(w=w, sigma=sigma), bprior, bspec)
        return t_w

    def scaled_map(w, sigma, out):
        learner = plain_map(w, sigma, out)
        out *= bprior.probs[:, None, None]
        return learner

    def residual_under(map_fn, profile):
        t_sig = np.empty_like(profile.sigma)
        t_w = map_fn(profile.w, profile.sigma, t_sig)
        total = float(
            np.sum((profile.w - project(profile.w - t_w, bspec.learner_set)) ** 2)
        )
        for k in range(bprior.num_atoms):
            step = project(profile.sigma[k] - t_sig[k], bspec.adversary_set)
            total += float(np.sum((profile.sigma[k] - step) ** 2))
        return total

    from bayesgame.game import origin_profile

    x0 = origin_profile(bspec, bprior.num_atoms)
    sol_plain, _ = _extragradient_on_map(plain_map, x0, bspec, 0.2, 1e-16, 200_000)
    sol_scaled, _ = _extragradient_on_map(scaled_map, x0, bspec, 0.2, 1e-16, 200_000)
    cross = max(residual_under(scaled_map, sol_plain), residual_under(plain_map, sol_scaled))
    ok_parts["block scaling"] = cross <= 1e-6

    # epsilon-distance hand values
    p2 = FinitePrior(atoms=np.zeros((2, 3)), probs=np.array([0.5, 0.5]))
    sig = np.zeros((2, 3, 2))
    sig_off = sig.copy()
    sig_off[0, 0, 0] = 2.0
    a = StrategyProfile(w=np.zeros(2), sigma=sig)
    b = StrategyProfile(w=np.zeros(2), sigma=sig_off)
    c = StrategyProfile(w=np.array([1.0, 0.0]), sigma=sig)
    ok_parts["epsilon distance"] = (
        epsilon_distance(a, a, p2) == 0.0
        and math.isclose(epsilon_distance(a, c, p2), 1.0)
        and math.isclose(epsilon_distance(a, b, p2), 2.0)
    )

    elapsed = time.perf_counter() - start
    ok = all(ok_parts.values()) and elapsed < 60.0
    failed = [k for k, v in ok_parts.items() if not v]
    assert report(
        "criterion 7 invariant suites",
        ok,
        f"failed={failed or 'none'} ({elapsed:.1f}s)",
    )


def _find_spambase():
    candidates = []
    if os.environ.get("BAYESGAME_DATA"):
        candidates.append(Path(os.environ["BAYESGAME_DATA"]) / "spambase.data")
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "spambase.data", Path("data/spambase.data")]
    for path in candidates:
        if path.exists():
            return path
    return None


def test_criterion_8_desk_scale_ordering():
    """Soft/informational: reports the qualitative ordering, never fails."""
    path = _find_spambase()
    if path is None:
        pytest.skip(
            "spambase.data not found (set BAYESGAME_DATA or place it under ./data); "
            "criterion 8 is informational and needs the real dataset"
        )
    start = time.perf_counter()
    data = load_spambase(path)
    config = desk_config([GaussianPrior(mean=1.0, std=4.0)], seed=0,
                         methods=("bayes-adam", "ridge"))
    result = run_benchmark(config, data)
    by_rep = {}
    for row in result.rows:
        by_rep.setdefault(row.repetition, {})[row.method] = row.rmse
    wins = sum(
        1 for rep in by_rep.values()
        if not math.isnan(rep["bayes-adam"]) and rep["bayes-adam"] <= rep["ridge"]
    )
    elapsed = time.perf_counter() - start
    ok = wins >= 2 and elapsed < 600.0
    report(
        "criterion 8 desk-scale ordering (soft)",
        ok,
        f"bayes-adam beat ridge in {wins}/3 repetitions ({elapsed:.0f}s); "
        "informational only",
    )
    # reported, not build-failing: stochastic variability is expected

"""The reference contract: each unchecked loop and kernel reproduces its first form.

The solvers, the probe and Adam run unchecked kernels over chunks of atoms.  A
faster kernel lands only if it reproduces the form it replaced.  A row names:

* a game: the arguments of the row's two calls, a game and its prior first
  where the row is chunked;
* a chunking: the ``default`` plan, or chunks of ``1``, ``2`` or ``K-1`` atoms
  through ``set_chunking``;
* the package call, and the reference form it must reproduce: the first forms
  in ``tests/conftest.py`` and the per-call loops below;
* a comparison: ``"bits"``, arrays by ``np.array_equal`` and floats and trace
  records by ``==``, or a relative bound on the norm of the difference.

Every row but ``adam-drift`` is bitwise.  The games are ``equivalence_games()``
and, for the probe, a desk-shaped game of 16 atoms.  The reference runs on the
default plan, before the row's chunking is set, so the chunked rows of a game
share one reference.  A new kernel lands with its rows here.
"""

import dataclasses
import functools

import numpy as np
import pytest

from bayesgame import quadratic
from bayesgame.game import (GaussianPrior, LossKind, StrategyProfile, _loss, grad_adversary_X,
                            grad_learner_w, project)
from bayesgame.quadratic import (AdamConfig, _perturbed_predictions, bayes_adam,
                                 stochastic_gradient, stochastic_objective)
from bayesgame.solvers import (SolverConfig, assumption_probe, equilibrium_residual,
                               extragradient_reference, pg_rbc, prg_ie, stacked_map)
from conftest import (desk_shaped_game, equivalence_games, kernel_gradients, random_profile,
                      reference_extragradient, reference_gradient, reference_gradient_terms,
                      reference_grad_adversary_X, reference_grad_learner_w, reference_map,
                      reference_project, reference_residual, set_chunking, small_reduction_game)


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


def reference_probe(spec, prior, trials, seed):
    """The probe's loop on freshly allocated profiles and the public operator."""
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

    lambda_hat, l_hat = np.inf, 0.0
    for _ in range(trials):
        a, b = profile(), profile()
        maps = [stacked_map(prof, prior, spec) for prof in (a, b)]
        dw, dsig = a.w - b.w, a.sigma - b.sigma
        den = float(dw @ dw + probs @ np.sum(dsig * dsig, axis=(1, 2)))
        if den < 1e-24:
            continue
        dtw, dtsig = maps[0][0] - maps[1][0], maps[0][1] - maps[1][1]
        num = float(dw @ dtw + probs @ np.sum(dsig * dtsig, axis=(1, 2)))
        tnorm = float(dtw @ dtw + probs @ np.sum(dtsig * dtsig, axis=(1, 2)))
        lambda_hat = min(lambda_hat, num / den)
        l_hat = max(l_hat, np.sqrt(tnorm / den))
    return lambda_hat, l_hat


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


# --------------------------------------------------------------------------
# The rows' inputs, and the two sides of the rows that read more than one output
# --------------------------------------------------------------------------


def trace_outputs(trace):
    return (trace.final_profile.w, trace.final_profile.sigma,
            [rec.residual for rec in trace.iterations],
            [rec.error_to_reference for rec in trace.iterations])


def oracle(spec, prior):
    # every game's reference stops within 519 iterations; a slower oracle fails fast
    profile = extragradient_reference(spec, prior, tol=1e-8, max_iters=1000)
    return profile.w, profile.sigma


def scaled_profile(seed, spec, prior):
    return random_profile(np.random.default_rng(seed), spec, prior.num_atoms, scale=3.0)


def batched_kernels(spec, prior, at):
    """The stacked kernel's rows and blocks, and the operator, at the profile ``at``."""
    _, rows, blocks = kernel_gradients(at.w, at.sigma, prior.atoms, spec)
    return (rows, blocks, *stacked_map(at, prior, spec))


def per_atom_gradients(spec, prior, at):
    """The same from the public gradients, one atom at a time."""
    learner = np.stack([grad_learner_w(at.w, s, spec) for s in at.sigma])
    adversary = np.stack([grad_adversary_X(at.w, s, a, spec)
                          for s, a in zip(at.sigma, prior.atoms)])
    return learner, adversary, prior.probs @ learner, adversary


def probe(spec, prior, trials):
    diag = assumption_probe(spec, prior, trials=trials, seed=3)
    return diag.lambda_hat, diag.L_hat


def adam(spec, prior, config):
    """The weights and trace, then the weights and empty trace without the objective."""
    return (*bayes_adam(spec, prior, config), *bayes_adam(spec, prior, config,
                                                         record_objective=False))


def adam_reference(spec, prior, config, gradient):
    w, trace = reference_adam(spec, prior, config, gradient)
    return w, trace, w, []


def desk_adam_game(loss):
    """The desk-shaped game, whose BLAS kernels differ from a small game's, with
    +-1 labels for the logistic loss."""
    spec, _ = desk_shaped_game()
    if loss is LossKind.LOGISTIC:
        spec = dataclasses.replace(spec, y=2.0 * spec.y - 1.0, learner_loss=loss)
    return spec, GaussianPrior(mean=1.0, std=4.0)


def objective_inputs(S, loss):
    """A weight vector, a desk-sized game and S clamped Gaussian samples, from seed S."""
    rng = np.random.default_rng(S)
    spec = small_reduction_game(rng, 200, 57, loss)
    samples = np.maximum(rng.normal(1.0, 4.0, size=(S, spec.n)), 0.0)
    return 0.3 * rng.normal(size=spec.m), spec, samples


def whole_matrix_objective(S, loss):
    """The objective in one gemv over every sample row, as before the row blocks."""
    w, spec, samples = objective_inputs(S, loss)
    preds = _perturbed_predictions(w, spec.X, spec.z, samples, w)
    return float(np.mean(_loss(spec.learner_loss, preds, spec.y) @ spec.c_l)
                 + spec.reg_l * (w @ w))


def per_element_gradient(w, spec, batch):
    return sum(reference_gradient_terms(w, spec, batch))


GAMES = equivalence_games()
PROBE_GAMES = {**GAMES, "desk-shaped": desk_shaped_game()}
PRG_IE_GAMES = sorted(name for name, (spec, _) in GAMES.items() if spec.learner_set.bounded)
CHUNKINGS = ["default", "1", "2", "K-1"]
LOSSES = [LossKind.QUADRATIC, LossKind.LOGISTIC]
PG_RBC = SolverConfig(max_iters=400, gamma=0.5, seed=4, trace_every=50, strong_monotonicity=2.0)
PRG_IE = SolverConfig(max_iters=300, gamma=4e-3, trace_every=50, lipschitz=2.0)
# traced without a reference, and with a random profile as the reference
ERROR_TO = {"": lambda spec, prior: None,
            "/error": lambda spec, prior: random_profile(np.random.default_rng(9), spec,
                                                         prior.num_atoms)}
DESK_ADAM = AdamConfig(batch_size=32, epochs=2, total_samples=1000, seed=5)


# the references that the chunked rows of a game share, computed once per game
@functools.cache
def prg_ie_reference(name, error):
    spec, prior = GAMES[name]
    return reference_prg_ie(spec, prior, PRG_IE, ERROR_TO[error](spec, prior))


@functools.cache
def oracle_reference(name):
    return reference_extragradient(*GAMES[name], 1.0, 1e-8)[:2]


@functools.cache
def probe_reference(name, trials):
    return reference_probe(*PROBE_GAMES[name], trials, 3)


ROWS = [
    *[(f"pg_rbc/{name}{error}", GAMES[name], "default",
       lambda spec, prior, to=to: trace_outputs(pg_rbc(spec, prior, PG_RBC, to(spec, prior))),
       lambda spec, prior, to=to: reference_pg_rbc(spec, prior, PG_RBC, to(spec, prior)), "bits")
      for name in sorted(GAMES) for error, to in ERROR_TO.items()],
    *[(f"prg_ie/{name}/{chunking}{error}", GAMES[name], chunking,
       lambda spec, prior, to=to: trace_outputs(prg_ie(spec, prior, PRG_IE, to(spec, prior))),
       lambda spec, prior, key=(name, error): prg_ie_reference(*key), "bits")
      for name in PRG_IE_GAMES for chunking in CHUNKINGS for error, to in ERROR_TO.items()],
    *[(f"residual/{name}/{chunking}", (*GAMES[name], scaled_profile(8, *GAMES[name])), chunking,
       lambda spec, prior, at: equilibrium_residual(at, prior, spec),
       lambda spec, prior, at: reference_residual(at.w, at.sigma, prior, spec), "bits")
      for name in sorted(GAMES) for chunking in CHUNKINGS],
    # equal bits also mean that the oracle stopped at the reference's iteration
    *[(f"oracle/{name}/{chunking}", GAMES[name], chunking, oracle,
       lambda spec, prior, name=name: oracle_reference(name), "bits")
      for name in sorted(GAMES) for chunking in CHUNKINGS],
    *[(f"kernels/{name}", (*GAMES[name], scaled_profile(9, *GAMES[name])), "default",
       batched_kernels, per_atom_gradients, "bits") for name in sorted(GAMES)],
    *[(f"probe/{name}/{chunking}", PROBE_GAMES[name], chunking,
       lambda spec, prior, trials=trials: probe(spec, prior, trials),
       lambda spec, prior, key=(name, trials): probe_reference(*key), "bits")
      for name in sorted(PROBE_GAMES) for chunking in CHUNKINGS
      for trials in [4 if name == "desk-shaped" else 20]],
    # against the plain loop on the public gradient and on reference_gradient
    *[(f"adam/{gradient}/{loss.value}/{ball}/{batches}",
       (small_reduction_game(np.random.default_rng(12345), 7, 4, loss, radius),
        GaussianPrior(mean=1.0, std=2.0),
        AdamConfig(learning_rate=0.1, batch_size=8, epochs=4, total_samples=total, seed=3)),
       "default", adam,
       lambda spec, prior, config, step=step: adam_reference(spec, prior, config, step), "bits")
      for gradient, step in [("public", stochastic_gradient), ("reference", reference_gradient)]
      for loss in LOSSES for ball, radius in [("unconstrained", None), ("ball", 0.3)]
      for batches, total in [("full", 40), ("partial", 37)]],
    # BLAS picks its kernels by shape: n=200, m=57 and a short last batch of 8 rows
    *[(f"adam/desk/{loss.value}", (*desk_adam_game(loss), DESK_ADAM), "default", adam,
       lambda spec, prior, config: adam_reference(spec, prior, config, reference_gradient),
       "bits") for loss in LOSSES],
    # the objective's row blocks sum each row as the whole-matrix gemv does
    *[(f"objective/{loss.value}/S={S}", (S, loss), "default",
       lambda S, loss: stochastic_objective(*objective_inputs(S, loss)), whole_matrix_objective,
       "bits")
      for loss in LOSSES for S in [1, 2, 63, 64, 65, 66, 129, 1000, 1001]],
    # the column sums round differently from the per-element gradient
    *[(f"adam-drift/desk/{loss.value}", (*desk_adam_game(loss), DESK_ADAM), "default",
       lambda spec, prior, config: bayes_adam(spec, prior, config, record_objective=False)[0],
       lambda spec, prior, config: reference_adam(spec, prior, config, per_element_gradient)[0],
       1e-10) for loss in LOSSES],
]


def assert_bits(got, expected):
    if isinstance(expected, np.ndarray):
        assert np.array_equal(got, expected)
    elif isinstance(expected, tuple):
        assert len(got) == len(expected)
        for part, expected_part in zip(got, expected):
            assert_bits(part, expected_part)
    else:  # a float, or a list of trace records
        assert got == expected


@pytest.mark.parametrize("game, chunking, call, reference, compare", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_fast_path_equals_its_reference(monkeypatch, game, chunking, call, reference, compare):
    expected = reference(*game)
    if chunking != "default":
        set_chunking(monkeypatch, *game[:2], chunking)
    got = call(*game)
    if compare == "bits":
        assert_bits(got, expected)
    else:
        assert np.linalg.norm(got - expected) <= compare * np.linalg.norm(expected)

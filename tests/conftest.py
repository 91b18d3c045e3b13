"""Shared instance builders, independent numerical oracles and the first forms of the
unchecked kernels."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bayesgame import game
from bayesgame.game import (ActionSet, FinitePrior, GameSpec, LossKind, StrategyProfile,
                            _gradients, _loss_slope, _OperatorState)
from bayesgame.quadratic import stochastic_gradient


def random_quadratic_game(rng, n, m, reg_l=None, bounded=False):
    reg = float(rng.uniform(0.1, 2.0)) if reg_l is None else reg_l
    kwargs = {}
    if bounded:
        kwargs = dict(
            learner_set=ActionSet.l2_ball(1.0 + rng.random()),
            adversary_set=ActionSet.l2_ball(2.0 + rng.random()),
        )
    return GameSpec(
        X=rng.normal(size=(n, m)),
        y=rng.normal(size=n),
        z=rng.normal(size=n),
        c_l=rng.random(n),
        reg_l=reg,
        **kwargs,
    )


def with_balls(spec, learner_radius, adversary_radius):
    return dataclasses.replace(
        spec,
        learner_set=ActionSet.l2_ball(learner_radius),
        adversary_set=ActionSet.l2_ball(adversary_radius),
    )


def random_logistic_game(rng, n, m, adversary_logistic=True):
    return GameSpec(
        X=rng.normal(size=(n, m)),
        y=rng.choice([-1.0, 1.0], size=n),
        z=rng.choice([-1.0, 1.0], size=n),
        c_l=rng.random(n),
        reg_l=float(rng.uniform(0.1, 2.0)),
        learner_loss=LossKind.LOGISTIC,
        adversary_loss=LossKind.LOGISTIC if adversary_logistic else LossKind.QUADRATIC,
    )


def random_finite_prior(rng, n, K, scale=0.5, uniform=False):
    atoms = scale * rng.random((K, n))
    if uniform:
        probs = np.full(K, 1.0 / K)
    else:
        raw = rng.random(K) + 0.5
        probs = raw / raw.sum()
        probs[-1] = 1.0 - probs[:-1].sum()
    return FinitePrior(atoms=atoms, probs=probs)


def random_profile(rng, spec, K, scale=1.0):
    from bayesgame.game import project

    w = project(scale * rng.normal(size=spec.m), spec.learner_set)
    sigma = np.stack(
        [project(scale * rng.normal(size=(spec.n, spec.m)), spec.adversary_set) for _ in range(K)]
    )
    return StrategyProfile(w=w, sigma=sigma)


def zero_game(n=3, m=2, K=2, bounded=True):
    """All data, weights and atoms zero: the origin is an exact equilibrium."""
    kwargs = {}
    if bounded:
        kwargs = dict(learner_set=ActionSet.l2_ball(1.0), adversary_set=ActionSet.l2_ball(1.0))
    spec = GameSpec(X=np.zeros((n, m)), y=np.zeros(n), z=np.zeros(n), c_l=np.ones(n), **kwargs)
    prior = FinitePrior(atoms=np.zeros((K, n)), probs=np.full(K, 1.0 / K))
    return spec, prior


def unconstrained_game(seed, n=8, m=3, K=4, scale=1.0):
    """A quadratic game with no balls and a uniform K-atom prior, both drawn from
    ``default_rng(seed)``; ``scale=0`` makes every atom zero, the game with c_d = 0."""
    rng = np.random.default_rng(seed)
    return random_quadratic_game(rng, n, m), random_finite_prior(rng, n, K, scale, uniform=True)


def monotone_ball_game(n=10, m=5, K=4, seed=7):
    """The fixed strongly monotone quadratic fixture used by the rate tests.

    Weak coupling (small data, weights and targets) keeps the operator
    monotone over the balls; uniform atom probabilities keep every generator
    block well sampled.
    """
    rng = np.random.default_rng(seed)
    spec = GameSpec(
        X=0.35 * rng.normal(size=(n, m)),
        y=0.5 * rng.normal(size=n),
        z=0.5 * rng.normal(size=n),
        c_l=np.full(n, 0.15),
        reg_l=1.0,
        learner_set=ActionSet.l2_ball(1.0),
        adversary_set=ActionSet.l2_ball(2.0),
    )
    prior = FinitePrior(atoms=0.4 * rng.random((K, n)), probs=np.full(K, 1.0 / K))
    return spec, prior


def single_atom_game(seed=11):
    """Small quadratic instance with one prior atom and an interior solution."""
    rng = np.random.default_rng(seed)
    n, m = 6, 3
    X = 0.25 * rng.normal(size=(n, m))
    y = 0.3 * rng.normal(size=n)
    z = 0.3 * rng.normal(size=n)
    c_l = np.full(n, 0.2)
    atom = 0.3 * rng.random(n)
    ball_spec = GameSpec(
        X=X, y=y, z=z, c_l=c_l,
        learner_set=ActionSet.l2_ball(2.0),
        adversary_set=ActionSet.l2_ball(4.0),
    )
    free_spec = GameSpec(X=X, y=y, z=z, c_l=c_l)
    prior = FinitePrior(atoms=atom[None, :], probs=np.array([1.0]))
    return ball_spec, free_spec, prior


# --------------------------------------------------------------------------
# Independent oracles
# --------------------------------------------------------------------------


def weighted_ridge_oracle(spec):
    """The learner's best response to the unmoved data, by the normal equations of
    sum_i c_l[i] (x_i.w - y_i)^2 + reg_l |w|^2."""
    A = spec.X.T @ (spec.c_l[:, None] * spec.X) + spec.reg_l * np.eye(spec.m)
    return np.linalg.solve(A, spec.X.T @ (spec.c_l * spec.y))


def central_diff_vector(f, x, h):
    """Central finite-difference gradient of a scalar function of a vector."""
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def central_diff_matrix(f, X, h):
    g = np.zeros_like(X, dtype=float)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            E = np.zeros_like(X, dtype=float)
            E[i, j] = h
            g[i, j] = (f(X + E) - f(X - E)) / (2.0 * h)
    return g


def fd_step(point):
    return 1e-6 * (1.0 + float(np.linalg.norm(point)))


def rel_err(approx, exact):
    scale = max(1.0, float(np.max(np.abs(exact))))
    return float(np.max(np.abs(approx - exact))) / scale


def golden_min(f, lo, hi, tol=1e-12):
    """Golden-section minimizer for smooth unimodal 1-d functions."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def coordinate_descent_adversary(w, X, z, c_d, tol=1e-10, max_sweeps=100_000):
    """Minimize the generator's quadratic cost by exact coordinate updates.

    Independent of the closed-form response: each pass solves the per-entry
    stationarity of sum_i c_d[i] (xbar_i.w - z_i)^2 + |X - Xbar|_F^2 exactly,
    sweeping columns until the largest entry change drops below tol.
    """
    Xbar = X.astype(float).copy()
    m = X.shape[1]
    for _ in range(max_sweeps):
        biggest = 0.0
        for j in range(m):
            s = Xbar @ w - Xbar[:, j] * w[j]  # margins without column j
            new = (X[:, j] - c_d * w[j] * (s - z)) / (1.0 + c_d * w[j] ** 2)
            biggest = max(biggest, float(np.max(np.abs(new - Xbar[:, j]))))
            Xbar[:, j] = new
        if biggest < tol:
            return Xbar
    raise AssertionError("coordinate descent did not converge")


# --------------------------------------------------------------------------
# First forms of the unchecked kernels.  Each is the per-call code a kernel
# replaced, built on the gradients and the projection as first written, so
# that it shares no kernel with the package.
# --------------------------------------------------------------------------


def set_chunking(monkeypatch, spec, prior, chunking):
    """Run the passes over sigma in chunks of 1, 2 or K - 1 atoms (``chunking``
    "1", "2" or "K-1"); the games of ``equivalence_games`` fit in one chunk."""
    atoms = {"1": 1, "2": 2, "K-1": max(1, prior.num_atoms - 1)}[chunking]
    monkeypatch.setattr(game, "_CHUNK_BYTES", atoms * spec.n * spec.m * 8)
    chunks = _OperatorState.build(spec, prior.atoms, prior.probs).chunks
    assert len(chunks) == math.ceil(prior.num_atoms / atoms)


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


def reference_gradient(w, spec, samples):
    """The four-moment gradient kernel as written with ``@`` products, on public functions.

    Its operations, and so its rounding, are the ones ``bayes_adam``'s kernel must reproduce.
    """
    S = samples.shape[0]
    ones = np.ones(S)
    e = spec.z - spec.X @ w
    damp = 1.0 / (samples * (w @ w) + 1.0)
    if spec.learner_loss is LossKind.QUADRATIC:
        work = damp * damp
        r1, r2 = ones @ damp, ones @ work
        work *= samples
        ar2 = ones @ work
        work *= damp
        ar3 = ones @ work
        d = spec.z - spec.y
        x_sum, w_sum, k = d * r1 - e * r2, d * ar2 - e * ar3, 2.0
    else:
        work = _loss_slope(spec.learner_loss, spec.z - damp * e, spec.y) * damp
        x_sum = ones @ work
        w_sum, k = ones @ (work * samples * damp), 1.0
    w_coef = 2.0 * k * float((spec.c_l * e) @ w_sum) / S + 2.0 * spec.reg_l
    return (spec.c_l * x_sum) @ spec.X * (k / S) + w_coef * w


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


def desk_shaped_game(n=200, m=57, K=16, seed=3):
    """A game of the desk benchmark's shape: 0/1 features and labels, wide balls."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, m)) < 0.3) * rng.random((n, m))
    y = (rng.random(n) < 0.4).astype(float)
    spec = GameSpec(X=X, y=y, z=1.0 - y, c_l=np.full(n, 0.1),
                    learner_set=ActionSet.l2_ball(1.0),
                    adversary_set=ActionSet.l2_ball(2.0 * float(np.linalg.norm(X))))
    atoms = np.maximum(rng.normal(1.0, 4.0, size=(K, n)), 0.0)
    return spec, FinitePrior(atoms=atoms, probs=np.full(K, 1.0 / K))


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


def equivalence_games():
    """The games the unchecked loops are checked on against their first forms: every
    branch of the slope kernel (both losses quadratic, both logistic, and each mixed
    pair) and one game of the desk's shape."""
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


def peak_mib(fn, *args, **kwargs) -> float:
    """Peak traced allocation above the call's start, in MiB."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

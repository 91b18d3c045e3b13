"""Shared instance builders and independent numerical oracles."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from bayesgame.game import ActionSet, FinitePrior, GameSpec, LossKind, StrategyProfile


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

"""Finite-prior equilibrium solvers built on a stacked first-order map.

With a K-atom prior the equilibrium problem is a variational inequality over
(w, sigma^1..sigma^K).  The operator pairs the probability-weighted learner
gradient with one generator-gradient block per atom; its solutions are
invariant to positive per-block rescaling over product sets, which reconciles
the weighted and unweighted conventions for the generator rows.

Solvers:

* ``prg_ie``  -- reflected-gradient steps with an anchored averaging step;
  one projection per block per iteration, converges in norm.
* ``pg_rbc``  -- projected gradient updating the learner plus one randomly
  sampled generator block per iteration; O(1/t) expected squared error.
* ``extragradient_reference`` -- classical two-projection extragradient,
  used as the high-precision oracle that the others are measured against.

``assumption_probe`` estimates the monotonicity modulus, Lipschitz constant
and gradient bound by sampling feasible profile pairs, since the theory
assumes these constants are known.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .game import (
    FinitePrior,
    GameSpec,
    StrategyProfile,
    _grad_adversary_X,
    _grad_learner_w,
    _project,
    grad_adversary_X,  # noqa: F401 - perfbench's traced run rebinds these names here
    grad_learner_w,  # noqa: F401
    origin_profile,
    project,  # noqa: F401
)


class ConfigurationError(ValueError):
    """A solver was invoked on a game it cannot handle."""


class SolverError(RuntimeError):
    """A solver failed to produce a usable result."""


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, step size and bookkeeping knobs.

    ``gamma`` is the fixed step for prg_ie and the initial step (decayed as
    gamma/t) for pg_rbc.  ``tol`` > 0 enables early stopping on the
    equilibrium residual, checked at trace points.  ``lipschitz`` and
    ``strong_monotonicity`` override the probed estimates used in the
    step-size precondition warnings.
    """

    max_iters: int
    gamma: float
    seed: int = 0
    tol: float = 0.0
    trace_every: int = 100
    lipschitz: float | None = None
    strong_monotonicity: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    t: int
    residual: float
    error_to_reference: float | None
    wall_time_s: float


@dataclass
class SolverTrace:
    iterations: list[TraceRecord]
    final_profile: StrategyProfile
    converged: bool

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "residual", "error_to_reference", "wall_time_s"])
            for rec in self.iterations:
                err = "" if rec.error_to_reference is None else repr(rec.error_to_reference)
                writer.writerow([rec.t, repr(rec.residual), err, f"{rec.wall_time_s:.6f}"])

    def to_json(self) -> dict:
        """Strict-JSON document (``allow_nan=False`` safe): non-finite numbers are null."""
        iterations = [
            {key: v if v is None or math.isfinite(v) else None for key, v in asdict(rec).items()}
            for rec in self.iterations
        ]
        return {
            "converged": self.converged,
            "iterations": iterations,
            "final_residual": iterations[-1]["residual"] if iterations else None,
        }


@dataclass(frozen=True)
class AssumptionDiagnostics:
    """Sampled estimates of the operator's regularity constants."""

    lambda_hat: float
    L_hat: float
    G_hat: float
    trials: int
    seed: int


# --------------------------------------------------------------------------
# The stacked operator and its merit functions
# --------------------------------------------------------------------------


def _check_profile(profile: StrategyProfile, prior: FinitePrior, spec: GameSpec) -> None:
    K = prior.num_atoms
    if profile.sigma.shape != (K, spec.n, spec.m):
        raise ValueError(
            f"profile sigma has shape {profile.sigma.shape}, "
            f"expected ({K}, {spec.n}, {spec.m})"
        )
    if profile.w.shape != (spec.m,):
        raise ValueError(f"profile w has shape {profile.w.shape}, expected ({spec.m},)")
    prior._check_dimension(spec.n)


def stacked_map(
    profile: StrategyProfile, prior: FinitePrior, spec: GameSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the first-order operator of the finite-prior game.

    Returns the probability-weighted learner gradient (shape (m,)) and the
    unweighted generator block for each atom (shape (K, n, m)).
    """
    _check_profile(profile, prior, spec)
    return _stacked_map(profile.w, profile.sigma, prior, spec)


def _stacked_map(w, sigma, prior: FinitePrior, spec: GameSpec):
    """``stacked_map`` at (w, sigma), unchecked."""
    margins = sigma @ w  # (K, n)
    learner = prior.probs @ _grad_learner_w(w, sigma, margins, spec)
    return learner, _grad_adversary_X(w, sigma, margins, prior.atoms, spec)


def equilibrium_residual(
    profile: StrategyProfile,
    prior: FinitePrior,
    spec: GameSpec,
    gamma_probe: float = 1.0,
) -> float:
    """Squared natural-map residual; zero exactly at equilibria.

    A fixed probe step keeps values comparable across runs; for unconstrained
    sets this equals gamma_probe^2 times the squared operator norm.
    """
    if gamma_probe <= 0:
        raise ValueError("gamma_probe must be positive")
    t_w, t_sig = stacked_map(profile, prior, spec)
    return _natural_residual(profile.w, profile.sigma, t_w, t_sig, gamma_probe, spec)


def _natural_residual(w, sigma, t_w, t_sig, gamma, spec: GameSpec) -> float:
    """Squared natural-map residual at (w, sigma) from the map's value (t_w, t_sig) there.

    Unchecked; overwrites ``t_sig``.
    """
    w_step = _project(w - gamma * t_w, spec.learner_set)
    total = float(np.sum((w - w_step) ** 2))
    diff = _projected_step(sigma, t_sig, gamma, spec.adversary_set)
    np.subtract(sigma, diff, out=diff)
    np.square(diff, out=diff)
    for block in diff:
        total += float(np.sum(block))
    return total


def _projected_step(sigma, t_sig, gamma, action_set):
    """Blockwise ``project(sigma[k] - gamma * t_sig[k])``, written into ``t_sig``."""
    np.multiply(gamma, t_sig, out=t_sig)
    np.subtract(sigma, t_sig, out=t_sig)
    for k, block in enumerate(t_sig):
        t_sig[k] = _project(block, action_set)  # a no-op copy when the block is inside
    return t_sig


def epsilon_distance(
    profile: StrategyProfile, reference: StrategyProfile, prior: FinitePrior
) -> float:
    """Squared equilibrium-approximation distance under the prior weights."""
    if profile.num_atoms != reference.num_atoms or profile.num_atoms != prior.num_atoms:
        raise ValueError("profiles and prior must share the same atom count")
    dw = profile.w - reference.w
    dsig = profile.sigma - reference.sigma
    return float(dw @ dw + prior.probs @ np.sum(dsig * dsig, axis=(1, 2)))


# --------------------------------------------------------------------------
# Constant estimation
# --------------------------------------------------------------------------


def _random_feasible_point(rng: np.random.Generator, shape, action_set) -> np.ndarray:
    point = rng.standard_normal(shape)
    if action_set.bounded:
        # uniform over the ball: direction times radius * U^(1/d)
        d = point.size
        norm = np.linalg.norm(point)
        if norm == 0:
            return np.zeros(shape)
        return point * (action_set.radius * rng.random() ** (1.0 / d) / norm)
    return point


def _random_feasible_profile(
    rng: np.random.Generator, spec: GameSpec, K: int
) -> StrategyProfile:
    w = _random_feasible_point(rng, (spec.m,), spec.learner_set)
    sigma = np.stack(
        [_random_feasible_point(rng, (spec.n, spec.m), spec.adversary_set) for _ in range(K)]
    )
    return StrategyProfile(w=w, sigma=sigma)


def assumption_probe(
    spec: GameSpec, prior: FinitePrior, trials: int, seed: int
) -> AssumptionDiagnostics:
    """Estimate monotonicity, Lipschitz and gradient-bound constants by sampling.

    Each trial draws a pair of feasible profiles and evaluates the operator's
    monotonicity quotient under the probability-weighted inner product.  The
    reported lambda_hat is the smallest quotient seen (negative values flag a
    non-monotone instance); L_hat and G_hat are the largest difference ratio
    and per-block gradient norm seen.  These are sampled estimates: lambda_hat
    overestimates the true modulus and L_hat/G_hat underestimate the suprema.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    rng = np.random.default_rng(seed)
    K = prior.num_atoms
    probs = prior.probs

    lambda_hat = np.inf
    l_hat = 0.0
    g_hat = 0.0
    for _ in range(trials):
        a = _random_feasible_profile(rng, spec, K)
        b = _random_feasible_profile(rng, spec, K)
        blocks = {}
        for key, prof in (("a", a), ("b", b)):
            margins = prof.sigma @ prof.w
            g_learner = _grad_learner_w(prof.w, prof.sigma, margins, spec)
            g_adv = _grad_adversary_X(prof.w, prof.sigma, margins, prior.atoms, spec)
            blocks[key] = (probs @ g_learner, g_adv)
            g_hat = max(
                g_hat,
                float(np.max(np.linalg.norm(g_learner, axis=1))),
                float(np.max(np.sqrt(np.sum(g_adv * g_adv, axis=(1, 2))))),
            )
        dw = a.w - b.w
        dsig = a.sigma - b.sigma
        den = float(dw @ dw + probs @ np.sum(dsig * dsig, axis=(1, 2)))
        if den < 1e-24:
            continue  # duplicate pair: quotient undefined
        dtw = blocks["a"][0] - blocks["b"][0]
        dtsig = blocks["a"][1] - blocks["b"][1]
        num = float(dw @ dtw + probs @ np.sum(dsig * dtsig, axis=(1, 2)))
        tnorm = float(dtw @ dtw + probs @ np.sum(dtsig * dtsig, axis=(1, 2)))
        lambda_hat = min(lambda_hat, num / den)
        l_hat = max(l_hat, np.sqrt(tnorm / den))
    if not np.isfinite(lambda_hat):
        raise SolverError("all sampled profile pairs were duplicates")
    return AssumptionDiagnostics(
        lambda_hat=float(lambda_hat),
        L_hat=float(l_hat),
        G_hat=float(g_hat),
        trials=trials,
        seed=seed,
    )


def _probed_constant(
    spec: GameSpec, prior: FinitePrior, override: float | None, which: str
) -> float:
    if override is not None:
        return override
    diag = assumption_probe(spec, prior, trials=16, seed=0)
    return diag.L_hat if which == "L" else diag.lambda_hat


# --------------------------------------------------------------------------
# Solvers
# --------------------------------------------------------------------------


def _trace_point(
    records,
    t,
    profile,
    prior,
    spec,
    reference,
    start_time,
) -> float:
    residual = equilibrium_residual(profile, prior, spec)
    if not math.isfinite(residual):
        last = records[-1].residual if records else None
        raise SolverError(f"diverged at t={t}: residual {residual}, last finite residual {last}")
    err = None if reference is None else epsilon_distance(profile, reference, prior)
    records.append(TraceRecord(t, residual, err, time.perf_counter() - start_time))
    return residual


def prg_ie(
    spec: GameSpec,
    prior: FinitePrior,
    config: SolverConfig,
    reference: StrategyProfile | None = None,
) -> SolverTrace:
    """Reflected-gradient solver with an anchored averaging step.

    Requires both action sets to be balls (bounded, containing the origin).
    Each iteration evaluates the operator at the reflected point
    ``2*current_tilde - previous_tilde``, takes one projected step per block
    from the main iterate, then averages the main iterate toward the
    projected point with weight 1 - 1/t (the remaining 1/t mass is split
    between the main iterate and the origin anchor).  All iterates stay
    feasible.  Deterministic; the step size should satisfy
    gamma < min(1, 1/(100 L)) and a warning is emitted otherwise.
    """
    if not (spec.learner_set.bounded and spec.adversary_set.bounded):
        raise ConfigurationError(
            "prg_ie requires bounded l2_ball action sets for both players"
        )
    init = origin_profile(spec, prior.num_atoms)
    _check_profile(init, prior, spec)
    l_hat = _probed_constant(spec, prior, config.lipschitz, "L")
    limit = min(1.0, 1.0 / (100.0 * l_hat)) if l_hat > 0 else 1.0
    if config.gamma >= limit:
        warnings.warn(
            f"prg_ie step gamma={config.gamma} violates gamma < min(1, 1/(100 L)) "
            f"with L~{l_hat:.4g}; convergence is not guaranteed",
            stacklevel=2,
        )

    start = time.perf_counter()
    w_cur, sig_cur = init.w.copy(), init.sigma.copy()
    w_til_prev, sig_til_prev = init.w.copy(), init.sigma.copy()
    w_til, sig_til = init.w.copy(), init.sigma.copy()
    gamma = config.gamma

    records: list[TraceRecord] = []
    converged = False
    for t in range(1, config.max_iters + 1):
        delta = 1.0 / t
        w_ref = 2.0 * w_til - w_til_prev
        sig_ref = 2.0 * sig_til - sig_til_prev

        learner, adv = _stacked_map(w_ref, sig_ref, prior, spec)
        w_til_next = _project(w_cur - gamma * learner, spec.learner_set)
        sig_til_next = _projected_step(sig_cur, adv, gamma, spec.adversary_set)

        w_next = (delta / 2.0) * w_cur + (1.0 - delta) * w_til_next
        sig_next = (delta / 2.0) * sig_cur + (1.0 - delta) * sig_til_next

        w_til_prev, sig_til_prev = w_til, sig_til
        w_til, sig_til = w_til_next, sig_til_next
        w_cur, sig_cur = w_next, sig_next

        if t == 1 or t % config.trace_every == 0 or t == config.max_iters:
            profile = StrategyProfile(w=w_cur, sigma=sig_cur)
            residual = _trace_point(records, t, profile, prior, spec, reference, start)
            if config.tol > 0 and residual <= config.tol:
                converged = True
                break

    return SolverTrace(
        iterations=records,
        final_profile=StrategyProfile(w=w_cur, sigma=sig_cur),
        converged=converged,
    )


def pg_rbc(
    spec: GameSpec,
    prior: FinitePrior,
    config: SolverConfig,
    reference: StrategyProfile | None = None,
) -> SolverTrace:
    """Projected gradient with one randomly sampled generator block per step.

    At step t an atom index j is drawn with probability p_j; the learner
    moves along its gradient evaluated against sigma^j, and only block j of
    sigma is updated.  The step decays as gamma/t (gamma itself at t=0).
    The initial step should satisfy gamma > 1/(2 lambda); a warning is
    emitted otherwise.
    """
    K = prior.num_atoms
    init = origin_profile(spec, K)
    _check_profile(init, prior, spec)
    lam_hat = _probed_constant(spec, prior, config.strong_monotonicity, "lambda")
    if lam_hat > 0 and config.gamma <= 1.0 / (2.0 * lam_hat):
        warnings.warn(
            f"pg_rbc initial step gamma={config.gamma} violates gamma > 1/(2 lambda) "
            f"with lambda~{lam_hat:.4g}; the O(1/t) rate is not guaranteed",
            stacklevel=2,
        )
    elif lam_hat <= 0:
        warnings.warn(
            f"probed monotonicity modulus is {lam_hat:.4g} <= 0; "
            "pg_rbc has no convergence guarantee on this instance",
            stacklevel=2,
        )

    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    indices = rng.choice(K, size=config.max_iters, p=prior.probs)

    w_cur, sig_cur = init.w.copy(), init.sigma.copy()
    atoms, w_set, sig_set = prior.atoms, spec.learner_set, spec.adversary_set
    records: list[TraceRecord] = []
    converged = False
    for t in range(config.max_iters):
        gamma_t = config.gamma if t == 0 else config.gamma / t
        j = indices[t]
        sig_j = sig_cur[j]
        margins = sig_j @ w_cur
        w_next = _project(w_cur - gamma_t * _grad_learner_w(w_cur, sig_j, margins, spec), w_set)
        sig_cur[j] = _project(
            sig_j - gamma_t * _grad_adversary_X(w_cur, sig_j, margins, atoms[j], spec), sig_set
        )
        w_cur = w_next

        done = t + 1
        if done == 1 or done % config.trace_every == 0 or done == config.max_iters:
            profile = StrategyProfile(w=w_cur, sigma=sig_cur)
            residual = _trace_point(records, done, profile, prior, spec, reference, start)
            if config.tol > 0 and residual <= config.tol:
                converged = True
                break

    return SolverTrace(
        iterations=records,
        final_profile=StrategyProfile(w=w_cur.copy(), sigma=sig_cur.copy()),
        converged=converged,
    )


def _extragradient_on_map(
    map_fn,
    x0: StrategyProfile,
    spec: GameSpec,
    gamma: float,
    tol: float,
    max_iters: int,
) -> tuple[StrategyProfile, int]:
    """Two-projection extragradient on an arbitrary blockwise map.

    ``map_fn(w, sigma) -> (t_w, t_sigma)`` must return a fresh ``t_sigma``,
    which is overwritten.  Stops when the squared natural-map residual
    (probe step 1) drops to ``tol``.  Returns the profile and the number of
    iterations taken.  The map's value at each accepted point serves both the
    residual check and the next iteration's first step, so an iteration
    evaluates the map twice.
    """

    def _step(w, sigma, t_w, t_sig):
        w_step = _project(w - gamma * t_w, spec.learner_set)
        return w_step, _projected_step(sigma, t_sig, gamma, spec.adversary_set)

    w, sigma = x0.w.copy(), x0.sigma.copy()
    t_w, t_sig = map_fn(w, sigma)
    for it in range(max_iters + 1):
        # _natural_residual overwrites its t_sigma; the step needs the original
        residual = _natural_residual(w, sigma, t_w, t_sig.copy(), 1.0, spec)
        if residual <= tol:
            return StrategyProfile(w=w, sigma=sigma), it
        if it == max_iters:
            break
        w_half, sig_half = _step(w, sigma, t_w, t_sig)
        w, sigma = _step(w, sigma, *map_fn(w_half, sig_half))
        t_w, t_sig = map_fn(w, sigma)
    raise SolverError(
        f"extragradient did not reach tol={tol:g} within {max_iters} iterations; "
        f"last residual {residual:.6e}"
    )


def extragradient_reference(
    spec: GameSpec, prior: FinitePrior, tol: float, max_iters: int = 200_000
) -> StrategyProfile:
    """High-precision equilibrium oracle via the classical extragradient method.

    Runs with a fixed step of 1/(2 L) using the probed Lipschitz estimate and
    iterates until the squared natural-map residual falls to ``tol``.  Raises
    ``SolverError`` (naming the last residual) on non-convergence.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    init = origin_profile(spec, prior.num_atoms)
    _check_profile(init, prior, spec)
    l_hat = _probed_constant(spec, prior, None, "L")
    gamma = 0.5 / l_hat if l_hat > 0 else 1.0

    def map_fn(w, sigma):
        return _stacked_map(w, sigma, prior, spec)

    profile, _ = _extragradient_on_map(map_fn, init, spec, gamma, tol, max_iters)
    return profile

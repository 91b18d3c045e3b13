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

The convergence guarantees assume the monotonicity modulus and Lipschitz
constant are known.  The solvers take them from the caller
(``SolverConfig``) and ``step_warnings`` checks a step against them;
``assumption_probe`` estimates them by sampling feasible profile pairs.
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
    equilibrium residual, checked at trace points.  ``lipschitz`` (prg_ie)
    and ``strong_monotonicity`` (pg_rbc) are the constants the solver checks
    ``gamma`` against with ``step_warnings``, for instance the ``L_hat`` and
    ``lambda_hat`` of ``bayesgame probe``; the solvers never estimate them,
    and without one they warn that the step was not checked.
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
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0 <= self.tol < math.inf:
            raise ValueError("tol must be nonnegative and finite")
        for name in ("lipschitz", "strong_monotonicity"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
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


def _stacked_map(w, sigma, prior: FinitePrior, spec: GameSpec, out=None, scratch=None):
    """``stacked_map`` at (w, sigma), unchecked; ``out`` and ``scratch`` as in
    ``game._grad_adversary_X``, which writes the generator blocks into ``out``."""
    margins = sigma @ w  # (K, n)
    learner = prior.probs @ _grad_learner_w(w, sigma, margins, spec)
    return learner, _grad_adversary_X(w, sigma, margins, prior.atoms, spec, out, scratch)


def equilibrium_residual(profile: StrategyProfile, prior: FinitePrior, spec: GameSpec) -> float:
    """Squared natural-map residual at step 1; zero exactly at equilibria.

    The fixed step keeps values comparable across runs; for unconstrained
    sets this is the squared operator norm.
    """
    t_w, t_sig = stacked_map(profile, prior, spec)
    return _natural_residual(profile.w, profile.sigma, t_w, t_sig, spec)


def _natural_residual(w, sigma, t_w, t_sig, spec: GameSpec) -> float:
    """Squared natural-map residual at (w, sigma) from the map's value (t_w, t_sig) there.

    Unchecked; overwrites ``t_sig``.
    """
    w_step = _project(w - t_w, spec.learner_set)
    total = float(np.sum((w - w_step) ** 2))
    diff = _projected_step(sigma, t_sig, 1.0, spec.adversary_set)
    np.subtract(sigma, diff, out=diff)
    np.square(diff, out=diff)
    for block in diff:
        total += float(np.sum(block))
    return total


def _projected_step(sigma, t_sig, gamma, action_set):
    """Blockwise ``project(sigma[k] - gamma * t_sig[k])``, written into ``t_sig``."""
    if gamma != 1.0:  # x * 1.0 == x exactly, so the residual's step skips the pass
        np.multiply(gamma, t_sig, out=t_sig)
    np.subtract(sigma, t_sig, out=t_sig)
    for block in t_sig:
        _project(block, action_set)  # scales the block in place if outside the ball
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


def _random_feasible_point(rng: np.random.Generator, out: np.ndarray, action_set) -> None:
    """Draw a feasible point into the contiguous float array ``out``."""
    rng.standard_normal(out=out)
    if action_set.bounded:
        # uniform over the ball: direction times radius * U^(1/d)
        flat = out.ravel()
        norm = math.sqrt(flat.dot(flat))
        if norm == 0:
            return
        out *= action_set.radius * rng.random() ** (1.0 / out.size) / norm


def _draw_feasible_profile(rng: np.random.Generator, spec: GameSpec, w, sigma) -> None:
    """Draw a feasible profile into the buffers ``w`` (m,) and ``sigma`` (K, n, m)."""
    _random_feasible_point(rng, w, spec.learner_set)
    for block in sigma:
        _random_feasible_point(rng, block, spec.adversary_set)


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
    probs = prior.probs
    # the pair's profiles and operator values, reused by every trial
    w = np.empty((2, spec.m))
    sigma = np.empty((2, prior.num_atoms, spec.n, spec.m))
    t_w = np.empty((2, spec.m))
    t_sig = np.empty_like(sigma)
    scratch = np.empty_like(sigma[0])

    def weighted_dot(u, v) -> float:  # sum_k p_k <u_k, v_k>
        return probs @ np.sum(np.multiply(u, v, out=scratch), axis=(1, 2))

    lambda_hat = np.inf
    l_hat = 0.0
    g_hat = 0.0
    for _ in range(trials):
        for i in (0, 1):
            _draw_feasible_profile(rng, spec, w[i], sigma[i])
        for i in (0, 1):
            margins = sigma[i] @ w[i]
            g_learner = _grad_learner_w(w[i], sigma[i], margins, spec)
            _grad_adversary_X(w[i], sigma[i], margins, prior.atoms, spec, t_sig[i], scratch)
            t_w[i] = probs @ g_learner
            np.multiply(t_sig[i], t_sig[i], out=scratch)
            g_hat = max(
                g_hat,
                float(np.max(np.linalg.norm(g_learner, axis=1))),
                float(np.max(np.sqrt(np.sum(scratch, axis=(1, 2))))),
            )
        dw = w[0] - w[1]
        dsig = np.subtract(sigma[0], sigma[1], out=sigma[0])
        den = float(dw @ dw + weighted_dot(dsig, dsig))
        if den < 1e-24:
            continue  # duplicate pair: quotient undefined
        dtw = t_w[0] - t_w[1]
        dtsig = np.subtract(t_sig[0], t_sig[1], out=t_sig[0])
        num = float(dw @ dtw + weighted_dot(dsig, dtsig))
        tnorm = float(dtw @ dtw + weighted_dot(dtsig, dtsig))
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


def step_warnings(
    gamma: float | None, lipschitz: float | None = None, strong_monotonicity: float | None = None
) -> list[str]:
    """Messages for the step-size rules that ``gamma`` breaks.

    prg_ie's guarantee needs gamma < min(1, 1/(100 L)) and pg_rbc's needs
    gamma > 1/(2 lambda), which no step meets when lambda <= 0.  A rule is
    checked when its constant is given, for instance ``bayesgame probe``'s
    ``L_hat`` or ``lambda_hat``; a ``gamma`` of None checks only the sign of
    lambda.  With neither constant, the one message says so.
    """
    lip, lam = lipschitz, strong_monotonicity
    if lip is None and lam is None:
        return [f"step gamma={gamma} was not checked: no lipschitz or strong_monotonicity "
                "constant was given (bayesgame probe estimates both)"]
    messages = []
    limit = min(1.0, 1.0 / (100.0 * lip)) if lip is not None and lip > 0 else 1.0
    if lip is not None and gamma is not None and gamma >= limit:
        messages.append(f"gamma={gamma} violates the prg-ie step bound gamma < "
                        f"min(1, 1/(100 L)) ~ {limit:.4g} with L={lip:.4g}")
    bound = 1.0 / (2.0 * lam) if lam is not None and lam > 0 else None
    if lam is not None and bound is None:
        messages.append(f"lambda={lam:.4g} <= 0: the instance looks non-monotone; "
                        "pg-rbc has no convergence guarantee")
    elif bound is not None and gamma is not None and gamma <= bound:
        messages.append(f"gamma={gamma} violates the pg-rbc step bound gamma > "
                        f"1/(2 lambda) ~ {bound:.4g} with lambda={lam:.4g}")
    return messages


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


def _traced_run(iterates, config: SolverConfig, prior, spec, reference) -> SolverTrace:
    """Trace the ``(w, sigma)`` that ``iterates`` yields after each iteration.

    Trace points are t = 1, every ``trace_every`` and the last iteration.
    With ``tol`` > 0 the run stops, ``converged``, at the first trace point
    whose residual is at most ``tol``.  A solver may update the arrays it
    yielded in place on its next iteration, so each is used before the next.
    """
    start = time.perf_counter()
    records: list[TraceRecord] = []
    for t, (w, sigma) in enumerate(iterates, start=1):
        if t == 1 or t % config.trace_every == 0 or t == config.max_iters:
            profile = StrategyProfile(w=w, sigma=sigma)
            residual = _trace_point(records, t, profile, prior, spec, reference, start)
            if config.tol > 0 and residual <= config.tol:
                return SolverTrace(records, profile, converged=True)
    return SolverTrace(records, StrategyProfile(w=w, sigma=sigma), converged=False)


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
    feasible.  Deterministic.  ``step_warnings`` checks the step against
    ``config.lipschitz``, and each message it returns is warned.
    """
    if not (spec.learner_set.bounded and spec.adversary_set.bounded):
        raise ConfigurationError(
            "prg_ie requires bounded l2_ball action sets for both players"
        )
    init = origin_profile(spec, prior.num_atoms)
    _check_profile(init, prior, spec)
    for message in step_warnings(config.gamma, lipschitz=config.lipschitz):
        warnings.warn(message, stacklevel=2)
    return _traced_run(_prg_ie_iterates(init, prior, spec, config), config, prior, spec, reference)


def _prg_ie_iterates(init, prior: FinitePrior, spec: GameSpec, config: SolverConfig):
    w_cur, sig_cur = init.w, init.sigma
    w_til_prev, sig_til_prev = init.w.copy(), init.sigma.copy()
    w_til, sig_til = init.w.copy(), init.sigma.copy()
    # sigma-sized buffers, reused every iteration: the reflected point, the
    # next projected point (first the map's generator blocks) and a scratch
    sig_ref, sig_til_next, scratch = (np.empty_like(sig_cur) for _ in range(3))
    gamma = config.gamma
    for t in range(1, config.max_iters + 1):
        delta = 1.0 / t
        w_ref = 2.0 * w_til - w_til_prev
        np.multiply(2.0, sig_til, out=sig_ref)
        sig_ref -= sig_til_prev

        learner, adv = _stacked_map(w_ref, sig_ref, prior, spec, sig_til_next, scratch)
        w_til_next = _project(w_cur - gamma * learner, spec.learner_set)
        _projected_step(sig_cur, adv, gamma, spec.adversary_set)

        w_cur = (delta / 2.0) * w_cur + (1.0 - delta) * w_til_next
        sig_cur *= delta / 2.0
        sig_cur += np.multiply(1.0 - delta, sig_til_next, out=scratch)

        w_til_prev, w_til = w_til, w_til_next
        # the old sig_til_prev becomes the next iteration's free buffer
        sig_til_prev, sig_til, sig_til_next = sig_til, sig_til_next, sig_til_prev
        yield w_cur, sig_cur


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
    ``step_warnings`` checks the initial step against
    ``config.strong_monotonicity``, and each message it returns is warned.
    """
    init = origin_profile(spec, prior.num_atoms)
    _check_profile(init, prior, spec)
    for message in step_warnings(config.gamma, strong_monotonicity=config.strong_monotonicity):
        warnings.warn(message, stacklevel=2)
    return _traced_run(_pg_rbc_iterates(init, prior, spec, config), config, prior, spec, reference)


def _pg_rbc_iterates(init, prior: FinitePrior, spec: GameSpec, config: SolverConfig):
    rng = np.random.default_rng(config.seed)
    indices = rng.choice(prior.num_atoms, size=config.max_iters, p=prior.probs)

    w_cur, sig_cur = init.w, init.sigma
    atoms, w_set, sig_set = prior.atoms, spec.learner_set, spec.adversary_set
    step, scratch = np.empty_like(sig_cur[0]), np.empty_like(sig_cur[0])  # block-sized
    for t in range(config.max_iters):
        gamma_t = config.gamma if t == 0 else config.gamma / t
        j = indices[t]
        sig_j = sig_cur[j]
        margins = sig_j @ w_cur
        w_next = _project(w_cur - gamma_t * _grad_learner_w(w_cur, sig_j, margins, spec), w_set)
        _grad_adversary_X(w_cur, sig_j, margins, atoms[j], spec, step, scratch)
        step *= gamma_t
        sig_j -= step
        _project(sig_j, sig_set)  # block j of sig_cur, updated in place
        w_cur = w_next
        yield w_cur, sig_cur


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
    (``equilibrium_residual``'s) drops to ``tol``.  Returns the profile and
    the number of iterations taken.  The map's value at each accepted point
    serves both the residual check and the next iteration's first step, so
    an iteration evaluates the map twice.
    """

    def _step(w, sigma, t_w, t_sig):
        w_step = _project(w - gamma * t_w, spec.learner_set)
        return w_step, _projected_step(sigma, t_sig, gamma, spec.adversary_set)

    w, sigma = x0.w.copy(), x0.sigma.copy()
    t_w, t_sig = map_fn(w, sigma)
    for it in range(max_iters + 1):
        # _natural_residual overwrites its t_sigma; the step needs the original
        residual = _natural_residual(w, sigma, t_w, t_sig.copy(), spec)
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

    Runs with a fixed step of 1/(2 L), with L the estimate of a 16-trial
    ``assumption_probe`` (seed 0), and iterates until the squared natural-map
    residual falls to ``tol``.  Raises ``SolverError`` (naming the last
    residual) on non-convergence.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    init = origin_profile(spec, prior.num_atoms)
    _check_profile(init, prior, spec)
    l_hat = assumption_probe(spec, prior, trials=16, seed=0).L_hat
    gamma = 0.5 / l_hat if l_hat > 0 else 1.0

    def map_fn(w, sigma):
        return _stacked_map(w, sigma, prior, spec)

    profile, _ = _extragradient_on_map(map_fn, init, spec, gamma, tol, max_iters)
    return profile

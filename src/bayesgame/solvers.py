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


# Passes over sigma run on chunks of atoms whose blocks fit in a core's L2 cache
_CHUNK_BYTES = 256 * 1024


def _chunks(sigma, buffers: int):
    """The atom chunks of ``sigma`` (K, n, m), followed by ``buffers`` chunk buffers.

    The chunks are consecutive ``(slice, length)`` pairs whose blocks fit
    ``_CHUNK_BYTES``, each of at least one atom.  A buffer has the first (and
    largest) chunk's shape; its first c atoms serve a chunk of c atoms.
    """
    size = max(1, _CHUNK_BYTES // sigma[0].nbytes)
    K = len(sigma)
    chunks = [(slice(lo, min(lo + size, K)), min(size, K - lo)) for lo in range(0, K, size)]
    return (chunks, *(np.empty((min(size, K),) + sigma.shape[1:]) for _ in range(buffers)))


def stacked_map(
    profile: StrategyProfile, prior: FinitePrior, spec: GameSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the first-order operator of the finite-prior game.

    Returns the probability-weighted learner gradient (shape (m,)) and the
    unweighted generator block for each atom (shape (K, n, m)).
    """
    _check_profile(profile, prior, spec)
    w, sigma = profile.w, profile.sigma
    rows, out = np.empty((prior.num_atoms, spec.m)), np.empty_like(sigma)
    _chunk_map(w, sigma, prior.atoms, spec, rows, out, None)
    return prior.probs @ rows, out


def _chunk_map(w, sigma, atoms, spec: GameSpec, rows, out, scratch) -> None:
    """The operator at a chunk of atoms, unchecked: each atom's learner gradient into
    ``rows`` (c, m), later weighted by ``probs @ rows``, and its generator block
    into ``out`` (c, n, m); ``scratch`` as in ``game._grad_adversary_X``."""
    margins = sigma @ w  # (c, n)
    rows[...] = _grad_learner_w(w, sigma, margins, spec)
    _grad_adversary_X(w, sigma, margins, atoms, spec, out, scratch)


def equilibrium_residual(profile: StrategyProfile, prior: FinitePrior, spec: GameSpec) -> float:
    """Squared natural-map residual at step 1; zero exactly at equilibria.

    The fixed step keeps values comparable across runs; for unconstrained
    sets this is the squared operator norm.  The operator is evaluated one
    chunk of atoms at a time, so no sigma-sized array is allocated.
    """
    _check_profile(profile, prior, spec)
    w, sigma = profile.w, profile.sigma
    chunks, out, scratch = _chunks(sigma, 2)
    rows = np.empty((prior.num_atoms, spec.m))
    block_sums: list[float] = []
    for s, c in chunks:
        _chunk_map(w, sigma[s], prior.atoms[s], spec, rows[s], out[:c], scratch[:c])
        _block_residuals(sigma[s], out[:c], scratch[:c], spec.adversary_set, block_sums)
    return _natural_residual(w, prior.probs @ rows, block_sums, spec)


def _block_residuals(sigma, t_sig, buf, action_set, block_sums: list) -> None:
    """Append each ``|sigma_k - project(sigma_k - t_sig_k)|^2``, the blocks' terms of
    the natural-map residual; unchecked, and ``buf`` (``sigma``'s shape) is overwritten."""
    np.subtract(sigma, t_sig, out=buf)
    for block in buf:
        _project(block, action_set)
    np.subtract(sigma, buf, out=buf)
    np.square(buf, out=buf)
    block_sums.extend(float(np.sum(block)) for block in buf)


def _natural_residual(w, t_w, block_sums, spec: GameSpec) -> float:
    """Squared natural-map residual at w from the learner map ``t_w`` there
    and the ``_block_residuals`` sums, which are added in atom order."""
    w_step = _project(w - t_w, spec.learner_set)
    total = float(np.sum((w - w_step) ** 2))
    for block_sum in block_sums:
        total += block_sum
    return total


def _projected_step(sigma, t_sig, gamma, action_set):
    """Blockwise ``project(sigma[k] - gamma * t_sig[k])``, written into ``t_sig``."""
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
    K = prior.num_atoms
    # the pair's profiles, redrawn by every trial; the map values and the
    # inner products are formed chunk by chunk into per-atom sums
    w = np.empty((2, spec.m))
    sigma = np.empty((2, K, spec.n, spec.m))
    chunks, scratch = _chunks(sigma[0], 1)
    t_sig = np.empty((2,) + scratch.shape)
    rows = np.empty((2, K, spec.m))
    sq_norms = np.empty((2, K))  # |t_sig_k|^2 of each profile
    sums = np.empty((3, K))  # <dsig_k, dsig_k>, <dsig_k, dtsig_k>, <dtsig_k, dtsig_k>

    def block_dots(u, v, out) -> None:  # <u_k, v_k> for each block of the chunk
        np.sum(np.multiply(u, v, out=scratch[: len(u)]), axis=(1, 2), out=out)

    lambda_hat = np.inf
    l_hat = 0.0
    g_hat = 0.0
    for _ in range(trials):
        for i in (0, 1):
            _draw_feasible_profile(rng, spec, w[i], sigma[i])
        for s, c in chunks:
            for i in (0, 1):
                _chunk_map(w[i], sigma[i, s], prior.atoms[s], spec, rows[i, s], t_sig[i, :c],
                           scratch[:c])
                block_dots(t_sig[i, :c], t_sig[i, :c], sq_norms[i, s])
            dsig = np.subtract(sigma[0, s], sigma[1, s], out=sigma[0, s])
            dtsig = np.subtract(t_sig[0, :c], t_sig[1, :c], out=t_sig[0, :c])
            block_dots(dsig, dsig, sums[0, s])
            block_dots(dsig, dtsig, sums[1, s])
            block_dots(dtsig, dtsig, sums[2, s])
        for i in (0, 1):
            g_hat = max(g_hat, float(np.max(np.linalg.norm(rows[i], axis=1))),
                        float(np.max(np.sqrt(sq_norms[i]))))
        dw = w[0] - w[1]
        den = float(dw @ dw + probs @ sums[0])
        if den < 1e-24:
            continue  # duplicate pair: quotient undefined
        dtw = probs @ rows[0] - probs @ rows[1]
        num = float(dw @ dtw + probs @ sums[1])
        tnorm = float(dtw @ dtw + probs @ sums[2])
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
    w_til_prev, w_til = init.w.copy(), init.w.copy()
    # sigma is kept in three stacks, one per iterate; each chunk's reflected
    # point and scratch live in chunk-sized buffers, and the next tilde point
    # is written over the previous one once the reflected point has read it
    til_a, til_b = init.sigma.copy(), init.sigma.copy()
    chunks, sig_ref, scratch = _chunks(sig_cur, 2)
    rows = np.empty((prior.num_atoms, spec.m))
    # per chunk: current, tilde, previous tilde, atoms, learner rows, reflected point, scratch
    views = [(sig_cur[s], til_a[s], til_b[s], prior.atoms[s], rows[s], sig_ref[:c], scratch[:c])
             for s, c in chunks]
    # the tilde stacks swap roles every iteration
    swapped = [(cur, prev, til, *rest) for cur, til, prev, *rest in views]
    gamma, probs = config.gamma, prior.probs
    for t in range(1, config.max_iters + 1):
        delta = 1.0 / t
        w_ref = 2.0 * w_til - w_til_prev
        for cur, til, til_prev, atoms, rows_c, ref, scr in views:
            np.multiply(2.0, til, out=ref)
            ref -= til_prev
            _chunk_map(w_ref, ref, atoms, spec, rows_c, til_prev, scr)
            _projected_step(cur, til_prev, gamma, spec.adversary_set)  # the next tilde point
            cur *= delta / 2.0
            cur += np.multiply(1.0 - delta, til_prev, out=scr)
        w_til_next = _project(w_cur - gamma * (probs @ rows), spec.learner_set)
        w_cur = (delta / 2.0) * w_cur + (1.0 - delta) * w_til_next
        w_til_prev, w_til = w_til, w_til_next
        views, swapped = swapped, views
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

    ``map_fn(w, sigma, out) -> t_w`` writes the generator blocks into
    ``out``, which does not alias ``sigma``.  Stops when the squared
    natural-map residual (``equilibrium_residual``'s) drops to ``tol``.
    Returns the profile and the number of iterations taken.  The map's value
    at each accepted point serves both the residual check and the next
    iteration's first step, so an iteration evaluates the map twice.  The
    loop keeps three sigma stacks: the iterate, the map's value there, and a
    third for the half step's map value and the next iterate.
    """
    w, sigma = x0.w.copy(), x0.sigma.copy()
    t_sig, free = np.empty_like(sigma), np.empty_like(sigma)
    chunks, buf = _chunks(sigma, 1)
    t_w = map_fn(w, sigma, t_sig)
    for it in range(max_iters + 1):
        block_sums: list[float] = []
        for s, c in chunks:
            _block_residuals(sigma[s], t_sig[s], buf[:c], spec.adversary_set, block_sums)
        residual = _natural_residual(w, t_w, block_sums, spec)
        if residual <= tol:
            return StrategyProfile(w=w, sigma=sigma), it
        if it == max_iters:
            break
        w_half = _project(w - gamma * t_w, spec.learner_set)
        sig_half = _projected_step(sigma, t_sig, gamma, spec.adversary_set)
        t_w_half = map_fn(w_half, sig_half, free)
        w = _project(w - gamma * t_w_half, spec.learner_set)
        # the next iterate goes into the half step's map value, the map there into the old iterate
        sigma, t_sig, free = _projected_step(sigma, free, gamma, spec.adversary_set), sigma, t_sig
        t_w = map_fn(w, sigma, t_sig)
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
    chunks, scratch = _chunks(init.sigma, 1)
    rows = np.empty((prior.num_atoms, spec.m))

    def map_fn(w, sigma, out):
        for s, c in chunks:
            _chunk_map(w, sigma[s], prior.atoms[s], spec, rows[s], out[s], scratch[:c])
        return prior.probs @ rows

    profile, _ = _extragradient_on_map(map_fn, init, spec, gamma, tol, max_iters)
    return profile

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
* ``extragradient`` -- two-projection extragradient with a backtracking step,
  run to a tolerance by ``extragradient_reference``, the oracle of all errors.

All three share one trace driver, ``_traced_run``, whose trace points evaluate
on the one ``_OperatorState`` that the solve's iterations run on.  The first
two assume the monotonicity modulus and Lipschitz constant are known:
``SolverConfig`` gives them, ``step_warnings`` checks a step against them and
``assumption_probe`` estimates them by sampling feasible profile pairs.
"""

from __future__ import annotations

import csv
import functools
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .game import (
    ConfigError,
    FinitePrior,
    GameSpec,
    SolverError,
    StrategyProfile,
    _check_count,
    _check_real,
    _check_shape,
    _chunk_plan,
    _gradients,
    _into_ball,
    _OperatorState,
    grad_adversary_X,  # noqa: F401 - perfbench's traced run rebinds these names here
    grad_learner_w,  # noqa: F401
    origin_profile,
    project,  # noqa: F401
)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, step size and bookkeeping knobs.

    ``gamma`` is the fixed step for prg_ie, the initial step (decayed as
    gamma/t) for pg_rbc and the first trial step of extragradient's
    backtracking.  ``tol`` > 0 enables early stopping on the
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
        _check_count(self.max_iters, "max_iters")
        _check_real(self.gamma, "gamma", "positive")  # required here, unlike in step_warnings
        _check_count(self.seed, "seed", 0)
        _check_real(self.tol, "tol", "nonnegative")
        _check_count(self.trace_every, "trace_every")
        _check_step(self.gamma, self.lipschitz, self.strong_monotonicity)


def _check_step(gamma, lipschitz, strong_monotonicity) -> None:
    """Reject a given (not None) step or constant out of range; lambda <= 0: non-monotone."""
    for value, name, sign in ((gamma, "gamma", "positive"), (lipschitz, "lipschitz", "nonnegative"),
                              (strong_monotonicity, "strong_monotonicity", "")):
        if value is not None:
            _check_real(value, name, sign)


@dataclass(frozen=True)
class TraceRecord:
    t: int
    residual: float
    error_to_reference: float | None
    wall_time_s: float


@dataclass
class SolverTrace:
    """A solver's run: one ``TraceRecord`` per trace point, the last iterate and
    whether a trace point's residual reached ``tol``; ``to_csv`` writes ``trace.csv``."""

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


@dataclass(frozen=True)
class AssumptionDiagnostics:
    """Sampled estimates of the operator's regularity constants."""

    lambda_hat: float
    L_hat: float
    trials: int
    seed: int


# --------------------------------------------------------------------------
# The stacked operator and its merit functions
# --------------------------------------------------------------------------


def _check_prior(prior: FinitePrior, n: int) -> None:
    """Reject a prior that is not finite, or whose atoms are not of dimension n."""
    if not isinstance(prior, FinitePrior):
        raise TypeError(f"expected a FinitePrior, got {type(prior).__name__}: see discretize_prior")
    prior._check_dimension(n)


def _check_profile(profile: StrategyProfile, prior: FinitePrior, n: int, m: int,
                   name: str = "profile") -> None:
    """Reject a prior that ``_check_prior`` rejects, or a ``name`` profile that is not one
    of K (n, m) blocks and a (m,) learner."""
    _check_prior(prior, n)
    _check_shape(profile.sigma, (prior.num_atoms, n, m), f"{name} sigma")
    _check_shape(profile.w, (m,), f"{name} w")


def _check_start(spec: GameSpec, prior: FinitePrior, reference) -> StrategyProfile:
    """A solver's origin start, after checking the prior and ``reference`` against the game."""
    _check_prior(prior, spec.n)
    if reference is not None:
        _check_profile(reference, prior, spec.n, spec.m, "reference")
    return origin_profile(spec, prior.num_atoms)


def stacked_map(
    profile: StrategyProfile, prior: FinitePrior, spec: GameSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the first-order operator of the finite-prior game.

    Returns the probability-weighted learner gradient (shape (m,)) and the
    unweighted generator block for each atom (shape (K, n, m)).
    """
    _check_profile(profile, prior, spec.n, spec.m)
    out = np.empty(profile.sigma.shape)  # C order
    state = _OperatorState.build(spec, prior.atoms, prior.probs)
    return _map(state, profile.w, profile.sigma, out), out


def _map(state: _OperatorState, w, sigma, out) -> np.ndarray:
    """The operator at (w, sigma), unchecked, one chunk of atoms at a time: the
    generator blocks into ``out`` and the probability-weighted learner gradient returned.

    Chunking changes no bit: each atom's block and row are formed alone, and
    ``probs @ rows`` runs over all K rows after the last chunk.
    """
    for s, _ in state.chunks:
        _gradients(state, w, sigma[s], state.chunk(s), state.rows[s], out[s])
    return state.probs @ state.rows


def equilibrium_residual(profile: StrategyProfile, prior: FinitePrior, spec: GameSpec) -> float:
    """Squared natural-map residual at step 1; zero exactly at equilibria.

    The fixed step keeps values comparable across runs; for unconstrained
    sets this is the squared operator norm.
    """
    _check_profile(profile, prior, spec.n, spec.m)
    return _residual(_OperatorState.build(spec, prior.atoms, prior.probs), profile.w, profile.sigma)


def _residual(state: _OperatorState, w, sigma) -> float:
    """``equilibrium_residual`` at (w, sigma), unchecked; the operator is evaluated one
    chunk of the state's atoms at a time, so no sigma-sized array is allocated, and
    the state's rows and scratch are overwritten."""
    t_sig = state.chunk_buffer()  # a chunk's map values
    block_sums: list[float] = []
    for s, c in state.chunks:
        _gradients(state, w, sigma[s], state.chunk(s), state.rows[s], t_sig[:c])
        _block_residuals(sigma[s], t_sig[:c], t_sig[:c], state.radii[1], block_sums)
    return _natural_residual(w, state.probs @ state.rows, block_sums, state.radii[0])


def _flat_blocks(stack) -> list:
    """Flat views of the (n, m) blocks of a C-contiguous stack, for ``_into_ball``."""
    return list(stack.reshape(len(stack), -1))


def _block_residuals(sigma, t_sig, buf, radius, block_sums: list) -> None:
    """Append each ``|sigma_k - project(sigma_k - t_sig_k)|^2``, the blocks' terms of
    the natural-map residual; unchecked, and ``buf`` (``sigma``'s shape, C-contiguous,
    possibly ``t_sig``) is overwritten."""
    np.subtract(sigma, t_sig, out=buf)
    for flat in buf.reshape(len(buf), -1):
        _into_ball(flat, flat, radius)
    np.subtract(sigma, buf, out=buf)
    np.square(buf, out=buf)
    block_sums.extend(float(np.sum(block)) for block in buf)


def _natural_residual(w, t_w, block_sums, radius) -> float:
    """Squared natural-map residual at w, in the learner's ball of ``radius``, from the
    learner map ``t_w`` there and the ``_block_residuals`` sums, added in atom order."""
    w_step = w - t_w
    _into_ball(w_step, w_step, radius)
    total = float(np.sum((w - w_step) ** 2))
    for block_sum in block_sums:
        total += block_sum
    return total


def _projected_step(sigma, t_sig, gamma, radius, out, flats):
    """Blockwise ``project(sigma[k] - gamma * t_sig[k])``, written into ``out``, whose
    blocks ``flats`` views flat."""
    np.multiply(gamma, t_sig, out=out)
    np.subtract(sigma, out, out=out)
    for flat in flats:
        _into_ball(flat, flat, radius)
    return out


def epsilon_distance(
    profile: StrategyProfile, reference: StrategyProfile, prior: FinitePrior
) -> float:
    """Squared equilibrium-approximation distance under the prior weights."""
    n, m = profile.sigma.shape[1:]
    _check_profile(profile, prior, n, m)
    _check_profile(reference, prior, n, m, "reference")
    return _epsilon_distance(profile, reference, prior.probs)


def _epsilon_distance(profile: StrategyProfile, reference: StrategyProfile, probs) -> float:
    """``epsilon_distance`` under the weights ``probs``, unchecked."""
    dw = profile.w - reference.w
    # one block's difference at a time, so no sigma-sized temporary is formed
    blocks = [float(np.sum(np.square(a - b))) for a, b in zip(profile.sigma, reference.sigma)]
    return float(dw @ dw + probs @ np.array(blocks))


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
        out *= action_set.radius * rng.random() ** (1.0 / out.size) / norm


def _draw_feasible_profile(rng: np.random.Generator, spec: GameSpec, w, sigma) -> None:
    """Draw a feasible profile into the buffers ``w`` (m,) and ``sigma`` (K, n, m)."""
    _random_feasible_point(rng, w, spec.learner_set)
    for block in sigma:
        _random_feasible_point(rng, block, spec.adversary_set)


def assumption_probe(
    spec: GameSpec, prior: FinitePrior, trials: int, seed: int
) -> AssumptionDiagnostics:
    """Estimate the monotonicity modulus and the Lipschitz constant by sampling.

    Each trial draws a pair of feasible profiles and evaluates the operator's
    monotonicity quotient under the probability-weighted inner product.  The
    reported lambda_hat is the smallest quotient seen (negative values flag a
    non-monotone instance); L_hat is the largest difference ratio seen.  These
    are sampled estimates: lambda_hat overestimates the true modulus and L_hat
    underestimates the supremum.
    """
    _check_prior(prior, spec.n)
    _check_count(trials, "trials", 2)
    _check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    K = prior.num_atoms
    # the pair's profiles, redrawn by every trial, with their learner rows and a
    # chunk's map values; the inner products are formed chunk by chunk into per-atom sums
    w = np.empty((2, spec.m))
    sigma = np.empty((2, K, spec.n, spec.m))
    state = _OperatorState.build(spec, prior.atoms, prior.probs)
    rows, maps = np.empty((2, K, spec.m)), state.chunk_buffer(2)
    sums = np.empty((3, K))  # <dsig_k, dsig_k>, <dsig_k, dtsig_k>, <dtsig_k, dtsig_k>

    def block_dots(u, v, out) -> None:  # <u_k, v_k> for each block of the chunk
        scratch = state.buffers[len(u)][1]  # free between kernel calls
        np.sum(np.multiply(u, v, out=scratch), axis=(1, 2), out=out)

    lambda_hat = np.inf
    l_hat = 0.0
    # an overflow shows as a non-finite quotient, reported below; numpy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(trials):
            for i in (0, 1):
                _draw_feasible_profile(rng, spec, w[i], sigma[i])
            for s, c in state.chunks:
                t_sig = maps[:, :c]
                for i in (0, 1):
                    _gradients(state, w[i], sigma[i, s], state.chunk(s), rows[i, s], t_sig[i])
                dsig = np.subtract(sigma[0, s], sigma[1, s], out=sigma[0, s])
                dtsig = np.subtract(t_sig[0], t_sig[1], out=t_sig[0])
                block_dots(dsig, dsig, sums[0, s])
                block_dots(dsig, dtsig, sums[1, s])
                block_dots(dtsig, dtsig, sums[2, s])
            dw = w[0] - w[1]
            den = float(dw @ dw + state.probs @ sums[0])
            if den < 1e-24:
                continue  # duplicate pair: quotient undefined
            dtw = state.probs @ rows[0] - state.probs @ rows[1]
            num = float(dw @ dtw + state.probs @ sums[1])
            tnorm = float(dtw @ dtw + state.probs @ sums[2])
            if not (math.isfinite(num / den) and math.isfinite(tnorm / den)):  # min, max skip NaN
                raise SolverError(f"non-finite quotient of a sampled pair: {num}/{den}, "
                                  f"{tnorm}/{den}")
            lambda_hat = min(lambda_hat, num / den)
            l_hat = max(l_hat, np.sqrt(tnorm / den))
    if not np.isfinite(lambda_hat):
        raise SolverError("all sampled profile pairs were duplicates")
    return AssumptionDiagnostics(
        lambda_hat=float(lambda_hat),
        L_hat=float(l_hat),
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
    lambda.  With neither constant, the one message says so.  A given value out of
    its range is a ``FieldError``.
    """
    _check_step(gamma, lipschitz, strong_monotonicity)
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


def _trace_point(records, t, profile, state, reference, start_time, residual=None) -> float:
    """Append the trace record of ``profile``, evaluated unchecked on the solve's
    ``state``: its residual unless given, and its distance to ``reference``."""
    if residual is None:
        residual = _residual(state, profile.w, profile.sigma)
    if not math.isfinite(residual):
        last = records[-1].residual if records else None
        raise SolverError(f"diverged at t={t}: residual {residual}, last finite residual {last}")
    err = None if reference is None else _epsilon_distance(profile, reference, state.probs)
    records.append(TraceRecord(t, residual, err, time.perf_counter() - start_time))
    return residual


def _traced_run(iterates, config: SolverConfig, state, reference) -> SolverTrace:
    """Trace the ``(w, sigma)`` or ``(w, sigma, residual)`` that ``iterates`` yields
    after each iteration, on the ``state`` the iterates run on (None if they yield
    residuals and there is no reference); a yielded residual spares the trace point
    an evaluation.

    Trace points are t = 1, every ``trace_every`` and the last iteration.
    With ``tol`` > 0 the run stops, ``converged``, at the first trace point
    whose residual is at most ``tol``.  A solver may update the arrays it
    yielded in place on its next iteration, so each is used before the next.
    """
    start = time.perf_counter()
    records: list[TraceRecord] = []
    # an overflow or NaN shows as a non-finite residual, which the trace point
    # reports as divergence; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (w, sigma, *known) in enumerate(iterates, start=1):
            if t == 1 or t % config.trace_every == 0 or t == config.max_iters:
                profile = StrategyProfile(w=w, sigma=sigma)
                residual = _trace_point(records, t, profile, state, reference, start, *known)
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
        raise ConfigError("prg_ie requires bounded l2_ball action sets for both players")
    init = _check_start(spec, prior, reference)
    for message in step_warnings(config.gamma, lipschitz=config.lipschitz):
        warnings.warn(message, stacklevel=2)
    state = _OperatorState.build(spec, prior.atoms, prior.probs)
    return _traced_run(_prg_ie_iterates(init, state, config), config, state, reference)


def _prg_ie_iterates(init, state: _OperatorState, config: SolverConfig):
    w_radius, sig_radius = state.radii
    w_cur, sig_cur = init.w, init.sigma
    w_til_prev, w_til = init.w.copy(), init.w.copy()
    # sigma is kept in three stacks, one per iterate; each chunk's reflected
    # point lives in one chunk-sized buffer, and the next tilde point is
    # written over the previous one once the reflected point has read it
    til_a, til_b = init.sigma.copy(), init.sigma.copy()
    reflected = state.chunk_buffer()
    # per parity of t, as the tilde stacks swap roles every iteration, and per
    # chunk: current, tilde, previous tilde and its flat blocks, slope weights,
    # learner rows and reflected point
    views = [[(sig_cur[s], til[s], prev[s], _flat_blocks(prev[s]), state.chunk(s),
               state.rows[s], reflected[:c]) for s, c in state.chunks]
             for til, prev in ((til_b, til_a), (til_a, til_b))]
    gamma = config.gamma
    for t in range(1, config.max_iters + 1):
        delta = 1.0 / t
        w_ref = 2.0 * w_til - w_til_prev
        for cur, til, til_prev, flats, weights, rows, ref in views[t % 2]:
            np.multiply(2.0, til, out=ref)
            ref -= til_prev
            _gradients(state, w_ref, ref, weights, rows, til_prev)
            _projected_step(cur, til_prev, gamma, sig_radius, til_prev, flats)  # new tilde
            cur *= delta / 2.0
            cur += np.multiply(1.0 - delta, til_prev, out=ref)  # the kernel has read ref
        w_til_next = w_cur - gamma * (state.probs @ state.rows)
        _into_ball(w_til_next, w_til_next, w_radius)
        w_cur = (delta / 2.0) * w_cur + (1.0 - delta) * w_til_next
        w_til_prev, w_til = w_til, w_til_next
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
    init = _check_start(spec, prior, reference)
    for message in step_warnings(config.gamma, strong_monotonicity=config.strong_monotonicity):
        warnings.warn(message, stacklevel=2)
    state = _OperatorState.build(spec, prior.atoms, prior.probs, chunk_len=1)
    return _traced_run(_pg_rbc_iterates(init, state, config), config, state, reference)


# pg_rbc draws its atom indices this many at a time, so that its memory does
# not grow with max_iters; consecutive draws equal one draw of their total size
_PG_RBC_DRAW_BLOCK = 4096


def _atom_draws(rng, probs, count):
    for start in range(0, count, _PG_RBC_DRAW_BLOCK):
        size = min(_PG_RBC_DRAW_BLOCK, count - start)
        # Python ints: indexing a stack by one is cheaper than by a numpy integer
        yield from rng.choice(len(probs), size=size, p=probs).tolist()


def _pg_rbc_iterates(init, state: _OperatorState, config: SolverConfig):
    indices = _atom_draws(np.random.default_rng(config.seed), state.probs, config.max_iters)

    w_radius, sig_radius = state.radii
    w_cur, sig_cur = init.w, init.sigma
    # per atom: its block of sig_cur, the block's flat view and its slope weights
    blocks, flats, weights = list(sig_cur), _flat_blocks(sig_cur), list(state.weights)
    # w_next takes each step's learner, then swaps with w_cur; step, a block
    w_next, step = np.empty_like(w_cur), np.empty(state.X.shape)
    for t, j in enumerate(indices):
        gamma_t = config.gamma if t == 0 else config.gamma / t
        sig_j = blocks[j]
        _gradients(state, w_cur, sig_j, weights[j], w_next, step)
        w_next *= gamma_t
        np.subtract(w_cur, w_next, out=w_next)
        _into_ball(w_next, w_next, w_radius)
        step *= gamma_t
        sig_j -= step
        _into_ball(sig_j, flats[j], sig_radius)  # block j of sig_cur, in place
        w_cur, w_next = w_next, w_cur
        yield w_cur, sig_cur


def extragradient(
    spec: GameSpec,
    prior: FinitePrior,
    config: SolverConfig,
    reference: StrategyProfile | None = None,
) -> SolverTrace:
    """Extragradient from the origin with ``_extragradient_iterates``' backtracking
    step, ``config.gamma`` its first trial; no Lipschitz constant is needed."""
    init = _check_start(spec, prior, reference)
    state = _OperatorState.build(spec, prior.atoms, prior.probs)
    iterates = _extragradient_iterates(functools.partial(_map, state), init, spec, config.gamma,
                                       config.max_iters)
    return _traced_run(iterates, config, state, reference)


def _extragradient_iterates(map_fn, x0: StrategyProfile, spec: GameSpec, gamma, max_iters):
    """Extragradient from ``x0`` (updated in place) on ``map_fn(w, sigma, out) -> t_w``,
    which writes the generator blocks into ``out``, never aliasing ``sigma``.

    Each step y = P(x - gamma F(x)), x = P(x - gamma F(y)) halves the trial
    gamma, at most 60 times, until gamma |F(x) - F(y)| <= 0.9 |x - y| over
    (w, sigma) (Khobotov 1987); grows it by 1.5 unless y = x, a solution.  Yields
    ``(w, sigma, residual)``; the map at the new x serves the residual and
    the next step, so a step costs two map calls plus one per halving.
    """
    w, sigma = x0.w, x0.sigma
    t_sig, half, t_half = (np.empty_like(sigma) for _ in range(3))
    chunks = _chunk_plan(len(sigma), sigma[0].nbytes)
    buf = np.empty((chunks[0][1],) + sigma.shape[1:])
    w_radius, sig_radius = spec.learner_set.radius, spec.adversary_set.radius
    half_flats = _flat_blocks(half)
    t_w = map_fn(w, sigma, t_sig)
    for t in range(1, max_iters + 1):
        for _ in range(61):  # the first trial and 60 halvings
            w_half = w - gamma * t_w
            _into_ball(w_half, w_half, w_radius)
            _projected_step(sigma, t_sig, gamma, sig_radius, half, half_flats)
            t_w_half = map_fn(w_half, half, t_half)
            moved = _squared_distance(w, w_half, sigma, half, chunks, buf)
            change = _squared_distance(t_w, t_w_half, t_sig, t_half, chunks, buf)
            if gamma * math.sqrt(change) <= 0.9 * math.sqrt(moved):
                break
            gamma /= 2.0
        else:
            raise SolverError(f"extragradient found no step at t={t} within 60 halvings: "
                              f"squared distances {change:.6e} (map), {moved:.6e} (iterate)")
        w = w - gamma * t_w_half
        _into_ball(w, w, w_radius)
        # the new x is written over the map at y; the old x's array takes the next one
        sigma, t_half = _projected_step(sigma, t_half, gamma, sig_radius, t_half,
                                        t_half.reshape(len(t_half), -1)), sigma
        t_w = map_fn(w, sigma, t_sig)
        block_sums: list[float] = []
        for s, c in chunks:
            _block_residuals(sigma[s], t_sig[s], buf[:c], sig_radius, block_sums)
        if moved > 0:
            gamma *= 1.5
        yield w, sigma, _natural_residual(w, t_w, block_sums, w_radius)


def _squared_distance(w, w2, sigma, sigma2, chunks, buf) -> float:
    """``|w - w2|^2`` plus each ``|sigma_k - sigma2_k|^2``, added in atom order."""
    total = float(np.sum((w - w2) ** 2))
    for s, c in chunks:
        for block in np.square(np.subtract(sigma[s], sigma2[s], out=buf[:c]), out=buf[:c]):
            total += float(np.sum(block))
    return total


def _converged(trace: SolverTrace, config: SolverConfig) -> SolverTrace:
    if not trace.converged:
        raise SolverError(f"extragradient did not reach tol={config.tol:g} within "
                          f"{config.max_iters} iterations; last residual "
                          f"{trace.iterations[-1].residual:.6e}")
    return trace


def _extragradient_on_map(map_fn, x0: StrategyProfile, spec: GameSpec, gamma: float, tol: float,
                          max_iters: int) -> tuple[StrategyProfile, int]:
    """``_extragradient_iterates`` from a copy of ``x0`` until the residual is at most
    ``tol``: the profile and the iterations taken, or ``SolverError``."""
    config = SolverConfig(max_iters=max_iters, gamma=gamma, tol=tol, trace_every=1)
    iterates = _extragradient_iterates(map_fn, x0.copy(), spec, gamma, max_iters)
    trace = _converged(_traced_run(iterates, config, None, None), config)
    return trace.final_profile, trace.iterations[-1].t


def extragradient_reference(
    spec: GameSpec, prior: FinitePrior, tol: float, max_iters: int = 200_000
) -> StrategyProfile:
    """High-precision equilibrium oracle: ``extragradient`` with a first trial step of
    1 until the squared natural-map residual is at most ``tol``; ``SolverError``
    (naming the last residual) if it is not reached."""
    _check_real(tol, "tol", "positive")
    config = SolverConfig(max_iters=max_iters, gamma=1.0, tol=tol, trace_every=1)
    return _converged(extragradient(spec, prior, config), config).final_profile

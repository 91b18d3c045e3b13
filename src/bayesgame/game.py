"""Game instances for adversarial regression: costs, gradients, projections, priors.

A game couples a learner (regression weights ``w``) with a data generator
that perturbs the training matrix ``X`` into ``Xbar``.  The generator's
per-instance weights ``c_d`` are uncertain to the learner and modelled by a
prior.  Everything here is a pure function of its inputs; randomness enters
only through explicit seeds.

Inputs are checked once, at the public boundary: the constructors and the
public functions call one ``_check_*`` helper per rule, which raises a
``FieldError`` naming the field.  The solver loops then run the unchecked
kernels (``_slopes``, ``_gradients``, ``_into_ball``) on an ``_OperatorState``
built once per call, so each formula has one implementation.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Literal

import numpy as np


class LossKind(str, enum.Enum):
    """Pointwise loss f(w, x, t) applied per instance.

    QUADRATIC: (x.w - t)^2.  LOGISTIC: log(1 + exp(-t * x.w)), targets in {-1, +1}.
    """

    QUADRATIC = "quadratic"
    LOGISTIC = "logistic"


@dataclass(frozen=True)
class ActionSet:
    """A feasible set: all of R^d, or a centered L2/Frobenius ball."""

    kind: Literal["unconstrained", "l2_ball"]
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in ("unconstrained", "l2_ball"):
            raise FieldError("kind", f"must be unconstrained or l2_ball, got {self.kind!r}")
        if self.kind == "l2_ball":
            _check_real(self.radius, "radius", "positive")
        elif self.radius is not None:
            raise FieldError("radius", "must be left out for an unconstrained set")

    @property
    def bounded(self) -> bool:
        return self.kind == "l2_ball"

    @staticmethod
    def unconstrained() -> "ActionSet":
        return ActionSet("unconstrained")

    @staticmethod
    def l2_ball(radius: float) -> "ActionSet":
        _check_real(radius, "radius", "positive")  # before float() turns True into 1.0
        return ActionSet("l2_ball", float(radius))


def project(point: np.ndarray, action_set: ActionSet) -> np.ndarray:
    """Euclidean projection onto the set (Frobenius norm for matrices); a new array."""
    point = np.array(point, dtype=float)
    return _into_ball(point, point.ravel(order="K"), action_set.radius)


def _into_ball(point: np.ndarray, flat: np.ndarray, radius: float | None) -> np.ndarray:
    """Project ``point`` onto the centered ball of ``radius``, or onto all of R^d when
    ``radius`` is None, in place and unchecked; returns ``point``.

    Callers pass a temporary or a buffer they own: ``point`` is scaled only
    when it lies outside the ball.  ``flat`` holds the entries of ``point`` in
    one dimension, as a view or a copy; the solver loops pass a flat view
    built once, so that a projection is one norm.  A NaN norm scales
    ``point`` to NaN.
    """
    if radius is not None:
        norm = math.sqrt(flat.dot(flat))  # what np.linalg.norm computes, without its dispatch
        if not norm <= radius:
            point *= radius / norm
    return point


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # numerically stable logistic function: exp only of nonpositive arguments
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


class SolverError(RuntimeError):
    """A solver failed to produce a usable result."""


class ConfigError(ValueError):
    """Malformed configuration document, or a game that a solver cannot handle."""


class FieldError(ValueError):
    """An argument that is invalid on its own: ``field`` names it, ``problem`` says why."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field, self.problem = field, problem


def _check_count(value, name: str, low: int = 1) -> None:
    """Reject a count or seed that is not an integer of at least ``low``: a float, or a
    bool, which Python counts as one, is not a count; a numpy integer is."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise FieldError(name, f"must be an integer, got {value!r}")
    if value < low:
        raise FieldError(name, f"must be >= {low}")


def _check_real(value, name: str, sign: str = "") -> None:
    """Reject a value that is not a finite real number (a bool is not one), or that is
    not ``sign``: "positive", "nonnegative", or "" for either sign."""
    real = not isinstance(value, bool) and isinstance(value, numbers.Real)
    if (not (real and math.isfinite(value)) or (sign == "positive" and value <= 0)
            or (sign == "nonnegative" and value < 0)):
        raise FieldError(name, f"must be {sign} and finite" if sign else "must be finite")


def _check_shape(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` as a float array, or ``FieldError`` if its shape is not ``shape``."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise FieldError(name, f"has shape {value.shape}, expected {shape}")
    return value


def _check_w(value, shape: tuple, name: str) -> np.ndarray:
    """``_check_shape`` for a weight vector, then ``FieldError`` unless its squared norm
    ``value @ value`` is finite.  That one test rejects NaN and inf entries and entries
    whose squares overflow, which the closed-form response would turn into NaN."""
    value = _check_shape(value, shape, name)
    with np.errstate(over="ignore"):  # the overflow is what this rejects
        if not math.isfinite(value @ value):
            raise FieldError(name, "must have a finite squared norm")
    return value


def _check_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise FieldError(name, "must be finite elementwise")


def _check_matrix(value, name: str) -> np.ndarray:
    """``value`` as a finite float matrix with n, m >= 1, or ``FieldError``."""
    value = np.asarray(value, dtype=float)
    if value.ndim != 2 or value.shape[0] < 1 or value.shape[1] < 1:
        raise FieldError(name, "must be a matrix with n, m >= 1")
    _check_finite(value, name)
    return value


def _check_signs(values: np.ndarray, name: str) -> None:
    if not np.all(np.isin(values, (-1.0, 1.0))):
        raise FieldError(name, "must take values in {-1, +1} for logistic loss")


@dataclass(frozen=True)
class GameSpec:
    """One empirical game instance.

    ``X`` is the n-by-m training matrix, ``y`` the learner's targets, ``z``
    the generator's targeted predictions, ``c_l`` the learner's nonnegative
    instance weights.  ``reg_l`` scales the learner's ridge penalty
    ``|w|^2``; the generator's perturbation penalty ``|X - Xbar|_F^2``
    carries a fixed unit coefficient, so generators are rescaled through
    ``c_d`` rather than through the penalty.
    """

    X: np.ndarray
    y: np.ndarray
    z: np.ndarray
    c_l: np.ndarray
    learner_loss: LossKind = LossKind.QUADRATIC
    adversary_loss: LossKind = LossKind.QUADRATIC
    learner_set: ActionSet = field(default_factory=ActionSet.unconstrained)
    adversary_set: ActionSet = field(default_factory=ActionSet.unconstrained)
    reg_l: float = 1.0

    def __post_init__(self):
        for name in ("learner_loss", "adversary_loss"):  # a kind's value, such as "logistic"
            try:
                object.__setattr__(self, name, LossKind(getattr(self, name)))
            except ValueError:
                raise FieldError(name, "must be quadratic or logistic") from None
        object.__setattr__(self, "X", _check_matrix(self.X, "X"))
        for name in ("y", "z", "c_l"):
            object.__setattr__(self, name, _check_shape(getattr(self, name), (self.n,), name))
        _check_finite(self.y, "y")
        _check_finite(self.z, "z")
        _check_weights(self.c_l, "c_l")
        _check_real(self.reg_l, "reg_l", "nonnegative")
        if self.learner_loss is LossKind.LOGISTIC:
            _check_signs(self.y, "y")
        if self.adversary_loss is LossKind.LOGISTIC:
            _check_signs(self.z, "z")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


def _check_cd(c_d: np.ndarray, n: int) -> np.ndarray:
    c_d = _check_shape(c_d, (n,), "c_d")
    _check_weights(c_d, "c_d")
    return c_d


def _check_weights(values: np.ndarray, name: str) -> None:
    """Reject negative, NaN and infinite weights (``min`` is NaN if any entry is)."""
    if values.size and not 0 <= values.min() <= values.max() < math.inf:
        raise FieldError(name, "must be nonnegative and finite elementwise")


def _check_weight_rows(values: np.ndarray, n: int, name: str) -> None:
    """Reject anything but a nonempty (rows, n) float matrix of ``_check_weights`` weights."""
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] != n:
        raise FieldError(name, f"must be a nonempty matrix with {n} columns, "
                               f"got shape {values.shape}")
    _check_weights(values, name)


def _loss(kind: LossKind, margins: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-instance loss at the margins ``x.w`` against targets ``t``; unchecked, broadcasts."""
    if kind is LossKind.QUADRATIC:
        return (margins - t) ** 2
    return np.logaddexp(0.0, -t * margins)  # log(1 + exp(-t x.w)) without overflow


def _loss_slope(kind: LossKind, margins: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
    """Derivative of ``_loss`` in the margins, into ``out`` if given; unchecked, broadcasts."""
    if kind is LossKind.QUADRATIC:
        slope = np.subtract(margins, t, out=out)
        slope *= 2.0
        return slope
    return np.multiply(-t, _sigmoid(-t * margins), out=out)


def learner_cost(w: np.ndarray, Xbar: np.ndarray, spec: GameSpec) -> float:
    """Weighted empirical loss of the learner plus ridge penalty."""
    w, Xbar = _check_shape(w, (spec.m,), "w"), _check_shape(Xbar, spec.X.shape, "Xbar")
    per_instance = _loss(spec.learner_loss, Xbar @ w, spec.y)
    return float(spec.c_l @ per_instance + spec.reg_l * (w @ w))


def adversary_cost(
    w: np.ndarray, Xbar: np.ndarray, c_d: np.ndarray, spec: GameSpec
) -> float:
    """Generator's targeting loss plus the Frobenius perturbation penalty."""
    w, Xbar = _check_shape(w, (spec.m,), "w"), _check_shape(Xbar, spec.X.shape, "Xbar")
    c_d = _check_cd(c_d, spec.n)
    per_instance = _loss(spec.adversary_loss, Xbar @ w, spec.z)
    diff = Xbar - spec.X
    return float(c_d @ per_instance + np.sum(diff * diff))


def grad_learner_w(w: np.ndarray, Xbar: np.ndarray, spec: GameSpec) -> np.ndarray:
    """Analytic gradient of ``learner_cost`` in ``w``."""
    w, Xbar = _check_shape(w, (spec.m,), "w"), _check_shape(Xbar, spec.X.shape, "Xbar")
    return _gradients_at(w, Xbar, np.zeros(spec.n), spec)[0]


def grad_adversary_X(
    w: np.ndarray, Xbar: np.ndarray, c_d: np.ndarray, spec: GameSpec
) -> np.ndarray:
    """Analytic gradient of ``adversary_cost`` in ``Xbar`` (n-by-m)."""
    w, Xbar = _check_shape(w, (spec.m,), "w"), _check_shape(Xbar, spec.X.shape, "Xbar")
    return _gradients_at(w, Xbar, _check_cd(c_d, spec.n), spec)[1]


def _gradients_at(w, Xbar, c_d, spec: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """Both players' gradients at one checked matrix ``Xbar`` against weights ``c_d``,
    in new arrays."""
    state, out = _OperatorState.build(spec, c_d[None, :], np.ones(1)), np.empty(Xbar.shape)
    _gradients(state, w, Xbar, state.weights[0], state.rows[0], out)
    return state.rows[0], out


# Passes over sigma run on chunks of atoms whose blocks fit in a core's L2 cache
_CHUNK_BYTES = 256 * 1024


def _chunk_plan(K: int, block_bytes: int, size: int = 0) -> list[tuple[slice, int]]:
    """Consecutive ``(slice, length)`` chunks of K atoms, ``size`` atoms each or by
    default as many blocks of ``block_bytes`` as fit ``_CHUNK_BYTES``, at least one;
    the first is the largest."""
    size = size or max(1, _CHUNK_BYTES // block_bytes)
    return [(slice(lo, min(lo + size, K)), min(size, K - lo)) for lo in range(0, K, size)]


@dataclass(frozen=True, slots=True)
class _OperatorState:
    """What the operator kernels reuse across one solve of a game on K atoms.

    A quadratic player's loss slope is ``2 (x.w - t)``; its 2 is folded into
    the weights, which is exact: ``(x.w - t) (2 c)`` rounds as ``((x.w - t) 2) c``
    does, since doubling a float changes only its exponent.  Atom k's weights
    ``weights[k]`` are one contiguous (2, n) array, laid out as a block's
    slopes are.  The two roundings can differ only where ``(x.w - t) 2`` or
    ``2 c`` overflows, past 8.9e307, in a run that has diverged already.
    """

    X: np.ndarray
    targets: np.ndarray  # (2, n): the learner's y over the generator's z
    weights: np.ndarray  # (K, 2, n): c_l over each atom's c_d, doubled for a quadratic loss
    logistic: tuple[int, ...]  # the players, 0 learner and 1 generator, with a logistic loss
    two_reg: float  # 2 reg_l
    radii: tuple  # the learner's and the generator's radius, None when unconstrained
    chunks: list  # the ``_chunk_plan`` of the K atoms
    buffers: dict  # the kernel's slopes and scratch by stack length, 0 for one matrix
    rows: np.ndarray  # (K, m) the learner's gradient against each atom
    probs: np.ndarray  # (K,) the atoms' probabilities, which weight ``rows`` and distances

    @classmethod
    def build(cls, spec: GameSpec, atoms: np.ndarray, probs: np.ndarray,
              chunk_len: int = 0) -> "_OperatorState":
        """The state for ``spec`` at the (K, n) weight vectors ``atoms`` of probabilities ``probs``.

        Its chunks hold ``chunk_len`` atoms, by default as many as fit ``_CHUNK_BYTES``;
        the kernel's scratch holds one chunk, so a loop that evaluates one block at a
        time asks for 1.  A loop that writes a chunk's map values takes a
        ``chunk_buffer``; the state holds none.
        """
        (K, n), m = atoms.shape, spec.m
        losses = (spec.learner_loss, spec.adversary_loss)
        weights = np.empty((K, 2, n))
        weights[:, 0], weights[:, 1] = spec.c_l, atoms
        for player, loss in enumerate(losses):
            if loss is LossKind.QUADRATIC:
                weights[:, player] *= 2.0
        chunks = _chunk_plan(K, n * m * 8, chunk_len)
        size = chunks[0][1]
        coef, scratch = np.empty((2, size, n)), np.empty((size, n, m))
        buffers = {c: (coef[:, :c], scratch[:c]) for _, c in chunks}
        buffers[0] = np.empty((2, n)), scratch[0]  # contiguous: a strided view costs pg_rbc 7%
        return cls(spec.X, np.stack([spec.y, spec.z]), weights,
                   tuple(p for p, loss in enumerate(losses) if loss is LossKind.LOGISTIC),
                   2.0 * spec.reg_l, (spec.learner_set.radius, spec.adversary_set.radius),
                   chunks, buffers, np.empty((K, m)), probs)

    def chunk(self, atoms: slice) -> np.ndarray:
        """The (2, c, n) slope weights of a chunk of atoms, laid out as its slopes are."""
        return self.weights[atoms].swapaxes(0, 1)

    def chunk_buffer(self, *lead: int) -> np.ndarray:
        """A new (*lead, c, n, m) buffer for the map values of a chunk, c its largest length."""
        return np.empty(lead + (self.chunks[0][1],) + self.X.shape)


def _slopes(state: _OperatorState, margins, weights, out) -> None:
    """Both players' weighted loss slopes at ``margins`` (..., n), unchecked: the
    learner's into ``out[0]`` and the generator's into ``out[1]``, ``out`` and
    ``weights`` of shape (2, ..., n)."""
    targets = state.targets if margins.ndim == 1 else state.targets[:, None, :]
    np.subtract(margins, targets, out=out)  # a quadratic slope, less its 2
    for player in state.logistic:
        _loss_slope(LossKind.LOGISTIC, margins, targets[player], out=out[player])
    out *= weights


def _gradients(state: _OperatorState, w, Xbar, weights, row, out) -> None:
    """Both players' gradients at one matrix ``Xbar`` (n, m) or each of a stack
    (c, n, m) as long as one of the state's chunks, unchecked.

    ``weights`` (2, ..., n) are the slope weights of the matrices, from
    ``state.weights``.  The learner's gradient goes into ``row`` ((m,) or
    (c, m)) and the generator's into ``out`` (``Xbar``'s shape, C-contiguous,
    so that its (rows, m) reshape is a view); the state's slopes and scratch are
    overwritten.  No buffer may alias ``Xbar``.  ``np.einsum`` forms the rank-one
    term with the same values and as fast at desk size, but its fixed cost loses
    on fixture-sized blocks.
    """
    # the rank-one term coef_i w_j of every row is one (rows, 1) x (1, m) BLAS
    # product: each entry is the one product, as a broadcast multiply gives it
    # (+0.0 where that gives -0.0), without the broadcast's inner-loop call per row
    if Xbar.ndim == 2:
        coef, scratch = state.buffers[0]
        _slopes(state, Xbar.dot(w), weights, coef)
        coef[0].dot(Xbar, out=row)
        coef[1, :, None].dot(w[None, :], out=out)
    else:  # on a stack ndarray.dot sums in another order than matmul
        coef, scratch = state.buffers[len(Xbar)]
        _slopes(state, Xbar @ w, weights, coef)
        np.matmul(coef[0][:, None, :], Xbar, out=row[:, None, :])
        coef[1].reshape(-1, 1).dot(w[None, :], out=out.reshape(-1, w.size))
    row += state.two_reg * w
    np.subtract(Xbar, state.X, out=scratch)
    scratch *= 2.0
    out += scratch


# --------------------------------------------------------------------------
# Priors over the generator's instance weights c_d
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FinitePrior:
    """Discrete prior: K atom vectors (rows of ``atoms``) with probabilities."""

    atoms: np.ndarray  # (K, n)
    probs: np.ndarray  # (K,)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 2:
            raise FieldError("atoms", f"must be a (K, n) matrix, got shape {atoms.shape}")
        probs = _check_shape(self.probs, atoms.shape[:1], "probs")
        if not np.all(probs > 0):
            raise FieldError("probs", "must hold strictly positive probabilities")
        total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise FieldError("probs", f"sum to {total}, not 1")
        _check_weights(atoms, "atoms")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @property
    def num_atoms(self) -> int:
        return self.atoms.shape[0]

    def _check_dimension(self, n: int) -> None:
        if self.atoms.shape[1] != n:
            raise FieldError("atoms", f"have dimension {self.atoms.shape[1]}, expected {n}")

    def draw(self, rng: np.random.Generator, n: int, num_samples: int) -> np.ndarray:
        self._check_dimension(n)
        idx = rng.choice(self.num_atoms, size=num_samples, p=self.probs)
        return self.atoms[idx]  # a fresh array: fancy indexing copies

    def mean_vector(self, n: int) -> np.ndarray:
        self._check_dimension(n)
        return self.probs @ self.atoms


@dataclass(frozen=True)
class GaussianPrior:
    """i.i.d. per-coordinate normal; draws are clamped at 0 downstream."""

    mean: float
    std: float

    def __post_init__(self):
        _check_real(self.mean, "mean")
        _check_real(self.std, "std", "positive")

    def draw(self, rng: np.random.Generator, n: int, num_samples: int) -> np.ndarray:
        return rng.normal(self.mean, self.std, size=(num_samples, n))

    def mean_vector(self, n: int) -> np.ndarray:
        return np.full(n, self.mean)


@dataclass(frozen=True)
class GammaPrior:
    """i.i.d. per-coordinate Gamma(shape, scale), mean shape * scale; nonnegative draws."""

    shape: float
    scale: float

    def __post_init__(self):
        _check_real(self.shape, "shape", "positive")
        _check_real(self.scale, "scale", "positive")

    def draw(self, rng: np.random.Generator, n: int, num_samples: int) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, size=(num_samples, n))

    def mean_vector(self, n: int) -> np.ndarray:
        return np.full(n, self.shape * self.scale)


@dataclass(frozen=True)
class LogNormalPrior:
    """i.i.d. per-coordinate lognormal: exp of a normal(mu, sigma) draw; positive draws."""

    mu: float
    sigma: float

    def __post_init__(self):
        _check_real(self.mu, "mu")
        _check_real(self.sigma, "sigma", "positive")

    def draw(self, rng: np.random.Generator, n: int, num_samples: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=(num_samples, n))

    def mean_vector(self, n: int) -> np.ndarray:
        return np.full(n, math.exp(self.mu + 0.5 * self.sigma**2))


# A prior over the generator's weights c_d: any of the four families.
Prior = FinitePrior | GaussianPrior | GammaPrior | LogNormalPrior


# The one table of prior families, keyed by their JSON name: labels, JSON
# codecs and type dispatch all read it.
_PRIOR_FAMILIES = {"finite": FinitePrior, "gaussian": GaussianPrior, "gamma": GammaPrior,
                   "lognormal": LogNormalPrior}


def _prior_family(prior: Prior) -> str:
    """The JSON name of the prior's family."""
    for name, cls in _PRIOR_FAMILIES.items():
        if isinstance(prior, cls):
            return name
    raise TypeError(f"unknown prior type {type(prior)!r}")


def prior_mean(prior: Prior, n: int) -> np.ndarray:
    """Coordinatewise mean of the prior, clamped to be nonnegative."""
    return np.maximum(prior.mean_vector(n), 0.0)


def sample_prior(prior: Prior, n: int, num_samples: int, seed: int) -> np.ndarray:
    """Draw ``num_samples`` weight vectors, clamped at 0, deterministically.

    Returns an array of shape (num_samples, n); row s is one draw of c_d.
    """
    _check_count(n, "n")
    _check_count(num_samples, "num_samples")
    _check_count(seed, "seed", 0)
    return _clamped_draws(prior, np.random.default_rng(seed), n, num_samples)


def _clamped_draws(prior: Prior, rng: np.random.Generator, n: int,
                   num_samples: int) -> np.ndarray:
    """``prior.draw`` clamped at 0 in place: every ``draw`` returns a fresh array."""
    draws = prior.draw(rng, n, num_samples)
    return np.maximum(draws, 0.0, out=draws)


def discretize_prior(prior: Prior, n: int, K: int, seed: int) -> FinitePrior:
    """Monte-Carlo instantiation of a prior as K equally weighted atoms.

    A finite prior whose atom count already equals K passes through unchanged,
    once its atoms are checked to have dimension n.
    """
    _check_count(n, "n")
    _check_count(K, "K")
    _check_count(seed, "seed", 0)
    if isinstance(prior, FinitePrior) and prior.num_atoms == K:
        prior._check_dimension(n)
        return prior
    atoms = sample_prior(prior, n, K, seed)
    return FinitePrior(atoms=atoms, probs=np.full(K, 1.0 / K))


@dataclass
class StrategyProfile:
    """Learner weights plus the generator's per-atom perturbed matrices.

    ``sigma`` stacks the K transformed matrices as an array of shape (K, n, m);
    ``sigma[k]`` is the generator's response to atom k of the finite prior.
    """

    w: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if self.w.ndim != 1:
            raise FieldError("w", f"must be a (m,) vector, got shape {self.w.shape}")
        if self.sigma.ndim != 3:
            raise FieldError("sigma", f"must be a (K, n, m) stack, got shape {self.sigma.shape}")

    def copy(self) -> "StrategyProfile":
        return StrategyProfile(self.w.copy(), self.sigma.copy())

    def is_feasible(self, spec: GameSpec, tol: float = 1e-9) -> bool:
        if np.linalg.norm(self.w - project(self.w, spec.learner_set)) > tol:
            return False
        return all(
            np.linalg.norm(s - project(s, spec.adversary_set)) <= tol
            for s in self.sigma
        )


def origin_profile(spec: GameSpec, K: int) -> StrategyProfile:
    """The all-zero profile, feasible since every action set contains the origin."""
    return StrategyProfile(w=np.zeros(spec.m), sigma=np.zeros((K, spec.n, spec.m)))

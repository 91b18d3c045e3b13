"""Game instances for adversarial regression: costs, gradients, projections, priors.

A game couples a learner (regression weights ``w``) with a data generator
that perturbs the training matrix ``X`` into ``Xbar``.  The generator's
per-instance weights ``c_d`` are uncertain to the learner and modelled by a
prior.  Everything here is a pure function of its inputs; randomness enters
only through explicit seeds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

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
            raise ValueError(f"unknown action set kind {self.kind!r}")
        if self.kind == "l2_ball":
            if self.radius is None or not 0 < self.radius < math.inf:
                raise ValueError("l2_ball radius must be positive and finite")
        elif self.radius is not None:
            raise ValueError("unconstrained set takes no radius")

    @property
    def bounded(self) -> bool:
        return self.kind == "l2_ball"

    @staticmethod
    def unconstrained() -> "ActionSet":
        return ActionSet("unconstrained")

    @staticmethod
    def l2_ball(radius: float) -> "ActionSet":
        return ActionSet("l2_ball", float(radius))


def project(point: np.ndarray, action_set: ActionSet) -> np.ndarray:
    """Euclidean projection onto the set (Frobenius norm for matrices); a new array."""
    return _project(np.array(point, dtype=float), action_set)


def _project(point: np.ndarray, action_set: ActionSet) -> np.ndarray:
    """``project`` of a float array in place, unchecked; returns ``point``.

    Callers pass a temporary or a buffer they own: ``point`` is scaled only
    when it lies outside the ball.
    """
    if not action_set.bounded:
        return point
    flat = point.ravel(order="K")
    norm = math.sqrt(flat.dot(flat))  # what np.linalg.norm computes, without its dispatch
    if norm <= action_set.radius:
        return point
    point *= action_set.radius / norm
    return point


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # numerically stable logistic function: exp only of nonpositive arguments
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


class FieldError(ValueError):
    """An argument that is invalid on its own: ``field`` names it, ``problem`` says why."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field, self.problem = field, problem


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
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise FieldError("X", "must be a matrix with n, m >= 1")
        n = X.shape[0]
        for name in ("y", "z", "c_l"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (n,):
                raise FieldError(name, f"must have length n={n}, got shape {v.shape}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "X", X)
        for name in ("X", "y", "z"):
            if not np.isfinite(getattr(self, name)).all():
                raise FieldError(name, "must be finite elementwise")
        _check_weights(self.c_l, "c_l")
        if not 0 <= self.reg_l < math.inf:
            raise FieldError("reg_l", "must be nonnegative and finite")
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


def _check_xbar(Xbar: np.ndarray, spec: GameSpec) -> np.ndarray:
    Xbar = np.asarray(Xbar, dtype=float)
    if Xbar.shape != spec.X.shape:
        raise ValueError(
            f"Xbar has shape {Xbar.shape}, expected {spec.X.shape} (game matrix)"
        )
    return Xbar


def _check_w(w: np.ndarray, spec: GameSpec) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (spec.m,):
        raise ValueError(f"w has shape {w.shape}, expected ({spec.m},)")
    return w


def _check_cd(c_d: np.ndarray, n: int) -> np.ndarray:
    c_d = np.asarray(c_d, dtype=float)
    if c_d.shape != (n,):
        raise ValueError(f"c_d has shape {c_d.shape}, expected ({n},)")
    _check_weights(c_d, "c_d")
    return c_d


def _check_weights(values: np.ndarray, name: str) -> None:
    """Reject negative, NaN and infinite weights (``min`` is NaN if any entry is)."""
    if values.size and not 0 <= values.min() <= values.max() < math.inf:
        raise FieldError(name, "must be nonnegative and finite elementwise")


def _loss(kind: LossKind, margins: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-instance loss at the margins ``x.w`` against targets ``t``; unchecked, broadcasts."""
    if kind is LossKind.QUADRATIC:
        return (margins - t) ** 2
    return np.logaddexp(0.0, -t * margins)  # log(1 + exp(-t x.w)) without overflow


def _loss_slope(kind: LossKind, margins: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
    """Derivative of ``_loss`` in the margins, into ``out`` if given; unchecked, broadcasts."""
    if kind is LossKind.QUADRATIC:  # operators when out is None: fewer calls on tiny arrays
        slope = margins - t if out is None else np.subtract(margins, t, out=out)
        slope *= 2.0
        return slope
    return np.multiply(-t, _sigmoid(-t * margins), out=out)


def learner_cost(w: np.ndarray, Xbar: np.ndarray, spec: GameSpec) -> float:
    """Weighted empirical loss of the learner plus ridge penalty."""
    w = _check_w(w, spec)
    Xbar = _check_xbar(Xbar, spec)
    per_instance = _loss(spec.learner_loss, Xbar @ w, spec.y)
    return float(spec.c_l @ per_instance + spec.reg_l * (w @ w))


def adversary_cost(
    w: np.ndarray, Xbar: np.ndarray, c_d: np.ndarray, spec: GameSpec
) -> float:
    """Generator's targeting loss plus the Frobenius perturbation penalty."""
    w = _check_w(w, spec)
    Xbar = _check_xbar(Xbar, spec)
    c_d = _check_cd(c_d, spec.n)
    per_instance = _loss(spec.adversary_loss, Xbar @ w, spec.z)
    diff = Xbar - spec.X
    return float(c_d @ per_instance + np.sum(diff * diff))


def grad_learner_w(w: np.ndarray, Xbar: np.ndarray, spec: GameSpec) -> np.ndarray:
    """Analytic gradient of ``learner_cost`` in ``w``."""
    w, Xbar = _check_w(w, spec), _check_xbar(Xbar, spec)
    return _grad_learner_w(w, Xbar, Xbar @ w, spec)


def _grad_learner_w(w, Xbar, margins, spec: GameSpec) -> np.ndarray:
    """``grad_learner_w`` at each matrix of ``Xbar`` (shape (..., n, m)), unchecked.

    ``margins`` is ``Xbar @ w``.  Returns shape (..., m).
    """
    coef = spec.c_l * _loss_slope(spec.learner_loss, margins, spec.y)
    return (coef[..., None, :] @ Xbar)[..., 0, :] + 2.0 * spec.reg_l * w


def grad_adversary_X(
    w: np.ndarray, Xbar: np.ndarray, c_d: np.ndarray, spec: GameSpec
) -> np.ndarray:
    """Analytic gradient of ``adversary_cost`` in ``Xbar`` (n-by-m)."""
    w, Xbar, c_d = _check_w(w, spec), _check_xbar(Xbar, spec), _check_cd(c_d, spec.n)
    return _grad_adversary_X(w, Xbar, Xbar @ w, c_d, spec)


def _grad_adversary_X(w, Xbar, margins, c_d, spec: GameSpec, out=None, scratch=None):
    """``grad_adversary_X`` at each matrix of ``Xbar`` (shape (..., n, m)), unchecked.

    ``margins`` is ``Xbar @ w`` and ``c_d`` has shape (..., n), one row per matrix.
    The gradient is written into ``out`` and ``scratch`` is overwritten, both
    of ``Xbar``'s shape and allocated when not given; neither may alias ``Xbar``.
    """
    if out is None:
        out = np.empty_like(Xbar)
    if scratch is None:
        scratch = np.empty_like(Xbar)
    coef = c_d * _loss_slope(spec.adversary_loss, margins, spec.z)
    np.multiply(coef[..., None], w, out=out)
    np.subtract(Xbar, spec.X, out=scratch)
    scratch *= 2.0
    out += scratch
    return out


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
        probs = np.asarray(self.probs, dtype=float)
        if atoms.ndim != 2:
            raise FieldError("atoms", f"must be a (K, n) matrix, got shape {atoms.shape}")
        if probs.ndim != 1 or probs.shape[0] != atoms.shape[0]:
            raise FieldError("probs", "must have one entry per atom")
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
            raise ValueError(f"prior atoms have dimension {self.atoms.shape[1]}, expected {n}")

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
        if not (math.isfinite(self.mean) and 0 < self.std < math.inf):
            raise ValueError("mean must be finite and std positive and finite")

    def draw(self, rng: np.random.Generator, n: int, num_samples: int) -> np.ndarray:
        return rng.normal(self.mean, self.std, size=(num_samples, n))

    def mean_vector(self, n: int) -> np.ndarray:
        return np.full(n, self.mean)


@dataclass(frozen=True)
class GammaPrior:
    shape: float
    scale: float

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.scale < math.inf):
            raise ValueError("gamma shape and scale must be positive and finite")

    def draw(self, rng: np.random.Generator, n: int, num_samples: int) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, size=(num_samples, n))

    def mean_vector(self, n: int) -> np.ndarray:
        return np.full(n, self.shape * self.scale)


@dataclass(frozen=True)
class LogNormalPrior:
    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0 < self.sigma < math.inf):
            raise ValueError("lognormal mu must be finite and sigma positive and finite")

    def draw(self, rng: np.random.Generator, n: int, num_samples: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=(num_samples, n))

    def mean_vector(self, n: int) -> np.ndarray:
        return np.full(n, math.exp(self.mu + 0.5 * self.sigma**2))


Prior = FinitePrior | GaussianPrior | GammaPrior | LogNormalPrior


class _Family(NamedTuple):
    cls: type
    label: str  # str.format template over the prior ``p``


# The one table of prior families, keyed by their JSON name: labels, JSON
# codecs and type dispatch all read it.
_PRIOR_FAMILIES = {
    "finite": _Family(FinitePrior, "K={p.num_atoms}"),
    "gaussian": _Family(GaussianPrior, "mean={p.mean:g},std={p.std:g}"),
    "gamma": _Family(GammaPrior, "shape={p.shape:g},scale={p.scale:g}"),
    "lognormal": _Family(LogNormalPrior, "mu={p.mu:g},sigma={p.sigma:g}"),
}


def _prior_family(prior: Prior) -> tuple[str, _Family]:
    """The JSON name and table entry of the prior's family."""
    for name, family in _PRIOR_FAMILIES.items():
        if isinstance(prior, family.cls):
            return name, family
    raise TypeError(f"unknown prior type {type(prior)!r}")


def prior_mean(prior: Prior, n: int) -> np.ndarray:
    """Coordinatewise mean of the prior, clamped to be nonnegative."""
    return np.maximum(prior.mean_vector(n), 0.0)


def sample_prior(prior: Prior, n: int, num_samples: int, seed: int) -> np.ndarray:
    """Draw ``num_samples`` weight vectors, clamped at 0, deterministically.

    Returns an array of shape (num_samples, n); row s is one draw of c_d.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    return _clamped_draws(prior, np.random.default_rng(seed), n, num_samples)


def _clamped_draws(prior: Prior, rng: np.random.Generator, n: int,
                   num_samples: int) -> np.ndarray:
    """``prior.draw`` clamped at 0 in place: every ``draw`` returns a fresh array."""
    draws = prior.draw(rng, n, num_samples)
    return np.maximum(draws, 0.0, out=draws)


def discretize_prior(prior: Prior, n: int, K: int, seed: int) -> FinitePrior:
    """Monte-Carlo instantiation of a prior as K equally weighted atoms.

    A finite prior whose atom count already equals K passes through unchanged.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if isinstance(prior, FinitePrior) and prior.num_atoms == K:
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
        if self.w.ndim != 1 or self.sigma.ndim != 3:
            raise ValueError("profile needs w of shape (m,) and sigma of shape (K, n, m)")

    @property
    def num_atoms(self) -> int:
        return self.sigma.shape[0]

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

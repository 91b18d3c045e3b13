"""The solution contract: each route reaches the point it claims, within a stated bound.

A row names a game, a route, the point the route claims to reach and a bound on
each quantity the test measures:

* ``residual``: the squared natural-map residual of the route's profile.  A route
  that returns only ``w`` (``bayes_fp``, ``nash_strategy``) is judged on the profile
  whose block k is the generator's best response to ``w`` under atom k.  On a game
  without balls the residual is the squared norm of the operator, so a bound on it
  bounds stationarity too.
* ``distance``: the squared distance to the claimed point, ``epsilon_distance``
  for a profile and ``|w - w_claimed|^2`` for a ``w``.  A distance of 0.0 is
  equality bit for bit.
* ``gradient``: the norm of ``stochastic_gradient`` over the prior's atoms at the
  route's ``w``, which is zero where route 2's objective is stationary.

A bound is an upper bound, or a ``(low, high)`` pair.  The oracle is
``extragradient_reference(tol=1e-20)``, computed once per game.  Where a solver
runs to a fixed budget, its bounds are 10 times what that budget reached, rounded
up.  ``bayes_fp`` weighs its samples equally, so it runs only on uniform priors.
"""

import functools

import numpy as np
import pytest

from bayesgame.game import GaussianPrior, StrategyProfile, origin_profile
from bayesgame.quadratic import bayes_fp, best_response, nash_strategy, stochastic_gradient
from bayesgame.solvers import (
    SolverConfig, epsilon_distance, equilibrium_residual, extragradient,
    extragradient_reference, pg_rbc, prg_ie,
)
from conftest import (
    monotone_ball_game, random_finite_prior, random_logistic_game, single_atom_game,
    unconstrained_game, weighted_ridge_oracle, with_balls, zero_game,
)

GAMES = {
    "zero": zero_game(),
    "fixture": monotone_ball_game(),
    "logistic": (with_balls(random_logistic_game(np.random.default_rng(4), 6, 3), 1.0, 2.0),
                 random_finite_prior(np.random.default_rng(5), 6, 3)),
    "single-atom": single_atom_game()[1:],  # the game without balls
    **{f"unconstrained-{seed}": unconstrained_game(seed) for seed in (1, 2, 3)},
    "c_d=0": unconstrained_game(2, scale=0.0),
}


def vi(solver, **config):
    return lambda spec, prior: solver(spec, prior, SolverConfig(**config)).final_profile


ROUTES = {
    "oracle": lambda spec, prior: extragradient_reference(spec, prior, tol=1e-20),
    "extragradient": vi(extragradient, max_iters=10_000, gamma=0.1, tol=1e-20),
    # L_hat of 200 probe trials is 2.18 on the fixture and 2.22 on the logistic game
    "prg_ie": vi(prg_ie, max_iters=5000, gamma=2e-3, trace_every=5000, lipschitz=2.3),
    "pg_rbc": vi(pg_rbc, max_iters=10_000, gamma=0.5, seed=1, trace_every=10_000,
                 strong_monotonicity=2.0),
    "prg_ie-one-step": vi(prg_ie, max_iters=1, gamma=1e-3, lipschitz=2.0),
    "pg_rbc-one-step": vi(pg_rbc, max_iters=1, gamma=0.5, seed=1, strong_monotonicity=2.0),
    "bayes_fp": lambda spec, prior: bayes_fp(spec, prior.atoms, iterations=2000),
    "bayes_fp-one-round": lambda spec, prior: bayes_fp(spec, prior.atoms, iterations=1),
    "nash_strategy": lambda spec, prior: nash_strategy(spec, prior, iterations=2000),
    # the mean -1 is clamped to 0
    "nash_strategy-clamped-mean": lambda spec, prior: nash_strategy(
        spec, GaussianPrior(mean=-1.0, std=1.0), iterations=20),
}


CLAIMS = {
    "oracle": functools.cache(lambda game: ROUTES["oracle"](*GAMES[game])),
    "origin": lambda game: origin_profile(GAMES[game][0], GAMES[game][1].num_atoms),
    "weighted ridge": lambda game: weighted_ridge_oracle(GAMES[game][0]),
    "bayes_fp": lambda game: ROUTES["bayes_fp"](*GAMES[game]),
}


def row(game, route, claim, marks=(), id=None, **bounds):
    return pytest.param(game, route, claim, bounds, marks=marks, id=id or f"{game}/{route}")


CYCLE = ("bayes_fp 2-cycles here: rounds 2000 and 2001 are 0.624 apart and its profile's "
         "residual is 2.77, where the oracle reaches 8e-21 at |w*| = 0.388")

ROWS = [
    # an exact equilibrium, which the oracle returns and one step of either solver keeps
    row("zero", "oracle", "origin", residual=0.0, distance=0.0),
    row("zero", "prg_ie-one-step", "origin", residual=0.0, distance=0.0),
    row("zero", "pg_rbc-one-step", "origin", residual=0.0, distance=0.0),
    # prg_ie and pg_rbc at a fixed budget; acceptance criteria 3-5 check their rates
    row("fixture", "oracle", "oracle", residual=1e-20),
    row("fixture", "extragradient", "oracle", residual=1e-20, distance=2e-20),
    row("fixture", "prg_ie", "oracle", residual=3e-4, distance=7e-5),
    row("fixture", "pg_rbc", "oracle", residual=2e-3, distance=1.5e-4),
    row("logistic", "oracle", "oracle", residual=1e-20),
    row("logistic", "extragradient", "oracle", residual=1e-20, distance=1e-20),
    row("logistic", "prg_ie", "oracle", residual=3e-3, distance=5e-4),
    # unconstrained games, where bayes_fp and nash_strategy run
    row("single-atom", "oracle", "oracle", residual=1e-20),
    row("single-atom", "bayes_fp", "oracle", residual=1e-20, distance=1e-20),
    row("single-atom", "nash_strategy", "bayes_fp", distance=0.0),
    row("unconstrained-1", "bayes_fp", "oracle", residual=1e-20, distance=1e-20,
        marks=pytest.mark.xfail(strict=True, reason=CYCLE)),
    *[row(f"unconstrained-{seed}", "bayes_fp", "oracle", residual=1e-20, distance=1e-20)
      for seed in (2, 3)],
    # route 2's objective is not stationary at route 1's equilibrium
    *[row(f"unconstrained-{seed}", "oracle", "oracle", id=f"unconstrained-{seed}/route-2",
          gradient=(0.4, np.inf)) for seed in (2, 3)],
    # with c_d = 0 both routes reach the weighted ridge solution
    row("c_d=0", "oracle", "weighted ridge", residual=1e-20, distance=1e-20, gradient=1e-9),
    row("c_d=0", "bayes_fp-one-round", "weighted ridge", residual=1e-20, distance=1e-20),
    row("c_d=0", "bayes_fp", "weighted ridge", residual=1e-20, distance=1e-20),
    row("c_d=0", "nash_strategy-clamped-mean", "weighted ridge", residual=1e-20, distance=1e-20),
]


def completed(point, spec, prior) -> StrategyProfile:
    """``point`` if a profile, else the profile of ``w = point`` and the best responses to it."""
    if isinstance(point, StrategyProfile):
        return point
    return StrategyProfile(w=point, sigma=np.stack(
        [best_response(point, spec.X, spec.z, atom) for atom in prior.atoms]))


@pytest.mark.parametrize("game, route, claim, bounds", ROWS)
def test_route_reaches_the_point_it_claims(game, route, claim, bounds):
    spec, prior = GAMES[game]
    point = ROUTES[route](spec, prior)
    profile, goal = completed(point, spec, prior), completed(CLAIMS[claim](game), spec, prior)
    measures = {
        "residual": lambda: equilibrium_residual(profile, prior, spec),
        "distance": lambda: (epsilon_distance(profile, goal, prior) if profile is point
                             else float(np.sum((point - goal.w) ** 2))),
        "gradient": lambda: np.linalg.norm(stochastic_gradient(profile.w, spec, prior.atoms)),
    }
    for name, bound in bounds.items():
        low, high = bound if isinstance(bound, tuple) else (0.0, bound)
        value = measures[name]()
        assert low <= value <= high, f"{name} {value:.3g} outside [{low:g}, {high:g}]"

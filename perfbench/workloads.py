"""Workloads of the benchmark: inputs built from a seed, a timed phase, checks.

A workload object builds every input in its constructor (that is set-up),
runs one pass of its timed phase in ``repeat`` and validates that pass's
outputs, untimed, in ``check``.  A workload whose work is split into
``groups`` runs one group per repeat, in turn; its times are per round of
all groups.  ``after`` runs once per run, after the timed phase, for
attempts whose time must stay out of ``solve_s``.

Every call into the package goes through a module attribute (``solvers.pg_rbc``,
not a name imported from it), so the traced run can rebind it.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from bayesgame import cli, experiments, game, quadratic, serialize, solvers
from bayesgame.game import ActionSet, FinitePrior, GameSpec, StrategyProfile
from bayesgame.solvers import SolverConfig
from tracing import Target

FIXTURE_TOL = 1e-10  # the oracle tolerance of acceptance criteria 3 and 4
DATASET_ROWS = 1000
DATASET_COLS = 57


# --------------------------------------------------------------------------
# Operations and checks
# --------------------------------------------------------------------------


class Ops:
    """Operations attempted in a run, each failed by an error or a failed check.

    An operation is identified by its name, which is unique among the
    workload's operations.  Every repeat calls each operation again on the
    same inputs, and every call is checked; the operation fails if any of
    its calls does.  So ``attempted`` and ``failed`` count operations, not
    calls, and do not depend on how many repeats the time allowed.

    An operation that ``may_fail`` is an attempt whose outcome is measured,
    not required: its error counts as a failed operation but does not make
    the run's outputs incorrect.  Any other error, and every failed check on
    a returned output, does.
    """

    def __init__(self):
        self.records: list[dict] = []

    def run(self, name, fn, *args, may_fail=False, **kwargs):
        record = {"name": name, "error": None, "may_fail": may_fail}
        self.records.append(record)
        try:
            return fn(*args, **kwargs), record
        except Exception as exc:  # noqa: BLE001 - the run reports the failure and goes on
            record["error"] = f"{type(exc).__name__}: {exc}"
            return None, record

    @staticmethod
    def check(record, ok, message) -> None:
        if not ok and record["error"] is None:
            record["error"] = f"check failed: {message}"
            record["wrong"] = True

    @property
    def attempted(self) -> int:
        return len({r["name"] for r in self.records})

    @property
    def failures(self) -> list[dict]:
        """One entry per failed operation: its first error and how many of its calls failed."""
        by_name = {}
        for r in self.records:
            entry = by_name.setdefault(r["name"], {"name": r["name"], "error": None,
                                                   "calls": 0, "failed_calls": 0})
            entry["calls"] += 1
            if r["error"] is not None:
                entry["failed_calls"] += 1
                entry["error"] = entry["error"] or r["error"]
        return [e for e in by_name.values() if e["error"] is not None]

    @property
    def correct(self) -> bool:
        return not any(r["error"] is not None and (r.get("wrong") or not r["may_fail"])
                       for r in self.records)


def _check_profile(ops: Ops, record, profile: StrategyProfile, spec: GameSpec, K: int) -> None:
    ok = (
        profile.w.shape == (spec.m,)
        and profile.sigma.shape == (K, spec.n, spec.m)
        and bool(np.all(np.isfinite(profile.w)))
        and bool(np.all(np.isfinite(profile.sigma)))
        and profile.is_feasible(spec)
    )
    ops.check(record, ok, f"{record['name']} final profile is not finite and feasible")


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON")


def _mean(values) -> float:
    return float(np.mean(values)) if values else float("nan")


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def monotone_ball_game(seed: int, n: int = 10, m: int = 5, K: int = 4):
    """The acceptance fixture recipe (tests/conftest.py), drawn from ``seed``.

    Weak coupling keeps the operator strongly monotone over the balls.
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


def write_synthetic_dataset(path, seed: int, rows: int = DATASET_ROWS, cols: int = DATASET_COLS):
    """The recipe of scripts/make_synthetic_dataset.py: a noisy, linearly
    predictable 0/1 label in spambase format."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=rows).astype(float)
    direction = rng.normal(size=cols)
    direction /= np.linalg.norm(direction)
    base = rng.normal(size=(rows, cols))
    features = base + 1.5 * np.outer(labels - 0.5, direction)
    experiments.write_dataset_csv(features, labels, path)


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, 1]).integers(2**31, size=count)]


def trace_targets() -> list[Target]:
    """The public names the traced run rebinds, in the modules that call them."""
    iterations = lambda trace: trace.iterations[-1].t  # noqa: E731
    return [
        Target(game, "project", "game.project", span=False),
        Target(game, "discretize_prior", "game.discretize_prior"),
        Target(solvers, "project", "game.project", span=False),
        Target(solvers, "grad_learner_w", "game.grad_learner_w", span=False),
        Target(solvers, "grad_adversary_X", "game.grad_adversary_X", span=False),
        Target(solvers, "stacked_map", "solvers.stacked_map", span=False),
        Target(solvers, "equilibrium_residual", "solvers.equilibrium_residual"),
        Target(solvers, "epsilon_distance", "solvers.epsilon_distance"),
        Target(solvers, "assumption_probe", "solvers.assumption_probe"),
        Target(solvers, "extragradient_reference", "solvers.extragradient_reference"),
        Target(solvers, "pg_rbc", "solvers.pg_rbc", units=iterations),
        Target(solvers, "prg_ie", "solvers.prg_ie", units=iterations),
        Target(quadratic, "project", "game.project", span=False),
        Target(quadratic, "stochastic_gradient", "quadratic.stochastic_gradient", span=False),
        Target(quadratic, "stochastic_objective", "quadratic.stochastic_objective"),
        Target(experiments, "load_spambase", "experiments.load_spambase"),
        Target(experiments, "bayes_adam", "quadratic.bayes_adam"),
        Target(experiments, "bayes_fp", "baselines.bayes_fp"),
        Target(experiments, "nash_strategy", "baselines.nash_strategy"),
        Target(experiments, "ridge_fit", "baselines.ridge_fit"),
        Target(experiments, "evaluate", "experiments.evaluate"),
        Target(cli, "main", "cli.main"),
        Target(cli, "game_from_jsonable", "serialize.game_from_jsonable"),
        Target(cli, "profile_to_jsonable", "serialize.profile_to_jsonable"),
        Target(cli, "pg_rbc", "solvers.pg_rbc", units=iterations),
    ]


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def _timed(ops: Ops, name, fn, *args, **kwargs):
    """Run one operation; returns (result, record, wall seconds)."""
    start = perf_counter()
    result, record = ops.run(name, fn, *args, **kwargs)
    return result, record, perf_counter() - start


class Fixture:
    """The acceptance fixture game (n=10, m=5, K=4) on the path of criteria 3 and 4.

    Why: its arrays are 1.6 KB, so time goes to per-call validation,
    ``np.linalg.norm`` and object construction, not arithmetic.  This is
    where validate-once kernels and batched chains show.  The timed phase is
    the probe, the oracle, seeded ``pg_rbc`` chains traced against the
    reference (criterion 3, made shorter), one ``prg_ie`` run (criterion 4's
    step rule) and one in-process ``bayesgame solve``.
    """

    name = "fixture"
    groups = 1
    # interpreter-bound like its repeats: with the desk_arrays part as well,
    # the kernel slowed down less than the fixture and left a spread of 0.12
    calibration_kernel = ("interpreter", "tiny_arrays")
    FULL = dict(probe_trials=300, chains=4, chain_iters=5000, prg_iters=5000, cli_iters=2000)
    SMOKE = dict(probe_trials=20, chains=2, chain_iters=500, prg_iters=200, cli_iters=200)

    def __init__(self, seed: int, workdir, smoke: bool):
        self.size = self.SMOKE if smoke else self.FULL
        self.spec, self.prior = monotone_ball_game(seed)
        seeds = _sub_seeds(seed, self.size["chains"] + 2)
        self.probe_seed, cli_seed, self.chain_seeds = seeds[0], seeds[1], seeds[2:]
        self.cli_config = workdir / "fixture_solve.json"
        self.cli_out = workdir / "fixture_solve"
        doc = {
            "game": serialize.game_to_jsonable(self.spec),
            "prior": serialize.prior_to_jsonable(self.prior),
            "algorithm": "pg-rbc",
            # gamma 0.5 meets pg_rbc's gamma > 1/(2 lambda) for lambda near 2
            "solver": {"max_iters": self.size["cli_iters"], "gamma": 0.5,
                       "seed": cli_seed, "trace_every": 500},
        }
        self.cli_config.write_text(json.dumps(doc))

    def repeat(self, ops: Ops, group: int) -> dict:
        spec, prior, size = self.spec, self.prior, self.size
        out = {"chains": []}
        diag, _ = ops.run(
            "assumption_probe", solvers.assumption_probe,
            spec, prior, trials=size["probe_trials"], seed=self.probe_seed,
        )
        ref, out["ref_op"] = ops.run(
            "extragradient_reference", solvers.extragradient_reference, spec, prior, tol=FIXTURE_TOL
        )
        out["ref"] = ref
        if diag is None or ref is None:
            return out
        for i, seed in enumerate(self.chain_seeds):
            config = SolverConfig(
                max_iters=size["chain_iters"], gamma=1.0 / diag.lambda_hat, seed=seed,
                trace_every=500, strong_monotonicity=diag.lambda_hat,
            )
            out["chains"].append(
                _timed(ops, f"pg_rbc chain {i}", solvers.pg_rbc, spec, prior, config, reference=ref)
            )
        config = SolverConfig(
            max_iters=size["prg_iters"], gamma=0.99 * min(1.0, 1.0 / (100.0 * diag.L_hat)),
            trace_every=1000, lipschitz=diag.L_hat,
        )
        out["prg"] = _timed(ops, "prg_ie", solvers.prg_ie, spec, prior, config, reference=ref)
        argv = ["solve", "--config", str(self.cli_config), "--out", str(self.cli_out)]
        with contextlib.redirect_stdout(io.StringIO()):
            out["cli"] = ops.run("cli.main solve", cli.main, argv)
        return out

    def check(self, ops: Ops, out: dict) -> dict:
        spec, prior, K = self.spec, self.prior, self.prior.num_atoms
        if out["ref"] is not None:
            residual = solvers.equilibrium_residual(out["ref"], prior, spec)
            ops.check(out["ref_op"], residual <= FIXTURE_TOL,
                      f"oracle residual {residual:.3e} above tol {FIXTURE_TOL:g}")
            _check_profile(ops, out["ref_op"], out["ref"], spec, K)
        quality = _solver_quality(ops, out, spec, K)
        if "cli" in out:
            code, record = out["cli"]
            ops.check(record, code == 0, f"bayesgame solve exited with code {code}")
            if code == 0:
                try:
                    doc = json.loads((self.cli_out / "profile.json").read_text(),
                                     parse_constant=_reject_constant)
                    profile = StrategyProfile(w=doc["w"], sigma=doc["sigma"])
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    ops.check(record, False, f"profile.json is not a strict JSON profile ({exc})")
                else:
                    _check_profile(ops, record, profile, spec, K)
        return quality

    def after(self, ops: Ops) -> None:
        pass

    def summary(self, measured) -> dict:
        return _solver_summary(measured.repeats, with_error=True)


class DeskVI:
    """A desk-sized finite-prior game (n=200, m=57, K=16) for the VI solvers.

    Why: sigma is 1.46 MB and each iteration's temporaries exceed a 2 MB
    per-core L2 cache, so array arithmetic dominates.  Removing per-call
    overhead should barely move this workload, and batching that multiplies
    the working set shows its memory cost here.  Solver calls pass no
    constant overrides, so each runs the 16-trial hidden probe.  The oracle
    attempt in ``after`` fails today (the probed Lipschitz constant is an
    underestimate); it is reported as a failed operation, never hidden, and
    its time stays out of ``solve_s``.
    """

    name = "desk_vi"
    groups = 1
    calibration_kernel = ("interpreter", "tiny_arrays", "desk_arrays")
    FULL = dict(probe_trials=16, chains=2, chain_iters=2000, prg_iters=300, oracle_iters=300)
    SMOKE = dict(probe_trials=2, chains=1, chain_iters=50, prg_iters=10, oracle_iters=5)

    def __init__(self, seed: int, workdir, smoke: bool):
        self.size = self.SMOKE if smoke else self.FULL
        path = workdir / "synthetic.csv"
        write_synthetic_dataset(path, seed)
        data = experiments.load_spambase(path)
        train, _ = experiments.split(data, 200, 200, seed)
        X = train.features
        self.spec = GameSpec(
            X=X, y=train.labels, z=1.0 - train.labels, c_l=np.full(len(train), 0.1),
            learner_set=ActionSet.l2_ball(1.0),
            adversary_set=ActionSet.l2_ball(2.0 * float(np.linalg.norm(X))),
        )
        self.prior = game.discretize_prior(game.GaussianPrior(mean=1.0, std=4.0), len(train), 16, seed)
        seeds = _sub_seeds(seed, self.size["chains"] + 1)
        self.probe_seed, self.chain_seeds = seeds[0], seeds[1:]

    def repeat(self, ops: Ops, group: int) -> dict:
        spec, prior, size = self.spec, self.prior, self.size
        out = {"chains": []}
        diag, _ = ops.run(
            "assumption_probe", solvers.assumption_probe,
            spec, prior, trials=size["probe_trials"], seed=self.probe_seed,
        )
        if diag is None:
            return out
        for i, seed in enumerate(self.chain_seeds):
            config = SolverConfig(max_iters=size["chain_iters"], gamma=1.0 / diag.lambda_hat,
                                  seed=seed, trace_every=500)
            out["chains"].append(_timed(ops, f"pg_rbc chain {i}", solvers.pg_rbc, spec, prior, config))
        config = SolverConfig(max_iters=size["prg_iters"],
                              gamma=0.9 * min(1.0, 1.0 / (100.0 * diag.L_hat)), trace_every=100)
        out["prg"] = _timed(ops, "prg_ie", solvers.prg_ie, spec, prior, config)
        return out

    def check(self, ops: Ops, out: dict) -> dict:
        return _solver_quality(ops, out, self.spec, self.prior.num_atoms)

    def after(self, ops: Ops) -> None:
        ops.run(
            "extragradient_reference", solvers.extragradient_reference, self.spec, self.prior,
            tol=FIXTURE_TOL, max_iters=self.size["oracle_iters"], may_fail=True,
        )

    def summary(self, measured) -> dict:
        return _solver_summary(measured.repeats, with_error=False)


class DeskSweep:
    """The desk benchmark sweep: three priors, four methods, default grids.

    Why: the quadratic route and the baselines do all the work and the VI
    solvers are never called, so this is the bypass workload for every
    solver change, and the main workload for changes to Adam, the per-epoch
    objective and the prior-family dispatch.  The data goes through a CSV
    file and ``load_spambase`` as a user's would.

    The sweep is ``run_benchmark(desk_config([gaussian, gamma, lognormal]))``:
    9 cells (prior, repetition), 126 fits.  Each prior is a group: one repeat
    runs that prior's 3 cells through ``experiments._run_cell``, the same
    call with the same arguments (and so the same seeds) that
    ``run_benchmark`` makes, and the priors take turns.  Times are the sum
    over priors of each prior's median repeat, so a change to one prior
    family moves them by that family's share.  A whole sweep per repeat
    (about 9 s) would leave too few calibration points between repeats to
    follow the host's speed changes (see run.py).  ``check`` picks each
    method's grid configuration by best mean RMSE, as ``run_benchmark``
    does; the smoke tests compare the two.
    """

    name = "desk_sweep"
    groups = 3
    calibration_kernel = ("interpreter", "tiny_arrays", "desk_arrays")
    SMOKE = dict(repetitions=1, test_draws=10, adam_epochs=1, adam_samples=64, fp_samples=64,
                 adam_lr_grid=(0.01,), adam_batch_grid=(32,), ridge_alpha_grid=(1.0,))

    def __init__(self, seed: int, workdir, smoke: bool):
        path = workdir / "synthetic.csv"
        write_synthetic_dataset(path, seed)
        self.data = experiments.load_spambase(path)
        priors = [
            game.GaussianPrior(mean=1.0, std=4.0),
            game.GammaPrior(shape=1.0, scale=1.0),
            game.LogNormalPrior(mu=0.0, sigma=1.0),
        ]
        self.config = experiments.desk_config(priors, seed=seed, **(self.SMOKE if smoke else {}))

    def repeat(self, ops: Ops, group: int) -> dict:
        cells = [
            ops.run(f"run_cell prior {group} rep {rep}", experiments._run_cell,
                    (self.data, self.config, group, rep))
            for rep in range(self.config.repetitions)
        ]
        return {"prior": group, "cells": cells}

    def check(self, ops: Ops, out: dict) -> dict:
        quality = {"cells_failed": 0}
        rmses = defaultdict(list)  # (method, grid configuration) -> RMSE per repetition
        for rows, record in out["cells"]:
            errors = [row.error for row in (rows or []) if row.error]
            ops.check(record, not errors, f"cell reported {len(errors)} failures: {errors[:1]}")
            finite = rows is not None and all(np.isfinite(row.rmse) for row in rows)
            ops.check(record, finite, "cell reported a non-finite RMSE")
            quality["cells_failed"] += int(record["error"] is not None)
            for row in rows or []:
                rmses[row.method, row.config_label].append(row.rmse)
        for method in self.config.methods:
            means = [_mean(v) for (m, _), v in rmses.items() if m == method]
            quality[f"rmse.{method}"] = min(means, default=float("nan"))
        return quality

    def after(self, ops: Ops) -> None:
        pass

    def fits(self) -> int:
        """Trainings (each with its evaluation) in the whole sweep."""
        config = self.config
        grid = {
            "ridge": len(config.ridge_alpha_grid),
            "bayes-adam": len(config.adam_lr_grid) * len(config.adam_batch_grid),
        }
        per_cell = sum(grid.get(m, 1) for m in config.methods)
        return per_cell * config.repetitions * len(config.prior_grid)

    def summary(self, measured) -> dict:
        report = {"fits_per_s": (self.fits() / measured.wall_s, "1/s")}
        first = {}  # the first repeat of each prior
        for r in measured.repeats:
            first.setdefault(r.group, r.quality)
        for method in self.config.methods:
            values = [q[f"rmse.{method}"] for q in first.values()]
            report[f"rmse.{method}"] = (_mean(values), "none")
        return report


def _solver_quality(ops: Ops, out: dict, spec: GameSpec, K: int) -> dict:
    """Check every final profile; collect iteration rates, residuals and errors."""
    quality = {}
    for key, runs in (("pg_rbc", out["chains"]), ("prg_ie", [out["prg"]] if "prg" in out else [])):
        lasts, iterations, seconds = [], 0, 0.0
        for trace, record, wall in runs:
            if trace is None:
                continue
            _check_profile(ops, record, trace.final_profile, spec, K)
            last = trace.iterations[-1]
            ops.check(record, np.isfinite(last.residual), f"{key} residual is not finite")
            lasts.append(last)
            iterations += last.t
            seconds += wall
        quality[f"{key}.iters_per_s"] = iterations / seconds if seconds > 0 else float("nan")
        quality[f"{key}.residual"] = _mean([r.residual for r in lasts])
        quality[f"{key}.error"] = _mean(
            [r.error_to_reference for r in lasts if r.error_to_reference is not None]
        )
    return quality


def _solver_summary(repeats, with_error: bool) -> dict:
    """Iterations per second (median over repeats) and the first repeat's quality."""
    report = {}
    for key in ("pg_rbc", "prg_ie"):
        rates = [r.quality.get(f"{key}.iters_per_s", float("nan")) for r in repeats]
        report[f"{key}.iters_per_s"] = (_median(rates), "1/s")
    quality = repeats[0].quality
    for key in ("pg_rbc", "prg_ie"):
        report[f"{key}.residual"] = (quality.get(f"{key}.residual", float("nan")), "none")
        if with_error:
            report[f"{key}.error"] = (quality.get(f"{key}.error", float("nan")), "none")
    return report


WORKLOADS = {cls.name: cls for cls in (Fixture, DeskVI, DeskSweep)}

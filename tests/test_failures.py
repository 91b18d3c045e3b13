"""The failure contract: one row per way a run fails, two tests.

No route reports success on a NaN or inf state.  A library row names a call,
the exact exception class and its whole message as a regex.  A CLI row names
the argv, which exits 2, its exact stdout and stderr (a regex), and which of
``OUTPUTS`` exist afterwards.  No numpy warning escapes either kind: the
failure is reported once, as the error.
"""

import json
import re
import sys
import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from bayesgame.cli import main
from bayesgame.experiments import BenchmarkConfig, Dataset, run_benchmark, write_dataset_csv
from bayesgame.game import (ActionSet, FinitePrior, GameSpec, GaussianPrior, SolverError,
                            StrategyProfile, origin_profile)
from bayesgame.quadratic import AdamConfig, bayes_adam, bayes_fp, nash_strategy
from bayesgame.solvers import (SolverConfig, SolverTrace, TraceRecord, _extragradient_on_map,
                               assumption_probe, extragradient_reference, pg_rbc, prg_ie,
                               step_warnings)
from conftest import (monotone_ball_game, random_profile, random_quadratic_game, run_process,
                      solve_doc)

OUTPUTS = ("profile.json", "trace.csv", "results.csv", "aggregate.json", "metadata.json")
GAUSSIAN = GaussianPrior(1.0, 1.0)
FREE = random_quadratic_game(np.random.default_rng(0), 6, 3)  # unconstrained, quadratic
DATA = np.random.default_rng(0).normal(size=(300, 58))  # a synthetic dataset's rows
LABELS = (DATA[:, -1] > 0).astype(float)
BENCH = {"dataset": "{tmp}/data.csv", "train_n": 20, "test_n": 20, "repetitions": 1,
         "test_draws": 5, "priors": [{"family": "gaussian", "mean": 1.0, "std": 1.0}], "seed": 1}
OVERFLOW = {"methods": ["bayes-adam"], "adam_lr_grid": [1e300], "adam_batch_grid": [8],
            "adam_epochs": 2, "adam_samples": 16}  # the first step overflows the gradient
ADAM_OVERFLOW = r"bayes_adam: weights not finite after 4 steps at learning_rate=1e\+300"
ALLOCATION = re.escape("error: Unable to allocate 28.4 PiB for an array with shape "
                       "(1000000000000000, 4) and data type float64\n")
ROWS_FAILED = "error: {0} of {0} result rows failed \\(listed under errors in aggregate.json\\)\n"


class Run(NamedTuple):
    """A CLI run of ``argv`` on ``doc``, written to ``{tmp}/config.json`` beside the synthetic
    dataset; ``{tmp}`` stands for the test's directory, and an argv that starts with the
    interpreter runs in a process of its own.  ``errors`` is the regex that the error of every
    row in ``aggregate.json`` matches, and ``patch`` a (target, value) set in-process."""

    argv: list
    doc: dict
    files: tuple = ()
    stdout: str = ""
    errors: str = None
    patch: tuple = None


def step_search_on_a_nan_map():
    """Extragradient's step search on a map that is NaN everywhere: under 100 map calls."""
    spec, prior = monotone_ball_game()
    calls = []

    def nan_map(w, sigma, out):
        calls.append(w)
        out[...] = np.nan
        return np.full_like(w, np.nan)

    try:
        _extragradient_on_map(nan_map, origin_profile(spec, prior.num_atoms), spec, 1.0, 1e-10,
                              10_000)
    finally:
        assert len(calls) < 100


def probe_on_duplicate_pairs():
    spec, prior = monotone_ball_game()
    fixed = random_profile(np.random.default_rng(0), spec, prior.num_atoms)

    def draw_fixed(rng, s, w, sigma):
        w[...], sigma[...] = fixed.w, fixed.sigma

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("bayesgame.solvers._draw_feasible_profile", draw_fixed)
        assumption_probe(spec, prior, trials=5, seed=0)


def failed_row(result):
    """Raise the error of the one row of ``result``, which its aggregate counts as failed."""
    (row,) = result.rows
    assert np.isnan(row.rmse) and result.aggregates[0]["failures"] == 1
    raise RuntimeError(row.error)


def nan_solver(spec, prior, config):
    profile = StrategyProfile(w=np.full(spec.m, np.nan), sigma=np.zeros((2, spec.n, spec.m)))
    return SolverTrace([TraceRecord(1, 0.5, None, 0.0)], profile, False)


def failing_bayes_fp(*args, **kwargs):
    raise ValueError("bayes_fp failed")


def solve_with_nan_y(solver, gamma):
    spec, prior = monotone_ball_game()
    spec.y[0] = np.nan  # after construction, since GameSpec rejects a NaN y
    solver(spec, prior, SolverConfig(max_iters=20, gamma=gamma, trace_every=5, lipschitz=2.0,
                                     strong_monotonicity=2.0))


SOLVE, OUT = ["solve", "--config", "{tmp}/config.json", "--out", "{tmp}/o"], "{tmp}/o"
ALLOCATE = solve_doc() | {"prior": {"family": "gaussian", "mean": 0.3, "std": 0.1},
                          "discretize_k": 10**15}  # more than a 47-bit address space holds
BENCHMARK = ["benchmark", "--config", "{tmp}/config.json", "--out", OUT]
ADAM_LINE = "bayes-adam  gaussian   mean=1,std=1             rmse=nan (lr=1e+300,batch=8)\n"
WRITTEN = ("results.csv", "aggregate.json", "metadata.json")
ROWS = [
    ("pg_rbc-divergence", lambda: pg_rbc(
        replace(monotone_ball_game()[0], learner_set=ActionSet.unconstrained(),
                adversary_set=ActionSet.unconstrained()), monotone_ball_game()[1],
        SolverConfig(max_iters=500, gamma=50.0, seed=3, trace_every=100, strong_monotonicity=2.0)),
     SolverError, r"diverged at t=\d+: residual (inf|nan), last finite residual \d\S*"),
    *[(f"{solver.__name__}-non-finite-first-trace-point",
       lambda solver=solver, gamma=gamma: solve_with_nan_y(solver, gamma), SolverError,
       "diverged at t=1: residual nan, last finite residual None")
      for solver, gamma in [(pg_rbc, 0.5), (prg_ie, 1e-3)]],
    ("extragradient-nan-map", step_search_on_a_nan_map, SolverError,
     r"extragradient found no step at t=1 within 60 halvings: "
     r"squared distances nan \(map\), nan \(iterate\)"),
    ("extragradient_reference-nonconvergence",
     lambda: extragradient_reference(*monotone_ball_game(), tol=1e-14, max_iters=3), SolverError,
     r"extragradient did not reach tol=1e-14 within 3 iterations; last residual \S+"),
    ("assumption_probe-duplicate-pairs", probe_on_duplicate_pairs, SolverError,
     "all sampled profile pairs were duplicates"),
    ("assumption_probe-overflow", lambda: assumption_probe(  # distinct pairs; |dz|^2 is inf
        GameSpec(X=np.full((3, 2), 1e300), y=np.zeros(3), z=np.zeros(3), c_l=np.ones(3),
                 learner_set=ActionSet.l2_ball(1e300), adversary_set=ActionSet.l2_ball(1e300)),
        FinitePrior(atoms=np.ones((2, 3)), probs=np.array([0.5, 0.5])), trials=5, seed=0),
     SolverError, "non-finite quotient of a sampled pair: nan/inf, nan/inf"),
    ("bayes_adam-overflow", lambda: bayes_adam(FREE, GAUSSIAN, AdamConfig(
        learning_rate=1e300, batch_size=4, epochs=2, total_samples=8)), SolverError,
     ADAM_OVERFLOW),
    ("bayes_fp-overflow", lambda: bayes_fp(FREE, np.full((4, 6), 1e200)), SolverError,
     "bayes_fp: weights not finite after 20 rounds"),
    ("nash_strategy-overflow", lambda: nash_strategy(replace(FREE, X=FREE.X * 1e300), GAUSSIAN, 5),
     SolverError, "bayes_fp: weights not finite after 5 rounds"),
    ("run_benchmark-adam-overflow", lambda: failed_row(run_benchmark(BenchmarkConfig(
        (GAUSSIAN,), train_n=20, test_n=20, repetitions=1, test_draws=5, methods=("bayes-adam",),
        adam_lr_grid=(1e300,), adam_batch_grid=(8,), adam_epochs=2, adam_samples=16),
        Dataset(DATA[:, :-1], LABELS))), RuntimeError, ADAM_OVERFLOW),
    ("solve-divergence", Run(SOLVE, solve_doc(False, solver={
        "max_iters": 500, "gamma": 50.0, "seed": 3, "trace_every": 100})), 2,
     rf"warning: {re.escape(step_warnings(50.0)[0])}\n"  # the solver's one warning, then the error
     r"error: diverged at t=\d+: residual (inf|nan), last finite residual \d[^\n]*\n"),
    ("solve-non-finite-profile",
     Run(SOLVE, solve_doc(), patch=("bayesgame.cli.pg_rbc", nan_solver)), 2,
     "error: Out of range float values are not JSON compliant[^\n]*\n"),
    ("solve-allocation", Run(SOLVE, ALLOCATE), 2, ALLOCATION),
    ("probe-allocation", Run(["probe", "--config", "{tmp}/config.json", "--out", f"{OUT}/d.json"],
                             ALLOCATE), 2, ALLOCATION),
    ("benchmark-failed-rows", Run(
        BENCHMARK, BENCH | {"methods": ["bayes-fp"], "repetitions": 2}, WRITTEN,
        "bayes-fp    gaussian   mean=1,std=1             rmse=nan (default)\n", "bayes_fp failed",
        ("bayesgame.experiments.bayes_fp", failing_bayes_fp)), 2, ROWS_FAILED.format(2)),
    ("benchmark-adam-overflow", Run(BENCHMARK, BENCH | OVERFLOW, WRITTEN, ADAM_LINE,
                                    ADAM_OVERFLOW), 2, ROWS_FAILED.format(1)),
    ("benchmark-adam-overflow-process", Run(
        [sys.executable, "-m", "bayesgame.cli", *BENCHMARK], BENCH | OVERFLOW, WRITTEN, ADAM_LINE,
        ADAM_OVERFLOW), 2, ROWS_FAILED.format(1)),
]
LIBRARY = [row for row in ROWS if not isinstance(row[1], Run)]
CLI = [row for row in ROWS if isinstance(row[1], Run)]


@pytest.mark.parametrize("call, cls, message", [row[1:] for row in LIBRARY],
                         ids=[row[0] for row in LIBRARY])
def test_library_call_fails(call, cls, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Exception) as raised:
            call()
    assert type(raised.value) is cls
    assert re.fullmatch(message, str(raised.value))
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("run, code, stderr", [row[1:] for row in CLI], ids=[row[0] for row in CLI])
def test_cli_run_fails(tmp_path, capsys, monkeypatch, run, code, stderr):
    write_dataset_csv(DATA[:, :-1], LABELS, tmp_path / "data.csv")
    (tmp_path / "config.json").write_text(json.dumps(run.doc).replace("{tmp}", str(tmp_path)))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in run.argv]
    if run.patch:
        monkeypatch.setattr(*run.patch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if argv[0] == sys.executable:
            exit_code, out, err = run_process(argv)
        else:
            exit_code, (out, err) = main(argv), capsys.readouterr()
    assert (exit_code, out) == (code, run.stdout)
    assert re.fullmatch(stderr, err)
    assert [str(w.message) for w in caught] == []
    o = tmp_path / "o"
    assert o.exists() == bool(run.files)
    assert [name for name in OUTPUTS if (o / name).exists()] == list(run.files)
    if run.errors:  # aggregate.json lists every result row, each with its error
        errors = json.loads((o / "aggregate.json").read_text())["errors"]
        rows = (o / "results.csv").read_text().strip().splitlines()[1:]
        assert len(errors) == len(rows) and all(re.fullmatch(run.errors, e["error"])
                                                 for e in errors)

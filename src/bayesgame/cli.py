"""Command-line entry point: solve games, probe assumptions, run benchmarks.

Exit codes: 0 success, 1 configuration error, 2 runtime/solver failure,
including an allocation the run cannot make.
Every output directory gets a metadata.json sidecar with the config hash,
seed and package version for replay.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Literal

from . import __version__
from .experiments import _PRESET_SIZES, BenchmarkConfig, load_spambase, run_benchmark
from .game import FinitePrior, Prior, _check_count, discretize_prior
from .serialize import (
    ConfigError,
    _built,
    _choice,
    _typed,
    config_from_jsonable,
    game_from_jsonable,
    profile_to_jsonable,
    to_jsonable,
    with_flags,
)
from .solvers import (
    SolverConfig,
    assumption_probe,
    extragradient,
    pg_rbc,
    prg_ie,
    step_warnings,
)

ALGORITHMS = ("prg-ie", "pg-rbc", "extragradient")


@dataclass(frozen=True)
class ProbeConfig:
    """The ``probe`` section of a config: ``assumption_probe``'s trials and seed."""

    trials: int = 64
    seed: int = 0

    def __post_init__(self):
        _check_count(self.trials, "trials", 2)
        _check_count(self.seed, "seed", 0)


@dataclass(frozen=True)
class SolveConfig:
    """A solve/probe document's keys besides ``game``; none may be null."""

    prior: Prior
    discretize_k: int = 16
    algorithm: Literal[ALGORITHMS] = None
    solver: SolverConfig = None
    probe: ProbeConfig = ProbeConfig()

    def __post_init__(self):
        _check_count(self.discretize_k, "discretize_k")


def _load_json(path) -> tuple[dict, str]:
    try:
        data = Path(path).read_bytes()  # hashed as stored, decoded as strict UTF-8
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from None

    def reject_constant(token):  # json.loads accepts NaN, Infinity and -Infinity
        raise ConfigError(f"{path}: non-finite number {token} is not allowed")

    try:
        doc = json.loads(data.decode(), parse_constant=reject_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level document must be an object")
    return doc, hashlib.sha256(data).hexdigest()


def _write_metadata(out_dir: Path, config_hash: str, seed: int, config: dict) -> None:
    meta = {"config_sha256": config_hash, "seed": seed, "version": __version__, "config": config}
    (out_dir / "metadata.json").write_text(json.dumps(meta, indent=2, allow_nan=False) + "\n")


def _load_game(path, solver_seed=None):
    """A solve/probe config: its hash, game, other sections, solver and finite prior.

    Without a ``solver`` section the solver takes 10 000 steps of 0.01, and
    ``probe`` checks no step.  ``solver_seed``, when not None, replaces the
    solver's seed.  A continuous prior is discretized with the solver's seed,
    so ``solve`` and ``probe`` on one config see the same finite game.
    """
    doc, config_hash = _load_json(path)
    spec = game_from_jsonable(doc.pop("game", None), "game")
    config = config_from_jsonable(SolveConfig, doc, "")
    solver = with_flags(config.solver or SolverConfig(max_iters=10_000, gamma=0.01), "solver",
                        seed=solver_seed)
    prior = config.prior
    if isinstance(prior, FinitePrior):
        _built(prior._check_dimension, {"n": spec.n}, "prior")
    else:
        prior = discretize_prior(prior, spec.n, config.discretize_k, solver.seed)
    return config_hash, spec, config, solver, prior


def cmd_solve(args) -> int:
    config_hash, spec, config, solver, prior = _load_game(args.config, args.seed)
    algo = _choice(args.algo or config.algorithm, ALGORITHMS, "algorithm")

    # looked up per call, so that a rebound module name is the one that runs
    run = {"prg-ie": prg_ie, "pg-rbc": pg_rbc, "extragradient": extragradient}[algo]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            trace = run(spec, prior, solver)
        finally:  # a failed run's warnings come before its error line
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    # a failed run or a non-finite profile raises before anything is written
    profile = json.dumps(profile_to_jsonable(trace.final_profile), indent=2, allow_nan=False)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / "trace.csv")
    (out_dir / "profile.json").write_text(profile + "\n")
    _write_metadata(out_dir, config_hash, solver.seed,
                    {"algorithm": algo, "solver": to_jsonable(solver)})
    print(f"final residual: {trace.iterations[-1].residual:.6e}")
    return 0


def cmd_probe(args) -> int:
    config_hash, spec, config, solver, prior = _load_game(args.config)
    probe = with_flags(config.probe, "probe", seed=args.seed)
    gamma = solver.gamma if config.solver else None  # the step solve would take, if set
    diag = assumption_probe(spec, prior, trials=probe.trials, seed=probe.seed)

    messages = step_warnings(gamma, lipschitz=diag.L_hat, strong_monotonicity=diag.lambda_hat)
    payload = asdict(diag) | {"warnings": messages, "config_sha256": config_hash,
                              "version": __version__}
    text = json.dumps(payload, indent=2, allow_nan=False)
    print(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)
    return 0


def cmd_benchmark(args) -> int:
    _built(_check_count, {"value": args.workers, "name": "workers"}, "")  # before any work
    doc, config_hash = _load_json(args.config)
    # the one key with no BenchmarkConfig field; ... marks it absent, as a null is a value
    dataset_path = doc.pop("dataset", ...)
    config = config_from_jsonable(BenchmarkConfig, doc, "")
    config = with_flags(config, "", seed=args.seed, **_PRESET_SIZES.get(args.scale, {}))

    if dataset_path is ...:
        data_dir = os.environ.get("BAYESGAME_DATA")
        if not data_dir:
            raise ConfigError("dataset: no path in config and BAYESGAME_DATA is not set")
        dataset_path = os.path.join(data_dir, "spambase.data")
    dataset_path = _typed(dataset_path, str, "dataset")
    try:
        data = load_spambase(dataset_path)
    except OSError as exc:
        raise ConfigError(f"dataset: cannot read {dataset_path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"dataset: {exc}") from None

    result = run_benchmark(config, data, workers=args.workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result.to_csv(out_dir / "results.csv")
    summary = result.to_json()
    (out_dir / "aggregate.json").write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
    _write_metadata(out_dir, config_hash, config.seed, to_jsonable(config))
    for agg in result.aggregates:
        mean = "nan" if agg["mean_rmse"] is None else f"{agg['mean_rmse']:.4f}"
        print(
            f"{agg['method']:<11} {agg['prior_family']:<10} {agg['prior_params']:<24} "
            f"rmse={mean} ({agg['config']})"
        )
    if summary["errors"]:
        print(f"error: {len(summary['errors'])} of {len(result.rows)} result rows failed "
              "(listed under errors in aggregate.json)", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesgame", description="Bayesian regression game solver suite"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute an equilibrium profile")
    p_solve.add_argument("--config", required=True, help="JSON file with game/prior/solver")
    p_solve.add_argument("--out", required=True, help="output directory")
    p_solve.add_argument("--algo", choices=ALGORITHMS, help="override the config's algorithm")
    p_solve.add_argument("--seed", type=int, help="override the solver seed")
    p_solve.set_defaults(func=cmd_solve)

    p_probe = sub.add_parser("probe", help="estimate monotonicity/Lipschitz constants")
    p_probe.add_argument("--config", required=True)
    p_probe.add_argument("--out", help="optional JSON output file")
    p_probe.add_argument("--seed", type=int, help="override the probe seed")
    p_probe.set_defaults(func=cmd_probe)

    p_bench = sub.add_parser("benchmark", help="run the evaluation protocol")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--scale", choices=tuple(_PRESET_SIZES), help="size preset")
    p_bench.add_argument("--seed", type=int, help="override the benchmark seed")
    p_bench.add_argument("--workers", type=int, default=1, help="benchmark worker pool size")
    p_bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, OSError, MemoryError) as exc:  # SolverError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

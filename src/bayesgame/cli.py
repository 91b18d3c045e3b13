"""Command-line entry point: solve games, probe assumptions, run benchmarks.

Exit codes: 0 success, 1 configuration error, 2 runtime/solver failure.
Every output directory gets a metadata.json sidecar with the config hash,
seed and package version for replay.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .experiments import _PRESET_SIZES, BenchmarkConfig, load_spambase, run_benchmark
from .game import FinitePrior, discretize_prior
from .serialize import (
    ConfigError,
    _typed,
    config_from_jsonable,
    game_from_jsonable,
    prior_from_jsonable,
    profile_to_jsonable,
    to_jsonable,
    with_flags,
)
from .solvers import (
    ConfigurationError,
    SolverConfig,
    SolverError,
    assumption_probe,
    extragradient,
    pg_rbc,
    prg_ie,
    step_warnings,
)

ALGORITHMS = ("prg-ie", "pg-rbc", "extragradient")
DEFAULT_DISCRETIZE_K = 16
SOLVE_KEYS = ("game", "prior", "discretize_k", "algorithm", "solver", "probe")  # top level


@dataclass(frozen=True)
class ProbeConfig:
    """The ``probe`` section of a config: ``assumption_probe``'s trials and seed."""

    trials: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.trials < 2:
            raise ConfigError("probe.trials: expected an integer >= 2")
        if self.seed < 0:
            raise ConfigError(f"probe.seed: expected a nonnegative integer, got {self.seed}")


def _load_json(path, keys=None) -> tuple[dict, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None

    def reject_constant(token):  # json.loads accepts NaN, Infinity and -Infinity
        raise ConfigError(f"{path}: non-finite number {token} is not allowed")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level document must be an object")
    for key in doc:
        if keys and key not in keys:
            raise ConfigError(f"{key}: unknown key")
    return doc, hashlib.sha256(text.encode()).hexdigest()


def _write_metadata(out_dir: Path, config_hash: str, seed: int, config: dict) -> None:
    meta = {"config_sha256": config_hash, "seed": seed, "version": __version__, "config": config}
    (out_dir / "metadata.json").write_text(json.dumps(meta, indent=2, allow_nan=False) + "\n")


def _finite_prior(doc: dict, spec_n: int, seed: int) -> FinitePrior:
    prior = prior_from_jsonable(doc.get("prior"), "prior")
    k = _typed(doc.get("discretize_k", DEFAULT_DISCRETIZE_K), int, "discretize_k")
    if k < 1:
        raise ConfigError("discretize_k: expected a positive integer")
    if isinstance(prior, FinitePrior):
        if prior.atoms.shape[1] != spec_n:
            raise ConfigError(
                f"prior.atoms: dimension {prior.atoms.shape[1]} does not match game n={spec_n}"
            )
        return prior
    return discretize_prior(prior, spec_n, k, seed)


def cmd_solve(args) -> int:
    doc, config_hash = _load_json(args.config, SOLVE_KEYS)
    spec = game_from_jsonable(doc.get("game"), "game")
    solver_doc = doc.get("solver", {"max_iters": 10_000, "gamma": 0.01})
    solver = with_flags(config_from_jsonable(SolverConfig, solver_doc, "solver"), "solver",
                        seed=args.seed)
    algo = doc.get("algorithm", args.algo)  # the config's, checked even when the flag replaces it
    if algo not in ALGORITHMS:
        raise ConfigError(f"algorithm: expected one of {ALGORITHMS}, got {algo!r}")
    algo = args.algo or algo
    prior = _finite_prior(doc, spec.n, solver.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # looked up per call, so that a rebound module name is the one that runs
    run = {"prg-ie": prg_ie, "pg-rbc": pg_rbc, "extragradient": extragradient}[algo]
    trace = run(spec, prior, solver)
    trace.to_csv(out_dir / "trace.csv")
    (out_dir / "profile.json").write_text(
        json.dumps(profile_to_jsonable(trace.final_profile), indent=2, allow_nan=False) + "\n"
    )
    _write_metadata(out_dir, config_hash, solver.seed,
                    {"algorithm": algo, "solver": to_jsonable(solver)})
    print(f"final residual: {trace.iterations[-1].residual:.6e}")
    return 0


def cmd_probe(args) -> int:
    doc, config_hash = _load_json(args.config, SOLVE_KEYS)
    spec = game_from_jsonable(doc.get("game"), "game")
    probe = with_flags(config_from_jsonable(ProbeConfig, doc.get("probe", {}), "probe"), "probe",
                       seed=args.seed)
    # the section solve reads, when there is one: its gamma is checked against the estimates
    solver = doc.get("solver")
    gamma = None if solver is None else config_from_jsonable(SolverConfig, solver, "solver").gamma
    prior = _finite_prior(doc, spec.n, probe.seed)
    diag = assumption_probe(spec, prior, trials=probe.trials, seed=probe.seed)

    payload = asdict(diag)
    warnings = step_warnings(gamma, lipschitz=diag.L_hat, strong_monotonicity=diag.lambda_hat)
    payload["warnings"] = warnings
    payload["config_sha256"] = config_hash
    payload["version"] = __version__
    text = json.dumps(payload, indent=2, allow_nan=False)
    print(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    return 0


def cmd_benchmark(args) -> int:
    doc, config_hash = _load_json(args.config)
    dataset_path = doc.pop("dataset", None)  # the one key with no BenchmarkConfig field
    config = config_from_jsonable(BenchmarkConfig, doc, "")
    config = with_flags(config, "", seed=args.seed, **_PRESET_SIZES.get(args.scale, {}))

    if dataset_path is None:
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
    p_bench.add_argument("--scale", choices=("desk", "paper"), help="size preset")
    p_bench.add_argument("--seed", type=int, help="override the benchmark seed")
    p_bench.add_argument("--workers", type=int, default=1, help="benchmark worker pool size")
    p_bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ConfigurationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
